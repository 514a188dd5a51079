"""Point evaluation, fiber representation, spherical calculus."""

from fractions import Fraction

import pytest

from hyperslice.errors import (
    AlgebraMismatch,
    OnRealLocus,
    OutsideDomain,
    SphereMismatch,
)
from hyperslice.slicefun import (
    DomainSpec,
    SlicePoint,
    VariableDomain,
    as_point_function,
    one_variable_split,
    representation_eval,
    slice_eval,
    sliceness_residual,
    sliceness_scan,
    spherical_derivative,
    spherical_expansion,
    spherical_value,
    stem_from_values,
    subset_mask,
    truncated_derivative,
)
from hyperslice.stems import monomial_stem, sigma_tensor, stem_product

from conftest import random_imaginary_unit, random_stem

F12 = Fraction(1, 2)
F13 = Fraction(1, 3)
F23 = Fraction(2, 3)
F32 = Fraction(3, 2)


def _exact_point(algebra, unit_names, zs):
    units = [algebra.basis_named(nm) for nm in unit_names]
    return SlicePoint(algebra, [ab[0] for ab in zs], [ab[1] for ab in zs],
                      units)


def ordered_monomial_value(ell, a, xs):
    """Nested left multiplication x1^l1 (x2^l2 (... a))."""
    v = a
    for h in reversed(range(len(ell))):
        for _ in range(ell[h]):
            v = xs[h] * v
    return v


def test_point_canonicalizes_negative_beta(H):
    i = H.basis_named("i")
    p = SlicePoint(H, [1], [-2], [i])
    assert p.betas == (2,)
    assert p.units[0] == -1 * i
    assert p.element(1) == H.from_real(1) + (-2) * i


def test_point_from_elements_round_trip(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    xs = (H.from_real(F12) + F32 * i, H.from_real(-F13) + 2 * j)
    p = SlicePoint.from_elements(xs)
    assert p.elements() == xs
    assert p.z() == ((F12, F32), (-F13, 2))


def test_eval_matches_nested_products(H, O):
    for algebra, names in ((H, ("i", "j")), (O, ("e1", "e4"))):
        p = _exact_point(algebra, names, [(F12, F32), (-F13, 2)])
        xs = p.elements()
        for ell in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 2)):
            a = algebra.basis(algebra.dim - 1) + algebra.one() * F12
            F = monomial_stem(ell, a)
            assert slice_eval(F, p) == ordered_monomial_value(ell, a, xs)


def test_eval_respects_unit_flip_representation(H, rng):
    # (alpha, beta, J) and (alpha, -beta, -J) describe the same point
    F = random_stem(2, H, rng)
    i, j = H.basis_named("i"), H.basis_named("j")
    p = SlicePoint(H, [F12, -F13], [F32, 1], [i, j])
    q = SlicePoint(H, [F12, -F13], [-F32, -1], [-1 * i, -1 * j])
    assert slice_eval(F, p) == slice_eval(F, q)


def test_eval_rejects_mismatched_spaces(H, O, rng):
    F = random_stem(2, H, rng)
    p = _exact_point(O, ("e1", "e2"), [(0, 1), (0, 1)])
    with pytest.raises(AlgebraMismatch):
        slice_eval(F, p)
    q = _exact_point(H, ("i",), [(0, 1)])
    with pytest.raises(AlgebraMismatch):
        slice_eval(F, q)


def test_representation_formula_exact(H, rng):
    zs = [(F12, F23), (-F13, F32)]
    y = _exact_point(H, ("i", "j"), zs)
    for target_names in (("j", "k"), ("k", "i"), ("i", "i"), ("j", "j")):
        x = _exact_point(H, target_names, zs)
        for _ in range(5):
            F = random_stem(2, H, rng)
            f = lambda p: slice_eval(F, p)
            assert representation_eval(f, y, x) == slice_eval(F, x)


def test_representation_formula_octonions(O, rng):
    zs = [(F12, F23), (-F13, F32)]
    y = _exact_point(O, ("e1", "e4"), zs)
    x = _exact_point(O, ("e3", "e7"), zs)
    for _ in range(5):
        F = random_stem(2, O, rng)
        f = lambda p: slice_eval(F, p)
        assert representation_eval(f, y, x) == slice_eval(F, x)


def test_representation_formula_random_units(H, rng):
    for _ in range(10):
        zs = [(rng.uniform(-2, 2), rng.uniform(0.2, 2)) for _ in range(2)]
        I = [random_imaginary_unit(H, rng) for _ in range(2)]
        J = [random_imaginary_unit(H, rng) for _ in range(2)]
        y = SlicePoint(H, [z[0] for z in zs], [z[1] for z in zs], I)
        x = y.with_units(J)
        F = random_stem(2, H, rng, exact=False)
        f = lambda p: slice_eval(F, p)
        got = representation_eval(f, y, x)
        want = slice_eval(F, x)
        assert (got - want).euclid_norm() <= 1e-10 * (1 + want.euclid_norm())


def test_representation_handles_real_coordinates(H, rng):
    # variables with beta = 0 contribute nothing and need no inversion
    zs = [(F12, F23), (5, 0)]
    y = _exact_point(H, ("i", "j"), zs)
    x = _exact_point(H, ("k", "i"), zs)
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    assert representation_eval(f, y, x) == slice_eval(F, x)


def test_representation_rejects_fiber_mismatch(H):
    y = _exact_point(H, ("i", "j"), [(0, 1), (0, 1)])
    x = _exact_point(H, ("j", "k"), [(0, 1), (0, 2)])
    with pytest.raises(SphereMismatch):
        representation_eval(lambda p: p.algebra.zero(), y, x)


def test_stem_recovery_from_fiber(H, rng):
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    i, j = H.basis_named("i"), H.basis_named("j")
    G = stem_from_values(f, H, 2, (i, j))
    for zs in ([(F12, F23), (-F13, F32)], [(2, 1), (0, F12)]):
        assert G.value_at(zs) == F.value_at(zs)


def test_pointwise_product_in_wrong_order_is_not_slice(H):
    f = as_point_function(lambda x1, x2: x2 * x1)
    g = as_point_function(lambda x1, x2: x1 * x2)
    i, j = H.basis_named("i"), H.basis_named("j")
    target = _exact_point(H, ("i", "i"), [(0, 1), (0, 1)])
    r_bad = sliceness_residual(f, target, (i, j))
    assert r_bad >= 0.1
    r_good = sliceness_residual(g, target, (i, j))
    assert r_good <= 1e-12
    # anticommuting target units alone cannot tell the orders apart
    lucky = _exact_point(H, ("j", "k"), [(0, 1), (0, 1)])
    assert sliceness_residual(f, lucky, (i, j)) <= 1e-12
    pool = (i, j)
    assert sliceness_scan(f, target, pool) >= 0.1
    assert sliceness_scan(g, target, pool) <= 1e-12


def test_spherical_value_and_derivatives_match_stem(H, rng):
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    zs = [(F12, F23), (-F13, F32)]
    p = _exact_point(H, ("i", "j"), zs)
    vals = F.value_at(zs)
    assert spherical_value(f, p) == vals[0]
    for kmask in (1, 2, 3):
        scale = 1
        if kmask & 1:
            scale *= zs[0][1]
        if kmask & 2:
            scale *= zs[1][1]
        want = vals[kmask] * (1 / Fraction(scale))
        assert spherical_derivative(f, p, kmask) == want


def test_spherical_derivative_constant_on_fiber(H, rng):
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    zs = [(F12, F23), (-F13, F32)]
    a = _exact_point(H, ("i", "j"), zs)
    b = _exact_point(H, ("k", "k"), zs)
    for kmask in range(4):
        va = (spherical_value(f, a) if kmask == 0
              else spherical_derivative(f, a, kmask))
        vb = (spherical_value(f, b) if kmask == 0
              else spherical_derivative(f, b, kmask))
        assert va == vb


def test_spherical_derivative_needs_imaginary_part(H, rng):
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    p = _exact_point(H, ("i", "j"), [(F12, 0), (-F13, F32)])
    with pytest.raises(OnRealLocus):
        spherical_derivative(f, p, 1)
    spherical_derivative(f, p, 2)  # the other variable is fine


def test_spherical_expansion_reconstructs(H, O, rng):
    for algebra, names in ((H, ("i", "j")), (O, ("e2", "e6"))):
        F = random_stem(2, algebra, rng)
        f = lambda p: slice_eval(F, p)
        p = _exact_point(algebra, names, [(F12, F23), (-F13, F32)])
        assert spherical_expansion(f, p) == f(p)


def test_one_variable_split_iteration(H, rng):
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    p = _exact_point(H, ("i", "j"), [(F12, F23), (-F13, F32)])
    for kmask in range(4):
        g = f
        for h in (1, 2):
            g = one_variable_split(g, h, 1 if kmask >> (h - 1) & 1 else 0)
        want = (spherical_value(f, p) if kmask == 0
                else spherical_derivative(f, p, kmask))
        assert g(p) == want
        # averaging factors commute freely; two difference factors pick up
        # the anticommutator of the unit inversions when swapped
        g2 = f
        for h in (2, 1):
            g2 = one_variable_split(g2, h, 1 if kmask >> (h - 1) & 1 else 0)
        if kmask == 3:
            assert g2(p) == -1 * want
        else:
            assert g2(p) == want


def test_truncated_derivative_interpolates(H, rng):
    F = random_stem(2, H, rng)
    f = lambda p: slice_eval(F, p)
    p = _exact_point(H, ("i", "j"), [(F12, F23), (-F13, F32)])
    # empty prefix: the function itself
    assert truncated_derivative(F, p, ()) == f(p)
    # prefix over variable 1 only: equals one one-variable operator
    for e1 in (0, 1):
        got = truncated_derivative(F, p, (e1,))
        want = one_variable_split(f, 1, e1)(p)
        assert got == want
    # full prefix: spherical value / derivatives
    assert truncated_derivative(F, p, (0, 0)) == spherical_value(f, p)
    assert truncated_derivative(F, p, (1, 0)) == spherical_derivative(f, p, 1)
    assert truncated_derivative(F, p, (0, 1)) == spherical_derivative(f, p, 2)
    assert truncated_derivative(F, p, (1, 1)) == spherical_derivative(f, p, 3)
    with pytest.raises(OnRealLocus):
        truncated_derivative(
            F, _exact_point(H, ("i", "j"), [(F12, 0), (0, 1)]), (1,))


def test_diagonal_slice_product_law(H, rng):
    # real-coefficient stems multiply pointwise on a one-unit diagonal
    from conftest import random_real_stem

    sigma = sigma_tensor(2)
    F = random_real_stem(2, H, rng)
    G = random_real_stem(2, H, rng)
    prod = stem_product(F, G, sigma)
    J = H.basis_named("j")
    p = SlicePoint.slice_diagonal(H, [(F12, F23), (-F13, F32)], J)
    assert slice_eval(prod, p) == slice_eval(F, p) * slice_eval(G, p)
    # with noncommuting coefficients the pointwise product law breaks
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    A = monomial_stem((1, 0), i)
    B = monomial_stem((1, 0), j)
    AB = stem_product(A, B, sigma)
    q = SlicePoint.slice_diagonal(H, [(0, 1), (0, 1)], j)
    lhs = slice_eval(AB, q)
    rhs = slice_eval(A, q) * slice_eval(B, q)
    assert (lhs - rhs).euclid_norm() > 1.0


def test_domain_spec(H):
    dom = DomainSpec([
        VariableDomain("rect", alpha_min=-1, alpha_max=1, beta_max=2),
        VariableDomain("disc", center=0, radius=3),
    ])
    assert dom.contains_z([(0, 1), (1, 2)])
    assert not dom.contains_z([(2, 1), (0, 0)])
    assert not dom.contains_z([(0, 3), (0, 0)])
    assert not dom.contains_z([(0, 0), (3, 1)])
    p = _exact_point(H, ("i", "j"), [(0, 1), (1, 2)])
    dom.require(p)
    bad = _exact_point(H, ("i", "j"), [(0, 1), (4, 0)])
    with pytest.raises(OutsideDomain):
        dom.require(bad)
    again = DomainSpec.from_json(dom.to_json())
    assert again.contains_z([(0, 1), (1, 2)])
    assert not again.contains_z([(2, 1), (0, 0)])
    with pytest.raises(ValueError):
        VariableDomain("ball", radius=1)


def test_subset_mask_helper():
    assert subset_mask(1, 3) == 0b101
    assert subset_mask() == 0


def test_spherical_ops_on_octonion_fiber(O, rng):
    F = random_stem(2, O, rng)
    f = lambda p: slice_eval(F, p)
    p = _exact_point(O, ("e1", "e4"), [(F12, F23), (-F13, F32)])
    q = _exact_point(O, ("e5", "e2"), [(F12, F23), (-F13, F32)])
    for kmask in (1, 2, 3):
        assert spherical_derivative(f, p, kmask) == \
            spherical_derivative(f, q, kmask)
    assert spherical_expansion(f, q) == f(q)


def test_fiber_transform_calls_f_once_per_conjugate(H, O, rng):
    for n in (1, 2, 3):
        F = random_stem(n, H, rng)
        calls = []

        def f(p):
            calls.append(p)
            return slice_eval(F, p)

        zs = [(F12, F23), (-F13, F32), (2, F13)][:n]
        y = _exact_point(H, ("i", "j", "k")[:n], zs)
        x = _exact_point(H, ("j", "k", "i")[:n], zs)
        assert representation_eval(f, y, x) == slice_eval(F, x)
        assert len(calls) == 1 << n
        calls.clear()
        G = stem_from_values(f, H, n, y.units)
        assert G.value_at(zs) == F.value_at(zs)
        assert len(calls) == 1 << n
    # three octonion variables: the units need not associate
    F = random_stem(3, O, rng, deg=2, terms=2)
    f = lambda p: slice_eval(F, p)
    zs = [(F12, F23), (-F13, F32), (2, F13)]
    y = _exact_point(O, ("e1", "e2", "e4"), zs)
    x = _exact_point(O, ("e3", "e5", "e7"), zs)
    assert representation_eval(f, y, x) == slice_eval(F, x)
    assert spherical_expansion(f, x) == f(x)
