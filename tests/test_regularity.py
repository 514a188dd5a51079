"""Polynomials, series, star products, and three regularity routes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hyperslice.algebra import invert, make_algebra
from hyperslice.errors import (
    AlgebraMismatch,
    BlackBoxUnsupported,
    HypersliceError,
    IndexOutOfRange,
    NotImaginaryUnit,
    OutsideConvergenceBall,
)
from hyperslice.regularity import (
    OrderedPolynomial,
    PowerSeries,
    is_slice_regular,
    norm_constant,
    poly_eval,
    poly_to_stem,
    series_eval,
    slice_partial,
    slice_partial_conj,
    slice_tensor_product,
    star_product,
)
from hyperslice.slicefun import SlicePoint, slice_eval, stem_from_values
from hyperslice.stems import (
    CallableStem,
    StemPoly,
    sigma_tensor,
    stem_product,
)

from conftest import (
    random_cone_point,
    random_element,
    random_poly,
    random_real_stem,
    random_stem,
)
from oracles import one_variable_regularity_check, split_holomorphy_check

F12 = Fraction(1, 2)
F13 = Fraction(1, 3)


def _poly(algebra, n, terms):
    return OrderedPolynomial(n, algebra, terms)


def test_slice_partial_examples(H):
    one = H.one()
    x1x2 = _poly(H, 2, {(1, 1): one})
    x2 = _poly(H, 2, {(0, 1): one})
    assert slice_partial(x1x2, 1) == poly_to_stem(x2)
    x1 = _poly(H, 1, {(1,): one})
    assert not slice_partial_conj(x1, 1).components
    x1sq = _poly(H, 1, {(2,): one})
    assert slice_partial(x1sq, 1) == poly_to_stem(
        _poly(H, 1, {(1,): 2 * one}))


def test_partial_refuses_an_index_outside_1_to_n(H):
    p = _poly(H, 2, {(1, 2): H.one()})
    for h in (0, -1, 3):
        with pytest.raises(IndexOutOfRange, match=f"index {h} outside 1..2"):
            p.partial(h)


def test_polynomial_refuses_a_coefficient_of_another_algebra(H, O):
    with pytest.raises(AlgebraMismatch, match="octonions coefficient"):
        _poly(H, 1, {(0,): O.basis(5)})


def test_symbolic_ops_reject_black_boxes(H):
    g = CallableStem(1, H, lambda z: (H.zero(), H.zero()))
    with pytest.raises(BlackBoxUnsupported):
        slice_partial(g, 1)
    with pytest.raises(BlackBoxUnsupported):
        is_slice_regular(g)
    with pytest.raises(BlackBoxUnsupported):
        one_variable_regularity_check(g)


def test_polynomials_are_regular(H, O, rng):
    for algebra in (H, O):
        for n in (1, 2, 3):
            for _ in range(5):
                p = random_poly(n, algebra, rng)
                report = is_slice_regular(p)
                assert report.ok and report.max_residual == 0


def test_irregular_stem_certificate(H):
    F = StemPoly(1, H, {0: {(1, 0): H.one()}})  # alpha_1 alone
    report = is_slice_regular(F)
    assert not report.ok
    assert (1, 0, "alpha") in report.violations
    # conjugate monomial: alpha_1 - beta_1 J has both equations wrong
    G = StemPoly(1, H, {0: {(1, 0): H.one()}, 1: {(0, 1): -1 * H.one()}})
    assert not is_slice_regular(G).ok


def test_poly_eval_examples(H):
    one, i, j, k = (H.one(), H.basis_named("i"), H.basis_named("j"),
                    H.basis_named("k"))
    p = _poly(H, 1, {(2,): one, (0,): one})
    assert poly_eval(p, (j,)) == H.zero()
    q = _poly(H, 2, {(1, 1): i})
    assert poly_eval(q, (j, k)) == H.from_real(-1)
    # right-coefficient convention: x2 b, never b x2
    r = _poly(H, 2, {(0, 1): i})
    assert poly_eval(r, (one, j)) == j * i
    assert poly_eval(r, (one, j)) == -1 * k


def test_polynomial_arithmetic_matches_poly_eval(H, O, rng):
    # variables, sums, differences and real multiples act pointwise
    for algebra in (H, O):
        for _ in range(5):
            p = random_poly(2, algebra, rng)
            q = random_poly(2, algebra, rng)
            xs = tuple(random_element(algebra, rng, exact=True)
                       for _ in range(2))
            for h in (1, 2):
                x_h = OrderedPolynomial(2, algebra,
                                        {(2 - h, h - 1): algebra.one()})
                assert poly_eval(x_h, xs) == xs[h - 1]
            pv, qv = poly_eval(p, xs), poly_eval(q, xs)
            assert poly_eval(p + q, xs) == pv + qv
            assert poly_eval(p - q, xs) == pv - qv
            assert poly_eval(-F13 * p, xs) == -F13 * pv
            assert poly_eval(p * 2, xs) == pv * 2
            with pytest.raises(TypeError):
                p * q


def test_poly_eval_matches_stem_eval(H, O, rng):
    for algebra in (H, O):
        for _ in range(5):
            p = random_poly(2, algebra, rng)
            F = poly_to_stem(p)
            xs = (random_cone_point(algebra, rng),
                  random_cone_point(algebra, rng))
            point = SlicePoint.from_elements(xs)
            direct = poly_eval(p, point)
            via_stem = slice_eval(F, point)
            assert (direct - via_stem).euclid_norm() <= \
                1e-12 * (1 + direct.euclid_norm())


def test_star_product_examples(H):
    one, i, j, k = (H.one(), H.basis_named("i"), H.basis_named("j"),
                    H.basis_named("k"))
    pa = _poly(H, 2, {(1, 0): i})
    qb = _poly(H, 2, {(0, 1): j})
    assert star_product(pa, qb) == _poly(H, 2, {(1, 1): k})
    p = _poly(H, 2, {(2, 1): i, (0, 0): j})
    assert star_product(p, _poly(H, 2, {(0, 0): one})) == p
    xi = _poly(H, 1, {(1,): i})
    xj = _poly(H, 1, {(1,): j})
    assert star_product(xi, xj) == _poly(H, 1, {(2,): k})
    assert star_product(xj, xi) == _poly(H, 1, {(2,): -1 * k})


def test_star_agrees_with_tensor_stem_product(H, O, rng):
    for algebra in (H, O):
        for _ in range(10):
            p = random_poly(2, algebra, rng, deg=3, terms=3)
            q = random_poly(2, algebra, rng, deg=3, terms=3)
            left = poly_to_stem(star_product(p, q))
            right = stem_product(poly_to_stem(p), poly_to_stem(q),
                                 sigma_tensor(2))
            assert left == right
            assert right == slice_tensor_product(p, q)


def test_tensor_product_of_regulars_is_regular(H, O, rng):
    for algebra in (H, O):
        for _ in range(5):
            p = random_poly(2, algebra, rng, deg=3, terms=3)
            q = random_poly(2, algebra, rng, deg=3, terms=3)
            prod = slice_tensor_product(p, q)
            assert is_slice_regular(prod).ok


def test_slice_preserving_factors_are_central(H, rng):
    sigma = sigma_tensor(2)
    f = random_real_stem(2, H, rng, deg=2, terms=2)
    for _ in range(5):
        g = random_stem(2, H, rng, deg=2, terms=2)
        w = random_stem(2, H, rng, deg=2, terms=2)
        assert stem_product(f, g, sigma) == stem_product(g, f, sigma)
        assert stem_product(stem_product(g, f, sigma), w, sigma) == \
            stem_product(g, stem_product(f, w, sigma), sigma)


def test_stem_injectivity_on_polynomials(H, rng):
    p = random_poly(2, H, rng)
    q = random_poly(2, H, rng)
    if p != q:
        assert poly_to_stem(p) != poly_to_stem(q)
    # round trip through fiber recovery at a generic point
    F = poly_to_stem(p)
    f = lambda pt: slice_eval(F, pt)
    i, j = H.basis_named("i"), H.basis_named("j")
    G = stem_from_values(f, H, 2, (i, j))
    zs = [(F12, F13), (Fraction(-2, 3), Fraction(5, 4))]
    assert G.value_at(zs) == F.value_at(zs)


def test_norm_constant_quaternions(H):
    B = norm_constant(H)
    assert B == 1.0
    assert norm_constant(H) == B  # cached


def test_norm_constant_octonions(O):
    assert norm_constant(O) == 1.0


def test_norm_constant_bounds_sampled_unit_pairs(H, O, CL03):
    rng = np.random.default_rng(20240817)
    for A in (H, O, CL03):
        xs = rng.standard_normal((4000, A.dim))
        ys = rng.standard_normal((4000, A.dim))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        prods = np.einsum("ni,nj,ijk->nk", xs, ys, A.dense_tensor())
        assert np.linalg.norm(prods, axis=1).max() <= norm_constant(A) + 1e-12


def test_norm_constant_bounds_a_clifford_square():
    # x = (1 + e1234)(1 + e3456) has ||x x|| = 2 ||x||^2 in Cl(0,6)
    A = make_algebra("clifford(0,6)")
    one = A.one()
    x = (one + A.basis_named("e1234")) * (one + A.basis_named("e3456"))
    assert (x * x).euclid_norm() == 2.0 * x.euclid_norm() ** 2
    assert (x * x).euclid_norm() <= norm_constant(A) * x.euclid_norm() ** 2
    assert norm_constant(A) == math.sqrt(A.dim)


def test_series_geometric(H):
    i = H.basis_named("i")
    s = PowerSeries(1, H, lambda ell: H.one(), M=1.0)
    x = 0.5 * i
    value, tail = series_eval(s, (x,), rho=0.6)
    closed = invert(H.one() - x)
    assert (value - closed).euclid_norm() <= tail + 1e-12
    assert tail < 1e-3


def test_series_tail_bounds_a_slowly_converging_series(H):
    # a_l = M^|l| with M = 1 - 1e-12 at the real x = M, rho = 1: the head
    # of 25 terms is about 25 and f(x) = 1/(1 - M^2) about 5e11; a bound
    # summing its dominating series for a fixed number of terms stopped
    # near 5e9, far below the missing 5e11
    mpmath = pytest.importorskip("mpmath")
    M = 1 - 1e-12
    s = PowerSeries(1, H, lambda ell: H.from_real(M ** sum(ell)), M=M)
    value, tail = series_eval(s, (H.from_real(M),), rho=1.0)
    with mpmath.workdps(50):
        exact = 1 / (1 - mpmath.mpf(M) ** 2)
        error = abs(exact - mpmath.mpf(value.coeffs[0]))
    assert all(c == 0 for c in value.coeffs[1:])
    assert error > 4e11
    assert error <= tail < 10 * error


def test_series_tail_falls_back_to_the_whole_dominating_sum(H):
    # n = 3, a_l = M^|l| with M = 1 - 1e-6: q_h = gamma (h + 3)/(h + 1)
    # stays above 1 until h is about 2e6, so the thousand-term loop ends
    # and the bound is the whole dominating sum (1 - gamma)^-3
    mpmath = pytest.importorskip("mpmath")
    M = 1 - 1e-6
    s = PowerSeries(3, H, lambda ell: H.from_real(M ** sum(ell)), M=M)
    value, tail = series_eval(s, (H.from_real(0.5),) * 3, rho=1.0)
    gamma = norm_constant(H) * 1.0 * M  # B rho M
    assert tail == (1 - gamma) ** -3 * (1 + 1e-12)
    with mpmath.workdps(50):
        exact = 1 / (1 - mpmath.mpf(M) / 2) ** 3
        error = abs(exact - mpmath.mpf(value.coeffs[0]))
    assert all(c == 0 for c in value.coeffs[1:])
    assert error <= tail


def test_series_zero_and_polynomial(H, rng):
    zs = PowerSeries(1, H, {}, M=0.0)
    value, tail = series_eval(zs, (0.3 * H.basis_named("j"),), rho=0.5)
    assert value == H.zero() and tail == 0.0

    p = _poly(H, 2, {(1, 1): H.one()})
    s = PowerSeries(2, H, dict(p.terms), 1.0, truncation_degree=p.degree())
    xs = (random_cone_point(H, rng, span=0.3),
          random_cone_point(H, rng, span=0.3))
    value, tail = series_eval(s, xs, rho=0.9)
    assert tail == 0.0
    assert (value - poly_eval(p, xs)).euclid_norm() <= 1e-12


def test_series_rejects_divergence(H):
    s = PowerSeries(1, H, lambda ell: H.one(), M=1.0)
    with pytest.raises(OutsideConvergenceBall):
        series_eval(s, (2 * H.basis_named("i"),), rho=3.0)
    with pytest.raises(OutsideConvergenceBall):
        series_eval(s, (0.1 * H.basis_named("i"),), rho=0.05)
    with pytest.raises(OutsideConvergenceBall):
        PowerSeries(1, H, {(3,): H.from_real(100)}, M=1.0)


def test_series_refuses_nan_and_out_of_range_bounds(H):
    # every guard is a comparison, so NaN has to fail each one: with
    # rho or M NaN the tail bound once came back nan
    x = (0.1 * H.basis_named("i"),)
    s = PowerSeries(1, H, lambda ell: H.one(), M=0.5)
    for rho in (math.nan, 0.0, -1.0):
        with pytest.raises(HypersliceError, match="rho"):
            series_eval(s, x, rho)
    for M in (math.nan, math.inf, -0.5):
        s = PowerSeries(1, H, lambda ell: H.one(), M=M)
        with pytest.raises(HypersliceError, match="M must"):
            series_eval(s, x, 0.5)


def test_series_refuses_infinite_rho(H):
    # with M = 0, gamma = B * inf * 0 was nan, and the refusal named gamma
    s = PowerSeries(1, H, {(1,): H.zero()}, M=0.0)
    with pytest.raises(HypersliceError, match="rho must be a finite"):
        series_eval(s, (0.1 * H.basis_named("i"),), math.inf)


def test_split_holomorphy_examples(H):
    one = H.one()
    i = H.basis_named("i")
    f = _poly(H, 2, {(1, 1): one})
    report = split_holomorphy_check(f, i)
    assert report.ok and report.max_residual == 0
    bad = StemPoly(2, H, {0: {(1, 0, 0, 0): one}})
    rep2 = split_holomorphy_check(bad, i)
    assert not rep2.ok
    assert any(ell == 0 for ell, _, _ in rep2.failures)
    const = _poly(H, 2, {(0, 0): H.element([1, 2, -3, Fraction(1, 2)])})
    assert split_holomorphy_check(const, i).ok
    with pytest.raises(NotImaginaryUnit):
        split_holomorphy_check(f, one + i)


def test_split_holomorphy_matches_cr_route(H, O, rng):
    for algebra, unit in ((H, "j"), (O, "e5")):
        J = algebra.basis_named(unit)
        for _ in range(6):
            p = random_poly(2, algebra, rng, deg=3, terms=3)
            F = poly_to_stem(p)
            assert split_holomorphy_check(F, J).ok
            assert is_slice_regular(F).ok
            bump = StemPoly(2, algebra,
                            {0: {(1, 0, 0, 0): random_element(
                                algebra, rng, exact=True)}})
            if not bump.components:
                continue
            G = F + bump
            assert not split_holomorphy_check(G, J).ok
            assert not is_slice_regular(G).ok


def test_one_variable_route_examples(H):
    one = H.one()
    f = _poly(H, 2, {(1, 1): one})
    assert one_variable_regularity_check(f).ok
    c = _poly(H, 2, {(0, 0): H.basis_named("k")})
    assert one_variable_regularity_check(c).ok
    bad = StemPoly(2, H, {0: {(0, 0, 1, 0): one}})  # alpha_2 alone
    report = one_variable_regularity_check(bad)
    assert not report.ok
    assert any(h == 2 for h, _, _ in report.failures)


def test_one_variable_route_matches_cr(H, O, rng):
    for algebra in (H, O):
        for n in (2, 3):
            for _ in range(4):
                p = random_poly(n, algebra, rng, deg=3, terms=3)
                F = poly_to_stem(p)
                assert one_variable_regularity_check(F).ok == \
                    is_slice_regular(F).ok
                G = F + StemPoly(
                    n, algebra,
                    {0: {(1, 0) + (0, 0) * (n - 1): algebra.one()}})
                assert one_variable_regularity_check(G).ok == \
                    is_slice_regular(G).ok is False


def test_spherical_value_of_product_example(H):
    # two-variable check: vs of x1 x2 in the first variable is x2 Re(x1)
    one = H.one()
    f = poly_to_stem(_poly(H, 2, {(1, 1): one}))
    i, j = H.basis_named("i"), H.basis_named("j")
    p = SlicePoint(H, [F12, F13], [2, 3], [i, j])
    from hyperslice.slicefun import one_variable_split, slice_eval as ev

    g = one_variable_split(lambda q: ev(f, q), 1, 0)
    x2 = p.element(2)
    assert g(p) == x2 * F12
    d = one_variable_split(lambda q: ev(f, q), 1, 1)
    assert d(p) == x2


def test_poly_eval_power_tower(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    v = poly_eval(OrderedPolynomial(1, H, {(3,): i}), (j,))
    assert v == j * (j * (j * i))
