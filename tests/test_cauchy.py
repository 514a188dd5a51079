"""Cauchy kernels, integrand routes, and reconstruction on disc products."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperslice import cauchy
from hyperslice.algebra import AlgebraDef, invert, make_algebra
from hyperslice.cauchy import (BoundaryTorus, Circle, KernelPoint,
                               cauchy_reconstruct, char_poly,
                               slice_cauchy_kernel)
from hyperslice.errors import (AlgebraMismatch, HypersliceError,
                               NonAssociativeAlgebra, NotImaginaryUnit,
                               NotInQuadraticCone, OnSingularSphere,
                               PointOutsideE, QuadratureAliasing,
                               QuadratureSingularity)
from hyperslice.regularity import OrderedPolynomial, poly_eval, poly_to_stem
from hyperslice.slicefun import SlicePoint, representation_eval, slice_eval
from hyperslice.stems import StemPoly

from conftest import (random_element, random_imaginary_unit, random_poly,
                      random_stem)
from oracles import (boundary_value, cauchy_integrand,
                     cauchy_integrand_product_form, cauchy_kernel_1var,
                     distance_mp, kernel_stem_symbolic, poly_value_mp,
                     rational_stem_is_regular)


def test_char_poly_vanishes_exactly_on_the_sphere(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    one = H.one()
    assert char_poly(i, j).is_zero(0)
    assert char_poly(one + 2 * i, one + 2 * j).is_zero(0)
    assert char_poly(i, 2 * i) == H.from_real(-3)


def test_char_poly_rejects_nonreal_trace(CL03):
    e123 = CL03.basis_named("e123")
    with pytest.raises(NotInQuadraticCone):
        char_poly(e123, CL03.one())


def test_one_variable_kernel_examples(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    y = H.from_real(Q(1, 2)) + 2 * i
    assert cauchy_kernel_1var(H.zero(), y) == invert(y)
    expected = (-2 * i - j) * Q(1, 3)
    assert cauchy_kernel_1var(j, 2 * i) == expected


def test_kernel_refuses_pairs_on_the_pole_sphere(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    with pytest.raises(OnSingularSphere):
        cauchy_kernel_1var(2 * i, 2 * j)
    x = SlicePoint(H, [0.0, 0.0], [2.0, 0.5], [i, j])
    with pytest.raises(OnSingularSphere):
        KernelPoint(x, [2 * j, i])
    kp = KernelPoint(x, [3 * j, i])
    assert kp.min_abs_delta == pytest.approx(0.75)


def test_boundary_torus_shape_and_winding(H):
    torus = BoundaryTorus.discs(H, [1.5, 1.0], centers=[0.5, 0.0])
    assert torus.n == 2
    assert torus.J == H.basis_named("i")
    assert torus.contains_z(0.5, 1.2, 1)
    assert not torus.contains_z(0.5, 1.6, 1)
    assert len(torus.combos()) == 1
    ann = BoundaryTorus(H, [[(0.0, 2.0, 1), (0.0, 1.0, -1)]])
    assert ann.contains_z(0.0, 1.5, 1)
    assert not ann.contains_z(0.5, 0.0, 1)  # the hole
    assert not ann.contains_z(0.0, 2.5, 1)
    combos = ann.combos()
    assert sorted(orient for _, orient in combos) == [-1, 1]
    with pytest.raises(AlgebraMismatch):
        BoundaryTorus(H, [[(0.0, -1.0, 1)]])
    with pytest.raises(AlgebraMismatch):
        BoundaryTorus(H, [[Circle(0.0, 1.0, 2)]])
    with pytest.raises(AlgebraMismatch):
        BoundaryTorus(H, [[]])
    for centers in ([0.0, 1.0], []):
        with pytest.raises(AlgebraMismatch, match="centers for 1 radii"):
            BoundaryTorus.discs(H, [1.5], centers=centers)


def test_a_point_wound_twice_is_outside(H):
    # two nested positive circles wind twice around the point, and the
    # Cauchy sum there is twice f: -0.1 + 2.24i against f = -0.05 + 1.12i
    i = H.basis_named("i")
    torus = BoundaryTorus(H, [[(0.0, 1.5, 1), (0.0, 1.0, 1)]],
                          samples_per_circle=32)
    x = SlicePoint(H, [0.2], [0.3], [i])
    assert not torus.contains_z(0.2, 0.3, 1)
    assert torus.contains_z(0.2, 1.2, 1)  # inside the outer circle only
    f = OrderedPolynomial(1, H, {(2,): H.one(), (0,): i})
    for source in (f, poly_to_stem(f)):
        with pytest.raises(PointOutsideE):
            cauchy_reconstruct(source, torus, x)


def test_boundary_torus_refuses_non_finite_circles(H):
    for bad in (math.inf, math.nan):
        with pytest.raises(AlgebraMismatch, match="radius"):
            BoundaryTorus.discs(H, [bad])
        with pytest.raises(AlgebraMismatch, match="center"):
            BoundaryTorus.discs(H, [1.0], centers=[bad])


def test_boundary_torus_refuses_samples_that_are_not_an_int(H):
    # 2.5 once gave an answer with grid_points 2.5, and True ran with N = 1
    for bad in (2.5, 4.0, True, False, "8", 0, -3):
        with pytest.raises(HypersliceError, match="samples_per_circle"):
            BoundaryTorus.discs(H, [1.0], samples_per_circle=bad)


def test_integrand_of_one_is_one_on_the_unit_circle(H):
    i = H.basis_named("i")
    torus = BoundaryTorus.discs(H, [1.0], samples_per_circle=8)
    x0 = SlicePoint(H, [0.0], [0.0], [i])
    f = OrderedPolynomial(1, H, {(0,): H.one()})
    for t in (0.0, 0.7, 2.0, 3.9, 5.5):
        v = cauchy_integrand(f, x0, (t,), torus)
        assert (v - H.one()).is_zero(1e-14)


def test_closed_form_kernel_reduces_to_one_variable(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    x = SlicePoint(H, [0.3], [0.2], [j])
    y = H.from_real(0.5) + 2 * i
    diff = slice_cauchy_kernel(x, [y]) - cauchy_kernel_1var(x.element(1), y)
    assert diff.is_zero(1e-14)


def test_closed_form_kernel_sign_pattern_on_the_plane(H):
    # on the slice plane everything commutes, so the subset expansion
    # must reduce to the four-term display with signs (+, -, -, +)
    i = H.basis_named("i")
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, i])
    ys = [H.from_real(1.0) + 2 * i, H.from_real(-0.5) + 3 * i]
    x1, x2 = x.element(1), x.element(2)
    d1 = invert(char_poly(ys[0], x1))
    d2 = invert(char_poly(ys[1], x2))
    y1c, y2c = ys[0].conj(), ys[1].conj()
    display = (d1 * x1 * d2 * x2 - d1 * x1 * d2 * y2c
               - d1 * y1c * d2 * x2 + d1 * y1c * d2 * y2c)
    value = slice_cauchy_kernel(x, ys)
    assert (value - display).is_zero(1e-13)
    # any single sign flip breaks the identity
    flipped = (d1 * x1 * d2 * x2 + d1 * x1 * d2 * y2c
               - d1 * y1c * d2 * x2 + d1 * y1c * d2 * y2c)
    assert not (value - flipped).is_zero(1e-6)
    # and it multiplies out to the two one-variable kernels
    prod = (cauchy_kernel_1var(x1, ys[0]) * cauchy_kernel_1var(x2, ys[1]))
    assert (value - prod).is_zero(1e-13)


def test_closed_form_kernel_refuses_octonions(O):
    e1 = O.basis(1)
    x = SlicePoint(O, [0.1], [0.2], [e1])
    with pytest.raises(NonAssociativeAlgebra):
        slice_cauchy_kernel(x, [2 * e1])


def test_expanded_integrand_matches_product_form_on_the_plane(H, O):
    i = H.basis_named("i")
    f = OrderedPolynomial(2, H, {(1, 1): H.one()})
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=16)
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, i])
    for t in ((0.3, 1.1), (2.0, 4.4), (5.9, 0.02), (3.14, 3.14)):
        diff = (cauchy_integrand(f, x, t, torus)
                - cauchy_integrand_product_form(f, x, t, torus))
        assert diff.is_zero(1e-12)
    e = [O.basis(idx) for idx in range(8)]
    fo = OrderedPolynomial(2, O, {(2, 1): e[5], (1, 0): e[2]})
    torus_o = BoundaryTorus.discs(O, [1.2, 1.2], J=e[1], samples_per_circle=16)
    xo = SlicePoint(O, [0.2, 0.1], [0.3, 0.4], [e[1], e[1]])
    for t in ((0.3, 1.1), (2.0, 4.4), (5.9, 0.02)):
        diff = (cauchy_integrand(fo, xo, t, torus_o)
                - cauchy_integrand_product_form(fo, xo, t, torus_o))
        assert diff.is_zero(1e-12)


def test_product_form_differs_off_the_plane(H):
    # the reduction needs all coordinates of x on the torus slice; a
    # mixed-unit point must expose the difference between the two routes
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(1, 1): H.one()})
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=16)
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    diff = (cauchy_integrand(f, x, (0.3, 1.1), torus)
            - cauchy_integrand_product_form(f, x, (0.3, 1.1), torus))
    assert diff.euclid_norm() > 1e-3


def test_reconstruct_constant_is_exact_at_tiny_sample_counts(H):
    i, k = H.basis_named("i"), H.basis_named("k")
    x0 = SlicePoint(H, [0.0], [0.0], [i])
    for a in (H.one() + 2 * i - 3 * k, H.zero()):
        f = OrderedPolynomial(1, H, {(0,): a})
        for N in (2, 3, 4):
            torus = BoundaryTorus.discs(H, [1.0], samples_per_circle=N)
            val, diag = cauchy_reconstruct(f, torus, x0)
            assert (val - a).is_zero(1e-14)
            assert diag["N"] == N


def test_reconstruct_bidisc_quaternion_monomial(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(1, 1): H.one()})
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    ref = slice_eval(poly_to_stem(f), x)
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=128)
    val, diag = cauchy_reconstruct(f, torus, x)
    err128 = (val - ref).euclid_norm()
    assert err128 <= 1e-8
    torus2 = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=256)
    val2, _ = cauchy_reconstruct(f, torus2, x)
    err256 = (val2 - ref).euclid_norm()
    assert err256 <= max(0.5 * err128, 1e-12)
    # a polynomial gets a proven bound, and no direct reference
    assert "disagreement" not in diag and "reference" not in diag
    assert err128 <= diag["error_bound"] <= 1e-8
    assert diag["min_abs_delta"] >= 1e-3


def test_reconstruct_octonion_polynomial(O):
    e = [O.basis(idx) for idx in range(8)]
    f = OrderedPolynomial(2, O, {(2, 1): e[5], (1, 0): e[2]})
    x = SlicePoint(O, [0.2, 0.1], [0.3, 0.4], [e[1], e[4]])
    ref = slice_eval(poly_to_stem(f), x)
    torus = BoundaryTorus.discs(O, [1.5, 1.5], samples_per_circle=128)
    val, _ = cauchy_reconstruct(f, torus, x)
    assert (val - ref).euclid_norm() <= 1e-6


def test_reconstruction_is_independent_of_the_slice_unit(O):
    e = [O.basis(idx) for idx in range(8)]
    f = OrderedPolynomial(2, O, {(2, 1): e[5], (1, 0): e[2]})
    x = SlicePoint(O, [0.2, 0.1], [0.3, 0.4], [e[1], e[4]])
    units = [e[1], e[2], (e[1] + e[3]) * (1 / math.sqrt(2))]
    values = []
    for J in units:
        torus = BoundaryTorus.discs(O, [1.5, 1.5], J=J, samples_per_circle=64)
        values.append(cauchy_reconstruct(f, torus, x)[0])
    for v in values[1:]:
        assert (v - values[0]).is_zero(1e-8)


def test_error_halves_when_samples_double(H):
    # black-box data with geometric trapezoid error, visible at small N
    j = H.basis_named("j")

    def f(point):
        return invert(H.one() - point.element(1))

    x = SlicePoint(H, [0.1], [0.55], [j])
    ref = f(x)
    errs = {}
    for N in (8, 16, 32):
        torus = BoundaryTorus.discs(H, [0.75], samples_per_circle=N)
        val, _ = cauchy_reconstruct(f, torus, x)
        errs[N] = (val - ref).euclid_norm()
    assert errs[8] > 1e-3
    assert errs[16] <= 0.5 * errs[8]
    assert errs[32] <= 0.5 * errs[16]


def test_vectorized_and_pointwise_paths_agree(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(1, 1): H.one(), (0, 2): j})
    stem = poly_to_stem(f)
    torus = BoundaryTorus.discs(H, [1.3, 1.4], samples_per_circle=8)
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    fast, _ = cauchy_reconstruct(f, torus, x)
    slow, _ = cauchy_reconstruct(lambda p: slice_eval(stem, p), torus, x)
    assert (fast - slow).is_zero(1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["H", "O", "CL03"])
def test_stem_and_callable_boundary_values_reconstruct_alike(
        name, n, request, rng):
    # the stem supplies its boundary values in product form, the callable
    # node by node; both feed the same sum, so they agree to rounding
    A = request.getfixturevalue(name)
    N = {1: 16, 2: 8, 3: 4}[n]
    x = SlicePoint(A, [rng.uniform(-0.3, 0.3) for _ in range(n)],
                   [rng.uniform(0.7, 1.0) for _ in range(n)],
                   [random_imaginary_unit(A, rng) for _ in range(n)])
    annulus = [[(0.0, 1.4, 1)] for _ in range(n)]
    annulus[n - 1] = [(0.1, 1.4, 1), (0.0, 0.5, -1)]
    tori = [BoundaryTorus.discs(A, [1.3 + 0.1 * h for h in range(n)],
                                samples_per_circle=N),
            BoundaryTorus(A, annulus, J=random_imaginary_unit(A, rng),
                          samples_per_circle=N)]
    assert tori[1].J != A.default_imaginary_unit()
    poly = random_poly(n, A, rng, deg=3, exact=False)
    stem = random_stem(n, A, rng, deg=2, exact=False)
    zero = StemPoly(n, A, {})
    for torus in tori:
        for source, as_stem in ((poly, poly_to_stem(poly)), (stem, stem),
                                (zero, zero)):
            fast, _ = cauchy_reconstruct(source, torus, x)
            slow, _ = cauchy_reconstruct(lambda p: slice_eval(as_stem, p),
                                         torus, x)
            assert ((fast - slow).euclid_norm()
                    <= 1e-12 * slow.euclid_norm())
        assert cauchy_reconstruct(zero, torus, x)[0].is_zero(0)


def test_error_estimate_tracks_the_trapezoid_error(H):
    # Q_N - Q_{N/2} from the subgrid rule; near the circles it shrinks
    # with N and, the error being geometric, bounds the error of Q_N
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    f = OrderedPolynomial(2, H, {(2, 1): H.one() + 2 * k, (1, 0): j - i})
    x = SlicePoint(H, [0.3, -0.2], [1.25, 1.1], [i, j])
    ref = slice_eval(poly_to_stem(f), x)
    estimates = []
    for N in (8, 16, 32, 64, 128):
        torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=N)
        val, diag = cauchy_reconstruct(f, torus, x)
        assert (val - ref).euclid_norm() <= diag["error_estimate"]
        assert (val - ref).euclid_norm() <= diag["error_bound"]
        estimates.append(diag["error_estimate"])
    assert all(b < 0.5 * a for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] < 1e-3
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=7)
    assert cauchy_reconstruct(f, torus, x)[1]["error_estimate"] is None
    # one sample per circle aliases x1^2: refused, not estimated
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=1)
    with pytest.raises(QuadratureAliasing,
                       match="variable 1 has degree 2, and N = 1"):
        cauchy_reconstruct(f, torus, x)


def test_error_estimate_is_none_where_the_subgrid_aliases(H):
    # the N/2 rule aliases x1^5 once N/2 <= 5: its |Q_N - Q_{N/2}| once
    # read 2.83 and 7.63 against errors of 0.035 and 0.0051
    i = H.basis_named("i")
    f = OrderedPolynomial(1, H, {(5,): H.one()})
    x = SlicePoint(H, [0.2], [0.9], [i])
    ref = slice_eval(poly_to_stem(f), x)
    for N, estimated in ((6, False), (10, False), (12, True)):
        torus = BoundaryTorus.discs(H, [1.5], samples_per_circle=N)
        value, diag = cauchy_reconstruct(f, torus, x)
        assert (diag["error_estimate"] is not None) == estimated
        assert (value - ref).euclid_norm() <= diag["error_bound"]
    assert (value - ref).euclid_norm() <= diag["error_estimate"]


def test_stem_reconstruction_builds_no_grid(O, rng):
    # O, n = 2, N = 256: the grid values alone would be 4 MiB
    f = OrderedPolynomial(2, O, {(2, 1): random_element(O, rng),
                                 (1, 0): random_element(O, rng)})
    e = [O.basis(idx) for idx in range(8)]
    x = SlicePoint(O, [0.2, 0.1], [0.3, 0.4], [e[1], e[4]])
    torus = BoundaryTorus.discs(O, [1.5, 1.5], samples_per_circle=256)
    cauchy_reconstruct(f, torus, x)
    tracemalloc.start()
    try:
        cauchy_reconstruct(f, torus, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _integrand_grid_sum(f, torus, x):
    """The trapezoid rule on cauchy_integrand, node by node in Elements."""
    N = torus.samples_per_circle
    total = torus.algebra.zero()
    for idx in itertools.product(range(N), repeat=torus.n):
        t = tuple(2.0 * math.pi * k / N for k in idx)
        total = total + cauchy_integrand(f, x, t, torus)
    return total * (1.0 / N ** torus.n)


def test_reconstruct_equals_the_integrand_summed_over_the_grid(H, O, CL03):
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    e = [O.basis(idx) for idx in range(8)]
    c = [CL03.basis(idx) for idx in range(8)]
    s2, s3 = 1 / math.sqrt(2), 1 / math.sqrt(3)
    f_h = OrderedPolynomial(2, H, {(1, 1): H.one(), (2, 0): k, (0, 1): i})
    f_h3 = OrderedPolynomial(3, H, {(1, 1, 1): H.one(), (0, 2, 1): k,
                                    (1, 0, 2): i + j, (0, 0, 1): j})
    f_o = OrderedPolynomial(2, O, {(2, 1): e[5], (1, 0): e[2]})
    f_c = OrderedPolynomial(2, CL03, {(1, 1): c[7], (2, 1): c[3],
                                      (0, 2): c[5] + c[1]})
    cases = [
        (f_h3, BoundaryTorus.discs(H, [1.3, 1.4, 1.2], samples_per_circle=4),
         SlicePoint(H, [0.2, 0.1, -0.1], [0.3, 0.4, 0.2], [j, k, i])),
        (f_h, BoundaryTorus.discs(H, [1.3, 1.4], J=(i + j) * s2,
                                  samples_per_circle=8),
         SlicePoint(H, [0.2, 0.1], [0.3, 0.4],
                    [(j - k) * s2, (i + j + k) * s3])),
        (f_c, BoundaryTorus.discs(CL03, [1.3, 1.4], J=c[2],
                                  samples_per_circle=8),
         SlicePoint(CL03, [0.2, 0.1], [0.3, 0.4], [c[3], c[4]])),
        (f_h, BoundaryTorus(H, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                                [(0.1, 1.6, 1), (0.0, 0.4, -1)]],
                            samples_per_circle=8),
         SlicePoint(H, [0.1, 0.2], [0.8, 0.6], [i, j])),
        (f_h, BoundaryTorus.discs(H, [1.3, 1.4], samples_per_circle=8),
         SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [j, k])),
        (f_h, BoundaryTorus(H, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                                [(0.0, 1.5, 1)]], samples_per_circle=8),
         SlicePoint(H, [0.1, 0.2], [0.8, 0.3], [i, j])),
        (f_o, BoundaryTorus.discs(O, [1.5, 1.5], J=e[1],
                                  samples_per_circle=8),
         SlicePoint(O, [0.2, 0.1], [0.3, 0.4], [e[1], e[4]])),
    ]
    for f, torus, x in cases:
        stem = poly_to_stem(f)
        oracle = _integrand_grid_sum(f, torus, x)
        for source in (f, stem, lambda p: slice_eval(stem, p)):
            value, _ = cauchy_reconstruct(source, torus, x)
            assert (value - oracle).is_zero(1e-12)


def test_aliasing_sample_counts_are_refused_before_quadrature(
        H, monkeypatch):
    # N <= the degree of some variable aliases the trapezoid sums; the
    # refusal names the variable, its degree and N, and keeps no tables
    monkeypatch.setattr(cauchy, "_kept", {})
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(1, 3): H.one(), (2, 0): j})
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    for N, h, d in ((1, 1, 2), (2, 1, 2), (3, 2, 3)):
        torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=N)
        with pytest.raises(QuadratureAliasing,
                           match=f"variable {h} has degree {d}, and N = {N} "):
            cauchy_reconstruct(f, torus, x)
    assert cauchy._kept == {}
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=4)
    value, diag = cauchy_reconstruct(f, torus, x)
    assert (value - poly_eval(f, x)).euclid_norm() <= diag["error_bound"]
    # a stem is not checked: its reference reports what went wrong
    _, diag = cauchy_reconstruct(poly_to_stem(f), torus.discs(
        H, [1.5, 1.5], samples_per_circle=2), x)
    assert diag["disagreement"] > 1e-3


def test_kernel_route_matches_expanded_route_in_quaternions(H):
    # associatively, integrating kernel * boundary data must agree with
    # the subset-expanded integrand route
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(1, 1): H.one(), (1, 0): i})
    stem = poly_to_stem(f)
    N = 32
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=N)
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    J = torus.J
    total = H.zero()
    for a in range(N):
        for b in range(N):
            t = (2 * math.pi * a / N, 2 * math.pi * b / N)
            zs = boundary_value([c[0] for c in torus.circles], t)
            ys = [H.from_real(w.real) + w.imag * J for w in zs]
            point = SlicePoint(H, [w.real for w in zs],
                               [w.imag for w in zs], [J, J])
            vel = 1 + 0j
            for c, ang in zip((c[0] for c in torus.circles), t):
                vel *= c.radius * complex(-math.sin(ang), math.cos(ang))
            q = vel * (-1j) ** 2
            qe = H.from_real(q.real) + q.imag * J
            total = total + slice_cauchy_kernel(x, ys) * (qe * slice_eval(stem, point))
    via_kernel = total * (1.0 / N ** 2)
    direct, _ = cauchy_reconstruct(f, torus, x)
    assert (via_kernel - direct).is_zero(1e-10)
    assert (direct - slice_eval(stem, x)).is_zero(1e-10)


def test_reconstructed_values_form_a_slice_function(H):
    # values reconstructed on one fiber transport by the averaging
    # formula to every other unit assignment on that fiber
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    f = OrderedPolynomial(2, H, {(1, 1): H.one(), (2, 0): k})
    stem = poly_to_stem(f)
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=32)

    def f_rec(point):
        return cauchy_reconstruct(f, torus, point)[0]

    source = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    target = source.with_units([j, k])
    transported = representation_eval(f_rec, source, target)
    assert (transported - slice_eval(stem, target)).is_zero(1e-8)


def test_domain_and_singularity_guards(H):
    i = H.basis_named("i")
    f = OrderedPolynomial(2, H, {(1, 1): H.one()})
    torus = BoundaryTorus.discs(H, [1.0, 1.0], samples_per_circle=8)
    with pytest.raises(PointOutsideE):
        cauchy_reconstruct(f, torus, SlicePoint(H, [0.0, 0.0], [1.2, 0.1],
                                                [i, i]))
    with pytest.raises(QuadratureSingularity):
        cauchy_reconstruct(f, torus, SlicePoint(H, [0.0, 0.0], [0.9999, 0.1],
                                                [i, i]))
    # one variable on a two-variable torus, refused before any quadrature
    g = OrderedPolynomial(1, H, {(2,): H.one()})
    x = SlicePoint(H, [0.1, 0.0], [0.2, 0.1], [i, i])
    for h in (g, poly_to_stem(g)):
        with pytest.raises(AlgebraMismatch, match="1 variables, torus has 2"):
            cauchy_reconstruct(h, torus, x)
    # a polynomial or stem over another algebra, refused the same way
    O = make_algebra("O")
    k = OrderedPolynomial(2, O, {(1, 1): O.one()})
    for h in (k, poly_to_stem(k)):
        with pytest.raises(AlgebraMismatch, match="over octonions, torus"):
            cauchy_reconstruct(h, torus, x)


def test_annulus_reconstruction_and_hole_refusal(H):
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(1, 1): H.one()})
    ann = BoundaryTorus(H, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                            [(0.0, 1.5, 1)]], samples_per_circle=64)
    x = SlicePoint(H, [0.1, 0.2], [0.8, 0.3], [i, j])
    val, _ = cauchy_reconstruct(f, ann, x)
    assert (val - slice_eval(poly_to_stem(f), x)).is_zero(1e-10)
    with pytest.raises(PointOutsideE):
        cauchy_reconstruct(f, ann, SlicePoint(H, [0.0, 0.2], [0.2, 0.3],
                                              [i, j]))


def test_kernel_stem_is_slice_regular_symbolically(H):
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    ys_c = [(Q(1), Q(2)), (Q(-1, 2), Q(3))]
    numer, denom = kernel_stem_symbolic(H, ys_c, i)
    assert rational_stem_is_regular(numer, denom)
    # sanity: perturbing the numerator breaks the certificate
    broken = numer + poly_to_stem(OrderedPolynomial(2, H, {(0, 1): i}))
    assert not rational_stem_is_regular(broken, denom)
    # the rational stem evaluates to the closed-form kernel off the plane
    ys = [H.from_real(1) + 2 * i, H.from_real(Q(-1, 2)) + 3 * i]

    def denom_at(z):
        flat = [c for ab in z for c in ab]
        total = 0
        for exp, c in denom.items():
            term = c
            for v, e in zip(flat, exp):
                term *= v ** e
            total += term
        return total

    for units in ((j, k), (i, j)):
        x = SlicePoint(H, [0.2, -0.4], [0.7, 0.3], list(units))
        direct = slice_cauchy_kernel(x, ys)
        via_stem = slice_eval(numer, x) * (1.0 / float(denom_at(x.z())))
        assert (direct - via_stem).is_zero(1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["H", "O", "CL03"])
def test_polynomial_on_the_slice_is_its_stem_on_the_slice(name, n, request,
                                                          rng):
    # x^l a = z^l a on C_J: the polynomial's product form (its core and
    # the complex powers of the nodes, c a read as Re(c) a + Im(c) J a)
    # against its stem evaluated at each node of the torus
    import numpy as np
    A = request.getfixturevalue(name)
    units = [A.default_imaginary_unit(), A.basis(2)]
    assert units[1] != units[0]
    circles = [[(0.1, 1.3, 1)] for _ in range(n)]
    circles[0] = [(0.0, 1.5, 1), (0.0, 0.5, -1)]
    polys = [random_poly(n, A, rng, deg=3, exact=True) for _ in range(5)]
    for J in units:
        torus = BoundaryTorus(A, circles, J=J, samples_per_circle=3)
        tables = cauchy._build_tables(torus.circles, 3)
        for p in polys + [OrderedPolynomial.zero(n, A)]:
            stem = poly_to_stem(p)
            core, V = cauchy._polynomial_on_grid(p, torus, tables)
            for combo in itertools.product(*tables.rows):
                for t in itertools.product(range(3), repeat=n):
                    zs = [complex(tables.z[c, th]) for c, th in zip(combo, t)]
                    # contract each axis with its circle's z^d at node t_h
                    v = core(tables.z[list(combo)])
                    for c, th in zip(combo, t):
                        v = np.tensordot(V[c][:, th], v, axes=1)
                    value = (A.element(v.real.tolist())
                             + J * A.element(v.imag.tolist()))
                    want = slice_eval(stem, SlicePoint(
                        A, [w.real for w in zs], [w.imag for w in zs],
                        [J] * n))
                    assert (value - want).euclid_norm() <= 1e-12 * (
                        1 + want.euclid_norm())


def test_polynomial_reconstruction_never_forms_the_stem(H, monkeypatch):
    import sys

    def forbidden(*args):
        raise AssertionError("the polynomial went through its stem")

    for mod in [m for k, m in sys.modules.items()
                if k.startswith("hyperslice")]:
        for name in ("poly_to_stem", "monomial_stem"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(2, 1): H.one() + j, (1, 0): i})
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=16)
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    value, diag = cauchy_reconstruct(f, torus, x)
    assert (value - poly_eval(f, x)).euclid_norm() <= diag["error_bound"]
    assert diag["error_bound"] < 1e-6


def test_polynomial_reconstruction_takes_no_element_product(
        H, O, CL03, rng, monkeypatch):
    # the boundary values are complex node powers and the bound is closed
    # form: no call of the product loop and no direct evaluation
    import sys
    calls = []
    product = AlgebraDef.product

    def counted(self, rows, b):
        calls.append("product")
        return product(self, rows, b)

    def counted_eval(*args):
        calls.append("poly_eval")
        return poly_eval(*args)

    monkeypatch.setattr(AlgebraDef, "product", counted)
    for mod in [m for k, m in sys.modules.items()
                if k.startswith("hyperslice")]:
        if hasattr(mod, "poly_eval"):
            monkeypatch.setattr(mod, "poly_eval", counted_eval)
    for A in (H, O, CL03):
        p = random_poly(2, A, rng, deg=3, exact=False)
        torus = BoundaryTorus(A, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                                  [(0.1, 1.4, 1)]], samples_per_circle=16)
        x = SlicePoint(A, [0.1, 0.2], [0.8, 0.3],
                       [random_imaginary_unit(A, rng) for _ in range(2)])
        calls.clear()
        value, diag = cauchy_reconstruct(p, torus, x)
        assert calls == [] and diag["error_bound"] > 0
        # the counters do see a direct evaluation
        sys.modules["hyperslice"].poly_eval(p, x)
        assert calls[0] == "poly_eval" and calls.count("product") > 0


def test_stem_is_put_on_the_slice_once_per_reconstruction(H, monkeypatch):
    # two variables with an annulus each: four circle combinations, one
    # core for all of them
    i, j = H.basis_named("i"), H.basis_named("j")
    stem = poly_to_stem(OrderedPolynomial(2, H, {(2, 1): H.one() + j,
                                                 (1, 0): i}))
    torus = BoundaryTorus(H, [[(0.0, 1.5, 1), (0.0, 0.5, -1)]] * 2,
                          samples_per_circle=64)
    x = SlicePoint(H, [0.1, 0.2], [0.8, 0.7], [i, j])
    calls = []
    on_slice = StemPoly.on_slice

    def counted(self, J):
        calls.append(J)
        return on_slice(self, J)

    monkeypatch.setattr(StemPoly, "on_slice", counted)
    value, diag = cauchy_reconstruct(stem, torus, x)
    assert len(torus.combos()) == 4 and len(calls) == 1
    assert diag["disagreement"] < 1e-10


@st.composite
def _reconstruction_cases(draw):
    """(algebra, torus, point, polynomial) over the engine's input kinds."""
    name = draw(st.sampled_from(["H", "O", "clifford(0,3)"]))
    A = make_algebra(name)
    n = draw(st.integers(1, 3))
    N = draw(st.integers(3, {1: 16, 2: 8, 3: 5}[n]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    circles = [[(rng.uniform(-0.1, 0.1), rng.uniform(1.2, 1.5), 1)]
               for _ in range(n)]
    if draw(st.booleans()):
        # an annulus: the inner circle runs clockwise
        circles[draw(st.integers(0, n - 1))].append((0.0, 0.5, -1))
    J = random_imaginary_unit(A, rng) if draw(st.booleans()) else None
    torus = BoundaryTorus(A, circles, J=J, samples_per_circle=N)
    x = SlicePoint(A, [rng.uniform(-0.3, 0.3) for _ in range(n)],
                   [rng.uniform(0.7, 1.0) for _ in range(n)],
                   [random_imaginary_unit(A, rng) for _ in range(n)])
    p = random_poly(n, A, rng, deg=draw(st.integers(0, 4)), exact=False)
    return torus, x, p


@settings(deadline=None, max_examples=60, database=None)
@given(_reconstruction_cases())
def test_polynomial_stem_and_callable_reconstruct_alike(case):
    # three product forms of one function through one quadrature: the
    # complex powers, the stem's real powers and the values node by node
    torus, x, p = case
    stem = poly_to_stem(p)
    sources = [stem, lambda q: slice_eval(stem, q)]
    degree = max((max(ell) for ell in p.terms), default=0)
    if torus.samples_per_circle <= degree:
        # the polynomial's trapezoid sums alias: refused, and the stem
        # stands in as the value the callable must reproduce
        with pytest.raises(QuadratureAliasing):
            cauchy_reconstruct(p, torus, x)
        value, _ = cauchy_reconstruct(sources.pop(0), torus, x)
    else:
        value, _ = cauchy_reconstruct(p, torus, x)
    for source in sources:
        other, _ = cauchy_reconstruct(source, torus, x)
        assert ((other - value).euclid_norm()
                <= 1e-12 * (1 + value.euclid_norm()))


@st.composite
def _bound_cases(draw):
    """(torus, point, polynomial) with N from degree + 1 to 4(degree + 1),
    off-centre discs and annuli, near the circles and far from them."""
    A = make_algebra(draw(st.sampled_from(["H", "O", "clifford(0,3)"])))
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = random_poly(n, A, rng, deg=draw(st.integers(0, 4)), exact=False)
    d = max((max(ell) for ell in p.terms), default=0)
    N = draw(st.integers(d + 1, 4 * (d + 1)))
    circles = [[(rng.uniform(-0.3, 0.3), rng.uniform(1.1, 1.6), 1)]
               for _ in range(n)]
    if draw(st.booleans()):
        # an annulus: the inner circle runs clockwise
        circles[draw(st.integers(0, n - 1))].append(
            (rng.uniform(-0.1, 0.1), rng.uniform(0.2, 0.5), -1))
    J = random_imaginary_unit(A, rng) if draw(st.booleans()) else None
    torus = BoundaryTorus(A, circles, J=J, samples_per_circle=N)
    while True:
        x = SlicePoint(A, [rng.uniform(-0.9, 0.9) for _ in range(n)],
                       [rng.uniform(0.0, 1.0) for _ in range(n)],
                       [random_imaginary_unit(A, rng) for _ in range(n)])
        if torus.contains_point(x):
            return torus, x, p


@settings(deadline=None, max_examples=80, database=None)
@given(_bound_cases())
def test_polynomial_error_bound_holds_against_mpmath(case):
    # |Q_N - p(x)| <= error_bound, p(x) to 50 digits in Element arithmetic
    # on mpf coefficients; truncation dominates at these N
    pytest.importorskip("mpmath")
    torus, x, p = case
    try:
        value, diag = cauchy_reconstruct(p, torus, x)
    except QuadratureSingularity:
        return
    error = distance_mp(value, poly_value_mp(p, x))
    assert error <= diag["error_bound"] < math.inf


@pytest.mark.parametrize("name", ["H", "O", "CL03"])
def test_error_bound_covers_rounding_at_large_sample_counts(name, request,
                                                            rng):
    # at N = 256 the truncation term is far below rounding, so the bound
    # rests on its rounding term: it must still hold, and stay small
    pytest.importorskip("mpmath")
    A = request.getfixturevalue(name)
    # a constant has no unit-defect term: only the rounding term covers it
    constant = OrderedPolynomial(2, A, {(0, 0): random_element(A, rng)})
    for p in [constant] + [random_poly(2, A, rng, deg=4, exact=False)
                           for _ in range(4)]:
        torus = BoundaryTorus(A, [[(0.0, 1.5, 1), (0.1, 0.4, -1)],
                                  [(-0.2, 1.3, 1)]], samples_per_circle=256)
        x = SlicePoint(A, [0.3, -0.1], [0.6, 0.5],
                       [random_imaginary_unit(A, rng) for _ in range(2)])
        value, diag = cauchy_reconstruct(p, torus, x)
        error = distance_mp(value, poly_value_mp(p, x))
        assert error <= diag["error_bound"] <= 1e-7 * (
            1 + value.euclid_norm())


@pytest.mark.parametrize("name", ["H", "O", "CL03"])
def test_polynomial_stem_and_callable_agree_on_an_annulus(name, request,
                                                          rng):
    A = request.getfixturevalue(name)
    J = random_imaginary_unit(A, rng)
    assert J != A.default_imaginary_unit()
    torus = BoundaryTorus(A, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                              [(0.1, 1.4, 1)]], J=J, samples_per_circle=64)
    x = SlicePoint(A, [0.1, 0.2], [0.8, 0.3],
                   [random_imaginary_unit(A, rng) for _ in range(2)])
    p = random_poly(2, A, rng, deg=3, exact=False)
    stem = poly_to_stem(p)
    ref, diag = cauchy_reconstruct(p, torus, x)
    assert ref.euclid_norm() > 0.1
    for source in (stem, lambda q: slice_eval(stem, q)):
        value, _ = cauchy_reconstruct(source, torus, x)
        assert (value - ref).euclid_norm() <= 1e-12 * ref.euclid_norm()
    # (0.5 / |x_1|)^64 is below rounding: the direct value agrees too,
    # within the reported bound
    error = (ref - poly_eval(p, x)).euclid_norm()
    assert error <= 1e-10 * ref.euclid_norm()
    assert error <= diag["error_bound"]


def test_boundary_torus_refuses_a_bad_slice_unit(H, O):
    i, j = H.basis_named("i"), H.basis_named("j")
    for J in (2 * i, 1.0, i + j, H.one(), H.zero()):
        with pytest.raises(NotImaginaryUnit):
            BoundaryTorus.discs(H, [1.5], J=J)
    with pytest.raises(AlgebraMismatch):
        BoundaryTorus.discs(H, [1.5], J=O.basis(1))
    # a unit given in floats, as the CLI parses it, passes
    s2 = 1 / math.sqrt(2)
    assert BoundaryTorus.discs(H, [1.5], J=(i + j) * s2).J == (i + j) * s2


def test_callable_values_of_the_wrong_type_raise_a_typed_error(H, O, CL11):
    i = H.basis_named("i")
    torus = BoundaryTorus.discs(H, [1.5], samples_per_circle=32)
    x = SlicePoint(H, [0.2], [0.3], [i])
    # Cl(1,1) has H's dimension but another table; O another dimension
    for value in (CL11.basis(1), O.basis(1), 1.0):
        with pytest.raises(AlgebraMismatch):
            cauchy_reconstruct(lambda p, v=value: v, torus, x)
    # Cl(0,2) has H's table, so its values are quaternions
    C02 = make_algebra("clifford", (0, 2))
    value, _ = cauchy_reconstruct(lambda p: C02.basis(3), torus, x)
    assert (value - H.basis_named("k")).is_zero(1e-12)


def test_callable_reconstruction_keeps_one_float_per_value(O, rng):
    # O, n = 2, N = 32: 1024 nodes of 8 floats are 64 KiB as an array
    f = OrderedPolynomial(2, O, {(2, 1): random_element(O, rng),
                                 (1, 0): random_element(O, rng)})
    stem = poly_to_stem(f)
    e = [O.basis(idx) for idx in range(8)]
    x = SlicePoint(O, [0.2, 0.1], [0.3, 0.4], [e[1], e[4]])
    torus = BoundaryTorus.discs(O, [1.5, 1.5], samples_per_circle=32)

    def g(p):
        return slice_eval(stem, p)

    cauchy_reconstruct(g, torus, x)
    tracemalloc.start()
    try:
        cauchy_reconstruct(g, torus, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 10


def _grid_per_node(f, torus, zs):
    """The callable's boundary values, one SlicePoint built per node."""
    import numpy as np
    algebra = torus.algebra
    values = np.empty(tuple(len(z) for z in zs) + (algebra.dim,))
    for row, node in zip(values.reshape(-1, algebra.dim),
                         itertools.product(*(z.tolist() for z in zs))):
        row[:] = f(SlicePoint(algebra, [w.real for w in node],
                              [w.imag for w in node],
                              [torus.J] * torus.n)).coeffs
    return values


@pytest.mark.parametrize("name", ["H", "O"])
def test_callable_grid_contract(name, request, rng, monkeypatch):
    # one call per node and circle combination; every point normalised
    # (beta >= 0, unit J or -J); values as with a SlicePoint per node
    A = request.getfixturevalue(name)
    J = random_imaginary_unit(A, rng)
    stem = poly_to_stem(random_poly(2, A, rng, deg=3, exact=False))
    x = SlicePoint(A, [0.1, 0.2], [0.8, -0.3],
                   [random_imaginary_unit(A, rng) for _ in range(2)])
    N = 12
    for torus in (BoundaryTorus.discs(A, [1.5, 1.5], J=J,
                                      samples_per_circle=N),
                  BoundaryTorus(A, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                                    [(0.1, 1.4, 1)]], J=J,
                                samples_per_circle=N)):
        points = []

        def f(point):
            points.append(point)
            return slice_eval(stem, point)

        value, _ = cauchy_reconstruct(f, torus, x)
        assert len(points) == N ** 2 * len(torus.combos())
        for point in points:
            assert min(point.betas) >= 0
            assert all(u == J or u == -1 * J for u in point.units)
        with monkeypatch.context() as m:
            m.setattr(cauchy, "_callable_on_grid", _grid_per_node)
            want, _ = cauchy_reconstruct(f, torus, x)
        assert list(map(repr, value.coeffs)) == list(map(repr, want.coeffs))


def test_reconstruct_refuses_a_point_unit_that_does_not_square_to_minus_one(
        H, O):
    # the kernel's factors are complex numbers in each unit only when
    # u u = -1; checked before the boundary values are asked for
    i, j = H.basis_named("i"), H.basis_named("j")
    torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=8)
    calls = []

    def f(point):
        calls.append(point)
        return H.one()

    for bad in (0.9 * i, H.from_real(0.1) + i, (i + j) * 0.7):
        x = SlicePoint(H, [0.2, 0.1], [0.5, 0.3], [i, bad])
        for source in (f, OrderedPolynomial(2, H, {(2, 0): H.one()})):
            with pytest.raises(NotImaginaryUnit):
                cauchy_reconstruct(source, torus, x)
    assert calls == []
    # rounding far inside DEFAULT_TOL passes, as in O
    s2 = 1 / math.sqrt(2)
    x = SlicePoint(O, [0.2], [0.5], [(O.basis(3) + O.basis(6)) * s2])
    f = OrderedPolynomial(1, O, {(2,): O.one()})
    value, diag = cauchy_reconstruct(
        f, BoundaryTorus.discs(O, [1.5], samples_per_circle=64), x)
    error = (value - poly_eval(f, x)).euclid_norm()
    assert error < 1e-12 and error <= diag["error_bound"]


def test_kept_tables_give_the_cold_result_and_refuse_writes(
        H, O, CL03, rng, monkeypatch):
    # H, O and Cl(0,3), n = 1-3, discs and an annulus whose inner circle
    # has orientation -1, odd and even N; polynomial, stem and callable
    monkeypatch.setattr(cauchy, "_kept", {})
    cases = [
        (H, BoundaryTorus.discs(H, [1.5], samples_per_circle=7),
         [0.3], [0.4]),
        (O, BoundaryTorus(O, [[(0.0, 1.5, 1), (0.0, 0.5, -1)],
                              [(0.1, 1.4, 1)]], samples_per_circle=8),
         [0.1, 0.2], [0.8, 0.3]),
        (CL03, BoundaryTorus.discs(CL03, [1.3, 1.4, 1.2],
                                   samples_per_circle=4),
         [0.2, 0.1, -0.1], [0.3, 0.4, 0.2]),
        (H, BoundaryTorus.discs(H, [1.3, 1.4, 1.2], samples_per_circle=5),
         [0.2, 0.1, -0.1], [0.3, 0.4, 0.2]),
    ]
    for A, torus, alphas, betas in cases:
        x = SlicePoint(A, alphas, betas,
                       [random_imaginary_unit(A, rng) for _ in alphas])
        p = random_poly(len(alphas), A, rng, deg=3, exact=False)
        stem = poly_to_stem(p)
        key = (torus.circles, torus.samples_per_circle)
        for source in (p, stem, lambda q: slice_eval(stem, q)):
            cauchy._kept.clear()
            cold = cauchy_reconstruct(source, torus, x)
            tables = cauchy._kept[key]
            warm = cauchy_reconstruct(source, torus, x)
            assert repr(warm) == repr(cold)
            # a warm call stores nothing: the kept tables stay as they were
            assert cauchy._kept[key] is tables
            for a in tables[1:]:
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 0


def test_each_geometry_keeps_its_own_tables(H, monkeypatch):
    monkeypatch.setattr(cauchy, "_kept", {})
    i, j = H.basis_named("i"), H.basis_named("j")
    f = OrderedPolynomial(2, H, {(2, 1): H.one() + j, (1, 0): i})
    x = SlicePoint(H, [0.2, 0.1], [0.3, 0.4], [i, j])
    tori = [BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=32),
            BoundaryTorus.discs(H, [1.5, 1.2], samples_per_circle=32),
            BoundaryTorus.discs(H, [1.5, 1.2], centers=[0.1, 0.0],
                                samples_per_circle=32)]
    values = [cauchy_reconstruct(f, torus, x)[0] for torus in tori]
    kept = [cauchy._kept[(t.circles, 32)] for t in tori]
    assert len(cauchy._kept) == 3
    assert not (kept[0].z == kept[1].z).all()
    assert not (kept[1].z == kept[2].z).all()
    # each value as a cold call on its own geometry gives it
    for torus, value in zip(tori, values):
        cauchy._kept.clear()
        assert repr(cauchy_reconstruct(f, torus, x)[0]) == repr(value)


def test_a_refused_call_keeps_no_tables(H, monkeypatch):
    monkeypatch.setattr(cauchy, "_kept", {})
    i = H.basis_named("i")
    x = SlicePoint(H, [0.2], [0.3], [i])
    f = OrderedPolynomial(1, H, {(3,): H.one()})
    refused = [
        # numpy refuses the node array
        (BoundaryTorus.discs(H, [1.5], samples_per_circle=2 ** 62), x,
         HypersliceError),
        # |z|^2 overflows while the tables are built
        (BoundaryTorus.discs(H, [1e200], samples_per_circle=8), x,
         HypersliceError),
        # the tables fit, (Re z)^3 overflows in the powers
        (BoundaryTorus.discs(H, [1e150], samples_per_circle=8), x,
         HypersliceError),
        # a node lands on the pole sphere of x
        (BoundaryTorus.discs(H, [1.0], samples_per_circle=8),
         SlicePoint(H, [0.0], [0.9999], [i]), QuadratureSingularity),
        (BoundaryTorus.discs(H, [1.5], samples_per_circle=8),
         SlicePoint(H, [0.2], [0.3], [0.9 * i]), NotImaginaryUnit),
    ]
    for torus, point, error in refused:
        with pytest.raises(error):
            cauchy_reconstruct(f, torus, point)
    torus = BoundaryTorus.discs(H, [1.5], samples_per_circle=8)
    with pytest.raises(AlgebraMismatch):
        cauchy_reconstruct(lambda p: 1.0, torus, x)
    assert cauchy._kept == {}


def test_kept_tables_stay_within_their_byte_bound(H, monkeypatch):
    monkeypatch.setattr(cauchy, "_kept", {})
    i = H.basis_named("i")
    x = SlicePoint(H, [0.2], [0.3], [i])
    f = OrderedPolynomial(1, H, {(1,): H.one()})
    # 2^20 nodes make about 100 MiB of tables: more than the bound, so
    # none of it stays
    torus = BoundaryTorus.discs(H, [1.5], samples_per_circle=2 ** 20)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cauchy_reconstruct(f, torus, x)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cauchy._kept == {}
    assert kept < 2 ** 20
    # under a bound of three 1024-node tables, the oldest make room
    tables = cauchy._build_tables(((Circle(0.0, 1.5),),), 1024)
    size = tables.nbytes
    monkeypatch.setattr(cauchy, "_KEPT_BYTES", 3 * size)
    radii = [1.5 + k / 8 for k in range(5)]
    for r in radii:
        cauchy_reconstruct(f, BoundaryTorus.discs(
            H, [r], samples_per_circle=1024), x)
        assert sum(t.nbytes for t in cauchy._kept.values()) <= 3 * size
    assert [key[0][0][0].radius for key in cauchy._kept] == radii[2:]
