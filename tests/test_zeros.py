"""Root reports, sphere classification, and the fiber scan."""

import json
import math
import random
import re
import sys
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_imaginary_unit, random_poly
from hyperslice.algebra import Element, make_algebra
from hyperslice.errors import (AlgebraMismatch, ConstantPolynomial,
                               EmptyUnitSphere, HypersliceError,
                               RefinementFailed, UnsupportedKind, check_space)
from hyperslice.regularity import OrderedPolynomial, poly_eval, star_product
from hyperslice.slicefun import SlicePoint
from hyperslice.zeros import (_aberth, restrict_to_first_variable,
                              roots_one_var, scan_samples, zero_scan)
from oracles import distance_mp, poly_value_mp


def coeff_scale(p):
    return 1.0 + max(a.euclid_norm() for a in p.terms.values())


def assert_report_residuals(p, report, rng):
    """Every isolated root and sphere sample must sit under the bound."""
    bound = 1e-8 * coeff_scale(p)
    algebra = p.algebra
    for r in report.isolated:
        assert poly_eval(p, [r]).euclid_norm() <= bound
    for alpha, beta in report.spherical:
        for _ in range(8):
            J = random_imaginary_unit(algebra, rng)
            pt = algebra.from_real(alpha) + beta * J
            assert poly_eval(p, [pt]).euclid_norm() <= bound
    assert report.residual_max <= bound


def test_unit_sphere_solves_x_squared_plus_one(H, rng):
    p = OrderedPolynomial(1, H, {(2,): H.one(), (0,): H.one()})
    report = roots_one_var(p)
    assert report.isolated == []
    assert len(report.spherical) == 1
    alpha, beta = report.spherical[0]
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert beta == pytest.approx(1.0, abs=1e-12)
    assert_report_residuals(p, report, rng)


def test_linear_polynomial_reports_its_displacement(H):
    q = H.element([1, 2, 0, -1])
    p = OrderedPolynomial(1, H, {(1,): H.one(), (0,): -1 * q})
    report = roots_one_var(p)
    assert report.spherical == []
    assert len(report.isolated) == 1
    assert (report.isolated[0] - q).euclid_norm() <= 1e-12


def test_sphere_radius_follows_the_constant_term(H, rng):
    p = OrderedPolynomial(1, H, {(2,): H.one(), (0,): H.from_real(1.25)})
    report = roots_one_var(p)
    assert report.isolated == []
    alpha, beta = report.spherical[0]
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert beta == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert_report_residuals(p, report, rng)


def test_real_roots_are_isolated_points(H):
    p = OrderedPolynomial(1, H, {(2,): H.one(), (0,): H.from_real(-3)})
    report = roots_one_var(p)
    assert report.spherical == []
    roots = sorted(r.real_coeff() for r in report.isolated)
    assert roots == pytest.approx([-math.sqrt(3), math.sqrt(3)])
    for r in report.isolated:
        assert r.imag_part().euclid_norm() <= 1e-12


def test_left_factor_root_survives_a_same_sphere_product(H):
    # (x - i) * (x - j) vanishes only at i: the right factor's root is
    # twisted off the zero set because i and j share a sphere.
    i, j = H.basis_named("i"), H.basis_named("j")
    left = OrderedPolynomial(1, H, {(1,): H.one(), (0,): -1 * i})
    right = OrderedPolynomial(1, H, {(1,): H.one(), (0,): -1 * j})
    p = star_product(left, right)
    report = roots_one_var(p)
    assert report.spherical == []
    assert len(report.isolated) == 1
    assert (report.isolated[0] - i).euclid_norm() <= 1e-6


def test_conjugate_pair_product_fills_the_whole_sphere(H, rng):
    # (x - i) * (x + i) has real coefficients, so the sphere comes back.
    i = H.basis_named("i")
    left = OrderedPolynomial(1, H, {(1,): H.one(), (0,): -1 * i})
    right = OrderedPolynomial(1, H, {(1,): H.one(), (0,): i})
    p = star_product(left, right)
    report = roots_one_var(p)
    assert report.isolated == []
    assert report.spherical[0] == pytest.approx((0.0, 1.0))
    assert_report_residuals(p, report, rng)


def test_mixed_span_coefficients_use_the_normal_polynomial(H, rng):
    i, j = H.basis_named("i"), H.basis_named("j")
    p = OrderedPolynomial(1, H, {(2,): H.one(), (1,): i, (0,): j})
    report = roots_one_var(p)
    assert report.spherical == []
    assert len(report.isolated) == 2
    assert_report_residuals(p, report, rng)


def test_octonion_roots_match_the_quaternion_story(O, rng):
    e2, e5 = O.basis_named("e2"), O.basis_named("e5")
    p = OrderedPolynomial(1, O, {(2,): O.one(), (0,): O.one()})
    report = roots_one_var(p)
    assert report.spherical[0] == pytest.approx((0.0, 1.0))
    assert_report_residuals(p, report, rng)

    p = OrderedPolynomial(1, O, {(2,): O.one(), (1,): e2, (0,): e5})
    report = roots_one_var(p)
    assert report.spherical == []
    assert len(report.isolated) == 2
    assert_report_residuals(p, report, rng)


def test_clifford_paravector_roots(CL03, rng):
    p = OrderedPolynomial(1, CL03, {(2,): CL03.one(),
                                    (1,): CL03.from_real(-2),
                                    (0,): CL03.from_real(2)})
    report = roots_one_var(p)
    assert report.isolated == []
    assert report.spherical[0] == pytest.approx((1.0, 1.0))
    assert_report_residuals(p, report, rng)

    q = CL03.one() + 2 * CL03.basis_named("e1")
    p = OrderedPolynomial(1, CL03, {(1,): CL03.one(), (0,): -1 * q})
    report = roots_one_var(p)
    assert (report.isolated[0] - q).euclid_norm() <= 1e-12


def test_clifford_gate_refusals(CL03, CL11):
    monic = {(2,): CL11.one(), (0,): CL11.one()}
    with pytest.raises(UnsupportedKind):
        roots_one_var(OrderedPolynomial(1, CL11, monic))
    e12 = CL03.basis_named("e12")
    with pytest.raises(UnsupportedKind):
        roots_one_var(OrderedPolynomial(1, CL03, {(2,): CL03.one(), (0,): e12}))
    with pytest.raises(UnsupportedKind):
        roots_one_var(OrderedPolynomial(1, CL03,
                                        {(2,): 2 * CL03.one(), (0,): CL03.one()}))
    # Cl(0,0) = R has no imaginary unit, so no sphere holds a point
    R = make_algebra("clifford", (0, 0))
    with pytest.raises(EmptyUnitSphere):
        roots_one_var(OrderedPolynomial(1, R, {(2,): R.one(), (0,): R.one()}))


def test_constant_polynomials_are_refused(H):
    with pytest.raises(ConstantPolynomial):
        roots_one_var(OrderedPolynomial(1, H, {(0,): H.one()}))
    with pytest.raises(ConstantPolynomial):
        roots_one_var(OrderedPolynomial.zero(1, H))
    assert issubclass(RefinementFailed, HypersliceError)


def test_residual_bound_holds_for_random_polynomials(H, O, CL03, rng):
    for algebra in (H, O):
        for _ in range(10):
            deg = rng.randint(1, 3)
            terms = {(deg,): algebra.one()}
            for k in range(deg):
                if rng.random() < 0.8:
                    terms[(k,)] = random_element(algebra, rng, span=2)
            p = OrderedPolynomial(1, algebra, terms)
            assert_report_residuals(p, roots_one_var(p), rng)
    # Clifford root finding takes monic paravector polynomials
    for algebra in (CL03, make_algebra("clifford", (0, 6))):
        for _ in range(10):
            deg = rng.randint(1, 4)
            terms = {(deg,): algebra.one()}
            for k in range(deg):
                terms[(k,)] = algebra.element(
                    [rng.uniform(-2, 2) if idx.bit_count() <= 1 else 0.0
                     for idx in range(algebra.dim)])
            p = OrderedPolynomial(1, algebra, terms)
            assert_report_residuals(p, roots_one_var(p), rng)


def test_zero_report_serialization(H):
    p = OrderedPolynomial(1, H, {(2,): H.one(), (0,): H.from_real(1.25)})
    report = roots_one_var(p)
    blob = report.to_json()
    assert blob["isolated"] == []
    assert blob["spherical"][0] == pytest.approx([0.0, math.sqrt(1.25)])
    json.dumps(blob)


def test_quadric_fiber_taxonomy(H):
    # x1^2 + x2^2 + 1 restricted to sample values of x2: a real sample
    # inside the unit interval leaves a sphere, an imaginary sample of
    # norm > 1 leaves two points, a unit imaginary sample leaves only 0.
    i = H.basis_named("i")
    f = OrderedPolynomial(2, H, {(2, 0): H.one(), (0, 2): H.one(),
                                 (0, 0): H.one()})
    scan = zero_scan(f, [(H.from_real(0.5),), (2 * i,), (i,),
                         (H.from_real(2),), (H.one() + 2 * i,)])
    kinds = [rec.kind for rec in scan.records]
    assert kinds == ["spheres(1)", "finite(2)", "finite(1)",
                     "spheres(1)", "finite(2)"]

    sphere = scan.records[0].report.spherical[0]
    assert sphere == pytest.approx((0.0, math.sqrt(1.25)))

    pair = sorted(r.real_coeff() for r in scan.records[1].report.isolated)
    assert pair == pytest.approx([-math.sqrt(3), math.sqrt(3)])

    only = scan.records[2].report.isolated[0]
    assert only.euclid_norm() <= 1e-10

    outer = scan.records[3].report.spherical[0]
    assert outer == pytest.approx((0.0, math.sqrt(5)))

    for r in scan.records[4].report.isolated:
        sq = r * r
        assert ((sq - H.element([2, -4, 0, 0])).euclid_norm() <= 1e-10)

    assert scan.counts() == {"spheres(1)": 2, "finite(2)": 2, "finite(1)": 1}


def test_coordinate_function_fibers_collapse_to_the_origin(H, rng):
    f = OrderedPolynomial(2, H, {(1, 0): H.one()})
    scan = zero_scan(f, scan_samples(H, 2, 5))
    for rec in scan.records:
        assert rec.kind == "finite(1)"
        assert rec.report.isolated[0].euclid_norm() <= 1e-12


def test_fiber_independent_of_the_sample_when_x1_separates(H):
    f = OrderedPolynomial(2, H, {(2, 0): H.one(), (0, 0): H.one()})
    scan = zero_scan(f, scan_samples(H, 2, 4))
    for rec in scan.records:
        assert rec.kind == "spheres(1)"
        assert rec.report.spherical[0] == pytest.approx((0.0, 1.0))


def test_degenerate_leading_fiber_is_recorded_not_raised(H):
    # x1 x2 + 1 at x2 = 0 collapses to the nonzero constant 1.
    f = OrderedPolynomial(2, H, {(1, 1): H.one(), (0, 0): H.one()})
    scan = zero_scan(f, [(H.zero(),), (H.from_real(2),)])
    assert scan.records[0].kind == "empty-leading-degenerate"
    assert scan.records[0].report is None
    assert scan.records[1].kind == "finite(1)"
    assert (scan.records[1].report.isolated[0]
            - H.from_real(-0.5)).euclid_norm() <= 1e-12
    # the zero polynomial restricts to zero on every fiber, and a sample
    # of the wrong length is refused although no term is evaluated
    zero = OrderedPolynomial.zero(2, H)
    assert zero_scan(zero, [(H.one(),)]).records[0].kind == "identically-zero"
    with pytest.raises(AlgebraMismatch):
        restrict_to_first_variable(zero, ())
    with pytest.raises(AlgebraMismatch):
        zero_scan(zero, [()])


def test_constant_fiber_zero_test_is_relative_to_its_terms(H):
    # c x2 is nonzero at every sample whatever the scale c; an absolute
    # test at 1e-12 called c = 1e-13 identically zero
    degenerate = "empty-leading-degenerate"
    for c in (1.0, 1e-13, 1e-300):
        f = OrderedPolynomial(2, H, {(0, 1): H.from_real(c)})
        assert zero_scan(f, scan_samples(H, 2, 4)).counts() == {degenerate: 4}
    # c (x2^2 + 1) cancels to rounding, about 2e-16 c, on the unit-sphere
    # sample alone
    for c in (1.0, 1e-7):
        f = OrderedPolynomial(2, H, {(0, 2): H.from_real(c),
                                     (0, 0): H.from_real(c)})
        scan = zero_scan(f, scan_samples(H, 2, 4))
        kinds = [rec.kind for rec in scan.records]
        assert kinds == [degenerate, degenerate, "identically-zero",
                         degenerate]
    # an exact zero has size 0 and is zero; an overflow is not
    x2 = OrderedPolynomial(2, H, {(0, 1): H.one()})
    assert zero_scan(x2, [(H.zero(),)]).records[0].kind == "identically-zero"
    square = OrderedPolynomial(2, H, {(0, 2): H.one()})
    assert (zero_scan(square, [(H.from_real(1e200),)]).records[0].kind
            == degenerate)


def test_random_monic_scans_reach_nonempty_fibers(H, rng):
    for trial in range(20):
        deg = rng.randint(1, 3)
        terms = {(deg, 0): H.one()}
        for d1 in range(deg):
            for d2 in range(3):
                if rng.random() < 0.6:
                    terms[(d1, d2)] = random_element(H, rng, span=2)
        f = OrderedPolynomial(2, H, terms)
        scan = zero_scan(f, scan_samples(H, 2, 6, seed=1000 + trial))
        assert scan.nonempty()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["H", "O", "CL03"])
def test_restriction_matches_direct_evaluation(name, n, request, rng):
    # restricting to x_1 and evaluating there is f at the whole point, up
    # to rounding: 50-digit value of the ordered monomials term by term
    pytest.importorskip("mpmath")
    A = request.getfixturevalue(name)
    for _ in range(5):
        f = random_poly(n, A, rng, terms=6, exact=False)
        point = SlicePoint(A, [rng.uniform(-2, 2) for _ in range(n)],
                           [rng.uniform(0.1, 2) for _ in range(n)],
                           [random_imaginary_unit(A, rng) for _ in range(n)])
        xs = point.elements()
        value = poly_eval(restrict_to_first_variable(f, tuple(xs[1:])),
                          xs[:1])
        exact = poly_value_mp(f, point)
        scale = 1.0 + float(sum(c * c for c in exact)) ** 0.5
        assert distance_mp(value, exact) <= 1e-13 * scale


# poly_eval and restrict_to_first_variable as they were before the
# restriction read poly_eval's trie: the reference for their bits


def _old_point_rows(algebra, alpha, beta, unit):
    coeffs = [beta * c for c in unit.coeffs]
    coeffs[0] = alpha + coeffs[0]
    return algebra.left_rows(coeffs)


def _old_horner(node, rows, product):
    if not rows:
        return node
    x, rest = rows[0], rows[1:]
    acc, top = None, 0
    for k in sorted(node, reverse=True):
        q = _old_horner(node[k], rest, product)
        if acc is not None:
            for _ in range(top - k):
                acc = product(x, acc)
            q = tuple(map(add, acc, q))
        acc, top = q, k
    for _ in range(top):
        acc = product(x, acc)
    return acc


def _old_poly_eval(p, x):
    A = p.algebra
    if isinstance(x, SlicePoint):
        algebra = x.algebra
        coords = [_old_point_rows(A, *c)
                  for c in zip(x.alphas, x.betas, x.units)]
    else:
        xs = tuple(x)
        algebra = next((e.algebra for e in xs if e.algebra != A), A)
        coords = [e.left_rows() for e in xs]
    check_space("x", len(coords), algebra, p.n, A)
    if not p.n:
        return p.terms.get((), A.zero())
    trie = {}
    for ell, a in p.terms.items():
        node = trie
        for e in ell[:-1]:
            node = node.setdefault(e, {})
        node[ell[-1]] = a.coeffs
    if not trie:
        return A.zero()
    return Element(A, _old_horner(trie, coords, A.product))


def _old_restrict_to_first_variable(f, sample):
    A = f.algebra
    came = next((e.algebra for e in sample if e.algebra != A), A)
    check_space("sample", len(sample), came, f.n - 1, A)
    groups = {}
    for ell, a in f.terms.items():
        groups.setdefault(ell[:1], {})[ell[1:]] = a
    return OrderedPolynomial(1, A, {
        k: _old_poly_eval(OrderedPolynomial(f.n - 1, A, g), sample)
        for k, g in groups.items()})


def _bits(value):
    """Each coefficient's repr: equal for equal values of one type, and
    -0.0 apart from 0.0."""
    return [repr(c) for c in value.coeffs]


@settings(deadline=None, max_examples=200, database=None)
@given(name=st.sampled_from(["H", "O", "CL03", "CL11"]), n=st.integers(1, 4),
       terms=st.integers(0, 6), exact=st.booleans(),
       seed=st.integers(0, 2 ** 32))
def test_restriction_and_poly_eval_keep_their_bits(name, n, terms, exact,
                                                   seed, request):
    # the fold over poly_eval's one trie gives the per-group reference's
    # values exactly, with the same coefficient types; terms = 0 is the
    # zero polynomial, and n = 1 restricts to the empty sample
    A = request.getfixturevalue(name)
    rng = random.Random(seed)
    f = random_poly(n, A, rng, deg=3, terms=terms, exact=exact)
    sample = tuple(rng.choice([A.zero(), random_element(A, rng, exact)])
                   for _ in range(n - 1))
    new = restrict_to_first_variable(f, sample)
    old = _old_restrict_to_first_variable(f, sample)
    assert new == old
    assert ({ell: _bits(a) for ell, a in new.terms.items()}
            == {ell: _bits(a) for ell, a in old.terms.items()})
    point = SlicePoint(A, [rng.uniform(-2, 2) for _ in range(n)],
                       [rng.uniform(0.1, 2) for _ in range(n)],
                       [random_imaginary_unit(A, rng) for _ in range(n)])
    for x in (point, sample + (random_element(A, rng, exact),)):
        assert _bits(poly_eval(f, x)) == _bits(_old_poly_eval(f, x))


def test_scan_samples_are_deterministic_and_varied(H):
    a = scan_samples(H, 2, 8, seed=7)
    b = scan_samples(H, 2, 8, seed=7)
    assert all((x - y).is_zero(0) for (x,), (y,) in zip(a, b))
    assert any(x.is_real(1e-12) for (x,) in a)
    assert any(not x.is_real(1e-12) for (x,) in a)


def test_non_finite_coefficients_and_spans_are_refused(H):
    i = H.basis_named("i")
    for bad in (math.inf, -math.inf, math.nan):
        p = OrderedPolynomial(1, H, {(2,): H.one(), (1,): bad * i,
                                     (0,): H.one()})
        with pytest.raises(HypersliceError, match="finite"):
            roots_one_var(p)
        with pytest.raises(HypersliceError, match="finite"):
            scan_samples(H, 2, 4, span=bad)
    # finite coefficients whose norm overflows
    p = OrderedPolynomial(1, H, {(1,): H.one(),
                                 (0,): H.element([1.5e308, 1.5e308, 0, 0])})
    with pytest.raises(HypersliceError, match="finite"):
        roots_one_var(p)


def test_scan_report_serialization(H):
    i = H.basis_named("i")
    f = OrderedPolynomial(2, H, {(2, 0): H.one(), (0, 2): H.one(),
                                 (0, 0): H.one()})
    scan = zero_scan(f, [(H.from_real(0.5),), (2 * i,)])
    blob = scan.to_json()
    assert [rec["kind"] for rec in blob["fibers"]] == ["spheres(1)",
                                                       "finite(2)"]
    json.dumps(blob)
    rows = list(scan.csv_rows())
    assert rows[0] == ("sample", "kind", "isolated", "spherical",
                       "residual_max")
    assert len(rows) == 3
    assert rows[1][1] == "spheres(1)"


def _monic_quadratic(algebra, b, c):
    return OrderedPolynomial(1, algebra, {(2,): algebra.one(), (1,): b,
                                          (0,): c})


def test_normal_polynomial_keeps_real_zeros_and_spheres(H, O):
    # Real zeros and spheres of p are double roots of p * p^c; they must
    # survive next to the two isolated zeros of x^2 + x e1 + e2.
    for algebra in (H, O):
        e1, e2 = algebra.basis(1), algebra.basis(2)
        q = _monic_quadratic(algebra, e1, e2)
        for r in (2.0, -1.0, 0.5, 3.25):
            line = OrderedPolynomial(1, algebra, {(1,): algebra.one(),
                                                  (0,): algebra.from_real(-r)})
            for p in (star_product(line, q), star_product(q, line)):
                report = roots_one_var(p)
                assert report.spherical == []
                assert len(report.isolated) == 3
                assert sum((x - algebra.from_real(r)).euclid_norm() <= 1e-8
                           for x in report.isolated) == 1
        for alpha in (0.0, 0.7):
            for rho in (0.5, 2.0):
                s = _monic_quadratic(algebra, algebra.from_real(-2 * alpha),
                                     algebra.from_real(alpha ** 2 + rho ** 2))
                for p in (star_product(s, q), star_product(q, s)):
                    report = roots_one_var(p)
                    assert report.spherical == [pytest.approx((alpha, rho),
                                                              abs=1e-8)]
                    assert len(report.isolated) == 2


def test_sphere_residual_bounds_p_on_the_whole_sphere(H, O, rng):
    for algebra in (H, O):
        c = algebra.one() + 3e-10 * algebra.basis(1) - 2e-10 * algebra.basis(2)
        p = OrderedPolynomial(1, algebra, {(2,): algebra.one(), (0,): c})
        report = roots_one_var(p)
        [(alpha, beta)] = report.spherical
        worst = max(
            poly_eval(p, [algebra.from_real(alpha)
                          + beta * random_imaginary_unit(algebra, rng)])
            .euclid_norm() for _ in range(500))
        assert worst <= report.residual_max * (1 + 1e-9) + 1e-15


def _real_factor(algebra, *coeffs):
    """The real polynomial sum_k coeffs[k] x^k."""
    return OrderedPolynomial(1, algebra, {(k,): algebra.from_real(c)
                                          for k, c in enumerate(coeffs)})


def _line(algebra, r):
    return _real_factor(algebra, -r, 1.0)


def _sphere(algebra, alpha, rho):
    return _real_factor(algebra, alpha ** 2 + rho ** 2, -2.0 * alpha, 1.0)


def _probe_quadratics(algebra):
    """Four monic quadratics whose coefficients span more than one slice."""
    e1, e2, e3, one = (algebra.basis(1), algebra.basis(2), algebra.basis(3),
                       algebra.one())
    return [_monic_quadratic(algebra, e1, e2),
            _monic_quadratic(algebra, 0.5 * e1 + e3, e2 - one),
            _monic_quadratic(algebra, e1 + 0.5 * e3, one + 2 * e2),
            _monic_quadratic(algebra, one + 2 * e2, 0.3 * one + 1.5 * e3)]


def _isolated_zeros(q):
    """The two zeros of a quadratic with no real factor, checked on q."""
    zeros = roots_one_var(q).isolated
    assert len(zeros) == 2
    for x in zeros:
        assert poly_eval(q, [x]).euclid_norm() <= 1e-10
    return zeros


def _report_mismatch(p, reals, spheres, points):
    """Why roots_one_var(p) differs from these zeros (to 1e-6), or None.

    reals are real zeros, spheres (alpha, beta) pairs of spheres of zeros
    and points the other zeros, each listed once.
    """
    algebra = p.algebra
    try:
        report = roots_one_var(p)
    except HypersliceError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    want = [algebra.from_real(r) for r in reals] + list(points)
    got = report.isolated
    if len(got) != len(want) or len(report.spherical) != len(spheres):
        return f"wrong counts: {report!r}"
    for xs, ys in ((want, got), (got, want)):
        for x in xs:
            if not any((x - y).euclid_norm() <= 1e-6 for y in ys):
                return f"{x.format()} unmatched in {report!r}"
    for xs, ys in ((spheres, report.spherical), (report.spherical, spheres)):
        for a, b in xs:
            if not any(abs(a - c) <= 1e-6 and abs(b - d) <= 1e-6
                       for c, d in ys):
                return f"sphere ({a}, {b}) unmatched in {report!r}"
    return None


def _product_probe(algebra):
    """(p, reals, spheres, points): real factors times the probe quadratics."""
    cases = []
    for q in _probe_quadratics(algebra):
        points = _isolated_zeros(q)
        for r in (2.0, -1.0, 0.5, 3.25, 0.0, 1.0, -2.5):
            s = _line(algebra, r)
            cases += [(p, [r], [], points)
                      for p in (star_product(s, q), star_product(q, s))]
        for alpha in (0.0, 0.7, -1.3):
            for rho in (0.01, 0.5, 2.0):
                s = _sphere(algebra, alpha, rho)
                cases += [(p, [], [(alpha, rho)], points)
                          for p in (star_product(s, q), star_product(q, s))]
        for r in (2.0, -0.5):
            s = _line(algebra, r)
            cases.append((star_product(star_product(s, s), q), [r], [],
                          points))
        s = _sphere(algebra, 0.0, math.sqrt(1.25))
        cases.append((star_product(star_product(s, s), q), [],
                      [(0.0, math.sqrt(1.25))], points))
    q0 = _probe_quadratics(algebra)[0]
    for delta in (1e-4, 2e-3):
        s = star_product(_line(algebra, 1.0), _line(algebra, 1.0 + delta))
        cases.append((s, [1.0, 1.0 + delta], [], []))
        cases.append((star_product(s, q0), [1.0, 1.0 + delta], [],
                      _isolated_zeros(q0)))
    return cases


def test_product_probe_finds_every_real_factor_and_isolated_zero(H, O):
    # real zeros, spheres (radius down to 0.01, doubled ones too) and
    # close real zeros next to the two isolated zeros of a quadratic
    # whose coefficients span several slices
    failures = []
    count = 0
    for algebra in (H, O):
        for p, reals, spheres, points in _product_probe(algebra):
            count += 1
            why = _report_mismatch(p, reals, spheres, points)
            if why is not None:
                failures.append(why)
    assert count == 288
    assert failures == []


def _separated(centres, gap=0.1):
    return all(abs(u - v) >= gap
               for k, u in enumerate(centres) for v in centres[:k])


def test_seeded_random_products_are_solved(H, O):
    # well posed: multiplicity at most 2, spheres of radius at least
    # 0.05, and every real zero, sphere and isolated zero's sphere at
    # least 0.1 apart in the (alpha, beta) plane
    rng = random.Random(20261018)
    failures = []
    for trial in range(100):
        algebra = (H, O)[trial % 2]
        q = _monic_quadratic(algebra, random_element(algebra, rng, span=1.5),
                             random_element(algebra, rng, span=1.5))
        points = _isolated_zeros(q)
        while True:
            reals, spheres, factors = [], [], []
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5:
                    r = rng.uniform(-2.5, 2.5)
                    reals.append(r)
                    s = _line(algebra, r)
                else:
                    alpha = rng.uniform(-2.0, 2.0)
                    rho = rng.uniform(0.05, 2.0)
                    spheres.append((alpha, rho))
                    s = _sphere(algebra, alpha, rho)
                factors += [s] * rng.choice((1, 1, 2))
            centres = ([complex(r, 0.0) for r in reals]
                       + [complex(a, b) for a, b in spheres]
                       + [complex(x.real_coeff(), x.imag_part().euclid_norm())
                          for x in points])
            if _separated(centres):
                break
        p = q
        for s in factors:
            p = star_product(s, p) if rng.random() < 0.5 else star_product(p, s)
        why = _report_mismatch(p, reals, spheres, points)
        if why is not None:
            failures.append(f"trial {trial}: {why}")
    assert failures == []


@pytest.mark.parametrize("first,second,point,message", [
    ((-1.021, 1e-4), (-1.015, 1e-5), (-0.96, 1.22, 1.15, -0.89),
     "sphere (-1.015, 4.216e-09) admits no unit"),
    ((0.468, 1e-6), (0.98, 1e-6), (0.98, 1.18, -1.23, 0.21),
     "sphere (0.468, 1.9e-07): recovered direction is not an imaginary unit"),
])
def test_isolated_zero_refusals_are_reached(H, first, second, point,
                                            message):
    # two spheres of radius 1e-6 to 1e-4 times a linear factor:
    # _isolated_zero meets a root of the normal polynomial at a radius of
    # 4e-9 or 2e-7, where F_1 vanishes to rounding or -F_0 F_1^c / |F_1|^2
    # is no unit, and refuses it (found by a seeded search)
    line = OrderedPolynomial(1, H, {(1,): H.one(),
                                    (0,): -1 * H.element(point)})
    p = star_product(star_product(_sphere(H, *first), _sphere(H, *second)),
                     line)
    with pytest.raises(RefinementFailed, match=re.escape(message)):
        roots_one_var(p)


# -- the real-coefficient root finder against numpy.roots -----------------

def _expand(roots, lead):
    """Coefficients, low to high, of lead * prod (x - r), taken real."""
    coeffs = [complex(lead)]
    for r in roots:
        coeffs = [0j] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return [c.real for c in coeffs]


def _assert_matches_numpy(coeffs, found):
    """found and numpy.roots agree one to one, each pair within its
    first-order rounding error: 1e3 eps sum_k |c_k| |z|^k / |p'(z)|."""
    np = pytest.importorskip("numpy")
    reference = list(np.roots(coeffs[::-1]))
    assert len(found) == len(reference) == len(coeffs) - 1
    for z in found:
        slope = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k)
        size = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
        tol = 1e3 * sys.float_info.epsilon * size / abs(slope)
        nearest = min(reference, key=lambda r: abs(r - z))
        assert abs(nearest - z) <= tol, (coeffs, z, nearest, tol)
        reference.remove(nearest)


@st.composite
def _separated_real_polynomials(draw):
    """(coeffs, roots) for degree 1-10: real roots and conjugate pairs
    at least 0.25 apart, times a leading coefficient of size 0.1-10."""
    degree = draw(st.integers(1, 10))
    pairs = draw(st.integers(0, degree // 2))
    grid = st.integers(-12, 12).map(lambda k: k / 4)
    reals = draw(st.lists(grid, min_size=degree - 2 * pairs,
                          max_size=degree - 2 * pairs, unique=True))
    tops = draw(st.lists(st.tuples(grid, st.integers(1, 12)), min_size=pairs,
                         max_size=pairs, unique=True))
    roots = [complex(r) for r in reals]
    for a, b in tops:
        roots += [complex(a, b / 4), complex(a, -b / 4)]
    lead = draw(st.sampled_from((0.1, -0.5, 1.0, 3.0, -10.0)))
    return _expand(roots, lead), roots


@settings(deadline=None, max_examples=150, database=None)
@given(_separated_real_polynomials())
def test_aberth_matches_numpy_roots(case):
    coeffs, roots = case
    found = _aberth(coeffs)
    _assert_matches_numpy(coeffs, found)
    for r in roots:
        assert min(abs(z - r) for z in found) <= 1e-6 * (1 + abs(r))


def test_aberth_fixed_cases():
    # a zero constant term is an exact zero 0
    found = _aberth([0.0, -2.0, 1.0])
    assert 0j in found and min(abs(z - 2) for z in found) <= 1e-14
    # a double root: both estimates within sqrt(eps) of it
    found = _aberth([1.0, -2.0, 1.0])
    assert len(found) == 2 and all(abs(z - 1) <= 1e-7 for z in found)
    # a leading coefficient of 1e-12 puts one zero near -1e12
    coeffs = [-1.0, 1.0, 1e-12]
    found = _aberth(coeffs)
    _assert_matches_numpy(coeffs, found)
    assert sorted(z.real for z in found) == pytest.approx([-1e12 - 1, 1.0])
    with pytest.raises(RefinementFailed):
        _aberth([1.0, 1.0, 1e-320])
