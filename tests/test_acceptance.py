"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `criterion NN: PASS/FAIL` line (visible with
pytest -s); together they pin the library's contract: the subset-sign
lemma, representation and reconstruction formulas, exact regularity and
product laws, the zero taxonomy, spherical calculus, and the
split-signature discontinuity.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (random_element, random_imaginary_unit, random_poly,
                      random_stem)
from oracles import (cauchy_integrand, cauchy_integrand_product_form,
                     slice_diagonal)
from hyperslice.algebra import is_imaginary_unit, make_algebra
from hyperslice.cauchy import BoundaryTorus, cauchy_reconstruct
from hyperslice.regularity import (OrderedPolynomial, is_slice_regular,
                                   poly_eval, poly_to_stem, star_product)
from hyperslice.slicefun import (SlicePoint, as_point_function,
                                 one_variable_split, representation_eval,
                                 slice_eval, sliceness_residual,
                                 spherical_derivative, spherical_expansion,
                                 spherical_value, stem_from_values,
                                 truncated_derivative)
from hyperslice.stems import (CallableStem, cr_partial_bar, sigma_tensor,
                              stem_product)
from hyperslice.zeros import roots_one_var, zero_scan


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {label}")
        raise
    print(f"criterion {num:2d}: PASS - {label}")


def random_interior_point(algebra, rng, radius=1.0):
    """A cone point with every coordinate within `radius` of the origin."""
    alphas, betas, units = [], [], []
    for _ in range(2):
        r = rng.uniform(0.0, radius)
        theta = rng.uniform(0.0, math.pi)
        alphas.append(r * math.cos(theta))
        betas.append(r * math.sin(theta))
        units.append(random_imaginary_unit(algebra, rng))
    return SlicePoint(algebra, alphas, betas, units)


def test_criterion_01_subset_sign_lemma():
    with criterion(1, "subset sign sums collapse to 2^n on the diagonal"):
        for n in range(1, 5):
            size = 1 << n
            for hmask in range(size):
                for lmask in range(size):
                    total = sum(
                        (-1) ** ((hmask & k).bit_count()
                                 + (k & lmask).bit_count())
                        for k in range(size))
                    assert total == (size if hmask == lmask else 0)


def test_criterion_02_representation_formula(H, O):
    with criterion(2, "representation formula to 1e-10, 100 H + 20 O runs"):
        for algebra, runs in ((H, 100), (O, 20)):
            rng = random.Random(202 + algebra.dim)
            worst = 0.0
            for _ in range(runs):
                zs = [(rng.uniform(-2, 2), rng.uniform(0.2, 2))
                      for _ in range(2)]
                source = [random_imaginary_unit(algebra, rng)
                          for _ in range(2)]
                target = [random_imaginary_unit(algebra, rng)
                          for _ in range(2)]
                y = SlicePoint(algebra, [z[0] for z in zs],
                               [z[1] for z in zs], source)
                x = y.with_units(target)
                F = random_stem(2, algebra, rng, exact=False)
                f = lambda p: slice_eval(F, p)
                got = representation_eval(f, y, x)
                worst = max(worst, (got - slice_eval(F, x)).euclid_norm())
            assert worst <= 1e-10


def test_criterion_03_stem_recovery(H, O, rng):
    with criterion(3, "values on one fiber pin every stem component"):
        zs = [(0.37, 1.21), (-0.54, 0.83)]
        for algebra, runs in ((H, 10), (O, 3)):
            units = (algebra.basis(1), algebra.basis(2))
            for _ in range(runs):
                F = poly_to_stem(random_poly(2, algebra, rng, deg=3))
                f = lambda p: slice_eval(F, p)
                G = stem_from_values(f, algebra, 2, units)
                want = F.value_at(zs)
                got = G.value_at(zs)
                for mask in range(4):
                    assert (got[mask] - want[mask]).euclid_norm() <= 1e-12


def test_criterion_04_order_counterexample(H):
    with criterion(4, "x2 x1 is not a slice function, x1 x2 is"):
        i, j = H.basis_named("i"), H.basis_named("j")
        target = SlicePoint(H, [0, 0], [1, 1], [i, i])
        backwards = as_point_function(lambda x1, x2: x2 * x1)
        forwards = as_point_function(lambda x1, x2: x1 * x2)
        assert sliceness_residual(backwards, target, (i, j)) >= 0.1
        assert sliceness_residual(forwards, target, (i, j)) <= 1e-10


def test_criterion_05_polynomials_are_regular(H, O, rng):
    with criterion(5, "50 random polynomials pass the exact CR test"):
        for algebra in (H, O):
            for _ in range(25):
                n = rng.randint(1, 3)
                p = random_poly(n, algebra, rng, deg=4)
                report = is_slice_regular(p)
                assert bool(report)
                assert report.max_residual == 0.0


def test_criterion_06_leibniz_and_closure(H, O, rng):
    with criterion(6, "exact Leibniz rule and regularity of products"):
        sigma = sigma_tensor(2)
        for algebra in (H, O):
            for _ in range(25):
                F = random_stem(2, algebra, rng, deg=2, terms=2)
                G = random_stem(2, algebra, rng, deg=2, terms=2)
                for h in (1, 2):
                    lhs = cr_partial_bar(stem_product(F, G, sigma), h)
                    rhs = stem_product(cr_partial_bar(F, h), G, sigma) + \
                        stem_product(F, cr_partial_bar(G, h), sigma)
                    assert lhs == rhs
        for algebra in (H, O):
            for _ in range(25):
                F = poly_to_stem(random_poly(2, algebra, rng, deg=3))
                G = poly_to_stem(random_poly(2, algebra, rng, deg=3))
                FG = stem_product(F, G, sigma)
                for h in (1, 2):
                    assert cr_partial_bar(FG, h).components == {}


def test_criterion_07_star_equals_tensor(H, O, rng):
    with criterion(7, "star products match the signed stem product"):
        sigma = sigma_tensor(2)
        for algebra in (H, O):
            for _ in range(25):
                p = random_poly(2, algebra, rng, deg=3)
                q = random_poly(2, algebra, rng, deg=3)
                direct = poly_to_stem(star_product(p, q))
                tensor = stem_product(poly_to_stem(p), poly_to_stem(q),
                                      sigma)
                assert direct == tensor
        i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
        xi = OrderedPolynomial(1, H, {(1,): i})
        xj = OrderedPolynomial(1, H, {(1,): j})
        assert star_product(xi, xj).terms == {(2,): k}
        assert star_product(xj, xi).terms == {(2,): -1 * k}


def _reconstruction_setup(algebra, seed):
    rng = random.Random(seed)
    a = random_element(algebra, rng)
    b = random_element(algebra, rng)
    f = OrderedPolynomial(2, algebra, {(2, 1): a, (1, 0): b})
    points = [random_interior_point(algebra, rng) for _ in range(10)]
    return f, points, rng


def _max_error(f, torus, points):
    worst = 0.0
    floor = math.inf
    for x in points:
        value, diag = cauchy_reconstruct(f, torus, x)
        assert diag["min_abs_delta"] >= 0.2
        worst = max(worst, (value - poly_eval(f, x)).euclid_norm())
        floor = min(floor, diag["min_abs_delta"])
    return worst


def test_criterion_08_cauchy_quaternions(H):
    with criterion(8, "bidisc reconstruction over H: 1e-8 at N=128, "
                      "halving at N=256, under 10 s"):
        f, points, _ = _reconstruction_setup(H, 808)
        start = time.time()
        torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=128)
        err128 = _max_error(f, torus, points)
        elapsed = time.time() - start
        assert err128 <= 1e-8
        assert elapsed <= 10.0
        torus = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=256)
        err256 = _max_error(f, torus, points)
        assert err256 <= max(err128 / 2, 1e-12)


def test_criterion_09_cauchy_octonions(O):
    with criterion(9, "octonion reconstruction to 1e-6 and the two "
                      "integrand routes agreeing on the plane"):
        f, points, rng = _reconstruction_setup(O, 909)
        torus = BoundaryTorus.discs(O, [1.5, 1.5], samples_per_circle=128)
        assert _max_error(f, torus, points) <= 1e-6
        zs = [(0.4, 0.9), (-0.2, 0.6)]
        x = slice_diagonal(O, zs, torus.J)
        for t in [(0.3, 1.1), (2.0, 4.4), (5.9, 0.7)]:
            expanded = cauchy_integrand(f, x, t, torus)
            product = cauchy_integrand_product_form(f, x, t, torus)
            assert (expanded - product).euclid_norm() <= 1e-12


def test_criterion_10_slice_unit_independence(H):
    with criterion(10, "reconstruction is independent of the slice unit"):
        f, points, rng = _reconstruction_setup(H, 808)
        first = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=128)
        second = BoundaryTorus.discs(H, [1.5, 1.5],
                                     J=random_imaginary_unit(H, rng),
                                     samples_per_circle=128)
        for x in points:
            v1, _ = cauchy_reconstruct(f, first, x)
            v2, _ = cauchy_reconstruct(f, second, x)
            assert (v1 - v2).euclid_norm() <= 1e-8


def test_criterion_11_zero_taxonomy(H):
    with criterion(11, "quadric fibers: sphere, two points, one point"):
        i = H.basis_named("i")
        f2 = OrderedPolynomial(2, H, {(2, 0): H.one(), (0, 2): H.one(),
                                      (0, 0): H.one()})
        scan = zero_scan(f2, [(H.from_real(0.5),), (2 * i,), (i,)])
        kinds = [rec.kind for rec in scan.records]
        assert kinds == ["spheres(1)", "finite(2)", "finite(1)"]
        sphere = scan.records[0].report.spherical[0]
        assert sphere == pytest.approx((0.0, math.sqrt(1.25)), abs=1e-8)
        pair = sorted(r.real_coeff() for r in scan.records[1].report.isolated)
        assert pair == pytest.approx([-math.sqrt(3), math.sqrt(3)],
                                     abs=1e-8)
        assert scan.records[2].report.isolated[0].euclid_norm() <= 1e-8
        f3 = OrderedPolynomial(1, H, {(2,): H.one(), (0,): H.one()})
        report = roots_one_var(f3)
        assert report.spherical[0] == pytest.approx((0.0, 1.0), abs=1e-8)
        for rec in scan.records:
            assert rec.report.residual_max <= 1e-8
        assert report.residual_max <= 1e-8


def test_criterion_12_spherical_calculus(H, rng):
    with criterion(12, "spherical decomposition and derivative iteration"):
        for _ in range(10):
            F = random_stem(2, H, rng, exact=False)
            f = lambda p: slice_eval(F, p)
            for _ in range(10):
                point = SlicePoint(
                    H, [rng.uniform(-2, 2) for _ in range(2)],
                    [rng.uniform(0.1, 2) for _ in range(2)],
                    [random_imaginary_unit(H, rng) for _ in range(2)])
                got = spherical_expansion(f, point)
                assert (got - f(point)).euclid_norm() <= 1e-10
        F = random_stem(2, H, rng, exact=False)
        f = lambda p: slice_eval(F, p)
        point = SlicePoint(H, [0.41, -0.77], [1.3, 0.52],
                           [random_imaginary_unit(H, rng) for _ in range(2)])
        for kmask in range(4):
            eps = (kmask & 1, kmask >> 1 & 1)
            want = (spherical_value(f, point) if kmask == 0
                    else spherical_derivative(f, point, kmask))
            g = f
            for h in (1, 2):
                g = one_variable_split(g, h, eps[h - 1])
            assert (g(point) - want).euclid_norm() <= 1e-10
            assert (truncated_derivative(F, point, eps)
                    - want).euclid_norm() <= 1e-10


def test_criterion_13_split_signature_discontinuity():
    with criterion(13, "split-signature slice function blows up like "
                       "t^(-1/4) toward the real axis"):
        SH = make_algebra("clifford(1,1)")
        t = Fraction(1, 10 ** 6)
        v1, v2 = t, t + t ** 4
        beta_sq = v2 * v2 - v1 * v1
        beta = Fraction(math.sqrt(beta_sq))
        J = SH.element([0, v1 / beta, v2 / beta, 0])
        assert is_imaginary_unit(J, 1e-9)

        def components(z):
            b = z[0][1]
            mag = math.sqrt(abs(b)) * (1 if b > 0 else -1 if b < 0 else 0)
            return (SH.zero(), SH.from_real(mag))

        F = CallableStem(1, SH, components)
        y = SlicePoint(SH, [Fraction(1, 2)], [beta], [J])
        # the coordinates reproduce y_t = alpha + t e1 + (t + t^4) e2 exactly
        assert y.element(1).coeffs == (Fraction(1, 2), v1, v2, 0)

        value = slice_eval(F, y)
        scaled = float(t) ** 0.25 * value
        target = 2 ** -0.25 * math.sqrt(2)
        assert abs(scaled.euclid_norm() - target) <= 0.05 * target

        # cross-check against the closed form off the reals
        closed = float(beta_sq) ** -0.25 * SH.element(
            [0, float(v1), float(v2), 0])
        assert (value - closed).euclid_norm() <= 1e-9 * closed.euclid_norm()
