"""Slice evaluation on coefficient tuples against the Element formula.

slice_eval, representation_eval and truncated_derivative sum their terms on
coefficient tuples.  The oracle here recomputes them with plain Element +
and *, in the same order, so float results must agree bit for bit and
Fraction results exactly.  poly_eval runs nested Horner, which reorders the
float operations: its Fraction results agree exactly, and its float ones
within a proven rounding bound of a 50-digit value.
"""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperslice.algebra import (Element, is_imaginary_unit, make_algebra,
                                ordered_product)
from hyperslice.errors import AlgebraMismatch
from hyperslice.regularity import (OrderedPolynomial, count_constant,
                                   poly_eval, poly_to_stem)
from hyperslice.slicefun import (SlicePoint, _fiber_values,
                                 representation_eval, slice_eval,
                                 truncated_derivative)
from hyperslice.stems import _BLOCK, CallableStem, StemPoly

from conftest import random_imaginary_unit, random_poly, random_stem
from oracles import distance_mp, poly_value_mp

# imaginary basis units that anticommute pairwise; a unit takes three
_AXES = {"quaternions": (1, 2, 3), "octonions": (1, 2, 3, 4, 5, 6, 7),
         "clifford": (1, 2, 4)}
# rational points of the unit 2-sphere, as coefficients on three axes
_SPHERE = ((Q(1, 3), Q(2, 3), Q(2, 3)), (Q(3, 5), Q(4, 5), 0),
           (Q(2, 7), Q(3, 7), Q(6, 7)), (Q(-2, 3), Q(1, 3), Q(-2, 3)))


def _old_value(poly, flat, algebra):
    """A stem component at flat, summed as Elements term by term."""
    total = algebra.zero()
    for exp, coeff in poly.items():
        scalar = 1
        for v, k in zip(flat, exp):
            if k:
                scalar = scalar * v ** k
        total = total + coeff * scalar
    return total


def _old_assemble(values, point):
    total = point.algebra.zero()
    for mask, v in enumerate(values):
        if v.is_zero(0):
            continue
        total = total + ordered_product(point.mask_units(mask), v)
    return total


def _old_stem_values(stem, point):
    flat = [c for ab in point.z() for c in ab]
    return [_old_value(stem.components.get(mask, {}), flat, stem.algebra)
            for mask in range(1 << stem.n)]


def _old_slice_eval(stem, point):
    return _old_assemble(_old_stem_values(stem, point), point)


def _old_truncated_derivative(stem, point, eps):
    kmask = sum(e << h for h, e in enumerate(eps))
    product = 1
    for h, b in enumerate(point.betas):
        if kmask >> h & 1:
            product = product * b
    vals = _old_stem_values(stem, point)
    values = [point.algebra.zero()] * (1 << stem.n)
    for hmask in range(0, 1 << stem.n, 1 << len(eps)):
        values[hmask] = vals[hmask | kmask]
    return _old_assemble(values, point) / product


def _old_poly_eval(p, xs):
    total = p.algebra.zero()
    for ell, a in p.terms.items():
        v = a
        for h in reversed(range(len(ell))):
            for _ in range(ell[h]):
                v = xs[h] * v
        total = total + v
    return total


def _same(got, want):
    """Same algebra and the same coefficients, type and sign of zero too."""
    assert got.algebra == want.algebra
    assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]


def _rational_unit(algebra, rng):
    axes = rng.sample(_AXES[algebra.kind.split("(")[0]], 3)
    coeffs = list(rng.choice(_SPHERE))
    rng.shuffle(coeffs)
    unit = algebra.zero()
    for idx, c in zip(axes, coeffs):
        unit = unit + rng.choice((1, -1)) * c * algebra.basis(idx)
    assert is_imaginary_unit(unit, 0)
    return unit


def _points(algebra, n, rng, exact):
    """Points with non-basis units; the second one has negative betas."""
    out = []
    for sign in (1, -1):
        if exact:
            alphas = [Q(rng.randint(-4, 4), rng.randint(1, 5))
                      for _ in range(n)]
            betas = [sign * Q(rng.randint(1, 4), rng.randint(1, 5))
                     for _ in range(n)]
            units = [_rational_unit(algebra, rng) for _ in range(n)]
        else:
            alphas = [rng.uniform(-1.5, 1.5) for _ in range(n)]
            betas = [sign * rng.uniform(0.1, 1.5) for _ in range(n)]
            units = [random_imaginary_unit(algebra, rng) for _ in range(n)]
        out.append(SlicePoint(algebra, alphas, betas, units))
    return out


ALGEBRAS = (("quaternions", ()), ("octonions", ()), ("clifford", (0, 3)))


@pytest.mark.parametrize("exact", (True, False), ids=("fraction", "float"))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("kind,sig", ALGEBRAS, ids=("H", "O", "Cl03"))
def test_tuple_sums_match_element_formula(kind, sig, n, exact, rng):
    algebra = make_algebra(kind, *((sig,) if sig else ()))
    stem = random_stem(n, algebra, rng, exact=exact)
    for point in _points(algebra, n, rng, exact):
        _same(slice_eval(stem, point), _old_slice_eval(stem, point))
        source = point.with_units(
            _points(algebra, n, rng, exact)[0].units)

        def f(pt):
            return _old_slice_eval(stem, pt)
        _same(representation_eval(f, source, point),
              _old_assemble(_fiber_values(f, source), point))
        for m in range(n + 1):
            for eps in itertools.product((0, 1), repeat=m):
                _same(truncated_derivative(stem, point, eps),
                      _old_truncated_derivative(stem, point, eps))


def _horner_bound(p, xs):
    """A rounding bound of poly_eval(p, xs) in floats (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 3 and 5.1).

    Each coordinate of a product x v sums at most dim products, and each
    Horner step adds one coefficient, so along every path from a_l to the
    result a term meets at most k = (dim + 2)(sum_h d_h + n) roundings, and
    the error is at most gamma_k times the same sum on absolute values.  On
    absolute values a product is at most B ||x|| ||v||, B the root of the
    most pairs (i, j) that feed one coordinate (count_constant), so that
    sum is at most sum_l ||a_l|| prod_h (B ||x_h||)^{l_h}.
    """
    A = p.algebra
    B = count_constant(A)
    degrees = [max((ell[h] for ell in p.terms), default=0)
               for h in range(p.n)]
    k = (A.dim + 2) * (sum(degrees) + p.n)
    u = 2.0 ** -53
    size = sum(a.euclid_norm() * math.prod((B * x.euclid_norm()) ** e
                                           for x, e in zip(xs, ell))
               for ell, a in p.terms.items())
    return k * u / (1 - k * u) * size * (1 + 1e-12)


@pytest.mark.parametrize("exact", (True, False), ids=("fraction", "float"))
def test_poly_eval_tuple_sum_matches_element_formula(H, O, exact, rng):
    # Fractions: the same value, coefficient types and zeros as the term
    # by term Element formula; floats: within the Horner rounding bound of
    # the 50-digit value, since Horner reorders the operations
    if not exact:
        pytest.importorskip("mpmath")
    for algebra in (H, O):
        for n in (1, 2, 3):
            p = random_poly(n, algebra, rng, exact=exact)
            for point in _points(algebra, n, rng, exact):
                xs = point.elements()
                if exact:
                    _same(poly_eval(p, xs), _old_poly_eval(p, xs))
                    continue
                value = poly_eval(p, xs)
                assert value == poly_eval(p, point)
                assert (distance_mp(value, poly_value_mp(p, point))
                        <= _horner_bound(p, xs))


def _stem_with_terms(algebra, per_mask, rng):
    """n = 2 stem with exactly per_mask parity-correct terms per subset."""
    comps = {}
    for mask in range(4):
        exps = itertools.product(range(4), (0, 2, 4), range(4), (0, 2, 4))
        comps[mask] = {
            (a1, b1 + (mask & 1), a2, b2 + (mask >> 1 & 1)):
            algebra.element([rng.uniform(-2, 2) for _ in range(algebra.dim)])
            for a1, b1, a2, b2 in itertools.islice(exps, per_mask)}
    return StemPoly(2, algebra, comps)


@pytest.mark.parametrize("per_mask", (2, 10), ids=("8-terms", "40-terms"))
def test_slice_eval_multiplies_only_by_units(H, O, per_mask, rng,
                                             monkeypatch):
    # the unit actions [J_K, .] and every sum run on coefficient tuples,
    # so no Element product or sum is formed, whatever the terms
    counts = {"mul": 0, "add": 0}
    mul, add = Element.__mul__, Element.__add__

    def counting_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counting_add(a, b):
        counts["add"] += 1
        return add(a, b)

    for algebra in (H, O):
        stem = _stem_with_terms(algebra, per_mask, rng)
        assert sum(map(len, stem.components.values())) == 4 * per_mask
        point = _points(algebra, 2, rng, exact=False)[0]
        monkeypatch.setattr(Element, "__mul__", counting_mul)
        monkeypatch.setattr(Element, "__add__", counting_add)
        counts.update(mul=0, add=0)
        slice_eval(stem, point)
        monkeypatch.undo()
        assert counts == {"mul": 0, "add": 0}


@pytest.mark.parametrize("exact", (True, False), ids=("fraction", "float"))
@pytest.mark.parametrize("kind,sig", ALGEBRAS, ids=("H", "O", "Cl03"))
def test_callable_stem_evaluates_like_its_stem_poly(kind, sig, exact, rng):
    # the twin sums its components as Elements, the StemPoly reads them off
    # its term table as tuples; both must round alike
    algebra = make_algebra(kind, *((sig,) if sig else ()))
    for n in (1, 2, 3):
        stem = random_stem(n, algebra, rng, exact=exact)

        def components(z, stem=stem):
            flat = [c for ab in z for c in ab]
            return [_old_value(stem.components.get(mask, {}), flat, algebra)
                    for mask in range(1 << stem.n)]

        twin = CallableStem(n, algebra, components)
        for point in _points(algebra, n, rng, exact):
            _same(slice_eval(twin, point), slice_eval(stem, point))
            for eps in itertools.product((0, 1), repeat=n):
                _same(truncated_derivative(twin, point, eps),
                      truncated_derivative(stem, point, eps))


def test_stem_refuses_coefficients_from_another_algebra(H, O):
    for skip in (False, True):
        with pytest.raises(AlgebraMismatch):
            StemPoly(1, H, {0: {(1, 0): O.one()}}, _skip_check=skip)


def test_truncated_derivative_refuses_point_in_another_algebra(H, O, rng):
    stem = random_stem(2, H, rng)
    point = _points(O, 2, rng, exact=True)[0]
    for eps in ((), (1,), (0, 1), (1, 1)):
        with pytest.raises(AlgebraMismatch):
            truncated_derivative(stem, point, eps)


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _poly_and_point(draw):
    algebra = make_algebra(draw(st.sampled_from(("quaternions",
                                                  "octonions"))))
    n = draw(st.integers(1, 2))
    ells = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                         min_size=1, max_size=3, unique=True))
    terms = {ell: algebra.element(draw(st.lists(
        _SMALL, min_size=algebra.dim, max_size=algebra.dim)))
        for ell in ells}
    rng = draw(st.randoms(use_true_random=False))
    units = [_rational_unit(algebra, rng) for _ in range(n)]
    alphas = draw(st.lists(_SMALL, min_size=n, max_size=n))
    betas = draw(st.lists(_SMALL, min_size=n, max_size=n))
    return (OrderedPolynomial(n, algebra, terms),
            SlicePoint(algebra, alphas, betas, units))


@settings(deadline=None, max_examples=40, database=None)
@given(_poly_and_point())
def test_stem_value_equals_polynomial_value(case):
    p, x = case
    assert slice_eval(poly_to_stem(p), x) == poly_eval(p, x)


# coordinates and coefficients of each number kind; floats reach +-0.0
_NUMBERS = {
    "int": st.integers(-3, 3),
    "fraction": st.builds(lambda k, e: Q(k, 2 ** e), st.integers(-12, 12),
                          st.integers(0, 3)),
    "float": st.one_of(st.sampled_from((0.0, -0.0)),
                       st.floats(-2, 2, allow_nan=False)),
}


def _plan_stem(algebra, n, counts, number, rng):
    """A stem with counts[mask] <= 18 parity-correct terms per component."""
    comps = {}
    for mask, count in enumerate(counts):
        comps[mask] = {}
        while len(comps[mask]) < count:
            exp = []
            for h in range(n):
                exp += [rng.randrange(6),
                        2 * rng.randrange(3) + (mask >> h & 1)]
            comps[mask][tuple(exp)] = algebra.element(
                [number(rng) for _ in range(algebra.dim)])
    return StemPoly(n, algebra, comps)


def _check_plan(stem, point):
    _same(slice_eval(stem, point), _old_slice_eval(stem, point))
    got = stem.coeffs_at(point.z())
    want = [v.coeffs for v in _old_stem_values(stem, point)]
    assert [list(map(repr, c)) for c in got] == \
        [list(map(repr, c)) for c in want]


@st.composite
def _stem_and_point(draw):
    kind, sig = draw(st.sampled_from(ALGEBRAS))
    algebra = make_algebra(kind, *((sig,) if sig else ()))
    n = draw(st.integers(1, 3))
    # 0 to 2 blocks and one term, so components fill, cross and miss blocks
    counts = draw(st.lists(st.integers(0, 2 * _BLOCK + 1),
                           min_size=1 << n, max_size=1 << n))
    values = _NUMBERS[draw(st.sampled_from(sorted(_NUMBERS)))]
    coords = st.lists(_NUMBERS[draw(st.sampled_from(sorted(_NUMBERS)))],
                      min_size=n, max_size=n)
    rng = draw(st.randoms(use_true_random=False))
    stem = _plan_stem(algebra, n, counts,
                      lambda r: draw(values) if r.random() < 0.5 else 0, rng)
    # betas may be negative: SlicePoint flips their units
    point = SlicePoint(algebra, draw(coords), draw(coords),
                       [_rational_unit(algebra, rng) for _ in range(n)])
    return stem, point


@settings(deadline=None, max_examples=60, database=None)
@given(_stem_and_point())
def test_plan_matches_element_formula(case):
    _check_plan(*case)


def test_plan_matches_element_formula_on_cl06(rng):
    algebra = make_algebra("clifford", (0, 6))
    stem = _plan_stem(algebra, 2, [_BLOCK + 3, 2 * _BLOCK, 1, 0],
                      lambda r: Q(r.randint(-8, 8), 4), rng)
    for exact in (True, False):
        point = _points(algebra, 2, rng, exact)[1]
        _check_plan(stem, point)
        _check_plan(stem * 0.5, point)
