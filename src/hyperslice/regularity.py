"""Ordered polynomials, power series, and the slice-regularity check.

Ordered monomials put every coefficient on the right: x^l a means
x_1^{l_1}(x_2^{l_2}(... a)), multiplied innermost-first.  Polynomials and
convergent series in this shape are exactly the slice regular functions.
is_slice_regular certifies a polynomial or polynomial stem exactly, by the
Cauchy-Riemann system on the stem (stems.cr_partial_bar).  Two independent
routes to the same answer, classical holomorphy after a splitting
decomposition and the one-variable reduction, are the oracles for that
check in tests/oracles.py.
"""

import math
from collections import Counter
from fractions import Fraction
from operator import add

from . import sparse
from .algebra import Element, make_algebra
from .errors import (
    AlgebraMismatch,
    BlackBoxUnsupported,
    HypersliceError,
    IndexOutOfRange,
    OutsideConvergenceBall,
    check_space,
)
from .slicefun import SlicePoint
from .stems import (
    StemPoly,
    cr_partial,
    cr_partial_bar,
    monomial_stem,
    sigma_tensor,
    stem_product,
)


class OrderedPolynomial:
    """Finitely many ordered monomials x^l a_l with right coefficients."""

    def __init__(self, n, algebra, terms):
        self.n = n
        self.algebra = algebra
        clean = {}
        for ell, coeff in terms.items():
            ell = tuple(int(e) for e in ell)
            if len(ell) != n or any(e < 0 for e in ell):
                raise AlgebraMismatch(
                    f"exponent tuple {ell} invalid for {n} variables")
            if coeff.algebra != algebra:
                raise AlgebraMismatch(f"{coeff.algebra.kind} coefficient in "
                                      f"a polynomial over {algebra.kind}")
            if not coeff.is_zero(0):
                clean[ell] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n, algebra):
        return cls(n, algebra, {})

    def degree(self):
        return max((sum(ell) for ell in self.terms), default=0)

    def __add__(self, other):
        check_space("other", other.n, other.algebra, self.n, self.algebra)
        out = dict(self.terms)
        sparse.add_into(out, other.terms)
        return OrderedPolynomial(self.n, self.algebra, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, Fraction)):
            return NotImplemented
        return OrderedPolynomial(
            self.n, self.algebra,
            {ell: c * scalar for ell, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, OrderedPolynomial) and self.n == other.n
                and self.algebra == other.algebra
                and self.terms == other.terms)

    def partial(self, h):
        """Slice partial derivative: l_h x^{l - e_h} a termwise, h in 1..n."""
        if not 1 <= h <= self.n:
            raise IndexOutOfRange(f"variable index {h} outside 1..{self.n}")
        return OrderedPolynomial(self.n, self.algebra,
                                 sparse.dx(self.terms, h - 1))

    def __repr__(self):
        return f"OrderedPolynomial(n={self.n}, terms={len(self.terms)})"


def _point_rows(algebra, alpha, beta, unit):
    """The left_rows of alpha + beta J, formed without an Element."""
    coeffs = [beta * c for c in unit.coeffs]
    coeffs[0] = alpha + coeffs[0]
    return algebra.left_rows(coeffs)


def _horner(node, rows, product):
    """Nested Horner on coefficient tuples: a trie level {l_h: child} is
    q_0 + x_h(q_1 + x_h(q_2 + ...)), each q_k its child one level down (a
    coefficient tuple at the last level) and x_h the left factor rows[0]."""
    if not rows:
        return node
    x, rest = rows[0], rows[1:]
    acc, top = None, 0
    for k in sorted(node, reverse=True):
        q = _horner(node[k], rest, product)
        if acc is not None:
            for _ in range(top - k):
                acc = product(x, acc)
            q = tuple(map(add, acc, q))
        acc, top = q, k
    for _ in range(top):
        acc = product(x, acc)
    return acc


def _fold_trailing(p, rows):
    """{k: the nested Horner in x_2 .. x_n, at the table rows rows, of the
    terms with l_1 = k}: the first level of the trie of exponents, n >= 1."""
    trie = {}
    for ell, a in p.terms.items():
        node = trie
        for e in ell[:-1]:
            node = node.setdefault(e, {})
        node[ell[-1]] = a.coeffs
    return {k: _horner(node, rows, p.algebra.product)
            for k, node in trie.items()}


def poly_eval(p, x):
    """Pointwise value; x is a SlicePoint or a tuple of Elements.

    One nested Horner on coefficient tuples over the trie of exponents:
    p = q_0 + x_1(q_1 + x_1(q_2 + ...)), each q_k a nested Horner in
    x_2, ..., x_n from _fold_trailing, and multiplying by x_h is
    AlgebraDef.product with x_h's table rows (for a SlicePoint taken
    straight from alpha_h + beta_h J_h).  Left multiplication is linear,
    so this is the sum of the ordered monomials x_1(...(x_1(x_2(...a_l))))
    term by term for any units, which is x^l a_l since x(xv) = (xx)v in an
    alternative algebra.  Exact coefficients give the exact value; float
    rounding follows the Horner order, not the term order.
    """
    A = p.algebra
    if isinstance(x, SlicePoint):
        algebra = x.algebra
        coords = [_point_rows(A, *c) for c in zip(x.alphas, x.betas, x.units)]
    else:
        xs = tuple(x)
        algebra = next((e.algebra for e in xs if e.algebra != A), A)
        coords = [e.left_rows() for e in xs]
    check_space("x", len(coords), algebra, p.n, A)
    if not p.n:
        return p.terms.get((), A.zero())
    qs = _fold_trailing(p, coords[1:])
    return Element(A, _horner(qs, coords[:1], A.product)) if qs else A.zero()


def poly_to_stem(p):
    """The sum of the monomial stems of p, added into one stem; exact."""
    comps = {}
    for ell, a in p.terms.items():
        for mask, poly in monomial_stem(ell, a).components.items():
            sparse.add_into(comps.setdefault(mask, {}), poly)
    return StemPoly(p.n, p.algebra, comps, _skip_check=True)


def stem_to_poly(F):
    """The ordered polynomial p with poly_to_stem(p) == F, or None.

    F_empty of x^l a is alpha^l a plus terms with beta, so p can only be
    the beta-free terms of F_empty read as x^l a_l; it is p when its stem
    is F exactly, with no tolerance on float coefficients either, and F
    is then slice regular.
    """
    p = OrderedPolynomial(F.n, F.algebra, {
        exp[::2]: c for exp, c in F.components.get(0, {}).items()
        if not any(exp[1::2])})
    return p if poly_to_stem(p) == F else None


def star_product(p, q):
    """Coefficient of l is the convolution sum of a_u b_v over u + v = l."""
    check_space("q", q.n, q.algebra, p.n, p.algebra)
    return OrderedPolynomial(p.n, p.algebra, sparse.mul(p.terms, q.terms))


def _require_stem_poly(f):
    if isinstance(f, OrderedPolynomial):
        return poly_to_stem(f)
    if isinstance(f, StemPoly):
        return f
    raise BlackBoxUnsupported(
        "symbolic regularity analysis needs a polynomial stem")


def slice_partial(f, h):
    """Stem of the h-th slice partial derivative."""
    return cr_partial(_require_stem_poly(f), h)


def slice_partial_conj(f, h):
    """Stem of the h-th conjugate slice partial derivative."""
    return cr_partial_bar(_require_stem_poly(f), h)


class RegularityReport:
    """Outcome of a CR system check; truthy iff every equation holds.

    Each violation is (h, K, which): the pair equation in variable h at
    the subset K not containing h, an int mask; which is "alpha" for the
    equation matching alpha- against beta-derivatives and "beta" for the
    other.
    """

    def __init__(self, violations, max_residual):
        self.violations = tuple(violations)
        self.ok = not self.violations
        self.max_residual = max_residual

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "RegularityReport(ok)"
        return (f"RegularityReport({len(self.violations)} violations, "
                f"max residual {self.max_residual:.3g})")


def is_slice_regular(f):
    """Exact CR test on the stem; polynomial inputs only.

    A residual that is not a finite number raises HypersliceError: float
    coefficients overflowed in the stem or its derivatives, where
    inf - inf reads nan, so the test cannot tell.
    """
    F = _require_stem_poly(f)
    violations = []
    worst = 0.0
    for h in range(1, F.n + 1):
        bar = cr_partial_bar(F, h)
        bit = 1 << (h - 1)
        for mask, poly in bar.components.items():
            which = "beta" if mask & bit else "alpha"
            violations.append((h, mask & ~bit, which))
            norms = [c.euclid_norm() for c in poly.values()]
            if not all(map(math.isfinite, norms)):
                raise HypersliceError(
                    "a CR residual is not a finite number: the "
                    "coefficients overflow the float range")
            worst = max(worst, *norms)
    return RegularityReport(violations, worst)


# -- power series ---------------------------------------------------------

_B_CACHE = {}
_COUNT_CACHE = {}


def count_constant(algebra):
    """sqrt(max_k c_k), c_k the number of pairs (i, j) with e_i e_j = +-e_k.

    Every pair (i, j) feeds exactly one k, so Cauchy-Schwarz per coordinate
    gives ||xy||^2 <= max_k c_k ||x||^2 ||y||^2 in any monomial table.  The
    count ignores the signs, so it also bounds the product taken on
    absolute values with every sign +, which rounding bounds need: 2 on H,
    sqrt(8) on O, sqrt(dim) on the Clifford tables.  Cached per algebra.
    """
    if algebra not in _COUNT_CACHE:
        counts = Counter(k for row in algebra.mul_index for k in row)
        _COUNT_CACHE[algebra] = math.sqrt(max(counts.values()))
    return _COUNT_CACHE[algebra]


def norm_constant(algebra):
    """B with ||xy|| <= B ||x|| ||y|| for all x, y; proven, not sampled.

    H and O are composition algebras, so B = 1 there; any other table gets
    count_constant, which is sqrt(dim) for the Clifford tables.  Cached per
    algebra.
    """
    if algebra not in _B_CACHE:
        _B_CACHE[algebra] = (1.0 if algebra in (make_algebra("H"),
                                                 make_algebra("O"))
                             else count_constant(algebra))
    return _B_CACHE[algebra]


class PowerSeries:
    """Coefficient source l -> Element with growth bound ||a_l|| <= M^|l|.

    Tabulated coefficients are validated against the bound; a closure is
    taken on trust, M being the caller's assertion.
    """

    def __init__(self, n, algebra, coeff_source, M, truncation_degree=24):
        self.n = n
        self.algebra = algebra
        self.M = M
        self.truncation_degree = truncation_degree
        if isinstance(coeff_source, dict):
            table = {tuple(k): v for k, v in coeff_source.items()}
            for ell, a in table.items():
                if a.euclid_norm() > M ** sum(ell) * (1 + 1e-12):
                    raise OutsideConvergenceBall(
                        f"coefficient at {ell} exceeds the declared "
                        f"growth bound M^|l| = {M ** sum(ell):.3g}")
            zero = algebra.zero()
            self.coeff = lambda ell: table.get(ell, zero)
            self.table = table
        else:
            self.coeff = coeff_source
            self.table = None


def _exponents_of_degree(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponents_of_degree(n - 1, total - first):
            yield (first,) + rest


def series_eval(s, x, rho):
    """Truncated sum plus a rigorous tail bound.

    Needs every coordinate inside the ball of radius rho and the combined
    rate gamma = B * rho * M below one.  Each of the C(h+n-1, n-1)
    monomials x^l a_l of degree h then has norm below gamma^h, so past the
    truncation degree T the series is dominated by t_h = C(h+n-1, n-1)
    gamma^h, h > T.  The ratio q_h = t_{h+1}/t_h = gamma (h+n)/(h+1) falls
    with h, so once q_h < 1 the rest is at most t_h (q_h + q_h^2 + ...) =
    t_h q_h/(1 - q_h).  The bound adds the terms until then and that rest,
    rounded up past the float error of at most a thousand terms; if they
    still rise after those, it is the whole dominating sum (1 - gamma)^-n.
    A rho that is not a finite positive number, or an M that is not a
    finite number >= 0, raises HypersliceError; each guard is written so
    NaN fails it.
    """
    xs = x.elements() if isinstance(x, SlicePoint) else tuple(x)
    # the count; poly_eval checks the algebra after the convergence checks
    check_space("x", len(xs), s.algebra, s.n, s.algebra)
    if not 0 < rho < math.inf:
        raise HypersliceError(
            f"rho must be a finite positive number, got {rho!r}")
    if not 0 <= s.M < math.inf:
        raise HypersliceError(
            f"M must be a finite number >= 0, got {s.M!r}")
    B = norm_constant(s.algebra)
    gamma = B * rho * s.M
    if not gamma < 1:
        raise OutsideConvergenceBall(
            f"gamma = B*rho*M = {gamma:.4g} >= 1; no convergence guarantee")
    for h, xe in enumerate(xs, start=1):
        if not xe.euclid_norm() < rho:
            raise OutsideConvergenceBall(
                f"coordinate {h} has norm {xe.euclid_norm():.4g} "
                f">= rho = {rho}")
    head = {ell: s.coeff(ell) for d in range(s.truncation_degree + 1)
            for ell in _exponents_of_degree(s.n, d)}
    total = poly_eval(OrderedPolynomial(s.n, s.algebra, head), xs)
    if s.table is not None:
        known_max = max((sum(ell) for ell in s.table), default=0)
        if s.truncation_degree >= known_max:
            return total, 0.0
    tail = 0.0
    for h in range(s.truncation_degree + 1, s.truncation_degree + 1001):
        term = math.comb(h + s.n - 1, s.n - 1) * gamma ** h
        tail += term
        # rounded up past its own roundings, which 1/(1 - q) magnifies
        q = gamma * (h + s.n) / (h + 1) * (1 + 2 ** -50)
        if q < 1:
            tail += term * q / (1 - q)
            break
    else:
        tail = (1 - gamma) ** -s.n
    return total, tail * (1 + 1e-12)


def slice_tensor_product(f, g):
    """Stem product under the tensor sign table."""
    F = _require_stem_poly(f)
    G = _require_stem_poly(g)
    return stem_product(F, G, sigma_tensor(F.n))
