"""Ordered polynomials, power series, and slice-regularity checks.

Ordered monomials put every coefficient on the right: x^l a means
x_1^{l_1}(x_2^{l_2}(... a)), multiplied innermost-first.  Polynomials and
convergent series in this shape are exactly the slice regular functions
this module certifies, three independent ways: the component CR equations
on the stem, classical holomorphy after a splitting decomposition, and
the one-variable reduction obtained by freezing all but one variable.
"""

import math
from collections import Counter
from fractions import Fraction

from . import sparse
from .algebra import (DEFAULT_TOL, is_imaginary_unit, make_algebra,
                      splitting_basis)
from .errors import (
    AlgebraMismatch,
    BlackBoxUnsupported,
    NotImaginaryUnit,
    OutsideConvergenceBall,
)
from .slicefun import SlicePoint
from .stems import (
    StemPoly,
    SubsetIndex,
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
            if not coeff.is_zero(0):
                clean[ell] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n, algebra):
        return cls(n, algebra, {})

    @classmethod
    def constant(cls, a, n):
        return cls(n, a.algebra, {(0,) * n: a})

    @classmethod
    def variable(cls, h, n, algebra):
        ell = tuple(1 if k == h else 0 for k in range(1, n + 1))
        return cls(n, algebra, {ell: algebra.one()})

    def degree(self):
        return max((sum(ell) for ell in self.terms), default=0)

    def sorted_terms(self):
        """Graded lexicographic order; deterministic for serialization."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other):
        self._check(other)
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
        """Slice partial derivative: l_h x^{l - e_h} a termwise."""
        return OrderedPolynomial(self.n, self.algebra,
                                 sparse.dx(self.terms, h - 1))

    def _check(self, other):
        if self.n != other.n or self.algebra != other.algebra:
            raise AlgebraMismatch("polynomials over different spaces")

    def __repr__(self):
        return f"OrderedPolynomial(n={self.n}, terms={len(self.terms)})"


def ordered_monomial_eval(ell, a, xs):
    """x_1^{l_1}( ... (x_n^{l_n} a)), innermost factor first."""
    v = a
    for h in reversed(range(len(ell))):
        for _ in range(ell[h]):
            v = xs[h] * v
    return v


def poly_eval(p, x):
    """Pointwise value; x is a SlicePoint or a tuple of Elements."""
    xs = x.elements() if isinstance(x, SlicePoint) else tuple(x)
    if len(xs) != p.n:
        raise AlgebraMismatch(f"need {p.n} coordinates, got {len(xs)}")
    total = p.algebra.zero()
    for ell, a in p.terms.items():
        total = total + ordered_monomial_eval(ell, a, xs)
    return total


def poly_to_stem(p):
    """Sum of monomial stems; exact."""
    total = StemPoly.zero(p.n, p.algebra)
    for ell, a in p.terms.items():
        total = total + monomial_stem(ell, a)
    return total


def star_product(p, q):
    """Coefficient of l is the convolution sum of a_u b_v over u + v = l."""
    p._check(q)
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
    the subset K not containing h; which is "alpha" for the equation
    matching alpha- against beta-derivatives and "beta" for the other.
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
    """Exact CR test on the stem; polynomial inputs only."""
    F = _require_stem_poly(f)
    violations = []
    worst = 0.0
    for h in range(1, F.n + 1):
        bar = cr_partial_bar(F, h)
        bit = 1 << (h - 1)
        for mask, poly in bar.components.items():
            which = "beta" if mask & bit else "alpha"
            K = SubsetIndex(mask & ~bit)
            violations.append((h, K, which))
            worst = max(worst,
                        max(c.euclid_norm() for c in poly.values()))
    return RegularityReport(violations, worst)


# -- power series ---------------------------------------------------------

_B_CACHE = {}


def norm_constant(algebra):
    """B with ||xy|| <= B ||x|| ||y|| for all x, y; proven, not sampled.

    H and O are composition algebras, so B = 1 there.  For any other
    monomial table, coordinate k of xy is a signed sum of the c_k products
    x_i y_j with e_i e_j = +-e_k, and every pair (i, j) feeds exactly one
    k.  Cauchy-Schwarz per coordinate then gives
    ||xy||^2 <= max_k c_k ||x||^2 ||y||^2, so B = sqrt(max_k c_k), which
    is sqrt(dim) for the Clifford tables.  Cached per algebra.
    """
    if algebra not in _B_CACHE:
        if algebra in (make_algebra("H"), make_algebra("O")):
            B = 1.0
        else:
            counts = Counter(k for row in algebra.mul_index for k in row)
            B = math.sqrt(max(counts.values()))
        _B_CACHE[algebra] = B
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

    @classmethod
    def from_polynomial(cls, p, M=None):
        if M is None:
            M = max(1.0, max((c.euclid_norm() for c in p.terms.values()),
                             default=1.0))
        return cls(p.n, p.algebra, dict(p.terms), M,
                   truncation_degree=p.degree())


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
    rate gamma = B * rho * M below one; the tail bound sums the dominating
    real series past the truncation degree to machine convergence.
    """
    xs = x.elements() if isinstance(x, SlicePoint) else tuple(x)
    if len(xs) != s.n:
        raise AlgebraMismatch(f"need {s.n} coordinates, got {len(xs)}")
    B = norm_constant(s.algebra)
    gamma = B * rho * s.M
    if gamma >= 1:
        raise OutsideConvergenceBall(
            f"gamma = B*rho*M = {gamma:.4g} >= 1; no convergence guarantee")
    for h, xe in enumerate(xs, start=1):
        if xe.euclid_norm() >= rho:
            raise OutsideConvergenceBall(
                f"coordinate {h} has norm {xe.euclid_norm():.4g} "
                f">= rho = {rho}")
    total = s.algebra.zero()
    for d in range(s.truncation_degree + 1):
        for ell in _exponents_of_degree(s.n, d):
            a = s.coeff(ell)
            if a.is_zero(0):
                continue
            total = total + ordered_monomial_eval(ell, a, xs)
    if s.table is not None:
        known_max = max((sum(ell) for ell in s.table), default=0)
        if s.truncation_degree >= known_max:
            return total, 0.0
    # tail of sum (h+1)^n gamma^h beyond the truncation degree
    tail = 0.0
    g = gamma ** (s.truncation_degree + 1)
    for h in range(s.truncation_degree + 1, s.truncation_degree + 100000):
        term = (h + 1) ** s.n * g
        tail += term
        g *= gamma
        if term < 1e-17 * (tail + 1e-300):
            break
    return total, tail


# -- splitting decomposition ---------------------------------------------


def _solve_exact(matrix, vec):
    """Gaussian elimination; integer entries promoted to keep divisions exact."""
    def lift(x):
        return Fraction(x) if isinstance(x, int) else x

    m = [[lift(e) for e in row] + [lift(v)]
         for row, v in zip(matrix, vec)]
    size = len(m)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            raise AlgebraMismatch("singular decomposition matrix")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [e / pv for e in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


class SplitReport:
    def __init__(self, max_residual, failures):
        self.max_residual = max_residual
        self.failures = tuple(failures)
        self.ok = not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"SplitReport({state}, max residual {self.max_residual:.3g})"


def split_holomorphy_check(f, J, samples_grid=None, tol=DEFAULT_TOL):
    """Classical holomorphy of the splitting components on one slice.

    Restricts f to the slice of J, writes it over the splitting basis
    {1, J, J_1, JJ_1, ...} as complex coefficient pairs, and checks both
    CR equations per component and variable symbolically.  samples_grid,
    if given, is a list of z tuples where residuals are also evaluated
    numerically for the report.
    """
    F = _require_stem_poly(f)
    if not is_imaginary_unit(J, tol):
        raise NotImaginaryUnit("splitting needs a unit imaginary J")
    basis = splitting_basis(J, tol)
    dim = F.algebra.dim
    restricted = F.on_slice(J)
    # coordinates over the splitting basis, one real polynomial per axis
    mat = [[basis[col].coeffs[row] for col in range(dim)]
           for row in range(dim)]
    axis_polys = [dict() for _ in range(dim)]
    for exp, c in restricted.items():
        coords = _solve_exact(mat, list(c.coeffs))
        for axis, w in enumerate(coords):
            if w != 0:
                axis_polys[axis][exp] = w
    failures = []
    worst = 0
    for ell in range(dim // 2):
        P, Q = axis_polys[2 * ell], axis_polys[2 * ell + 1]
        for h in range(1, F.n + 1):
            va, vb = 2 * (h - 1), 2 * (h - 1) + 1
            r1 = sparse.max_diff(sparse.dx(P, va), sparse.dx(Q, vb))
            r2 = sparse.max_diff(sparse.dx(P, vb), sparse.dx(Q, va), -1)
            r = max(r1, r2)
            if r > 0:
                failures.append((ell, h, float(r)))
                worst = max(worst, r)
    if samples_grid:
        worst = float(worst)
        for ell, h, _ in failures:
            P, Q = axis_polys[2 * ell], axis_polys[2 * ell + 1]
            va, vb = 2 * (h - 1), 2 * (h - 1) + 1
            d1 = sparse.dx(P, va)
            d2 = sparse.dx(Q, vb)
            for z in samples_grid:
                flat = [c for ab in z for c in ab]
                v1 = sparse.value(d1, flat)
                v2 = sparse.value(d2, flat)
                worst = max(worst, abs(float(v1 - v2)))
    return SplitReport(float(worst), failures)


# -- one-variable reduction -----------------------------------------------


class OneVariableReport:
    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = tuple(failures)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"OneVariableReport({state})"


def one_variable_regularity_check(f):
    """Regularity via the one-variable stems of every truncated derivative.

    For each variable h and each 0/1 prefix over the earlier variables,
    the truncated derivative is a one-variable function of x_h whose stem
    components are polynomials in the frozen variables left-multiplied by
    the frozen units.  Left factors are constant for the x_h derivatives,
    so the CR pair may be checked block by block in the frozen subsets;
    each block is one pair of component equations of the full system.
    """
    F = _require_stem_poly(f)
    n = F.n
    failures = []
    for h in range(1, n + 1):
        bit = 1 << (h - 1)
        lower = [1 << (k - 1) for k in range(1, h)]
        upper = [1 << (k - 1) for k in range(h + 1, n + 1)]
        for pick_eps in range(1 << len(lower)):
            kprime = 0
            for i, b in enumerate(lower):
                if pick_eps >> i & 1:
                    kprime |= b
            for pick_up in range(1 << len(upper)):
                hm = 0
                for i, b in enumerate(upper):
                    if pick_up >> i & 1:
                        hm |= b
                # one-variable stem pair in x_h for the block (kprime, hm)
                base = kprime | hm
                va, vb = 2 * (h - 1), 2 * (h - 1) + 1
                G0 = F.components.get(base, {})
                G1 = F.components.get(base | bit, {})
                r1 = sparse.max_diff(sparse.dx(G0, va), sparse.dx(G1, vb))
                r2 = sparse.max_diff(sparse.dx(G0, vb), sparse.dx(G1, va), -1)
                if max(r1, r2) > 0:
                    failures.append((h, SubsetIndex(kprime), SubsetIndex(hm)))
    return OneVariableReport(not failures, failures)


def slice_tensor_product(f, g):
    """Stem product under the tensor sign table."""
    F = _require_stem_poly(f)
    G = _require_stem_poly(g)
    return stem_product(F, G, sigma_tensor(F.n))
