"""Real alternative *-algebras with monomial multiplication tables.

The central objects are :class:`AlgebraDef` (a validated table),
:class:`Element` values over it, and :class:`ConeDecomposition`, the writing
x = alpha + beta*J of a quadratic-cone point with beta >= 0 and J an
imaginary unit (t(J) = 0, n(J) = 1).

Coefficients follow Python's numeric tower: ints and Fractions stay exact
through products, conjugation and cone decompositions, which the symbolic
stem machinery relies on; floats enter only where the caller brings them in
(or through square roots that are not exact).

Everything here is pure Python except AlgebraDef.dense_tensor, the table
the Cauchy engine contracts, which imports numpy; so the exact calculus,
root finding and every CLI subcommand but cauchy run without loading it.
"""

import math
from fractions import Fraction

from . import tables
from .errors import (
    AlgebraMismatch,
    DimensionTooLarge,
    EmptyUnitSphere,
    HypersliceError,
    NotImaginaryUnit,
    NotInQuadraticCone,
    NotInvertible,
    SplittingFailed,
    UnsupportedKind,
)

DEFAULT_TOL = 1e-9


def encode_number(x):
    """JSON form of a coefficient: ints and floats pass through, Fractions
    as 'p/q', and a bool or any other type raises HypersliceError."""
    if isinstance(x, bool):
        raise HypersliceError("bool is not a coefficient")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    raise HypersliceError(f"cannot serialize a {type(x).__name__} coefficient")


def decode_number(v):
    """Inverse of encode_number; anything it would not write is refused.

    Text other than an int or 'p/q' with q nonzero, a bool, a float that
    is not finite, or another type raises HypersliceError.
    """
    if isinstance(v, str):
        num, _, den = v.partition("/")
        try:
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            pass
    elif type(v) is int or (type(v) is float and math.isfinite(v)):
        return v
    raise HypersliceError(f"cannot parse coefficient {v!r}")


class AlgebraDef:
    """A finite-dimensional real *-algebra given by its basis table.

    mul_index[i][j], mul_sign[i][j] encode e_i e_j = sign * e_index.
    conj_signs gives the diagonal anti-involution.  Instances are immutable
    by convention and safe to share between threads.
    """

    def __init__(self, kind, dim, basis_names, mul_index, mul_sign, conj_signs,
                 associative):
        if (len(basis_names) != dim or len(conj_signs) != dim
                or len(mul_index) != dim or len(mul_sign) != dim
                or any(len(row) != dim for row in (*mul_index, *mul_sign))):
            raise UnsupportedKind("table sizes disagree with dim")
        if (any(k not in range(dim) for row in mul_index for k in row)
                or any(s not in (1, -1) for row in mul_sign for s in row)):
            raise UnsupportedKind("table entries must be basis indices "
                                  "with signs +1/-1")
        self.kind = kind
        self.dim = dim
        self.basis_names = tuple(basis_names)
        self.mul_index = tuple(tuple(row) for row in mul_index)
        self.mul_sign = tuple(tuple(row) for row in mul_sign)
        self.conj_signs = tuple(conj_signs)
        self.associative = associative
        self._name_to_index = {n: i for i, n in enumerate(self.basis_names)}
        # row i holds (k, sign == 1) per j, where e_i e_j = sign * e_k
        self._rows = tuple(tuple(zip(ri, (s == 1 for s in rs)))
                           for ri, rs in zip(self.mul_index, self.mul_sign))
        # exactly the fields __eq__ compares
        self._hash = hash((dim, self.mul_index, self.mul_sign,
                           self.conj_signs))
        self._dense = None
        self._default_unit = None
        if self.mul_index[0] != tuple(range(dim)) or any(
            self.mul_index[k][0] != k or self.mul_sign[k][0] != 1
            or self.mul_sign[0][k] != 1 for k in range(dim)
        ):
            raise UnsupportedKind("basis element 0 must act as unity")

    def __repr__(self):
        return f"AlgebraDef({self.kind}, dim={self.dim})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AlgebraDef)
            and self.dim == other.dim
            and self.mul_index == other.mul_index
            and self.mul_sign == other.mul_sign
            and self.conj_signs == other.conj_signs
        )

    def __hash__(self):
        return self._hash

    # -- element constructors -------------------------------------------------

    def element(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != self.dim:
            raise AlgebraMismatch(
                f"expected {self.dim} coefficients, got {len(coeffs)}")
        return Element(self, coeffs)

    def zero(self):
        return Element(self, (0,) * self.dim)

    def one(self):
        return self.from_real(1)

    def from_real(self, r):
        return Element(self, (r,) + (0,) * (self.dim - 1))

    def basis(self, i):
        coeffs = [0] * self.dim
        coeffs[i] = 1
        return Element(self, tuple(coeffs))

    def basis_index(self, name):
        if name not in self._name_to_index:
            raise AlgebraMismatch(
                f"no basis element named {name!r} in {self.kind}")
        return self._name_to_index[name]

    def basis_named(self, name):
        return self.basis(self.basis_index(name))

    def has_basis_name(self, name):
        return name in self._name_to_index

    def left_rows(self, coeffs):
        """(a_i, table row i) for the nonzero a_i of a coefficient tuple:
        the one operand form of product for a left factor."""
        return tuple((x, row) for x, row in zip(coeffs, self._rows) if x)

    def product(self, rows, b):
        """Coefficient tuple of ab: the package's one product loop.

        rows is a.left_rows(), the loop's one operand form for a left
        factor.  out[k] adds up the nonzero a_i b_j with e_i e_j = +-e_k
        from an int 0, in order of i then j, so float rounding is fixed.
        """
        out = [0] * self.dim
        for x, row in rows:
            for (k, positive), y in zip(row, b):
                if y:
                    if positive:
                        out[k] += x * y
                    else:
                        out[k] -= x * y
        return tuple(out)

    # -- numeric support ------------------------------------------------------

    def dense_tensor(self):
        """Structure constants as float64 tensor M[i,j,k]: e_i e_j = sum_k M[i,j,k] e_k."""
        if self._dense is None:
            import numpy as np
            M = np.zeros((self.dim, self.dim, self.dim))
            for i in range(self.dim):
                for j in range(self.dim):
                    M[i, j, self.mul_index[i][j]] = self.mul_sign[i][j]
            M.setflags(write=False)
            self._dense = M
        return self._dense

    def default_imaginary_unit(self):
        """First basis element lying in the unit sphere; the canonical J.

        Raises EmptyUnitSphere when no basis unit qualifies (Cl(p,0) with
        p >= 1 has none; the slice machinery must refuse such algebras).
        """
        if self._default_unit is None:
            for i in range(1, self.dim):
                b = self.basis(i)
                if trace(b).is_zero(0) and (norm_sq(b) - self.one()).is_zero(0):
                    self._default_unit = b
                    break
            else:
                raise EmptyUnitSphere(
                    f"{self.kind} has no imaginary basis unit")
        return self._default_unit


class Element:
    """A value in an AlgebraDef: a coefficient vector over the basis."""

    __slots__ = ("algebra", "coeffs", "_left_rows")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    def left_rows(self):
        """(a_i, table row i) for the nonzero a_i: the one operand form of
        AlgebraDef.product for this element as left factor, taken on first
        use and kept."""
        if not hasattr(self, "_left_rows"):
            self._left_rows = self.algebra.left_rows(self.coeffs)
        return self._left_rows

    def _check(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"operands from {self.algebra.kind} and {other.algebra.kind}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        return Element(self.algebra,
                       tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        return Element(self.algebra,
                       tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra,
                           self.algebra.product(self.left_rows(),
                                                other.coeffs))
        if isinstance(other, (int, float, Fraction)):
            return Element(self.algebra, tuple(a * other for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        # real scalars commute with everything
        if isinstance(other, (int, float, Fraction)):
            return Element(self.algebra, tuple(other * a for a in self.coeffs))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Element(self.algebra,
                           tuple(Fraction(a) / other if isinstance(a, (int, Fraction))
                                 else a / other for a in self.coeffs))
        if isinstance(other, float):
            return Element(self.algebra, tuple(a / other for a in self.coeffs))
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra == other.algebra
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __repr__(self):
        return f"Element({self.format()})"

    def format(self):
        """Readable form like '2 + 3i - k'."""
        parts = []
        for name, c in zip(self.algebra.basis_names, self.coeffs):
            if c == 0:
                continue
            mag = c if c > 0 else -c
            sign = ("-" if c < 0 else "") if not parts \
                else (" + " if c > 0 else " - ")
            if name == "1":
                parts.append(f"{sign}{mag}")
            elif mag == 1:
                parts.append(f"{sign}{name}")
            else:
                parts.append(f"{sign}{mag}{name}")
        return "".join(parts) if parts else "0"

    def conj(self):
        return Element(self.algebra,
                       tuple(s * a for s, a in
                             zip(self.algebra.conj_signs, self.coeffs)))

    def real_coeff(self):
        return self.coeffs[0]

    def imag_part(self):
        """x - Re(x) as an element (the component off the unity axis)."""
        return Element(self.algebra, (0 * self.coeffs[0],) + self.coeffs[1:])

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.coeffs)

    def is_real(self, tol=0.0):
        return all(abs(c) <= tol for c in self.coeffs[1:])

    def euclid_norm_sq(self):
        return sum(c * c for c in self.coeffs)

    def euclid_norm(self):
        # hypot scales, so coefficients past 1e154 do not overflow
        return math.hypot(*map(float, self.coeffs))


# -- basic operations ---------------------------------------------------------

def conj(a):
    """Anti-involution a^c."""
    return a.conj()


def trace(a):
    """t(a) = a + a^c, an element (real iff a is trace-real)."""
    return a + a.conj()


def norm_sq(a):
    """n(a) = a * a^c, an element (real on the quadratic cone)."""
    return a * a.conj()


class ConeDecomposition:
    """x = alpha + beta*J with beta >= 0 and J an imaginary unit.

    At real points beta is 0 and J is the algebra's canonical unit; alpha and
    beta keep whatever exactness the input had (Fractions stay Fractions when
    the square root involved is exact).
    """

    __slots__ = ("algebra", "alpha", "beta", "unit")

    def __init__(self, algebra, alpha, beta, unit):
        self.algebra = algebra
        self.alpha = alpha
        self.beta = beta
        self.unit = unit

    def compose(self):
        return self.algebra.from_real(self.alpha) + self.beta * self.unit

    def __repr__(self):
        return (f"ConeDecomposition(alpha={self.alpha}, beta={self.beta}, "
                f"J={self.unit.format()})")


def _exact_sqrt(value):
    """Exact square root of an int/Fraction if one exists, else None."""
    fr = Fraction(value)
    if fr < 0:
        return None
    num = math.isqrt(fr.numerator)
    den = math.isqrt(fr.denominator)
    if num * num == fr.numerator and den * den == fr.denominator:
        return Fraction(num, den)
    return None


def cone_decompose(x, tol=DEFAULT_TOL):
    """Decompose a quadratic-cone point as alpha + beta*J.

    Membership requires t(x) real, n(x) real, and 4 n(x) >= t(x)^2 - tol;
    the violated condition is reported otherwise.  Exact coefficients give
    exact alpha, beta (when the root is exact) and exact J.
    """
    t = trace(x)
    if not t.is_real(tol):
        raise NotInQuadraticCone(
            f"trace not real: t(x) = {t.format()}")
    im = x.imag_part()
    # with t(x) real, Im(x)^c = -Im(x), so n(Im x) = -Im(x)^2
    n_im = -(im * im)
    if not n_im.is_real(tol):
        n = norm_sq(x)
        raise NotInQuadraticCone(f"norm not real: n(x) = {n.format()}")
    beta_sq = n_im.real_coeff()
    alpha = x.real_coeff()
    if im.is_zero(tol):
        return ConeDecomposition(x.algebra, alpha, 0,
                                 x.algebra.default_imaginary_unit())
    # 4 n(x) - t(x)^2 = 4 n(Im x); strictly positive off the real axis
    if beta_sq <= tol * tol:
        raise NotInQuadraticCone(
            f"4 n(x) - t(x)^2 = {float(4 * beta_sq)} not positive")
    beta = None
    if isinstance(beta_sq, (int, Fraction)):
        beta = _exact_sqrt(beta_sq)
    if beta is None:
        beta = math.sqrt(float(beta_sq))
    unit = im * (1 / beta if isinstance(beta, float) else Fraction(1) / beta)
    return ConeDecomposition(x.algebra, alpha, beta, unit)


def is_imaginary_unit(x, tol=DEFAULT_TOL):
    """True when t(x) = 0 and n(x) = 1 within tol."""
    return trace(x).is_zero(tol) and (norm_sq(x) - x.algebra.one()).is_zero(tol)


def invert(x, tol=DEFAULT_TOL):
    """Two-sided inverse x^c/n(x) of a point of the quadratic cone.

    The domain is the x with t(x) and n(x) real within tol, which every
    cone point satisfies; there x^c/n(x) is the inverse, exact for exact
    input.  A t(x) or n(x) that is not real raises NotInQuadraticCone,
    naming the failed condition, and n(x) <= tol^2 raises NotInvertible.
    """
    t = trace(x)
    if not t.is_real(tol):
        raise NotInQuadraticCone(f"trace not real: t(x) = {t.format()}")
    n = norm_sq(x)
    if not n.is_real(tol):
        raise NotInQuadraticCone(f"norm not real: n(x) = {n.format()}")
    n0 = n.real_coeff()
    if n0 == 0 or abs(n0) <= tol * tol:
        raise NotInvertible(f"n(x) = {float(n0)} too small")
    return x.conj() / n0


def ordered_product(units, v):
    """[u, v] = u_1(u_2(...(u_m v)...)); [(), v] = v."""
    result = v
    for u in reversed(tuple(units)):
        result = u * result
    return result


def ordered_inverse_product(units, w):
    """Solve [u, v] = w for v: applies inverses innermost-first.

    Equals u_m^{-1}(...(u_1^{-1} w)...), the reversed-inverse ordered
    product; the round trip with ordered_product is exact in alternative
    algebras because each u_h, u_h^{-1} pair sits in one associative
    subalgebra.
    """
    result = w
    for u in tuple(units):
        result = invert(u) * result
    return result


def splitting_basis(J):
    """Real basis {1, J, J_1, J*J_1, ..., J_u, J*J_u} associated with J.

    Greedy completion: scan the basis elements, adding any vector (together
    with its left J-multiple) that enlarges the span.  Left multiplication
    by J squares to -1, so every added pair keeps the span J-stable and the
    process fills the algebra whenever dim is even.  Independence is
    decided by Gaussian elimination in floats: a vector whose remainder is
    at most 1e-8 times its size lies in the span.
    """
    A = J.algebra
    if not is_imaginary_unit(J):
        raise NotImaginaryUnit(f"not an imaginary unit: {J.format()}")
    if A.dim % 2:
        raise SplittingFailed(f"dim {A.dim} is odd")
    rows = []  # (pivot, row), each row 1 at its pivot, its largest entry

    def enlarges(x):
        v = [float(c) for c in x.coeffs]
        size = math.hypot(*v)
        for piv, row in rows:
            f = v[piv]
            v = [a - f * b for a, b in zip(v, row)]
        if math.hypot(*v) <= 1e-8 * max(1.0, size):
            return False
        piv = max(range(A.dim), key=lambda k: abs(v[k]))
        rows.append((piv, [a / v[piv] for a in v]))
        return True

    basis = [A.one(), J]
    # t(J) = 0 and n(J) = 1 keep J off the real axis
    added = [enlarges(v) for v in basis]
    assert all(added), "1 and J are dependent"
    for i in range(A.dim):
        if len(basis) == A.dim:
            break
        cand = A.basis(i)
        if not enlarges(cand):
            continue
        jcand = J * cand
        if not enlarges(jcand):
            raise SplittingFailed(
                f"J*{A.basis_names[i]} fell into the current span")
        basis += (cand, jcand)
    # every e_i now lies within 1e-8 of the span, so the span is the algebra
    assert len(basis) == A.dim, "basis scan exhausted before filling the span"
    return basis


# -- construction and serialization -------------------------------------------

def make_algebra(kind, params=None):
    """Build a supported algebra table.

    kind: 'quaternions', 'octonions', or 'clifford' with params=(p,q); the
    spellings 'clifford(p,q)', 'H', 'O' are accepted as conveniences.
    """
    name = kind.strip().lower() if isinstance(kind, str) else kind
    if name in ("h", "quaternions", "quaternion"):
        idx, sgn, conjs, _ = tables.clifford_table(0, 2)
        return AlgebraDef("quaternions", 4, tables.QUATERNION_NAMES,
                          idx, sgn, conjs, associative=True)
    if name in ("o", "octonions", "octonion"):
        idx, sgn, conjs = tables.octonion_table()
        names = ("1",) + tuple(f"e{i}" for i in range(1, 8))
        return AlgebraDef("octonions", 8, names, idx, sgn, conjs,
                          associative=False)
    if isinstance(name, str) and name.startswith("clifford"):
        rest = name[len("clifford"):].strip()
        if rest:
            rest = rest.strip("():").replace(",", " ")
            pieces = rest.split()
            if len(pieces) != 2 or not all(s.lstrip("-").isdigit() for s in pieces):
                raise UnsupportedKind(f"cannot parse Clifford signature in {kind!r}")
            params = (int(pieces[0]), int(pieces[1]))
        if params is None:
            raise UnsupportedKind("clifford requires a (p, q) signature")
        p, q = params
        idx, sgn, conjs, names = tables.clifford_table(p, q)
        return AlgebraDef(f"clifford({p},{q})", 1 << (p + q), names,
                          idx, sgn, conjs, associative=True)
    raise UnsupportedKind(f"unknown algebra kind {kind!r}")


def algebra_to_json(A):
    """The table document, as `hyperslice algebra-dump` prints it.

    Keys in order: kind, dim, basis, associative, conjugation_signs, table
    (e_i e_j as a basis name with an optional leading '-') and
    default_imaginary_unit (None when the unit sphere is empty).
    """
    names = A.basis_names
    try:
        unit = A.default_imaginary_unit().format()
    except EmptyUnitSphere:
        unit = None
    return {"kind": A.kind, "dim": A.dim, "basis": list(names),
            "associative": A.associative,
            "conjugation_signs": list(A.conj_signs),
            "table": [[("-" if s < 0 else "") + names[k]
                       for k, s in zip(ri, rs)]
                      for ri, rs in zip(A.mul_index, A.mul_sign)],
            "default_imaginary_unit": unit}


def _list_of(value, kind, n):
    return (isinstance(value, list) and len(value) == n
            and all(type(v) is kind for v in value))


def algebra_from_json(obj):
    """Rebuild an AlgebraDef from the document algebra_to_json writes.

    Reads dim, basis, conjugation_signs and table and ignores any other
    key, so the stdout of `hyperslice algebra-dump` parses straight back.
    Associativity is recomputed from the table, because the document is
    outside input; the algebra is named 'custom'.  A malformed document
    raises UnsupportedKind, and one past 64 basis elements DimensionTooLarge.
    """
    try:
        dim, names, conjs, table = (
            obj[key] for key in ("dim", "basis", "conjugation_signs", "table"))
    except (KeyError, TypeError):
        raise UnsupportedKind("a table document needs the keys dim, basis, "
                              "conjugation_signs and table") from None
    if type(dim) is not int or dim < 1:
        raise UnsupportedKind(f"dim must be a positive int, got {dim!r}")
    if dim > 64:
        raise DimensionTooLarge(f"dim {dim} exceeds supported 64")
    if not _list_of(names, str, dim) or len(set(names)) != dim:
        raise UnsupportedKind("basis must hold dim distinct names")
    if not _list_of(conjs, int, dim) or any(s not in (1, -1) for s in conjs):
        raise UnsupportedKind("conjugation_signs must hold dim signs +1/-1")
    if not _list_of(table, list, dim) or any(len(r) != dim for r in table):
        raise UnsupportedKind("table must hold dim rows of dim entries")
    signed = {"-" + n: (k, -1) for k, n in enumerate(names)}
    signed.update((n, (k, 1)) for k, n in enumerate(names))
    try:
        entries = [[signed[e] for e in row] for row in table]
    except (KeyError, TypeError):
        raise UnsupportedKind("each table entry must be a basis name with "
                              "an optional leading '-'") from None
    mul_index = [[k for k, _ in row] for row in entries]
    mul_sign = [[s for _, s in row] for row in entries]
    associative = all(
        mul_index[mul_index[i][j]][k] == mul_index[i][mul_index[j][k]]
        and mul_sign[i][j] * mul_sign[mul_index[i][j]][k]
        == mul_sign[j][k] * mul_sign[i][mul_index[j][k]]
        for i in range(dim) for j in range(dim) for k in range(dim)
    )
    return AlgebraDef("custom", dim, names, mul_index, mul_sign, conjs,
                      associative)
