"""Slice functions of several cone variables: evaluation and averaging.

A point of the cone power is held per variable as (alpha_h, beta_h, J_h)
with beta_h >= 0 and J_h on the unit imaginary sphere.  Evaluating a stem F
at such a point means summing the ordered unit products [J_K, F_K(z)] over
all subsets K.  A StemPoly reads each F_K(z) off its evaluation plan as a
coefficient tuple, summed by straight-line kernels cached per dimension and
block of terms (StemPoly.coeffs_at).  Off one slice, the n 2^(n-1) unit
actions apply AlgebraDef.product to tuples, given each unit's nonzero table
rows, which an Element takes once (left_rows); the sum adds tuples, so the
result is the only Element formed.  On one slice, n >= 2 units all +-J,
no unit acts: the stem collapses by J, and a StemPoly keeps its
coefficients folded with J, so a value is one pass of the same kernels
(slice_eval, StemPoly.slice_coeffs).

The averaging operators rest on one fiber transform: f is evaluated once at
each of the 2^n conjugates of a point, and for each K the signed sum
2^-n [J_K]^-1 sum over H of (-1)^|K meet H| f(x conjugated in H) is the
stem component F_K(z).  The representation formula, stem recovery, the
spherical value and derivatives and the spherical expansion are all that
transform, so each costs 2^n evaluations of f.  The one-variable
splitting operators, whose iteration gives the spherical derivatives one
variable at a time, and the truncated derivatives of a stem stand apart.
"""

from fractions import Fraction
from operator import add

from .algebra import (
    DEFAULT_TOL,
    Element,
    cone_decompose,
    invert,
    ordered_inverse_product,
)
from .errors import (
    AlgebraMismatch,
    HypersliceError,
    IndexOutOfRange,
    OnRealLocus,
    SphereMismatch,
    check_space,
)
from .stems import CallableStem


class SlicePoint:
    """A cone-power point, one (alpha, beta, unit) triple per variable."""

    __slots__ = ("algebra", "alphas", "betas", "units")

    def __init__(self, algebra, alphas, betas, units):
        self.algebra = algebra
        alphas = list(alphas)
        betas = list(betas)
        units = list(units)
        if not len(alphas) == len(betas) == len(units):
            raise AlgebraMismatch("coordinate tuples of unequal length")
        for h, (b, J) in enumerate(zip(betas, units)):
            if b < 0:
                betas[h] = -b
                units[h] = -1 * J
        self.alphas = tuple(alphas)
        self.betas = tuple(betas)
        self.units = tuple(units)

    @classmethod
    def from_elements(cls, xs):
        """Decompose cone elements into coordinates; rejects non-cone points."""
        xs = list(xs)
        if not xs:
            raise HypersliceError("an empty point has no algebra; "
                                  "SlicePoint(algebra, (), (), ()) builds one")
        algebra = xs[0].algebra
        alphas, betas, units = [], [], []
        for x in xs:
            dec = cone_decompose(x)
            alphas.append(dec.alpha)
            betas.append(dec.beta)
            units.append(dec.unit)
        return cls(algebra, alphas, betas, units)

    @property
    def n(self):
        return len(self.alphas)

    def z(self):
        return tuple(zip(self.alphas, self.betas))

    def element(self, h):
        a, b, J = self.alphas[h - 1], self.betas[h - 1], self.units[h - 1]
        return self.algebra.from_real(a) + b * J

    def elements(self):
        return tuple(self.element(h) for h in range(1, self.n + 1))

    def conjugated(self, mask):
        """Flip the unit of every variable in the mask (beta stays >= 0)."""
        units = [(-1 * J) if mask >> h & 1 else J
                 for h, J in enumerate(self.units)]
        return SlicePoint(self.algebra, self.alphas, self.betas, units)

    def with_units(self, units):
        return SlicePoint(self.algebra, self.alphas, self.betas, units)

    def imaginary_part(self, h):
        return self.betas[h - 1] * self.units[h - 1]

    def same_fiber(self, other):
        return self.n == other.n and all(
            abs(a - b) <= DEFAULT_TOL for a, b in
            zip(self.alphas + self.betas, other.alphas + other.betas))

    def mask_units(self, mask):
        return [J for h, J in enumerate(self.units) if mask >> h & 1]

    def __repr__(self):
        coords = ", ".join(
            f"({a}, {b}, {J.format()})"
            for a, b, J in zip(self.alphas, self.betas, self.units))
        return f"SlicePoint[{coords}]"


def _assemble(values, point):
    """sum over K of [J_K, v_K] on tuples, units multiplied innermost-last.

    values are coefficient tuples or Elements of the point's algebra.
    """
    algebra = point.algebra
    units = [(1 << h, unit.left_rows())
             for h, unit in enumerate(point.units)][::-1]
    total = (0,) * algebra.dim
    for mask, v in enumerate(values):
        if isinstance(v, Element):
            if v.algebra != algebra:
                raise AlgebraMismatch(
                    f"value from {v.algebra.kind}, point in {algebra.kind}")
            v = v.coeffs
        if any(v):
            for bit, rows in units:
                if mask & bit:
                    v = algebra.product(rows, v)
            total = tuple(map(add, total, v))
    return Element(algebra, total)


def _stem_values(stem, point):
    """The 2^n stem values at the point's fiber; tuples for a StemPoly."""
    if stem.is_polynomial:
        return stem.coeffs_at(point.z())
    return stem.value_at(point.z()).components


def _signed_coords(point):
    """(alpha_1, eps_1 beta_1, ...) when unit h is eps_h J for every h, J
    the first unit, compared by coefficient tuples; else None."""
    J = point.units[0].coeffs
    minus = tuple(-c for c in J)
    flat = []
    for a, b, unit in zip(point.alphas, point.betas, point.units):
        if unit.coeffs == J:
            flat += a, b
        elif unit.coeffs == minus:
            flat += a, -b
        else:
            return None
    return flat


def slice_eval(stem, point):
    """f(x) = sum over K of [J_K, F_K(z)], units multiplied innermost-last.

    One slice.  When a StemPoly of n >= 2 variables meets a point whose
    units are eps_h J, J the first unit, the value is the stem collapsed
    by J at signed betas, sum over K of J^|K| F_K(alpha, eps beta):
    [J_K, v] is eps_K J^|K| v, and the beta-parity law moves eps_K into
    the betas.  That needs J(Jv) = (JJ)v, which holds in the alternative
    algebras this package serves (poly_eval's Horner assumes it too), and
    JJ = -1, for which J must pass is_imaginary_unit.  The stem keeps its
    coefficients folded with the last J (StemPoly.slice_coeffs): each
    value is then one kernel pass with no Element product, and the first
    call at a new J pays for the check and one product per term of odd
    |K|.  Elsewhere (n = 1, a CallableStem, units on several slices, a J
    failing the check) the unit products act on the 2^n component values.
    """
    check_space("point", point.n, point.algebra, stem.n, stem.algebra)
    if stem.is_polynomial and point.n > 1:
        flat = _signed_coords(point)
        if flat is not None:
            coeffs = stem.slice_coeffs(point.units[0], flat)
            if coeffs is not None:
                return Element(point.algebra, coeffs)
    return _assemble(_stem_values(stem, point), point)


def as_point_function(g):
    """Adapt a function of Elements to a function of SlicePoints."""
    return lambda point: g(*point.elements())


def _fiber_values(f, point):
    """The 2^n stem values at the point's fiber from 2^n values of f.

    Component K is 2^-n [J_K]^-1 sum over H of (-1)^|K meet H| f(x
    conjugated in H).  It is zero when K holds a variable with beta at or
    below DEFAULT_TOL, where the signed sum vanishes on the fiber and J_K
    may not be a unit.
    """
    size = 1 << point.n
    values = [f(point.conjugated(hmask)) for hmask in range(size)]
    on_real = sum(1 << h for h, b in enumerate(point.betas)
                  if b <= DEFAULT_TOL)
    weight = Fraction(1, size)
    out = []
    for kmask in range(size):
        total = point.algebra.zero()
        if not kmask & on_real:
            for hmask, v in enumerate(values):
                total = total + (-1) ** (kmask & hmask).bit_count() * v
            total = ordered_inverse_product(point.mask_units(kmask),
                                            total) * weight
        out.append(total)
    return out


def _beta_product(point, kmask):
    """prod over h in K of beta_h; OnRealLocus if some beta_h <= DEFAULT_TOL."""
    product = 1
    for h, b in enumerate(point.betas, start=1):
        if kmask >> (h - 1) & 1:
            if b <= DEFAULT_TOL:
                raise OnRealLocus(
                    f"variable {h} has vanishing imaginary part; the "
                    f"derivative needs the full sphere in that variable")
            product = product * b
    return product


def representation_eval(f, source, target):
    """Value at the target from fiber values at the source.

    Both points must carry the same (alpha_h, beta_h); only the units may
    differ.  f is called once at each of the 2^n conjugates of the source.
    Masks containing a variable with beta at or below DEFAULT_TOL are
    skipped: their alternating sums vanish identically on the fiber.
    """
    # the algebra only: a point with another n lies on another fiber
    check_space("target", target.n, target.algebra, target.n, source.algebra)
    if not source.same_fiber(target):
        raise SphereMismatch(
            "source and target lie on different fibers; the formula only "
            "transports values along one fiber")
    return _assemble(_fiber_values(f, source), target)


def stem_from_values(f, algebra, n, source_units):
    """Recover the stem components from one fiber of values.

    source_units fixes the units I_h used to build the sample points; the
    result is a numeric stem valid wherever f is a slice function.  Each
    evaluation of it calls f 2^n times.
    """
    units = list(source_units)
    check_space("source_units", len(units), algebra, n, algebra)

    def components(z):
        point = SlicePoint(algebra, [ab[0] for ab in z],
                           [ab[1] for ab in z], units)
        return _fiber_values(f, point)

    return CallableStem(n, algebra, components)


def sliceness_residual(f, point, source_units):
    """How far f is from the fiber representation built at other units.

    The source point carries source_units on the same fiber as the target.
    Source and target must genuinely differ: with equal units the formula
    collapses to f(point) for every function, slice or not, so a useful
    probe varies the units (coincident target units catch products taken
    in the wrong order).  Zero on slice functions.
    """
    source = point.with_units(source_units)
    rebuilt = representation_eval(f, source, point)
    return (f(point) - rebuilt).euclid_norm()


def spherical_value(f, point):
    """Average of f over the 2^n conjugated points."""
    return _fiber_values(f, point)[0]


def spherical_derivative(f, point, kmask):
    """K-th spherical derivative at the point, K given as a mask.

    Requires beta_k > 0 for every k in K; the imaginary parts are divided
    out, so the value is constant on the fiber for slice functions.  It is
    the K-th stem component divided by the product of the beta_k.  A mask
    outside 0..2^n - 1 raises IndexOutOfRange.
    """
    if not 0 <= kmask < 1 << point.n:
        raise IndexOutOfRange(
            f"mask {kmask} outside 0..{(1 << point.n) - 1}")
    product = _beta_product(point, kmask)
    return _fiber_values(f, point)[kmask] / product


def spherical_expansion(f, point):
    """Reassemble f(x) as vs f(x) + sum over K of [Im_K(x), f'_{s,K}(x)].

    Each term equals [J_K, F_K(z)], so this is the representation formula
    carrying the fiber values from the point back to itself.
    """
    return representation_eval(f, point, point)


def one_variable_split(f, h, order):
    """The one-variable averaging (order 0) or difference (order 1) operator.

    Returns a new function of SlicePoints; iterating over the variables
    with the characteristic exponents of K produces the K-th spherical
    derivative.  An order other than 0 or 1 raises HypersliceError, and h
    outside 1..n, n the number of variables of the point, IndexOutOfRange.
    """
    if order not in (0, 1):
        raise HypersliceError(f"order must be 0 or 1, got {order!r}")
    if h < 1:
        raise IndexOutOfRange(f"variable index {h} must be >= 1")
    bit = 1 << (h - 1)

    def g(point):
        if h > point.n:
            raise IndexOutOfRange(
                f"variable index {h} outside 1..{point.n}")
        plus = f(point)
        minus = f(point.conjugated(bit))
        if order == 0:
            return (plus + minus) * Fraction(1, 2)
        if point.betas[h - 1] <= DEFAULT_TOL:
            raise OnRealLocus(
                f"variable {h} has vanishing imaginary part")
        im = point.imaginary_part(h)
        return invert(im) * ((plus - minus) * Fraction(1, 2))
    return g


def truncated_derivative(stem, point, eps):
    """Partial spherical derivative in the first variables.

    eps is a 0/1 sequence for variables 1..m; variables past m keep their
    unit products, so with m = n and eps the characteristic sequence of K
    this is the K-th spherical derivative.
    """
    m = len(eps)
    if m > stem.n:
        raise AlgebraMismatch("eps longer than the number of variables")
    if any(e not in (0, 1) for e in eps):
        raise HypersliceError(f"eps entries must be 0 or 1, got {eps!r}")
    kmask = sum(e << h for h, e in enumerate(eps))
    product = _beta_product(point, kmask)
    check_space("point", point.n, point.algebra, stem.n, stem.algebra)
    vals = _stem_values(stem, point)
    values = [(0,) * stem.algebra.dim] * (1 << stem.n)
    for hmask in range(0, 1 << stem.n, 1 << m):
        values[hmask] = vals[hmask | kmask]
    return _assemble(values, point) / product
