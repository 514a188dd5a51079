"""Slice functions of several cone variables: evaluation and averaging.

A point of the cone power is held per variable as (alpha_h, beta_h, J_h)
with beta_h >= 0 and J_h on the unit imaginary sphere.  Evaluating a stem F
at such a point means summing the ordered unit products [J_K, F_K(z)] over
all subsets K.

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

from .algebra import (
    DEFAULT_TOL,
    cone_decompose,
    invert,
    is_imaginary_unit,
    ordered_inverse_product,
    ordered_product,
)
from .errors import (
    AlgebraMismatch,
    NotImaginaryUnit,
    OnRealLocus,
    OutsideDomain,
    SphereMismatch,
)
from .stems import CallableStem, SubsetIndex


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
    def from_elements(cls, xs, tol=DEFAULT_TOL):
        """Decompose cone elements into coordinates; rejects non-cone points."""
        xs = list(xs)
        algebra = xs[0].algebra
        alphas, betas, units = [], [], []
        for x in xs:
            dec = cone_decompose(x, tol)
            alphas.append(dec.alpha)
            betas.append(dec.beta)
            units.append(dec.unit)
        return cls(algebra, alphas, betas, units)

    @classmethod
    def slice_diagonal(cls, algebra, zs, J, tol=DEFAULT_TOL):
        """All variables on the slice of one unit J; zs are (alpha, beta)."""
        if not is_imaginary_unit(J, tol):
            raise NotImaginaryUnit("slice unit must square to -1")
        alphas = [ab[0] for ab in zs]
        betas = [ab[1] for ab in zs]
        return cls(algebra, alphas, betas, [J] * len(alphas))

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

    def same_fiber(self, other, tol=DEFAULT_TOL):
        return self.n == other.n and all(
            abs(a - b) <= tol for a, b in
            zip(self.alphas + self.betas, other.alphas + other.betas))

    def mask_units(self, mask):
        return [J for h, J in enumerate(self.units) if mask >> h & 1]

    def __repr__(self):
        coords = ", ".join(
            f"({a}, {b}, {J.format()})"
            for a, b, J in zip(self.alphas, self.betas, self.units))
        return f"SlicePoint[{coords}]"


def _assemble(values, point):
    """sum over K of [J_K, v_K], units multiplied innermost-last."""
    total = point.algebra.zero()
    for mask, v in enumerate(values):
        if v.is_zero(0):
            continue
        total = total + ordered_product(point.mask_units(mask), v)
    return total


def slice_eval(stem, point, tol=DEFAULT_TOL):
    """f(x) = sum over K of [J_K, F_K(z)], units multiplied innermost-last."""
    if stem.algebra != point.algebra:
        raise AlgebraMismatch("stem and point live in different algebras")
    if stem.n != point.n:
        raise AlgebraMismatch(
            f"stem has {stem.n} variables, point has {point.n}")
    return _assemble(stem.value_at(point.z()).components, point)


def as_point_function(g):
    """Adapt a function of Elements to a function of SlicePoints."""
    return lambda point: g(*point.elements())


def _fiber_values(f, point, tol=DEFAULT_TOL):
    """The 2^n stem values at the point's fiber from 2^n values of f.

    Component K is 2^-n [J_K]^-1 sum over H of (-1)^|K meet H| f(x
    conjugated in H).  It is zero when K holds a variable with beta at or
    below tol, where the signed sum vanishes on the fiber and J_K may not
    be a unit.
    """
    size = 1 << point.n
    values = [f(point.conjugated(hmask)) for hmask in range(size)]
    on_real = sum(1 << h for h, b in enumerate(point.betas) if b <= tol)
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


def _beta_product(point, kmask, tol):
    """prod over h in K of beta_h; OnRealLocus if some beta_h <= tol."""
    product = 1
    for h, b in enumerate(point.betas, start=1):
        if kmask >> (h - 1) & 1:
            if b <= tol:
                raise OnRealLocus(
                    f"variable {h} has vanishing imaginary part; the "
                    f"derivative needs the full sphere in that variable")
            product = product * b
    return product


def representation_eval(f, source, target, tol=DEFAULT_TOL):
    """Value at the target from fiber values at the source.

    Both points must carry the same (alpha_h, beta_h); only the units may
    differ.  f is called once at each of the 2^n conjugates of the source.
    Masks containing a variable with beta below tol are skipped: their
    alternating sums vanish identically on the fiber.
    """
    if source.algebra != target.algebra:
        raise AlgebraMismatch("source and target in different algebras")
    if not source.same_fiber(target, tol):
        raise SphereMismatch(
            "source and target lie on different fibers; the formula only "
            "transports values along one fiber")
    return _assemble(_fiber_values(f, source, tol), target)


def stem_from_values(f, algebra, n, source_units, tol=DEFAULT_TOL):
    """Recover the stem components from one fiber of values.

    source_units fixes the units I_h used to build the sample points; the
    result is a numeric stem valid wherever f is a slice function.  Each
    evaluation of it calls f 2^n times.
    """
    units = list(source_units)
    if len(units) != n:
        raise AlgebraMismatch(f"need {n} units, got {len(units)}")

    def components(z):
        point = SlicePoint(algebra, [ab[0] for ab in z],
                           [ab[1] for ab in z], units)
        return _fiber_values(f, point, tol)

    return CallableStem(n, algebra, components)


def sliceness_residual(f, point, source_units, tol=DEFAULT_TOL):
    """How far f is from the fiber representation built at other units.

    The source point carries source_units on the same fiber as the target.
    Source and target must genuinely differ: with equal units the formula
    collapses to f(point) for every function, slice or not, so a useful
    probe varies the units (coincident target units catch products taken
    in the wrong order).  Zero on slice functions.
    """
    source = point.with_units(source_units)
    rebuilt = representation_eval(f, source, point, tol)
    return (f(point) - rebuilt).euclid_norm()


def sliceness_scan(f, point, units_pool, tol=DEFAULT_TOL):
    """Max representation residual over source/target unit assignments.

    units_pool is a sequence of imaginary units; all assignments of pool
    units to the variables are tried on both sides.  Small only if the
    fiber values are consistent with a single stem.
    """
    n = point.n
    pool = list(units_pool)
    assignments = [[]]
    for _ in range(n):
        assignments = [a + [u] for a in assignments for u in pool]
    worst = 0.0
    for src in assignments:
        for dst in assignments:
            r = sliceness_residual(f, point.with_units(dst), src, tol)
            if r > worst:
                worst = r
    return worst


def spherical_value(f, point):
    """Average of f over the 2^n conjugated points."""
    return _fiber_values(f, point)[0]


def spherical_derivative(f, point, kmask, tol=DEFAULT_TOL):
    """K-th spherical derivative at the point, K given as a mask.

    Requires beta_k > 0 for every k in K; the imaginary parts are divided
    out, so the value is constant on the fiber for slice functions.  It is
    the K-th stem component divided by the product of the beta_k.
    """
    product = _beta_product(point, kmask, tol)
    return _fiber_values(f, point, tol)[kmask] / product


def spherical_expansion(f, point, tol=DEFAULT_TOL):
    """Reassemble f(x) as vs f(x) + sum over K of [Im_K(x), f'_{s,K}(x)].

    Each term equals [J_K, F_K(z)], so this is the fiber transform summed
    back at the point itself.
    """
    return _assemble(_fiber_values(f, point, tol), point)


def one_variable_split(f, h, order, tol=DEFAULT_TOL):
    """The one-variable averaging (order 0) or difference (order 1) operator.

    Returns a new function of SlicePoints; iterating over the variables
    with the characteristic exponents of K produces the K-th spherical
    derivative.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    bit = 1 << (h - 1)

    def g(point):
        plus = f(point)
        minus = f(point.conjugated(bit))
        if order == 0:
            return (plus + minus) * Fraction(1, 2)
        if point.betas[h - 1] <= tol:
            raise OnRealLocus(
                f"variable {h} has vanishing imaginary part")
        im = point.imaginary_part(h)
        return invert(im) * ((plus - minus) * Fraction(1, 2))
    return g


def truncated_derivative(stem, point, eps, tol=DEFAULT_TOL):
    """Partial spherical derivative in the first variables.

    eps is a 0/1 sequence for variables 1..m; variables past m keep their
    unit products, so with m = n and eps the characteristic sequence of K
    this is the K-th spherical derivative.
    """
    m = len(eps)
    if m > stem.n:
        raise AlgebraMismatch("eps longer than the number of variables")
    if any(e not in (0, 1) for e in eps):
        raise ValueError("eps entries must be 0 or 1")
    kmask = sum(e << h for h, e in enumerate(eps))
    product = _beta_product(point, kmask, tol)
    vals = stem.value_at(point.z())
    values = [point.algebra.zero()] * (1 << stem.n)
    for hmask in range(0, 1 << stem.n, 1 << m):
        values[hmask] = vals[hmask | kmask]
    return _assemble(values, point) / product


class VariableDomain:
    """Constraint on one variable's (alpha, |Im|) pair."""

    def __init__(self, kind, **params):
        if kind not in ("all", "rect", "disc"):
            raise ValueError(f"unknown domain kind {kind!r}")
        self.kind = kind
        if kind == "rect":
            self.alpha_min = params["alpha_min"]
            self.alpha_max = params["alpha_max"]
            self.beta_max = params["beta_max"]
        elif kind == "disc":
            self.center = params["center"]
            self.radius = params["radius"]

    def contains(self, alpha, beta):
        if self.kind == "all":
            return True
        if beta < 0:
            beta = -beta
        if self.kind == "rect":
            return (self.alpha_min <= alpha <= self.alpha_max
                    and beta <= self.beta_max)
        return (alpha - self.center) ** 2 + beta ** 2 <= self.radius ** 2

    def to_json(self):
        if self.kind == "all":
            return {"kind": "all"}
        if self.kind == "rect":
            return {"kind": "rect", "alpha_min": self.alpha_min,
                    "alpha_max": self.alpha_max, "beta_max": self.beta_max}
        return {"kind": "disc", "center": self.center, "radius": self.radius}

    @classmethod
    def from_json(cls, obj):
        kind = obj["kind"]
        params = {k: v for k, v in obj.items() if k != "kind"}
        return cls(kind, **params)


class DomainSpec:
    """Product domain: one VariableDomain per variable.

    Only alpha and |Im| are constrained, so every domain described here is
    invariant under all unit changes, as evaluation requires.
    """

    def __init__(self, variables):
        self.variables = tuple(variables)

    @property
    def n(self):
        return len(self.variables)

    def contains_z(self, z):
        return all(dom.contains(a, b)
                   for dom, (a, b) in zip(self.variables, z))

    def contains(self, point):
        return self.contains_z(point.z())

    def require(self, point):
        if not self.contains(point):
            raise OutsideDomain(
                f"point {point!r} outside the declared domain")

    def to_json(self):
        return {"variables": [v.to_json() for v in self.variables]}

    @classmethod
    def from_json(cls, obj):
        return cls([VariableDomain.from_json(v) for v in obj["variables"]])


def subset_mask(*members):
    """Convenience: mask of the subset with the given variables."""
    return SubsetIndex.of(*members)
