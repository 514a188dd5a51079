"""Cauchy kernels and reconstruction on products of discs and annuli.

The boundary torus is a product of real-centered circles on one slice,
parametrized by xi_h(t) = c_h + r_h e^{Jt}.  cauchy_reconstruct, the one
Cauchy engine, integrates the non-associative subset-expanded integrand
over the angle torus with the tensor trapezoid rule.  On the slice every
kernel factor is a complex number a + b u_h, so the integrand is a sum of
unit words u_1^b1(...(u_n^bn(J^b0 f))) with real weights, and each weight
is the real part of a product of one-variable factors.  The grid sum
therefore contracts the boundary values of f one angle axis at a time with
those factors, and the units act once per variable.  The function supplies
its boundary values in product form, a core of coefficients and a table
per circle, so no N^n grid is formed: a polynomial its coefficients and
the complex powers z^d of the nodes (x^l a = z^l a on the slice, with no
expansion and no Element product), a stem its coefficients on the slice
and the real powers alpha^a beta^b, a callable its values on every node,
one call per node.  What depends only on the circles and N (the nodes and
the rule weights) is kept between calls as read-only arrays, at most 16
MiB in all, oldest dropped first.  A polynomial is not evaluated directly:
its trapezoid error has a closed form, so it gets a proven error_bound
(_error_bound), and an N at or below its degree in some variable is
refused as aliasing (QuadratureAliasing).  A stem, which need not be slice
regular, gets its slice_eval value as a reference; a callable gets
neither.  slice_cauchy_kernel is the closed-form kernel of associative
algebras at one point.  The pointwise integrand in exact
Element arithmetic, the oracle the engine is tested against, and the
symbolic proof that the closed-form kernel is slice regular live in
tests/oracles.py.
"""

import itertools
import math
import threading
from functools import partial
from typing import NamedTuple

from .algebra import (DEFAULT_TOL, Element, invert, is_imaginary_unit,
                      norm_sq, ordered_product, trace)
from .errors import (
    AlgebraMismatch,
    HypersliceError,
    NonAssociativeAlgebra,
    NotImaginaryUnit,
    NotInQuadraticCone,
    OnSingularSphere,
    PointOutsideE,
    QuadratureAliasing,
    QuadratureSingularity,
)
from .regularity import OrderedPolynomial, count_constant, norm_constant
from .slicefun import SlicePoint, slice_eval
from .stems import StemPoly

MIN_DELTA = 1e-3


def char_poly(q, p):
    """Delta_q(p) = p^2 - 2 Re(q) p + n(q); zero exactly on the sphere of q."""
    t = trace(q)
    nq = norm_sq(q)
    if not t.is_real(DEFAULT_TOL) or not nq.is_real(DEFAULT_TOL):
        raise NotInQuadraticCone(
            "the sphere parameter needs real trace and norm")
    return p * p - p * t.real_coeff() + p.algebra.from_real(nq.real_coeff())


class Circle(NamedTuple):
    center: float
    radius: float
    orientation: int = 1


class BoundaryTorus:
    """Product of per-variable unions of oriented real-centered circles."""

    def __init__(self, algebra, circles, J=None, samples_per_circle=64):
        self.algebra = algebra
        norm_circles = []
        for var_circles in circles:
            row = []
            for c in var_circles:
                c = Circle(*c) if not isinstance(c, Circle) else c
                if not 0 < c.radius < math.inf:
                    raise AlgebraMismatch(
                        "circle radius must be finite and positive")
                if not math.isfinite(c.center):
                    raise AlgebraMismatch("circle center must be finite")
                if c.orientation not in (1, -1):
                    raise AlgebraMismatch("orientation must be +1 or -1")
                row.append(c)
            if not row:
                raise AlgebraMismatch("each variable needs at least one circle")
            norm_circles.append(tuple(row))
        self.circles = tuple(norm_circles)
        if J is None:
            # a basis unit, found by an exact check
            J = algebra.default_imaginary_unit()
        elif isinstance(J, Element) and J.algebra != algebra:
            raise AlgebraMismatch(
                f"slice unit from {J.algebra.kind}, torus in {algebra.kind}")
        elif not (isinstance(J, Element) and is_imaginary_unit(J)):
            raise NotImaginaryUnit(f"{J!r} is not an imaginary unit")
        self.J = J
        if (type(samples_per_circle) is not int  # refuses bool and float
                or samples_per_circle < 1):
            raise HypersliceError(
                f"samples_per_circle must be an int >= 1, "
                f"got {samples_per_circle!r}")
        self.samples_per_circle = samples_per_circle

    @classmethod
    def discs(cls, algebra, radii, centers=None, J=None,
              samples_per_circle=64):
        centers = [0.0] * len(radii) if centers is None else centers
        if len(centers) != len(radii):
            raise AlgebraMismatch(
                f"{len(centers)} centers for {len(radii)} radii")
        circles = [[Circle(c, r)] for c, r in zip(centers, radii)]
        return cls(algebra, circles, J, samples_per_circle)

    @property
    def n(self):
        return len(self.circles)

    def contains_z(self, alpha, beta, h):
        """Winding test in variable h: the oriented circles of h must wind
        exactly once around alpha + i|beta|, since the Cauchy sum returns
        the winding number times f."""
        z = complex(alpha, abs(beta))
        winding = sum(c.orientation for c in self.circles[h - 1]
                      if abs(z - c.center) < c.radius)
        return winding == 1

    def contains_point(self, point):
        return all(self.contains_z(a, b, h + 1)
                   for h, (a, b) in enumerate(point.z()))

    def combos(self):
        """All circle choices, one per variable, with combined orientation."""
        out = [((), 1)]
        for var_circles in self.circles:
            out = [(chosen + (c,), sign * c.orientation)
                   for chosen, sign in out for c in var_circles]
        return out


class KernelPoint:
    """Validated (x, y) pairing: every coordinate off the pole spheres."""

    def __init__(self, x, ys):
        ys = tuple(ys)
        if len(ys) != x.n:
            raise AlgebraMismatch(f"need {x.n} pole coordinates")
        self.x = x
        self.ys = ys
        self.deltas = tuple(char_poly(y, x.element(h + 1))
                            for h, y in enumerate(ys))
        self.min_abs_delta = min(d.euclid_norm() for d in self.deltas)
        if self.min_abs_delta < MIN_DELTA:
            raise OnSingularSphere(
                f"min |Delta| = {self.min_abs_delta:.2e} below "
                f"{MIN_DELTA}; the kernel degenerates on pole spheres")


def _input_kind(f):
    """f's boundary value supplier for _reconstruct."""
    if isinstance(f, OrderedPolynomial):
        return partial(_polynomial_on_grid, f)
    if isinstance(f, StemPoly):
        return partial(_stem_on_grid, f)
    return lambda torus, tables: (partial(_callable_on_grid, f, torus), None)


def slice_cauchy_kernel(x, ys):
    """Closed-form kernel for associative algebras.

    ys are slice elements with real trace and norm (poles); the kernel is
    the unique slice regular function of x restoring f from boundary data.
    """
    algebra = x.algebra
    if not algebra.associative:
        raise NonAssociativeAlgebra(
            "the closed-form kernel needs an associative algebra; use the "
            "subset-expanded integrand instead")
    kp = KernelPoint(x, ys)
    n = x.n
    xs = [x.element(h) for h in range(1, n + 1)]
    inv = [invert(d) for d in kp.deltas]
    total = algebra.zero()
    for kmask in range(1 << n):
        sign = (-1) ** (n - bin(kmask).count("1"))
        right = algebra.one()
        for h in range(n):
            if kmask >> h & 1:
                right = right * ys[h].conj()
        factors = [inv[h] if kmask >> h & 1 else inv[h] * xs[h]
                   for h in range(n)]
        total = total + sign * ordered_product(factors, right)
    return total


# -- reconstruction on the grid -------------------------------------------


class _Tables(NamedTuple):
    """What the quadrature needs of C circles at N nodes each and not of
    the point or the input; R is 1 rule for odd N, 2 (the N/2 subgrid rule
    too) for even N.  The arrays are read-only, so that calls share them.
    The input's tables (z^d, alpha^a beta^b) come from its supplier."""

    rows: tuple     # rows[h]: the indices of the circles of variable h
    var: object     # (C,) the variable of each circle
    z: object       # (C, N) nodes c + r e^{it}
    two_re: object  # (C, N) 2 Re z
    sq: object      # (C, N) |z|^2
    zc: object      # (C, 1, N, 1) conj(z)
    vel: object     # (C, R, N, 1) rule weight times o r i e^{it}

    @property
    def nbytes(self):
        return sum(a.nbytes for a in self[1:])


def _build_tables(circles, N):
    """The _Tables of a torus's circles (BoundaryTorus.circles) at N nodes."""
    import numpy as np
    try:
        e_it = np.exp(2j * np.pi * np.arange(N) / N)
    except (ValueError, MemoryError):
        # numpy refuses an array this large, or cannot allocate it
        raise HypersliceError(
            f"{N} samples per circle do not fit in memory") from None
    ends = list(itertools.accumulate(map(len, circles)))
    rows = tuple(range(end - len(v), end) for end, v in zip(ends, circles))
    var = np.array([h for h, row in enumerate(rows) for _ in row])
    flat = [c for var_circles in circles for c in var_circles]
    center, radius, orientation = np.array(flat, float).T[..., None]
    z = center + radius * e_it
    rules = [1.0] if N % 2 else [1.0, np.where(np.arange(N) % 2, 0.0, 2.0)]
    vel = orientation * radius * 1j * e_it
    vel = np.stack([vel * rule for rule in rules], axis=1)[..., None]
    tables = _Tables(rows, var, z, 2.0 * z.real, z.real ** 2 + z.imag ** 2,
                     z.conjugate()[:, None, :, None], vel)
    for a in tables[1:]:
        a.setflags(write=False)
    return tables


# tables of recent (circles, N) keys, oldest first, at most _KEPT_BYTES in
# all; stored only by a call that succeeded, so a refused one keeps nothing
_KEPT_BYTES = 2 ** 24
_kept = {}
_kept_lock = threading.Lock()


def _keep(key, tables):
    """Store tables under key in place of older ones, dropping the oldest
    kept tables to stay within _KEPT_BYTES; larger ones are not kept."""
    size = tables.nbytes
    if size > _KEPT_BYTES:
        return
    with _kept_lock:
        _kept.pop(key, None)
        while sum(t.nbytes for t in _kept.values()) + size > _KEPT_BYTES:
            del _kept[next(iter(_kept))]
        _kept[key] = tables


def _core(terms, torus, one):
    """Terms {(key_1, ..., key_n): Element} as the array core[k_1..k_n] of
    the term with key_h = keys[h][k_h], and keys; the zero function keeps
    the key one of the monomial 1, so that no axis is empty."""
    import numpy as np
    keys = [sorted({key[h] for key in terms}) or [one]
            for h in range(torus.n)]
    index = [{key: k for k, key in enumerate(row)} for row in keys]
    core = np.zeros(tuple(map(len, keys)) + (torus.algebra.dim,))
    for key, a in terms.items():
        core[tuple(ix[k] for ix, k in zip(index, key))] = a.coeffs
    return core, keys


def _polynomial_on_grid(f, torus, tables):
    """f(xi) in product form, f an OrderedPolynomial, without J.

    On the slice x^l a = z^l a, z^l = prod_h z_h^l_h a complex number c,
    and c a = Re(c) a + Im(c) J a is formed by the unit stage of
    _reconstruct (J(Ja) = (JJ)a = -a, so such values multiply as complex
    numbers).  Returns the core of the a_l, axis h over the distinct
    degrees of variable h, and per circle the complex (A_h, N) table of z^d.
    The powers are running products, z^d = z z^(d-1), so z^d carries at
    most d - 1 complex roundings, as _error_bound counts them.
    """
    import numpy as np
    core, degrees = _core(f.terms, torus, 0)
    z = tables.z
    powers = np.empty((max(map(max, degrees)) + 1,) + z.shape, complex)
    powers[0] = 1.0
    for d in range(1, len(powers)):
        np.multiply(powers[d - 1], z, out=powers[d])
    return (lambda zs: core), [powers[degrees[h], c] for c, h in
                               enumerate(tables.var.tolist())]


def _stem_on_grid(f, torus, tables):
    """f(xi) in product form from f.on_slice(J), f a StemPoly.

    f(xi) = sum_k core[k_1..k_n] prod_h alpha_h^a beta_h^b with (a, b) the
    k_h-th of the distinct exponent pairs of variable h.  Returns the core
    and per circle the real (A_h, N) table of alpha^a beta^b.
    """
    import numpy as np
    core, pairs = _core({tuple(zip(exp[::2], exp[1::2])): c
                         for exp, c in f.on_slice(torus.J).items()},
                        torus, (0, 0))
    pairs = [np.array(row).T[..., None] for row in pairs]
    return (lambda zs: core), [z.real ** pairs[h][0] * z.imag ** pairs[h][1]
                               for z, h in zip(tables.z, tables.var.tolist())]


def _callable_on_grid(f, torus, zs):
    """f(xi) on every grid node of the (n, N) nodes zs, one call per node."""
    import numpy as np
    algebra, J = torus.algebra, torus.J
    flip = -1 * J
    # per circle its alphas, betas and units, as SlicePoint would turn them
    circles = [tuple(zip(*((w.real, -w.imag, flip) if w.imag < 0 else
                           (w.real, w.imag, J) for w in z.tolist())))
               for z in zs]

    def coefficients():
        for point in zip(*map(itertools.product, *circles)):
            v = f(SlicePoint(algebra, *point))
            if not (isinstance(v, Element) and v.algebra == algebra):
                raise AlgebraMismatch(f"the callable must return Elements "
                                      f"of {algebra.kind}: {v!r}")
            yield from v.coeffs

    shape = tuple(map(len, zs)) + (algebra.dim,)
    values = np.fromiter(coefficients(), float, math.prod(shape))
    return values.reshape(shape)


def cauchy_reconstruct(f, torus, x):
    """Average the integrand over the angle torus; value plus diagnostics.

    f is an OrderedPolynomial, a StemPoly, or a callable taking a
    SlicePoint to an Element; a polynomial or stem must have the torus's
    number of variables and algebra.  Every unit of x must square to -1
    within DEFAULT_TOL (NotImaginaryUnit otherwise), since the kernel's
    factors are complex numbers in each unit.  The input only supplies
    boundary values in product form (_reconstruct).  A polynomial of
    degree d_h >= N in some variable h raises QuadratureAliasing before any
    quadrature: its trapezoid sums alias.  Diagnostics report the sample
    count, the worst kernel conditioning, error_estimate = |Q_N - Q_{N/2}|
    (None for odd N, and for a polynomial of degree d_h >= N/2 in some
    variable, which the N/2 subgrid aliases), and by input kind: for a
    polynomial error_bound, a proven bound on |Q_N - f(x)| (_error_bound,
    no evaluation of f); for a stem, which need not be slice regular, its
    slice_eval value as reference and the disagreement |Q_N - reference|;
    for a callable nothing more.
    """
    import numpy as np
    n = torus.n
    boundary_values = _input_kind(f)
    if isinstance(f, (OrderedPolynomial, StemPoly)):
        if f.n != n:
            raise AlgebraMismatch(f"{type(f).__name__} has {f.n} variables, "
                                  f"torus has {n}")
        if f.algebra != torus.algebra:
            raise AlgebraMismatch(f"{type(f).__name__} over "
                                  f"{f.algebra.kind}, torus over "
                                  f"{torus.algebra.kind}")
    if x.n != n:
        raise AlgebraMismatch(f"point has {x.n} variables, torus has {n}")
    N = torus.samples_per_circle
    subgrid_aliases = False
    if isinstance(f, OrderedPolynomial):
        degrees = [max(col) for col in zip(*f.terms)] or [0] * n
        for h, d in enumerate(degrees, start=1):
            if N <= d:
                raise QuadratureAliasing(
                    f"variable {h} has degree {d}, and N = {N} samples per "
                    f"circle alias it; N must exceed {d}")
        subgrid_aliases = 2 * max(degrees) >= N
    if not torus.contains_point(x):
        raise PointOutsideE(
            "reconstruction point must lie inside the circularized domain")
    try:
        with np.errstate(over="raise", invalid="raise"):
            (value, *half), cond = _reconstruct(boundary_values, torus, x)
    except FloatingPointError as exc:
        raise HypersliceError(
            f"quadrature arithmetic leaves the float range: {exc}") from None
    diagnostics = {
        "N": N,
        "grid_points": N ** n * len(torus.combos()),
        "min_abs_delta": cond.min_delta,
        "max_inv_delta": 1.0 / cond.min_delta,
        "error_estimate": (float((value - half[0]).euclid_norm())
                           if half and not subgrid_aliases else None),
    }
    if isinstance(f, OrderedPolynomial):
        try:
            diagnostics["error_bound"] = _error_bound(f, torus, x, degrees,
                                                      cond)
        except OverflowError:  # a power past the float range: no bound
            diagnostics["error_bound"] = math.inf
    elif isinstance(f, StemPoly):
        reference = slice_eval(f, x)
        diagnostics["disagreement"] = float((value - reference).euclid_norm())
        diagnostics["reference"] = reference
    return value, diagnostics


_U = 2.0 ** -53  # unit roundoff of float64
_UP = 1 + 2.0 ** -50  # q_c raised past its own rounding
_SQRT2 = math.sqrt(2)


def _unit_norms(unit):
    """(|u_i| as floats, ||u||_1, kappa) of a unit, kappa bounding
    ||p + q u|| by kappa |p + i q| for real p, q: the root of
    max(1, ||u||^2) + |u_0| bounds the largest eigenvalue of the Gram
    matrix [[1, u_0], [u_0, ||u||^2]] of (1, u) (Gershgorin)."""
    coeffs = list(map(abs, map(float, unit.coeffs)))
    norm = math.hypot(*coeffs)
    return coeffs, sum(coeffs), math.sqrt(max(1.0, norm * norm) + coeffs[0])


_CONSTANTS = {}


def _table_constants(algebra):
    """(B, B_abs, positive), cached per algebra: norm_constant,
    count_constant, and, for an associative table whose rows are signed
    permutations and whose basis elements square to +-1 (Clifford tables),
    the i with e_i e_i = +1; positive is None for any other table."""
    if algebra not in _CONSTANTS:
        dim = algebra.dim
        signed = algebra.associative and all(
            algebra.mul_index[i][i] == 0 and sorted(row) == list(range(dim))
            for i, row in enumerate(algebra.mul_index))
        positive = (tuple(i for i in range(dim)
                          if algebra.mul_sign[i][i] == 1)
                    if signed else None)
        _CONSTANTS[algebra] = (norm_constant(algebra),
                               count_constant(algebra), positive)
    return _CONSTANTS[algebra]


def _error_bound(f, torus, x, degrees, cond):
    """A proven bound on |Q_N - f(x)| for an OrderedPolynomial f with every
    degree d_h below N: the truncation of the trapezoid rule in exact
    arithmetic, plus the rounding of the float computation.

    Truncation.  Take one variable, w = alpha + i beta its coordinate and a
    circle (c, r, o).  If |w - c| < r, then r e^{it}/(z - w) =
    sum_m rho^m e^{-imt} with rho = (w - c)/r, and z^d = (c + r e^{it})^d
    has the frequencies 0..d < N; the N-node mean of z^d r e^{it}/(z - w)
    keeps the m = j + kN, k >= 0, and sums to w^d/(1 - rho^N).  If
    |w - c| > r, with sigma = r/(w - c) it sums to -w^d sigma^N/(1 -
    sigma^N), where the integral is 0.  With the orientations, the circles
    winding once around w (BoundaryTorus.contains_z), the rule returns
    G(w) = w^d (1 + E(w)), |E| <= eps_h = sum_c q_c^N/(1 - q_c^N), q_c =
    |rho| or |sigma| (Trefethen & Weideman, SIAM Review 56, 2014).  The
    engine reads variable h's kernel factor in its unit u_h and J only in
    the unit stage; splitting its bicomplex sums by the idempotents
    (1 -+ i u)/2 gives the rule at w and at conj(w), where G(conj w) =
    conj(G(w)).  So the J parts cancel, variable h contributes the left
    factor y_h = Re G(w_h) + Im G(w_h) u_h, and a monomial becomes
    y_1(...(y_n a_l)), against the exact x_1(...(x_1(x_2(...a_l)))).  Let
    left multiplication L by any p + q u_h have norm <= omega_h |p + iq|:
      - H and O compose norms: omega = kappa (_unit_norms);
      - Clifford tables (_table_constants): L_y^T L_y = L_{y~ y} with
        y~ = p - q u + 2 q u+, u+ the part of u on basis elements squaring
        to +1, so with e = u u + 1 and ||L_z|| <= ||z||_1, omega^2 = 1 +
        ||e||_1 + ||u+||_1 (1 + 2 ||u||_1), 1 for exact units of Cl(0, n);
      - other associative tables: omega = B kappa, B = norm_constant.
    With P_d = Re w^d + Im w^d u, x P_d = P_{d+1} + beta Im(w^d) e, so d
    left multiplications by x differ from L_{P_d} by at most
    d mu omega^(d-1) |w|^d, mu >= ||L_e|| (||e||_1, or B ||e||_1 on other
    tables).  x(xv) = (xx)v needs an alternative algebra: an associative
    table or O's; any other table gets inf.  Expanding the differences
    factor by factor against prod_h (omega_h |w_h|)^{l_h}, with nu_h =
    d_h mu_h (omega_h eps_h covers the l_h = 0 factors),
        T = sum_l ||a_l|| prod_h (omega_h |w_h|)^{l_h}
            (prod_h (1 + omega_h eps_h)(1 + nu_h) - 1),
    which for exact units on H and O is sum_l ||a_l|| prod_h
    |w_h|^{l_h} (prod_h (1 + eps_h) - 1).

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, ch. 3).  With at most k roundings in each term of a sum of
    products, the error is at most gamma_k = ku/(1 - ku) times the same
    computation on absolute values.  The rule weight of node t of circle
    c, o r e^{it} (part_b(1/Delta) conj(z) - part_b(w/Delta)), is at most
    sqrt(2) r (rho_c + |w|)/|Delta_t| over its two parts b, |z| <= rho_c
    = |c| + r; so variable h weighs at most W_h = sum_c sqrt(2) r_c
    (rho_c + |w_h|) mean_t 1/|Delta_t|, the l1 norm of its rule weights.
    Products on absolute values grow by at most B_abs = count_constant,
    a unit stage by B_abs kappa, and F =
    sum_l ||a_l|| prod_h rho_h^{l_h} bounds f on the torus, so
        R = gamma_k (1 + B_abs kappa_J) prod_h (B_abs kappa_h W_h) F.
    k counts per variable N + d_h + 1 for the sums over the nodes and the
    degrees; 33 d_h for the running powers z^d (one complex product each,
    under 3u), the node's effect on z^d and the inputs read as floats;
    32 (rho_h + |w_h|)^2/min|Delta| for the node's effect on the kernel and
    Delta (numpy's exp taken within 2 ulp and the angle within 3.5u move z
    by 22 u rho, the kernel by that over |z - w| >= |Delta|/(rho + |w|),
    Delta by 4u (rho + |w|)^2); 64 for the other products and quotients of
    the weights; then one per circle combination, dim + 1 per unit stage
    and 8 for the scaling.  The computed u u + 1 is off by at most
    gamma_{2 dim + 1} (||u||_1^2 + dim) in l1, so ||e||_1 is at most dim
    times its largest computed coordinate plus that.  The bound is T + R,
    raised by 2^-30 for its own float evaluation (q_c by 2^-50 before its
    N-th power, eps_h by 4u/(1 - q_c^N)); inf when it leaves the float
    range or q_c reaches 1.
    """
    algebra = torus.algebra
    N, n, dim = torus.samples_per_circle, torus.n, algebra.dim
    B, B_abs, positive = _table_constants(algebra)
    if not algebra.associative and B != 1:
        return math.inf  # a table that may not be alternative
    gamma_e = (2 * dim + 1) * _U / (1 - (2 * dim + 1) * _U)
    trunc = 0.0  # prod_h (1 + omega_h eps_h)(1 + nu_h) - 1, no cancellation
    absolute = 1 + B_abs * _unit_norms(torus.J)[2]  # on |.|, F aside
    k = 8 + (n + 1) * (dim + 1) + math.prod(map(len, torus.circles))
    scaled, outer = [], []
    sums = iter(cond.inv_delta_sums)
    for circles, a, b, unit, d, err in zip(torus.circles, x.alphas, x.betas,
                                           x.units, degrees,
                                           cond.unit_errors):
        w = complex(a, b)
        modulus = abs(w)
        eps = weight = rho = 0.0
        for (center, radius, _), inv_sum in zip(circles, sums):
            dist = abs(w - center)
            q = (dist / radius if dist < radius else radius / dist) * _UP
            t = q ** N
            eps += t / (1 - t) * (1 + 4 * _U / (1 - t)) if t < 1 else math.inf
            rho_c = abs(center) + radius
            rho = max(rho, rho_c)
            weight += radius * (rho_c + modulus) * inv_sum
        coeffs, l1, kappa = _unit_norms(unit)
        mu = dim * err + gamma_e * (l1 * l1 + dim)
        if B == 1:
            omega = kappa
        elif positive is not None:
            plus = sum(coeffs[i] for i in positive)
            omega = math.sqrt(1 + mu + plus * (1 + 2 * l1))
        else:
            mu, omega = B * mu, B * kappa
        eps *= omega
        step = eps + d * mu + eps * d * mu
        trunc += step + trunc * step
        k += N + 34 * d + 65 + 32 * (rho + modulus) ** 2 / cond.min_delta
        absolute *= B_abs * kappa * _SQRT2 * weight / N
        scaled.append(omega * modulus)
        outer.append(rho)
    lead = size = 0.0
    for ell, a in f.terms.items():
        p = q = a.euclid_norm()
        for e, s, r in zip(ell, scaled, outer):
            if e:
                p *= s ** e
                q *= r ** e
        lead += p
        size += q
    gamma = k * _U / (1 - k * _U) if k * _U < 1 else math.inf
    bound = (lead * trunc + gamma * absolute * size) * (1 + 2 ** -30)
    # nan (inf times 0) reads as no bound
    return bound if bound < math.inf else math.inf


class _Conditioning(NamedTuple):
    """What _reconstruct reports besides the values."""

    min_delta: float       # min |Delta| over the grid
    unit_errors: list      # per unit of x, the largest coordinate of uu + 1
    inv_delta_sums: list   # per circle, the sum of 1/|Delta| over the nodes


def _reconstruct(boundary_values, torus, x):
    """The subset-expanded integrand summed over the grid, one axis at a time.

    Each left factor a + b u_h of the integrand splits into its real and
    u_h parts, so the integrand is a sum over the 2^(n+1) unit words
    u_1^b1(...(u_n^bn(J^b0 f))) with real weights.  Summed over the subsets
    K, the weight of a word factors per variable: it is
    Re((-i)^n e_b0 prod_h P_h,b_h(t_h)) with e_0 = 1, e_1 = -i and
    P_h,b = o r i e^{it} (part_b(1/Delta_h) conj(z) - part_b(w_h/Delta_h))
    on each circle (z = c + r e^{it}, w_h the complex coordinate of x,
    part_0 = Re, part_1 = Im).

    What depends on neither x nor f (nodes, 2 Re z, |z|^2, conj(z), rule
    weights times o r i e^{it}) comes from _Tables, kept per (circles, N)
    by a cold call that succeeded.  boundary_values(torus, tables) runs
    once, after the pole guard and the unit check, and returns (core, V):
    f = sum_k core(zs)[k_1..k_n] prod_h V[c_h][k_h, t_h] on the nodes zs
    of circles c_1..c_n, V[c] the real or complex table of circle c (a
    complex c times a coefficient a is Re(c) a + Im(c) J a, formed by the
    unit stage), or V None and core(zs) f on the nodes.  Axis h is one
    batched matmul against V[c] P, so no product is larger than 4 x N;
    the first axis takes the weights as real rows for the real core.  For
    even N the N/2 subgrid rule (odd nodes zeroed, even doubled) rides
    along: returns ([Q_N] or [Q_N, Q_{N/2}], _Conditioning).
    """
    import numpy as np
    algebra = torus.algebra
    n = torus.n
    N = torus.samples_per_circle
    # L(u) = sum_i u_i M[i] for the units of x and J, in one product
    M = algebra.dense_tensor()
    Ls = (np.array([u.coeffs for u in (*x.units, torus.J)], float)
          @ M.reshape(len(M), -1)).reshape(-1, *M.shape[1:])
    # row 0 of L(u) is u, so row 0 of L(u) L(u) is u u
    squares = (Ls[:n, :1] @ Ls[:n])[:, 0]
    squares[:, 0] += 1.0
    unit_errors = np.abs(squares).max(axis=1).tolist()
    for u, err in zip(x.units, unit_errors):
        if err > DEFAULT_TOL:
            raise NotImaginaryUnit(
                f"point unit {u!r} squares to -1 only within {err:.2e}")
    key = (torus.circles, N)
    tables = _kept.get(key)
    cold = tables is None
    if cold:
        tables = _build_tables(*key)
    w = np.array([complex(float(a), float(b)) for a, b in x.z()])
    w = w[tables.var, None]
    delta = w * w - tables.two_re * w + tables.sq
    abs_delta = np.abs(delta)
    min_delta = float(abs_delta.min())
    if min_delta < MIN_DELTA:
        raise QuadratureSingularity(
            f"grid approaches a pole sphere: min |Delta| = "
            f"{min_delta:.2e} < {MIN_DELTA}")
    inv = 1.0 / delta
    # P[c, rule, node, b], from the (Re, Im) pairs of 1/Delta and w/Delta
    C = len(delta)
    P = tables.vel * (inv.view(float).reshape(C, 1, N, 2) * tables.zc
                      - (w * inv).view(float).reshape(C, 1, N, 2))
    core, V = boundary_values(torus, tables)
    # per circle, the (rule, monomial or node, b) weights of its axis
    W = P if V is None else [v @ p for v, p in zip(V, P)]
    # S[rule, dim, b_1, ..., b_n] = sum over the grid of prod_h P_h,b_h f,
    # each axis contracted off the front, its b appended at the back
    S = 0
    for combo in itertools.product(*tables.rows):
        s = core(tables.z[list(combo)])[None]
        for h, c in enumerate(combo):
            s = s.reshape(len(s), W[c].shape[-2], -1).swapaxes(1, 2)
            # real rows (Re W_0, Im W_0, Re W_1, Im W_1) for the real core;
            # the product's column pairs are then complex numbers
            s = s @ W[c] if h else (s @ W[c].view(float)).view(complex)
        S = S + s
    # v = Re + J Im, then u_1(...(u_n v)) summed over the bits, innermost
    # variable first, through the left-multiplication matrices
    T = S.reshape(len(S), algebra.dim, -1) * ((-1j) ** n / N ** n)
    T = T.real + Ls[n].T @ T.imag
    for L in Ls[n - 1::-1]:
        T = T[..., ::2] + L.T @ T[..., 1::2]
    if cold:
        _keep(key, tables)
    cond = _Conditioning(min_delta, unit_errors,
                         (1.0 / abs_delta).sum(axis=1).tolist())
    return [algebra.element(t.tolist()) for t in T[..., 0]], cond
