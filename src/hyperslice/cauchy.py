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
its boundary values in product form: a polynomial or stem as its
coefficients on the slice (a polynomial expanded there binomially, without
its stem) and the exponents of its monomials per variable, which the
engine evaluates on each circle, so no N^n grid is formed, and a callable
as its values on every node, one call per node.  Each circle's nodes are
turned into (alpha, beta >= 0, J or -J) once, so all nodes share two unit
Elements and the table rows those keep.  What depends only on the circles
and N (the nodes, the rule weights, the powers of Re z and Im z) is kept
between calls as read-only arrays, at most 16 MiB in all, oldest dropped
first; a call computes only what depends on the point.  poly_eval or
slice_eval gives the direct reference.  slice_cauchy_kernel is the
closed-form kernel of associative algebras at one point.  The pointwise
integrand in exact Element arithmetic, the oracle the engine is tested
against, and the symbolic proof that the closed-form kernel is slice
regular live in tests/oracles.py.
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
    QuadratureSingularity,
)
from .regularity import OrderedPolynomial, poly_eval
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
        """Winding test in variable h; the region is even-odd by orientation."""
        z = complex(alpha, abs(beta))
        winding = sum(c.orientation for c in self.circles[h - 1]
                      if abs(z - c.center) < c.radius)
        return winding >= 1

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


def _direct_eval(f):
    """SlicePoint -> f(point) without quadrature; None for a callable f."""
    if isinstance(f, OrderedPolynomial):
        return partial(poly_eval, f)
    if isinstance(f, StemPoly):
        return partial(slice_eval, f)
    return None


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
    the point; R is 1 rule for odd N, 2 (the N/2 subgrid rule too) for
    even N.  The arrays are read-only, so that calls can share them; a
    call that needs higher powers makes new _Tables with _replace."""

    rows: tuple     # rows[h]: the indices of the circles of variable h
    var: object     # (C,) the variable of each circle
    z: object       # (C, N) nodes c + r e^{it}
    two_re: object  # (C, N) 2 Re z
    sq: object      # (C, N) |z|^2
    zc: object      # (C, 1, N, 1) conj(z)
    vel: object     # (C, R, N, 1) rule weight times o r i e^{it}
    powers: object = None  # (C, N, 2, D) (Re z)^d and (Im z)^d, d < D

    @property
    def nbytes(self):
        return sum(a.nbytes for a in self[1:] if a is not None)


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
        if a is not None:
            a.setflags(write=False)
    return tables


def _powers(z, deg):
    """(Re z)^d and (Im z)^d for d < deg, as (circle, node, re/im, d)."""
    import numpy as np
    V = np.vander(z.view(float).ravel(), deg,
                  increasing=True).reshape(*z.shape, 2, deg)
    V.setflags(write=False)
    return V


# tables of recent (circles, N) keys, oldest first, at most _KEPT_BYTES in
# all; stored only by a call that succeeded, so a refused one keeps nothing
_KEPT_BYTES = 2 ** 24
_kept = {}
_kept_lock = threading.Lock()


def _keep(key, tables):
    """Store tables under key in place of older ones, dropping the oldest
    kept tables to stay within _KEPT_BYTES; larger ones are not kept."""
    size = tables.nbytes
    with _kept_lock:
        if _kept.get(key) is tables or size > _KEPT_BYTES:
            return
        _kept.pop(key, None)
        while sum(t.nbytes for t in _kept.values()) + size > _KEPT_BYTES:
            del _kept[next(iter(_kept))]
        _kept[key] = tables


def _stem_on_grid(f, torus, zs):
    """f(xi) in product form from f.on_slice(J), f a polynomial or a stem.

    f(xi) = sum_k core[k_1..k_n] prod_h alpha_h^a beta_h^b with (a, b) the
    k_h-th of the distinct exponent pairs of variable h, returned with the
    (A_1, ..., A_n, dim) core of coefficients; the nodes zs are not needed.
    """
    import numpy as np
    terms = f.on_slice(torus.J)
    # the zero function keeps the monomial 1, so that no axis is empty
    pairs = [sorted({exp[2 * h:2 * h + 2] for exp in terms}) or [(0, 0)]
             for h in range(torus.n)]
    index = [{ab: k for k, ab in enumerate(row)} for row in pairs]
    core = np.zeros(tuple(map(len, pairs)) + (torus.algebra.dim,))
    for exp, coeff in terms.items():
        k = tuple(ix[exp[2 * h:2 * h + 2]] for h, ix in enumerate(index))
        core[k] = coeff.coeffs
    return core, pairs


def _callable_on_grid(f, torus, zs):
    """f(xi) on every grid node, one call per node; no exponents."""
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
    return values.reshape(shape), None


def cauchy_reconstruct(f, torus, x):
    """Average the integrand over the angle torus; value plus diagnostics.

    f is an OrderedPolynomial, a StemPoly, or a callable taking a
    SlicePoint to an Element; a polynomial or stem must have the torus's
    number of variables.  Every unit of x must square to -1 within
    DEFAULT_TOL (NotImaginaryUnit otherwise), since the kernel's factors
    are complex numbers in each unit.  The input only supplies boundary
    values in product form (_reconstruct): a polynomial or stem as a small
    core and the exponents of its monomials per variable, expanded on the
    slice (a polynomial without forming its stem), a callable as its value
    at every node.  Diagnostics report the sample count, the worst kernel
    conditioning, error_estimate = |Q_N - Q_{N/2}| (None for odd N), and,
    for polynomial and stem inputs, the direct value as reference (an
    Element: poly_eval for a polynomial, slice_eval for a stem) and the
    disagreement against it.
    """
    import numpy as np
    n = torus.n
    direct = _direct_eval(f)
    if direct is not None and f.n != n:
        raise AlgebraMismatch(f"{type(f).__name__} has {f.n} variables, "
                              f"torus has {n}")
    if x.n != n:
        raise AlgebraMismatch(f"point has {x.n} variables, torus has {n}")
    if not torus.contains_point(x):
        raise PointOutsideE(
            "reconstruction point must lie inside the circularized domain")
    N = torus.samples_per_circle
    boundary_values = partial(
        _callable_on_grid if direct is None else _stem_on_grid, f)
    try:
        with np.errstate(over="raise", invalid="raise"):
            (value, *half), min_delta = _reconstruct(boundary_values, torus, x)
    except FloatingPointError as exc:
        raise HypersliceError(
            f"quadrature arithmetic leaves the float range: {exc}") from None
    diagnostics = {
        "N": N,
        "grid_points": N ** n * len(torus.combos()),
        "min_abs_delta": float(min_delta),
        "max_inv_delta": float(1.0 / min_delta),
        "error_estimate": (float((value - half[0]).euclid_norm()) if half
                           else None),
    }
    if direct is not None:
        reference = direct(x)
        diagnostics["disagreement"] = float((value - reference).euclid_norm())
        diagnostics["reference"] = reference
    return value, diagnostics


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

    What does not depend on x (nodes, 2 Re z, |z|^2, conj(z), the rule
    weights times o r i e^{it}, powers of Re z and Im z) comes from
    _Tables, kept per (circles, N) once a call with them has succeeded; a
    call computes Delta, the pole guard and P.  boundary_values(torus, zs)
    gets the (n, N) nodes of one circle per variable, only after the
    pole-sphere guard and the unit check have passed, and returns (core,
    exponents): f(t) = sum_k core[k_1..k_n] prod_h V_h[t_h, k_h], V_h[t, k]
    = (Re z)^a (Im z)^b for the k-th pair (a, b) of exponents[h], or
    exponents None and V_h the identity (core is f on the nodes).  Axis h
    is contracted by one batched matmul against P V_h, so no product is
    larger than 4 x N; the first axis takes P as real rows, so real
    boundary values are never cast to complex.  For even N the N/2
    subgrid rule (odd nodes zeroed, even doubled) rides along: returns
    ([Q_N] or [Q_N, Q_{N/2}], min |Delta|).
    """
    import numpy as np
    algebra = torus.algebra
    n = torus.n
    N = torus.samples_per_circle
    # row 0 of L(u) is u, so row 0 of L(u) L(u) is u u
    Ls = np.array([algebra.left_mult_matrix(u) for u in x.units])
    squares = (Ls[:, :1] @ Ls)[:, 0]
    squares[:, 0] += 1.0
    for u, err in zip(x.units, np.abs(squares).max(axis=1)):
        if err > DEFAULT_TOL:
            raise NotImaginaryUnit(
                f"point unit {u!r} squares to -1 only within {err:.2e}")
    key = (torus.circles, N)
    tables = _kept.get(key)
    if tables is None:
        tables = _build_tables(*key)
    w = np.array([complex(float(a), float(b)) for a, b in x.z()])
    w = w[tables.var, None]
    delta = w * w - tables.two_re * w + tables.sq
    min_delta = float(np.abs(delta).min())
    if min_delta < MIN_DELTA:
        raise QuadratureSingularity(
            f"grid approaches a pole sphere: min |Delta| = "
            f"{min_delta:.2e} < {MIN_DELTA}")
    inv = 1.0 / delta
    # P[c, rule, node, b], from the (Re, Im) pairs of 1/Delta and w/Delta
    C = len(delta)
    P = tables.vel * (inv.view(float).reshape(C, 1, N, 2) * tables.zc
                      - (w * inv).view(float).reshape(C, 1, N, 2))
    # S[rule, dim, b_1, ..., b_n] = sum over the grid of prod_h P_h,b_h f,
    # each axis contracted off the front, its b appended at the back
    S = 0
    for combo in itertools.product(*tables.rows):
        core, exponents = boundary_values(torus, tables.z[list(combo)])
        if exponents is not None:
            deg = 1 + max(d for row in exponents for ab in row for d in ab)
            if tables.powers is None or tables.powers.shape[-1] < deg:
                tables = tables._replace(powers=_powers(tables.z, deg))
        s = core[None]
        for h, c in enumerate(combo):
            # real rows (Re P_0, Im P_0, Re P_1, Im P_1) for the real core;
            # the product's column pairs are then complex numbers
            weights = P[c] if h else P[c].view(float)
            if exponents is not None:
                v = tables.powers[c]
                V = (v[:, 0, [a for a, _ in exponents[h]]]
                     * v[:, 1, [b for _, b in exponents[h]]])
                weights = V.T @ weights
            s = s.reshape(len(s), weights.shape[-2], -1).swapaxes(1, 2)
            s = s @ weights
            if not h:
                s = s.view(complex)
        S = S + s
    # v = Re + J Im, then u_1(...(u_n v)) summed over the bits, innermost
    # variable first, through the left-multiplication matrices
    T = S.reshape(len(S), algebra.dim, -1) * ((-1j) ** n / N ** n)
    T = T.real + algebra.left_mult_matrix(torus.J).T @ T.imag
    for L in Ls[::-1]:
        T = T[..., ::2] + L.T @ T[..., 1::2]
    _keep(key, tables)
    return [algebra.element(t.tolist()) for t in T[..., 0]], min_delta
