"""Cauchy kernels and reconstruction on products of discs and annuli.

The boundary torus is a product of real-centered circles on one slice,
parametrized by xi_h(t) = c_h + r_h e^{Jt}.  Reconstruction integrates the
non-associative integrand over the angle torus with the tensor trapezoid
rule.  On the slice every kernel factor is a complex number a + b u_h, so
the integrand is a sum of unit words u_1^b1(...(u_n^bn(J^b0 f))) with real
weights, and each weight is the real part of a product of one-variable
factors.  The grid sum therefore contracts the boundary values of f one
angle axis at a time with those factors, and the units act once per word
in Element arithmetic.  The function only supplies its boundary values on
the grid: a polynomial or stem is evaluated on all nodes at once, a
callable once per node, and one array kernel serves both.  The pointwise
integrand (cauchy_integrand) stays in exact Element arithmetic; summed
over the same grid it is the oracle for that kernel.
"""

import itertools
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import sparse
from .algebra import DEFAULT_TOL, invert, norm_sq, ordered_product, trace
from .errors import (
    AlgebraMismatch,
    HypersliceError,
    NonAssociativeAlgebra,
    NotInQuadraticCone,
    OnSingularSphere,
    PointOutsideE,
    QuadratureSingularity,
)
from .regularity import OrderedPolynomial, poly_to_stem
from .slicefun import SlicePoint, slice_eval
from .stems import StemPoly, stem_product, sigma_tensor

MIN_DELTA = 1e-3


def char_poly(q, p, tol=DEFAULT_TOL):
    """Delta_q(p) = p^2 - 2 Re(q) p + n(q); zero exactly on the sphere of q."""
    t = trace(q)
    nq = norm_sq(q)
    if not t.is_real(tol) or not nq.is_real(tol):
        raise NotInQuadraticCone(
            "the sphere parameter needs real trace and norm")
    return p * p - p * t.real_coeff() + p.algebra.from_real(nq.real_coeff())


def cauchy_kernel_1var(x, y, tol=DEFAULT_TOL):
    """Delta_y(x)^{-1} (y^c - x); the slice-regular reciprocal of x - y."""
    delta = char_poly(y, x)
    if delta.euclid_norm() < MIN_DELTA:
        raise OnSingularSphere(
            f"point lies on or near the sphere of the pole "
            f"(|Delta| = {delta.euclid_norm():.2e})")
    return invert(delta, tol) * (y.conj() - x)


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
                if c.radius <= 0:
                    raise AlgebraMismatch("circle radius must be positive")
                if c.orientation not in (1, -1):
                    raise AlgebraMismatch("orientation must be +1 or -1")
                row.append(c)
            if not row:
                raise AlgebraMismatch("each variable needs at least one circle")
            norm_circles.append(tuple(row))
        self.circles = tuple(norm_circles)
        self.J = J if J is not None else algebra.default_imaginary_unit()
        if samples_per_circle < 1:
            raise HypersliceError(
                f"samples_per_circle must be at least 1, "
                f"got {samples_per_circle}")
        self.samples_per_circle = samples_per_circle

    @classmethod
    def discs(cls, algebra, radii, centers=None, J=None,
              samples_per_circle=64):
        centers = centers or [0.0] * len(radii)
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

    def boundary_value(self, combo, angles):
        """xi(t) for one circle choice, as complex numbers on the slice."""
        return [c.center + c.radius * complex(math.cos(t), math.sin(t))
                for c, t in zip(combo, angles)]


class KernelPoint:
    """Validated (x, y) pairing: every coordinate off the pole spheres."""

    def __init__(self, x, ys, tol=DEFAULT_TOL):
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


def _complex_on_slice(algebra, w, J):
    return algebra.from_real(w.real) + w.imag * J


def _as_stem(f):
    if isinstance(f, OrderedPolynomial):
        return poly_to_stem(f)
    if isinstance(f, StemPoly):
        return f
    return None


def _boundary_function(f):
    stem = _as_stem(f)
    if stem is not None:
        return lambda point: slice_eval(stem, point)
    return f


def cauchy_integrand(f, x, t, torus, tol=DEFAULT_TOL):
    """The subset-expanded integrand at one angle tuple, exact Elements.

    Sums over all circle choices of the torus.  Each subset K contributes
    sign (-1)^(n-|K|), per-variable factors Delta^{-1} (h in K) or
    Delta^{-1} x_h (h outside K), and the right factor built from the
    conjugated boundary coordinates over K, the velocity product, the
    J power, and the boundary value of f.
    """
    algebra = torus.algebra
    n = torus.n
    if x.n != n:
        raise AlgebraMismatch(f"point has {x.n} variables, torus has {n}")
    J = torus.J
    fn = _boundary_function(f)
    total = algebra.zero()
    for combo, orient in torus.combos():
        zs = torus.boundary_value(combo, t)
        point = SlicePoint(algebra, [w.real for w in zs],
                           [w.imag for w in zs], [J] * n)
        fval = fn(point)
        # velocity product and J^{-n}, all complex on the slice
        vel = 1 + 0j
        for c, ang in zip(combo, t):
            vel *= c.radius * complex(-math.sin(ang), math.cos(ang))
        jpow = (-1j) ** n
        xs = [x.element(h) for h in range(1, n + 1)]
        deltas = []
        for h in range(n):
            d = char_poly(_complex_on_slice(algebra, zs[h], J), xs[h])
            if d.euclid_norm() < MIN_DELTA:
                raise OnSingularSphere(
                    f"boundary angle hits the sphere of variable {h + 1}")
            deltas.append(invert(d, tol))
        for kmask in range(1 << n):
            sign = (-1) ** (n - bin(kmask).count("1"))
            q = complex(sign, 0) * vel * jpow
            for h in range(n):
                if kmask >> h & 1:
                    q *= zs[h].conjugate()
            v = _complex_on_slice(algebra, q, J) * fval
            factors = [deltas[h] if kmask >> h & 1 else deltas[h] * xs[h]
                       for h in range(n)]
            total = total + orient * ordered_product(factors, v)
    return total


def cauchy_integrand_product_form(f, x, t, torus, tol=DEFAULT_TOL):
    """Nested one-variable kernels; valid when x lies inside the domain."""
    algebra = torus.algebra
    n = torus.n
    J = torus.J
    fn = _boundary_function(f)
    total = algebra.zero()
    for combo, orient in torus.combos():
        zs = torus.boundary_value(combo, t)
        point = SlicePoint(algebra, [w.real for w in zs],
                           [w.imag for w in zs], [J] * n)
        vel = 1 + 0j
        for c, ang in zip(combo, t):
            vel *= c.radius * complex(-math.sin(ang), math.cos(ang))
        q = vel * (-1j) ** n
        v = _complex_on_slice(algebra, q, J) * fn(point)
        kernels = [cauchy_kernel_1var(x.element(h + 1),
                                      _complex_on_slice(algebra, zs[h], J),
                                      tol)
                   for h in range(n)]
        total = total + orient * ordered_product(kernels, v)
    return total


def slice_cauchy_kernel(x, ys, tol=DEFAULT_TOL):
    """Closed-form kernel for associative algebras.

    ys are slice elements with real trace and norm (poles); the kernel is
    the unique slice regular function of x restoring f from boundary data.
    """
    algebra = x.algebra
    if not algebra.associative:
        raise NonAssociativeAlgebra(
            "the closed-form kernel needs an associative algebra; use the "
            "subset-expanded integrand instead")
    kp = KernelPoint(x, ys, tol)
    n = x.n
    xs = [x.element(h) for h in range(1, n + 1)]
    inv = [invert(d, tol) for d in kp.deltas]
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


def _stem_on_grid(stem, torus, zs):
    """f(xi) over the grid, where f is one polynomial: StemPoly.on_slice(J).

    Its monomial values (G x T) times its T coefficients (T x dim).
    """
    G = zs[0].shape[0]
    terms = [(exp, coeff.coeffs_float())
             for exp, coeff in stem.on_slice(torus.J).items()]
    # per-coordinate power tables up to the needed degree
    coords = [part for z in zs for part in (z.real, z.imag)]
    pows = []
    for v, coord in enumerate(coords):
        table = [np.ones(G)]
        for _ in range(max((exp[v] for exp, _ in terms), default=0)):
            table.append(table[-1] * coord)
        pows.append(table)
    monomials = np.ones((len(terms), G))
    for row, (exp, _) in zip(monomials, terms):
        for v, e in enumerate(exp):
            if e:
                row *= pows[v][e]
    coeffs = np.array([c for _, c in terms]).reshape(len(terms),
                                                     torus.algebra.dim)
    return monomials.T @ coeffs


def _callable_on_grid(f, torus, zs):
    """f(xi) over the grid, one call per node."""
    algebra = torus.algebra
    units = [torus.J] * torus.n
    alphas = np.stack([z.real for z in zs], axis=1).tolist()
    betas = np.stack([z.imag for z in zs], axis=1).tolist()
    out = np.empty((len(alphas), algebra.dim))
    for g, (a, b) in enumerate(zip(alphas, betas)):
        out[g] = f(SlicePoint(algebra, a, b, units)).coeffs_float()
    return out


def cauchy_reconstruct(f, torus, x):
    """Average the integrand over the angle torus; value plus diagnostics.

    f is an OrderedPolynomial, a StemPoly, or a callable taking a
    SlicePoint to an Element.  The input only supplies boundary values: a
    stem is evaluated on the whole grid at once, a callable once per grid
    node, and one array kernel does the rest.  Diagnostics report the
    sample count, the worst kernel conditioning, and, for polynomial and
    stem inputs, the disagreement against direct evaluation.
    """
    n = torus.n
    if x.n != n:
        raise AlgebraMismatch(f"point has {x.n} variables, torus has {n}")
    if not torus.contains_point(x):
        raise PointOutsideE(
            "reconstruction point must lie inside the circularized domain")
    N = torus.samples_per_circle
    stem = _as_stem(f)
    boundary_values = (partial(_callable_on_grid, f) if stem is None
                       else partial(_stem_on_grid, stem))
    try:
        with np.errstate(over="raise", invalid="raise"):
            value, min_delta = _reconstruct(boundary_values, torus, x)
    except FloatingPointError as exc:
        raise HypersliceError(
            f"quadrature arithmetic leaves the float range: {exc}") from None
    diagnostics = {
        "N": N,
        "grid_points": N ** n * len(torus.combos()),
        "min_abs_delta": float(min_delta),
        "max_inv_delta": float(1.0 / min_delta),
    }
    if stem is not None:
        reference = slice_eval(stem, x)
        diagnostics["disagreement"] = float(
            (value - reference).euclid_norm())
    return value, diagnostics


def _reconstruct(boundary_values, torus, x):
    """The subset-expanded integrand summed over the grid, one word at a time.

    Each left factor a + b u_h of the integrand splits into its real and
    u_h parts, so the integrand is a sum over the 2^(n+1) unit words
    u_1^b1(...(u_n^bn(J^b0 f))) with real weights.  Summed over the subsets
    K, the weight of a word factors per variable: it is
    Re((-i)^n e_b0 prod_h P_h,b_h(t_h)) with e_0 = 1, e_1 = -i and
    P_h,b = o r i e^{it} (part_b(1/Delta_h) conj(z) - part_b(w_h/Delta_h))
    on each circle (z = c + r e^{it}, w_h the complex coordinate of x,
    part_0 = Re, part_1 = Im).  So the boundary values of each circle
    choice are contracted one angle axis at a time against P, and the
    units act once per word in Element arithmetic.

    boundary_values(torus, zs) returns f at the boundary nodes zs (one
    complex array per variable, the grid flattened in 'ij' order) as a
    (G, dim) coefficient array.  It is called only after the pole-sphere
    guard has passed on every circle.
    """
    algebra = torus.algebra
    n = torus.n
    N = torus.samples_per_circle
    e_it = np.exp(2j * np.pi * np.arange(N) / N)
    # per variable, per circle: the nodes z and the weights P as (4, N)
    circles = []
    min_delta = math.inf
    for (a, b), var_circles in zip(x.z(), torus.circles):
        w = complex(float(a), float(b))
        row = []
        for c in var_circles:
            z = c.center + c.radius * e_it
            delta = w * w - 2.0 * z.real * w + (z.real ** 2 + z.imag ** 2)
            min_delta = min(min_delta, float(np.abs(delta).min()))
            inv = 1.0 / delta
            vel = c.orientation * c.radius * 1j * e_it
            P = np.stack([vel * (part(inv) * z.conjugate() - part(w * inv))
                          for part in (np.real, np.imag)])
            # real rows, so real boundary values are never cast to complex
            row.append((z, np.concatenate([P.real, P.imag])))
        circles.append(row)
    if min_delta < MIN_DELTA:
        raise QuadratureSingularity(
            f"grid approaches a pole sphere: min |Delta| = "
            f"{min_delta:.2e} < {MIN_DELTA}")
    # S[b_n, ..., b_1] = sum over the grid of prod_h P_h,b_h times f
    S = 0
    for combo in itertools.product(*circles):
        grid = np.meshgrid(*(z for z, _ in combo), indexing="ij")
        fvals = boundary_values(torus, [g.reshape(-1) for g in grid])
        s = fvals.reshape((N,) * n + (algebra.dim,))
        for h, (_, weights) in enumerate(combo):
            r = np.tensordot(weights, s, axes=(1, h))
            s = r[:2] + 1j * r[2:]
        S = S + s
    total = algebra.zero()
    for bits in itertools.product((0, 1), repeat=n):
        c = S[bits[::-1]] * ((-1j) ** n / N ** n)
        v = algebra.element(c.real.tolist()) + \
            torus.J * algebra.element(c.imag.tolist())
        units = [u for u, b in zip(x.units, bits) if b]
        total = total + ordered_product(units, v)
    return total, min_delta


# -- symbolic regularity of the closed-form kernel -------------------------


def kernel_stem_symbolic(algebra, ys_complex, J):
    """Stem of x -> C(x, y) as (numerator stem, real denominator).

    ys_complex are the poles as exact complex pairs (re, im) on the slice
    of J.  Every kernel component equals numerator / denominator with the
    denominator the product of the squared moduli of the characteristic
    factors, so the CR system can be checked by polynomial identities.
    """
    n = len(ys_complex)
    sigma = sigma_tensor(n)
    one = algebra.one()

    def lift(h, poly):
        # a polynomial in (alpha_h, beta_h) as one in all 2n variables
        out = {}
        for (ea, eb), c in poly.items():
            exp = [0] * (2 * n)
            exp[2 * (h - 1)] = ea
            exp[2 * (h - 1) + 1] = eb
            out[tuple(exp)] = c
        return out

    def var_stem(h, comps):
        return StemPoly(n, algebra, {local_mask << (h - 1): lift(h, poly)
                                     for local_mask, poly in comps.items()})

    numer = StemPoly.zero(n, algebra)
    denom = {(0,) * (2 * n): 1}
    for h, (re, im) in enumerate(ys_complex, start=1):
        t = 2 * re
        nq = re * re + im * im
        # |delta_h|^2 as a real polynomial in (alpha_h, beta_h)
        dre = {(2, 0): 1, (0, 2): -1, (1, 0): -t, (0, 0): nq}
        dim_ = {(1, 1): 2, (0, 1): -t}
        sq = sparse.mul(dre, dre)
        sparse.add_into(sq, sparse.mul(dim_, dim_))
        denom = sparse.mul(denom, lift(h, sq))
    for kmask in range(1 << n):
        sign = (-1) ** (n - bin(kmask).count("1"))
        term = None
        for h, (re, im) in enumerate(ys_complex, start=1):
            t = 2 * re
            nq = re * re + im * im
            conj_delta = var_stem(h, {
                0: {(2, 0): one, (0, 2): -1 * one, (1, 0): -t * one,
                    (0, 0): nq * one},
                1: {(1, 1): -2 * one, (0, 1): t * one},
            })
            if not kmask >> (h - 1) & 1:
                xh = var_stem(h, {0: {(1, 0): one}, 1: {(0, 1): one}})
                conj_delta = stem_product(conj_delta, xh, sigma)
            term = conj_delta if term is None else \
                stem_product(term, conj_delta, sigma)
        yc = algebra.one()
        for h, (re, im) in enumerate(ys_complex, start=1):
            if kmask >> (h - 1) & 1:
                yc = yc * (algebra.from_real(re) - im * J)
        term = stem_product(term, StemPoly.constant(yc, n), sigma)
        numer = numer + sign * term
    return numer, denom


def rational_stem_is_regular(numer, denom):
    """CR system for numer/denom with a real scalar denominator, exactly.

    Checks, for every variable and component, the cleared identity
    (d/dz-bar numer) * denom = quotient-rule correction, so no rational
    arithmetic is needed.
    """
    from fractions import Fraction

    n = numer.n
    algebra = numer.algebra
    half = Fraction(1, 2)
    for h in range(1, n + 1):
        va, vb = 2 * (h - 1), 2 * (h - 1) + 1
        d_da = sparse.dx(denom, va)
        d_db = sparse.dx(denom, vb)
        bit = 1 << (h - 1)
        masks = set(numer.components) | {m ^ bit for m in numer.components}
        for mask in masks:
            sign = -1 if mask & bit else 1
            A = numer.components.get(mask, {})
            Ax = numer.components.get(mask ^ bit, {})
            # lhs: (cr-bar of the numerator stem)_mask times denom
            lhs = {}
            sparse.add_into(lhs, sparse.mul(sparse.dx(A, va), denom), half)
            sparse.add_into(lhs, sparse.mul(sparse.dx(Ax, vb), denom),
                            -half * sign)
            # rhs: quotient-rule correction
            rhs = {}
            sparse.add_into(rhs, sparse.mul(A, d_da), half)
            sparse.add_into(rhs, sparse.mul(Ax, d_db), -half * sign)
            sparse.add_into(lhs, rhs, -1)
            if lhs:
                return False
    return True

