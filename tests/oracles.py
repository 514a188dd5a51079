"""Independent reference implementations that tests compare the library to.

Nothing in the package calls these; they restate the paper's constructions
the slow, direct way, so the fast paths have something to agree with:

- cauchy_integrand and cauchy_integrand_product_form: the pointwise Cauchy
  integrand in exact Element arithmetic, summed over the same grid as the
  oracle for the array engine of cauchy_reconstruct, and cauchy_kernel_1var,
  the one-variable kernel of the product form;
- kernel_stem_symbolic and rational_stem_is_regular: the stem of the
  closed-form kernel and an exact CR check of a rational stem, which prove
  the kernel slice regular;
- split_holomorphy_check and one_variable_regularity_check: two more
  regularity routes (classical holomorphy after splitting, and the
  one-variable reduction) to check is_slice_regular against;
- max_diff: the largest coefficient of a sparse difference.

Beside them sit the small helpers that only tests need: approx_eq,
slice_diagonal, boundary_value, pq_polynomials, stem_parity_check and
apply_complex_structure, the complex structure of a StemPoly that
stem_product is complex bilinear for.
"""

import math
from fractions import Fraction

from hyperslice import sparse
from hyperslice.algebra import (DEFAULT_TOL, Element, invert,
                                is_imaginary_unit, ordered_product,
                                splitting_basis)
from hyperslice.cauchy import MIN_DELTA, _input_kind, char_poly
from hyperslice.errors import (AlgebraMismatch, IndexOutOfRange,
                               NotImaginaryUnit, OnSingularSphere)
from hyperslice.regularity import _require_stem_poly
from hyperslice.slicefun import SlicePoint
from hyperslice.stems import (StemPoly, binomial_terms, parity_ok,
                              sigma_tensor, stem_product)


def max_diff(p, q, scale=1):
    """Largest coefficient of p - scale * q, measured by abs or euclid_norm."""
    diff = dict(p)
    sparse.add_into(diff, q, -scale)
    return max((c.euclid_norm() if isinstance(c, Element) else abs(c)
                for c in diff.values()), default=0)


def approx_eq(a, b, tol=1e-12):
    return (a - b).is_zero(tol)


def slice_diagonal(algebra, zs, J):
    """All variables on the slice of one unit J; zs are (alpha, beta)."""
    if not is_imaginary_unit(J):
        raise NotImaginaryUnit("slice unit must square to -1")
    return SlicePoint(algebra, [ab[0] for ab in zs], [ab[1] for ab in zs],
                      [J] * len(zs))


def boundary_value(combo, angles):
    """xi(t) for one circle choice, as complex numbers on the slice."""
    return [c.center + c.radius * complex(math.cos(t), math.sin(t))
            for c, t in zip(combo, angles)]


# -- stem calculus ----------------------------------------------------------


def pq_polynomials(k):
    """(p_k, q_k) with (alpha + i beta)^k = p_k + i q_k, as sparse int dicts."""
    p, q = {}, {}
    for exp, c, mask in binomial_terms((k,)):
        (q if mask else p)[exp] = c
    return p, q


def stem_parity_check(F):
    """List of (K, exponents) monomials violating the beta-parity law."""
    return [(mask, exp) for mask, poly in F.components.items()
            for exp in poly if not parity_ok(mask, exp, F.n)]


def apply_complex_structure(F, h):
    """The h-th complex structure: out_{K xor {h}} gains (-1)^|K meet {h}| F_K.

    It moves F_K to K xor {h} with its beta_h degree, so the result is a
    StemPoly that breaks the parity law in variable h (J_h J_h F = -F is a
    stem again); the Cauchy-Riemann operators pair it with d/dbeta_h.
    """
    if h < 1 or h > F.n:
        raise IndexOutOfRange(f"h = {h} outside 1..{F.n}")
    bit = 1 << (h - 1)
    out = {}
    for mask, poly in F.components.items():
        sparse.add_into(out.setdefault(mask ^ bit, {}), poly,
                        -1 if mask & bit else 1)
    return StemPoly(F.n, F.algebra, out, _skip_check=True)


# -- pointwise Cauchy integrands ------------------------------------------


def cauchy_kernel_1var(x, y, tol=DEFAULT_TOL):
    """Delta_y(x)^{-1} (y^c - x); the slice-regular reciprocal of x - y."""
    delta = char_poly(y, x)
    if delta.euclid_norm() < MIN_DELTA:
        raise OnSingularSphere(
            f"point lies on or near the sphere of the pole "
            f"(|Delta| = {delta.euclid_norm():.2e})")
    return invert(delta, tol) * (y.conj() - x)


def _complex_on_slice(algebra, w, J):
    return algebra.from_real(w.real) + w.imag * J


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
    fn = _input_kind(f)[0] or f
    total = algebra.zero()
    for combo, orient in torus.combos():
        zs = boundary_value(combo, t)
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
    fn = _input_kind(f)[0] or f
    total = algebra.zero()
    for combo, orient in torus.combos():
        zs = boundary_value(combo, t)
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

    numer = StemPoly(n, algebra, {})
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
        constant = StemPoly(n, algebra, {0: {(0,) * (2 * n): yc}})
        term = stem_product(term, constant, sigma)
        numer = numer + sign * term
    return numer, denom


def rational_stem_is_regular(numer, denom):
    """CR system for numer/denom with a real scalar denominator, exactly.

    Checks, for every variable and component, the cleared identity
    (d/dz-bar numer) * denom = quotient-rule correction, so no rational
    arithmetic is needed.
    """
    n = numer.n
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


def split_holomorphy_check(f, J, tol=DEFAULT_TOL):
    """Classical holomorphy of the splitting components on one slice.

    Restricts f to the slice of J, writes it over the splitting basis
    {1, J, J_1, JJ_1, ...} as complex coefficient pairs, and checks both
    CR equations per component and variable symbolically.
    """
    F = _require_stem_poly(f)
    if not is_imaginary_unit(J, tol):
        raise NotImaginaryUnit("splitting needs a unit imaginary J")
    basis = splitting_basis(J)
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
            r1 = max_diff(sparse.dx(P, va), sparse.dx(Q, vb))
            r2 = max_diff(sparse.dx(P, vb), sparse.dx(Q, va), -1)
            r = max(r1, r2)
            if r > 0:
                failures.append((ell, h, float(r)))
                worst = max(worst, r)
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
        va, vb = 2 * (h - 1), 2 * (h - 1) + 1
        for base in range(1 << n):
            if base & bit:
                continue
            # one-variable stem pair in x_h for the block base = K' | H-
            G0 = F.components.get(base, {})
            G1 = F.components.get(base | bit, {})
            r1 = max_diff(sparse.dx(G0, va), sparse.dx(G1, vb))
            r2 = max_diff(sparse.dx(G0, vb), sparse.dx(G1, va), -1)
            if max(r1, r2) > 0:
                failures.append((h, base & (bit - 1), base & ~(2 * bit - 1)))
    return OneVariableReport(not failures, failures)
