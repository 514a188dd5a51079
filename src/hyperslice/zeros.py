"""Root finding for one-variable slice polynomials and fiber scans.

Roots are either isolated points or whole spheres alpha + beta S.  The
finder restricts to a complex slice when all coefficients share one
(yielding a genuine complex polynomial), and otherwise factors through
the real-coefficient normal polynomial p * p^c: each of its root spheres
carries a zero of p, recovered in closed form from the sphere decomposition
of the evaluation and polished by Newton on the real coordinate system.
"""

import random

import numpy as np

from .algebra import DEFAULT_TOL, invert, is_imaginary_unit, norm_sq, trace
from .errors import (AlgebraMismatch, ConstantPolynomial, HypersliceError,
                     NotInvertible, RefinementFailed, UnsupportedKind)
from .regularity import OrderedPolynomial, ordered_monomial_eval, star_product

RESIDUAL_SCALE = 1e-8
PROBE_UNITS = 8


class ZeroReport:
    """Zeros of one polynomial: isolated points, spheres, worst residual."""

    def __init__(self, isolated, spherical, residual_max):
        self.isolated = list(isolated)
        self.spherical = list(spherical)
        self.residual_max = float(residual_max)

    def __repr__(self):
        spheres = ", ".join(f"({a:.4g}, {b:.4g})" for a, b in self.spherical)
        points = ", ".join(r.format() for r in self.isolated)
        return (f"ZeroReport(isolated=[{points}], spherical=[{spheres}], "
                f"residual_max={self.residual_max:.2e})")

    @property
    def empty(self):
        return not self.isolated and not self.spherical

    def to_json(self):
        from .algebra import encode_number
        return {
            "isolated": [[encode_number(c) for c in r.coeffs]
                         for r in self.isolated],
            "spherical": [[float(a), float(b)] for a, b in self.spherical],
            "residual_max": self.residual_max,
        }


def _dense_coeffs(p):
    """[a_0 .. a_d] with the true degree (trailing zeros trimmed)."""
    algebra = p.algebra
    deg = max((ell[0] for ell in p.terms), default=0)
    out = [algebra.zero() for _ in range(deg + 1)]
    for ell, a in p.terms.items():
        out[ell[0]] = out[ell[0]] + a
    while len(out) > 1 and out[-1].is_zero(0):
        out.pop()
    return out


def _coeff_scale(coeffs):
    return max((c.euclid_norm() for c in coeffs), default=0.0)


def _eval_coeffs(coeffs, x):
    total = x.algebra.zero()
    power = x.algebra.one()
    for a in coeffs:
        if not a.is_zero(0):
            total = total + power * a
        power = power * x
    return total


def _random_unit(algebra, rng):
    dim = algebra.dim
    for _ in range(64):
        v = algebra.element([0.0] + [rng.uniform(-1, 1)
                                     for _ in range(dim - 1)])
        if algebra.kind.startswith("clifford"):
            # stay on grade one, where squares are scalar by construction
            v = algebra.element([c if (idx).bit_count() == 1 else 0.0
                                 for idx, c in enumerate(v.coeffs)])
        nrm = v.euclid_norm()
        if nrm < 1e-3:
            continue
        u = v * (1.0 / nrm)
        if is_imaginary_unit(u, 1e-9):
            return u
    return algebra.default_imaginary_unit()


def _slice_unit(coeffs, algebra):
    """Common slice of the coefficients, or None when they span more.

    Returns (unit, complex coefficient list); real coefficient sets use
    the algebra's default unit.
    """
    rows = [np.array([float(c) for c in a.imag_part().coeffs])
            for a in coeffs]
    mat = np.stack(rows)
    scale = max(1.0, float(np.abs(mat).max()))
    rank = np.linalg.matrix_rank(mat, tol=1e-10 * scale)
    if rank == 0:
        unit = algebra.default_imaginary_unit()
        return unit, [complex(float(a.real_coeff()), 0.0) for a in coeffs]
    if rank > 1:
        return None, None
    # principal direction of the span
    _, _, vt = np.linalg.svd(mat)
    u_vec = vt[0]
    u = algebra.element([float(c) for c in u_vec])
    nrm = u.euclid_norm()
    u = u * (1.0 / nrm)
    if not is_imaginary_unit(u, 1e-8):
        return None, None
    zs = []
    uf = np.array([float(c) for c in u.coeffs])
    for a, row in zip(coeffs, rows):
        lam = float(row @ uf)
        resid = row - lam * uf
        if float(np.abs(resid).max()) > 1e-10 * scale:
            return None, None
        zs.append(complex(float(a.real_coeff()), lam))
    return u, zs


def _cluster(pairs, tol=1e-6):
    """Merge (alpha, beta) candidates closer than tol."""
    out = []
    for a, b in pairs:
        for idx, (ca, cb) in enumerate(out):
            if abs(a - ca) <= tol and abs(b - cb) <= tol:
                break
        else:
            out.append((a, b))
    return out


def _newton_polish(coeffs, x, steps=40):
    algebra = x.algebra
    deg = len(coeffs) - 1
    right_mats = {k: algebra.right_mult_matrix(a)
                  for k, a in enumerate(coeffs) if k and not a.is_zero(0)}
    best = x
    best_val = _eval_coeffs(coeffs, best)
    best_res = best_val.euclid_norm()
    for _ in range(steps):
        if best_res == 0.0:
            break
        L = algebra.left_mult_matrix(best)
        jac = np.zeros((algebra.dim, algebra.dim))
        m_prev = np.zeros((algebra.dim, algebra.dim))
        power = algebra.one()
        for k in range(1, deg + 1):
            m_k = algebra.right_mult_matrix(power) + m_prev @ L
            if k in right_mats:
                jac += m_k @ right_mats[k]
            m_prev = m_k
            power = power * best
        try:
            delta, *_ = np.linalg.lstsq(jac.T, -best_val.coeffs_float(),
                                        rcond=None)
        except np.linalg.LinAlgError:
            break
        nxt = best + algebra.element([float(c) for c in delta])
        nval = _eval_coeffs(coeffs, nxt)
        nres = nval.euclid_norm()
        if nres >= best_res:
            break
        best, best_val, best_res = nxt, nval, nres
    return best, best_res


def _check_clifford_form(coeffs, algebra):
    dim = algebra.dim
    m = dim.bit_length() - 1
    for i in range(m):
        gen = 1 << i
        if algebra.mul_index[gen][gen] != 0 or algebra.mul_sign[gen][gen] != -1:
            raise UnsupportedKind(
                "root finding on Clifford algebras needs every generator "
                "to square to -1 (negative-definite signature)")
    for a in coeffs:
        for idx, c in enumerate(a.coeffs):
            if c != 0 and idx.bit_count() > 1:
                raise UnsupportedKind(
                    "Clifford root finding accepts paravector coefficients "
                    f"only; coefficient {a.format()} has higher grade")
    if not (coeffs[-1] - algebra.one()).is_zero(1e-12):
        raise UnsupportedKind(
            "Clifford root finding accepts monic polynomials only")


def roots_one_var(p, tol=DEFAULT_TOL):
    """All zeros of a one-variable polynomial with right coefficients.

    Quaternions and octonions take any coefficients; Clifford algebras of
    negative-definite signature take monic paravector polynomials.  Zero
    divisors outside those families are out of scope, so a normal-polynomial
    root that fails the residual check there is dropped, not reported.

    tol only decides, through `invert`, whether the Q that refines a
    sphere of the normal polynomial to one root is invertible; the rank,
    residual, realness and clustering tests use fixed relative thresholds.
    """
    if p.n != 1:
        raise AlgebraMismatch("roots_one_var expects a one-variable polynomial")
    algebra = p.algebra
    coeffs = _dense_coeffs(p)
    if len(coeffs) < 2:
        raise ConstantPolynomial("polynomial has no nonconstant term")
    if algebra.kind.startswith("clifford"):
        _check_clifford_form(coeffs, algebra)
    scale = _coeff_scale(coeffs)
    bound = RESIDUAL_SCALE * (1.0 + scale)
    rng = random.Random(20240817)
    probes = [_random_unit(algebra, rng) for _ in range(PROBE_UNITS)]
    isolated = []
    spherical = []
    residuals = [0.0]

    def probe_sphere(alpha, beta):
        worst = 0.0
        for u in probes:
            x = algebra.from_real(alpha) + beta * u
            worst = max(worst, _eval_coeffs(coeffs, x).euclid_norm())
        return worst

    def accept_isolated(x):
        x, res = _newton_polish(coeffs, x)
        if res > bound:
            raise RefinementFailed(
                f"candidate near {x.format()} refined to residual "
                f"{res:.2e} > {bound:.2e}")
        for r in isolated:
            if (r - x).euclid_norm() <= 1e-6 * (1.0 + x.euclid_norm()):
                return
        isolated.append(x)
        residuals.append(res)

    unit, zs = _slice_unit(coeffs, algebra)
    if unit is not None:
        roots = np.roots([zs[k] for k in range(len(zs) - 1, -1, -1)])
        seen_spheres = []
        for w in roots:
            alpha, beta = float(w.real), float(w.imag)
            if abs(beta) <= 1e-9 * (1.0 + abs(w)):
                accept_isolated(algebra.from_real(alpha))
                continue
            worst = probe_sphere(alpha, abs(beta))
            if worst <= bound:
                seen_spheres.append((alpha, abs(beta)))
                residuals.append(worst)
            else:
                accept_isolated(algebra.from_real(alpha) + beta * unit)
        spherical.extend(_cluster(seen_spheres))
        return ZeroReport(isolated, spherical, max(residuals))

    normal = star_product(p, OrderedPolynomial(
        1, algebra, {ell: a.conj() for ell, a in p.terms.items()}))
    ncoeffs = _dense_coeffs(normal)
    real_parts = []
    for c in ncoeffs:
        if not c.is_real(1e-9 * (1.0 + scale) ** 2):
            raise UnsupportedKind(
                "normal polynomial is not real; coefficients leave the "
                "quadratic cone")
        real_parts.append(float(c.real_coeff()))
    roots = np.roots(real_parts[::-1])
    candidates = _cluster([(float(w.real), abs(float(w.imag)))
                           for w in roots])
    seen_spheres = []
    for alpha, beta in candidates:
        if beta <= 1e-9 * (1.0 + abs(alpha)):
            x = algebra.from_real(alpha)
            res = _eval_coeffs(coeffs, x).euclid_norm()
            if res <= bound * 10:
                accept_isolated(x)
            continue
        w = complex(alpha, beta)
        P = algebra.zero()
        Q = algebra.zero()
        wp = complex(1.0, 0.0)
        for a in coeffs:
            P = P + float(wp.real) * a
            Q = Q + float(wp.imag) * a
            wp *= w
        if P.euclid_norm() <= bound and Q.euclid_norm() <= bound:
            worst = probe_sphere(alpha, beta)
            if worst <= bound:
                seen_spheres.append((alpha, beta))
                residuals.append(worst)
                continue
        if Q.euclid_norm() <= bound:
            # no unit recovers a point here; outside the division setting
            # the sphere was an artifact of the normal polynomial
            continue
        try:
            unit_c = -1 * (P * invert(Q, tol))
        except NotInvertible as exc:
            raise RefinementFailed(
                f"sphere ({alpha:.4g}, {beta:.4g}) admits no unit: {exc}")
        tr = trace(unit_c)
        nr = norm_sq(unit_c)
        if (tr.euclid_norm() > 1e-4 * (1.0 + unit_c.euclid_norm())
                or not nr.is_real(1e-6)
                or abs(float(nr.real_coeff()) - 1.0) > 1e-4):
            res = _eval_coeffs(
                coeffs, algebra.from_real(alpha)).euclid_norm()
            raise RefinementFailed(
                f"sphere ({alpha:.4g}, {beta:.4g}): recovered direction "
                f"is not an imaginary unit (residual {res:.2e})")
        accept_isolated(algebra.from_real(alpha) + beta * unit_c)
    spherical.extend(_cluster(seen_spheres))
    return ZeroReport(isolated, spherical, max(residuals))


# -- multivariable fiber scan ----------------------------------------------


class FiberRecord:
    __slots__ = ("sample", "kind", "report")

    def __init__(self, sample, kind, report):
        self.sample = sample
        self.kind = kind
        self.report = report

    def __repr__(self):
        pt = ", ".join(x.format() for x in self.sample)
        return f"FiberRecord(({pt}): {self.kind})"


class ScanReport:
    """Fiber taxonomy over the sampled base points."""

    def __init__(self, records):
        self.records = list(records)

    def counts(self):
        out = {}
        for rec in self.records:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    def nonempty(self):
        return any(rec.report is not None and not rec.report.empty
                   for rec in self.records)

    def to_json(self):
        from .algebra import encode_number
        return {
            "fibers": [{
                "sample": [[encode_number(c) for c in x.coeffs]
                           for x in rec.sample],
                "kind": rec.kind,
                "report": rec.report.to_json() if rec.report else None,
            } for rec in self.records],
            "counts": self.counts(),
        }

    def csv_rows(self):
        yield ("sample", "kind", "isolated", "spherical", "residual_max")
        for rec in self.records:
            pt = "; ".join(x.format() for x in rec.sample)
            if rec.report is None:
                yield (pt, rec.kind, "", "", "")
            else:
                yield (pt, rec.kind,
                       " | ".join(r.format() for r in rec.report.isolated),
                       " | ".join(f"({a:.6g}, {b:.6g})"
                                  for a, b in rec.report.spherical),
                       f"{rec.report.residual_max:.3e}")


def restrict_to_first_variable(f, sample):
    """One-variable polynomial in x_1 with the other variables fixed."""
    algebra = f.algebra
    if len(sample) != f.n - 1:
        raise AlgebraMismatch(
            f"need {f.n - 1} values for the trailing variables")
    coeffs = {}
    for ell, a in f.terms.items():
        k = ell[0]
        rest = ordered_monomial_eval(ell[1:], a, sample)
        coeffs[k] = coeffs.get(k, algebra.zero()) + rest
    return OrderedPolynomial(1, algebra,
                             {(k,): c for k, c in coeffs.items()})


def fiber_kind(report):
    if report.spherical and report.isolated:
        return "mixed"
    if report.spherical:
        return f"spheres({len(report.spherical)})"
    return f"finite({len(report.isolated)})"


def zero_scan(f, samples, tol=DEFAULT_TOL):
    """Fiber taxonomy of the projection onto the trailing variables.

    samples is an iterable of tuples of Elements for (x_2 .. x_n).  A
    fiber whose restricted polynomial degenerates to a nonzero constant
    reports empty-leading-degenerate; an identically zero restriction
    reports identically-zero.  Root-finding errors propagate.
    """
    if f.n < 2:
        raise AlgebraMismatch("zero_scan needs at least two variables")
    records = []
    for sample in samples:
        sample = tuple(sample)
        restricted = restrict_to_first_variable(f, sample)
        coeffs = _dense_coeffs(restricted)
        if len(coeffs) < 2:
            kind = ("identically-zero" if coeffs[0].is_zero(1e-12)
                    else "empty-leading-degenerate")
            records.append(FiberRecord(sample, kind, None))
            continue
        report = roots_one_var(restricted, tol)
        records.append(FiberRecord(sample, fiber_kind(report), report))
    return ScanReport(records)


def scan_samples(algebra, nvars, count, seed=20240817, span=2.0):
    """Deterministic mixed base points: real, imaginary, unit-sphere, generic.

    Cycling the classes makes every taxonomy type reachable for the
    quadric examples at small sample counts.
    """
    if count < 1:
        raise HypersliceError(f"count must be at least 1, got {count}")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        point = []
        for _ in range(nvars - 1):
            cls = idx % 4
            if cls == 0:
                point.append(algebra.from_real(rng.uniform(-span, span)))
            elif cls == 1:
                point.append(rng.uniform(0.1, span)
                             * _random_unit(algebra, rng))
            elif cls == 2:
                point.append(_random_unit(algebra, rng))
            else:
                point.append(algebra.from_real(rng.uniform(-span, span))
                             + rng.uniform(0.1, span)
                             * _random_unit(algebra, rng))
        out.append(tuple(point))
    return out
