"""Root finding for one-variable slice polynomials and fiber scans.

The zeros of a one-variable polynomial are spheres alpha + beta S (its
real factors x - r and x^2 - 2 alpha x + alpha^2 + beta^2) and isolated
points.  The real factors are divided out one at a time, so a repeated
one is found with its own multiplicity; every zero of the quotient is
isolated and lies on a sphere of its normal polynomial q * q^c.
"""

import math
import random
from functools import partial

from .algebra import encode_number, invert, is_imaginary_unit, norm_sq, trace
from .errors import (AlgebraMismatch, ConstantPolynomial, HypersliceError,
                     NotInvertible, RefinementFailed, UnsupportedKind)
from .regularity import OrderedPolynomial, ordered_monomial_eval

RESIDUAL_SCALE = 1e-8
SETTLE_STEPS = 8
NEWTON_STEPS = 40


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


def _stem_residual(stem, w):
    """|F_0| + |F_1|, where F_0 + i F_1 = P(w) = sum_k w^k stem[k]."""
    import numpy as np
    value = np.polyval(stem[::-1], w)
    # hypot scales, so no square overflows and no numpy warning is written
    return math.hypot(*value.real) + math.hypot(*value.imag)


def _excess(stem, w):
    """The stem residual above the rounding error of Horner's rule."""
    import numpy as np
    floor = (4 * len(stem) * np.finfo(float).eps
             * np.polyval(np.linalg.norm(stem, axis=1)[::-1], abs(w)))
    return max(0.0, _stem_residual(stem, w) - float(floor))


def _settle(stem, w):
    """w moved by Gauss-Newton on the stem, if it stays close and improves."""
    import numpy as np
    coeffs = stem[::-1]
    slopes = (stem[1:] * np.arange(1, len(stem))[:, None])[::-1]
    x = w
    with np.errstate(all="ignore"):
        for _ in range(SETTLE_STEPS):
            value, slope = np.polyval(coeffs, x), np.polyval(slopes, x)
            x = x - np.vdot(slope, value) / np.vdot(slope, slope).real
            if not abs(x - w) <= 1e-6 * (1.0 + abs(w)):
                return w
        if (np.linalg.norm(np.polyval(coeffs, x))
                <= np.linalg.norm(np.polyval(coeffs, w))):
            return x
    return w


def _near(w, v, rel=1e-6):
    return abs(w - v) <= rel * (1.0 + abs(w))


def _merge(estimates, excess):
    """Estimates of one factor replaced by their mean.

    An estimate joins a group within 1e-6 (1 + |w|) of the group's mean,
    or within 1e-3 (1 + |w|) when the joint mean has no larger excess
    residual than either; the cap keeps distinct zeros apart.
    """
    groups = []
    for w in estimates:
        for group in groups:
            centre = sum(group) / len(group)
            mean = (sum(group) + w) / (len(group) + 1)
            if _near(w, centre) or (_near(w, centre, 1e-3) and excess(mean)
                                    <= min(excess(w), excess(centre))):
                group.append(w)
                break
        else:
            groups.append([w])
    return [sum(group) / len(group) for group in groups]


def _deflate(stem, factor):
    """Quotient of stem by a monic real factor (both low to high)."""
    import numpy as np
    rem, m = stem.copy(), len(factor) - 1
    quot = np.empty((len(stem) - m, stem.shape[1]))
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + m]
        rem[k:k + m + 1] -= np.outer(factor, quot[k])
    return quot


def _newton_polish(coeffs, x):
    import numpy as np
    algebra = x.algebra
    deg = len(coeffs) - 1
    right_mats = {k: algebra.right_mult_matrix(a)
                  for k, a in enumerate(coeffs) if k and not a.is_zero(0)}
    best = x
    best_val = _eval_coeffs(coeffs, best)
    best_res = best_val.euclid_norm()
    for _ in range(NEWTON_STEPS):
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


def roots_one_var(p):
    """All zeros of a one-variable polynomial with right coefficients.

    Quaternions and octonions take any coefficients; Clifford algebras of
    negative-definite signature take monic paravector polynomials.

    p takes the value F_0 + I F_1 at alpha + beta I, where F_0 + i F_1 =
    P(alpha + i beta) on the stem P(w) = sum_k w^k a_k of p / scale; a
    unit I preserves norms here, so |F_0| + |F_1| bounds |p| on the whole
    sphere alpha + beta S, and it is a sphere's residual.

    Stage one: each real factor divides every real component of p, so
    R(x) = sum_k x^k <a_k, a_d / |a_d|>, with its own multiplicity.  A
    root w of R, settled on the stem, with |F_0| + |F_1| within the bound
    is a real zero when p(Re w) is as small above rounding as p(w), and a
    sphere of zeros otherwise.  Estimates of one factor are merged into
    their mean, the factor is divided out, and the search repeats on the
    quotient q.  Stage two: each zero of q is isolated, alpha + beta I
    with I = -F_0 F_1^-1 on the sphere of a root alpha + i beta of the
    normal polynomial q q^c, polished by Newton on p.  RefinementFailed
    is raised when that I is not a unit or the zero does not polish below
    the bound.  Coefficients that are not finite, or whose norms overflow,
    raise HypersliceError.
    """
    import numpy as np
    if p.n != 1:
        raise AlgebraMismatch("roots_one_var handles one variable, the "
                              f"polynomial has {p.n}; use zero_scan for fibers")
    algebra = p.algebra
    coeffs = _dense_coeffs(p)
    if len(coeffs) < 2:
        raise ConstantPolynomial("polynomial has no nonconstant term")
    if algebra.kind.startswith("clifford"):
        _check_clifford_form(coeffs, algebra)
    norms = [a.euclid_norm() for a in coeffs]
    if not all(map(math.isfinite, norms)):
        raise HypersliceError("the coefficients must be finite numbers "
                              "whose norms stay in the float range")
    scale = max(norms)
    bound = RESIDUAL_SCALE * (1.0 + scale)
    stem = np.array([a.coeffs_float() for a in coeffs]) / scale
    # unscaled, so that a tiny leading row does not underflow its norm
    lead = coeffs[-1].coeffs_float() / norms[-1]
    isolated = []
    spherical = []
    residuals = [0.0]

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

    q = stem
    while len(q) > 1:
        found = [_settle(q, w) for w in (complex(w.real, abs(w.imag))
                                         for w in np.roots((q @ lead)[::-1]))
                 if scale * max(_stem_residual(q, w),
                                _stem_residual(stem, w)) <= bound]
        if not found:
            break
        excess = partial(_excess, q)
        for w in _merge(found, excess):
            alpha, beta = w.real + 0.0, w.imag
            if _near(w, alpha) or excess(alpha) <= excess(w):
                accept_isolated(algebra.from_real(alpha))
                q = _deflate(q, [-alpha, 1.0])
                continue
            if not any(_near(w, complex(a, b)) for a, b in spherical):
                spherical.append((alpha, beta))
                residuals.append(scale * _stem_residual(stem, w))
            q = _deflate(q, [alpha ** 2 + beta ** 2, -2.0 * alpha, 1.0])
    normal = sum(np.convolve(column, column) for column in q.T)
    if len(q) > 1 and not normal[-1] > 0:
        raise RefinementFailed(
            "the normal polynomial underflows: the coefficient norms span "
            "more than the float range")
    for w in np.roots(normal[::-1]):
        alpha, beta = w.real + 0.0, w.imag
        if beta < 0:
            continue
        value = np.polyval(q[::-1], w)
        f0, f1 = (algebra.element(part.tolist())
                  for part in (value.real, value.imag))
        try:
            unit_c = -1 * (f0 * invert(f1))
        except NotInvertible as exc:
            raise RefinementFailed(
                f"sphere ({alpha:.4g}, {beta:.4g}) admits no unit: {exc}")
        tr, nr = trace(unit_c), norm_sq(unit_c)
        if (tr.euclid_norm() > 1e-4 * (1.0 + unit_c.euclid_norm())
                or not nr.is_real(1e-6)
                or abs(float(nr.real_coeff()) - 1.0) > 1e-4):
            raise RefinementFailed(
                f"sphere ({alpha:.4g}, {beta:.4g}): recovered direction "
                "is not an imaginary unit")
        accept_isolated(algebra.from_real(alpha) + beta * unit_c)
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


def zero_scan(f, samples):
    """Fiber taxonomy of the projection onto the trailing variables.

    samples is an iterable of tuples of Elements for (x_2 .. x_n).  A
    fiber whose restricted polynomial degenerates to a nonzero constant
    reports empty-leading-degenerate; an identically zero restriction
    reports identically-zero.  Root-finding errors propagate.
    """
    if f.n < 2:
        raise AlgebraMismatch("zero_scan needs at least two variables, "
                              f"the polynomial has {f.n}; use roots_one_var")
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
        report = roots_one_var(restricted)
        records.append(FiberRecord(sample, fiber_kind(report), report))
    return ScanReport(records)


def scan_samples(algebra, nvars, count, seed=20240817, span=2.0):
    """Deterministic mixed base points: real, imaginary, unit-sphere, generic.

    Cycling the classes makes every taxonomy type reachable for the
    quadric examples at small sample counts.
    """
    if count < 1:
        raise HypersliceError(f"count must be at least 1, got {count}")
    if not math.isfinite(span):
        raise HypersliceError(f"span must be a finite number, got {span}")
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
