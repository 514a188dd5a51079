"""Root finding for one-variable slice polynomials and fiber scans.

The zeros of a one-variable polynomial are spheres alpha + beta S (its
real factors x - r and x^2 - 2 alpha x + alpha^2 + beta^2) and isolated
points.  The real factors are divided out one at a time, so a repeated
one is found with its own multiplicity; every zero of the quotient is
isolated and lies on a sphere of its normal polynomial q * q^c.

Root finding never loads numpy: the real polynomials R(x) and q * q^c
are solved by the Aberth-Ehrlich iteration started on a circle of the
Fujiwara radius (D. A. Bini, Numer. Algorithms 13, 1996), and each zero
is accepted on its residual |p(x)|, which is poly_eval's Horner rule.
"""

import cmath
import math
import random
import sys
from collections import Counter, namedtuple
from functools import partial
from operator import mul

from .algebra import encode_number, is_imaginary_unit, norm_sq, trace
from .errors import (AlgebraMismatch, ConstantPolynomial, HypersliceError,
                     RefinementFailed, UnsupportedKind, check_space)
from .regularity import OrderedPolynomial, _fold_trailing, poly_eval

RESIDUAL_SCALE = 1e-8
SETTLE_STEPS = 8
ABERTH_STEPS = 200
EPS = sys.float_info.epsilon


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
        return {"isolated": [[encode_number(c) for c in r.coeffs]
                             for r in self.isolated],
                "spherical": [[float(a), float(b)] for a, b in self.spherical],
                "residual_max": self.residual_max}


def _dense_coeffs(p):
    """[a_0 .. a_d], d the largest exponent of a term; a_d is nonzero,
    as OrderedPolynomial keeps no zero term."""
    deg = max((ell[0] for ell in p.terms), default=0)
    out = [p.algebra.zero() for _ in range(deg + 1)]
    for ell, a in p.terms.items():
        out[ell[0]] = out[ell[0]] + a
    return out


def _random_unit(algebra, rng):
    # Clifford units stay on grade one, where squares are scalar
    clifford = algebra.kind.startswith("clifford")
    for _ in range(64):
        draw = [0.0] + [rng.uniform(-1, 1) for _ in range(algebra.dim - 1)]
        v = algebra.element([c if not clifford or idx.bit_count() == 1
                             else 0.0 for idx, c in enumerate(draw)])
        nrm = v.euclid_norm()
        if nrm >= 1e-3 and is_imaginary_unit(u := v * (1.0 / nrm), 1e-9):
            return u
    return algebra.default_imaginary_unit()


def _mod(z):
    return math.hypot(z.real, z.imag)  # abs() can raise OverflowError


def _rounding(sizes, r):
    """eps sum_k sizes[k] r^k; Horner's rule errs by up to 4(d+1) times it."""
    total = 0.0
    for s in reversed(sizes):
        total = total * r + s
    return EPS * total


def _aberth(coeffs):
    """The complex zeros of the real polynomial sum_k coeffs[k] x^k.

    Zero low coefficients give zeros at 0; the others start on a circle of
    the Fujiwara radius, which bounds them all, and take Aberth-Ehrlich
    corrections p / (p' - p sum_j 1 / (z - z_j)) in turn, until |p(z)| is
    down to rounding or a correction to eps |z|."""
    if not abs(coeffs[-1]) >= sys.float_info.min:
        raise RefinementFailed(f"leading coefficient {coeffs[-1]:.3g} is "
                               "below the normal float range")
    low = next(k for k, c in enumerate(coeffs) if c)
    zeros, coeffs = [0j] * low, coeffs[low:]
    n, sizes = len(coeffs) - 1, [abs(c) for c in coeffs]
    radius = 2 * max([(s / sizes[-1] / (2 if k == 0 else 1)) ** (1 / (n - k))
                      for k, s in enumerate(sizes[:-1])], default=0.0)
    z = [cmath.rect(radius, (2 * math.pi * k + 0.5) / n) for k in range(n)]
    moving = range(n)
    for _ in range(ABERTH_STEPS):
        still = []
        for k in moving:
            p = dp = 0j
            for c in reversed(coeffs):
                dp, p = dp * z[k] + p, p * z[k] + c
            den = dp - p * sum(1 / (z[k] - v) for v in z if v != z[k])
            if _mod(p) > _rounding(sizes, _mod(z[k])) and den:
                z[k] -= (step := p / den)
                if _mod(step) > EPS * _mod(z[k]):
                    still.append(k)
        if not (moving := still):
            break
    if not all(math.isfinite(_mod(w)) for w in z):
        raise RefinementFailed("the root iteration left the float range")
    return zeros + z


def _stem_value(stem, w):
    """P(w) = sum_k w^k stem[k] and P'(w), by Horner's rule per component."""
    value = slope = [0j] * len(stem[0])
    for row in reversed(stem):
        slope = [s * w + v for s, v in zip(slope, value)]
        value = [v * w + c for v, c in zip(value, row)]
    return value, slope


def _stem_residual(stem, w):
    """|F_0| + |F_1| for F_0 + i F_1 = P(w); hypot keeps squares finite."""
    value = _stem_value(stem, w)[0]
    return (math.hypot(*(v.real for v in value))
            + math.hypot(*(v.imag for v in value)))


def _excess(stem, w):
    """The stem residual above the rounding error of Horner's rule."""
    return max(0.0, _stem_residual(stem, w) - 4 * len(stem)
               * _rounding([math.hypot(*row) for row in stem], _mod(w)))


def _settle(stem, w):
    """w moved by Gauss-Newton on the stem, if it stays close and improves."""
    x = w
    for _ in range(SETTLE_STEPS):
        value, slope = _stem_value(stem, x)
        den = sum(s.real * s.real + s.imag * s.imag for s in slope)
        if not den > 0:
            return w
        x -= sum(s.conjugate() * v for s, v in zip(slope, value)) / den
        if not _near(w, x):
            return w
    return x if _stem_residual(stem, x) <= _stem_residual(stem, w) else w


def _near(w, v, rel=1e-6):
    return _mod(w - v) <= rel * (1.0 + _mod(w))


def _merge(estimates, excess, coeffs):
    """Estimates of one factor of R = sum_j coeffs[j] x^j made one value:
    an estimate joins a group within 1e-6 (1 + |w|) of the group's mean,
    or within 1e-3 (1 + |w|) when the joint mean has no larger excess
    residual than either; the cap keeps distinct zeros apart.  k
    estimates of a k-fold zero scatter by about eps^(1/k), but it is a
    simple zero of R^(k-1), on which their mean is settled."""
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
    out = []
    for group in groups:
        mean, deriv = sum(group) / len(group), coeffs
        for _ in group[1:]:
            deriv = [j * c for j, c in enumerate(deriv)][1:]
        out.append(_settle([(c,) for c in deriv], mean) if group[1:] else mean)
    return out


def _deflate(stem, factor):
    """Quotient of stem by a monic real factor (both low to high)."""
    rem, m = list(stem), len(factor) - 1
    quot = [None] * (len(stem) - m)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = top = rem[k + m]
        for i, f in enumerate(factor):
            rem[k + i] = [r - f * c for r, c in zip(rem[k + i], top)]
    return quot


def _check_clifford_form(coeffs, algebra):
    if any(algebra.mul_index[g][g] != 0 or algebra.mul_sign[g][g] != -1
           for g in (1 << i for i in range(algebra.dim.bit_length() - 1))):
        raise UnsupportedKind(
            "root finding on Clifford algebras needs every generator "
            "to square to -1 (negative-definite signature)")
    for a in coeffs:
        if any(c and i.bit_count() > 1 for i, c in enumerate(a.coeffs)):
            raise UnsupportedKind(
                "Clifford root finding accepts paravector coefficients "
                f"only; coefficient {a.format()} has higher grade")
    if not (coeffs[-1] - algebra.one()).is_zero(1e-12):
        raise UnsupportedKind(
            "Clifford root finding accepts monic polynomials only")


def _isolated_zero(algebra, q, w):
    """alpha + beta I, I = -F_0 F_1^c / |F_1|^2 for F_0 + i F_1 = q(w);
    a real part of w below eps |w|, which the root iteration stops short
    of resolving, reads as 0 in alpha and in F_0."""
    if abs(w.real) < EPS * _mod(w):
        w = complex(0.0, w.imag)
    alpha, beta = w.real + 0.0, w.imag
    value = _stem_value(q, w)[0]
    f0 = algebra.element([v.real for v in value])
    f1 = algebra.element([v.imag for v in value])
    if not (n1 := f1.euclid_norm_sq()) > 1e-18:
        raise RefinementFailed(f"sphere ({alpha:.4g}, {beta:.4g}) admits no "
                               f"unit: |F_1|^2 = {n1:.3g} is too small")
    unit_c = (f0 * f1.conj()) * (-1.0 / n1)
    nr = norm_sq(unit_c)
    if (trace(unit_c).euclid_norm() > 1e-4 * (1.0 + unit_c.euclid_norm())
            or not nr.is_real(1e-6) or abs(float(nr.coeffs[0]) - 1) > 1e-4):
        raise RefinementFailed(f"sphere ({alpha:.4g}, {beta:.4g}): recovered "
                               "direction is not an imaginary unit")
    return algebra.from_real(alpha) + beta * unit_c


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
    sphere of zeros otherwise; the factor is divided out, and the search
    repeats on the quotient q.  Stage two: each zero of q is isolated,
    alpha + beta I with I = -F_0 F_1^-1 on the sphere of a root
    alpha + i beta of the normal polynomial q q^c.  The roots of R and
    q q^c come from the Aberth-Ehrlich iteration (Bini, Numer. Algorithms
    13, 1996) started on a circle of the Fujiwara radius.  A real or
    isolated zero x is accepted on its residual |p(x)|, evaluated by
    poly_eval's Horner rule, when it is within the bound.

    RefinementFailed is raised when that I is not a unit, a zero's
    residual is above the bound, or R or q q^c leaves the normal float
    range; HypersliceError, when coefficients or their norms are not
    finite; EmptyUnitSphere, when the algebra has no imaginary unit.
    """
    if p.n != 1:
        raise AlgebraMismatch("roots_one_var handles one variable, the "
                              f"polynomial has {p.n}; use zero_scan for fibers")
    algebra = p.algebra
    coeffs = _dense_coeffs(p)
    if len(coeffs) < 2:
        raise ConstantPolynomial("polynomial has no nonconstant term")
    if algebra.kind.startswith("clifford"):
        _check_clifford_form(coeffs, algebra)
    algebra.default_imaginary_unit()  # EmptyUnitSphere: spheres are empty
    norms = [a.euclid_norm() for a in coeffs]
    if not all(map(math.isfinite, norms)):
        raise HypersliceError("the coefficients must be finite numbers "
                              "whose norms stay in the float range")
    scale = max(norms)
    bound = RESIDUAL_SCALE * (1.0 + scale)
    floats = [tuple(map(float, a.coeffs)) for a in coeffs]
    stem = [[c / scale for c in a] for a in floats]
    # unscaled, so that a tiny leading row does not underflow its norm
    lead = [c / norms[-1] for c in floats[-1]]
    isolated, spherical, residuals = [], [], [0.0]

    def accept_isolated(x):
        res = math.hypot(*poly_eval(p, (x,)).coeffs)
        if not res <= bound:
            raise RefinementFailed(
                f"candidate near {x.format()} has residual "
                f"{res:.2e} > {bound:.2e}")
        if all((r - x).euclid_norm() > 1e-6 * (1.0 + x.euclid_norm())
               for r in isolated):
            isolated.append(x)
            residuals.append(res)

    q = stem
    while len(q) > 1:
        r = [sum(map(mul, row, lead)) for row in q]
        found = [_settle(q, w) for w in (complex(w.real, abs(w.imag))
                                         for w in _aberth(r))
                 if scale * max(_stem_residual(q, w),
                                _stem_residual(stem, w)) <= bound]
        if not found:
            break
        excess = partial(_excess, q)
        for w in _merge(found, excess, r):
            alpha, beta = w.real + 0.0, w.imag
            if _near(w, alpha) or excess(alpha) <= excess(w):
                accept_isolated(algebra.from_real(alpha))
                q = _deflate(q, [-alpha, 1.0])
                continue
            if not any(_near(w, complex(a, b)) for a, b in spherical):
                spherical.append((alpha, beta))
                residuals.append(scale * _stem_residual(stem, w))
            q = _deflate(q, [alpha * alpha + beta * beta, -2.0 * alpha, 1.0])
    normal = [0.0] * (2 * len(q) - 1)
    for i, a in enumerate(q):
        for j, b in enumerate(q):
            normal[i + j] += sum(map(mul, a, b))
    for w in _aberth(normal) if len(q) > 1 else ():
        if w.imag >= 0:
            accept_isolated(_isolated_zero(algebra, q, w))
    return ZeroReport(isolated, spherical, max(residuals))


# -- multivariable fiber scan ----------------------------------------------


class FiberRecord(namedtuple("FiberRecord", "sample kind report")):
    def __repr__(self):
        pt = ", ".join(x.format() for x in self.sample)
        return f"FiberRecord(({pt}): {self.kind})"


class ScanReport:
    """Fiber taxonomy over the sampled base points."""

    def __init__(self, records):
        self.records = list(records)

    def counts(self):
        return dict(Counter(rec.kind for rec in self.records))

    def nonempty(self):
        return any(rec.report is not None and not rec.report.empty
                   for rec in self.records)

    def to_json(self):
        fibers = [{"sample": [[encode_number(c) for c in x.coeffs]
                              for x in rec.sample],
                   "kind": rec.kind,
                   "report": rec.report.to_json() if rec.report else None}
                  for rec in self.records]
        return {"fibers": fibers, "counts": self.counts()}

    def csv_rows(self):
        yield ("sample", "kind", "isolated", "spherical", "residual_max")
        for rec in self.records:
            pt, rep = "; ".join(x.format() for x in rec.sample), rec.report
            yield (pt, rec.kind, "", "", "") if rep is None else (
                pt, rec.kind, " | ".join(r.format() for r in rep.isolated),
                " | ".join(f"({a:.6g}, {b:.6g})" for a, b in rep.spherical),
                f"{rep.residual_max:.3e}")


def restrict_to_first_variable(f, sample):
    """One-variable polynomial in x_1 with the other variables fixed.

    The coefficient of x_1^k is poly_eval's nested Horner in x_2 .. x_n of
    the terms with l_1 = k at sample, from one trie (_fold_trailing).
    """
    A = f.algebra
    came = next((e.algebra for e in sample if e.algebra != A), A)
    check_space("sample", len(sample), came, f.n - 1, A)
    folded = _fold_trailing(f, [e.left_rows() for e in sample])
    return OrderedPolynomial(1, A, {(k,): A.element(q)
                                    for k, q in folded.items()})


def fiber_kind(report):
    if report.spherical:
        return ("mixed" if report.isolated
                else f"spheres({len(report.spherical)})")
    return f"finite({len(report.isolated)})"


def _constant_kind(f, sample, constant):
    """zero_scan's kind of the fiber whose restriction is the constant."""
    norms = [x.euclid_norm() for x in sample]
    # products, not powers, so that an overflow reads inf, not an error
    size = sum(a.euclid_norm() * math.prod(
        r for r, e in zip(norms, ell[1:]) for _ in range(e))
        for ell, a in f.terms.items() if not ell[0])
    return ("identically-zero" if constant.euclid_norm() <= 1e-12 * size
            < math.inf else "empty-leading-degenerate")


def zero_scan(f, samples):
    """Fiber taxonomy of the projection onto the trailing variables.

    samples is an iterable of tuples of Elements for (x_2 .. x_n).  A
    fiber whose restricted polynomial degenerates to a constant c reports
    identically-zero when |c| is at most 1e-12 times the size of the terms
    that sum to it, sum over l_1 = 0 of |a_l| prod_h |x_h|^{l_h}, and that
    size is finite, so rounding reads as zero at any scale of f; it
    reports empty-leading-degenerate otherwise.  Root-finding errors
    propagate.
    """
    if f.n < 2:
        raise AlgebraMismatch("zero_scan needs at least two variables, "
                              f"the polynomial has {f.n}; use roots_one_var")
    records = []
    for sample in map(tuple, samples):
        restricted = restrict_to_first_variable(f, sample)
        report = roots_one_var(restricted) if restricted.degree() else None
        kind = fiber_kind(report) if report else _constant_kind(
            f, sample, restricted.terms.get((0,), f.algebra.zero()))
        records.append(FiberRecord(sample, kind, report))
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
        cls, point = idx % 4, []
        for _ in range(nvars - 1):
            x = (algebra.from_real(rng.uniform(-span, span)) if cls % 3 == 0
                 else algebra.zero())
            if cls:
                x = x + ((rng.uniform(0.1, span) if cls != 2 else 1)
                         * _random_unit(algebra, rng))
            point.append(x)
        out.append(tuple(point))
    return out
