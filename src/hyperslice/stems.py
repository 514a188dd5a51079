"""Stem functions with values in A tensor R^(2^n): exact polynomial calculus.

A stem assigns to each subset K of {1..n} a component F_K, a polynomial in
the 2n real variables (alpha_1, beta_1, ..., alpha_n, beta_n) with Element
coefficients.  The parity law (F_K even in beta_h for h not in K, odd for
h in K) is enforced structurally: constructors reject violating monomials,
so every StemPoly in circulation is a genuine stem function.

Components are sparse dicts {exponent tuple -> Element}; exponent index
2(h-1) is the alpha_h degree and 2(h-1)+1 the beta_h degree.  All calculus
here (products, complex structures, Cauchy-Riemann operators) is exact on
exact coefficients; identities like Leibniz hold with zero tolerance.
"""

import math
from fractions import Fraction

from . import sparse
from .algebra import decode_number, encode_number
from .errors import AlgebraMismatch, IndexOutOfRange, ParityError

HALF = Fraction(1, 2)


class SubsetIndex(int):
    """Subset of {1..n} as a bitmask; bit h-1 set means h is a member."""

    @classmethod
    def of(cls, *members):
        mask = 0
        for h in members:
            if h < 1:
                raise IndexOutOfRange(f"variable index {h} must be >= 1")
            mask |= 1 << (h - 1)
        return cls(mask)

    @property
    def size(self):
        return self.bit_count()

    def sym_diff(self, other):
        return SubsetIndex(self ^ other)

    def meet(self, other):
        return SubsetIndex(self & other)

    def contains(self, h):
        return bool(self >> (h - 1) & 1)

    def members(self):
        return tuple(h + 1 for h in range(self.bit_length()) if self >> h & 1)

    def __repr__(self):
        return "{" + ",".join(str(h) for h in self.members()) + "}"


def subsets(n):
    """All subsets of {1..n} in mask order."""
    return [SubsetIndex(mask) for mask in range(1 << n)]


def parity_ok(mask, exponents, n):
    """Monomial parity: beta_h degree must be odd exactly when h is in K."""
    for h in range(n):
        if (exponents[2 * h + 1] & 1) != (mask >> h & 1):
            return False
    return True


class StemValue:
    """A single value in A tensor R^(2^n): one Element per subset."""

    __slots__ = ("n", "algebra", "components")

    def __init__(self, n, algebra, components):
        components = tuple(components)
        if len(components) != 1 << n:
            raise AlgebraMismatch(
                f"need {1 << n} components, got {len(components)}")
        self.n = n
        self.algebra = algebra
        self.components = components

    def __getitem__(self, mask):
        return self.components[mask]

    def __add__(self, other):
        return StemValue(self.n, self.algebra,
                         [a + b for a, b in zip(self.components,
                                                other.components)])

    def __sub__(self, other):
        return StemValue(self.n, self.algebra,
                         [a - b for a, b in zip(self.components,
                                                other.components)])

    def __mul__(self, scalar):
        return StemValue(self.n, self.algebra,
                         [c * scalar for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, StemValue) and self.n == other.n
                and self.components == other.components)

    def approx_eq(self, other, tol):
        return all((a - b).is_zero(tol)
                   for a, b in zip(self.components, other.components))

    def __repr__(self):
        body = ", ".join(f"{SubsetIndex(m)!r}: {c.format()}"
                         for m, c in enumerate(self.components))
        return f"StemValue({body})"


class StemPoly:
    """Polynomial stem function; parity checked at construction."""

    is_polynomial = True

    def __init__(self, n, algebra, components, _skip_check=False):
        self.n = n
        self.algebra = algebra
        comps = {}
        for mask, poly in components.items():
            clean = {}
            for exp, coeff in poly.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != 2 * n:
                    raise ParityError(
                        f"exponent tuple {exp} has length {len(exp)}, need {2 * n}")
                if not coeff.is_zero(0):
                    clean[exp] = coeff
            if clean:
                comps[SubsetIndex(mask)] = clean
        if not _skip_check:
            bad = _parity_violations(n, comps)
            if bad:
                mask, exp = bad[0]
                raise ParityError(
                    f"component {SubsetIndex(mask)!r} monomial {exp} violates "
                    f"the beta-parity law ({len(bad)} violations total)")
        self.components = comps

    @classmethod
    def zero(cls, n, algebra):
        return cls(n, algebra, {})

    @classmethod
    def constant(cls, a, n):
        return cls(n, a.algebra, {0: {(0,) * (2 * n): a}})

    def component(self, mask):
        return dict(self.components.get(SubsetIndex(mask), {}))

    def value_at(self, z):
        """Evaluate every component at z = ((alpha_h, beta_h))_h."""
        flat = []
        for ab in z:
            flat.extend(ab)
        zero = self.algebra.zero()
        vals = [sparse.value(self.components.get(mask, {}), flat, zero)
                for mask in range(1 << self.n)]
        return StemValue(self.n, self.algebra, vals)

    def on_slice(self, J):
        """The stem on the slice of J as one polynomial: sum_K J^|K| F_K."""
        powers = (self.algebra.one(), J, -1 * self.algebra.one(), -1 * J)
        out = {}
        for mask, poly in self.components.items():
            sparse.add_into(out, poly, powers[mask.bit_count() % 4])
        return out

    def __add__(self, other):
        self._check(other)
        out = {m: dict(p) for m, p in self.components.items()}
        for m, p in other.components.items():
            sparse.add_into(out.setdefault(m, {}), p)
        return StemPoly(self.n, self.algebra, out, _skip_check=True)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, Fraction)):
            return NotImplemented
        out = {m: {e: c * scalar for e, c in p.items()}
               for m, p in self.components.items()}
        return StemPoly(self.n, self.algebra, out, _skip_check=True)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, StemPoly) and self.n == other.n
                and self.algebra == other.algebra
                and self.components == other.components)

    def is_zero(self):
        return not self.components

    def degree(self):
        return max((sum(e) for p in self.components.values() for e in p),
                   default=0)

    def _check(self, other):
        if self.n != other.n or self.algebra != other.algebra:
            raise AlgebraMismatch("stems over different spaces")

    def __repr__(self):
        return f"StemPoly(n={self.n}, components={len(self.components)})"

    def to_json(self):
        comps = {}
        for mask, poly in self.components.items():
            terms = []
            # graded lexicographic order keeps serialization deterministic
            for exp in sorted(poly, key=lambda e: (sum(e), e)):
                terms.append({
                    "exponents": list(exp),
                    "coeff": [encode_number(c) for c in poly[exp].coeffs],
                })
            comps[str(int(mask))] = terms
        return {"n": self.n, "algebra": self.algebra.kind, "components": comps}

    @classmethod
    def from_json(cls, obj, algebra):
        comps = {}
        for key, terms in obj["components"].items():
            poly = {}
            for t in terms:
                coeff = algebra.element([decode_number(c) for c in t["coeff"]])
                poly[tuple(t["exponents"])] = coeff
            comps[int(key)] = poly
        return cls(obj["n"], algebra, comps)


class CallableStem:
    """Numeric stem adapter: a closure producing the 2^n component values.

    Exists for non-polynomial stems (the sliceness tester and boundary
    kernels); none of the symbolic calculus applies to it.
    """

    is_polynomial = False

    def __init__(self, n, algebra, fn):
        self.n = n
        self.algebra = algebra
        self.fn = fn

    def value_at(self, z):
        vals = tuple(self.fn(z))
        return StemValue(self.n, self.algebra, vals)


def _parity_violations(n, components):
    out = []
    for mask, poly in components.items():
        for exp in poly:
            if not parity_ok(mask, exp, n):
                out.append((SubsetIndex(mask), exp))
    return out


def stem_parity_check(F):
    """Diagnostic: list of (K, exponents) monomials violating parity."""
    return _parity_violations(F.n, F.components)


class SigmaTable:
    """Sign table sigma(K,H) defining a symmetric-difference product."""

    def __init__(self, n, values, hypercomplex=False):
        self.n = n
        size = 1 << n
        table = [[0] * size for _ in range(size)]
        for K in range(size):
            for H in range(size):
                v = values(K, H) if callable(values) else values[K][H]
                if v not in (1, -1):
                    raise ParityError(f"sigma({K},{H}) = {v} is not a sign")
                table[K][H] = v
        for K in range(size):
            if table[K][0] != 1 or table[0][K] != 1:
                raise ParityError(
                    "sigma must satisfy sigma(K,0) = sigma(0,K) = 1")
        self.table = tuple(tuple(row) for row in table)
        self.hypercomplex = hypercomplex
        if hypercomplex:
            self._verify_hypercomplex()

    def __call__(self, K, H):
        return self.table[K][H]

    def _verify_hypercomplex(self):
        for h in range(self.n):
            if self.table[1 << h][1 << h] != -1:
                raise ParityError(
                    f"hypercomplex needs sigma(e{h + 1}, e{h + 1}) = -1")
        # each e_K must factor through the ordered product of its singletons
        for K in range(1 << self.n):
            cur, sign = 0, 1
            for h in range(self.n):
                if K >> h & 1:
                    sign *= self.table[cur][1 << h]
                    cur ^= 1 << h
            if sign != 1:
                raise ParityError(
                    f"hypercomplex factorization fails at K={SubsetIndex(K)!r}")


def sigma_tensor(n):
    """The tensor sign table sigma(K,H) = (-1)^|K meet H|."""
    return SigmaTable(n, lambda K, H: -1 if (K & H).bit_count() % 2 else 1,
                      hypercomplex=True)


def stem_product(F, G, sigma):
    """(FG)_K = sum over H xor L = K of sigma(H,L) F_H G_L.

    Element coefficient products keep the order F then G; the result is a
    stem again (parity is additive under symmetric difference).
    """
    F._check(G)
    out = {}
    for HM, p in F.components.items():
        for LM, q in G.components.items():
            sparse.add_into(out.setdefault(HM ^ LM, {}), sparse.mul(p, q),
                            sigma(HM, LM))
    return StemPoly(F.n, F.algebra, out, _skip_check=True)


def apply_complex_structure(w, h):
    """The h-th complex structure: out_{K xor {h}} gains (-1)^|K meet {h}| in_K."""
    if h < 1 or h > w.n:
        raise IndexOutOfRange(f"h = {h} outside 1..{w.n}")
    bit = 1 << (h - 1)
    if isinstance(w, StemValue):
        vals = [w.algebra.zero()] * (1 << w.n)
        for mask, c in enumerate(w.components):
            sign = -1 if mask & bit else 1
            vals[mask ^ bit] = vals[mask ^ bit] + sign * c
        return StemValue(w.n, w.algebra, vals)
    out = {}
    for mask, poly in w.components.items():
        sign = -1 if mask & bit else 1
        sparse.add_into(out.setdefault(mask ^ bit, {}), poly, sign)
    return StemPoly(w.n, w.algebra, out, _skip_check=True)


def cr_partial(F, h):
    """partial_h F: components (dF_K/dalpha_h + (-1)^|K meet {h}| dF_{K xor h}/dbeta_h)/2."""
    return _cr(F, h, +1)


def cr_partial_bar(F, h):
    """conjugate operator: minus sign on the beta derivative."""
    return _cr(F, h, -1)


def _cr(F, h, bar_sign):
    if h < 1 or h > F.n:
        raise IndexOutOfRange(f"h = {h} outside 1..{F.n}")
    bit = 1 << (h - 1)
    va = 2 * (h - 1)
    vb = va + 1
    out = {}
    for mask in set(F.components) | {m ^ bit for m in F.components}:
        acc = {}
        poly = F.components.get(mask)
        if poly:
            sparse.add_into(acc, sparse.dx(poly, va), HALF)
        other = F.components.get(mask ^ bit)
        if other:
            sign = -1 if mask & bit else 1
            sparse.add_into(acc, sparse.dx(other, vb), HALF * sign * bar_sign)
        if acc:
            out[mask] = acc
    return StemPoly(F.n, F.algebra, out, _skip_check=True)


def pq_polynomials(k):
    """(p_k, q_k) with (alpha + i beta)^k = p_k + i q_k, exact integers.

    Returned as sparse dicts in two variables (alpha, beta).
    """
    p, q = {}, {}
    for j in range(k + 1):
        c = math.comb(k, j)
        exp = (k - j, j)
        if j % 2 == 0:
            p[exp] = c * (-1) ** (j // 2)
        else:
            q[exp] = c * (-1) ** ((j - 1) // 2)
    return p, q


def monomial_stem(ell, a):
    """Stem of the ordered monomial x^ell a.

    Component K is the product of p_{ell_h} over h outside K and q_{ell_h}
    over h in K, times the coefficient a on the right.
    """
    n = len(ell)
    pq = [pq_polynomials(k) for k in ell]
    comps = {}
    for mask in range(1 << n):
        # assemble the 2n-variable monomial dict by tensoring per-variable parts
        cur = {(): 1}
        skip = False
        for h in range(n):
            part = pq[h][1] if mask >> h & 1 else pq[h][0]
            if not part:
                skip = True
                break
            nxt = {}
            for exp, c in cur.items():
                for (ea, eb), d in part.items():
                    nxt[exp + (ea, eb)] = c * d
            cur = nxt
        if skip:
            continue
        comps[mask] = {exp: c * a for exp, c in cur.items()}
    return StemPoly(n, a.algebra, comps, _skip_check=True)
