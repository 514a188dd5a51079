"""Stem functions with values in A tensor R^(2^n): exact polynomial calculus.

A stem assigns to each subset K of {1..n} a component F_K, a polynomial in
the 2n real variables (alpha_1, beta_1, ..., alpha_n, beta_n) with Element
coefficients.  The parity law (F_K even in beta_h for h not in K, odd for
h in K) is checked on outside input (the constructor, from_json) and kept
by sums, products and the Cauchy-Riemann operators.

K is an int mask, bit h-1 set when h is a member.  Components are sparse
dicts {exponent tuple -> Element}; exponent index 2(h-1) is the alpha_h
degree and 2(h-1)+1 the beta_h degree.  All calculus here (products and
Cauchy-Riemann operators) is exact on exact coefficients; identities like
Leibniz hold with zero tolerance.
"""

import math
from fractions import Fraction
from operator import itemgetter

from . import sparse
from .algebra import (Element, decode_number, encode_number,
                      is_imaginary_unit)
from .errors import (AlgebraMismatch, HypersliceError, IndexOutOfRange,
                     ParityError)

HALF = Fraction(1, 2)
_BLOCK = 8  # terms per accumulation kernel
_KERNELS = {}  # (dim, size) -> kernel, so at most _BLOCK per dimension


def _kernel(dim, size):
    """kernel(t, C, S): coordinate i is t[i] + C[i] * S[0] + C[dim + i] * S[1]
    + ... over size terms whose coefficient tuples C chains, in straight-line
    code with the operations, in order, of a loop adding one term at a time.
    Generated on first use and kept for the process.
    """
    if (dim, size) not in _KERNELS:
        sums = ", ".join(" + ".join([f"t[{i}]"] + [
            f"C[{j * dim + i}] * S[{j}]" for j in range(size)])
            for i in range(dim))
        _KERNELS[dim, size] = eval(f"lambda t, C, S: ({sums},)")
    return _KERNELS[dim, size]


def _format_mask(mask):
    """The subset of a mask as '{1,3}': bit h-1 set means h is a member."""
    return "{" + ",".join(str(h + 1) for h in range(mask.bit_length())
                          if mask >> h & 1) + "}"


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

    def __eq__(self, other):
        return (isinstance(other, StemValue) and self.n == other.n
                and self.components == other.components)

    def __repr__(self):
        body = ", ".join(f"{_format_mask(m)}: {c.format()}"
                         for m, c in enumerate(self.components))
        return f"StemValue({body})"


class StemPoly:
    """Polynomial stem function; masks, exponents and parity checked.

    A component mask outside 0..2^n - 1 raises IndexOutOfRange, and an
    exponent tuple of the wrong length or with a negative entry ParityError.
    """

    is_polynomial = True

    def __init__(self, n, algebra, components, _skip_check=False):
        self.n = n
        self.algebra = algebra
        comps = {}
        for mask, poly in components.items():
            if mask < 0 or mask >> n:
                raise IndexOutOfRange(
                    f"component mask {mask} outside 0..{(1 << n) - 1}")
            clean = {}
            for exp, coeff in poly.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != 2 * n:
                    raise ParityError(
                        f"exponent tuple {exp} has length {len(exp)}, need {2 * n}")
                if min(exp, default=0) < 0:
                    raise ParityError(
                        f"exponent tuple {exp} has a negative entry")
                if coeff.algebra != algebra:
                    raise AlgebraMismatch(f"{coeff.algebra.kind} coefficient "
                                          f"in a stem over {algebra.kind}")
                if not coeff.is_zero(0):
                    clean[exp] = coeff
            if clean:
                comps[int(mask)] = clean
        if not _skip_check:
            bad = [(mask, exp) for mask, poly in comps.items() for exp in poly
                   if not parity_ok(mask, exp, n)]
            if bad:
                mask, exp = bad[0]
                raise ParityError(
                    f"component {_format_mask(mask)} monomial {exp} violates "
                    f"the beta-parity law ({len(bad)} violations total)")
        self.components = comps
        self._plan = None
        self._fold = None

    def value_at(self, z):
        """Every component at z = ((alpha_h, beta_h))_h, as Elements.

        The values come from the evaluation plan (coeffs_at); slice_eval
        reads those tuples itself and applies the units to them.
        """
        return StemValue(self.n, self.algebra,
                         [Element(self.algebra, c) for c in self.coeffs_at(z)])

    def coeffs_at(self, z):
        """The 2^n component values at z as coefficient tuples.

        The plan, built on the first call, lists the stem's distinct powers
        alpha_h^k, beta_h^k, each term's factors among them, and each
        component's terms in blocks of at most _BLOCK.  A call raises each
        power once, multiplies each term's scalar from an int 1 in slot
        order, and adds each block to its component's total, from an int 0,
        with one cached kernel: coeff[i] * scalar term by term, as a loop.
        """
        scalars = self._scalars([v for ab in z for v in ab])
        out = [(0,) * self.algebra.dim] * (1 << self.n)
        for mask, kernel, coeffs, start, stop in self._planned()[2]:
            out[mask] = kernel(out[mask], coeffs, scalars[start:stop])
        return out

    def _planned(self):
        """The evaluation plan of coeffs_at, built on first use."""
        if self._plan is None:
            index, factors, blocks = {}, [], []
            for mask, poly in self.components.items():
                terms = list(poly.items())
                for start in range(0, len(terms), _BLOCK):
                    block = terms[start:start + _BLOCK]
                    blocks.append((mask, _kernel(self.algebra.dim, len(block)),
                                   sum((c.coeffs for _, c in block), ()),
                                   len(factors), len(factors) + len(block)))
                    factors += [tuple(index.setdefault(pair, len(index))
                                      for pair in enumerate(exp) if pair[1])
                                for exp, _ in block]
            self._plan = tuple(index), factors, blocks
        return self._plan

    def _scalars(self, flat):
        """Each planned term's scalar at flat = (alpha_1, beta_1, ...)."""
        powers, factors, _ = self._planned()
        table = [flat[slot] ** k for slot, k in powers]
        scalars = []
        for term in factors:
            scalar = 1
            for i in term:
                scalar = scalar * table[i]
            scalars.append(scalar)
        return scalars

    def slice_coeffs(self, J, flat):
        """The stem collapsed by J, sum over terms t of s_t(flat) J^|K_t| c_t,
        at flat = (alpha_1, beta_1, ...) as a coefficient tuple; None if J
        fails is_imaginary_unit (DEFAULT_TOL).

        J^|K| c is c, Jc, -c or -(Jc) by |K| mod 4 (on_slice's powers), Jc
        one AlgebraDef.product.  These folded coefficients are kept for the
        last J, told apart by coefficient values and types; a failed check
        is kept too.  The terms run in plan order, each scalar as coeffs_at
        makes it, added one at a time to one total from an int 0.
        """
        key = J.coeffs, tuple(map(type, J.coeffs))
        if self._fold is None or self._fold[0] != key:
            self._fold = key, self._folded(J)
        blocks = self._fold[1]
        if blocks is None:
            return None
        scalars = self._scalars(flat)
        total = (0,) * self.algebra.dim
        for kernel, coeffs, start, stop in blocks:
            total = kernel(total, coeffs, scalars[start:stop])
        return total

    def _folded(self, J):
        """slice_coeffs' kernel blocks at J, or None if J is no unit."""
        if not is_imaginary_unit(J):
            return None
        dim, rows = self.algebra.dim, J.left_rows()
        folded = []
        for mask, _, coeffs, _, _ in self._planned()[2]:
            power = mask.bit_count() % 4
            for i in range(0, len(coeffs), dim):
                c = coeffs[i:i + dim]
                if power & 1:
                    c = self.algebra.product(rows, c)
                if power & 2:
                    c = tuple(-v for v in c)
                folded.append(c)
        return [(_kernel(dim, len(block)), sum(block, ()), start,
                 start + len(block))
                for start in range(0, len(folded), _BLOCK)
                for block in [folded[start:start + _BLOCK]]]

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
        """Inverse of to_json; the document is outside input.

        A document of the wrong shape, or with a coefficient decode_number
        refuses, raises HypersliceError, and one written over another
        algebra kind AlgebraMismatch; the constructor checks the rest.
        """
        try:
            n, kind = obj["n"], obj["algebra"]
            comps = {}
            for key, terms in obj["components"].items():
                poly = comps[int(key)] = {}
                for t in terms:
                    exp = tuple(t["exponents"])
                    if not all(type(e) is int for e in exp):
                        raise HypersliceError(f"exponents {exp} are not ints")
                    poly[exp] = algebra.element(map(decode_number, t["coeff"]))
        except (AttributeError, KeyError, TypeError, ValueError):
            raise HypersliceError(
                "a stem document needs n, algebra and components, a map from "
                "masks to terms with exponents and coeff") from None
        if type(n) is not int or n < 0:
            raise HypersliceError(f"n must be an int >= 0, got {n!r}")
        if kind != algebra.kind:
            raise AlgebraMismatch(
                f"the document is a stem over {kind!r}, not {algebra.kind!r}")
        return cls(n, algebra, comps)


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


class SigmaTable:
    """e_K e_H = sigma(K, H) e_(K xor H) with sigma(K, H) = (-1)^|K meet H|.

    The only sign table on subsets of {1..n} that is commutative and
    associative, has e_h e_h = -1 and e_K the product of its singletons.
    """

    def __init__(self, n):
        size = 1 << n
        self.table = tuple(
            tuple(-1 if (K & H).bit_count() % 2 else 1 for H in range(size))
            for K in range(size))

    def __call__(self, K, H):
        return self.table[K][H]


def sigma_tensor(n):
    """The tensor sign table sigma(K,H) = (-1)^|K meet H|."""
    return SigmaTable(n)


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


def binomial_terms(ell):
    """prod_h (alpha_h + i beta_h)^ell_h as a list of (exponents, c, mask).

    A term in prod_h alpha_h^(ell_h - b_h) beta_h^b_h weighs prod_h
    comb(ell_h, b_h) i^b_h, each i^b folded into the int c as (-1)^(b // 2)
    and into bit h - 1 of mask as b mod 2.  Lexicographic order in b.
    """
    terms = [((), 1, 0)]
    for h, e in enumerate(ell):
        row = [((e - b, b), (-1) ** (b // 2) * math.comb(e, b), (b & 1) << h)
               for b in range(e + 1)]
        terms = [(exp + pair, c * d, mask | bit)
                 for exp, c, mask in terms for pair, d, bit in row]
    return terms


def monomial_stem(ell, a):
    """Stem of the ordered monomial x^ell a.

    Component K is the product of p_{ell_h} over h outside K and q_{ell_h}
    over h in K, times the coefficient a on the right: the terms of
    binomial_terms(ell) with mask K, taken component by component.
    """
    comps = {}
    for exp, c, mask in sorted(binomial_terms(ell), key=itemgetter(2)):
        sparse.add_term(comps.setdefault(mask, {}), exp, c * a)
    return StemPoly(len(ell), a.algebra, comps, _skip_check=True)
