"""Sparse polynomials: dicts {exponent tuple: coefficient}.

Every polynomial in the package has this shape: ordered polynomials (one
exponent per variable) and stem components (exponents of alpha_1, beta_1,
..., alpha_n, beta_n).  Coefficients are real scalars (int, Fraction,
float) or Elements.  Products
keep the coefficient order ca * cb, because the algebra need not be
commutative.  Exact zeros are dropped, so equal polynomials compare equal
as dicts.
"""

from operator import add

from .algebra import Element


def _is_zero(c):
    """Exact zero test for a scalar or an Element coefficient."""
    # any() walks the coefficient tuple in C, faster than Element.is_zero
    return not any(c.coeffs) if isinstance(c, Element) else c == 0


def add_term(target, exp, coeff):
    """target[exp] += coeff in place; an entry that cancels is removed."""
    if exp in target:
        s = target[exp] + coeff
        if _is_zero(s):
            del target[exp]
        else:
            target[exp] = s
    elif not _is_zero(coeff):
        target[exp] = coeff


def add_into(target, source, scale=1):
    """target += scale * source in place; an Element scale acts on the left."""
    for exp, coeff in source.items():
        add_term(target, exp, coeff if scale == 1 else scale * coeff)


def mul(p, q):
    """The product p q, each coefficient product taken as ca * cb."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            add_term(out, tuple(map(add, ea, eb)), ca * cb)
    return out


def dx(p, var):
    """Partial derivative in exponent slot var."""
    out = {}
    for exp, coeff in p.items():
        k = exp[var]
        if k:
            add_term(out, exp[:var] + (k - 1,) + exp[var + 1:], k * coeff)
    return out

