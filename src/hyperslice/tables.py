"""Multiplication table builders for the supported algebras.

Tables are monomial: the product of two basis elements is +/- another basis
element, stored as (index, sign) pairs.  This keeps exact rational arithmetic
exact and makes the dense structure-constant tensor trivial to derive.

Octonion convention
-------------------
The Fano orientation is fixed once and for all by the oriented triples

    (1,2,3) (1,4,5) (2,4,6) (3,4,7) (2,5,7) (3,6,5) (1,7,6)

meaning e1*e2 = e3 and cyclically within each triple.  This is the table
obtained by Cayley-Dickson doubling of the quaternions with doubling unit e4,
so e1*e4 = e5, e2*e4 = e6, e3*e4 = e7.  Tests depend on this orientation;
changing it silently would flip signs in octonion examples.

Clifford convention
-------------------
Cl(p,q) has generators e_1..e_{p+q} with e_i^2 = +1 for i <= p and -1 for
i > p.  Basis blades are indexed by subset bitmask (bit i-1 set means the
blade contains e_i), so the basis order is 1, e1, e2, e12, e3, e13, ...
The product of blades a and b is the blade a XOR b up to sign.  The sign
is the reordering sign of the concatenated generator word, counted from
bit pairs as in geometric-algebra software (Dorst, Fontijne & Mann,
"Geometric Algebra for Computer Science", 2007), times the square sign
of every generator the two blades share.
Conjugation is Clifford conjugation: sign (-1)^(g(g+1)/2) on grade g.
"""

from .errors import DimensionTooLarge, UnsupportedKind

OCTONION_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (2, 4, 6),
    (3, 4, 7),
    (2, 5, 7),
    (3, 6, 5),
    (1, 7, 6),
)

MAX_CLIFFORD_GENERATORS = 6

QUATERNION_NAMES = ("1", "i", "j", "k")


def octonion_table():
    """(index, sign) table and conjugation signs for the octonions."""
    dim = 8
    idx = [[0] * dim for _ in range(dim)]
    sgn = [[1] * dim for _ in range(dim)]
    for a in range(dim):
        idx[0][a] = idx[a][0] = a
    for a in range(1, dim):
        idx[a][a] = 0
        sgn[a][a] = -1
    for a, b, c in OCTONION_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            idx[x][y] = z
            sgn[x][y] = 1
            idx[y][x] = z
            sgn[y][x] = -1
    conj = [1] + [-1] * 7
    return idx, sgn, conj


def _blade_product(a, b, square_signs):
    """Multiply blades given as bitmasks; returns (mask, sign).

    Each pair of a generator in a above a generator in b takes one swap to
    reorder, so the reordering sign is (-1)^swaps with
    swaps = sum_{k>=1} popcount((a >> k) & b); each generator in a & b then
    meets itself and contributes its square sign.
    """
    swaps = sum(((a >> k) & b).bit_count() for k in range(1, len(square_signs)))
    sign = -1 if swaps % 2 else 1
    for i, square in enumerate(square_signs):
        if (a & b) >> i & 1:
            sign *= square
    return a ^ b, sign


def clifford_table(p, q):
    """(index, sign) table, conjugation signs and names for Cl(p,q)."""
    if p < 0 or q < 0:
        raise UnsupportedKind(f"invalid Clifford signature ({p},{q})")
    m = p + q
    if m > MAX_CLIFFORD_GENERATORS:
        raise DimensionTooLarge(
            f"Cl({p},{q}) needs a {2 ** m}-dimensional table; supported up to "
            f"{MAX_CLIFFORD_GENERATORS} generators"
        )
    square_signs = [1] * p + [-1] * q
    dim = 1 << m
    idx = [[0] * dim for _ in range(dim)]
    sgn = [[1] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            mask, sign = _blade_product(a, b, square_signs)
            idx[a][b] = mask
            sgn[a][b] = sign
    conj = []
    for a in range(dim):
        g = a.bit_count()
        conj.append(-1 if (g * (g + 1) // 2) % 2 else 1)
    names = []
    for a in range(dim):
        if a == 0:
            names.append("1")
        else:
            names.append("e" + "".join(str(i + 1) for i in range(m) if a >> i & 1))
    return idx, sgn, conj, names
