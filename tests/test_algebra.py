"""Table construction, involution, cone geometry, ordered products, splitting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperslice.algebra import (
    AlgebraDef,
    algebra_from_json,
    algebra_to_json,
    cone_decompose,
    conj,
    encode_number,
    invert,
    is_imaginary_unit,
    make_algebra,
    norm_sq,
    ordered_inverse_product,
    ordered_product,
    splitting_basis,
    trace,
)
from hyperslice.errors import (
    AlgebraMismatch,
    DimensionTooLarge,
    EmptyUnitSphere,
    HypersliceError,
    NotImaginaryUnit,
    NotInQuadraticCone,
    NotInvertible,
    SplittingFailed,
    UnsupportedKind,
)

from conftest import random_element, random_imaginary_unit
from oracles import approx_eq

TOL = 1e-12


def test_quaternion_relations(H):
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * i == j
    assert i * i == -H.one()
    assert (i + j) * (i + j) == H.from_real(-2)


def test_octonions_not_associative(O):
    e = [O.basis(t) for t in range(8)]
    left = (e[1] * e[2]) * e[4]
    right = e[1] * (e[2] * e[4])
    assert left == e[7]
    assert right == -e[7]


def test_octonion_defining_products(O):
    e = [O.basis(t) for t in range(8)]
    assert e[1] * e[2] == e[3]
    assert e[1] * e[4] == e[5]
    assert e[2] * e[4] == e[6]
    assert e[3] * e[4] == e[7]
    for t in range(1, 8):
        assert e[t] * e[t] == -O.one()


def test_clifford_signs(CL11):
    e1 = CL11.basis_named("e1")
    e2 = CL11.basis_named("e2")
    assert e1 * e1 == CL11.one()
    assert e2 * e2 == -CL11.one()
    assert e1 * e2 == -(e2 * e1)


CLIFFORD_SIGNATURES = [(p, m - p) for m in range(7) for p in range(m + 1)]


@pytest.mark.parametrize("p,q", CLIFFORD_SIGNATURES)
def test_clifford_tables_satisfy_the_defining_relations(p, q):
    np = pytest.importorskip("numpy")
    A = make_algebra("clifford", (p, q))
    m = p + q
    gens = [A.basis(1 << i) for i in range(m)]
    for i, e in enumerate(gens):
        assert e * e == (A.one() if i < p else -A.one())
        for f in gens[:i]:
            assert e * f == -(f * e)
    for mask in range(A.dim):
        product = A.one()
        for i in range(m):
            if mask >> i & 1:
                product = product * gens[i]
        assert product == A.basis(mask)
        g = mask.bit_count()
        assert A.conj_signs[mask] == (-1) ** (g * (g + 1) // 2)
    # (e_a e_b) e_c == e_a (e_b e_c) on every triple of blades
    idx = np.array(A.mul_index)
    sgn = np.array(A.mul_sign)
    a, b, c = np.ix_(*[np.arange(A.dim)] * 3)
    ab, bc = idx[a, b], idx[b, c]
    assert (idx[ab, c] == idx[a, bc]).all()
    assert (sgn[a, b] * sgn[ab, c] == sgn[b, c] * sgn[a, bc]).all()
    assert A.associative


def test_quaternions_match_clifford02(H):
    C = make_algebra("clifford", (0, 2))
    assert C.mul_index == H.mul_index
    assert C.mul_sign == H.mul_sign
    assert C.conj_signs == H.conj_signs


def test_make_algebra_errors():
    with pytest.raises(UnsupportedKind):
        make_algebra("sedenions")
    with pytest.raises(DimensionTooLarge):
        make_algebra("clifford", (4, 3))
    # string signature spelling
    A = make_algebra("clifford(1,1)")
    assert A.dim == 4 and A.kind == "clifford(1,1)"


def test_unknown_names_signatures_and_mixed_operands_are_refused(H, O):
    with pytest.raises(AlgebraMismatch, match="no basis element named"):
        H.basis_named("e7")
    with pytest.raises(AlgebraMismatch, match="operands from"):
        H.one() + O.one()
    for kind in ("clifford(1,x)", "clifford(1)"):
        with pytest.raises(UnsupportedKind, match="cannot parse Clifford"):
            make_algebra(kind)
    with pytest.raises(UnsupportedKind, match="requires a"):
        make_algebra("clifford")


def test_anti_involution_exact(H, O, CL03, rng):
    for A in (H, O, CL03):
        for _ in range(50):
            x = random_element(A, rng, exact=True)
            y = random_element(A, rng, exact=True)
            assert conj(x * y) == conj(y) * conj(x)
            assert conj(conj(x)) == x
        r = A.from_real(Fraction(7, 3))
        assert conj(r) == r


def test_alternativity_exact(O, rng):
    for _ in range(50):
        x = random_element(O, rng, exact=True)
        y = random_element(O, rng, exact=True)
        assert (x * x) * y == x * (x * y)
        assert (y * x) * x == y * (x * x)


def test_artin_bracketings(O, rng):
    # words in two letters: all bracketings of length-4 products agree
    for _ in range(20):
        x = random_element(O, rng, exact=True)
        y = random_element(O, rng, exact=True)
        w = [x, y, x, y]
        a = ((w[0] * w[1]) * w[2]) * w[3]
        b = (w[0] * (w[1] * w[2])) * w[3]
        c = w[0] * ((w[1] * w[2]) * w[3])
        d = w[0] * (w[1] * (w[2] * w[3]))
        e = (w[0] * w[1]) * (w[2] * w[3])
        assert a == b == c == d == e


def test_trace_norm_examples(H, CL03):
    x = H.element([2, 3, 0, 0])
    assert trace(x) == H.from_real(4)
    assert norm_sq(x) == H.from_real(13)
    ij = H.basis_named("i") + H.basis_named("j")
    assert norm_sq(ij) == H.from_real(2)
    e123 = CL03.basis_named("e123")
    assert trace(e123) == 2 * e123


def test_cone_decompose_basic(H, O):
    i = H.basis_named("i")
    x = H.from_real(1) + 2 * i
    dec = cone_decompose(x)
    assert dec.alpha == 1 and dec.beta == 2
    assert dec.unit == i
    assert dec.compose() == x

    three = O.from_real(3)
    dec = cone_decompose(three)
    assert dec.alpha == 3 and dec.beta == 0
    assert dec.unit == O.basis(1)

    # beta^2 = 2 has no exact root: beta is a float, alpha stays the int 0
    dec = cone_decompose(H.element((0, 1, 1, 0)))
    assert type(dec.alpha) is int and dec.alpha == 0
    assert dec.beta == math.sqrt(2)


def test_cone_decompose_rejects(CL03):
    e123 = CL03.basis_named("e123")
    with pytest.raises(NotInQuadraticCone):
        cone_decompose(e123)
    # nonreal norm without nonreal trace: mixed vector+trivector fails too
    bad = CL03.basis_named("e1") + CL03.basis_named("e123")
    with pytest.raises(NotInQuadraticCone):
        cone_decompose(bad)


def test_cone_is_everything_for_division_algebras(H, O, rng):
    for A in (H, O):
        for _ in range(200):
            x = random_element(A, rng)
            dec = cone_decompose(x)
            assert (dec.compose() - x).is_zero(1e-12 * max(1.0, x.euclid_norm()))
            if dec.beta > 0:
                assert abs(norm_sq(dec.unit).real_coeff() - 1) < 1e-9


def test_cl03_cone_characterization(CL03, rng):
    # membership iff the e123 coefficient vanishes and <a, a*e123> = 0
    e123 = CL03.basis_named("e123")
    idx = CL03.basis_index("e123")
    hits = 0
    for _ in range(300):
        a = random_element(CL03, rng)
        prod = a * e123
        pairing = sum(float(u) * float(v) for u, v in zip(a.coeffs, prod.coeffs))
        member = abs(float(a.coeffs[idx])) < 1e-12 and abs(pairing) < 1e-10
        try:
            cone_decompose(a, tol=1e-7)
            ok = True
        except NotInQuadraticCone:
            ok = False
        assert ok == member
        hits += member
    assert hits < 300  # generic elements must be rejected


def test_cl03_cone_members_accepted(CL03, rng):
    # construct members: a = alpha + v with v in span(e1,e2,e3,e23,e13,e12)
    # and <v, v*e123> = 0; grade-1 only vectors satisfy it automatically
    for _ in range(50):
        coeffs = [0.0] * 8
        coeffs[0] = rng.uniform(-2, 2)
        for name in ("e1", "e2", "e3"):
            coeffs[CL03.basis_index(name)] = rng.uniform(-2, 2)
        a = CL03.element(coeffs)
        dec = cone_decompose(a)
        assert (dec.compose() - a).is_zero(1e-12)
        # paravector norm agrees with the euclidean norm on the cone
        assert abs(norm_sq(a).real_coeff() - a.euclid_norm_sq()) < 1e-10


def test_norm_assumption_on_cone(H, O, CL03, rng):
    # ||x||^2 = n(x) for cone points of H, O, Cl(0,3)
    for A in (H, O):
        for _ in range(50):
            x = random_element(A, rng)
            assert abs(norm_sq(x).real_coeff() - x.euclid_norm_sq()) < 1e-9
    for _ in range(50):
        x = random_imaginary_unit(CL03, rng)
        assert abs(x.euclid_norm_sq() - 1) < 1e-9


def test_cl11_hyperboloid_unit(CL11):
    s = 0.7
    x = math.cosh(s) * CL11.basis_named("e2") + math.sinh(s) * CL11.basis_named("e12")
    assert is_imaginary_unit(x)
    # but a vector outside the cone sheet is not a unit
    assert not is_imaginary_unit(CL11.basis_named("e1"))


def test_cl11_cone_condition(CL11):
    e1 = CL11.basis_named("e1")
    with pytest.raises(NotInQuadraticCone) as err:
        cone_decompose(CL11.from_real(0.5) + e1)
    assert "not positive" in str(err.value)


def test_invert(H, CL03, rng):
    i = H.basis_named("i")
    assert invert(i) == -i
    for _ in range(20):
        x = random_element(H, rng)
        y = invert(x)
        assert approx_eq(x * y, H.one(), 1e-10)
        assert approx_eq(y * x, H.one(), 1e-10)
    # exact cone inverse stays exact
    x = H.element([Fraction(1), Fraction(2), 0, 0])
    y = invert(x)
    assert y == H.element([Fraction(1, 5), Fraction(-2, 5), 0, 0])
    # outside the cone: 2 + e123 and 1 + e123 have a nonreal trace
    for r in (2, 1):
        with pytest.raises(NotInQuadraticCone, match="trace not real"):
            invert(CL03.from_real(r) + CL03.basis_named("e123"))


def test_invert_refusals(H, CL03):
    with pytest.raises(NotInvertible, match="too small"):
        invert(H.zero())
    # t(e1 + e23) = 0, but n(e1 + e23) = 2 - 2 e123
    x = CL03.basis_named("e1") + CL03.basis_named("e23")
    with pytest.raises(NotInQuadraticCone, match="norm not real"):
        invert(x)


def test_ordered_product(H, O, rng):
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    assert ordered_product((i, j), k) == H.from_real(-1)
    v = random_element(H, rng)
    assert ordered_product((), v) == v

    e = [O.basis(t) for t in range(8)]
    u = (e[1], e[3], e[5])
    v = e[2] + 2 * e[6]
    w = ordered_product(u, v)
    assert ordered_inverse_product(u, w) == v


@pytest.mark.parametrize("exact", (False, True), ids=("int", "fraction"))
def test_quaternion_products_match_sympy(H, rng, exact):
    # an oracle outside the package: sympy's Hamilton product, i j = k
    sympy = pytest.importorskip("sympy")
    from sympy.algebras.quaternion import Quaternion
    assert H.basis_names == ("1", "i", "j", "k")

    def draw():
        if exact:
            return random_element(H, rng, exact=True)
        return H.element([rng.randint(-9, 9) for _ in range(4)])

    def quaternion(x):
        return Quaternion(*(sympy.Rational(c.numerator, c.denominator)
                            for c in x.coeffs))

    for _ in range(100):
        x, y = draw(), draw()
        got = (x * y).coeffs
        want = quaternion(x) * quaternion(y)
        assert got == tuple(Fraction(int(c.p), int(c.q)) for c in
                            (want.a, want.b, want.c, want.d))
        if not exact:
            assert all(type(c) is int for c in got)


@settings(deadline=None, max_examples=100, database=None)
@given(st.sampled_from(("H", "O")), st.data())
def test_norm_is_multiplicative_on_fractions(kind, data):
    A = make_algebra(kind)
    coeffs = st.lists(st.fractions(-4, 4, max_denominator=12),
                      min_size=A.dim, max_size=A.dim)
    x, y = (A.element(data.draw(coeffs)) for _ in range(2))
    assert norm_sq(x * y) == norm_sq(x) * norm_sq(y)


def test_ordered_round_trip_random(O, rng):
    for _ in range(20):
        u = [random_element(O, rng) for _ in range(3)]
        v = random_element(O, rng)
        w = ordered_product(u, v)
        back = ordered_inverse_product(u, w)
        assert (back - v).is_zero(1e-10 * max(1.0, v.euclid_norm()))


def test_splitting_basis(H, O, CL11, rng):
    i = H.basis_named("i")
    basis = splitting_basis(i)
    assert basis == [H.one(), i, H.basis_named("j"), H.basis_named("k")]

    import numpy as np

    for A in (H, O, CL11):
        J = (A.basis_named("i") + A.basis_named("k") if A.kind == "quaternions"
             else A.default_imaginary_unit())
        if A.kind == "quaternions":
            J = J * (1 / math.sqrt(2))
        basis = splitting_basis(J)
        assert len(basis) == A.dim
        mat = np.array([b.coeffs for b in basis], float)
        assert abs(np.linalg.det(mat)) > 1e-8
        # the pair structure: entry 2l+1 is J * entry 2l
        for l in range(A.dim // 2):
            assert approx_eq(basis[2 * l + 1], J * basis[2 * l], 1e-12)

    for _ in range(5):
        J = random_imaginary_unit(O, rng)
        basis = splitting_basis(J)
        mat = np.array([b.coeffs for b in basis], float)
        assert abs(np.linalg.det(mat)) > 1e-10

    with pytest.raises(NotImaginaryUnit):
        splitting_basis(H.one() + i)


def _custom(names, conjs, table):
    return algebra_from_json({"dim": len(names), "basis": names,
                              "conjugation_signs": conjs, "table": table})


def test_splitting_refusals():
    # a is an imaginary unit in both tables: a^c = -a and a^2 = -1
    A = _custom(["1", "a", "b"], [1, -1, -1],
                [["1", "a", "b"], ["a", "-1", "b"], ["b", "b", "-1"]])
    with pytest.raises(SplittingFailed, match="dim 3 is odd"):
        splitting_basis(A.basis(1))
    # a b = a: left multiplication by a no longer squares to -1, so the
    # pair (b, a b) does not enlarge the span twice
    A = _custom(["1", "a", "b", "c"], [1, -1, -1, -1],
                [["1", "a", "b", "c"], ["a", "-1", "a", "c"],
                 ["b", "b", "-1", "c"], ["c", "c", "c", "-1"]])
    with pytest.raises(SplittingFailed, match=r"J\*b fell into"):
        splitting_basis(A.basis(1))


def test_algebra_def_checks_table_sizes():
    with pytest.raises(UnsupportedKind, match="table sizes disagree"):
        AlgebraDef("custom", 2, ("1",), [[0, 1], [1, 0]], [[1, 1], [1, -1]],
                   (1, -1), associative=True)


@pytest.mark.parametrize("x", (True, 1j), ids=("bool", "complex"))
def test_encode_number_refuses_non_coefficients(x):
    with pytest.raises(HypersliceError, match="coefficient"):
        encode_number(x)


def test_no_imaginary_units_refused():
    A = make_algebra("clifford", (1, 0))
    with pytest.raises(EmptyUnitSphere):
        A.default_imaginary_unit()


def test_json_round_trip(H, O):
    for A in (H, O):
        dump = algebra_to_json(A)
        back = algebra_from_json(dump)
        assert back.mul_index == A.mul_index
        assert back.mul_sign == A.mul_sign
        assert back.conj_signs == A.conj_signs
        assert back.associative == A.associative


def test_equal_algebras_hash_equal(H, O):
    # equality compares the tables, not the kind names, so the hash must too
    pairs = [(H, make_algebra("clifford(0,2)"))]
    pairs += [(A, algebra_from_json(algebra_to_json(A))) for A in (H, O)]
    for A, B in pairs:
        assert A == B and A.kind != B.kind
        assert hash(A) == hash(B)
        assert len({A, B}) == 1


def test_trace_symmetry(H, O, CL11, rng):
    # real parts of t(xy) and t(yx) agree in any *-algebra
    for A in (H, O, CL11):
        for _ in range(30):
            x = random_element(A, rng)
            y = random_element(A, rng)
            a = trace(x * y).real_coeff()
            b = trace(y * x).real_coeff()
            assert abs(a - b) < 1e-9


def test_multiplication_matrices_are_exact(H, O, CL03, CL11, rng):
    import numpy as np
    for A in (H, O, CL03, CL11):
        M = A.dense_tensor()
        for _ in range(10):
            x, v = random_element(A, rng), random_element(A, rng)
            L = np.tensordot(np.array(x.coeffs, float), M, axes=(0, 0))
            # row j is x e_j; one nonzero term per entry, so any summation
            # order agrees with the product loop
            assert np.array_equal(L, np.array(
                [(x * A.basis(j)).coeffs for j in range(A.dim)], float))
            assert np.allclose(np.array(v.coeffs, float) @ L,
                               np.array((x * v).coeffs, float))
