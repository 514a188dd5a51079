"""Exact stem calculus: parity, sign tables, products, CR operators."""

from fractions import Fraction

import pytest

from hyperslice.algebra import make_algebra
from hyperslice.errors import (AlgebraMismatch, HypersliceError,
                               IndexOutOfRange, ParityError)
from hyperslice.stems import (
    CallableStem,
    StemPoly,
    cr_partial,
    cr_partial_bar,
    monomial_stem,
    sigma_tensor,
    stem_product,
)

from conftest import random_element, random_real_stem, random_stem
from oracles import apply_complex_structure, pq_polynomials, stem_parity_check


def test_alternating_sum_orthogonality():
    # sum over K of (-1)^(|H meet K| + |K meet L|) = 2^n when H = L, else 0
    for n in range(1, 5):
        for H in range(1 << n):
            for L in range(1 << n):
                total = sum(
                    (-1) ** ((H & K).bit_count() + (K & L).bit_count())
                    for K in range(1 << n))
                assert total == ((1 << n) if H == L else 0)


def test_sigma_tensor_values():
    sigma = sigma_tensor(2)
    assert _is_hypercomplex_table(sigma.table, 2)
    assert sigma(0b01, 0b01) == -1
    assert sigma(0b01, 0b10) == 1
    assert sigma(0b11, 0b01) == -1
    assert sigma(0b11, 0b11) == 1
    assert all(sigma(K, 0) == 1 and sigma(0, K) == 1 for K in range(4))


def _is_hypercomplex_table(table, n):
    for h in range(n):
        if table[1 << h][1 << h] != -1:
            return False
    for K in range(1 << n):
        cur, sign = 0, 1
        for h in range(n):
            if K >> h & 1:
                sign *= table[cur][1 << h]
                cur ^= 1 << h
        if sign != 1:
            return False
    return True


def _is_commutative_associative(table, n):
    size = 1 << n
    for H in range(size):
        for L in range(size):
            if table[H][L] != table[L][H]:
                return False
            for M in range(size):
                if table[H][L] * table[H ^ L][M] != \
                        table[L][M] * table[H][L ^ M]:
                    return False
    return True


def test_tensor_sign_unique_two_variables():
    # brute force over all sign assignments on nonempty pairs
    pairs = [(K, H) for K in range(1, 4) for H in range(1, 4)]
    survivors = []
    for bits in range(1 << len(pairs)):
        table = [[1] * 4 for _ in range(4)]
        for i, (K, H) in enumerate(pairs):
            table[K][H] = -1 if bits >> i & 1 else 1
        if _is_hypercomplex_table(table, 2) and \
                _is_commutative_associative(table, 2):
            survivors.append(table)
    assert len(survivors) == 1
    expect = sigma_tensor(2)
    assert survivors[0] == [list(r) for r in expect.table]


def test_tensor_sign_unique_three_variables():
    # constraint propagation: commutativity + associativity + factorization
    # force every entry, so the tensor table is the only possibility
    n, size = 3, 8
    known = {}
    for K in range(size):
        known[(0, K)] = known[(K, 0)] = 1
    for h in range(n):
        known[(1 << h, 1 << h)] = -1
    chains = []
    for K in range(size):
        cur, chain = 0, []
        for h in range(n):
            if K >> h & 1:
                chain.append((cur, 1 << h))
                cur ^= 1 << h
        if chain:
            chains.append(chain)
    changed = True
    while changed:
        changed = False
        for chain in chains:
            unknown = [e for e in chain if e not in known]
            if len(unknown) == 1:
                prod = 1
                for e in chain:
                    if e in known:
                        prod *= known[e]
                known[unknown[0]] = prod
                changed = True
        for (K, H), v in list(known.items()):
            if (H, K) not in known:
                known[(H, K)] = v
                changed = True
        for H in range(size):
            for L in range(size):
                for M in range(size):
                    quad = ((H, L), (H ^ L, M), (L, M), (H, L ^ M))
                    vals = [known.get(e) for e in quad]
                    missing = [i for i, v in enumerate(vals) if v is None]
                    if len(missing) != 1:
                        continue
                    x = 1
                    for v in vals:
                        if v is not None:
                            x *= v
                    known[quad[missing[0]]] = x
                    changed = True
    assert len(known) == size * size
    sigma = sigma_tensor(3)
    for (K, H), v in known.items():
        assert v == sigma(K, H)


def test_pq_polynomials_low_degree():
    assert pq_polynomials(0) == ({(0, 0): 1}, {})
    assert pq_polynomials(1) == ({(1, 0): 1}, {(0, 1): 1})
    assert pq_polynomials(2) == ({(2, 0): 1, (0, 2): -1}, {(1, 1): 2})
    p3, q3 = pq_polynomials(3)
    assert p3 == {(3, 0): 1, (1, 2): -3}
    assert q3 == {(2, 1): 3, (0, 3): -1}


def test_pq_match_complex_powers(rng):
    for k in range(7):
        p, q = pq_polynomials(k)
        for _ in range(5):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            pv = sum(c * a ** e[0] * b ** e[1] for e, c in p.items())
            qv = sum(c * a ** e[0] * b ** e[1] for e, c in q.items())
            w = complex(a, b) ** k
            assert abs(complex(pv, qv) - w) < 1e-9 * (1 + abs(w))


def test_monomial_stem_two_variable_product_display(H):
    one = H.one()
    F = monomial_stem((1, 0), one)
    G = monomial_stem((0, 1), one)
    prod = stem_product(F, G, sigma_tensor(2))
    # alpha1 alpha2, beta1 alpha2, alpha1 beta2, beta1 beta2 on the four parts
    assert prod.components == {0b00: {(1, 0, 1, 0): one},
                               0b01: {(0, 1, 1, 0): one},
                               0b10: {(1, 0, 0, 1): one},
                               0b11: {(0, 1, 0, 1): one}}
    assert prod == monomial_stem((1, 1), one)


def test_stem_product_matches_ordered_monomials(H, rng):
    sigma = sigma_tensor(2)
    for _ in range(10):
        la = (rng.randrange(3), rng.randrange(3))
        lb = (rng.randrange(3), rng.randrange(3))
        a = random_element(H, rng, exact=True)
        F = monomial_stem(la, H.one())
        G = monomial_stem(lb, a)
        expect = monomial_stem(tuple(x + y for x, y in zip(la, lb)), a)
        assert stem_product(F, G, sigma) == expect


def test_parity_rejects_bad_monomial(H):
    with pytest.raises(ParityError):
        StemPoly(1, H, {0: {(0, 1): H.one()}})
    with pytest.raises(ParityError, match=r"component \{1\} monomial"):
        StemPoly(2, H, {0b01: {(2, 1, 1, 1): H.one()}})
    # wrong tuple length is caught as well
    with pytest.raises(ParityError):
        StemPoly(2, H, {0: {(1, 0): H.one()}})


def test_stem_refuses_masks_out_of_range_and_negative_exponents(H):
    one = H.one()
    for mask in (2, 5, -1):
        with pytest.raises(IndexOutOfRange):
            StemPoly(1, H, {mask: {(0, 1): one}})
    with pytest.raises(IndexOutOfRange):
        StemPoly(2, H, {4: {}})
    for exp in ((-2, 0), (0, -2), (-1, 1)):
        with pytest.raises(ParityError):
            StemPoly(1, H, {0: {exp: one}})


def test_parity_check_diagnostic(H, rng):
    F = random_stem(2, H, rng)
    assert stem_parity_check(F) == []
    raw = StemPoly(2, H, {1: {(1, 1, 0, 0): H.one()}})
    assert stem_parity_check(raw) == []


def test_stem_value_at_exact(H):
    one = H.one()
    F = monomial_stem((2,), one)
    z = ((Fraction(1, 2), Fraction(1, 3)),)
    v = F.value_at(z)
    assert v[0] == (Fraction(1, 4) - Fraction(1, 9)) * one
    assert v[1] == 2 * Fraction(1, 2) * Fraction(1, 3) * one
    assert repr(v) == "StemValue({}: 5/36, {1}: 1/3)"
    w = monomial_stem((1, 1), H.basis_named("i")).value_at(((1, 2), (3, 4)))
    assert repr(w) == "StemValue({}: 3i, {1}: 6i, {2}: 4i, {1,2}: 8i)"


def test_callable_stem_wraps_closure(H):
    stem = CallableStem(1, H, lambda z: (H.from_real(z[0][0]),
                                         H.from_real(z[0][1])))
    v = stem.value_at(((2, 5),))
    assert v[0] == H.from_real(2) and v[1] == H.from_real(5)
    assert not stem.is_polynomial and StemPoly.is_polynomial


def test_complex_structure_squares_to_minus_one(H, rng):
    F = random_stem(2, H, rng)
    for h in (1, 2):
        twice = apply_complex_structure(apply_complex_structure(F, h), h)
        assert twice == -1 * F


def test_complex_structure_flips_the_beta_parity(H):
    # J_h moves F_K to K xor {h} without touching beta_h, so J_h F is not
    # a stem; J_h J_h F = -F is one again
    F = monomial_stem((1,), H.one())
    G = apply_complex_structure(F, 1)
    assert len(stem_parity_check(G)) == 2
    assert stem_parity_check(apply_complex_structure(G, 1)) == []
    with pytest.raises(ParityError):
        StemPoly.from_json(G.to_json(), H)


def test_complex_structure_index_range(H, rng):
    F = random_stem(1, H, rng)
    with pytest.raises(IndexOutOfRange):
        apply_complex_structure(F, 0)
    with pytest.raises(IndexOutOfRange):
        apply_complex_structure(F, 2)
    with pytest.raises(IndexOutOfRange):
        cr_partial(F, 2)
    with pytest.raises(IndexOutOfRange):
        cr_partial_bar(F, 0)


def test_product_is_complex_bilinear(H, rng):
    sigma = sigma_tensor(2)
    F = random_stem(2, H, rng, deg=2, terms=2)
    G = random_stem(2, H, rng, deg=2, terms=2)
    for h in (1, 2):
        JFG = apply_complex_structure(stem_product(F, G, sigma), h)
        assert JFG == stem_product(apply_complex_structure(F, h), G, sigma)
        assert JFG == stem_product(F, apply_complex_structure(G, h), sigma)


def test_real_coefficient_stems_commute_and_associate(H, rng):
    sigma = sigma_tensor(2)
    F = random_real_stem(2, H, rng, deg=2, terms=2)
    G = random_real_stem(2, H, rng, deg=2, terms=2)
    W = random_real_stem(2, H, rng, deg=2, terms=2)
    assert stem_product(F, G, sigma) == stem_product(G, F, sigma)
    left = stem_product(stem_product(F, G, sigma), W, sigma)
    right = stem_product(F, stem_product(G, W, sigma), sigma)
    assert left == right


def test_element_coefficient_stems_need_not_commute(H):
    sigma = sigma_tensor(1)
    i, j, k = H.basis_named("i"), H.basis_named("j"), H.basis_named("k")
    F, G, FG, GF = (StemPoly(1, H, {0: {(0, 0): c}})
                    for c in (i, j, k, -1 * k))
    assert stem_product(F, G, sigma) == FG
    assert stem_product(G, F, sigma) == GF


def test_cr_operators_commute_across_variables(H, rng):
    F = random_stem(2, H, rng, deg=3, terms=3)
    assert cr_partial(cr_partial(F, 1), 2) == cr_partial(cr_partial(F, 2), 1)
    assert cr_partial_bar(cr_partial(F, 1), 2) == \
        cr_partial(cr_partial_bar(F, 2), 1)


def test_monomial_stems_satisfy_cauchy_riemann(H, O, rng):
    for algebra in (H, O):
        for _ in range(5):
            ell = tuple(rng.randrange(4) for _ in range(2))
            a = random_element(algebra, rng, exact=True)
            F = monomial_stem(ell, a)
            for h in (1, 2):
                assert not cr_partial_bar(F, h).components


def test_cr_derivative_of_powers(H):
    a = H.basis_named("j")
    for k in range(1, 5):
        F = monomial_stem((k,), a)
        expect = k * monomial_stem((k - 1,), a)
        assert cr_partial(F, 1) == expect


def test_leibniz_exact(H, rng):
    sigma = sigma_tensor(2)
    for _ in range(10):
        F = random_stem(2, H, rng, deg=2, terms=2)
        G = random_stem(2, H, rng, deg=2, terms=2)
        for h in (1, 2):
            for op in (cr_partial, cr_partial_bar):
                lhs = op(stem_product(F, G, sigma), h)
                rhs = stem_product(op(F, h), G, sigma) + \
                    stem_product(F, op(G, h), sigma)
                assert lhs == rhs


def test_stem_addition_scaling(H, rng):
    F = random_stem(2, H, rng)
    G = random_stem(2, H, rng)
    assert (F + G) - G == F
    assert Fraction(1, 2) * (F + F) == F
    assert not (F - F).components
    z = ((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 5), Fraction(-1, 4)))
    assert (F + G).value_at(z) == F.value_at(z) + G.value_at(z)


def test_stem_json_round_trip(H, rng):
    F = random_stem(2, H, rng)
    obj = F.to_json()
    assert obj["n"] == 2 and obj["algebra"] == H.kind
    again = StemPoly.from_json(obj, H)
    assert again == F
    assert again.to_json() == obj


def _stem_document(**changes):
    term = {"exponents": [1, 0], "coeff": [1, "1/2", 0.5, -2]}
    term.update(changes.pop("term", {}))
    doc = {"n": 1, "algebra": "quaternions", "components": {"0": [term]}}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    None,
    [],
    {"components": {"0": []}},
    {"n": 1, "components": {"0": []}},
    _stem_document(n="1"),
    _stem_document(n=True),
    _stem_document(n=-1),
    _stem_document(components=[]),
    _stem_document(components={"x": []}),
    _stem_document(components={"0": 5}),
    _stem_document(components={"0": ["term"]}),
    _stem_document(components={"0": [{"coeff": [1, 0, 0, 0]}]}),
    _stem_document(components={"0": [{"exponents": [0, 0]}]}),
    _stem_document(components={"5": [{"exponents": [0, 1],
                                       "coeff": [1, 0, 0, 0]}]}),
    _stem_document(term={"exponents": [-2, 0]}),
    _stem_document(term={"exponents": "10"}),
    _stem_document(term={"exponents": [1.0, 0]}),
    _stem_document(term={"exponents": [True, 0]}),
    _stem_document(term={"exponents": [0, 1]}),
    _stem_document(term={"coeff": 1}),
    _stem_document(term={"coeff": [1, 0, 0]}),
    _stem_document(term={"coeff": ["x", 0, 0, 0]}),
    _stem_document(term={"coeff": ["1/0", 0, 0, 0]}),
    _stem_document(term={"coeff": ["1.5", 0, 0, 0]}),
    _stem_document(term={"coeff": [True, 0, 0, 0]}),
    _stem_document(term={"coeff": [None, 0, 0, 0]}),
    _stem_document(term={"coeff": [float("nan"), 0, 0, 0]}),
    _stem_document(term={"coeff": [0, float("inf"), 0, 0]}),
    _stem_document(term={"coeff": [0, 0, -float("inf"), 0]}),
])
def test_stem_json_refuses_malformed_documents(H, doc):
    with pytest.raises(HypersliceError):
        StemPoly.from_json(doc, H)


def test_stem_json_refuses_a_stem_of_another_algebra(H):
    # Cl(1,1) has dimension 4 too, so only the algebra key tells them apart
    C = make_algebra("clifford(1,1)")
    doc = StemPoly(1, C, {0: {(1, 0): C.basis(1)}}).to_json()
    with pytest.raises(AlgebraMismatch):
        StemPoly.from_json(doc, H)
    assert StemPoly.from_json(doc, C).to_json() == doc


def test_stem_json_reads_the_test_document(H):
    F = StemPoly.from_json(_stem_document(), H)
    assert F.components.get(0, {}) == {(1, 0): H.element(
        [1, Fraction(1, 2), 0.5, -2])}
