"""The one space check: a variable count and an algebra against the space
an operation needs, and every site that calls it."""

import pytest

from hyperslice.algebra import make_algebra
from hyperslice.cauchy import BoundaryTorus, KernelPoint, cauchy_reconstruct
from hyperslice.errors import AlgebraMismatch, SphereMismatch, check_space
from hyperslice.parser import parse_expression, parse_point
from hyperslice.regularity import (OrderedPolynomial, PowerSeries, poly_eval,
                                   poly_to_stem, series_eval, star_product)
from hyperslice.slicefun import (SlicePoint, representation_eval, slice_eval,
                                 stem_from_values, truncated_derivative)
from hyperslice.stems import StemValue, sigma_tensor, stem_product
from hyperslice.zeros import restrict_to_first_variable

H = make_algebra("H")
O = make_algebra("O")
i, e1 = H.basis_named("i"), O.basis(1)
P1 = OrderedPolynomial(1, H, {(2,): H.one()})
P2 = OrderedPolynomial(2, H, {(1, 1): H.one()})
PO = OrderedPolynomial(2, O, {(1, 1): O.one()})
X1 = SlicePoint(H, [0.1], [0.2], [i])
X2 = SlicePoint(H, [0.1, 0.0], [0.2, 0.1], [i, i])
XO = SlicePoint(O, [0.1, 0.0], [0.2, 0.1], [e1, e1])
TORUS = BoundaryTorus.discs(H, [1.5, 1.5], samples_per_circle=8)


def _message(what, n, kind, want_n, want_kind):
    return f"{what}: n = {n} over {kind}, expected n = {want_n} over {want_kind}"


@pytest.mark.parametrize("n,algebra", [(1, H), (2, O), (1, O)],
                         ids=["count", "algebra", "both"])
def test_check_space_names_what_came_and_what_was_expected(n, algebra):
    with pytest.raises(AlgebraMismatch) as exc:
        check_space("x", n, algebra, 2, H)
    assert str(exc.value) == _message("x", n, algebra.kind, 2, "quaternions")


def test_check_space_passes_an_equal_algebra_that_is_another_object():
    other = make_algebra("quaternions")
    assert other is not H
    assert check_space("x", 2, other, 2, H) is None
    assert check_space("x", 0, O, 0, O) is None


# (call, the argument it names, n and algebra kind that came, and expected)
SITES = {
    "OrderedPolynomial.__add__": (lambda: P2 + P1, "other", 1, "H", 2, "H"),
    "star_product": (lambda: star_product(P2, PO), "q", 2, "O", 2, "H"),
    "poly_eval/count": (lambda: poly_eval(P2, X1), "x", 1, "H", 2, "H"),
    "poly_eval/algebra": (lambda: poly_eval(P2, (i, e1)), "x", 2, "O", 2,
                          "H"),
    "series_eval": (lambda: series_eval(
        PowerSeries(2, H, {(1, 0): H.one()}, M=1.0), (i,), 0.5),
        "x", 1, "H", 2, "H"),
    "StemPoly.__add__": (lambda: poly_to_stem(P2) + poly_to_stem(P1),
                         "other", 1, "H", 2, "H"),
    "stem_product": (lambda: stem_product(poly_to_stem(P2), poly_to_stem(PO),
                                          sigma_tensor(2)),
                     "G", 2, "O", 2, "H"),
    "slice_eval/count": (lambda: slice_eval(poly_to_stem(P2), X1),
                         "point", 1, "H", 2, "H"),
    "slice_eval/algebra": (lambda: slice_eval(poly_to_stem(P2), XO),
                           "point", 2, "O", 2, "H"),
    "truncated_derivative": (lambda: truncated_derivative(
        poly_to_stem(P2), XO, (0,)), "point", 2, "O", 2, "H"),
    "representation_eval": (lambda: representation_eval(
        lambda p: p.element(1), X2, XO), "target", 2, "O", 2, "H"),
    "stem_from_values": (lambda: stem_from_values(
        lambda p: p.element(1), H, 2, [i]), "source_units", 1, "H", 2, "H"),
    "KernelPoint": (lambda: KernelPoint(X2, [3 * H.basis_named("j")]),
                    "ys", 1, "H", 2, "H"),
    "cauchy_reconstruct/f": (lambda: cauchy_reconstruct(P1, TORUS, X2),
                             "f", 1, "H", 2, "H"),
    "cauchy_reconstruct/x": (lambda: cauchy_reconstruct(P2, TORUS, XO),
                             "x", 2, "O", 2, "H"),
    "BoundaryTorus": (lambda: BoundaryTorus.discs(H, [1.5], J=e1),
                      "J", 1, "O", 1, "H"),
    "restrict_to_first_variable": (lambda: restrict_to_first_variable(P2, ()),
                                   "sample", 0, "H", 1, "H"),
    "restrict_to_first_variable/algebra": (
        lambda: restrict_to_first_variable(P2, (e1,)),
        "sample", 1, "O", 1, "H"),
    "restrict_to_first_variable/zero-polynomial": (
        lambda: restrict_to_first_variable(OrderedPolynomial.zero(2, H),
                                           (e1,)),
        "sample", 1, "O", 1, "H"),
    "parse_point": (lambda: parse_point("[[0,1,i]]", H, 1e-9, nvars=2),
                    "point", 1, "H", 2, "H"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_space_check_site_raises_the_one_message(site):
    call, what, n, kind, want_n, want_kind = SITES[site]
    kinds = {"H": "quaternions", "O": "octonions"}
    with pytest.raises(AlgebraMismatch) as exc:
        call()
    assert type(exc.value) is AlgebraMismatch
    assert str(exc.value) == _message(what, n, kinds[kind], want_n,
                                      kinds[want_kind])


@pytest.mark.parametrize("call,match", [
    (lambda: parse_expression("x2", H, nvars=1), "uses x2 but only 1"),
    (lambda: OrderedPolynomial(1, H, {(1, 2): H.one()}),
     r"exponent tuple \(1, 2\) invalid for 1 variables"),
    (lambda: OrderedPolynomial(1, H, {(-1,): H.one()}),
     r"exponent tuple \(-1,\) invalid"),
    (lambda: StemValue(1, H, [H.one()]), "need 2 components, got 1"),
], ids=["parse_expression", "exponent-count", "negative-exponent",
        "StemValue"])
def test_wrong_argument_lengths_are_algebra_mismatches(call, match):
    with pytest.raises(AlgebraMismatch, match=match):
        call()


def test_representation_eval_across_variable_counts_is_a_sphere_mismatch():
    # the space check compares the algebra only, so the fiber check speaks
    with pytest.raises(SphereMismatch):
        representation_eval(lambda p: p.element(1), X1, X2)
