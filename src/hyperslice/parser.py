"""Text syntax for ordered polynomials and cone points.

The polynomial grammar, shared by the library and the command line:

    poly  := term (('+'|'-') term)*
    term  := [coeff] monos
    monos := ('x' INDEX ['^' NAT])*
    coeff := '(' real (basisname real)* ')'

`(0 i 1) x1^2 x2 + (1)` reads as x1^2 x2 * i + 1: the written coefficient
multiplies the monomial from the right, matching the ordered-monomial
normal form.  Inside `coeff` the leading number is the real part and each
`basisname real` pair adds a multiple of that basis element.  Variable
indices inside one monomial must be nondecreasing: the normal form fixes
x1 before x2, and reordering would silently change the value in a
noncommutative algebra, so `x2 x1` is rejected rather than reinterpreted.

Points are JSON-flavored triples `[alpha, beta, J]` per variable, e.g.
`[[0, 1, i], [0, 1, j]]`; J is a basis name (quotes optional) or a full
coefficient list.
"""

import json
import math
import re
from fractions import Fraction

from . import sparse
from .algebra import is_imaginary_unit
from .errors import (AlgebraMismatch, ExpressionSyntaxError, NotImaginaryUnit,
                     UnknownBasisName)
from .regularity import OrderedPolynomial
from .slicefun import SlicePoint

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"\d+")
_VARIABLE = re.compile(r"x([0-9]+)\Z")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        ch = src[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch in "+-()^":
            kind = {"+": "PLUS", "-": "MINUS", "(": "LPAREN",
                    ")": "RPAREN", "^": "CARET"}[ch]
            tokens.append(_Token(kind, ch, line, col))
            pos += 1
            col += 1
            continue
        m = _NUMBER.match(src, pos)
        if m:
            tokens.append(_Token("NUMBER", m.group(), line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        m = _NAME.match(src, pos)
        if m:
            tokens.append(_Token("NAME", m.group(), line, col))
            col += m.end() - pos
            pos = m.end()
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src, algebra):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok, expected=None):
        raise ExpressionSyntaxError(message, tok.line, tok.col, expected)

    def poly(self):
        terms = [(1, *self.term())]
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.take().kind == "PLUS" else -1
            terms.append((sign, *self.term()))
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected {tok.text!r} after a complete term", tok,
                      expected="'+', '-', or end of input")
        return terms

    def term(self):
        coeff = None
        if self.peek().kind == "LPAREN":
            coeff = self.coeff()
        exponents = {}
        last = 0
        while self.peek().kind == "NAME":
            tok = self.take()
            m = _VARIABLE.match(tok.text)
            if not m:
                self.fail(f"{tok.text!r} is not a variable", tok,
                          expected="a variable like x1")
            index = int(m.group(1))
            if index == 0:
                self.fail("variable indices start at x1", tok,
                          expected="a variable like x1")
            if index < last:
                self.fail("variables inside a monomial must appear in "
                          "nondecreasing index order", tok,
                          expected=f"x{last} or a later variable")
            power = 1
            if self.peek().kind == "CARET":
                self.take()
                ntok = self.peek()
                if ntok.kind != "NUMBER" or not _INT.fullmatch(ntok.text):
                    self.fail("exponent must be a natural number", ntok,
                              expected="a natural number")
                self.take()
                power = int(ntok.text)
            exponents[index] = exponents.get(index, 0) + power
            last = index
        if coeff is None and not exponents:
            tok = self.peek()
            self.fail("expected a term", tok,
                      expected="a coefficient '(...)' or a variable like x1")
        return coeff, exponents

    def coeff(self):
        self.take()
        value = self.algebra.from_real(self.signed_number())
        while True:
            tok = self.peek()
            if tok.kind == "RPAREN":
                self.take()
                return value
            if tok.kind != "NAME":
                self.fail("expected a basis name or ')'", tok,
                          expected="a basis name or ')'")
            self.take()
            if not self.algebra.has_basis_name(tok.text):
                known = ", ".join(n for n in self.algebra.basis_names
                                  if n != "1")
                raise UnknownBasisName(
                    f"unknown basis name {tok.text!r} in {self.algebra.kind}",
                    tok.line, tok.col, expected=f"one of {known}")
            value = value + self.signed_number() * \
                self.algebra.basis_named(tok.text)

    def signed_number(self):
        sign = 1
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.take().kind == "PLUS" else -1
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.fail("expected a number", tok, expected="a real number")
        self.take()
        if math.isinf(float(tok.text)):
            self.fail("number beyond the float range", tok,
                      expected="a number of magnitude below 1.8e308")
        if _INT.fullmatch(tok.text):
            return sign * int(tok.text)
        return sign * float(tok.text)


def parse_expression(src, algebra, nvars=None):
    """Parse the polynomial grammar; nvars pins the variable count."""
    parser = _Parser(src, algebra)
    raw = parser.poly()
    seen = max((max(exps) for _, _, exps in raw if exps), default=0)
    n = max(seen, nvars or 1)
    if nvars is not None and seen > nvars:
        raise AlgebraMismatch(
            f"expression uses x{seen} but only {nvars} variables declared")
    terms = {}
    one = algebra.one()
    for sign, coeff, exps in raw:
        key = tuple(exps.get(h, 0) for h in range(1, n + 1))
        value = coeff if coeff is not None else one
        if sign < 0:
            value = -1 * value
        sparse.add_term(terms, key, value)
    return OrderedPolynomial(n, algebra, terms)


def format_real(v):
    if isinstance(v, Fraction):
        v = int(v) if v.denominator == 1 else float(v)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    return repr(v) if isinstance(v, float) else str(v)


def format_element(a):
    body = [format_real(a.coeffs[0])]
    for name, c in zip(a.algebra.basis_names[1:], a.coeffs[1:]):
        if c != 0:
            body.append(name)
            body.append(format_real(c))
    return "(" + " ".join(body) + ")"


def format_poly(p):
    """Render in the shared grammar; parse(format_poly(p)) == p."""
    parts = []
    one = p.algebra.one()
    for key, a in sorted(p.terms.items(),
                         key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        monos = " ".join(
            f"x{h + 1}" if d == 1 else f"x{h + 1}^{d}"
            for h, d in enumerate(key) if d > 0)
        if not monos:
            parts.append(format_element(a))
        elif a == one:
            parts.append(monos)
        else:
            parts.append(format_element(a) + " " + monos)
    return " + ".join(parts) if parts else "(0)"


_BARE_NAME = re.compile(r'(?<![\w."])([A-Za-z_][A-Za-z0-9_]*)')


def _load_json(src, what):
    """JSON with integers read as floats, so any number too large is inf."""
    try:
        return json.loads(src, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ExpressionSyntaxError(f"bad {what} syntax: {exc.msg}",
                                    exc.lineno, exc.colno) from None


def _is_number(value):
    return isinstance(value, float) and math.isfinite(value)


def parse_unit(src, algebra, tol):
    """A slice unit: basis name or JSON coefficient list."""
    src = src.strip()
    if src.startswith("["):
        coeffs = _load_json(src, "unit")
        if not isinstance(coeffs, list) or not all(map(_is_number, coeffs)):
            raise ExpressionSyntaxError(
                "a unit coefficient list holds finite reals only", 1, 1)
        J = algebra.element(coeffs)
    else:
        if not algebra.has_basis_name(src):
            raise UnknownBasisName(
                f"unknown basis name {src!r} in {algebra.kind}", 1, 1)
        J = algebra.basis_named(src)
    if not is_imaginary_unit(J, tol):
        raise NotImaginaryUnit(f"{J.format()} is not an imaginary unit")
    return J


def parse_point(src, algebra, tol, nvars=None):
    """Cone point from per-variable [alpha, beta, J] triples."""
    quoted = _BARE_NAME.sub(r'"\1"', src)
    data = _load_json(quoted, "point")
    if not isinstance(data, list) or not data:
        raise ExpressionSyntaxError("a point is a list of [alpha, beta, J] "
                                    "triples", 1, 1)
    if not isinstance(data[0], list):
        data = [data]
    alphas, betas, units = [], [], []
    for triple in data:
        if not isinstance(triple, list) or len(triple) != 3:
            raise ExpressionSyntaxError(
                "each coordinate needs exactly [alpha, beta, J]", 1, 1)
        alpha, beta, unit = triple
        if not _is_number(alpha) or not _is_number(beta):
            raise ExpressionSyntaxError(
                "alpha and beta must be finite real numbers", 1, 1)
        if isinstance(unit, str):
            if not algebra.has_basis_name(unit):
                raise UnknownBasisName(
                    f"unknown basis name {unit!r} in {algebra.kind}", 1, 1)
            J = algebra.basis_named(unit)
        elif isinstance(unit, list) and all(map(_is_number, unit)):
            J = algebra.element(unit)
        else:
            raise ExpressionSyntaxError(
                "J must be a basis name or a coefficient list", 1, 1)
        if not is_imaginary_unit(J, tol):
            raise NotImaginaryUnit(f"{J.format()} is not an imaginary unit")
        alphas.append(alpha)
        betas.append(beta)
        units.append(J)
    if nvars is not None and len(alphas) != nvars:
        raise AlgebraMismatch(
            f"need {nvars} coordinate triples, got {len(alphas)}")
    return SlicePoint(algebra, alphas, betas, units)
