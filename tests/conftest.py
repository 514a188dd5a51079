"""Shared fixtures: algebras and deterministic random element factories."""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hyperslice.algebra import cone_decompose, make_algebra

# child interpreters that tests start import hyperslice from src/ as well
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def H():
    return make_algebra("quaternions")


@pytest.fixture(scope="session")
def O():
    return make_algebra("octonions")


@pytest.fixture(scope="session")
def CL11():
    return make_algebra("clifford", (1, 1))


@pytest.fixture(scope="session")
def CL03():
    return make_algebra("clifford", (0, 3))


@pytest.fixture()
def rng():
    return random.Random(20240817)


def random_element(algebra, rng, exact=False, span=3):
    """Uniform-ish coefficients; Fractions with small denominators if exact."""
    if exact:
        coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 4))
                  for _ in range(algebra.dim)]
    else:
        coeffs = [rng.uniform(-span, span) for _ in range(algebra.dim)]
    return algebra.element(coeffs)


def random_imaginary_unit(algebra, rng, tries=200):
    """A random point of the unit sphere, via cone decomposition.

    Full random elements work when the cone is the whole algebra; for thin
    cones (Clifford) fall back to mixes of two anticommuting basis units.
    """
    from hyperslice.algebra import is_imaginary_unit
    from hyperslice.errors import HypersliceError

    for _ in range(tries):
        x = random_element(algebra, rng)
        try:
            dec = cone_decompose(x)
        except HypersliceError:
            break
        if dec.beta > 1e-6:
            return dec.unit
    units = [algebra.basis(i) for i in range(1, algebra.dim)
             if is_imaginary_unit(algebra.basis(i))]
    for _ in range(tries):
        a, b = rng.sample(units, 2) if len(units) >= 2 else (units[0], units[0])
        x = rng.uniform(-1, 1) * a + rng.uniform(-1, 1) * b
        try:
            dec = cone_decompose(x)
        except HypersliceError:
            continue
        if dec.beta > 1e-6:
            return dec.unit
    raise RuntimeError(f"could not sample an imaginary unit in {algebra.kind}")


def random_cone_point(algebra, rng, span=2):
    """A random quadratic-cone point alpha + beta*J with beta > 0."""
    alpha = rng.uniform(-span, span)
    beta = rng.uniform(0.1, span)
    return algebra.from_real(alpha) + beta * random_imaginary_unit(algebra, rng)


def random_stem(n, algebra, rng, deg=3, terms=3, exact=True):
    """Random parity-correct polynomial stem with exact coefficients."""
    from hyperslice.stems import StemPoly

    comps = {}
    for mask in range(1 << n):
        poly = {}
        for _ in range(terms):
            exp = []
            for h in range(n):
                want = mask >> h & 1
                exp.append(rng.randrange(deg + 1))
                exp.append(rng.choice([v for v in range(deg + 2)
                                       if v % 2 == want]))
            poly[tuple(exp)] = random_element(algebra, rng, exact=exact)
        comps[mask] = poly
    return StemPoly(n, algebra, comps)


def random_real_stem(n, algebra, rng, deg=3, terms=3):
    """Stem whose coefficients are real multiples of unity."""
    from hyperslice.stems import StemPoly

    comps = {}
    for mask in range(1 << n):
        poly = {}
        for _ in range(terms):
            exp = []
            for h in range(n):
                want = mask >> h & 1
                exp.append(rng.randrange(deg + 1))
                exp.append(rng.choice([v for v in range(deg + 2)
                                       if v % 2 == want]))
            poly[tuple(exp)] = algebra.from_real(
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        comps[mask] = poly
    return StemPoly(n, algebra, comps)


def random_poly(n, algebra, rng, deg=4, terms=4, exact=True):
    """Random ordered polynomial of total degree <= deg."""
    from hyperslice.regularity import OrderedPolynomial

    t = {}
    for _ in range(terms):
        while True:
            ell = tuple(rng.randrange(deg + 1) for _ in range(n))
            if sum(ell) <= deg:
                break
        t[ell] = random_element(algebra, rng, exact=exact)
    return OrderedPolynomial(n, algebra, t)
