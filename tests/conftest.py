"""Shared helpers for building random ring elements and forms."""

import json
import random
from pathlib import Path

import pytest

from laurentforms import (
    HermitianForm,
    LaurentPoly,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    ZERO,
)
from laurentforms.forms import block_diag


def rand_poly(rng: random.Random, min_exp=-2, max_exp=2, coeff_bound=2, allow_zero=True):
    """A random polynomial with exponents in [min_exp, max_exp] and
    coefficients in [-coeff_bound, coeff_bound]."""
    while True:
        coeffs = {
            e: rng.randint(-coeff_bound, coeff_bound)
            for e in range(min_exp, max_exp + 1)
        }
        p = LaurentPoly(coeffs)
        if allow_zero or not p.is_zero:
            return p


def rand_matrix(rng: random.Random, n, min_exp=-2, max_exp=2, coeff_bound=2):
    return tuple(
        tuple(rand_poly(rng, min_exp, max_exp, coeff_bound) for _ in range(n))
        for _ in range(n)
    )


def hermitian_diagonal_entry(c: LaurentPoly) -> LaurentPoly:
    return c * ONE_MINUS_T + c.involve() * ONE_MINUS_T_INV


def block_form(cs) -> HermitianForm:
    """The recognized block form with diagonal witnesses cs."""
    blocks = []
    for c in cs:
        blocks.append(
            (
                (ZERO, ONE_MINUS_T),
                (ONE_MINUS_T_INV, hermitian_diagonal_entry(c)),
            )
        )
    return HermitianForm(block_diag(*blocks))


def load_search_golden() -> dict:
    """The pinned search outcomes (see tests/fixtures/make_search_golden.py)."""
    path = Path(__file__).with_name("fixtures") / "search_golden.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
