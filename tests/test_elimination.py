"""Differential tests of the fraction-free elimination behind determinant,
rank_qt and torsion_order.

Two independent oracles: Laplace expansion memoized over column subsets
(the package's determinant before it moved to Bareiss elimination), and
sympy's exact linear algebra over Z[t] on matrices shifted into
nonnegative exponents.
"""

import random

import pytest

from laurentforms import (
    InternalCheckError,
    LaurentPoly,
    ONE,
    ZERO,
    determinant,
    rank_qt,
    torsion_order,
)
from laurentforms.forms import HermitianForm, certify_reduction, mat_mul

from conftest import block_form, rand_poly


def laplace_determinant(m) -> LaurentPoly:
    """Exact determinant by Laplace expansion memoized over column subsets."""
    rows = m.entries if isinstance(m, HermitianForm) else tuple(m)
    n = len(rows)
    if n == 0:
        return ONE
    memo: dict[int, LaurentPoly] = {0: ONE}

    def rec(colmask: int) -> LaurentPoly:
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        row = rows[n - colmask.bit_count()]
        acc = ZERO
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not colmask & bit:
                continue
            a = row[j]
            if not a.is_zero:
                term = a * rec(colmask & ~bit)
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[colmask] = acc
        return acc

    return rec((1 << n) - 1)


def sparse_poly(rng, density):
    return rand_poly(rng, allow_zero=False) if rng.random() < density else ZERO


def random_matrix(rng, rows, cols, density=1.0):
    return tuple(
        tuple(sparse_poly(rng, density) for _ in range(cols)) for _ in range(rows)
    )


def low_rank_matrix(rng, rows, cols, rank):
    """A product of rows x rank and rank x cols factors with small entries."""
    left = random_matrix(rng, rows, rank)
    right = tuple(
        tuple(rand_poly(rng, -1, 1, 1) for _ in range(cols)) for _ in range(rank)
    )
    return mat_mul(left, right)


def signed_binomial_matrix(rng, n):
    """Dense +-1 +- t^k entries, shifted by a random power of t per row."""
    return tuple(
        tuple(
            LaurentPoly({0: rng.choice((1, -1)), rng.choice((1, 2)): rng.choice((1, -1))})
            * LaurentPoly({shift: 1})
            for _ in range(n)
        )
        for shift in (rng.randint(-2, 1) for _ in range(n))
    )


def test_determinant_matches_laplace_dense_and_sparse():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(0, 10 if rng.random() < 0.2 else 7)
        density = rng.choice((1.0, 0.6, 0.4, 0.25, 0.15))
        m = random_matrix(rng, n, n, density)
        assert determinant(m) == laplace_determinant(m)


def test_determinant_matches_laplace_singular():
    rng = random.Random(102)
    for _ in range(40):
        n = rng.randint(2, 8)
        m = [list(row) for row in random_matrix(rng, n, n, rng.choice((1.0, 0.4)))]
        kind = rng.randrange(3)
        if kind == 0:  # a repeated row
            i, j = rng.sample(range(n), 2)
            m[i] = list(m[j])
        elif kind == 1:  # a zero column
            col = rng.randrange(n)
            for row in m:
                row[col] = ZERO
        else:  # rank at most n - 1
            m = low_rank_matrix(rng, n, n, n - 1)
        assert laplace_determinant(m).is_zero
        assert determinant(m).is_zero


def test_determinant_matches_laplace_on_recognized_forms():
    rng = random.Random(103)
    for g in (1, 2, 3, 5, 8, 12, 16):
        form = block_form([rand_poly(rng) for _ in range(g)])
        assert determinant(form) == laplace_determinant(form)
        p = certify_reduction(form).certificate.reduction.matrix
        assert determinant(p) == laplace_determinant(p)


def sympy_determinant(m) -> LaurentPoly:
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    n = len(m)
    t = sympy.symbols("t")
    ring = sympy.ZZ[t]
    low = min((e for row in m for x in row for e in x.support()), default=0)
    rows = [
        [ring.from_sympy(sum(c * t ** (e - low) for e, c in x.terms())) for x in row]
        for row in m
    ]
    det = ring.to_sympy(DomainMatrix(rows, (n, n), ring).det())
    if det == 0:
        return ZERO
    coeffs = sympy.Poly(det, t).as_dict()
    return LaurentPoly({k[0] + n * low: int(c) for k, c in coeffs.items()})


def sympy_rank(m) -> int:
    """Rank over Q(t): the pivot count of sympy's fraction-free RREF over Z[t]."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols("t")
    ring = sympy.ZZ[t]
    low = min((e for row in m for x in row for e in x.support()), default=0)
    rows = [
        [ring.from_sympy(sum(c * t ** (e - low) for e, c in x.terms())) for x in row]
        for row in m
    ]
    _, _, pivots = DomainMatrix(rows, (len(m), len(m[0])), ring).rref_den()
    return len(pivots)


def test_determinant_matches_sympy_large():
    rng = random.Random(104)
    for n in (12, 13, 14, 16):
        m = signed_binomial_matrix(rng, n)
        assert determinant(m) == sympy_determinant(m)


def test_rank_qt_matches_sympy_rank_deficient():
    rng = random.Random(105)
    for rows, cols, rank in ((8, 8, 5), (8, 8, 7), (10, 12, 6), (10, 12, 9)):
        m = low_rank_matrix(rng, rows, cols, rank)
        assert rank_qt(m) == sympy_rank(m) <= rank
    full = random_matrix(rng, 8, 8)
    assert rank_qt(full) == sympy_rank(full) == 8


def test_torsion_order_error_messages():
    with pytest.raises(ValueError, match="^torsion order needs a square presentation matrix$"):
        torsion_order([[ONE, ZERO]])
    with pytest.raises(
        ValueError, match="^presentation is not of full rank; cokernel is not torsion$"
    ):
        torsion_order([[ONE, ONE], [ONE, ONE]])


def test_inexact_division_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(LaurentPoly, "divide_exact", lambda self, divisor: None)
    m = random_matrix(random.Random(106), 3, 3)
    with pytest.raises(InternalCheckError):
        determinant(m)
