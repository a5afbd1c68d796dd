"""Chain complexes of free modules over Z[t, t^-1].

Homology over the ring itself is not computed in general; instead this
module provides what the fixtures need: ranks over the fraction field
(fraction-free Bareiss elimination, shared with `forms.determinant`),
torsion orders of square presentation matrices (determinants up to
units), and Euler characteristic cross-checks.

Convention: d_i maps degree i to degree i-1 and matrices act on column
vectors, so d_i has ranks[i-1] rows and ranks[i] columns. A complex with
modules in degrees 0..n stores [d_1, ..., d_n].
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .forms import Matrix, _eliminate, as_matrix, mat_mul, nonnegative_int_from_json


def rank_qt(m) -> int:
    """Rank over the fraction field Q(t), by fraction-free elimination."""
    return _eliminate(_rows_of(m), square=False)[0]


def torsion_order(m) -> LaurentPoly:
    """The order of the cokernel of a square full-rank presentation.

    Returns the canonical associate of the determinant. Raises if the
    matrix is not square or not of full rank over the fraction field
    (the cokernel would not be torsion).
    """
    rows = _rows_of(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("torsion order needs a square presentation matrix")
    rank, pivot, _ = _eliminate(rows, square=True)
    if rank != n:
        raise ValueError("presentation is not of full rank; cokernel is not torsion")
    return pivot.normalize_associate()[0]


def _rows_of(m) -> Matrix:
    entries = getattr(m, "entries", m)
    return as_matrix(entries)


class ChainComplex:
    """A finite chain complex of free modules, validated at construction."""

    __slots__ = ("ranks", "differentials")

    def __init__(self, ranks, differentials):
        ranks = tuple(ranks)
        for r in ranks:
            if not isinstance(r, int) or isinstance(r, bool):
                raise ValueError(f"module rank must be an int, got {r!r}")
        if any(r < 0 for r in ranks):
            raise ValueError("module ranks must be nonnegative")
        if not ranks:
            raise ValueError("complex needs at least one degree")
        diffs = tuple(as_matrix(d) for d in differentials)
        if len(diffs) != len(ranks) - 1:
            raise ValueError(
                f"expected {len(ranks) - 1} differentials for {len(ranks)} degrees, "
                f"got {len(diffs)}"
            )
        for k, d in enumerate(diffs, start=1):
            rows, cols = _shape(d)
            if ranks[k - 1] == 0 and rows == 0:
                # A matrix with zero rows cannot carry its column count.
                continue
            if (rows, cols) != (ranks[k - 1], ranks[k]):
                raise ValueError(
                    f"differential d_{k} has shape {rows}x{cols}, "
                    f"expected {ranks[k - 1]}x{ranks[k]}"
                )
        for k in range(len(diffs) - 1):
            d_low, d_high = diffs[k], diffs[k + 1]
            if not _is_zero_matrix(mat_mul(d_low, d_high)):
                raise ValueError(f"d_{k + 1} composed with d_{k + 2} is not zero")
        self.ranks = ranks
        self.differentials = diffs

    def betti_qt(self) -> list[int]:
        """Fraction-field Betti numbers, indexed by ascending degree."""
        n = len(self.ranks) - 1
        rk = [0] * (n + 2)  # rk[k] = rank of d_k over the fraction field
        for k in range(1, n + 1):
            rk[k] = rank_qt(self.differentials[k - 1])
        return [self.ranks[i] - rk[i] - rk[i + 1] for i in range(n + 1)]

    def euler_check(self, betti: list[int] | None = None) -> bool:
        """Alternating sums of module ranks and Betti numbers agree.

        Takes Betti numbers already computed by `betti_qt`, if given.
        """
        if betti is None:
            betti = self.betti_qt()
        lhs = sum((-1) ** i * r for i, r in enumerate(self.ranks))
        rhs = sum((-1) ** i * b for i, b in enumerate(betti))
        return lhs == rhs

    def to_json(self) -> dict:
        return {
            "ranks": [str(r) for r in self.ranks],
            "differentials": [
                [[e.to_json() for e in row] for row in d] for d in self.differentials
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "ChainComplex":
        if not isinstance(obj, dict) or "ranks" not in obj or "differentials" not in obj:
            raise ValueError("complex must be an object with ranks and differentials")
        ranks, diffs = obj["ranks"], obj["differentials"]
        if not isinstance(ranks, list) or not isinstance(diffs, list):
            raise ValueError("ranks and differentials must be lists")
        if not all(isinstance(d, list) and all(isinstance(r, list) for r in d) for d in diffs):
            raise ValueError("each differential must be a list of rows, each row a list")
        return cls(
            [nonnegative_int_from_json(r, "module rank") for r in ranks],
            [tuple(tuple(LaurentPoly.from_json(e) for e in row) for row in d) for d in diffs],
        )


def _shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def _is_zero_matrix(m: Matrix) -> bool:
    return all(e.is_zero for row in m for e in row)
