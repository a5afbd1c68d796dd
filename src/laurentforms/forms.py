"""Hermitian forms over Z[t, t^-1] and the reduction-to-standard-form pipeline.

A Hermitian form is a square matrix A over the ring with A equal to its
involve-transpose A*. The standard rank-2g form is the g-fold block sum of
H2 = [[0, 1-t], [1-t^-1, 0]]. This module recognizes the block shape

    [[0, 1-t], [1-t^-1, c(1-t) + c~(1-t^-1)]]   (one block per genus)

recovers the witnesses c_k, builds the explicit base change reducing the
form to the standard one, and certifies the reduction together with the
determinant identity det(A) = (1-t)^g (1-t^-1)^g up to units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .laurent import (
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    ZERO,
    LaurentPoly,
    int_from_json,
    iota,
)

Matrix = tuple[tuple[LaurentPoly, ...], ...]


class InternalCheckError(RuntimeError):
    """A mathematically guaranteed internal check failed; indicates a defect."""


class ReplayMismatch(Exception):
    """A well-formed certificate that does not certify its form."""


# -- plain matrix helpers over the ring ----------------------------------


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Coerce nested sequences of LaurentPoly/int into a rectangular matrix."""
    out = []
    width = None
    for row in rows:
        coerced = tuple(x if isinstance(x, LaurentPoly) else iota(x) for x in row)
        if width is None:
            width = len(coerced)
        elif len(coerced) != width:
            raise ValueError("ragged matrix")
        out.append(coerced)
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, formed from products of two nonzero entries only."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    width = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [ZERO] * width
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def involve_transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(
        tuple(m[i][j].involve() for i in range(len(m))) for j in range(len(m[0]))
    )


def block_diag(*blocks: Matrix) -> Matrix:
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append(
                tuple([ZERO] * offset) + tuple(row) + tuple([ZERO] * (n - offset - len(row)))
            )
        offset += len(b)
    return tuple(rows)


def determinant(m) -> LaurentPoly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Bareiss updates each lower row as (p * a_ij - a_ic * top_j) / p_prev,
    with p the current pivot and top the pivot row; the entries stay minors
    of the input, so every division is exact and the last pivot is the
    determinant itself, up to the sign of the row swaps. Each row keeps
    its own divisor, the pivot that last divided it. A row whose entry in
    the pivot column is zero would only be rescaled by p / p_prev, and
    such rescalings telescope, so it is left untouched and divided by its
    own divisor at its next update; a pivot row is brought up to date only
    when it is chosen. Untouched blocks of a block-diagonal form thus cost
    nothing until their turn.
    """
    rows = m.entries if isinstance(m, HermitianForm) else tuple(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    rank, pivot, sign = _eliminate(rows, square=True)
    if rank < n:
        return ZERO
    return pivot if sign > 0 else -pivot


def _eliminate(rows: Matrix, square: bool) -> tuple[int, LaurentPoly, int]:
    """Fraction-free row echelon form (see `determinant`): rank, last pivot, swap sign.

    The pivot of a column is its first nonzero entry at or below the
    current row. A column without one is skipped, or ends the pass when
    `square` is set, since the determinant is then zero.
    """
    work = [list(r) for r in rows]
    height = len(work)
    width = len(work[0]) if work else 0
    divisors = [ONE] * height
    rank, pivot, sign = 0, ONE, 1
    for col in range(width):
        if rank == height:
            break
        hits = [i for i in range(rank, height) if not work[i][col].is_zero]
        if not hits:
            if square:
                break
            continue
        r = hits[0]
        if r != rank:
            work[rank], work[r] = work[r], work[rank]
            divisors[rank], divisors[r] = divisors[r], divisors[rank]
            sign = -sign
        top = work[rank][col:]
        d = divisors[rank]
        if d != pivot:
            top = [e if e.is_zero else _divide(e * pivot, d) for e in top]
        pivot = top[0]
        for i in hits[1:]:
            row = work[i]
            lead = row[col]
            d = divisors[i]
            row[col] = ZERO
            for j in range(col + 1, width):
                a, b = row[j], top[j - col]
                if not (a.is_zero and b.is_zero):
                    row[j] = _divide(pivot * a - lead * b, d)
            divisors[i] = pivot
        rank += 1
    return rank, pivot, sign


def _divide(num: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    if num.is_zero or d == ONE:
        return num
    q = num.divide_exact(d)
    if q is None:
        raise InternalCheckError("fraction-free elimination met an inexact division")
    return q


# -- domain types ----------------------------------------------------------


class HermitianForm:
    """A square matrix A over the ring with A = A* (involve-transpose)."""

    __slots__ = ("entries",)

    def __init__(self, rows: Sequence[Sequence]):
        m = as_matrix(rows)
        n = len(m)
        if any(len(r) != n for r in m):
            raise ValueError("Hermitian form must be square")
        for i in range(n):
            for j in range(i, n):
                if m[i][j] != m[j][i].involve():
                    raise ValueError(
                        f"not Hermitian at ({i},{j}): {m[i][j]} vs involve of {m[j][i]}"
                    )
        self.entries: Matrix = m

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, HermitianForm):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"HermitianForm[{body}]"

    def to_json(self) -> dict:
        return matrix_to_json(self.entries)

    @classmethod
    def from_json(cls, obj) -> HermitianForm:
        rows = matrix_from_json(obj)
        return cls(rows)


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rank": str(len(m)),
        "entries": [e.to_json() for row in m for e in row],
    }


def nonnegative_int_from_json(value, name: str) -> int:
    """A nonnegative integer given as a decimal string or a JSON integer."""
    n = int_from_json(value, name)
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    return n


def matrix_from_json(obj) -> Matrix:
    if not isinstance(obj, dict) or "rank" not in obj or "entries" not in obj:
        raise ValueError("matrix must be an object with rank and entries")
    n = nonnegative_int_from_json(obj["rank"], "rank")
    flat = obj["entries"]
    if not isinstance(flat, list):
        raise ValueError("entries must be a list")
    if len(flat) != n * n:
        raise ValueError(f"expected {n * n} entries for rank {n}, got {len(flat)}")
    polys = [LaurentPoly.from_json(e) for e in flat]
    return tuple(tuple(polys[i * n + j] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class BaseChange:
    """An invertible matrix P over the ring, with det(P) = +-t^k certified.

    The constructor computes det(P) once and raises ValueError when it is
    not a unit.
    """

    matrix: Matrix

    def __post_init__(self):
        if determinant(self.matrix).is_unit() is None:
            raise ValueError("matrix is not invertible over the ring")


@dataclass(frozen=True)
class ReductionCertificate:
    """A replayable reduction of a recognized form to the standard one.

    The certificate gate (`_certificate_gate`) holds when det(P) is a unit,
    congruence(P, form) is h2_sum(genus) entrywise, and det(form) is
    associate to ((1-t)(1-t^-1))^g with canonical associate det_canonical.
    """

    form: HermitianForm
    genus: int
    c_list: tuple[LaurentPoly, ...]
    reduction: BaseChange
    det_canonical: LaurentPoly

    def check(self) -> None:
        """Re-run the certificate gate; raise ReplayMismatch if it fails."""
        _certificate_gate(self.form, self.genus, self.reduction.matrix, self.det_canonical)

    def to_json(self) -> dict:
        return {
            "g": str(self.genus),
            "c_list": [c.to_json() for c in self.c_list],
            "P": matrix_to_json(self.reduction.matrix),
            "det_canonical": self.det_canonical.to_json(),
        }

    @classmethod
    def from_json(cls, obj, form: HermitianForm) -> ReductionCertificate:
        """Parse a certificate of `form` and run the certificate gate on it.

        Raises ValueError when the certificate is malformed or its rank or
        genus does not fit the form, and ReplayMismatch when it is well
        formed but fails the gate.
        """
        if not isinstance(obj, dict):
            raise ValueError("certificate must be an object")
        for key in ("g", "c_list", "P", "det_canonical"):
            if key not in obj:
                raise ValueError(f"certificate is missing {key!r}")
        g = nonnegative_int_from_json(obj["g"], "genus g")
        if not isinstance(obj["c_list"], list):
            raise ValueError("c_list must be a list")
        cs = tuple(LaurentPoly.from_json(c) for c in obj["c_list"])
        p = matrix_from_json(obj["P"])
        det_canonical = LaurentPoly.from_json(obj["det_canonical"])
        if len(p) != form.rank or form.rank != 2 * g or len(cs) != g:
            raise ValueError(
                f"certificate rank {len(p)} / genus {g} / {len(cs)} witnesses "
                f"does not match form rank {form.rank}"
            )
        reduction, _ = _certificate_gate(form, g, p, det_canonical)
        return cls(form, g, cs, reduction, det_canonical)


def _certificate_gate(
    a: HermitianForm, g: int, p: Matrix, det_canonical: Optional[LaurentPoly] = None
) -> tuple[BaseChange, LaurentPoly]:
    """The conditions behind every accept, each checked once.

    det(P) must be a unit, P A P* must equal h2_sum(g) entrywise, and
    det(A) must be associate to ((1-t)(1-t^-1))^g; when a recorded
    canonical determinant is given, it must be that of det(A). Returns
    the certified base change and the canonical associate of det(A);
    raises ReplayMismatch naming the first condition that fails.
    """
    try:
        reduction = BaseChange(p)
    except ValueError:
        raise ReplayMismatch("base change determinant is not a unit") from None
    replayed, target = congruence(p, a).entries, h2_sum(g).entries
    if replayed != target:
        i, j = next((i, j) for i, row in enumerate(target)
                    for j, e in enumerate(row) if replayed[i][j] != e)
        raise ReplayMismatch(f"entry ({i},{j}) is not that of the standard form")
    canonical = determinant(a).normalize_associate()[0]
    if canonical != ((ONE_MINUS_T * ONE_MINUS_T_INV) ** g).normalize_associate()[0]:
        raise ReplayMismatch("determinant is not associate to ((1-t)(1-t^-1))^g")
    if det_canonical is not None and det_canonical != canonical:
        raise ReplayMismatch("recorded canonical determinant is not that of the form")
    return reduction, canonical


# -- operations -------------------------------------------------------------


def h2_block() -> Matrix:
    return as_matrix([[ZERO, ONE_MINUS_T], [ONE_MINUS_T_INV, ZERO]])


def h2_sum(g: int) -> HermitianForm:
    """The block-diagonal sum of g copies of [[0, 1-t], [1-t^-1, 0]]."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return HermitianForm(block_diag(*([h2_block()] * g)))


def congruence(p: Sequence[Sequence], a: HermitianForm) -> HermitianForm:
    """The congruent form P A P*, with P* the involve-transpose of P."""
    pm = as_matrix(p)
    if len(pm) != a.rank or any(len(r) != a.rank for r in pm):
        raise ValueError(f"base change rank {len(pm)} does not match form rank {a.rank}")
    return HermitianForm(mat_mul(mat_mul(pm, a.entries), involve_transpose(pm)))


def solve_hermitian_zero_aug(d: LaurentPoly) -> Optional[LaurentPoly]:
    """Solve c(1-t) + c~(1-t^-1) = d for an involution-fixed d.

    Writes d = m_0 * 2 + sum_{r>=1} m_r (t^r + t^-r) and telescopes the
    partial sums M_r = m_0 + ... + m_r into c = sum_r M_r t^r. A solution
    exists exactly when the augmentation of d vanishes; returns None
    otherwise. M_r changes only at the support of d, so the walk is over
    that support and the terms of c, not over every exponent up to deg d.
    """
    if d != d.involve():
        raise ValueError("input is not involution-fixed")
    if d.augment() != 0:
        return None
    running = d.coeff(0) // 2
    coeffs = {}
    start = 0
    for r, m in d.terms():
        if r <= 0:
            continue
        if running:  # M is constant on [start, r)
            for e in range(start, r):
                coeffs[e] = running
        running += m
        start = r
    c = LaurentPoly(coeffs)
    if c * ONE_MINUS_T + c.involve() * ONE_MINUS_T_INV != d:
        raise InternalCheckError("telescoped solution failed to reconstruct input")
    return c


def _recognize_with_reason(a: HermitianForm) -> tuple[Optional[list[LaurentPoly]], Optional[str]]:
    """Recover [c_1, ..., c_g] when A is in the recognized block shape.

    The shape is block-diagonal in consecutive 2x2 blocks
    [[0, 1-t], [1-t^-1, d_k]] with d_k = c_k(1-t) + c_k~(1-t^-1); all
    cross-block entries must be exactly zero. Returns (cs, None), or
    (None, reason) naming the first condition that fails.
    """
    n = a.rank
    if n % 2 != 0:
        return None, f"rank {n} is odd"
    g = n // 2
    e = a.entries
    for i in range(n):
        for j in range(n):
            if i // 2 == j // 2:
                continue
            if not e[i][j].is_zero:
                return None, f"cross-block entry ({i},{j}) is nonzero"
    cs = []
    for k in range(g):
        r = 2 * k
        if not e[r][r].is_zero:
            return None, f"block {k}: entry ({r},{r}) is not zero"
        if e[r][r + 1] != ONE_MINUS_T:
            return None, f"block {k}: entry ({r},{r + 1}) is not 1-t"
        if e[r + 1][r] != ONE_MINUS_T_INV:
            return None, f"block {k}: entry ({r + 1},{r}) is not 1-t^-1"
        c = solve_hermitian_zero_aug(e[r + 1][r + 1])
        if c is None:
            return None, (
                f"block {k}: diagonal entry has nonzero augmentation "
                f"{e[r + 1][r + 1].augment()}"
            )
        cs.append(c)
    return cs, None


def prenormalize_units(a: HermitianForm) -> tuple[Matrix, HermitianForm]:
    """Rescale basis vectors by units so off-diagonals become exactly 1-t.

    For each consecutive 2x2 block whose off-diagonal entry is associate
    to 1-t, the odd-indexed basis vector is rescaled by the unit making
    the entry exactly 1-t. Diagonal entries are unchanged by such a
    rescaling. Returns the diagonal base change D and D A D*.
    """
    n = a.rank
    units = [ONE] * n
    for k in range(n // 2):
        r = 2 * k
        e = a.entries[r][r + 1]
        if e.is_zero:
            continue
        canonical, unit = e.normalize_associate()
        if canonical != ONE_MINUS_T.normalize_associate()[0]:
            continue
        # e = unit * t^? * canonical form of 1-t; want 1 * e * u~ = 1-t.
        quotient = ONE_MINUS_T.divide_exact(e)
        if quotient is None:
            # associate, so 1-t = w * e for the unit w = (1-t)/e
            raise InternalCheckError("associate entry failed exact division")
        w = quotient.is_unit()
        if w is None:
            raise InternalCheckError("quotient of associates is not a unit")
        units[r + 1] = w.involve().as_poly()
    d = tuple(
        tuple(units[i] if i == j else ZERO for j in range(n)) for i in range(n)
    )
    return d, congruence(d, a)


def det_congruence_check(b: Sequence[Sequence], a: HermitianForm) -> bool:
    """Verify det(B A B*) = det(B) det(A) involve(det(B)) exactly."""
    bm = as_matrix(b)
    if len(bm) != a.rank:
        raise ValueError("rank mismatch")
    lhs = determinant(congruence(bm, a))
    det_b = determinant(bm)
    rhs = det_b * determinant(a) * det_b.involve()
    return lhs == rhs


@dataclass(frozen=True)
class ReductionVerdict:
    """Outcome of the full recognize/reduce/determinant pipeline."""

    accepted: bool
    genus: Optional[int]
    certificate: Optional[ReductionCertificate]
    reason: Optional[str]
    label: str

    def to_json(self) -> dict:
        out: dict = {"verdict": "accept" if self.accepted else "reject", "label": self.label}
        if self.accepted:
            out["g"] = str(self.genus)
            out["certificate"] = self.certificate.to_json()
        else:
            out["reason"] = self.reason
        return out


ACCEPT_LABEL = "isometric to the standard surface form H2^g: topologically unknotted"
REJECT_LABEL = "not recognized; no verdict"


def certify_reduction(a: HermitianForm, prenormalize: bool = False) -> ReductionVerdict:
    """Recognize the block shape and certify the reduction to the standard form.

    Once the shape is recognized the reduction is mathematically forced,
    so a failed certificate gate is raised as InternalCheckError rather
    than reported as a rejection.
    """
    d, working = prenormalize_units(a) if prenormalize else (identity(a.rank), a)
    cs, reason = _recognize_with_reason(working)
    if cs is None:
        return ReductionVerdict(False, None, None, f"recognition failed: {reason}", REJECT_LABEL)
    g = a.rank // 2
    p = mat_mul(block_diag(*(as_matrix([[ONE, ZERO], [-c, ONE]]) for c in cs)), d)
    try:
        reduction, det_canonical = _certificate_gate(a, g, p)
    except ReplayMismatch as exc:
        raise InternalCheckError(f"recognized form fails the certificate gate: {exc}") from exc
    cert = ReductionCertificate(a, g, tuple(cs), reduction, det_canonical)
    return ReductionVerdict(True, g, cert, None, ACCEPT_LABEL)
