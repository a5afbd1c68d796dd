"""Bounded congruence-move search between Hermitian forms.

The congruence action is generated by three unit-determinant move kinds:
transvections (add a polynomial multiple of one basis vector to another),
unit rescalings of a basis vector by +-t^k, and basis swaps. The search
is a breadth-first enumeration of move sequences within explicit bounds,
with states deduplicated by a canonical row-major string key and each
level processed in lexicographic key order, so outcomes are reproducible.
A stored level keeps only (key, move list) pairs; a state's matrix is
rebuilt by replaying its moves from the root when it is goal-checked or
expanded, and the final level is goal-checked as it is generated.

"Found" outcomes are replay-checked before being returned. "Exhausted"
only means no sequence exists within the given bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from .laurent import ZERO, ONE, LaurentPoly, assoc_eq, int_from_json
from .forms import (
    BaseChange,
    HermitianForm,
    Matrix,
    block_diag,
    congruence,
    determinant,
    h2_sum,
    identity,
    mat_mul,
    nonnegative_int_from_json,
)


# -- move specifications ---------------------------------------------------


@dataclass(frozen=True)
class Transvection:
    """Add p times basis vector j to basis vector i (determinant 1)."""

    i: int
    j: int
    p: LaurentPoly

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("transvection needs distinct indices")
        if self.p.is_zero:
            raise ValueError("transvection polynomial must be nonzero")

    def matrix(self, n: int) -> Matrix:
        rows = [list(row) for row in identity(n)]
        rows[self.i][self.j] = self.p
        return tuple(tuple(row) for row in rows)

    def to_json(self) -> dict:
        return {
            "kind": "transvection",
            "i": str(self.i),
            "j": str(self.j),
            "p": self.p.to_json(),
        }


@dataclass(frozen=True)
class UnitScale:
    """Rescale basis vector i by sign * t^k (determinant +-t^k)."""

    i: int
    sign: int
    k: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("unit sign must be +1 or -1")

    def unit(self) -> LaurentPoly:
        return LaurentPoly({self.k: self.sign})

    def matrix(self, n: int) -> Matrix:
        rows = [list(row) for row in identity(n)]
        rows[self.i][self.i] = self.unit()
        return tuple(tuple(row) for row in rows)

    def to_json(self) -> dict:
        return {
            "kind": "unit_scale",
            "i": str(self.i),
            "sign": f"{self.sign:+d}",
            "k": str(self.k),
        }


@dataclass(frozen=True)
class Swap:
    """Exchange basis vectors i and j (determinant -1)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("swap needs distinct indices")

    def matrix(self, n: int) -> Matrix:
        rows = [list(row) for row in identity(n)]
        rows[self.i][self.i] = ZERO
        rows[self.j][self.j] = ZERO
        rows[self.i][self.j] = ONE
        rows[self.j][self.i] = ONE
        return tuple(tuple(row) for row in rows)

    def to_json(self) -> dict:
        return {"kind": "swap", "i": str(self.i), "j": str(self.j)}


MoveSpec = Union[Transvection, UnitScale, Swap]


def move_from_json(obj) -> MoveSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("move must be an object with a kind")

    def index(name: str) -> int:
        return nonnegative_int_from_json(obj[name], f"move index {name}")

    kind = obj["kind"]
    if kind == "transvection":
        return Transvection(index("i"), index("j"), LaurentPoly.from_json(obj["p"]))
    if kind == "unit_scale":
        sign = int_from_json(obj["sign"], "unit sign")
        return UnitScale(index("i"), sign, int_from_json(obj["k"], "unit exponent k"))
    if kind == "swap":
        return Swap(index("i"), index("j"))
    raise ValueError(f"unknown move kind {kind!r}")


@dataclass(frozen=True)
class SearchBounds:
    """Enumeration bounds: move-list length, transvection polynomial box
    (exponents within +-transvection_degree, coefficients within
    +-transvection_coeff), and unit rescaling exponents within
    +-unit_exponent."""

    max_depth: int
    transvection_degree: int
    transvection_coeff: int
    unit_exponent: int

    def __post_init__(self):
        for name in ("max_depth", "transvection_degree", "transvection_coeff", "unit_exponent"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def to_json(self) -> dict:
        return {
            "max_depth": str(self.max_depth),
            "transvection_degree": str(self.transvection_degree),
            "transvection_coeff": str(self.transvection_coeff),
            "unit_exponent": str(self.unit_exponent),
        }

    @classmethod
    def from_json(cls, obj) -> "SearchBounds":
        if not isinstance(obj, dict):
            raise ValueError("bounds must be an object")
        names = ("max_depth", "transvection_degree", "transvection_coeff", "unit_exponent")
        return cls(*(int_from_json(obj.get(name, 2), name) for name in names))


DEFAULT_BOUNDS = SearchBounds(
    max_depth=2, transvection_degree=2, transvection_coeff=2, unit_exponent=2
)

FOUND = "found"
EXHAUSTED = "exhausted"
OBSTRUCTION_MISMATCH = "obstruction_mismatch"


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    moves: Optional[tuple[MoveSpec, ...]] = None
    base_change: Optional[BaseChange] = None
    reason: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.status == FOUND:
            out["moves"] = [m.to_json() for m in self.moves]
            out["P"] = {
                "rank": str(self.base_change.rank),
                "entries": [e.to_json() for row in self.base_change.matrix for e in row],
            }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# -- obstruction -------------------------------------------------------------


def det_obstruction(a: HermitianForm, g: int) -> Optional[str]:
    """A reason the form cannot be congruent to the standard genus-g form."""
    if a.rank != 2 * g:
        raise ValueError(f"form rank {a.rank} does not match genus {g}")
    return _det_obstruction(determinant(a), h2_sum(g))


def _det_obstruction(det_a: LaurentPoly, target: HermitianForm) -> Optional[str]:
    """A reason a form of determinant det_a cannot be congruent to target.

    Congruence by a unit-determinant base change multiplies the
    determinant by u * involve(u) = 1, so association of determinants is
    necessary. Returns None when compatible.
    """
    if assoc_eq(det_a, determinant(target)):
        return None
    return "determinant not associate to the target determinant"


# -- move enumeration ---------------------------------------------------------


@lru_cache(maxsize=None)
def _poly_box(degree: int, coeff: int) -> tuple[LaurentPoly, ...]:
    """All nonzero polynomials with exponents in [-degree, degree] and
    coefficients in [-coeff, coeff], in canonical enumeration order:
    fewer terms first, then smaller exponent radius, then term tuples."""
    exponents = range(-degree, degree + 1)
    values = range(-coeff, coeff + 1)
    polys = []
    for combo in itertools.product(values, repeat=len(exponents)):
        if not any(combo):
            continue
        polys.append(LaurentPoly(dict(zip(exponents, combo))))
    polys.sort(key=lambda p: (len(p.terms()), max(abs(e) for e in p.support()), p.terms()))
    return tuple(polys)


@lru_cache(maxsize=None)
def _unit_scales(n: int, exponent: int) -> tuple[UnitScale, ...]:
    out = []
    for i in range(n):
        for k in range(-exponent, exponent + 1):
            for sign in (1, -1):
                if sign == 1 and k == 0:
                    continue  # identity
                out.append(UnitScale(i, sign, k))
    return tuple(out)


def _index_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


# -- state transitions --------------------------------------------------------


def _apply_transvection(entries: Matrix, i: int, j: int, p: LaurentPoly) -> Matrix:
    # E A E* with E = I + p e_ij touches only row i, column i, and (i, i).
    # Zero operands are skipped so unchanged entries keep their identity.
    n = len(entries)
    p_bar = p.involve()
    row_i, row_j = entries[i], entries[j]
    new_rows = []
    for r in range(n):
        if r == i:
            row = []
            for c in range(n):
                if c == i:
                    val = row_i[i]
                    if not row_j[i].is_zero:
                        val = val + p * row_j[i] + p_bar * row_i[j]
                    if not row_j[j].is_zero:
                        val = val + p * p_bar * row_j[j]
                else:
                    val = row_i[c] if row_j[c].is_zero else row_i[c] + p * row_j[c]
                row.append(val)
            new_rows.append(tuple(row))
        elif entries[r][j].is_zero:
            new_rows.append(entries[r])
        else:
            row = list(entries[r])
            row[i] = entries[r][i] + p_bar * entries[r][j]
            new_rows.append(tuple(row))
    return tuple(new_rows)


def _apply_unit_scale(entries: Matrix, i: int, u: LaurentPoly) -> Matrix:
    n = len(entries)
    u_bar = u.involve()
    new_rows = []
    for r in range(n):
        if r == i:
            new_rows.append(
                tuple(
                    entries[i][c] if c == i or entries[i][c].is_zero else u * entries[i][c]
                    for c in range(n)
                )
            )
        elif entries[r][i].is_zero:
            new_rows.append(entries[r])
        else:
            row = list(entries[r])
            row[i] = entries[r][i] * u_bar
            new_rows.append(tuple(row))
    return tuple(new_rows)


def _apply_swap(entries: Matrix, i: int, j: int) -> Matrix:
    n = len(entries)
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(tuple(entries[perm[r]][perm[c]] for c in range(n)) for r in range(n))


def apply_move(entries: Matrix, move: MoveSpec) -> Matrix:
    if isinstance(move, Transvection):
        return _apply_transvection(entries, move.i, move.j, move.p)
    if isinstance(move, UnitScale):
        return _apply_unit_scale(entries, move.i, move.unit())
    if isinstance(move, Swap):
        return _apply_swap(entries, move.i, move.j)
    raise TypeError(f"unknown move {move!r}")


def _state_key(entries: Matrix) -> str:
    # Row-major canonical tokens joined by NUL; zero encodes as "" and sorts
    # first. NUL sorts below every token character and every key of a search
    # has n * n fields, so string order is the order of the token tuples.
    return "\0".join([e.token() for row in entries for e in row])


def _replay(entries: Matrix, moves: tuple[MoveSpec, ...]) -> Matrix:
    for move in moves:
        entries = apply_move(entries, move)
    return entries


def _in_box(p: LaurentPoly, bounds: SearchBounds) -> bool:
    return (
        not p.is_zero
        and all(abs(e) <= bounds.transvection_degree for e in p.support())
        and all(abs(c) <= bounds.transvection_coeff for _, c in p.terms())
    )


# -- goal detection -----------------------------------------------------------


def _agrees_outside(entries: Matrix, target: Matrix, skip: frozenset[int]) -> bool:
    n = len(entries)
    for r in range(n):
        if r in skip:
            continue
        for c in range(n):
            if c in skip:
                continue
            if entries[r][c] != target[r][c]:
                return False
    return True


def _goal_transvection(
    entries: Matrix,
    target: Matrix,
    i: int,
    j: int,
    bounds: SearchBounds,
    shifts: _DiagonalShifts,
) -> Optional[Transvection]:
    """The transvection on (i, j) carrying entries to target, if one exists
    within bounds. Assumes agreement outside row/column i was checked."""
    n = len(entries)
    pin = None
    for c in range(n):
        if c != i and not entries[j][c].is_zero:
            pin = c
            break
    if pin is not None:
        p = (target[i][pin] - entries[i][pin]).divide_exact(entries[j][pin])
        if p is None or p.is_zero or not _in_box(p, bounds):
            return None
        move = Transvection(i, j, p)
        return move if _apply_transvection(entries, i, j, p) == target else None
    # Row j vanishes outside column i, so the new row i equals the old one;
    # only the (i, i) entry moves, by p*a + involve(p*a) with a = A[j][i].
    for c in range(n):
        if c != i and entries[i][c] != target[i][c]:
            return None
    a = entries[j][i]
    if a.is_zero:
        return None
    p = shifts.first(a, target[i][i] - entries[i][i])
    return None if p is None else Transvection(i, j, p)


class _DiagonalShifts:
    """The first box polynomial p, in canonical order, with
    p*a + involve(p*a) equal to a given value.

    The box is scanned for each a only as far as a lookup needs, and the
    values met are kept, so a kept a never multiplies the same p twice:
    the goal checks of one search that reach this case mostly share a few
    values of a (such as the 1 - t of a block form). At most MAX_SCANS
    values of a are kept, the oldest dropped first, which bounds memory
    without changing any answer. One search owns one instance.
    """

    MAX_SCANS = 16

    def __init__(self, box: tuple[LaurentPoly, ...]):
        self._box = box
        self._scans: dict[LaurentPoly, tuple[dict, Iterator[LaurentPoly]]] = {}

    def first(self, a: LaurentPoly, value: LaurentPoly) -> Optional[LaurentPoly]:
        scan = self._scans.get(a)
        if scan is None:
            if len(self._scans) == self.MAX_SCANS:
                del self._scans[next(iter(self._scans))]
            scan = self._scans[a] = ({}, iter(self._box))
        met, rest = scan
        if value in met:
            return met[value]
        for p in rest:
            pa = p * a
            shift = pa + pa.involve()
            met.setdefault(shift, p)
            if shift == value:
                return p
        return None


def _find_goal_move(
    entries: Matrix, target: Matrix, bounds: SearchBounds, shifts: _DiagonalShifts
) -> Optional[MoveSpec]:
    """The first move in canonical order whose successor equals the target."""
    n = len(entries)
    agree = {i: _agrees_outside(entries, target, frozenset({i})) for i in range(n)}
    for i, j in _index_pairs(n):
        if not agree[i]:
            continue
        move = _goal_transvection(entries, target, i, j, bounds, shifts)
        if move is not None:
            return move
    for move in _unit_scales(n, bounds.unit_exponent):
        if not agree[move.i]:
            continue
        if _apply_unit_scale(entries, move.i, move.unit()) == target:
            return move
    for i in range(n):
        for j in range(i + 1, n):
            if not _agrees_outside(entries, target, frozenset({i, j})):
                continue
            if _apply_swap(entries, i, j) == target:
                return Swap(i, j)
    return None


def _expand(entries: Matrix, bounds: SearchBounds) -> Iterator[tuple[MoveSpec, Matrix]]:
    """All (move, successor) pairs of a Hermitian state, deterministically.

    Transvection successors are built from products p * row_j shared
    across the target row index i, which matters because the polynomial
    box dominates the branching factor.
    """
    n = len(entries)
    box = _poly_box(bounds.transvection_degree, bounds.transvection_coeff)
    for j in range(n):
        row_j = entries[j]
        nonzero_cols = [c for c in range(n) if not row_j[c].is_zero]
        for p in box:
            prods = {c: p * row_j[c] for c in nonzero_cols}
            invs = {c: q.involve() for c, q in prods.items()}
            pp_diag = None
            if not row_j[j].is_zero:
                pp_diag = p * p.involve() * row_j[j]
            for i in range(n):
                if i == j:
                    continue
                row_i = entries[i]
                new_rows = []
                for r in range(n):
                    if r == i:
                        row = []
                        for c in range(n):
                            if c == i:
                                val = row_i[i]
                                if i in prods:
                                    val = val + prods[i] + invs[i]
                                if pp_diag is not None:
                                    val = val + pp_diag
                            elif c in prods:
                                val = row_i[c] + prods[c]
                            else:
                                val = row_i[c]
                            row.append(val)
                        new_rows.append(tuple(row))
                    elif r in prods:
                        row = list(entries[r])
                        row[i] = entries[r][i] + invs[r]
                        new_rows.append(tuple(row))
                    else:
                        new_rows.append(entries[r])
                yield Transvection(i, j, p), tuple(new_rows)
    for move in _unit_scales(n, bounds.unit_exponent):
        yield move, _apply_unit_scale(entries, move.i, move.unit())
    for i in range(n):
        for j in range(i + 1, n):
            yield Swap(i, j), _apply_swap(entries, i, j)


# -- the search ---------------------------------------------------------------

# A stored BFS level: (state key, moves from the root) pairs in key order.
Level = list[tuple[str, tuple[MoveSpec, ...]]]


def bounded_isometry_search(
    a: HermitianForm,
    target: HermitianForm,
    bounds: SearchBounds = DEFAULT_BOUNDS,
    verify_invariants: bool = False,
) -> SearchOutcome:
    """Breadth-first search for a move sequence with P A P* = target.

    Levels are explored in order of move count; within a level, states
    are processed in lexicographic order of their canonical key and
    candidate moves in a fixed canonical order, making both the outcome
    and the particular move list deterministic. A stored level holds
    only (key, move list) pairs, and each state is rebuilt from its moves
    when it is goal-checked or expanded. The final level, whose states
    would only be goal-checked, is never materialized: _final_level_hit
    goal-checks each successor as it is generated and builds keys for
    hits only.
    """
    if a.rank != target.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {target.rank}")
    det_a = determinant(a)
    obstruction = _det_obstruction(det_a, target)
    if obstruction is not None:
        return SearchOutcome(OBSTRUCTION_MISMATCH, reason=obstruction)
    target_entries = target.entries
    root_key = _state_key(a.entries)
    if root_key == _state_key(target_entries):
        return _verified_found(a, target, ())
    det_class = det_a.normalize_associate()[0] if verify_invariants else None
    shifts = _DiagonalShifts(_poly_box(bounds.transvection_degree, bounds.transvection_coeff))
    seen = {root_key}
    level: Level = [(root_key, ())]
    for depth in range(bounds.max_depth):
        # Goal checks on `level` complete move lists of length depth + 1.
        for _, moves in level:
            entries = _replay(a.entries, moves)
            _check_det_class(entries, det_class)
            hit = _find_goal_move(entries, target_entries, bounds, shifts)
            if hit is not None:
                return _verified_found(a, target, moves + (hit,))
        if depth + 1 == bounds.max_depth:
            break
        if depth + 2 == bounds.max_depth:
            moves = _final_level_hit(
                a.entries, level, target_entries, bounds, shifts, seen, det_class
            )
            if moves is not None:
                return _verified_found(a, target, moves)
            break
        level = _next_level(a.entries, level, bounds, seen)
    return SearchOutcome(EXHAUSTED)


def _check_det_class(entries: Matrix, det_class: Optional[LaurentPoly]) -> None:
    if det_class is not None:
        node_det = determinant(entries).normalize_associate()[0]
        assert node_det == det_class, "congruence changed the determinant class"


def _next_level(
    root: Matrix,
    level: Level,
    bounds: SearchBounds,
    seen: set[str],
) -> Level:
    """The unseen successors of a level as (key, moves), sorted by key.

    A state reached twice keeps the move list that generated it first.
    """
    next_level = []
    for _, moves in level:
        for move, successor in _expand(_replay(root, moves), bounds):
            key = _state_key(successor)
            if key in seen:
                continue
            seen.add(key)
            next_level.append((key, moves + (move,)))
    next_level.sort(key=lambda item: item[0])
    return next_level


def _final_level_hit(
    root: Matrix,
    level: Level,
    target: Matrix,
    bounds: SearchBounds,
    shifts: _DiagonalShifts,
    seen: set[str],
    det_class: Optional[LaurentPoly],
) -> Optional[tuple[MoveSpec, ...]]:
    """The full move list through the final level's first hit in key order.

    Successors of the last stored level are goal-checked as they are
    generated. The hit with the smallest key wins, and among equal keys
    the first generated (strict <): the state and move list that
    deduplicating, sorting and scanning the level would pick. A key in
    `seen` belongs to an earlier level, already goal-checked without a
    hit, so no hit has one; the check only keeps the level exact.
    """
    best_key, best_moves = None, None
    for _, moves in level:
        for move, successor in _expand(_replay(root, moves), bounds):
            _check_det_class(successor, det_class)
            hit = _find_goal_move(successor, target, bounds, shifts)
            if hit is None:
                continue
            key = _state_key(successor)
            if key not in seen and (best_key is None or key < best_key):
                best_key, best_moves = key, moves + (move, hit)
    return best_moves


def _verified_found(
    a: HermitianForm, target: HermitianForm, moves: tuple[MoveSpec, ...]
) -> SearchOutcome:
    p = identity(a.rank)
    for move in moves:
        p = mat_mul(move.matrix(a.rank), p)
    if congruence(p, a).entries != target.entries:
        raise RuntimeError("search produced a move list that does not replay")
    return SearchOutcome(FOUND, moves=moves, base_change=BaseChange(p))


# -- stabilization and the conjecture probe -----------------------------------


def stabilize(a: HermitianForm, k: int) -> HermitianForm:
    """Block sum with k extra copies of the standard rank-2 form."""
    if k < 0:
        raise ValueError("stabilization count must be nonnegative")
    return HermitianForm(block_diag(a.entries, h2_sum(k).entries))


@dataclass(frozen=True)
class ProbeReport:
    """Stable-vs-direct search outcomes for one form.

    A stable Found together with a direct Exhausted only flags the form
    as a candidate worth re-running with deeper bounds; Exhausted is
    always relative to the bounds and never a nonexistence claim.
    """

    stable: SearchOutcome
    direct: SearchOutcome
    candidate: bool

    def to_json(self) -> dict:
        return {
            "stable": self.stable.to_json(),
            "direct": self.direct.to_json(),
            "candidate_for_deeper_bounds": self.candidate,
        }


def conjecture_probe(a: HermitianForm, bounds: SearchBounds = DEFAULT_BOUNDS) -> ProbeReport:
    """Compare direct reducibility of a rank-2 or rank-4 form with the
    reducibility of its one-step stabilization."""
    if a.rank not in (2, 4):
        raise ValueError(f"probe is limited to ranks 2 and 4, got {a.rank}")
    g = a.rank // 2
    direct = bounded_isometry_search(a, h2_sum(g), bounds)
    stable = bounded_isometry_search(stabilize(a, 1), h2_sum(g + 1), bounds)
    candidate = stable.found and direct.status == EXHAUSTED
    return ProbeReport(stable=stable, direct=direct, candidate=candidate)
