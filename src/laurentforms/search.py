"""Bounded congruence-move search between Hermitian forms.

The congruence action is generated by three unit-determinant move kinds:
transvections (add a polynomial multiple of one basis vector to another),
unit rescalings of a basis vector by +-t^k, and basis swaps. The search
is a breadth-first enumeration of move sequences within explicit bounds,
with states deduplicated and each level processed in lexicographic order
of a canonical key (the upper-triangle entry tokens, row-major), so
outcomes are reproducible.

Inside the search a state is a tuple of ints, one per upper-triangle
entry, each entry packed by Kronecker substitution (`_Packing`): a ring
operation of a move is one int operation, and deduplication hashes the
tuples. Each level is generated in two passes. The goal pass filters
successors on where they differ from the target, a bit mask updated
from the parent's at the entries the move writes, and builds and
goal-checks only the few the filter lets through, each state once; a
transvection block first narrows its box polynomials to those that can
pass the filter, often to none or to one found by an exact division, or
to those whose values at t = 1 and t = -1 solve the quadratic equation
of the diagonal entry there (`_Kernel.successors`). The store pass runs
only if the goal pass found no hit and another level follows: it
generates the level again and stores it as (packed state, move codes)
pairs, sorted by key. Keys are built only for hits and for
a stored level, and the last level is never stored.

"Found" outcomes are replay-checked before being returned. "Exhausted"
only means no sequence exists within the given bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from .laurent import ZERO, LaurentPoly, assoc_eq, int_from_json
from .forms import (
    BaseChange,
    HermitianForm,
    Matrix,
    block_diag,
    congruence,
    determinant,
    h2_sum,
    identity,
    involve_transpose,
    matrix_to_json,
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
            out["P"] = matrix_to_json(self.base_change.matrix)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# -- obstruction -------------------------------------------------------------


def _det_obstruction(det_a: LaurentPoly, target: HermitianForm) -> Optional[str]:
    """A reason a form of determinant det_a cannot be congruent to target.

    det(P A P*) = det(P) det(A) involve(det(P)), and a base change over
    Z[t, t^-1] has a unit determinant u = +-t^k, with u * involve(u) = 1:
    congruence keeps the determinant exactly, so equal determinants are
    necessary. Returns None when they are equal.
    """
    det_target = determinant(target)
    if det_a == det_target:
        return None
    if assoc_eq(det_a, det_target):
        return "determinant associate to the target determinant but not equal to it"
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


# -- state transitions --------------------------------------------------------


def _row_move(p: Matrix, move: MoveSpec) -> Matrix:
    """E P, with E the elementary matrix of `move`, as a row operation on P."""
    rows = list(p)
    if isinstance(move, Transvection):
        rows[move.i] = tuple(x + move.p * y for x, y in zip(rows[move.i], rows[move.j]))
    elif isinstance(move, UnitScale):
        u = move.unit()
        rows[move.i] = tuple(u * x for x in rows[move.i])
    else:  # Swap
        rows[move.i], rows[move.j] = rows[move.j], rows[move.i]
    return tuple(rows)


def apply_move(entries: Matrix, move: MoveSpec) -> Matrix:
    """E A E* for the elementary matrix E of `move` and a Hermitian A.

    Two row operations: A Hermitian gives (E A)* = A E*, so E A E* is the
    row operation of E on the involve-transpose of E A.
    """
    return _row_move(involve_transpose(_row_move(entries, move)), move)


def _in_box(p: LaurentPoly, bounds: SearchBounds) -> bool:
    return (
        not p.is_zero
        and all(abs(e) <= bounds.transvection_degree for e in p.support())
        and all(abs(c) <= bounds.transvection_coeff for _, c in p.terms())
    )


# -- goal detection -----------------------------------------------------------


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
        return move if apply_move(entries, move) == target else None
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

    The map p -> p*a + involve(p*a) is Z-linear, so for each a the images
    S_e of the monomials t^e, |e| <= degree, are packed once (`_Packing`)
    and the image of a box polynomial is the int sum(c * S_e) over its
    terms. An image has L1 norm at most 2(2d + 1)c|a|_1 and exponents
    within d + radius(a), which give B and OFF; a value beyond either bound
    is the image of no box polynomial and is answered at once.

    The box is scanned for each a only as far as a lookup needs, and the
    packed images met are kept, so a kept a never maps the same p twice:
    the goal checks of one search that reach this case mostly share a few
    values of a (such as the 1 - t of a block form). At most MAX_SCANS
    values of a are kept, the oldest dropped first, which bounds memory
    without changing any answer. One search owns one instance.
    """

    MAX_SCANS = 16

    def __init__(self, degree: int, coeff: int):
        self._degree, self._coeff = degree, coeff
        self._box = _poly_box(degree, coeff)
        self._scans: dict[LaurentPoly, tuple] = {}

    def first(self, a: LaurentPoly, value: LaurentPoly) -> Optional[LaurentPoly]:
        scan = self._scans.get(a)
        if scan is None:
            if len(self._scans) == self.MAX_SCANS:
                del self._scans[next(iter(self._scans))]
            scan = self._scans[a] = self._scan(a)
        packing, norm, radius, images, met, rest = scan
        if _norm(value) > norm or _radius(value) > radius:
            return None
        packed = packing.pack(value)
        if packed in met:
            return met[packed]
        for p in rest:
            image = sum([c * images[e] for e, c in p.terms()])
            met.setdefault(image, p)
            if image == packed:
                return p
        return None

    def _scan(self, a: LaurentPoly) -> tuple:
        """(packing, norm bound, exponent bound, S_e by e, first p by
        packed image, the rest of the box) for a."""
        d = self._degree
        norm = 2 * (2 * d + 1) * self._coeff * _norm(a)
        radius = d + _radius(a)
        packing = _Packing(norm.bit_length() + 1, radius)
        images = {}
        for e in range(-d, d + 1):
            pa = LaurentPoly([(e + x, c) for x, c in a.terms()])
            images[e] = packing.pack(pa + pa.involve())
        return packing, norm, radius, images, {}, iter(self._box)


def _find_goal_move(
    entries: Matrix, target: Matrix, bounds: SearchBounds, shifts: _DiagonalShifts
) -> Optional[MoveSpec]:
    """The first move in canonical order whose successor equals the target.

    Both matrices are Hermitian, so they differ where their upper triangles
    do. A transvection on (i, j) or a unit scale of i changes only row and
    column i, so it is tried only if those hold every mismatch; a swap of
    i and j only if every mismatch touches i or j.
    """
    n = len(entries)
    mismatches = [(r, c) for r in range(n) for c in range(r, n) if entries[r][c] != target[r][c]]
    covers = [all(i in rc for rc in mismatches) for i in range(n)]
    for i in range(n):
        if covers[i]:
            for j in range(n):
                if j != i:
                    move = _goal_transvection(entries, target, i, j, bounds, shifts)
                    if move is not None:
                        return move
    for move in _unit_scales(n, bounds.unit_exponent):
        if covers[move.i] and apply_move(entries, move) == target:
            return move
    for i in range(n):
        for j in range(i + 1, n):
            if all(i in rc or j in rc for rc in mismatches):
                move = Swap(i, j)
                if apply_move(entries, move) == target:
                    return move
    return None


# -- packed states ------------------------------------------------------------


class _Packing:
    """Kronecker substitution: the entry p is the int sum(c << B*(e + OFF))
    over its terms c*t^e, that is t^OFF * p(t) at t = 2^B, read back as
    signed base-2^B digits.

    Evaluation is a ring homomorphism, so a sum of packed entries is one
    int sum and a product one int product (at the sum of the offsets).
    The digits read back exactly while every coefficient stays below
    2^(B-1) in absolute value and every exponent at least -OFF. Decoded
    polynomials are kept by value.
    """

    def __init__(self, bits: int, offset: int):
        self.bits, self.offset = bits, offset
        self._polys: dict[int, LaurentPoly] = {0: ZERO}

    def pack(self, p: LaurentPoly) -> int:
        b, off = self.bits, self.offset
        return sum(c << b * (e + off) for e, c in p.terms())

    def terms(self, v: int) -> list[tuple[int, int]]:
        """The (exponent, coefficient) pairs of a packed entry, low to high."""
        b, mask, half = self.bits, (1 << self.bits) - 1, 1 << (self.bits - 1)
        out, e = [], -self.offset
        while v:
            zeros = ((v & -v).bit_length() - 1) // b  # zero digits at the bottom
            v >>= b * zeros
            e += zeros
            c = v & mask
            if c >= half:
                c -= 1 << b
            out.append((e, c))
            v = (v - c) >> b
            e += 1
        return out

    def poly(self, v: int) -> LaurentPoly:
        p = self._polys.get(v)
        if p is None:
            p = self._polys[v] = LaurentPoly(self.terms(v))
        return p

    def token(self, v: int) -> str:
        return self.poly(v).token()

    def involve(self, v: int) -> int:
        b, off = self.bits, self.offset
        return sum(c << b * (off - e) for e, c in self.terms(v))

    def at_pm1(self, v: int) -> tuple[int, int]:
        """(p(1), p(-1)) of the packed entry p: signed digit sums."""
        return _at_pm1(self.poly(v).terms())


@lru_cache(maxsize=8)
def _packed_box(degree: int, coeff: int, bits: int) -> tuple[tuple, dict, dict]:
    """(p, involve(p), p * involve(p)) of each box polynomial, packed with
    B = bits at its own offset: degree, degree and 2 * degree; and the box
    index of each packed p and of each packed involve(p)."""
    packing = _Packing(bits, degree)
    out = []
    for p in _poly_box(degree, coeff):
        packed, bar = packing.pack(p), packing.pack(p.involve())
        out.append((packed, bar, packed * bar))
    return (tuple(out), {p: k for k, (p, _, _) in enumerate(out)},
            {bar: k for k, (_, bar, _) in enumerate(out)})


@lru_cache(maxsize=None)
def _box_by_pm1(degree: int, coeff: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """The box indices, ascending, of the polynomials p by (p(1), p(-1))."""
    index: dict[tuple[int, int], list[int]] = {}
    for k, p in enumerate(_poly_box(degree, coeff)):
        index.setdefault(_at_pm1(p.terms()), []).append(k)
    return {pair: tuple(ks) for pair, ks in index.items()}


def _at_pm1(terms) -> tuple[int, int]:
    """(p(1), p(-1)) of the polynomial p with these (exponent, coefficient)
    terms."""
    return sum(c for _, c in terms), sum(-c if e & 1 else c for e, c in terms)


def _integer_roots(a: int, b: int, c: int, bound: int) -> Optional[list[int]]:
    """The integers s with |s| <= bound and a s^2 + 2 b s + c = 0,
    ascending; None if every s is one (a = b = c = 0)."""
    if a == 0:
        if b == 0:
            return None if c == 0 else []
        s, r = divmod(-c, 2 * b)
        return [s] if not r and abs(s) <= bound else []
    disc = b * b - a * c  # a quarter of the discriminant
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    roots = set()
    for top in (-b - root, -b + root):
        s, r = divmod(top, a)
        if not r and abs(s) <= bound:
            roots.add(s)
    return sorted(roots)


def _state_key(state: tuple[int, ...], packing: _Packing) -> str:
    # The upper-triangle tokens, row-major, joined by NUL; zero encodes as
    # "" and sorts first. NUL sorts below every token character and every
    # key of a search has n(n+1)/2 fields, so string order is the order of
    # the token tuples. For Hermitian states that is also the order of the
    # full row-major token tuples: the first entry where two of them differ
    # lies on or above the diagonal, as its mirror image differs too.
    return "\0".join([packing.token(v) for v in state])


def _norm(p: LaurentPoly) -> int:
    return sum(abs(c) for _, c in p.terms())


def _radius(p: LaurentPoly) -> int:
    return max((abs(e) for e in p.support()), default=0)


class _Kernel:
    """The packed successors and filtered goal checks of one search.

    A state is the tuple of its packed upper-triangle entries, row-major.
    B and OFF cover every state the search packs, which lies at most
    max_depth - 1 moves from the root, and the target. A transvection by
    p multiplies the largest L1 norm of an entry by at most (1 + |p|)^2,
    with |p| <= (2d + 1)c, and moves an exponent by at most 2d; a unit
    scale moves one by at most unit_exp and a swap by nothing.
    """

    def __init__(self, root: Matrix, target: Matrix, bounds: SearchBounds,
                 shifts: _DiagonalShifts):
        n, d = len(root), bounds.transvection_degree
        moves = bounds.max_depth - 1
        growth = (1 + (2 * d + 1) * bounds.transvection_coeff) ** (2 * moves)
        norm = max(max(_norm(e) for row in root for e in row) * growth,
                   max(_norm(e) for row in target for e in row))
        offset = max(max(_radius(e) for row in root for e in row)
                     + moves * max(2 * d, bounds.unit_exponent),
                     max(_radius(e) for row in target for e in row))
        self.packing = packing = _Packing(norm.bit_length() + 1, offset)
        self.n, self.bounds, self._shifts, self._target = n, bounds, shifts, target
        self._positions = [(r, c) for r in range(n) for c in range(r, n)]
        at = {rc: k for k, rc in enumerate(self._positions)}
        self._at = [[at[min(r, c), max(r, c)] for c in range(n)] for r in range(n)]
        self._box, self._box_p, self._box_bar = _packed_box(
            d, bounds.transvection_coeff, packing.bits)
        self._box_pm1 = _box_by_pm1(d, bounds.transvection_coeff)
        self._units = _unit_scales(n, bounds.unit_exponent)
        self._swap_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self._target_state = self.state(target)
        self._target_pm1 = [packing.at_pm1(v) for v in self._target_state]
        self._bits = [1 << k for k in range(len(self._positions))]
        # The positions outside row and column x, by x.
        self._outside = [sum(bit for bit, rc in zip(self._bits, self._positions) if x not in rc)
                     for x in range(n)]
        self._swaps: dict[tuple[int, ...], Swap] = {}
        for i, j in self._swap_pairs:
            move = Swap(i, j)
            self._swaps.setdefault(self.state(apply_move(target, move)), move)
        self._swap_masks = {self._mask(state) for state in self._swaps}
        self._kinds: dict[int, int] = {}  # mask -> _kind(mask)

    def state(self, entries: Matrix) -> tuple[int, ...]:
        return tuple(self.packing.pack(entries[r][c]) for r, c in self._positions)

    def matrix(self, state: tuple[int, ...]) -> Matrix:
        poly, at = self.packing.poly, self._at
        return tuple(
            tuple(poly(state[at[r][c]]) if r <= c else poly(state[at[r][c]]).involve()
                  for c in range(self.n))
            for r in range(self.n)
        )

    def move(self, code: int) -> MoveSpec:
        """The move that successors() numbers code."""
        n, size = self.n, len(self._box)
        if code < n * (n - 1) * size:
            j, rest = divmod(code, size * (n - 1))
            k, i = divmod(rest, n - 1)
            p = _poly_box(self.bounds.transvection_degree, self.bounds.transvection_coeff)[k]
            return Transvection(i + (i >= j), j, p)
        code -= n * (n - 1) * size
        if code < len(self._units):
            return self._units[code]
        return Swap(*self._swap_pairs[code - len(self._units)])

    def successors(
        self, state: tuple[int, ...], goal_only: bool = False
    ) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """(code, successor, mask) for every move, in canonical move order:
        transvections by j, then box polynomial, then i; unit scales; swaps.
        With goal_only, only the successors whose `_kind(mask)` is nonzero,
        the ones goal_move() may decode or look up, are yielded.

        A transvection by p on (i, j) adds p * a[j][c] along row i and
        involve(p) * a[c][j] down column i, and both to the diagonal with
        p * involve(p) * a[j][j]; the products are shared across i. A unit
        scale is a shift and a swap a permutation of the full matrix.

        mask is the successor's `_mask`: the state's own mask, computed
        once, with its bits recomputed only at the positions the move
        writes (at most n for a transvection or a unit scale, the rows of
        i and j for a swap).

        With goal_only, each transvection block (i, j) first narrows the
        box polynomials p it builds (`_block_filter`). The move writes only
        row and column i, and there only the entries (i, c) with
        a[j][c] != 0 and the diagonal: those "variable" positions are the
        only ones whose mask bits depend on p; the rest of the mask, the
        "fixed" part, is the parent's.
        - Kind 1 with covering index x needs the fixed part to lie in the
          row and column of x. Then any p may do if x == i; otherwise
          every (i, c) with c not in {i, x} must match the target.
        - Kind 2 with swap mask S needs the fixed part to equal S outside
          the variable positions, and every (i, c) outside S to match.
        One variable (i, c) that must match admits at most one p, found by
        one exact division. A case with no such (i, c), as kind 1 always is
        on rank 2, pins the diagonal (i, i) instead, which must match
        unless S holds it. Its new value is quadratic in p; at t = 1 and
        t = -1 it admits only the box p whose (p(1), p(-1)) is a pair of
        integer roots (`_diagonal_pin`). So the block builds no p, the p
        so found, or the whole box, the last only where any p may do or
        the diagonal's equations hold for every p. The filter only
        narrows: every p it keeps gets the exact mask and `_kind` test, so
        the yielded triples and their order are those of the full run
        filtered by `_kind`. The code of a
        kept p with box index k is j * |box| * (n - 1) + k * (n - 1) +
        i - (i > j), as in move().
        """
        n, b, at = self.n, self.packing.bits, self._at
        bits, goal, kind = self._bits, self._target_state, self._cached_kind
        parent = self._mask(state)
        full = [[0] * n for _ in range(n)]
        for (r, c), v in zip(self._positions, state):
            full[r][c] = v
            if r != c and v:
                full[c][r] = self.packing.involve(v)
        box, size = self._box, len(self._box)
        shift = b * self.bounds.transvection_degree
        for j in range(n):
            cols = [c for c in range(n) if full[j][c]]
            row_j = [full[j][c] for c in cols]
            col_j = [full[c][j] for c in cols]
            a_jj, m = full[j][j], len(cols)
            # For each p, vals holds p * a[j][c] for c in cols, then
            # involve(p) * a[c][j] for c in cols, then p * involve(p) * a[j][j];
            # the move on (i, j) adds vals[s] at position k for (k, s) in ops.
            # A plan is (code offset of i, ops, written positions, fixed mask);
            # `whole` holds the plans that build every p, `picks` the others
            # by the box index of the p they build.
            whole, picks = [], {}
            for i in range(n):
                if i == j:
                    continue
                ops = [(at[i][c], s if c > i else m + s) for s, c in enumerate(cols) if c != i]
                if i in cols:
                    s = cols.index(i)
                    ops += [(at[i][i], s), (at[i][i], m + s)]
                if a_jj:
                    ops.append((at[i][i], 2 * m))
                written = sorted({k for k, _ in ops})
                variable = sum(bits[k] for k in written)
                fixed = parent & ~variable
                plan = (i - (i > j), ops, written, fixed)
                ks = None
                if goal_only:
                    ks = self._block_filter(state, full, i, j, cols, fixed, variable)
                if ks is None:
                    whole.append(plan)
                else:
                    for k in ks:
                        picks.setdefault(k, []).append(plan)
            # visits: (code of p at offset 0, packed p, plans), by box index.
            base = j * size * (n - 1)
            codes = itertools.count(base, n - 1)
            if not picks:
                visits = zip(codes, box, itertools.repeat(whole)) if whole else ()
            elif not whole:
                visits = [(base + k * (n - 1), box[k], plans) for k, plans in sorted(picks.items())]
            else:
                visits = ((code, packed, sorted(whole + picks[k]) if k in picks else whole)
                          for k, code, packed in zip(range(size), codes, box))
            for code, (p, bar, pp), plans in visits:
                vals = [(p * x) >> shift for x in row_j] + [(bar * x) >> shift for x in col_j]
                if a_jj:
                    vals.append((pp * a_jj) >> 2 * shift)
                for offset, ops, written, mask in plans:
                    new = list(state)
                    for k, s in ops:
                        new[k] += vals[s]
                    for k in written:
                        if new[k] != goal[k]:
                            mask |= bits[k]
                    if not goal_only or kind(mask):
                        yield code + offset, tuple(new), mask
        code = n * (n - 1) * size
        for move in self._units:
            i, sign, up = move.i, move.sign, b * move.k
            new, written = list(state), []
            for c in range(n):
                if c != i and full[i][c]:
                    # u * a[i][c] above the diagonal, a[c][i] * involve(u) below
                    s = up if c > i else -up
                    k = at[i][c]
                    new[k] = sign * (state[k] << s if s >= 0 else state[k] >> -s)
                    written.append(k)
            mask = self._remask(parent, new, written)
            if not goal_only or kind(mask):
                yield code, tuple(new), mask
            code += 1
        for i, j in self._swap_pairs:
            perm = list(range(n))
            perm[i], perm[j] = j, i
            new = [full[perm[r]][perm[c]] for r, c in self._positions]
            mask = self._remask(parent, new, at[i] + at[j])
            if not goal_only or kind(mask):
                yield code, tuple(new), mask
            code += 1

    def _block_filter(self, state, full, i: int, j: int, cols: list[int], fixed: int,
                      variable: int) -> Optional[list[int]]:
        """The box indices, ascending, of the p that may give the
        transvection on (i, j) a successor of nonzero `_kind`, or None if
        any p may (see successors()). fixed and variable split the mask
        as there. The p matching an entry (i, c) solves p * a[j][c] =
        T[i][c] - A[i][c] as an exact division of packed ints: the product
        of every box p with a[j][c] fits the kernel's digits, so its
        packed product is exact and unique. A case with no such entry to
        pin pins the diagonal instead (`_diagonal_pin`), unless the swap
        mask holds it.
        """
        if not fixed & self._outside[i]:
            return None
        at, bits = self._at, self._bits
        free = [c for c in cols if c != i]
        pins = set()  # the columns c whose (i, c) must match, one per case; i: the diagonal
        for x in range(self.n):
            if x != i and not fixed & self._outside[x]:
                pins.add(next((c for c in free if c != x), i))
        for mask in self._swap_masks:
            if not (fixed ^ mask) & ~variable:
                c = next((c for c in free if not mask & bits[at[i][c]]), i)
                if c == i and mask & bits[at[i][i]]:
                    return None
                pins.add(c)
        found = set()
        if i in pins:
            pins.remove(i)
            ks = self._diagonal_pin(state, i, j)
            if ks is None:
                return None
            found.update(ks)
        shift = self.packing.bits * self.bounds.transvection_degree
        for c in pins:
            k = at[i][c]
            x, index = (full[j][c], self._box_p) if c > i else (full[c][j], self._box_bar)
            q, r = divmod((self._target_state[k] - state[k]) << shift, x)
            if not r and q in index:
                found.add(index[q])
        return sorted(found)

    def _diagonal_pin(self, state, i: int, j: int) -> Optional[list[int]]:
        """The box indices of the p whose transvection on (i, j) may leave
        the entry (i, i) equal to the target's, or None if any p may.

        The move makes it a[i][i] + p * a[j][i] + involve(p * a[j][i]) +
        p * involve(p) * a[j][j]. The involution fixes t = 1 and t = -1, so
        at each e in {1, -1} the value s = p(e) solves a[j][j](e) s^2 +
        2 a[j][i](e) s + (a[i][i] - T[i][i])(e) = 0, with |s| <= (2d + 1)c.
        The box is indexed by (p(1), p(-1)), so the p kept are those of
        the pairs of integer roots. At a point where every coefficient is
        0, any s is a root: t = 1 is one whenever the state and the target
        are congruent to a sum of H2, which vanishes there.
        """
        at, at_pm1 = self._at, self.packing.at_pm1
        bound = (2 * self.bounds.transvection_degree + 1) * self.bounds.transvection_coeff
        quad, lin = at_pm1(state[at[j][j]]), at_pm1(state[at[i][j]])
        k = at[i][i]
        here, goal = at_pm1(state[k]), self._target_pm1[k]
        roots = [_integer_roots(quad[e], lin[e], here[e] - goal[e], bound) for e in (0, 1)]
        if roots[0] is None and roots[1] is None:
            return None
        every = range(-bound, bound + 1)
        pairs = itertools.product(*(every if r is None else r for r in roots))
        return sorted(itertools.chain.from_iterable(self._box_pm1.get(pair, ()) for pair in pairs))

    def _remask(self, mask: int, state, written) -> int:
        """mask with its bits at the positions written recomputed for state."""
        for k in written:
            if state[k] != self._target_state[k]:
                mask |= self._bits[k]
            else:
                mask &= ~self._bits[k]
        return mask

    def goal_move(self, state: tuple[int, ...], mask: int) -> Optional[MoveSpec]:
        """_find_goal_move of the state, whose `_mask` is mask (as
        successors() yields it). The state is decoded only if the entries
        where it differs from the target lie in the row and column of one
        index (`_kind` 1); otherwise only a swap can reach the target, and
        only from a swap of the target, which one lookup finds (`_kind` 2).
        A state of `_kind` 0 has no goal move, so the goal pass of the
        search never builds it."""
        kind = self._cached_kind(mask)
        if kind == 1:
            return _find_goal_move(self.matrix(state), self._target, self.bounds, self._shifts)
        if kind == 2:
            return self._swaps.get(state)
        return None

    def _mask(self, state: tuple[int, ...]) -> int:
        return sum([bit for bit, v, t in zip(self._bits, state, self._target_state) if v != t])

    def _cached_kind(self, mask: int) -> int:
        kind = self._kinds.get(mask)
        if kind is None:
            kind = self._kinds[mask] = self._kind(mask)
        return kind

    def _kind(self, mask: int) -> int:
        """1 if one index covers the positions in mask, else 2 if a swap of
        the target differs from it there, else 0."""
        touched = [{r, c} for bit, (r, c) in zip(self._bits, self._positions) if mask & bit]
        if not touched or set.intersection(*touched):
            return 1
        return 2 if mask in self._swap_masks else 0


# -- the search ---------------------------------------------------------------


def bounded_isometry_search(
    a: HermitianForm,
    target: HermitianForm,
    bounds: SearchBounds = DEFAULT_BOUNDS,
) -> SearchOutcome:
    """Breadth-first search for a move sequence with P A P* = target.

    Levels are explored in order of move count; within a level, states
    are processed in lexicographic order of their canonical key and
    candidate moves in a fixed canonical order, making both the outcome
    and the particular move list deterministic.

    The input form is goal-checked as it is. Each later level is
    generated from the sorted level before it, in two passes over the
    same successors. The goal pass builds only the successors whose
    mismatch mask lets goal_move() decode or look them up (`_Kernel._kind`
    nonzero), after each transvection block has narrowed the box
    polynomials to those that can give such a mask; it skips those in
    `seen` or already checked on this level, and goal-checks the rest.
    Among a level's hits the one with the smallest key wins, the first
    generated on ties: the state a scan of the sorted level would reach
    first. Only if there is no hit and a
    level follows does the store pass generate the level again, add each
    unseen successor to `seen`, store it as (packed state, move codes)
    with its first generator, and sort the level by keys built then; a
    search that hits on a level never builds or stores that level.

    The two passes return what one pass that stores and goal-checks
    every unseen successor as it appears would return:

    - A successor the goal pass does not build is of `_kind` 0 and has
      no goal move.
    - A state in `seen` has no goal move: the root was goal-checked by
      `_find_goal_move`, and every stored state in the goal pass of its
      level (or not built there, being of `_kind` 0).
    - goal_move() is a function of the state, so a duplicate within a
      level gives the same hit and key; the strict `<` keeps the first
      generated.
    - The store pass visits the successors in the same order and keeps
      the first generator of each state.

    Entries are packed with B-bit signed digits at offset OFF, taken
    from a bound over the root, the target and max_depth - 1 moves
    (`_Kernel`); the last move is found on decoded states. Every packed
    digit is thus proven to fit, and none can overflow.
    """
    if a.rank != target.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {target.rank}")
    det_a = determinant(a)
    obstruction = _det_obstruction(det_a, target)
    if obstruction is not None:
        return SearchOutcome(OBSTRUCTION_MISMATCH, reason=obstruction)
    if a.entries == target.entries:
        return _verified_found(a, target, ())
    if bounds.max_depth == 0:
        return SearchOutcome(EXHAUSTED)
    shifts = _DiagonalShifts(bounds.transvection_degree, bounds.transvection_coeff)
    hit = _find_goal_move(a.entries, target.entries, bounds, shifts)
    if hit is not None:
        return _verified_found(a, target, (hit,))
    if bounds.max_depth == 1:
        return SearchOutcome(EXHAUSTED)
    kernel = _Kernel(a.entries, target.entries, bounds, shifts)
    root = kernel.state(a.entries)
    seen = {root}
    level = [(root, ())]
    for length in range(2, bounds.max_depth + 1):
        # Goal pass: the successors of `level` complete move lists of the
        # given length; only those goal_move() may decode or look up are
        # built, and each state at most once.
        best_key = best = None
        checked = set()
        for state, codes in level:
            for code, successor, mask in kernel.successors(state, goal_only=True):
                if successor in seen or successor in checked:
                    continue
                checked.add(successor)
                hit = kernel.goal_move(successor, mask)
                if hit is None:
                    continue
                key = _state_key(successor, kernel.packing)
                if best_key is None or key < best_key:
                    best_key, best = key, (codes + (code,), hit)
        if best is not None:
            codes, hit = best
            return _verified_found(a, target, tuple(map(kernel.move, codes)) + (hit,))
        if length == bounds.max_depth:
            break
        # Store pass: the level is expanded next, so generate it again,
        # keep the first generator of each unseen state and sort by key.
        stored = []
        for state, codes in level:
            for code, successor, _ in kernel.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    stored.append((successor, codes + (code,)))
        stored.sort(key=lambda item: _state_key(item[0], kernel.packing))
        level = stored
    return SearchOutcome(EXHAUSTED)


def _verified_found(
    a: HermitianForm, target: HermitianForm, moves: tuple[MoveSpec, ...]
) -> SearchOutcome:
    p = identity(a.rank)
    for move in moves:
        p = _row_move(p, move)
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
