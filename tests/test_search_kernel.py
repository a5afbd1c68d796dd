"""Property tests of the packed search kernel (`search._Kernel`).

States are random Hermitian matrices of rank 2-4; each test compares the
packed kernel with the LaurentPoly reference it replaces: `apply_move` for
successors, `LaurentPoly` itself for packing, `_find_goal_move` for goal
checks, and full row-major token keys for key order; the mismatch masks
that successors() carries over from the parent are compared with `_mask`
computed from scratch; the goal-only successors are compared with the
full run filtered by `_kind`, and the box polynomials the goal pass's
block filter leaves out with successors of `_kind` 0, also where it pins
a diagonal entry by its integer roots at t = 1 and t = -1, which are
compared with a scan; `_find_goal_move` itself is compared with trying
every move in its order.
"""

import itertools

from hypothesis import given, settings, strategies as st

from laurentforms import (
    LaurentPoly,
    ONE,
    SearchBounds,
    Swap,
    T,
    T_INV,
    Transvection,
    UnitScale,
    ZERO,
    h2_sum,
)
from laurentforms.search import (
    _DiagonalShifts,
    _Kernel,
    _find_goal_move,
    _integer_roots,
    _poly_box,
    _state_key,
    _unit_scales,
    apply_move,
)

from conftest import block_form

_polys = st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4).map(LaurentPoly)


@st.composite
def _hermitian(draw, n=None, polys=_polys):
    n = draw(st.integers(2, 4)) if n is None else n
    rows = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            p = draw(polys)
            if r == c:
                p = p + p.involve()
            rows[r][c], rows[c][r] = p, p.involve()
    return tuple(tuple(row) for row in rows)


# Boxes of at most 124 polynomials keep a rank-4 level near 1,500 states.
_bounds = st.builds(SearchBounds, st.integers(2, 3), st.integers(0, 1), st.integers(1, 2),
                    st.integers(0, 3))


def _shifts(bounds):
    return _DiagonalShifts(bounds.transvection_degree, bounds.transvection_coeff)


def _canonical_moves(n, bounds):
    box = _poly_box(bounds.transvection_degree, bounds.transvection_coeff)
    moves = [Transvection(i, j, p) for j in range(n) for p in box for i in range(n) if i != j]
    moves += _unit_scales(n, bounds.unit_exponent)
    return moves + [Swap(i, j) for i in range(n) for j in range(i + 1, n)]


def _inverse(move):
    if isinstance(move, Transvection):
        return Transvection(move.i, move.j, -move.p)
    if isinstance(move, UnitScale):
        return UnitScale(move.i, move.sign, -move.k)
    return move


@settings(max_examples=25, deadline=None)
@given(_hermitian(), _bounds, st.data())
def test_packed_successors_equal_apply_move(entries, bounds, data):
    # Every move kind, from the root and from one of its successors (two
    # moves from the root is as far as a depth-3 search packs a state).
    kernel = _Kernel(entries, entries, bounds, None)
    root = kernel.state(entries)
    assert kernel.matrix(root) == entries
    moves = _canonical_moves(len(entries), bounds)
    successors = list(kernel.successors(root))
    assert [code for code, _, _ in successors] == list(range(len(moves)))
    for code, successor, _ in successors:
        assert kernel.move(code) == moves[code]
        assert kernel.matrix(successor) == apply_move(entries, moves[code])
    if bounds.max_depth == 3:
        code, state, _ = data.draw(st.sampled_from(successors))
        parent = apply_move(entries, moves[code])
        for code, successor, _ in kernel.successors(state):
            assert kernel.matrix(successor) == apply_move(parent, moves[code])


@settings(max_examples=40, deadline=None)
@given(_hermitian(), _bounds, st.data())
def test_yielded_masks_equal_recomputed_masks(entries, bounds, data):
    # A target equal to the root, one move from it or unrelated, so that
    # masks have both set and clear bits; every move kind, from the root
    # and from one of its successors.
    n = len(entries)
    moves = _canonical_moves(n, bounds)
    target = data.draw(st.one_of(st.just(entries),
                                 st.sampled_from(moves).map(lambda m: apply_move(entries, m)),
                                 _hermitian(n)))
    kernel = _Kernel(entries, target, bounds, None)
    successors = list(kernel.successors(kernel.state(entries)))
    assert len(successors) == len(moves)
    for _, successor, mask in successors:
        assert mask == kernel._mask(successor)
    if bounds.max_depth == 3:
        _, state, _ = data.draw(st.sampled_from(successors))
        for _, successor, mask in kernel.successors(state):
            assert mask == kernel._mask(successor)


def _goal_pass_cases(entries, bounds, data):
    """A kernel and the states to expand toward a target: the target is
    the root, one move from it, a transvection and another move from it,
    or unrelated; the states are the root and, at depth 3, a successor,
    maybe the one by that transvection (one move from the target)."""
    n = len(entries)
    moves = _canonical_moves(n, bounds)
    first = data.draw(st.integers(0, n * (n - 1) * len(_poly_box(
        bounds.transvection_degree, bounds.transvection_coeff)) - 1))  # a transvection
    second = data.draw(st.sampled_from(moves))
    near = apply_move(entries, moves[first])
    target = data.draw(st.sampled_from(
        [entries, near, apply_move(near, second), data.draw(_hermitian(n))]))
    kernel = _Kernel(entries, target, bounds, None)
    root = kernel.state(entries)
    states = [root]
    if bounds.max_depth == 3:
        successors = list(kernel.successors(root))
        index = data.draw(st.one_of(st.just(first), st.integers(0, len(successors) - 1)))
        states.append(successors[index][1])
    return kernel, states


def _goal_pass_visits(kernel, state):
    """The (code, successor, mask) triples of every transvection that the
    goal pass builds from state, whatever the `_kind` of its mask."""
    kernel._cached_kind = lambda mask: 1  # an instance attribute, for this kernel only
    try:
        size = len(kernel._box)
        return [triple for triple in kernel.successors(state, goal_only=True)
                if triple[0] < kernel.n * (kernel.n - 1) * size]
    finally:
        del kernel._cached_kind


@settings(max_examples=40, deadline=None)
@given(_hermitian(), _bounds, st.data())
def test_goal_only_successors_are_those_of_nonzero_kind(entries, bounds, data):
    # The goal pass of the search builds only the successors goal_move()
    # may decode or look up: with goal_only, successors() yields exactly
    # the (code, successor, mask) triples of the full run whose mask is of
    # a nonzero `_kind`, in the same order. Targets at every distance, so
    # that all three kinds occur and the block filter both skips blocks and
    # scans whole boxes; from the root and from one of its successors.
    kernel, states = _goal_pass_cases(entries, bounds, data)
    for state in states:
        expected = [triple for triple in kernel.successors(state) if kernel._kind(triple[2])]
        assert list(kernel.successors(state, goal_only=True)) == expected


@settings(max_examples=30, deadline=None)
@given(_hermitian(polys=st.one_of(st.just(ZERO), _polys)), _bounds, st.data())
def test_block_filter_leaves_out_only_successors_of_kind_zero(entries, bounds, data):
    # Every box polynomial the goal pass's block filter leaves out gives a
    # successor of `_kind` 0, and every one it keeps is built as the full
    # run builds it, under the same code. Cases as above, on states with
    # many zero entries: a target two moves away puts mismatches in two
    # rows, so blocks are skipped. Random states seldom leave a block
    # solved for one p; the genus-2 test below pins one that does.
    kernel, states = _goal_pass_cases(entries, bounds, data)
    for state in states:
        _assert_left_out_are_of_kind_zero(kernel, state)


def _at(p, e):
    """p(e), for e in {1, -1}."""
    return p.augment() if e == 1 else sum(-c if k % 2 else c for k, c in p.terms())


@st.composite
def _rank_2_roots(draw):
    """Rank-2 Hermitian matrices with a nonzero off-diagonal entry; each
    diagonal entry is zero half the time."""
    diagonal = st.one_of(st.just(ZERO), _polys)
    a, c = (p + p.involve() for p in (draw(diagonal), draw(diagonal)))
    b = draw(_polys.filter(lambda p: not p.is_zero))
    return ((a, b), (b.involve(), c))


@settings(max_examples=60, deadline=None)
@given(_rank_2_roots(), _bounds, st.data())
def test_diagonal_pin_keeps_every_successor_of_nonzero_kind(entries, bounds, data):
    # On rank 2, a transvection on (i, j) leaves row i with no entry off
    # the diagonal to pin when the (j, j) entry differs from the target,
    # so the goal pass pins the diagonal (i, i), quadratic in p if
    # a[j][j] != 0 and linear if not. Targets one transvection and maybe
    # one more move away put the mismatch there; goal-only successors are
    # the full run filtered by `_kind`, from the root and from one of its
    # successors.
    moves = _canonical_moves(2, bounds)
    transvections = [m for m in moves if isinstance(m, Transvection)]
    target = apply_move(entries, data.draw(st.sampled_from(transvections)))
    if data.draw(st.booleans()):
        target = apply_move(target, data.draw(st.sampled_from(moves)))
    kernel = _Kernel(entries, target, bounds, None)
    states = [kernel.state(entries)]
    if bounds.max_depth == 3:
        successors = list(kernel.successors(states[0]))
        states.append(data.draw(st.sampled_from(successors))[1])
    for state in states:
        expected = [triple for triple in kernel.successors(state) if kernel._kind(triple[2])]
        assert list(kernel.successors(state, goal_only=True)) == expected


def test_integer_roots_match_a_scan():
    # Every triple with entries within 6, degenerate ones included, and
    # bounds on both sides of the roots.
    values = range(-6, 7)
    for a, b, c in itertools.product(values, repeat=3):
        for bound in (0, 1, 3, 6):
            roots = [s for s in range(-bound, bound + 1) if a * s * s + 2 * b * s + c == 0]
            expected = None if a == b == c == 0 else roots
            assert _integer_roots(a, b, c, bound) == expected, (a, b, c, bound)


def _assert_left_out_are_of_kind_zero(kernel, state):
    full = list(kernel.successors(state))
    visits = _goal_pass_visits(kernel, state)
    for code, successor, mask in visits:
        assert full[code] == (code, successor, mask)
    visited = {code for code, _, _ in visits}
    for code, _, mask in full[:len(full) - len(kernel._units) - len(kernel._swap_pairs)]:
        if code not in visited:
            assert kernel._kind(mask) == 0, kernel.move(code)
    return visits


def test_block_filter_prunes_the_goal_pass_of_a_genus_2_block_form():
    # The root of a genus-2 search against H2 + H2 on the default box (3124
    # polynomials), with both diagonal entries nonzero, so that no single
    # move reaches the target: no block of the goal pass scans the whole
    # box. A block on (1, 0) or (3, 2) can mend the mismatched diagonal
    # entry (i, i), but row j has no entry off the diagonal to pin, so it
    # builds exactly the p whose (p(1), p(-1)) solves the diagonal's
    # quadratic at t = 1 and t = -1 (here linear: a[j][j] = 0); every
    # other block builds at most one p per covering index and per swap
    # mask, each from one exact division.
    bounds = SearchBounds(3, 2, 2, 2)
    target = h2_sum(2).entries
    for cs in ([ONE + T, T_INV - 2], [2 * T, ONE - T_INV], [T - ONE, ONE]):
        form = block_form(cs)
        assert not form.entries[1][1].is_zero and not form.entries[3][3].is_zero
        kernel = _Kernel(form.entries, target, bounds, None)
        box, n = _poly_box(2, 2), kernel.n
        per_block = {}
        for code, _, _ in _goal_pass_visits(kernel, kernel.state(form.entries)):
            move = kernel.move(code)
            per_block.setdefault((move.i, move.j), []).append(move.p)
        assert all(len(ps) < len(box) for ps in per_block.values())
        a = form.entries
        for i, j in ((1, 0), (3, 2)):
            expected = [p for p in box if all(
                _at(a[j][j], e) * _at(p, e) ** 2 + 2 * _at(a[j][i], e) * _at(p, e)
                + _at(a[i][i] - target[i][i], e) == 0 for e in (1, -1))]
            assert expected and per_block.pop((i, j), []) == expected, (i, j)
        assert all(len(ps) <= n + len(kernel._swap_masks) for ps in per_block.values())
    # A root two transvections from the target, on rows 0 and 2: each of
    # their blocks is solved for its p (through the entry (0, 1) above the
    # diagonal and (2, 0) below it), no other transvection is built, and
    # every one left out gives a successor of `_kind` 0. Both are on j = 1,
    # so they come in box order: 2t^-1 before t.
    root = block_form([ONE + T, T_INV - 2]).entries
    first, second = Transvection(0, 1, T), Transvection(2, 1, 2 * T_INV)
    kernel = _Kernel(root, apply_move(apply_move(root, first), second), bounds, None)
    visits = _assert_left_out_are_of_kind_zero(kernel, kernel.state(root))
    assert [kernel.move(code) for code, _, _ in visits] == [second, first]


@settings(max_examples=50, deadline=None)
@given(_hermitian(), _bounds, st.data())
def test_pack_round_trip_at_the_digit_and_exponent_limits(entries, bounds, data):
    packing = _Kernel(entries, entries, bounds, None).packing
    top, off = (1 << (packing.bits - 1)) - 1, packing.offset
    edge = st.sampled_from([top, -top])
    terms = {-off: data.draw(edge), off: data.draw(edge)}
    for e in data.draw(st.lists(st.integers(-off, off), max_size=6)):
        terms[e] = data.draw(st.one_of(edge, st.integers(-top, top)))
    for p in (LaurentPoly(terms), LaurentPoly({-off: data.draw(edge)}), ZERO):
        packed = packing.pack(p)
        assert packing.poly(packed) == p
        assert packing.token(packed) == p.token()
        assert packing.poly(packing.involve(packed)) == p.involve()


@settings(max_examples=60, deadline=None)
@given(_hermitian(), _bounds, st.data())
def test_filtered_goal_check_matches_find_goal_move(target, bounds, data):
    # On a random state and on preimages m^-1(T) of the target under random
    # moves of every kind (each then has a goal move, not always m).
    n = len(target)
    moves = _canonical_moves(n, bounds)
    states = [data.draw(_hermitian(n))]
    states += [apply_move(target, _inverse(data.draw(st.sampled_from(moves))))
               for _ in range(4)]
    states += [apply_move(target, Swap(i, j)) for i in range(n) for j in range(i + 1, n)]
    for state in states:
        kernel = _Kernel(state, target, bounds, _shifts(bounds))
        expected = _find_goal_move(state, target, bounds, _shifts(bounds))
        packed = kernel.state(state)
        assert kernel.goal_move(packed, kernel._mask(packed)) == expected


@settings(max_examples=20, deadline=None)
@given(_hermitian(), _bounds, st.data())
def test_find_goal_move_is_the_first_move_that_reaches_the_target(target, bounds, data):
    # The mismatch filter skips only moves that cannot reach the target: on
    # a random state, preimages m^-1(T) and a swap of T, the goal move is
    # the first move, in the order the goal check tries them (transvections
    # by (i, j), then box polynomial; unit scales; swaps), whose successor
    # equals the target. A state equal to the target is not goal-checked.
    n = len(target)
    box = _poly_box(bounds.transvection_degree, bounds.transvection_coeff)
    moves = [Transvection(i, j, p) for i in range(n) for j in range(n) if i != j for p in box]
    moves += _unit_scales(n, bounds.unit_exponent)
    moves += [Swap(i, j) for i in range(n) for j in range(i + 1, n)]
    i, j = sorted(data.draw(st.permutations(range(n)))[:2])
    states = [data.draw(_hermitian(n)), apply_move(target, Swap(i, j))]
    states += [apply_move(target, _inverse(data.draw(st.sampled_from(moves)))) for _ in range(2)]
    for state in states:
        if state != target:
            first = next((m for m in moves if apply_move(state, m) == target), None)
            assert _find_goal_move(state, target, bounds, _shifts(bounds)) == first


def test_goal_check_needs_one_index_to_cover_every_mismatch():
    # Row 1 vanishes outside column 0, so the transvection on (0, 1) by p
    # moves only the (0, 0) entry, by p*a + involve(p*a). It reaches the
    # target from `near`, but not from `far`, which also differs at (2, 2).
    a, bounds = LaurentPoly({0: 1, 1: -1}), SearchBounds(1, 2, 2, 2)
    target = ((ZERO, a, ZERO), (a.involve(), ZERO, ZERO), (ZERO, ZERO, LaurentPoly({0: 1})))
    near = ((a + a.involve(),) + target[0][1:],) + target[1:]
    far = near[:2] + ((ZERO, ZERO, LaurentPoly({0: 2})),)
    assert _find_goal_move(near, target, bounds, _shifts(bounds)) == \
        Transvection(0, 1, LaurentPoly({0: -1}))
    assert _find_goal_move(far, target, bounds, _shifts(bounds)) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(10, 60), st.data())
def test_bits_cover_a_target_far_larger_than_the_root(bits, data):
    # One move from the root H2 + H2 bounds coefficients by 4 (B = 4); the
    # target's reach 2^bits, and the state one swap from it must be found.
    coeff = st.builds(lambda c, sign: sign * c, st.integers(1 << (bits - 1), 1 << bits),
                      st.sampled_from([1, -1]))
    big = st.dictionaries(st.integers(-3, 3), coeff, min_size=1, max_size=4).map(LaurentPoly)
    state = data.draw(_hermitian(4, big))
    i, j = data.draw(st.sampled_from([(0, 1), (0, 3), (1, 2), (2, 3)]))
    target = apply_move(state, Swap(i, j))
    bounds = SearchBounds(2, 0, 1, 0)
    root = ((ZERO, LaurentPoly({0: 1})), (LaurentPoly({0: 1}), ZERO))
    root = tuple(row + (ZERO, ZERO) for row in root) + tuple(
        (ZERO, ZERO) + row for row in root)
    kernel = _Kernel(root, target, bounds, _shifts(bounds))
    assert kernel.packing.bits > bits
    expected = _find_goal_move(state, target, bounds, _shifts(bounds))
    assert expected is not None
    packed = kernel.state(state)
    assert kernel.goal_move(packed, kernel._mask(packed)) == expected


@st.composite
def _hermitian_pairs(draw):
    """Two Hermitian matrices that agree on a prefix of the upper triangle
    and may differ after it."""
    a = draw(_hermitian())
    n = len(a)
    upper = [(r, c) for r in range(n) for c in range(r, n)]
    k = draw(st.integers(0, len(upper)))
    b = [list(row) for row in a]
    for r, c in upper[k:]:
        if draw(st.booleans()):
            p = draw(_polys)
            if r == c:
                p = p + p.involve()
            b[r][c], b[c][r] = p, p.involve()
    return a, tuple(tuple(row) for row in b)


@settings(max_examples=300, deadline=None)
@given(_hermitian_pairs(), _bounds)
def test_upper_triangle_keys_order_like_full_row_major_keys(pair, bounds):
    a, b = pair
    kernel = _Kernel(a, b, bounds, None)
    full = ["\0".join(e.token() for row in m for e in row) for m in pair]
    upper = [_state_key(kernel.state(m), kernel.packing) for m in pair]
    assert (upper[0] < upper[1]) == (full[0] < full[1])
    assert (upper[0] == upper[1]) == (full[0] == full[1])
