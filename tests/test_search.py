from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from laurentforms import (
    HermitianForm,
    LaurentPoly,
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    SearchBounds,
    Swap,
    T,
    T_INV,
    Transvection,
    UnitScale,
    ZERO,
    bounded_isometry_search,
    certify_reduction,
    congruence,
    conjecture_probe,
    determinant,
    h2_sum,
    stabilize,
)
from laurentforms import search
from laurentforms.search import (
    EXHAUSTED,
    FOUND,
    OBSTRUCTION_MISMATCH,
    _DiagonalShifts,
    _Kernel,
    _Packing,
    _norm,
    _poly_box,
    _row_move,
    _state_key,
    apply_move,
)
from laurentforms.forms import identity

from conftest import block_form, load_search_golden, rand_poly
from test_search_kernel import _hermitian


L = LaurentPoly
BOUNDS = SearchBounds(max_depth=2, transvection_degree=2, transvection_coeff=2, unit_exponent=2)


def rank2_fixture() -> HermitianForm:
    return block_form([ONE])


def test_det_obstruction_examples():
    no_moves = SearchBounds(0, 0, 0, 0)
    assert bounded_isometry_search(rank2_fixture(), h2_sum(1), no_moves).status == EXHAUSTED
    bad = HermitianForm([[ZERO, ONE + T], [ONE + T_INV, ZERO]])
    assert bounded_isometry_search(bad, h2_sum(1), no_moves).status == OBSTRUCTION_MISMATCH
    assert bounded_isometry_search(h2_sum(2), h2_sum(2), no_moves).status == FOUND
    with pytest.raises(ValueError):
        bounded_isometry_search(h2_sum(1), h2_sum(2), no_moves)


def test_det_obstruction_needs_equal_determinants():
    # Congruence keeps the determinant exactly: det(P) * involve(det(P)) = 1
    # for the unit det(P) = +-t^k. diag(x, 1) with x = (1-t)(1-t^-1) has
    # determinant x; H2 has -x, an associate that is not equal.
    x = ONE_MINUS_T * ONE_MINUS_T_INV
    form = HermitianForm([[x, ZERO], [ZERO, ONE]])
    assert determinant(form) == -determinant(h2_sum(1))
    out = bounded_isometry_search(form, h2_sum(1), BOUNDS)
    assert out.status == OBSTRUCTION_MISMATCH
    assert out.reason == "determinant associate to the target determinant but not equal to it"
    bad = HermitianForm([[ZERO, ONE + T], [ONE + T_INV, ZERO]])
    out = bounded_isometry_search(bad, h2_sum(1), BOUNDS)
    assert out.reason == "determinant not associate to the target determinant"
    # A unit rescaling moves the entries but keeps the determinant.
    scaled = congruence([[L({1: -1}), ZERO], [ZERO, ONE]], h2_sum(1))
    assert determinant(scaled) == determinant(h2_sum(1))
    assert bounded_isometry_search(scaled, h2_sum(1), BOUNDS).status == FOUND


def test_search_finds_single_transvection():
    out = bounded_isometry_search(rank2_fixture(), h2_sum(1), BOUNDS)
    assert out.status == FOUND
    assert out.moves == (Transvection(1, 0, -ONE),)
    assert congruence(out.base_change.matrix, rank2_fixture()) == h2_sum(1)


def test_search_trivial_and_obstructed():
    out = bounded_isometry_search(h2_sum(1), h2_sum(1), BOUNDS)
    assert out.status == FOUND and out.moves == ()

    bad = HermitianForm([[ZERO, ONE + T], [ONE + T_INV, ZERO]])
    out = bounded_isometry_search(bad, h2_sum(1), BOUNDS)
    assert out.status == OBSTRUCTION_MISMATCH


def test_search_rank_mismatch():
    with pytest.raises(ValueError):
        bounded_isometry_search(h2_sum(1), h2_sum(2), BOUNDS)


def test_search_exhausts_within_tiny_bounds():
    # The needed transvection polynomial -(1+t) requires coefficient
    # bounds of at least 1 and an exponent range reaching degree 1; with a
    # zero-size polynomial box and no depth, the search must exhaust.
    form = block_form([ONE + T])
    out = bounded_isometry_search(form, h2_sum(1), SearchBounds(0, 0, 0, 0))
    assert out.status == EXHAUSTED


def test_search_found_is_sound(rng):
    for _ in range(20):
        g = rng.choice([1, 2])
        cs = [rand_poly(rng, 0, 2, 2) for _ in range(g)]
        form = block_form(cs)
        out = bounded_isometry_search(form, h2_sum(g), SearchBounds(g + 1, 2, 2, 2))
        assert out.status == FOUND
        assert len(out.moves) <= g + 1
        entries = form.entries
        for move in out.moves:
            entries = apply_move(entries, move)
        assert entries == h2_sum(g).entries
        assert determinant(out.base_change.matrix).is_unit() is not None


def test_move_matrices_have_unit_determinant():
    n = 4
    moves = [
        Transvection(2, 0, L({1: 3, -1: -2})),
        UnitScale(1, -1, 4),
        Swap(0, 3),
    ]
    for move in moves:
        assert determinant(_row_move(identity(n), move)).is_unit() is not None


def test_moves_preserve_determinant_class(rng):
    a = block_form([rand_poly(rng), rand_poly(rng)])
    det_class = determinant(a).normalize_associate()[0]
    entries = a.entries
    moves = [
        Transvection(1, 0, ONE + T),
        UnitScale(2, -1, 1),
        Swap(0, 2),
        Transvection(3, 2, T_INV),
    ]
    for move in moves:
        entries = apply_move(entries, move)
        assert determinant(entries).normalize_associate()[0] == det_class


_small_polys = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=5).map(LaurentPoly)


@settings(max_examples=60, deadline=None)
@given(_hermitian(), st.data())
def test_apply_move_matches_congruence(hermitian, data):
    # On a block form and on a random Hermitian matrix of rank 2-4, each
    # move kind applied as E (E A)* equals E A E* formed by matrix products.
    cs = data.draw(st.lists(_small_polys, min_size=1, max_size=2))
    for form in (block_form(cs), HermitianForm(hermitian)):
        n = form.rank
        i, j = data.draw(st.permutations(range(n)))[:2]
        moves = [
            Transvection(i, j, data.draw(_small_polys.filter(lambda p: not p.is_zero))),
            UnitScale(i, data.draw(st.sampled_from([1, -1])), data.draw(st.integers(-2, 2))),
            Swap(min(i, j), max(i, j)),
        ]
        for move in moves:
            direct = apply_move(form.entries, move)
            assert direct == congruence(_row_move(identity(n), move), form).entries


def test_search_determinism():
    form = block_form([ONE + T])
    outcomes = [bounded_isometry_search(form, h2_sum(1), BOUNDS) for _ in range(3)]
    assert all(o.status == FOUND for o in outcomes)
    assert len({o.moves for o in outcomes}) == 1


def test_search_monotone_in_bounds(rng):
    form = block_form([ONE])
    tight = SearchBounds(1, 1, 1, 0)
    loose = SearchBounds(2, 2, 2, 1)
    assert bounded_isometry_search(form, h2_sum(1), tight).status == FOUND
    assert bounded_isometry_search(form, h2_sum(1), loose).status == FOUND

    harder = block_form([ONE + T])
    smaller = SearchBounds(1, 1, 1, 1)
    assert bounded_isometry_search(harder, h2_sum(1), smaller).status == FOUND
    assert bounded_isometry_search(harder, h2_sum(1), BOUNDS).status == FOUND

    # Enlarging depth or unit exponents never loses a Found outcome.
    for _ in range(10):
        g = rng.choice([1, 2])
        instance = block_form([rand_poly(rng) for _ in range(g)])
        base = SearchBounds(g + 1, 2, 2, 2)
        wider = SearchBounds(g + 2, 2, 2, 3)
        assert bounded_isometry_search(instance, h2_sum(g), base).status == FOUND
        assert bounded_isometry_search(instance, h2_sum(g), wider).status == FOUND


def test_kernel_levels_keep_search_invariants():
    # Levels walked as the search walks them (expand, skip seen states,
    # store): every unseen successor decodes to its move applied to the
    # decoded parent, carries the mask recomputed from scratch, and keeps
    # the determinant class of the root. One expansion of a depth-2 search
    # whose hit lies on its final level; two of depth-3 and depth-4
    # searches that sort and expand a stored level.
    golden = load_search_golden()
    cases = [(golden["final_level"][0], BOUNDS, 1)]
    cases += [(pinned, SearchBounds.from_json(pinned["bounds"]), 2) for pinned in golden["depth3"]
              if pinned["case"] in ("rank2_found_at_4", "rank2_exhausted")]
    assert len(cases) == 4
    for pinned, bounds, expansions in cases:
        form = HermitianForm.from_json(pinned["form"])
        det_class = determinant(form).normalize_associate()[0]
        kernel = _Kernel(form.entries, h2_sum(1).entries, bounds, None)
        root = kernel.state(form.entries)
        seen, level = {root}, [root]
        for _ in range(expansions):
            stored = []
            for state in level:
                parent = kernel.matrix(state)
                for code, successor, mask in kernel.successors(state):
                    if successor in seen:
                        continue
                    seen.add(successor)
                    stored.append(successor)
                    entries = kernel.matrix(successor)
                    assert entries == apply_move(parent, kernel.move(code))
                    assert mask == kernel._mask(successor)
                    assert determinant(entries).normalize_associate()[0] == det_class
            level = stored
        assert len(seen) > 1


@pytest.mark.parametrize("group", ["final_level", "final_level_many_hits", "exhausted_depth2"])
def test_search_golden_final_level_and_exhausted(group):
    # Rank-2 depth-2 searches: hits found only on the streamed final level
    # (in final_level_many_hits the smallest hitting key is neither the
    # first hit generated nor generated only once), and searches that
    # stream the whole final level without a hit.
    for pinned in load_search_golden()[group]:
        form = HermitianForm.from_json(pinned["form"])
        bounds = SearchBounds(int(pinned["depth"]), 2, 2, 2)
        assert bounded_isometry_search(form, h2_sum(1), bounds).to_json() == pinned["outcome"]


def test_search_golden_depth3():
    # Searches that sort an intermediate level and expand it (hits only at
    # move length 3 or 4, or none), a unit exponent above twice the
    # transvection degree, and depth 0 and 1; each entry has its bounds.
    for pinned in load_search_golden()["depth3"]:
        form = HermitianForm.from_json(pinned["form"])
        bounds = SearchBounds.from_json(pinned["bounds"])
        outcome = bounded_isometry_search(form, h2_sum(form.rank // 2), bounds)
        assert outcome.to_json() == pinned["outcome"], pinned["case"]


def test_each_state_is_decoded_at_most_once(monkeypatch):
    # The goal pass skips states seen on earlier levels and states already
    # checked on its own level, so no matrix reaches _find_goal_move twice
    # in one search (the root's own check included), also where a final
    # level generates the same hit more than once (final_level_many_hits)
    # and where a level is goal-checked, then stored and expanded (depth3).
    golden = load_search_golden()
    cases = [(pinned, SearchBounds(int(pinned["depth"]), 2, 2, 2))
             for pinned in golden["final_level_many_hits"]]
    cases += [(pinned, SearchBounds.from_json(pinned["bounds"])) for pinned in golden["depth3"]]
    find, decoded = search._find_goal_move, Counter()

    def counting(entries, *args):
        decoded[entries] += 1
        return find(entries, *args)

    monkeypatch.setattr(search, "_find_goal_move", counting)
    total = 0
    for pinned, bounds in cases:
        decoded.clear()
        form = HermitianForm.from_json(pinned["form"])
        outcome = bounded_isometry_search(form, h2_sum(form.rank // 2), bounds)
        assert outcome.to_json() == pinned["outcome"]
        assert max(decoded.values(), default=1) == 1, pinned.get("case")
        total += sum(decoded.values())
    assert total > 10 * len(cases)


def _token_tuple(entries):
    return tuple(e.token() for row in entries for e in row)


_polys = st.dictionaries(
    st.integers(-12, 12), st.integers(-150, 150), max_size=4
).map(LaurentPoly)


@st.composite
def _matrix_pairs(draw):
    """Two n x n matrices that agree on a row-major prefix, then differ in
    one entry by a random change or by extending the entry with a higher
    term, so that one token is a proper prefix of the other."""
    n = draw(st.integers(1, 3))
    a = draw(st.lists(_polys, min_size=n * n, max_size=n * n))
    b = list(a)
    k = draw(st.integers(0, n * n - 1))
    if draw(st.booleans()):
        top = a[k].max_exponent() + 1 if not a[k].is_zero else draw(st.integers(-12, 12))
        b[k] = a[k] + LaurentPoly({top + draw(st.integers(0, 12)): draw(st.integers(1, 150))})
    else:
        b[k] = draw(_polys)
    for i in range(k + 1, n * n):
        if draw(st.booleans()):
            b[i] = draw(_polys)
    rows = lambda xs: tuple(tuple(xs[r * n:(r + 1) * n]) for r in range(n))  # noqa: E731
    pair = [rows(a), rows(b)]
    if draw(st.booleans()):
        pair.reverse()
    return tuple(pair)


# Wide enough for _matrix_pairs: coefficients up to 150, exponents from -12.
_KEY_PACKING = _Packing(10, 12)


def _packed_row_major(entries):
    return tuple(_KEY_PACKING.pack(e) for row in entries for e in row)


@settings(max_examples=300, deadline=None)
@given(_matrix_pairs())
@example((((L({0: 1}), ZERO),), ((L({0: 1, 1: 2}), ZERO),)))  # "0:1" vs "0:1,1:2"
@example((((L({0: 1, 1: 2}),),), ((L({0: 1}),),)))
@example((((ZERO, L({-1: 3})),), ((L({-10: -1}), ZERO),)))
def test_state_key_orders_like_token_tuples(pair):
    a, b = pair
    ta, tb = _token_tuple(a), _token_tuple(b)
    assert not any("\0" in token for token in ta + tb)
    pa, pb = _packed_row_major(a), _packed_row_major(b)
    assert tuple(map(_KEY_PACKING.token, pa)) == ta
    ka, kb = _state_key(pa, _KEY_PACKING), _state_key(pb, _KEY_PACKING)
    assert (ka < kb) == (ta < tb)
    assert (ka == kb) == (ta == tb)


def test_diagonal_shifts_match_a_box_scan(rng):
    # The first p in box order with p*a + involve(p*a) == d, as a plain
    # LaurentPoly scan finds it, under interleaved lookups on more values of
    # a than are kept, among them the wide-span t^40 - 3t^-7 and a = 1, where
    # the last box polynomial (every coefficient c) has an image on the norm
    # bound 2(2d+1)c|a|_1; on degree-0 boxes too; and with values beyond the
    # norm or the exponent bound of the images.
    for degree, coeff in ((1, 2), (0, 3), (2, 1)):
        box = _poly_box(degree, coeff)
        shifts = _DiagonalShifts(degree, coeff)
        values_of_a = [rand_poly(rng, -1, 1, 2, allow_zero=False)
                       for _ in range(2 * _DiagonalShifts.MAX_SCANS)]
        values_of_a += [ONE, L({40: 1, -7: -3})]
        images = {a: [p * a + (p * a).involve() for p in box] for a in values_of_a}
        for _ in range(500):
            a = rng.choice(values_of_a)
            norm = 2 * (2 * degree + 1) * coeff * sum(abs(c) for _, c in a.terms())
            radius = degree + max(abs(e) for e in a.support())
            d = rng.choice(images[a])
            kind = rng.random()
            if kind < 0.15:
                d = rand_poly(rng, -2, 2, 3)
            elif kind < 0.25:
                e = rng.randint(-radius, radius)
                d = d + L({e: (1 if d.coeff(e) >= 0 else -1) * (norm + 1)})
            elif kind < 0.35:
                d = d + L({rng.choice([1, -1]) * (radius + rng.randint(1, 3)): 1})
            elif kind < 0.45:
                d = images[a][-1]
            scan = next((p for p, image in zip(box, images[a]) if image == d), None)
            assert shifts.first(a, d) == scan
        assert len(shifts._scans) == _DiagonalShifts.MAX_SCANS
        assert shifts.first(ONE, images[ONE][-1]) == box[-1]
        assert _norm(images[ONE][-1]) == 2 * (2 * degree + 1) * coeff


def test_level_states_rebuild_to_their_keys():
    # Two levels built as the search builds them (unseen successors, first
    # generator kept, sorted by key): each state decodes to the replay of
    # its move list, and its key is the upper-triangle key of that matrix.
    small = SearchBounds(3, 1, 1, 1)
    for form in (block_form([ONE + T]), block_form([T_INV, ONE])):
        root, n = form.entries, form.rank
        kernel = _Kernel(root, h2_sum(n // 2).entries, small, None)
        seen = {kernel.state(root)}
        level = [(kernel.state(root), ())]
        for depth in (1, 2):
            stored = []
            for state, codes in level[:40]:
                for code, successor, _ in kernel.successors(state):
                    if successor not in seen:
                        seen.add(successor)
                        stored.append((successor, codes + (code,)))
            level = sorted(stored, key=lambda item: _state_key(item[0], kernel.packing))
            keys = [_state_key(state, kernel.packing) for state, _ in level]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for state, codes in level:
                assert len(codes) == depth
                entries = root
                for code in codes:
                    entries = apply_move(entries, kernel.move(code))
                assert kernel.matrix(state) == entries
                upper = [entries[r][c].token() for r in range(n) for c in range(r, n)]
                assert _state_key(state, kernel.packing) == "\0".join(upper)


def test_stabilize_examples():
    assert stabilize(h2_sum(1), 1) == h2_sum(2)
    a = rank2_fixture()
    assert stabilize(a, 0) == a
    stabilized = stabilize(a, 1)
    assert stabilized.rank == 4
    assert certify_reduction(stabilized).certificate.c_list == (ONE, ZERO)
    with pytest.raises(ValueError):
        stabilize(a, -1)


def test_conjecture_probe_examples():
    report = conjecture_probe(h2_sum(1), BOUNDS)
    assert report.direct.status == FOUND
    assert report.stable.status == FOUND
    assert not report.candidate

    report = conjecture_probe(rank2_fixture(), BOUNDS)
    assert report.direct.status == FOUND
    assert report.stable.status == FOUND

    bad = HermitianForm([[ZERO, ONE + T], [ONE + T_INV, ZERO]])
    report = conjecture_probe(bad, BOUNDS)
    assert report.direct.status == OBSTRUCTION_MISMATCH
    assert report.stable.status == OBSTRUCTION_MISMATCH
    assert not report.candidate

    with pytest.raises(ValueError):
        conjecture_probe(h2_sum(3), BOUNDS)


def test_search_uses_unit_scales_and_swaps():
    # Reaching this target needs a swap, which the obstruction allows.
    target = HermitianForm([[ZERO, ONE_MINUS_T_INV], [ONE_MINUS_T, ZERO]])
    out = bounded_isometry_search(h2_sum(1), target, BOUNDS)
    assert out.status == FOUND
    assert congruence(out.base_change.matrix, h2_sum(1)) == target

    scaled = congruence([[L({1: 1}), ZERO], [ZERO, ONE]], h2_sum(1))
    out = bounded_isometry_search(h2_sum(1), scaled, BOUNDS)
    assert out.status == FOUND


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1, 0, 0, 0)
    assert SearchBounds.from_json({"max_depth": "3"}).max_depth == 3
    assert SearchBounds.from_json({"unit_exponent": 1}).unit_exponent == 1
    for bad in (1.5, True, None, "x"):
        with pytest.raises(ValueError, match="max_depth must be an integer"):
            SearchBounds.from_json({"max_depth": bad})
    with pytest.raises(ValueError, match="must be nonnegative"):
        SearchBounds.from_json({"transvection_coeff": "-1"})
