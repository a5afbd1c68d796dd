import pytest
from hypothesis import given, settings, strategies as st

from laurentforms import (
    IntersectionEvent,
    LaurentPoly,
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    SurfaceModel,
    WallClass,
    ZERO,
    hermitize,
    iota,
    lambda_self,
    mu,
    pairing_shape_check,
    project,
)
from laurentforms.wallcalc import (
    DISC_SELF_INTERSECTION,
    GENERIC_DOUBLE_POINT,
    TORUS_PIERCING,
    wall_invariants,
)

from conftest import hermitian_diagonal_entry, rand_poly


L = LaurentPoly


def test_project_examples():
    assert project(ONE_MINUS_T) == WallClass({0: 1, 1: -1})
    assert project(ONE_MINUS_T_INV) == WallClass({0: 1, 1: -1})
    assert project(ONE_MINUS_T * ONE_MINUS_T_INV) == WallClass({0: 2, 1: -2})


def test_project_is_additive(rng):
    for _ in range(100):
        p = rand_poly(rng, -4, 4, 5)
        q = rand_poly(rng, -4, 4, 5)
        assert project(p + q) == project(p) + project(q)
    for k in range(-5, 6):
        assert project(L({k: 1})) == project(L({-k: 1}))


def test_hermitize_examples():
    assert hermitize(WallClass({0: 1, 1: -1})) == L({0: 2, 1: -1, -1: -1})
    assert hermitize(WallClass()) == ZERO
    assert hermitize(WallClass({2: 3})) == L({2: 3, -2: 3})


def test_hermitize_independent_of_lift(rng):
    for _ in range(100):
        p = rand_poly(rng, -4, 4, 4)
        w = project(p)
        # Any lift differs by flipping exponent signs termwise.
        lift = L({(e if rng.random() < 0.5 else -e): c for e, c in w.terms()})
        assert lift + lift.involve() == hermitize(w)
        assert hermitize(w) == hermitize(w).involve()


def test_mu_examples():
    s = SurfaceModel("one piercing", (IntersectionEvent(TORUS_PIERCING, 1, 0),), 0)
    assert mu(s) == WallClass({0: 1, 1: -1})

    cancel = SurfaceModel(
        "cancelling pair",
        (
            IntersectionEvent(GENERIC_DOUBLE_POINT, 1, 1),
            IntersectionEvent(GENERIC_DOUBLE_POINT, -1, 1),
        ),
        0,
    )
    assert mu(cancel) == WallClass()

    disc = SurfaceModel("disc", (IntersectionEvent(DISC_SELF_INTERSECTION, 1, 0),), 0)
    assert mu(disc) == WallClass({0: 2, 1: -2})


def test_event_contributions():
    rules = {
        GENERIC_DOUBLE_POINT: ONE,
        TORUS_PIERCING: ONE_MINUS_T,
        DISC_SELF_INTERSECTION: ONE_MINUS_T * ONE_MINUS_T_INV,
    }
    for kind, factor in rules.items():
        for sign in (1, -1):
            for k in range(-4, 5):
                expected = L({0: sign}) * L({k: 1}) * factor
                assert IntersectionEvent(kind, sign, k).contribution() == expected
    with pytest.raises(ValueError):
        IntersectionEvent("unknown", 1, 0)
    with pytest.raises(ValueError):
        IntersectionEvent(TORUS_PIERCING, 2, 0)


_events = st.lists(
    st.builds(
        IntersectionEvent,
        st.sampled_from([GENERIC_DOUBLE_POINT, TORUS_PIERCING, DISC_SELF_INTERSECTION]),
        st.sampled_from([1, -1]),
        st.integers(-10, 10),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_events, st.integers(-5, 5))
def test_mu_equals_the_projected_contribution_sum(events, euler):
    surface = SurfaceModel("random", tuple(events), euler)
    reference = WallClass()
    for event in events:
        reference = reference + project(event.contribution())
    assert mu(surface) == reference


@settings(max_examples=200, deadline=None)
@given(_events, st.integers(-2, 2))
def test_wall_invariants_follow_from_one_mu(events, euler):
    surface = SurfaceModel("random", tuple(events), euler)
    wall = wall_invariants(surface)
    assert wall.mu == mu(surface)
    assert wall.mu_plus_conjugate == hermitize(wall.mu)
    assert wall.lam == hermitize(wall.mu) + iota(euler)
    shaped = euler == 0 and all(e.kind != GENERIC_DOUBLE_POINT for e in events)
    if shaped:
        assert hermitian_diagonal_entry(wall.c) == wall.lam
        assert pairing_shape_check(surface) == wall.c
    else:
        assert wall.c is None
    assert lambda_self(surface) == wall.lam


def test_lambda_self_examples():
    s1 = SurfaceModel("S1", (IntersectionEvent(TORUS_PIERCING, 1, 0),), 0)
    assert lambda_self(s1) == L({0: 2, 1: -1, -1: -1})

    framed_sphere = SurfaceModel("S0", (), 0)
    assert lambda_self(framed_sphere) == ZERO

    euler_only = SurfaceModel("euler", (), 4)
    assert lambda_self(euler_only) == iota(4)


def test_lambda_self_involution_fixed(rng):
    kinds = (GENERIC_DOUBLE_POINT, TORUS_PIERCING, DISC_SELF_INTERSECTION)
    for _ in range(100):
        events = tuple(
            IntersectionEvent(rng.choice(kinds), rng.choice([1, -1]), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 6))
        )
        s = SurfaceModel("random", events, rng.randint(-4, 4))
        lam = lambda_self(s)
        assert lam == lam.involve()


def test_pairing_shape_check_examples():
    s1 = SurfaceModel("S1", (IntersectionEvent(TORUS_PIERCING, 1, 0),), 0)
    assert pairing_shape_check(s1) == ONE

    empty = SurfaceModel("empty", (), 0)
    assert pairing_shape_check(empty) == ZERO

    disc = SurfaceModel("disc", (IntersectionEvent(DISC_SELF_INTERSECTION, -1, 1),), 0)
    c = pairing_shape_check(disc)
    assert hermitian_diagonal_entry(c) == lambda_self(disc)


def test_pairing_shape_check_preconditions():
    with pytest.raises(ValueError):
        pairing_shape_check(SurfaceModel("euler", (), 2))
    with pytest.raises(ValueError):
        pairing_shape_check(
            SurfaceModel("generic", (IntersectionEvent(GENERIC_DOUBLE_POINT, 1, 0),), 0)
        )


def test_pairing_shape_check_property(rng):
    kinds = (TORUS_PIERCING, DISC_SELF_INTERSECTION)
    for _ in range(100):
        events = tuple(
            IntersectionEvent(rng.choice(kinds), rng.choice([1, -1]), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 5))
        )
        s = SurfaceModel("random", events, 0)
        lam = lambda_self(s)
        assert lam.augment() == 0
        c = pairing_shape_check(s)
        assert hermitian_diagonal_entry(c) == lam


def relabel_invariance(surface: SurfaceModel, permutation) -> bool:
    """Check mu and lambda are unchanged by a data-preserving relabeling.

    The relabeling is given as a permutation of event indices; it
    tautologically preserves each event's (kind, sign, exponent).
    """
    n = len(surface.events)
    if sorted(permutation) != list(range(n)):
        raise ValueError("relabeling must be a permutation of the event indices")
    relabeled = SurfaceModel(
        label=surface.label,
        events=tuple(surface.events[i] for i in permutation),
        euler=surface.euler,
    )
    return mu(relabeled) == mu(surface) and lambda_self(relabeled) == lambda_self(surface)


def test_relabel_invariance(rng):
    s = SurfaceModel(
        "pair",
        (
            IntersectionEvent(TORUS_PIERCING, 1, 0),
            IntersectionEvent(DISC_SELF_INTERSECTION, -1, 2),
        ),
        0,
    )
    assert relabel_invariance(s, [0, 1])
    assert relabel_invariance(s, [1, 0])

    kinds = (GENERIC_DOUBLE_POINT, TORUS_PIERCING, DISC_SELF_INTERSECTION)
    for _ in range(50):
        events = tuple(
            IntersectionEvent(rng.choice(kinds), rng.choice([1, -1]), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 6))
        )
        s = SurfaceModel("random", events, rng.randint(-2, 2))
        perm = list(range(len(events)))
        rng.shuffle(perm)
        assert relabel_invariance(s, perm)
    with pytest.raises(ValueError):
        relabel_invariance(s, [0, 0])


def _encoded(v: int):
    """v as a JSON str or int, and now and then as a float or bool that the
    parser refuses."""
    options = [str(v), f"{v:+d}", v, v, float(v)]
    if v in (0, 1):
        options.append(bool(v))
    return st.sampled_from(options)


_triples = st.tuples(
    st.sampled_from([GENERIC_DOUBLE_POINT, TORUS_PIERCING, DISC_SELF_INTERSECTION, "nope"]),
    st.sampled_from([1, -1]),
    st.integers(-1, 1),
)


def _raw_events(pool):
    """Events drawn from a few (kind, sign, k), each encoded afresh, so that
    one triple repeats under several encodings."""
    event = st.sampled_from(pool).flatmap(lambda e: st.fixed_dictionaries(
        {"kind": st.just(e[0]), "sign": _encoded(e[1]), "k": _encoded(e[2])}))
    return st.lists(event, max_size=30)


@settings(max_examples=200, deadline=None)
@given(st.lists(_triples, min_size=1, max_size=3).flatmap(_raw_events))
def test_surface_parse_matches_the_per_event_parse(raw_events):
    # Repeats of one (kind, sign, k) under equal but differently typed
    # spellings: the result and the first refusal are those of parsing
    # every event on its own.
    payload = {"label": "s", "euler": "0", "events": raw_events}
    try:
        expected = tuple(IntersectionEvent.from_json(e) for e in raw_events)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            SurfaceModel.from_json(payload)
        assert str(refused.value) == str(exc)
        return
    assert SurfaceModel.from_json(payload).events == expected


@pytest.mark.parametrize("event, message", [
    (["kind"], "event must be an object"),
    ({"sign": "+1", "k": "0"}, "event is missing 'kind'"),
    ({"kind": TORUS_PIERCING}, "event is missing 'sign'"),
    ({"kind": TORUS_PIERCING, "k": "0"}, "event is missing 'sign'"),
    ({"kind": TORUS_PIERCING, "sign": "+1"}, "event is missing 'k'"),
])
def test_event_parse_names_the_first_missing_key(event, message):
    with pytest.raises(ValueError) as refused:
        IntersectionEvent.from_json(event)
    assert str(refused.value) == message


def test_surface_json_round_trip():
    s = SurfaceModel(
        "S1",
        (IntersectionEvent(TORUS_PIERCING, 1, 0), IntersectionEvent(GENERIC_DOUBLE_POINT, -1, 2)),
        0,
    )
    assert SurfaceModel.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        SurfaceModel.from_json({"label": "x", "events": []})
    with pytest.raises(ValueError):
        IntersectionEvent.from_json({"kind": "nope", "sign": "+1", "k": "0"})
