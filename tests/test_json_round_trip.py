"""from_json(to_json(x)) == x for every type a command reads or writes.

Forms, reduction certificates (parsed against their form), surface
models, move lists (read back from `SearchOutcome.to_json()`, whose "P"
must parse as the base change) and chain complexes, compared by ranks and
differentials since the class has no __eq__.
"""

from hypothesis import given, settings, strategies as st

from laurentforms import (
    ChainComplex,
    HermitianForm,
    IntersectionEvent,
    LaurentPoly,
    ONE,
    ReductionCertificate,
    SurfaceModel,
    Swap,
    Transvection,
    UnitScale,
    ZERO,
    certify_reduction,
    congruence,
    h2_sum,
)
from laurentforms.forms import matrix_from_json
from laurentforms.search import _verified_found, apply_move, move_from_json
from laurentforms.wallcalc import CONTRIBUTIONS

from conftest import block_form
from test_search_kernel import _hermitian, _polys

_nonzero_polys = _polys.filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(_hermitian).map(HermitianForm))
def test_hermitian_form_round_trip(form):
    assert HermitianForm.from_json(form.to_json()) == form


@settings(max_examples=50, deadline=None)
@given(st.lists(_polys, min_size=0, max_size=3), st.sampled_from([1, -1]),
       st.integers(-3, 3), st.booleans())
def test_reduction_certificate_round_trip(cs, sign, k, twist):
    form = block_form(cs)
    if twist and cs:
        # Rescaling the second basis vector by a unit is undone by --prenormalize.
        d = [[ONE if i == j else ZERO for j in range(form.rank)]
             for i in range(form.rank)]
        d[1][1] = LaurentPoly({k: sign})
        form = congruence(d, form)
    cert = certify_reduction(form, prenormalize=twist).certificate
    assert ReductionCertificate.from_json(cert.to_json(), form) == cert


_events = st.builds(IntersectionEvent, st.sampled_from(sorted(CONTRIBUTIONS)),
                    st.sampled_from([1, -1]), st.integers(-50, 50))


@settings(max_examples=100, deadline=None)
@given(st.builds(SurfaceModel, st.text(max_size=8), st.lists(_events, max_size=6).map(tuple),
                 st.integers(-50, 50)))
def test_surface_model_round_trip(surface):
    assert SurfaceModel.from_json(surface.to_json()) == surface


@st.composite
def _moves(draw, n):
    i, j = draw(st.permutations(range(n)))[:2]
    kind = draw(st.sampled_from(["transvection", "unit_scale", "swap"]))
    if kind == "transvection":
        return Transvection(i, j, draw(_nonzero_polys))
    if kind == "unit_scale":
        return UnitScale(i, draw(st.sampled_from([1, -1])), draw(st.integers(-3, 3)))
    return Swap(i, j)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(_moves(2 * g), max_size=4).map(tuple))))
def test_move_list_round_trip(case):
    g, moves = case
    a = h2_sum(g)
    entries = a.entries
    for move in moves:
        entries = apply_move(entries, move)
    outcome = _verified_found(a, HermitianForm(entries), moves)
    out = outcome.to_json()
    assert tuple(move_from_json(m) for m in out["moves"]) == moves
    assert matrix_from_json(out["P"]) == outcome.base_change.matrix


@st.composite
def _complexes(draw):
    # Every second differential is zero, so consecutive ones compose to zero.
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    diffs = []
    for k in range(1, len(ranks)):
        rows, cols = ranks[k - 1], ranks[k]
        entries = _polys if k % 2 else st.just(ZERO)
        diffs.append(tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows)))
    return ChainComplex(ranks, diffs)


@settings(max_examples=100, deadline=None)
@given(_complexes())
def test_chain_complex_round_trip(complex_):
    parsed = ChainComplex.from_json(complex_.to_json())
    assert parsed.ranks == complex_.ranks
    assert parsed.differentials == complex_.differentials
