"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every expected value is exact; the only tolerances are
wall-clock budgets.
"""

import itertools
import json
import random
import time

from laurentforms import (
    HermitianForm,
    LaurentPoly,
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    SearchBounds,
    T,
    ZERO,
    assoc_eq,
    bounded_isometry_search,
    congruence,
    conjecture_probe,
    det_congruence_check,
    h2_sum,
    solve_hermitian_zero_aug,
)
from laurentforms.cli import main
from laurentforms.forms import matrix_from_json
from laurentforms.homology import ChainComplex, torsion_order
from laurentforms.search import FOUND, apply_move
from laurentforms.wallcalc import (
    IntersectionEvent,
    SurfaceModel,
    TORUS_PIERCING,
    WallClass,
    lambda_self,
    mu,
)

from conftest import (
    block_form,
    hermitian_diagonal_entry,
    load_search_golden,
    rand_matrix,
    rand_poly,
)
from test_laurent import _inverse_in_box


L = LaurentPoly


def rank2_fixture() -> HermitianForm:
    return HermitianForm(
        [[ZERO, ONE_MINUS_T], [ONE_MINUS_T_INV, L({0: 2, 1: -1, -1: -1})]]
    )


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def report(number, summary, elapsed):
    print(f"ACCEPTANCE {number} PASS: {summary} ({elapsed:.2f}s)")


def test_criterion_1_rank2_fixture(tmp_path, capsys):
    start = time.monotonic()
    form = rank2_fixture()
    form_path = write_json(tmp_path, "form.json", form.to_json())
    assert main(["check", form_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "accept"
    assert payload["g"] == "1"
    cert = payload["certificate"]
    assert cert["c_list"] == [{"0": "1"}]
    p = matrix_from_json(cert["P"])
    assert congruence(p, form) == h2_sum(1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "rank-2 fixture accepted with g=1, c=[1], exact replay", elapsed)


def test_criterion_2_cocycle_family(tmp_path, capsys):
    start = time.monotonic()
    witnesses = [ZERO, ONE, -ONE, ONE + T, L({-2: 1, 0: -3})]
    target_canonical = (ONE_MINUS_T * ONE_MINUS_T_INV).normalize_associate()[0]
    for idx, c in enumerate(witnesses):
        form = block_form([c])
        form_path = write_json(tmp_path, f"form{idx}.json", form.to_json())
        assert main(["check", form_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "accept"
        det_canonical = LaurentPoly.from_json(payload["certificate"]["det_canonical"])
        assert det_canonical == target_canonical
        recovered = LaurentPoly.from_json(payload["certificate"]["c_list"][0])
        assert hermitian_diagonal_entry(recovered) == hermitian_diagonal_entry(c)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, f"all {len(witnesses)} instantiated forms accepted, determinant canonical exact", elapsed)


def test_criterion_3_wall_fixture(capsys):
    start = time.monotonic()
    s1 = SurfaceModel("torus surgered once", (IntersectionEvent(TORUS_PIERCING, 1, 0),), 0)
    assert mu(s1) == WallClass({0: 1, 1: -1})
    assert lambda_self(s1) == L({0: 2, 1: -1, -1: -1})
    framed_sphere = SurfaceModel("embedded framed sphere", (), 0)
    assert lambda_self(framed_sphere) == ZERO
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(3, "event models give mu={0:1,1:-1}, lambda=2-t-t^-1 and lambda=0", elapsed)


def test_criterion_4_cocycle_round_trip(capsys):
    start = time.monotonic()
    rng = random.Random(4)
    for _ in range(1000):
        lo = rng.randint(-3, 0)
        c = rand_poly(rng, lo, lo + 5, 9)
        d = hermitian_diagonal_entry(c)
        solved = solve_hermitian_zero_aug(d)
        assert solved is not None
        assert hermitian_diagonal_entry(solved) == d
    refused = 0
    while refused < 100:
        base = {0: rng.randint(-9, 9)}
        for r in range(1, rng.randint(2, 5)):
            v = rng.randint(-9, 9)
            if v:
                base[r] = v
                base[-r] = v
        d = L(base)
        if d.augment() == 0:
            continue
        assert solve_hermitian_zero_aug(d) is None
        refused += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(4, "1000 reconstructions exact, 100 nonzero-augmentation refusals", elapsed)


def test_criterion_5_determinant_chain(capsys):
    start = time.monotonic()
    rng = random.Random(5)
    targets = [h2_sum(1), h2_sum(2), rank2_fixture()]
    for k in range(500):
        a = targets[k % 3]
        b = rand_matrix(rng, a.rank, -2, 2, 2)
        assert det_congruence_check(b, a)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(5, "500 random base changes satisfy the determinant identity exactly", elapsed)


def test_criterion_6_unit_oracle(capsys):
    start = time.monotonic()
    exponents = list(range(-3, 4))
    checked = 0
    units = 0
    for combo in itertools.product(range(-3, 4), repeat=7):
        p = L(dict(zip(exponents, combo)))
        witness = p.is_unit()
        inverse = _inverse_in_box(p)
        assert (witness is not None) == (inverse is not None)
        if witness is not None:
            units += 1
            assert p * inverse == ONE
        checked += 1
    assert checked == 7 ** 7
    assert units == 14  # +-t^k for k in [-3, 3]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(6, f"exhaustive agreement on all {checked} candidates ({units} units)", elapsed)


def test_criterion_7_homology_fixture(capsys):
    start = time.monotonic()
    handle = ChainComplex([1, 1, 1], [[[ONE_MINUS_T]], [[ZERO]]])
    assert handle.betti_qt() == [0, 0, 1]  # degrees (2,1,0) read as (1,0,0)
    assert handle.euler_check()
    order = torsion_order([[ONE_MINUS_T, ZERO], [ZERO, ONE_MINUS_T]])
    assert assoc_eq(order, ONE_MINUS_T * ONE_MINUS_T_INV)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(7, "handle complex betti (1,0,0) exact; torsion order associate to (1-t)(1-t^-1)", elapsed)


def _random_block_forms(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = rng.choice([1, 2])
        cs = [rand_poly(rng, -2, 2, 2) for _ in range(g)]
        out.append((g, block_form(cs)))
    return out


def test_criterion_8_bounded_search(capsys):
    start = time.monotonic()
    golden = load_search_golden()
    instances = _random_block_forms(100, seed=8)
    assert len(golden["criterion_8"]) == len(instances)
    worst = 0.0
    for (g, form), pinned in zip(instances, golden["criterion_8"]):
        bounds = SearchBounds(
            max_depth=g + 1, transvection_degree=2, transvection_coeff=2, unit_exponent=2
        )
        t0 = time.monotonic()
        outcome = bounded_isometry_search(form, h2_sum(g), bounds)
        t1 = time.monotonic() - t0
        worst = max(worst, t1)
        assert t1 < 10.0
        assert form.to_json() == pinned["form"] and str(g + 1) == pinned["depth"]
        assert outcome.to_json() == pinned["outcome"]  # the exact move list and P
        assert outcome.status == FOUND
        assert len(outcome.moves) <= g + 1
        entries = form.entries
        for move in outcome.moves:
            entries = apply_move(entries, move)
        assert entries == h2_sum(g).entries
        assert congruence(outcome.base_change.matrix, form) == h2_sum(g)

    for probe_form, pinned in zip((h2_sum(1), rank2_fixture()), golden["probes"]):
        rep = conjecture_probe(probe_form)
        assert probe_form.to_json() == pinned["form"]
        assert rep.to_json() == pinned["report"]
        assert rep.direct.status == FOUND
        assert rep.stable.status == FOUND
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            8,
            f"100 searches found with replay-exact certificates and pinned move lists "
            f"(worst {worst:.2f}s); probes Found/Found",
            elapsed,
        )


def test_criterion_9_replay_round_trip(tmp_path, capsys):
    start = time.monotonic()
    forms = [rank2_fixture()]
    forms += [block_form([c]) for c in (ZERO, ONE, -ONE, ONE + T, L({-2: 1, 0: -3}))]
    forms += [form for _, form in _random_block_forms(100, seed=8)]
    for idx, form in enumerate(forms):
        form_path = write_json(tmp_path, f"f{idx}.json", form.to_json())
        cert_path = str(tmp_path / f"c{idx}.json")
        assert main(["reduce", form_path, "-o", cert_path]) == 0
        capsys.readouterr()
        assert main(["replay", cert_path, form_path]) == 0
        capsys.readouterr()
        cert = json.loads(open(cert_path).read())
        entry = LaurentPoly.from_json(cert["P"]["entries"][0])
        cert["P"]["entries"][0] = (entry + ONE).to_json()
        mutated_path = write_json(tmp_path, f"m{idx}.json", cert)
        assert main(["replay", mutated_path, form_path]) == 1
        capsys.readouterr()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(9, f"{len(forms)} certificates replay cleanly; every mutation rejected", elapsed)
