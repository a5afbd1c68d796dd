"""The benchmark's workloads: their items, the program calls each item
makes, and each item's check against the reference arithmetic in oracle.py.

An item is one user-level job. Its `run` makes the program calls and is the
only part that is timed; its `check` runs after it, outside the timed
region, and returns None or a description of what is wrong. Checks that
need sympy are handed to `defer` and run after the timed loop.

A workload is a sequence of rounds. Every round has the same mix of item
kinds (the shares are fixed), in the same order, with fresh inputs drawn
from the round's own random generator, so a run of whole rounds always has
the same mix. The fixed order also gives the allocator the same sequence
in every run, which keeps the peak RSS steady.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import laurentforms.cli
import laurentforms.forms

import oracle as O

BOX = ("--deg", "2", "--coeff", "2", "--unit-exp", "2")
GOLDEN = Path(__file__).with_name("golden_search.json")


@dataclass
class Call:
    rc: int
    out: str
    err: str


def cli(*argv) -> Call:
    """Run one CLI command in this interpreter, as `laurentforms <argv>`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = laurentforms.cli.main([str(a) for a in argv])
        except Exception as exc:  # the installed script exits 1 with a traceback
            rc = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
    return Call(rc, out.getvalue(), err.getvalue())


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, Callable], Optional[str]]
    malformed: bool = False
    props: dict = field(default_factory=dict)


def composite(kind: str, parts: list[Item]) -> Item:
    def run():
        return [part.run() for part in parts]

    def check(results, defer):
        for part, result in zip(parts, results):
            problem = part.check(result, defer)
            if problem:
                return f"{part.kind}: {problem}"
        return None

    return Item(kind, run, check, props={"genus": 1, "size": 2})


class Files:
    """Input files of one round, in a work directory inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return str(self.root / f"{self.count:04d}-{stem}.json")

    def write(self, stem: str, payload) -> str:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)
        return path


# -- random inputs -----------------------------------------------------------


def rand_poly(rng, lo: int, hi: int, bound: int) -> dict:
    return {e: c for e in range(lo, hi + 1) if (c := rng.randint(-bound, bound))}


def rand_nonzero(rng, lo: int, hi: int, bound: int) -> dict:
    while not (p := rand_poly(rng, lo, hi, bound)):
        pass
    return p


def rand_matrix(rng, rows: int, cols: int, lo: int, hi: int, bound: int) -> list:
    return [[rand_poly(rng, lo, hi, bound) for _ in range(cols)] for _ in range(rows)]


def rand_dense(rng, rows: int, cols: int, exponents: tuple) -> list:
    """Every entry has exactly these exponents, with random signs, so that
    the cost of elimination varies little between draws."""
    return [[{e: rng.choice((1, -1)) for e in exponents} for _ in range(cols)]
            for _ in range(rows)]


def rand_unit(rng) -> dict:
    return {rng.randint(-3, 3): rng.choice((1, -1))}


def block_form(diagonals: list, units: Optional[list] = None) -> list:
    """Blocks [[0, u(1-t)], [u~(1-t^-1), d]], one per diagonal entry d."""
    blocks = []
    for k, d in enumerate(diagonals):
        u = units[k] if units else O.ONE
        blocks.append([[{}, O.pmul(u, O.ONE_MINUS_T)], [O.pmul(O.pbar(u), O.ONE_MINUS_T_INV), d]])
    return O.block_diag(blocks)


def terms(m: list) -> int:
    return sum(len(x) for row in m for x in row)


MAX_EVENTS = 3000


def event_counts(rng, surfaces: int) -> list[int]:
    """Events per surface, log-uniform on [1, MAX_EVENTS]: mostly small
    surfaces, a few large ones. Stratified, and each stratum goes to the
    same surface in every round, so that every round has the same histogram
    and the same item costs; only the draw inside each stratum varies. With
    a random assignment, a run's median would fall on whichever small
    round trips drew large surfaces."""
    counts = [int(math.exp((k + rng.random()) / surfaces * math.log(MAX_EVENTS)))
              for k in range(surfaces)]
    return [counts[k] for k in random.Random(f"strata:{surfaces}").sample(range(surfaces), surfaces)]


def rand_events(rng, n: int, kinds=("torus_piercing", "disc_self_intersection")) -> list:
    return [(rng.choice(kinds), rng.choice((1, -1)), rng.randint(-8, 8)) for _ in range(n)]


def surface_json(label: str, events: list) -> dict:
    return {
        "label": label,
        "euler": "0",
        "events": [{"kind": k, "sign": f"{s:+d}", "k": str(e)} for k, s, e in events],
    }


def decode(call: Call) -> dict:
    return json.loads(call.out)


# -- certify: surface -> wall -> form -> reduce -> replay ---------------------


def check_wall(call: Call, mu: dict, lam: dict, shaped: bool) -> Optional[str]:
    if call.rc != 0:
        return f"wall exit {call.rc}: {call.err.strip()[:120]}"
    out = decode(call)
    if {int(r): int(c) for r, c in out["mu"].items()} != mu:
        return "wall mu differs from the reference"
    if O.poly_from_json(out["lambda"]) != lam:
        return "wall lambda differs from the reference"
    if not shaped:
        return None if out["c"] is None else "wall gave c for a surface with double points"
    if out["c"] is None or O.hermitian_entry(O.poly_from_json(out["c"])) != lam:
        return "wall c does not solve c(1-t) + c~(1-t^-1) = lambda"
    return None


def round_trip(rng, files: Files, counts: list[int], prenormalize: bool) -> Item:
    """One surface per count through `wall`, their form (genus = number of
    surfaces) through `reduce`, then the certificate through `replay`."""
    g = len(counts)
    surfaces, walls = [], []
    for k, count in enumerate(counts):
        events = rand_events(rng, count)
        mu, lam = O.wall_values(events, 0)
        surfaces.append(files.write("surface", surface_json(f"surface {k}", events)))
        walls.append((mu, lam, len(events)))
    units = [rand_unit(rng) for _ in range(g)] if prenormalize else None
    form = block_form([lam for _, lam, _ in walls], units)
    form_path = files.write("form", O.matrix_to_json(form))
    cert_path = files.path("cert")
    flags = ("--prenormalize",) if prenormalize else ()

    def run():
        return ([cli("wall", s) for s in surfaces],
                cli("reduce", form_path, *flags, "-o", cert_path),
                cli("replay", cert_path, form_path))

    def check(result, defer):
        wall_calls, red, rep = result
        for call, (mu, lam, _) in zip(wall_calls, walls):
            if problem := check_wall(call, mu, lam, True):
                return problem
        if red.rc != 0:
            return f"reduce exit {red.rc}: {red.err.strip()[:120]}"
        with open(cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        if int(cert["g"]) != g:
            return f"certificate genus {cert['g']} != {g}"
        for c, (_, lam, _) in zip(cert["c_list"], walls):
            if O.hermitian_entry(O.poly_from_json(c)) != lam:
                return "certificate c does not reproduce its diagonal entry"
        if O.congruent(O.matrix_from_json(cert["P"]), form) != O.h2(g):
            return "P A P* is not H2^g"
        if O.poly_from_json(cert["det_canonical"]) != O.det_target_canonical(g):
            return "recorded canonical determinant is wrong"
        if rep.rc != 0 or rep.out.strip() != "replay ok":
            return f"replay exit {rep.rc}: {rep.err.strip()[:120]}"
        return None

    kind = "accept_prenormalized" if prenormalize else "accept"
    return Item(kind, run, check, props={
        "genus": g, "size": 2 * g, "terms": terms(form),
        "events": [n for _, _, n in walls]})


def double_point_reject(rng, files: Files, size: int) -> Item:
    """A surface with generic double points: `wall` gives no c, and `reduce`
    rejects the form because the diagonal entry has nonzero augmentation."""
    # An odd number of double points, so their signs cannot cancel.
    doubles = rand_events(rng, 2 * rng.randint(0, 3) + 1, ("generic_double_point",))
    events = rand_events(rng, rng.randint(size // 2, size)) + doubles
    rng.shuffle(events)
    mu, lam = O.wall_values(events, 0)
    surface = files.write("surface", surface_json("double points", events))
    form = block_form([lam])
    form_path = files.write("form", O.matrix_to_json(form))

    def run():
        return cli("wall", surface), cli("reduce", form_path)

    def check(result, defer):
        wall, red = result
        if problem := check_wall(wall, mu, lam, False):
            return problem
        if red.rc != 1 or "augmentation" not in decode(red).get("reason", ""):
            return f"reduce of a nonzero-augmentation form gave exit {red.rc}"
        return None

    return Item("reject_double_point", run, check, props={
        "genus": 1, "size": 2, "terms": terms(form), "events": [len(events)]})


def cross_block_reject(rng, files: Files) -> Item:
    g = rng.randint(2, 4)
    form = block_form([O.hermitian_entry(rand_poly(rng, -2, 2, 2)) for _ in range(g)])
    i, j = rng.randrange(2), 2 + rng.randrange(2 * g - 2)
    x = rand_nonzero(rng, -1, 1, 2)
    form[i][j], form[j][i] = x, O.pbar(x)
    form_path = files.write("form", O.matrix_to_json(form))

    def run():
        return cli("reduce", form_path)

    def check(red, defer):
        if red.rc != 1 or "cross-block" not in decode(red).get("reason", ""):
            return f"reduce of a form with a cross-block entry gave exit {red.rc}"
        return None

    return Item("reject_cross_block", run, check, props={
        "genus": g, "size": 2 * g, "terms": terms(form)})


def mutated_certificate(rng, files: Files, mutation: str) -> Item:
    """A correct certificate, built here, with one entry changed: replay must fail."""
    g = rng.randint(1, 6)
    cs = [rand_poly(rng, -2, 2, 2) for _ in range(g)]
    form = block_form([O.hermitian_entry(c) for c in cs])
    p = O.block_diag([[[dict(O.ONE), {}], [O.pneg(c), dict(O.ONE)]] for c in cs])
    det = O.det_target_canonical(g)
    k = 2 * rng.randrange(g)
    if mutation == "entry":
        p[k + 1][k] = O.padd(p[k + 1][k], O.ONE)
    elif mutation == "unit":
        p[k][k] = {0: 2}
    else:
        det = O.padd(det, O.ONE)
    cert = {"g": str(g), "c_list": [O.poly_to_json(c) for c in cs],
            "P": O.matrix_to_json(p), "det_canonical": O.poly_to_json(det)}
    form_path = files.write("form", O.matrix_to_json(form))
    cert_path = files.write("cert", cert)

    def run():
        return cli("replay", cert_path, form_path)

    def check(rep, defer):
        if rep.rc != 1 or "replay mismatch" not in rep.err:
            return f"replay of a certificate with a changed {mutation} gave exit {rep.rc}"
        return None

    return Item("mutated_certificate", run, check, props={
        "genus": g, "size": 2 * g, "terms": terms(form)})


FIXTURE = {"rank": "2", "entries": [{}, {"0": "1", "1": "-1"}, {"0": "1", "-1": "-1"},
                                    {"0": "2", "1": "-1", "-1": "-1"}]}

# Malformed inputs; each must give exit 2. `negative_rank` and `null_sign`
# reproduce known parse-boundary defects and do not exit 2 today.
MALFORMED = [
    ("truncated_json", "check", '{"rank": "2", "entries": ['),
    ("missing_entries", "check", {"rank": "2"}),
    ("entry_count", "check", {"rank": "2", "entries": [{}]}),
    ("non_hermitian", "check", {"rank": "2", "entries": [{}, {"0": "1", "1": "-1"},
                                                          {"0": "1", "1": "-1"}, {}]}),
    ("bad_coefficient", "check", {"rank": "1", "entries": [{"0": "x"}]}),
    ("negative_rank", "check", {"rank": "-1", "entries": [{}]}),
    ("null_sign", "wall", {"label": "s", "euler": "0",
                           "events": [{"kind": "torus_piercing", "sign": None, "k": "0"}]}),
    ("bad_event_kind", "wall", {"label": "s", "euler": "0",
                                "events": [{"kind": "bogus", "sign": "+1", "k": "0"}]}),
    ("certificate_without_P", "replay", {"g": "1", "c_list": [], "det_canonical": {}}),
]


def malformed(files: Files, index: int) -> Item:
    name, command, payload = MALFORMED[index % len(MALFORMED)]
    path = files.write(name, payload)
    argv = (command, path, files.write("form", FIXTURE)) if command == "replay" else (command, path)

    def run():
        return cli(*argv)

    def check(call, defer):
        return None  # a wrong exit code here is counted as a malformed exit error

    return Item("malformed", run, check, malformed=True, props={"case": name})


def certify_round(rng, files: Files, index: int) -> list[Item]:
    # Genera are stratified: every round has the same genus histogram.
    genera = [1, 1, 2, 3, 4, 6, 10, 16]
    counts = event_counts(rng, sum(genera))
    prenormalized = set(rng.sample(range(len(genera)), 3))
    items = []
    for k, g in enumerate(genera):
        items.append(round_trip(rng, files, counts[:g], k in prenormalized))
        del counts[:g]
    items.append(double_point_reject(rng, files, (20, 80, 300)[index % 3]))
    items.append(cross_block_reject(rng, files))
    items.append(mutated_certificate(rng, files, ("entry", "unit", "det")[index % 3]))
    items += [malformed(files, 2 * index), malformed(files, 2 * index + 1)]
    items.append(session(files))
    return items


# -- search: criterion-8 style bounded searches -------------------------------


def found_search(rng, files: Files, g: int, depth: Optional[int] = None) -> Item:
    depth = g + 1 if depth is None else depth
    form = block_form([O.hermitian_entry(rand_poly(rng, -2, 2, 2)) for _ in range(g)])
    target = O.h2(g)
    form_path = files.write("form", O.matrix_to_json(form))
    target_path = files.write("target", O.matrix_to_json(target))

    def run():
        return cli("search", form_path, target_path, "--depth", depth, *BOX)

    def check(call, defer):
        if call.rc != 0:
            return f"search exit {call.rc}: {call.err.strip()[:120]}"
        out = decode(call)
        if out["status"] != "found":
            return f"search status {out['status']}, expected found"
        return O.replay_moves(form, target, out, depth)

    return Item(f"found_rank{2 * g}", run, check, props={
        "genus": g, "size": 2 * g, "terms": terms(form), "outcome": "found"})


def golden_search(files: Files, entry: dict) -> Item:
    """An exhausted or obstructed instance whose status is pinned in the golden file."""
    form = O.matrix_from_json(entry["form"])
    g, depth, status = len(form) // 2, entry["depth"], entry["status"]
    form_path = files.write("form", entry["form"])
    target_path = files.write("target", O.matrix_to_json(O.h2(g)))

    def run():
        return cli("search", form_path, target_path, "--depth", depth, *BOX)

    def check(call, defer):
        if call.rc != 1 or decode(call)["status"] != status:
            return f"search gave exit {call.rc}, golden status is {status}"
        if status == "obstruction_mismatch":
            defer(lambda: None if O.det_canonical(form) != O.det_target_canonical(g)
                  else "sympy finds the determinant associate to the target's")
        return None

    return Item(entry["group"], run, check, props={
        "genus": g, "size": 2 * g, "terms": terms(form), "outcome": status})


def probe(rng, files: Files) -> Item:
    form = block_form([O.hermitian_entry(rand_poly(rng, -2, 2, 2))])
    stable = O.block_diag([form, O.h2(1)])
    form_path = files.write("form", O.matrix_to_json(form))

    def run():
        return cli("probe", form_path)

    def check(call, defer):
        if call.rc != 0:
            return f"probe exit {call.rc}"
        out = decode(call)
        if out["candidate_for_deeper_bounds"] is not False:
            return "probe flagged a reducible form"
        for key, start, g in (("direct", form, 1), ("stable", stable, 2)):
            outcome = out[key]
            if outcome["status"] != "found":
                return f"probe {key} status {outcome['status']}"
            if problem := O.replay_moves(start, O.h2(g), outcome, 2):
                return f"probe {key}: {problem}"
        return None

    return Item("probe", run, check, props={
        "genus": 1, "size": 2, "terms": terms(form), "outcome": "found"})


def load_golden(seed: int) -> dict:
    """The golden pool by group, each group in an order shuffled by the
    workload seed; rounds take its entries in turn."""
    with open(GOLDEN, encoding="utf-8") as fh:
        pool = json.load(fh)["pool"]
    groups: dict[str, list] = {}
    for entry in pool:
        groups.setdefault(entry["group"], []).append(entry)
    for group, entries in groups.items():
        random.Random(f"golden:{seed}:{group}").shuffle(entries)
    return groups


def search_round(rng, files: Files, index: int, golden: dict) -> list[Item]:
    # 17 items. The two heavy ones (a full first level of about 37k rank-4
    # states, or of rank-2 states each goal-checked) are the slowest 12% of
    # a run's items, so its p90 lies among them. The 12 obstructed and
    # depth-1 searches cost 1.3-3.4 ms, so its median lies among them;
    # genus-1 found searches and probes cost 3-40 ms, depending on how far
    # the goal check scans the box, and would make it jump. Golden entries
    # are taken in turn, not drawn, so that a run of a few rounds sees most
    # of each group and its median does not follow which entries it drew.
    def take(group: str, count: int) -> list[Item]:
        entries = golden[group]
        return [golden_search(files, entries[(index * count + k) % len(entries)])
                for k in range(count)]

    items = [found_search(rng, files, 2)]
    items += take("exhausted_depth2", 1)
    items += take("exhausted_depth1", 6)
    items += take("obstructed", 6)
    items.append(found_search(rng, files, 1))
    items.append(probe(rng, files))
    items.append(session(files))
    return items


def golden_candidates(rng) -> list[tuple[str, int, list]]:
    """Candidate instances for the golden file: (group, depth, form).

    exhausted_depth2: H2 moved by three alternating transvections (rank 2),
    searched at depth 2, so the whole first level is built and checked.
    exhausted_depth1: block forms moved by two transvections (ranks 2 and 4).
    obstructed: block forms with one diagonal block entry changed, so the
    determinant is no longer associate to the target's.
    """
    def transvect(form, i, j, p):
        e = O.identity(len(form))
        e[i][j] = p
        return O.congruent(e, form)

    out = []
    for _ in range(48):
        form, i = O.h2(1), rng.randrange(2)
        for _ in range(3):
            form = transvect(form, i, 1 - i, rand_nonzero(rng, -2, 2, 2))
            i = 1 - i
        out.append(("exhausted_depth2", 2, form))
    for n in [2] * 24 + [4] * 24:
        form = block_form([O.hermitian_entry(rand_poly(rng, -2, 2, 2)) for _ in range(n // 2)])
        for _ in range(2):
            i, j = rng.sample(range(n), 2)
            form = transvect(form, i, j, rand_nonzero(rng, -2, 2, 2))
        out.append(("exhausted_depth1", 1, form))
    for n in [2] * 12 + [4] * 12:
        form = block_form([O.hermitian_entry(rand_poly(rng, -2, 2, 2)) for _ in range(n // 2)])
        k = 2 * rng.randrange(n // 2)
        form[k][k] = O.padd(form[k][k], {0: rng.choice((1, -1, 2))})
        out.append(("obstructed", 2, form))
    return out


# -- linalg: Q(t) ranks, torsion orders and dense determinants ----------------


def homology_check(call: Call, ranks: list, diffs: list, defer) -> Optional[str]:
    if call.rc != 0:
        return f"homology exit {call.rc}: {call.err.strip()[:120]}"
    out = decode(call)
    rk = [0] + [O.rank_qt(d) for d in diffs] + [0]
    betti = [ranks[i] - rk[i] - rk[i + 1] for i in range(len(ranks))]
    if [int(b) for b in out["betti_qt"]] != betti:
        return f"betti {out['betti_qt']} != reference {betti}"
    if out["euler_check"] is not True:
        return "euler check failed"
    for k, (d, torsion) in enumerate(zip(diffs, out["torsion_orders"])):
        square_full = len(d) == len(d[0]) and rk[k + 1] == len(d)
        if (torsion is None) == square_full:
            return f"torsion order of d_{k + 1} present={torsion is not None}, expected {square_full}"
        if torsion is not None:
            got = O.poly_from_json(torsion)
            defer(lambda d=d, got=got: None if O.det_canonical(d) == got
                  else "torsion order differs from the sympy determinant")
    return None


def homology_item(files: Files, kind: str, ranks: list, diffs: list) -> Item:
    path = files.write("complex", {"ranks": [str(r) for r in ranks],
                                   "differentials": [O.rows_to_json(d) for d in diffs]})

    def run():
        return cli("homology", path)

    def check(call, defer):
        return homology_check(call, ranks, diffs, defer)

    return Item(kind, run, check, props={
        "size": max(ranks), "terms": sum(terms(d) for d in diffs)})


# (rank of C_0, columns of A, columns of K, rank of C_2); rank of C_1 = a + b.
SMALL_SHAPES = [(1, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 3), (3, 1, 1, 3),
                (3, 2, 2, 3), (3, 2, 1, 2), (3, 1, 2, 3)]
LARGE_SHAPE = (6, 3, 3, 6)


def exact_complex(rng, files: Files, shape: tuple) -> Item:
    """d1 = [A | AK] and d2 = [-KQ; Q], so d1 d2 = 0 by construction."""
    r0, a, b, r2 = shape
    A = rand_matrix(rng, r0, a, -1, 1, 1)
    K = rand_matrix(rng, a, b, -1, 1, 1)
    Q = rand_matrix(rng, b, r2, -1, 1, 1)
    d1 = [ra + rak for ra, rak in zip(A, O.mmul(A, K))]
    d2 = [[O.pneg(x) for x in row] for row in O.mmul(K, Q)] + Q
    return homology_item(files, "complex", [r0, a + b, r2], [d1, d2])


def presentation(rng, files: Files, n: int, exponents: tuple = (-1, 0, 1, 2)) -> Item:
    """A dense square presentation, so almost always of full rank."""
    return homology_item(files, "presentation", [n, n], [rand_dense(rng, n, n, exponents)])


def det_congruence(rng, files: Files, n: int) -> Item:
    """det(B A B*) = det(B) det(A) det(B)~ for a dense B: true by the
    product rule, so the expected answer needs no call into the program.
    That alone would pass a determinant that is wrong the same way on both
    sides, so the program's det(B) and det(A) are also compared with sympy's,
    once per item, after the timed loop."""
    b = rand_dense(rng, n, n, (0, 1))
    diagonals = [O.hermitian_entry(rand_poly(rng, -1, 1, 1)) for _ in range(n // 2)]
    a = block_form(diagonals)
    if n % 2:
        a = O.block_diag([a, [[O.hermitian_entry(rand_nonzero(rng, -1, 1, 1))]]])
    b_path = files.write("matrix", O.matrix_to_json(b))
    a_path = files.write("form", O.matrix_to_json(a))

    def run():
        forms = laurentforms.forms
        with open(b_path, encoding="utf-8") as fh:
            bm = forms.matrix_from_json(json.load(fh))
        with open(a_path, encoding="utf-8") as fh:
            am = forms.HermitianForm.from_json(json.load(fh))
        return forms.det_congruence_check(bm, am), bm, am

    queued = False

    def check(result, defer):
        nonlocal queued
        verdict, bm, am = result
        if verdict is not True:
            return f"det_congruence_check returned {verdict!r}"
        if not queued:  # the traced half of a round checks the same inputs
            queued = True
            defer(lambda: det_check(bm, b, "B") or det_check(am, a, "A"))
        return None

    return Item("det_congruence", run, check, props={"size": n, "terms": terms(b) + terms(a)})


def det_check(program_matrix, matrix: list, name: str) -> Optional[str]:
    """The program's determinant against sympy's, exactly (sign included)."""
    det = laurentforms.forms.determinant(program_matrix)
    if O.poly_from_json(det.to_json()) != O.det_exact(matrix):
        return f"determinant of {name} differs from the sympy determinant"
    return None


def linalg_round(rng, files: Files, index: int) -> list[Item]:
    # Sizes and shapes are fixed per round; only entries vary. 33 items: 18
    # cost a few ms (small complexes and presentations), so a run's median
    # lies inside that group. The slowest 10% are the n=12 and n=11
    # determinants and the upper part of the four at n=10, so the p90 lies
    # among the n=10 ones, which cost 0.24-0.34 s; with fewer of them, a
    # run of four or five rounds has too few to hold it steady. Rank-6
    # presentations get two-term entries: with four terms, rank_qt takes 1-4
    # s and would set the round's time and p90 on its own.
    items = [det_congruence(rng, files, n) for n in (6, 7, 8, 9, 10, 10, 10, 10, 11, 12)]
    items += [presentation(rng, files, n, (0, 1)) for n in (1, 2)]
    items += [presentation(rng, files, 5), presentation(rng, files, 5)]
    items.append(presentation(rng, files, 6, (0, 1)))
    items += [exact_complex(rng, files, shape) for shape in SMALL_SHAPES + SMALL_SHAPES]
    items.append(exact_complex(rng, files, LARGE_SHAPE))
    items.append(session(files))
    return items


# -- the session item every workload has once per round -----------------------


def session(files: Files) -> Item:
    """One small use of every command, so that every layer is measured on
    every workload; 1-2% of a round's time. Its inputs are the same in
    every round and run: drawn afresh, the goal checks of its search and
    probe take 3-40 ms and would make the run's median jump."""
    rng = random.Random("session")
    return composite("session", [
        round_trip(rng, files, [rng.randint(1, 8)], True),
        found_search(rng, files, 1, depth=1),
        probe(rng, files),
        presentation(rng, files, 1),
    ])


def make_round(workload: str, rng, files: Files, index: int, golden: Optional[dict]) -> list[Item]:
    if workload == "certify":
        return certify_round(rng, files, index)
    if workload == "search":
        return search_round(rng, files, index, golden)
    return linalg_round(rng, files, index)


def warmup_item(workload: str, rng, files: Files) -> Item:
    """The untimed item run once during set-up: fills lazy caches such as
    the search module's polynomial box."""
    if workload == "search":
        return found_search(rng, files, 1)
    if workload == "linalg":
        return presentation(rng, files, 2)
    return round_trip(rng, files, [8], False)


# Seconds of one untraced plus one traced round at the seed commit (2-core
# Xeon, Python 3.11); sets the fixed number of rounds of a traced run.
NOMINAL_ROUND_S = {"certify": 2.0, "search": 8.0, "linalg": 11.0}
