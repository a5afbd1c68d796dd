"""Write tests/fixtures/search_golden.json: exact search outcomes to pin.

The fixture records `SearchOutcome.to_json()` (and `ProbeReport.to_json()`
for the probes) for four groups of instances:

- criterion_8: the 100 block forms of acceptance criterion 8, searched at
  depth g + 1;
- probes: the criterion-8 probe forms under the default bounds;
- final_level: rank-2 forms (H2 moved by two transvections) that a depth-2
  search finds only at its final level, so the move list has two moves;
- final_level_many_hits: rank-2 forms whose depth-2 search finds several
  states on its final level that one more move takes to H2, some of them
  generated more than once, with the smallest key not generated first
  (H2 moved by two transvections on the same index pair, or by a swap and
  a unit rescaling); these pin which hit and which generator win;
- exhausted_depth2: the first 8 `exhausted_depth2` forms of
  bench/golden_search.json;
- depth3: searches that sort an intermediate level and expand it, each
  entry with its own bounds: rank-2 and rank-4 forms (H2^g moved by three
  transvections) that a depth-3 search with degree 1, coefficient 1 and
  unit exponent 1 finds only at move length 3, two forms it exhausts, a
  form moved by t^3 and searched with unit exponent 3 (more than twice
  the degree), a rank-2 depth-4 search over the box {1, -1}, and depth 0
  and 1 edge cases.

Every search of the other groups uses transvection degree 2, coefficient
2 and unit exponent 2.
The file pins move lists, so regenerate it only when a change is meant to
alter which move list a search returns. Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/make_search_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

from laurentforms import (  # noqa: E402
    DEFAULT_BOUNDS,
    HermitianForm,
    SearchBounds,
    bounded_isometry_search,
    conjecture_probe,
    h2_sum,
)
from laurentforms.search import Swap, Transvection, UnitScale, apply_move  # noqa: E402

from conftest import rand_poly  # noqa: E402
from test_acceptance import _random_block_forms, rank2_fixture  # noqa: E402

GOLDEN = HERE / "search_golden.json"
FINAL_LEVEL_SEED = 20261018
FINAL_LEVEL_COUNT = 12
MANY_HITS_COUNT = 8
EXHAUSTED_COUNT = 8
DEPTH3_RANK2_COUNT = 4
DEPTH3_RANK4_COUNT = 2


def bounds(depth: int) -> SearchBounds:
    return SearchBounds(max_depth=depth, transvection_degree=2, transvection_coeff=2,
                        unit_exponent=2)


def search_entry(form: HermitianForm, depth: int) -> dict:
    outcome = bounded_isometry_search(form, h2_sum(form.rank // 2), bounds(depth))
    return {"depth": str(depth), "form": form.to_json(), "outcome": outcome.to_json()}


def final_level_forms() -> list[HermitianForm]:
    rng = random.Random(FINAL_LEVEL_SEED)
    out = []
    while len(out) < FINAL_LEVEL_COUNT:
        entries, i = h2_sum(1).entries, rng.randrange(2)
        for _ in range(2):
            p = rand_poly(rng, -2, 2, 2, allow_zero=False)
            entries = apply_move(entries, Transvection(i, 1 - i, p))
            i = 1 - i
        form = HermitianForm(entries)
        outcome = bounded_isometry_search(form, h2_sum(1), bounds(2))
        if outcome.found and len(outcome.moves) == 2:
            out.append(form)
    return out


def many_hit_forms() -> list[HermitianForm]:
    rng = random.Random(FINAL_LEVEL_SEED + 1)
    out = []

    def add(chain):
        entries = h2_sum(1).entries
        for move in chain:
            entries = apply_move(entries, move)
        form = HermitianForm(entries)
        outcome = bounded_isometry_search(form, h2_sum(1), bounds(2))
        if outcome.found and len(outcome.moves) == 2:
            out.append(form)

    add([Swap(0, 1), UnitScale(1, 1, 2)])
    add([Swap(0, 1), UnitScale(0, -1, 1)])
    while len(out) < MANY_HITS_COUNT:
        i = rng.randrange(2)
        add([Transvection(i, 1 - i, rand_poly(rng, -2, 2, 2, allow_zero=False))
             for _ in range(2)])
    return out


def depth3_entries() -> list[dict]:
    rng = random.Random(FINAL_LEVEL_SEED + 3)
    small = SearchBounds(max_depth=3, transvection_degree=1, transvection_coeff=1,
                         unit_exponent=1)

    def moved(g: int, moves: list) -> HermitianForm:
        entries = h2_sum(g).entries
        for move in moves:
            entries = apply_move(entries, move)
        return HermitianForm(entries)

    def transvections(g: int, count: int) -> list:
        out = []
        for _ in range(count):
            i, j = rng.sample(range(2 * g), 2)
            out.append(Transvection(i, j, rand_poly(rng, -1, 1, 1, allow_zero=False)))
        return out

    def entry(case: str, form: HermitianForm, b: SearchBounds) -> dict:
        outcome = bounded_isometry_search(form, h2_sum(form.rank // 2), b)
        return {"bounds": b.to_json(), "case": case, "form": form.to_json(),
                "outcome": outcome.to_json()}

    def found_at(g: int, count: int, length: int, b: SearchBounds, make) -> list[dict]:
        out = []
        while len(out) < count:
            e = entry(f"rank{2 * g}_found_at_{length}", make(), b)
            if len(e["outcome"].get("moves", ())) == length:
                out.append(e)
        return out

    entries = found_at(1, DEPTH3_RANK2_COUNT, 3, small, lambda: moved(1, transvections(1, 3)))
    entries += found_at(2, DEPTH3_RANK4_COUNT, 3, small, lambda: moved(2, transvections(2, 3)))
    exhausted = []
    while len(exhausted) < 2:
        e = entry("rank2_exhausted", moved(1, transvections(1, 5)), small)
        if e["outcome"]["status"] == "exhausted":
            exhausted.append(e)
    entries += exhausted
    wide = SearchBounds(max_depth=3, transvection_degree=1, transvection_coeff=1,
                        unit_exponent=3)
    entries.append(entry("rank2_unit_exp_3", moved(1, [UnitScale(0, -1, 3)]
                                                     + transvections(1, 2)), wide))
    signs = SearchBounds(max_depth=4, transvection_degree=0, transvection_coeff=1,
                         unit_exponent=0)
    entries += found_at(1, 1, 4, signs, lambda: moved(1, [
        Transvection(i, 1 - i, rand_poly(rng, 0, 0, 1, allow_zero=False))
        for i in (0, 1, 0, 1)]))
    form = moved(1, transvections(1, 3))
    for depth in (0, 1):
        b = SearchBounds(depth, 1, 1, 1)
        entries.append(entry(f"depth_{depth}_target", h2_sum(1), b))
        entries.append(entry(f"depth_{depth}", form, b))
    entries.append(entry("depth_1_found", moved(1, transvections(1, 1)), SearchBounds(1, 1, 1, 1)))
    return entries


def main() -> int:
    pool = json.loads((ROOT / "bench" / "golden_search.json").read_text())["pool"]
    exhausted = [HermitianForm.from_json(e["form"]) for e in pool
                 if e["group"] == "exhausted_depth2"][:EXHAUSTED_COUNT]
    golden = {
        "criterion_8": [search_entry(form, g + 1) for g, form in _random_block_forms(100, seed=8)],
        "probes": [
            {"depth": str(DEFAULT_BOUNDS.max_depth), "form": form.to_json(),
             "report": conjecture_probe(form, DEFAULT_BOUNDS).to_json()}
            for form in (h2_sum(1), rank2_fixture())
        ],
        "final_level": [search_entry(form, 2) for form in final_level_forms()],
        "final_level_many_hits": [search_entry(form, 2) for form in many_hit_forms()],
        "exhausted_depth2": [search_entry(form, 2) for form in exhausted],
        "depth3": depth3_entries(),
    }
    lines = ["{"]
    for g, (group, entries) in enumerate(golden.items()):
        lines.append(f"{json.dumps(group)}: [")
        lines.append(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
        lines.append("]" + ("," if g + 1 < len(golden) else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps({group: len(entries) for group, entries in golden.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
