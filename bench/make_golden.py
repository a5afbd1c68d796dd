"""Write bench/golden_search.json: the pinned statuses of the search pool.

The search workload draws its exhausted and obstructed instances from this
pool and checks each status against the one recorded here. Run from the
repository root, only when the pool itself is meant to change:

    PYTHONPATH=src python3 bench/make_golden.py

A candidate stays in the pool only when its status is the one its group
stands for; found outcomes are checked by replaying their moves instead.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle as O  # noqa: E402
from workloads import GOLDEN, golden_candidates  # noqa: E402

from laurentforms import HermitianForm, SearchBounds, bounded_isometry_search, h2_sum  # noqa: E402

POOL_SEED = 20231211
GROUP_STATUS = {
    "exhausted_depth2": "exhausted",
    "exhausted_depth1": "exhausted",
    "obstructed": "obstruction_mismatch",
}


def main() -> int:
    pool = []
    for group, depth, form in golden_candidates(random.Random(POOL_SEED)):
        payload = O.matrix_to_json(form)
        a = HermitianForm.from_json(payload)
        bounds = SearchBounds(max_depth=depth, transvection_degree=2,
                              transvection_coeff=2, unit_exponent=2)
        status = bounded_isometry_search(a, h2_sum(a.rank // 2), bounds).status
        if status == GROUP_STATUS[group]:
            pool.append({"group": group, "depth": depth, "status": status, "form": payload})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "pool": pool}, fh, indent=0)
        fh.write("\n")
    counts = {}
    for entry in pool:
        counts[entry["group"]] = counts.get(entry["group"], 0) + 1
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
