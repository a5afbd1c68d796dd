"""Write tests/fixtures/certify_golden.json: exact CLI outputs to pin.

The fixture records the stdout and exit code of three commands:

- wall: surfaces with 0, 1, 50, 500 and 3000 events. They cover all three
  event kinds, both signs, nonzero Euler numbers, generic double points
  (so "c" is null) and the exponents -1, 0 and +1, where a contribution's
  exponents fold onto their absolute values;
- reduce: block forms of genus 1-16, plain and with their basis vectors
  rescaled by units, each with and without --prenormalize;
- replay: every certificate that reduce printed, against its form.

`surfaces()` and `block_forms()` rebuild the inputs from fixed seeds, and
the fixture keeps the SHA-256 of each run's input files beside its exit
code and stdout, so a changed input is told apart from a changed output.
The file pins bytes, so regenerate it only when a change is meant to alter
what these commands print. Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/make_certify_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from laurentforms import LaurentPoly, ZERO, congruence  # noqa: E402
from laurentforms.cli import main  # noqa: E402

from conftest import block_form, rand_poly  # noqa: E402

GOLDEN = HERE / "certify_golden.json"
SEED = 20261018
KINDS = ("generic_double_point", "torus_piercing", "disc_self_intersection")
SHAPED = KINDS[1:]  # no generic double points: "c" is computed when euler is 0


def record(label: str, argv: list[str], files: dict[str, object]) -> dict:
    """Run the CLI in-process on JSON input files; pin its exit code and stdout."""
    texts = {name: json.dumps(payload) for name, payload in files.items()}
    digest = hashlib.sha256("\n".join(texts[a] for a in argv if a in texts).encode())
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([paths.get(a, a) for a in argv])
    return {"label": label, "argv": argv, "input_sha256": digest.hexdigest(),
            "exit": str(code), "stdout": out.getvalue()}


def surface(rng: random.Random, label: str, count: int, kinds, euler: int, span: int) -> dict:
    events = []
    for _ in range(count):
        sign = rng.choice([1, -1])
        events.append({
            "kind": rng.choice(kinds),
            # Both JSON forms of an integer: a decimal string and a number.
            "sign": f"{sign:+d}" if rng.random() < 0.8 else sign,
            "k": str(rng.randint(-span, span)),
        })
    return {"label": label, "euler": str(euler), "events": events}


def surfaces() -> list[dict]:
    rng = random.Random(SEED)
    out = [
        {"label": "sphere", "euler": "0", "events": []},
        {"label": "euler-only", "euler": "-3", "events": []},
    ]
    for kind in KINDS:
        for k in (-1, 0, 1):
            for sign in ("+1", "-1"):
                out.append({"label": f"{kind}/{sign}/{k}", "euler": "0",
                            "events": [{"kind": kind, "sign": sign, "k": str(k)}]})
    out.append({"label": "one-event-euler", "euler": "2",
                "events": [{"kind": "torus_piercing", "sign": "-1", "k": "-1"}]})
    out += [
        surface(rng, "50-shaped", 50, SHAPED, 0, 3),
        surface(rng, "50-mixed", 50, KINDS, 0, 3),
        surface(rng, "50-euler", 50, SHAPED, -4, 3),
        surface(rng, "500-shaped", 500, SHAPED, 0, 8),
        surface(rng, "500-mixed", 500, KINDS, 7, 8),
        surface(rng, "3000-shaped", 3000, SHAPED, 0, 12),
        surface(rng, "3000-mixed", 3000, KINDS, -1, 12),
    ]
    return out


def block_forms() -> list[tuple[str, object]]:
    """A plain and a unit-rescaled block form for each genus 1-16."""
    rng = random.Random(SEED + 1)
    out = []
    for g in range(1, 17):
        form = block_form([rand_poly(rng, -2, 2, 2) for _ in range(g)])
        units = [LaurentPoly({rng.randint(-2, 2): rng.choice([1, -1])}) for _ in range(2 * g)]
        d = [[units[i] if i == j else ZERO for j in range(2 * g)] for i in range(2 * g)]
        out.append((f"g{g}", form))
        out.append((f"g{g}-rescaled", congruence(d, form)))
    return out


def build() -> dict:
    golden: dict[str, list[dict]] = {"wall": [], "reduce": [], "replay": []}
    for surface_ in surfaces():
        golden["wall"].append(record(surface_["label"], ["wall", "surface"],
                                     {"surface": surface_}))
    for name, form in block_forms():
        for flags in ([], ["--prenormalize"]):
            label = name + "".join(flags)
            files: dict[str, object] = {"form": form.to_json()}
            entry = record(label, ["reduce", *flags, "form"], files)
            golden["reduce"].append(entry)
            if entry["exit"] == "0":
                files["certificate"] = json.loads(entry["stdout"])
                golden["replay"].append(record(label, ["replay", "certificate", "form"], files))
    return golden


def render(golden: dict) -> str:
    lines = ["{"]
    for g, (group, entries) in enumerate(golden.items()):
        lines.append(f"{json.dumps(group)}: [")
        lines.append(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
        lines.append("]" + ("," if g + 1 < len(golden) else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main_() -> int:
    golden = build()
    GOLDEN.write_text(render(golden), encoding="utf-8")
    print(json.dumps({group: len(entries) for group, entries in golden.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
