"""Per-layer tracing installed from the benchmark's files.

`Tracer.install` replaces every binding of the traced functions, in every
loaded `laurentforms` module and on their classes, with a timing wrapper;
`uninstall` puts the originals back. The program itself is not changed.

Two kinds of wrapper:

- A frame wraps a library function. It counts calls, sums inclusive time
  (the outermost call per name only, so nested calls are not counted
  twice) and keeps the self time of each layer: a frame's duration minus
  the time spent in descendants of another layer. Frames of the coarse
  boundaries also record a span (name, parent span, item, start, end).
- A ring wrapper wraps a `LaurentPoly` operation. Only the outermost ring
  operation is counted and timed (`a - b` calls `a + (-b)` inside and is
  counted once, as an add), and no span is recorded, so that millions of
  ring operations stay aggregated counters.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer, metric name, module, attribute path, records a span). Every
# library function that cli calls directly is here, reported or not, so
# that cli's self time is only its own argparse, JSON and file work.
FRAMES = [
    ("cli", "cli.main", "cli", "main", True),
    ("forms", "forms.determinant", "forms", "determinant", True),
    ("forms", "forms.certify_reduction", "forms", "certify_reduction", True),
    ("forms", "forms.congruence", "forms", "congruence", False),
    ("forms", "forms.recognize", "forms", "_recognize_with_reason", False),
    ("forms", "forms.parse", "forms", "matrix_from_json", False),
    ("forms", "forms.parse", "forms", "HermitianForm.from_json", False),
    ("forms", "forms.h2_sum", "forms", "h2_sum", False),
    ("laurent", "laurent.parse", "laurent", "LaurentPoly.from_json", False),
    ("wallcalc", "wallcalc.mu", "wallcalc", "mu", True),
    ("wallcalc", "wallcalc.pairing_shape_check", "wallcalc", "pairing_shape_check", False),
    ("wallcalc", "wallcalc.lambda_self", "wallcalc", "lambda_self", False),
    ("wallcalc", "wallcalc.hermitize", "wallcalc", "hermitize", False),
    ("wallcalc", "wallcalc.parse", "wallcalc", "SurfaceModel.from_json", False),
    ("homology", "homology.rank_qt", "homology", "rank_qt", True),
    ("homology", "homology.torsion_order", "homology", "torsion_order", False),
    ("homology", "homology.complex_build", "homology", "ChainComplex.__init__", False),
    ("homology", "homology.parse", "homology", "ChainComplex.from_json", False),
    ("homology", "homology.betti_qt", "homology", "ChainComplex.betti_qt", False),
    ("homology", "homology.euler_check", "homology", "ChainComplex.euler_check", False),
    ("search", "search.bounded_isometry_search", "search", "bounded_isometry_search", True),
    ("search", "search.conjecture_probe", "search", "conjecture_probe", False),
    ("search", "search.state_key", "search", "_state_key", False),
    ("search", "search.apply_move", "search", "apply_move", False),
    ("search", "search.move_from_json", "search", "move_from_json", False),
]

# metric name -> LaurentPoly methods
RING = {
    "laurent.mul": ("__mul__", "__rmul__"),
    "laurent.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "laurent.token": ("token",),
    "laurent.divide_exact": ("divide_exact",),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()
        self.spans: list[list] = []
        self.item = None
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        self._active: Counter = Counter()
        self._in_ring = [False]
        self._epoch = time.perf_counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._bindings = self._build()

    # -- wrappers ---------------------------------------------------------

    def _frame(self, layer: str, name: str, fn, span: bool):
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        calls, total, own, active = self.calls, self.time, self.self_time, self._active
        clock, tracer = time.perf_counter, self

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            active[name] += 1
            if span:
                record = [len(spans), span_stack[-1] if span_stack else None, name,
                          tracer.item, 0.0, 0.0, None, None]
                if name == "cli.main":
                    record[6] = args[0][0]
                spans.append(record)
                span_stack.append(record[0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if span and name == "cli.main":
                    record[7] = result
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                if not active[name]:
                    total[name] += dt
                if stack and stack[-1][0] == layer:
                    stack[-1][1] += frame[1]
                else:
                    own[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                if span:
                    span_stack.pop()
                    record[4] = t0 - tracer._epoch
                    record[5] = t1 - tracer._epoch

        return wrapper

    def _ring(self, name: str, fn):
        stack, calls, total, in_ring = self._stack, self.calls, self.time, self._in_ring
        clock = time.perf_counter

        def wrapper(*args):
            if in_ring[0]:
                return fn(*args)
            in_ring[0] = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                in_ring[0] = False
                calls[name] += 1
                total[name] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for owner, attr, _, new in self._bindings:
            setattr(owner, attr, new)
        self._patches = self._bindings

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)
        self._patches = []

    def _build(self) -> list[tuple[object, str, object, object]]:
        modules = {k: v for k, v in sys.modules.items() if k.startswith("laurentforms")}
        bindings = []
        for layer, name, mod, path, span in FRAMES:
            owner = modules[f"laurentforms.{mod}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._frame(layer, name, raw.__func__, span))
                else:
                    wrapped = self._frame(layer, name, raw, span)
                bindings.append((owner, attr, raw, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._frame(layer, name, original, span)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        bindings.append((module, key, original, wrapped))
        poly = modules["laurentforms.laurent"].LaurentPoly
        for name, attrs in RING.items():
            for attr in attrs:
                original = poly.__dict__[attr]
                bindings.append((poly, attr, original, self._ring(name, original)))
        return bindings

    # -- results ------------------------------------------------------------

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "name", "item", "start_s", "end_s", "command", "exit")
        return [dict(zip(keys, record)) for record in self.spans]

    def determinants_per_command(self) -> dict:
        """Mean determinant spans under each CLI command, by its exit code."""
        by_id = {record[0]: record for record in self.spans}
        commands: Counter = Counter()
        dets: Counter = Counter()
        for record in self.spans:
            if record[2] == "cli.main":
                commands[_command(record)] += 1
            elif record[2] == "forms.determinant":
                root = record
                while root[1] is not None:
                    root = by_id[root[1]]
                if root[2] == "cli.main":
                    dets[_command(root)] += 1
        return {cmd: dets[cmd] / n for cmd, n in sorted(commands.items())}


def _command(record: list) -> str:
    outcome = "raised" if record[7] is None else f"exit {record[7]}"
    return f"{record[6]} {outcome}"
