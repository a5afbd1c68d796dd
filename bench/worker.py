"""One workload in one fresh interpreter: set-up, the timed loop, the checks.

run.py starts this file with PYTHONHASHSEED fixed and `src` on the path.
Set-up is the import of laurentforms plus one untimed warm-up item. The
loop is closed, with one caller: an item starts when the previous one has
finished and been checked. It runs whole rounds until the timed work has
taken --seconds of wall time and (untraced) at least MIN_ITEMS items are
done.

With --trace 1 every round runs twice, untraced and then traced, on the
same inputs: the traced half gives the per-layer metrics and the pair gives
the tracing overhead. A traced run covers a fixed number of rounds,
--seconds over the workload's nominal round time, so its counts repeat
exactly for a seed and compare across commits. Spans are written to
bench/_out/ at the end.

Times are CPU time of this process (time.process_time), which on an
idle machine equals wall time for this single-threaded, in-process
program, and which does not count the time the worker waits while other
processes run. The speed of a shared host can still drift by up to 2x
over minutes, so after every item the worker also times a
fixed reference computation from oracle.py, for about REF_SHARE of the
item's time, outside the item's timed region. Each round's latencies are
divided by that round's host factor (mean reference time over
REF_NOMINAL_S), so the times reported are seconds on a host where the
reference takes REF_NOMINAL_S. Set-up is scaled the same way. The
program's code never runs inside the reference, so a change to the
program cannot move the factor.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import oracle  # noqa: F401  (stdlib-only; imported before the set-up clock starts)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "_out"
# The p90 needs 10 samples beyond it.
MIN_ITEMS = 100
# Peak RSS is read after this many rounds. Live memory is flat from round
# to round, but the allocator's fragmentation keeps raising the high-water
# mark, so a reading at the end would grow with the number of rounds, that
# is with the speed of the machine.
PEAK_RSS_ROUNDS = 2
# The reference computation: a fixed 4x4 product of Laurent polynomial
# matrices in the benchmark's own dict arithmetic, then canonical forms
# joined into strings, like the program's ring operations and state keys.
# Its CPU time on the 2-core Xeon of bench/README.md, and the share of
# each item's time spent on it.
REF_NOMINAL_S = 0.0008
REF_SHARE = 0.15
# Set-up is short, so its factor comes from a fixed number of chunks.
SETUP_REF_CHUNKS = 50
_ref_rng = random.Random("reference")
REF_A = [[{e: _ref_rng.choice((1, -1, 2)) for e in range(-2, 2)} for _ in range(4)] for _ in range(4)]
REF_B = [[{e: _ref_rng.choice((1, -1, 2)) for e in range(-1, 3)} for _ in range(4)] for _ in range(4)]


class Record(NamedTuple):
    """What a run keeps of an item once it is checked; inputs and outputs
    are dropped, so that the peak RSS does not grow with the run."""

    kind: str
    props: dict
    latency: float  # CPU seconds, not yet scaled by the host factor
    round: int
    problem: Optional[str]
    malformed_exit_error: bool


def reference(chunks: int) -> float:
    """CPU seconds of `chunks` runs of the reference computation. The
    collector is off, so that it cannot collect the program's garbage on
    the reference's clock."""
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(chunks):
            product = oracle.mmul(REF_A, REF_B)
            "|".join(",".join(f"{e}:{c}" for e, c in sorted(oracle.canonical(x).items()))
                     for row in product for x in row)
        return time.process_time() - t0
    finally:
        gc.enable()


def reference_chunks(seconds: float) -> int:
    return max(1, round(REF_SHARE * seconds / REF_NOMINAL_S))


def setup(workload: str, files_root: Path) -> float:
    """CPU seconds to import laurentforms and run one warm-up item, scaled
    by the host factor measured right after it."""
    t0 = time.process_time()
    import workloads

    rng = random.Random(f"warmup:{workload}")
    item = workloads.warmup_item(workload, rng, workloads.Files(files_root))
    result = item.run()
    elapsed = time.process_time() - t0
    factor = reference(SETUP_REF_CHUNKS) / SETUP_REF_CHUNKS / REF_NOMINAL_S
    problem = item.check(result, lambda fn: None)
    if problem:
        raise SystemExit(f"warm-up item failed: {problem}")
    return elapsed / factor


def run_loop(workload: str, seed: int, seconds: float, trace: bool, files_root: Path):
    import workloads
    from tracing import Tracer

    golden = workloads.load_golden(seed) if workload == "search" else None
    tracer = Tracer() if trace else None
    records = {"plain": [], "traced": []}
    factors: list[float] = []
    deferred: list = []
    wall = 0.0  # wall seconds of the timed regions; they set the run's length
    index = 0
    trace_rounds = max(1, int(seconds / workloads.NOMINAL_ROUND_S[workload]))
    peak_rss_mb = None
    while True:
        rng = random.Random(f"{workload}:{seed}:{index}")
        shutil.rmtree(files_root, ignore_errors=True)
        items = workloads.make_round(workload, rng, workloads.Files(files_root), index, golden)
        ref_s, ref_chunks = 0.0, 0
        for phase in ("plain", "traced") if trace else ("plain",):
            if phase == "traced":
                tracer.install()
            done = records[phase]
            try:
                for number, item in enumerate(items):
                    if tracer is not None:
                        tracer.item = f"{index}.{number}"
                    w0, t0 = time.perf_counter(), time.process_time()
                    result = item.run()
                    latency = time.process_time() - t0
                    wall += time.perf_counter() - w0
                    problem = item.check(result, deferred.append)
                    done.append(Record(item.kind, item.props, latency, index, problem,
                                       item.malformed and result.rc != 2))
                    if phase == "plain":
                        chunks = reference_chunks(latency)
                        ref_s += reference(chunks)
                        ref_chunks += chunks
            finally:
                if tracer is not None:
                    tracer.uninstall()
        factors.append(ref_s / ref_chunks / REF_NOMINAL_S)
        index += 1
        if index == PEAK_RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            if index == trace_rounds:
                break
        elif wall >= seconds and index * len(items) >= MIN_ITEMS:
            break
    return records, factors, deferred, tracer, index, peak_rss_mb


def summarize(records: list, factors: list) -> dict:
    """End-to-end metrics over the untraced items of a run (at least
    MIN_ITEMS, so at least 10 lie beyond the p90), each latency scaled by
    its round's host factor."""
    latencies = [r.latency / factors[r.round] for r in records]
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "latency_samples": len(latencies),
    }


def shares(records: list) -> dict:
    n = len(records)
    kinds = Counter(r.kind for r in records)
    outcomes = Counter(r.props["outcome"] for r in records if "outcome" in r.props)
    genus = Counter(r.props["genus"] for r in records if "genus" in r.props)
    size = Counter(r.props["size"] for r in records if "size" in r.props)
    events = Counter()
    for r in records:
        for e in r.props.get("events", ()):
            events[f"<{1 << e.bit_length()}"] += 1
    malformed_cases = Counter(r.props["case"] for r in records if "case" in r.props)
    return {
        "kind_share": {k: v / n for k, v in sorted(kinds.items())},
        "outcome_share": {k: v / n for k, v in sorted(outcomes.items())},
        "genus_histogram": dict(sorted(genus.items())),
        "matrix_size_histogram": dict(sorted(size.items())),
        "events_per_surface_histogram": dict(sorted(events.items(), key=lambda kv: int(kv[0][1:]))),
        "total_polynomial_terms": sum(r.props.get("terms", 0) for r in records),
        "malformed_cases": dict(sorted(malformed_cases.items())),
    }


def layer_metrics(tracer, traced: list, plain: list) -> dict:
    calls, total, own = tracer.calls, tracer.time, tracer.self_time
    traced_time = sum(r.latency for r in traced)
    plain_time = sum(r.latency for r in plain)
    values = {
        "cli.calls": (calls["cli.main"], "count"),
        "cli.self_s": (own["cli"], "s"),
        "forms.determinant_calls": (calls["forms.determinant"], "count"),
        "forms.determinant_s": (total["forms.determinant"], "s"),
        "forms.congruence_calls": (calls["forms.congruence"], "count"),
        "forms.congruence_s": (total["forms.congruence"], "s"),
        "forms.certify_reduction_calls": (calls["forms.certify_reduction"], "count"),
        "forms.certify_reduction_s": (total["forms.certify_reduction"], "s"),
        "forms.recognize_calls": (calls["forms.recognize"], "count"),
        "forms.parse_s": (total["forms.parse"], "s"),
        "wallcalc.mu_calls": (calls["wallcalc.mu"], "count"),
        "wallcalc.mu_s": (total["wallcalc.mu"], "s"),
        "wallcalc.pairing_shape_check_s": (total["wallcalc.pairing_shape_check"], "s"),
        "homology.rank_qt_calls": (calls["homology.rank_qt"], "count"),
        "homology.rank_qt_s": (total["homology.rank_qt"], "s"),
        "homology.torsion_order_s": (total["homology.torsion_order"], "s"),
        "homology.complex_build_s": (total["homology.complex_build"], "s"),
        "search.calls": (calls["search.bounded_isometry_search"], "count"),
        "search.probe_calls": (calls["search.conjecture_probe"], "count"),
        "search.self_s": (own["search"], "s"),
        "search.state_key_s": (total["search.state_key"], "s"),
        "trace.items": (len(traced), "count"),
        "trace.overhead": (traced_time / plain_time - 1.0, "ratio"),
    }
    for op in ("mul", "add", "token", "divide_exact"):
        values[f"laurent.{op}_calls"] = (calls[f"laurent.{op}"], "count")
        values[f"laurent.{op}_s"] = (total[f"laurent.{op}"], "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(values.items())}


def roadmap_checks(tracer) -> dict:
    """Measured figures behind two ROADMAP claims (both under tracing)."""
    search_s = tracer.time["search.bounded_isometry_search"]
    out = {"determinant_calls_per_command": tracer.determinants_per_command()}
    if search_s:
        out["key_building_share_of_search"] = tracer.time["search.state_key"] / search_s
        out["token_share_of_search"] = tracer.time["laurent.token"] / search_s
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    files_root = OUT / f"work-{os.getpid()}"
    try:
        setup_s = setup(args.workload, files_root)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        records, factors, deferred, tracer, rounds, peak_rss_mb = run_loop(
            args.workload, args.seed, args.seconds, bool(args.trace), files_root)
    finally:
        shutil.rmtree(files_root, ignore_errors=True)
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, traced = records["plain"], records["traced"]
    every = plain + traced
    problems = [f"{r.kind}: {r.problem}" for r in every if r.problem]
    problems += [p for p in (check() for check in deferred) if p]
    # An item fails on a wrong result; a failed deferred check fails its item.
    failed = len(problems)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "host_factor": statistics.median(factors),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(every),
        "failed": failed,
        "failed_ratio": failed / len(every),
        "malformed_exit_errors": sum(r.malformed_exit_error for r in every),
        "malformed_exit_errors_by_case": dict(Counter(
            r.props["case"] for r in every if r.malformed_exit_error)),
        "problems": problems[:20],
        **summarize(plain, factors),
        **shares(plain),
    }
    if tracer is not None:
        report["per_layer"] = layer_metrics(tracer, traced, plain)
        report["roadmap_checks"] = roadmap_checks(tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
