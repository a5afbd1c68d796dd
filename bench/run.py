"""The laurentforms benchmark.

    python3 bench/run.py --workload {certify,search,linalg} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Each workload runs in a fresh interpreter (bench/worker.py) with
PYTHONHASHSEED fixed. Set-up (import plus one warm-up item) is measured in
that interpreter and in SETUP_PROBES further fresh ones, and the median is
reported. The next-to-last line of stdout is the full report (environment,
shares, failed_ratio, malformed_exit_errors, sample counts); the last line
is the result: end-to-end metrics with --trace 0, per-layer ones with
--trace 1. See bench/README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
HASH_SEED = "0"
SETUP_PROBES = 10
WORKLOADS = ("certify", "search", "linalg")


def deadline_s(seconds: float) -> float:
    """Wall-clock limit of a run: the timed work, the same again for input
    generation and checks, the traced half of a traced run, and the set-up
    probes. 150 s for a 25-second run."""
    return 50.0 + 4.0 * seconds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark: out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: worker {args} still running at the deadline; stopped")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + deadline_s(args.seconds)

    if not (ROOT / "src" / "laurentforms" / "__init__.py").is_file():
        print(f"benchmark: no laurentforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    report = worker(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups = [report["setup_s"]]
    for _ in range(SETUP_PROBES):
        setups.append(worker(["--workload", args.workload, "--setup-only"], deadline)["setup_s"])
    report["setup_s"] = statistics.median(setups)
    report["setup_samples_s"] = setups
    report["environment"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "hash_seed": HASH_SEED,
        "git_commit": git_commit(),
        "workload_seed": args.seed,
    }

    if args.trace:
        metrics = report.pop("per_layer")
    else:
        metrics = {
            "items_per_s": {"value": report["items_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": report["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": report["latency_p90_ms"], "unit": "ms"},
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
