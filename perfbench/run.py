"""Benchmark of the discordnet package: goodput, failures, set-up and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scaling,heatmap,fidelity} \
        --seed N --seconds S --trace {0,1}

Each run starts fresh interpreters (``worker.py``) that import the package from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``ok_items_per_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones listed in
BENCHMARK.json.  The line before it carries the environment, the fail share,
the known-defect count and the sha256 of each output file, as information.

``correct`` is false when an item raised, exited non-zero or fell outside
tolerance of ``reference.json``, unless it is the known defect recorded there
(a fidelity target that already raised at the reference revision).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("scaling", "heatmap", "fidelity")
# Fresh interpreters timed from spawn to READY; the measuring process is one more.
SETUP_PROBES = 4
TIMEOUT_S = 170.0


def _spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker, time it to READY, and return (setup seconds, last line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"benchmark: worker for {args.workload} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"benchmark: worker for {args.workload} failed "
                         f"(exit code {proc.returncode})")
    lines = [line for line in out.splitlines() if line.strip()]
    return setup_s, lines[-1] if lines else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "discordnet" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIMEOUT_S
    shutil.rmtree(HERE / "out" / args.workload, ignore_errors=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(args, deadline, setup_only=True)[0])
    setup_s, line = _spawn(args, deadline, setup_only=False)
    setups.append(setup_s)
    res = json.loads(line)

    attempted = sum(res["pass_items"])
    failed = attempted - sum(res["pass_ok"])
    unexpected = [f for f in res["failures"] if not f["known_defect"]]
    problems = res.get("trace_problems", [])
    for f in unexpected:
        print(f"benchmark: {args.workload} item {f['item']} failed: {f['detail']}", file=sys.stderr)
    for p in problems:
        print(f"benchmark: {p}", file=sys.stderr)
    if problems:
        return 1

    if args.trace:
        metrics = res["layers"]
    else:
        rates = [ok / wall for ok, wall in zip(res["pass_ok"], res["pass_wall_s"])]
        metrics = {
            "ok_items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "workload": args.workload,
        "env": res["env"],
        "fail_share": failed / attempted,
        "known_defect_failures": sum(f["known_defect"] for f in res["failures"]),
        "passes": len(res["pass_wall_s"]),
        "pass_wall_s": res["pass_wall_s"],
        "setup_samples_s": setups,
        "digests": res["digests"],
        "spans": res.get("spans"),
        "peak_rss_mb": res["peak_rss_mb"],
    }))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
