"""Parent-vs-change runs of the perfbench workloads, with summary statistics.

Usage, from the root of a checkout:

    python tools/bench_perfbench.py --src DIR_A --src DIR_B [--label A --label B]
        [--out BENCH_perfbench.json]

Each ``--src`` is the root of a checkout with its own ``perfbench/`` and
``src/``.  For each of the ``WORKLOADS`` and each of the ``PAIRS`` pairs i,
both checkouts run ``perfbench/run.py --workload W --seed SEED+i`` as it
stands in that checkout, the first checkout first on even pairs and second on
odd ones, so that a slow phase of the machine hits both alike.  Nothing under ``perfbench/`` is
changed; each run writes only that checkout's ``perfbench/out/``.

The output file records the environment, every run (seed, position in its
pair, metrics, ``correct``, attempted and failed items, fail share, timed
passes and output digests), and per workload and label the median and
quartiles of each end-to-end metric.  With the metric directions of the first
checkout's ``BENCHMARK.json`` it records, per metric, how many pairs the
second checkout won (ties count for neither side), and whether both
checkouts wrote the same output digests at every seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_circuit import _commit, _source_digest, environment

# The perfbench workloads, the alternating pairs per workload and the first
# seed; fixed so that every BENCH file compares the same runs.
WORKLOADS = ("scaling", "heatmap", "fidelity")
PAIRS = 10
SEED = 51


def run_once(src: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run of a checkout; its result and info lines."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=src, capture_output=True, text=True,
    )
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    if out.returncode != 0 or len(lines) < 2:
        return {"exit_code": out.returncode, "correct": False, "stderr": out.stderr[-2000:]}
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "exit_code": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_share": info["fail_share"],
        "passes": info["passes"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digests": info["digests"],
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], labels: list[str], better: dict[str, str]) -> dict:
    """Medians, quartiles and pair wins of one workload's runs."""
    by_label = {label: [r for r in runs if r["label"] == label] for label in labels}
    summary: dict = {"runs_at_fault": {label: sum(not r["correct"] for r in rs)
                                       for label, rs in by_label.items()}}
    ok = {label: [r for r in rs if r["exit_code"] == 0] for label, rs in by_label.items()}
    metrics = sorted({name for r in runs if r["exit_code"] == 0 for name in r["metrics"]})
    for name in metrics:
        entry = {label: quartiles([r["metrics"][name] for r in rs]) for label, rs in ok.items()
                 if len(rs) >= 2}
        if len(labels) == 2 and name in better:
            a, b = labels
            sign = 1 if better[name] == "higher" else -1
            pairs = {r["pair"]: r for r in ok[a]}
            wins = [sign * (r["metrics"][name] - pairs[r["pair"]]["metrics"][name])
                    for r in ok[b] if r["pair"] in pairs]
            entry[f"pairs_{b}_better"] = sum(w > 0 for w in wins)
            entry[f"pairs_{a}_better"] = sum(w < 0 for w in wins)
            entry["pairs"] = len(wins)
        summary[name] = entry
    digests = {}
    for r in runs:
        if r["exit_code"] == 0:
            digests.setdefault(r["seed"], {})[r["label"]] = r["digests"]
    summary["digests_agree"] = all(
        len({json.dumps(d, sort_keys=True) for d in per_label.values()}) == 1
        for per_label in digests.values()
    )
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, type=Path)
    ap.add_argument("--label", action="append", default=None)
    ap.add_argument("--out", type=Path, default=Path("BENCH_perfbench.json"))
    args = ap.parse_args()
    srcs = [src.resolve() for src in args.src]
    labels = args.label or [src.name for src in srcs]
    if len(labels) != len(srcs) or len(set(labels)) != len(labels):
        ap.error("give one distinct --label per --src")
    for src in srcs:
        if not (src / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {src}")
    spec = json.loads((srcs[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report: dict = {
        "env": environment(),
        "checkouts": {label: {"commit": _commit(src), "source_sha256": _source_digest(src)}
                      for label, src in zip(labels, srcs)},
        "pairs": PAIRS,
        "seeds": [SEED + i for i in range(PAIRS)],
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = []
        for i in range(PAIRS):
            order = list(zip(labels, srcs))
            if i % 2:
                order.reverse()
            for position, (label, src) in enumerate(order):
                run = run_once(src, workload, SEED + i)
                runs.append({"label": label, "pair": i, "seed": SEED + i,
                             "position": position, **run})
                shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()}
                print(workload, i, label, run["correct"], shown, flush=True)
        report["workloads"][workload] = {"summary": summarize(runs, labels, better), "runs": runs}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, stats in entry["summary"].items():
            if isinstance(stats, dict) and isinstance(stats.get(labels[0]), dict):
                print(workload, name, "  ".join(
                    f"{label} {stats[label]['median']:.4g} ({stats[label]['q1']:.4g}-"
                    f"{stats[label]['q3']:.4g})" for label in labels if label in stats),
                    {k: v for k, v in stats.items() if k.startswith("pairs")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
