"""Per-call timings of the protocol circuit, the inner basis searches, the
fidelity search, the symmetric angle search and the heatmap study.

Usage, from the root of a checkout:

    python tools/bench_circuit.py --src DIR [--src DIR2 ...] [--label NAME ...]
        [--out BENCH_circuit.json]

Each ``--src`` is the root of a checkout whose ``src/discordnet`` is timed.
Each of the ``ROUNDS`` rounds starts one fresh interpreter per checkout, in
alternating order, so that a slow phase of the machine hits all checkouts
alike.  A round times:

- ``protocol.run_circuit`` at N = 2 with correlated dephasing (p = 0.5,
  mu = 1), at N = 3 and at N = 5 (ideal memories), many calls each;
- ``correlations.gqd_min`` at the fast budget on the 16 closed-form states of
  a 4 x 4 heatmap grid (theta1, theta2 in [0, pi], phi = 0), and
  ``correlations.discord_asym`` on the same states, D(M1|M2) and D(M2|M1);
- ``correlations.gqd_min`` at ``experiments.REDUCED_BUDGET`` (the budget of
  the outer angle searches) on protocol outputs at N = 3 and N = 5, and at
  the full budget on protocol outputs at N = 2 and N = 5;
- ``experiments.best_fidelity_state`` once on each of three fixed targets
  that finish at every revision;
- ``experiments.symmetric_theta_max`` once at N = 5, reporting at the fast
  budget (the outer angle search of the ``scaling`` CLI command);
- ``experiments.heatmaps(resolution=11)`` once, at its default budget and
  seed (the grid of the ``heatmap`` CLI command at resolution 11).

The output file records, per checkout, the p50 of the per-call times over all
rounds together with every sample, the objective evaluations per round of
each inner-search case, the checkout's commit (``+dirty`` when ``src/`` has
uncommitted changes) and a sha256 of its ``src/``; with two checkouts it also
records the first-to-second ratio of each p50.  An ``env`` entry records the
interpreter, libraries and machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Rounds per run, (name, calls per round) of the circuit workloads, the fidelity
# targets (p, x), the heatmap grid of the inner-search cases, the calls per
# round of the inner searches on protocol outputs, the size of the timed
# symmetric angle search and the resolution of the timed heatmap study;
# fixed so that every checkout is timed alike.
ROUNDS = 5
CIRCUITS = (("run_circuit_n2_dephasing", 200), ("run_circuit_n3", 40), ("run_circuit_n5", 6))
FIDELITY_TARGETS = ((0.25, 0.2), (0.5, 0.0), (1.0, 0.2))
HEATMAP_RESOLUTION = 4
INNER_PROTOCOL = (("gqd_min_n3_reduced", 10), ("gqd_min_n5_reduced", 5),
                  ("gqd_min_n2_full", 2), ("gqd_min_n5_full", 1))
THETA_MAX_N = 5
STUDY_RESOLUTION = 11


def _inner_cases(experiments, protocol, correlations) -> dict:
    """Name -> list of zero-argument calls returning a DiscordResult."""
    fast = correlations.FAST_BUDGET
    axis = [math.pi * k / (HEATMAP_RESOLUTION - 1) for k in range(HEATMAP_RESOLUTION)]
    heat = [protocol.final_state_closed_form(t1, t2, 0.0, 0.0) for t1 in axis for t2 in axis]
    cases = {
        "gqd_min_heatmap_fast": [lambda r=r: correlations.gqd_min(r, budget=fast) for r in heat],
        "discord_asym_heatmap_fast": [
            lambda r=r, a=a, b=b: correlations.discord_asym(r, a, b, budget=fast)
            for r in heat for a, b in (("M1", "M2"), ("M2", "M1"))
        ],
    }
    n2 = protocol.standard_config([0.9, 1.1], [0.3, 0.2])
    n3 = protocol.standard_config([0.9, 1.1, 0.7], [0.3, 0.2, 1.4])
    n5 = protocol.standard_config([0.9] * 5)
    reduced, full = experiments.REDUCED_BUDGET, correlations.FULL_BUDGET
    protocol_cases = {
        "gqd_min_n3_reduced": (n3, reduced),
        "gqd_min_n5_reduced": (n5, reduced),
        "gqd_min_n2_full": (n2, full),
        "gqd_min_n5_full": (n5, full),
    }
    for name, calls in INNER_PROTOCOL:
        config, budget = protocol_cases[name]
        rho = protocol.run_circuit(config).final_state
        cases[name] = [
            lambda rho=rho, budget=budget: correlations.gqd_min(rho, budget=budget)
        ] * calls
    return cases


def child(src: Path) -> dict[str, dict[str, list[float]] | dict[str, int]]:
    """Time every workload in this interpreter; seconds per call, and the
    objective evaluations of each inner-search case."""
    sys.path.insert(0, str(src / "src"))
    from discordnet import channels, correlations, experiments, protocol, states

    configs = {
        "run_circuit_n2_dephasing": protocol.standard_config(
            [0.9, 1.1], [0.3, 0.2], memory_noise=channels.correlated_dephasing(0.5, 1.0)
        ),
        "run_circuit_n3": protocol.standard_config([0.9, 1.1, 0.7], [0.3, 0.2, 1.4]),
        "run_circuit_n5": protocol.standard_config([0.9] * 5),
    }
    samples: dict[str, list[float]] = {}
    for name, calls in CIRCUITS:
        protocol.run_circuit(configs[name])  # warm-up
        times = []
        for _ in range(calls):
            t0 = perf_counter()
            protocol.run_circuit(configs[name])
            times.append(perf_counter() - t0)
        samples[name] = times
    evaluations: dict[str, int] = {}
    for name, calls in _inner_cases(experiments, protocol, correlations).items():
        calls[0]()  # warm-up
        times, evaluations[name] = [], 0
        for call in calls:
            t0 = perf_counter()
            result = call()
            times.append(perf_counter() - t0)
            evaluations[name] += result.evaluations
        samples[name] = times
    times = []
    for p, x in FIDELITY_TARGETS:
        t0 = perf_counter()
        experiments.best_fidelity_state(p, states.bell_mixture(x))
        times.append(perf_counter() - t0)
    samples["best_fidelity_state"] = times
    t0 = perf_counter()
    experiments.symmetric_theta_max(THETA_MAX_N, final=correlations.FAST_BUDGET)
    samples[f"symmetric_theta_max_n{THETA_MAX_N}"] = [perf_counter() - t0]
    t0 = perf_counter()
    experiments.heatmaps(resolution=STUDY_RESOLUTION)
    samples[f"heatmaps_r{STUDY_RESOLUTION}"] = [perf_counter() - t0]
    return {"times": samples, "evaluations": evaluations}


def _commit(root: Path) -> str:
    """HEAD of the checkout, marked '+dirty' when src/ differs from it."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "discordnet").rglob("*.py")):
        h.update(path.relative_to(root / "src").as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, type=Path)
    ap.add_argument("--label", action="append", default=None)
    ap.add_argument("--out", type=Path, default=Path("BENCH_circuit.json"))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.src[0].resolve())))
        return 0
    labels = args.label or [src.name for src in args.src]
    if len(labels) != len(args.src) or len(set(labels)) != len(labels):
        ap.error("give one distinct --label per --src")
    for src in args.src:
        if not (src / "src" / "discordnet" / "__init__.py").is_file():
            ap.error(f"no src/discordnet under {src}")

    env = environment()
    samples: dict[str, dict[str, list[float]]] = {label: {} for label in labels}
    evaluations: dict[str, dict[str, list[int]]] = {label: {} for label in labels}
    for r in range(ROUNDS):
        order = list(zip(labels, args.src))
        if r % 2:
            order.reverse()
        for label, src in order:
            out = subprocess.run([sys.executable, __file__, "--child", "--src", str(src)],
                                 capture_output=True, text=True, check=True)
            measured = json.loads(out.stdout.splitlines()[-1])
            for name, times in measured["times"].items():
                samples[label].setdefault(name, []).extend(times)
            for name, count in measured["evaluations"].items():
                evaluations[label].setdefault(name, []).append(count)

    results = {}
    for label, src in zip(labels, args.src):
        entry = {"commit": _commit(src), "source_sha256": _source_digest(src),
                 "evaluations_per_round": evaluations[label]}
        for name, times in samples[label].items():
            entry[name] = {"p50_us": statistics.median(times) * 1e6, "calls": len(times),
                           "samples_us": [round(t * 1e6, 1) for t in times]}
        results[label] = entry
    report = {"env": env, "rounds": ROUNDS, "results": results}
    if len(labels) == 2:
        a, b = (results[label] for label in labels)
        report[f"p50_ratio_{labels[0]}_over_{labels[1]}"] = {
            name: a[name]["p50_us"] / b[name]["p50_us"] for name in samples[labels[0]]
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name in samples[labels[0]]:
        print(name, "  ".join(f"{label} {results[label][name]['p50_us']:.1f} us" for label in labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
