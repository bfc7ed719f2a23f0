"""The benchmark's workloads: what one pass runs, and how its output is checked.

A pass is one unit of work that the measuring process repeats; an item is one
checked result inside it (a table row, a grid point, a fidelity target).
Passes call only public entry points of the program: ``cli.main`` and
``experiments.best_fidelity_state``.  Checks run after the timed pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Sizes (see BENCHMARK.json for why each workload exists).
SCALING_N = (2, 3, 4, 5)
HEATMAP_RESOLUTION = 11
HEATMAP_THREADS = 2
FIDELITY_P = (0.0, 0.25, 0.5, 0.75, 1.0)
FIDELITY_X = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
# The fidelity scan runs at the program's default seed.  At this revision the
# set of targets that raise depends on the search seed (seed 0: 18 of 30,
# seed 7: 30 of 30), so passing the benchmark seed through would make goodput
# swing with the seed; the benchmark seed orders the targets instead.
FIDELITY_PROGRAM_SEED = 0

# Tolerances, fixed from how the values are produced: CLI files carry 10
# significant digits; correlation values are optima of flat objectives and
# agree across seeds to far better than 1e-6; an argmax of a smooth maximum,
# and what is computed from it (epsilon, ratio), is only determined to about
# the square root of the search tolerance.
VALUE_ATOL = 1e-6
ARGMAX_ATOL = 1e-3
RECOMPUTE_ATOL = 1e-9

# README/acceptance values of the scaling table maxima, at six decimals.
README_G_MAX = {2: 0.219811, 3: 0.469449, 4: 0.704025, 5: 0.933755}


@dataclass
class Item:
    id: str
    ok: bool
    known_defect: bool = False
    detail: str = ""


@dataclass
class Workload:
    name: str
    run_pass: Callable[[Any, int, Path, Any], Any]
    check: Callable[[Any, Any, Path, dict], list[Item]]
    expected_layers: tuple[str, ...]


def _run_cli(dn, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return dn.cli.main(argv)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# -- scaling ------------------------------------------------------------------

SCALING_FIELDS = {"theta": ARGMAX_ATOL, "g_max": VALUE_ATOL, "g_w": VALUE_ATOL,
                  "epsilon": ARGMAX_ATOL, "g_eps": VALUE_ATOL, "ratio": ARGMAX_ATOL}


def scaling_pass(dn, seed: int, out_dir: Path, tracer) -> int:
    return _run_cli(dn, ["scaling", "--n-min", str(SCALING_N[0]), "--n-max", str(SCALING_N[-1]),
                         "--threads", "1", "--seed", str(seed), "--out", str(out_dir),
                         "--format", "csv"])


def scaling_check(dn, rc: int, out_dir: Path, ref: dict) -> list[Item]:
    path = out_dir / "scaling.csv"
    rows = {int(r["n"]): r for r in read_csv(path)} if rc == 0 and path.exists() else {}
    items = []
    for n in SCALING_N:
        row = rows.get(n)
        if row is None:
            items.append(Item(f"n={n}", False, detail=f"no row (exit code {rc})"))
            continue
        bad = [
            f"{k}={float(row[k])!r} vs {ref['scaling'][str(n)][k]!r}"
            for k, tol in SCALING_FIELDS.items()
            if not _close(float(row[k]), ref["scaling"][str(n)][k], tol)
        ]
        if not _close(float(row["g_max"]), README_G_MAX[n], VALUE_ATOL):
            bad.append(f"g_max={row['g_max']} vs README {README_G_MAX[n]}")
        items.append(Item(f"n={n}", not bad, detail="; ".join(bad)))
    return items


# -- heatmap ------------------------------------------------------------------

HEATMAP_FIELDS = ("d_m1_m2", "d_m2_m1", "gqd")


def heatmap_pass(dn, seed: int, out_dir: Path, tracer) -> int:
    return _run_cli(dn, ["heatmap", "--resolution", str(HEATMAP_RESOLUTION),
                         "--threads", str(HEATMAP_THREADS), "--seed", str(seed),
                         "--out", str(out_dir), "--format", "csv"])


def heatmap_check(dn, rc: int, out_dir: Path, ref: dict) -> list[Item]:
    path = out_dir / "heatmap.csv"
    rows = read_csv(path) if rc == 0 and path.exists() else []
    expected = ref["heatmap"]
    items = []
    for k, want in enumerate(expected):
        item_id = f"theta1={want['theta1']:.6f},theta2={want['theta2']:.6f}"
        if k >= len(rows):
            items.append(Item(item_id, False, detail=f"no row (exit code {rc})"))
            continue
        got = rows[k]
        bad = [
            f"{f}={got[f]} vs {want[f]!r}"
            for f in ("theta1", "theta2") + HEATMAP_FIELDS
            if not _close(float(got[f]), want[f], VALUE_ATOL)
        ]
        items.append(Item(item_id, not bad, detail="; ".join(bad)))
    return items


# -- fidelity -----------------------------------------------------------------


def fidelity_targets(seed: int) -> list[tuple[float, float]]:
    targets = [(p, x) for p in FIDELITY_P for x in FIDELITY_X]
    random.Random(seed).shuffle(targets)
    return targets


def target_key(p: float, x: float) -> str:
    return f"p={p:g},x={x:g}"


def fidelity_pass(dn, seed: int, out_dir: Path, tracer) -> list:
    results = []
    for p, x in fidelity_targets(seed):
        key = target_key(p, x)
        if tracer is not None:
            tracer.set_item(key)
        try:
            angles, fid, _ = dn.experiments.best_fidelity_state(
                p, dn.states.bell_mixture(x), seed=FIDELITY_PROGRAM_SEED
            )
            results.append((p, x, (angles, fid), None))
        except Exception as exc:  # recorded per item and classified by the check
            results.append((p, x, None, exc))
    return results


def is_known_defect(dn, exc: BaseException) -> bool:
    """Unbounded Nelder-Mead in ``search.optimize`` steps a carrier angle out of
    range and ``run_circuit`` rejects it."""
    return isinstance(exc, dn.states.StateError) and "outside [0, " in str(exc)


def fidelity_check(dn, results: list, out_dir: Path, ref: dict) -> list[Item]:
    expected = ref["fidelity"]
    items = []
    for p, x, res, exc in results:
        key = target_key(p, x)
        if exc is not None:
            # Only targets that raised at the reference revision count as the
            # known defect; a target that used to succeed and now raises fails.
            known = expected.get(key) is None and is_known_defect(dn, exc)
            items.append(Item(key, False, known, f"{type(exc).__name__}: {exc}"))
            continue
        angles, fid = res
        target = dn.states.bell_mixture(x)
        noise = dn.channels.correlated_dephasing(p, 1.0) if p > 0 else None
        cfg = dn.protocol.standard_config(
            thetas=[angles[0], angles[1]], phis=[angles[2], angles[3]], memory_noise=noise
        )
        again = dn.states.fidelity(dn.protocol.run_circuit(cfg).final_state, target)
        bad = []
        if not 0.0 <= fid <= 1.0:
            bad.append(f"fidelity {fid!r} outside [0, 1]")
        if not _close(fid, again, RECOMPUTE_ATOL):
            bad.append(f"fidelity {fid!r} but {again!r} recomputed at the returned angles")
        if expected.get(key) is not None and not _close(fid, expected[key], VALUE_ATOL):
            bad.append(f"fidelity {fid!r} vs reference {expected[key]!r}")
        items.append(Item(key, not bad, detail="; ".join(bad)))
    return items


WORKLOADS = {
    "scaling": Workload(
        "scaling", scaling_pass, scaling_check,
        ("cli.main", "experiments.scaling_table", "experiments.symmetric_theta_max",
         "protocol.run_circuit", "states.DensityMatrix", "states.tensor",
         "states.partial_trace", "linalg.hermiticity_defect", "channels.apply_gate",
         "channels.measure_project", "correlations.gqd_min", "emit.emit"),
    ),
    "heatmap": Workload(
        "heatmap", heatmap_pass, heatmap_check,
        ("cli.main", "experiments.heatmaps", "correlations.gqd_min",
         "correlations.discord_asym", "emit.emit"),
    ),
    "fidelity": Workload(
        "fidelity", fidelity_pass, fidelity_check,
        ("experiments.best_fidelity_state", "search.optimize", "protocol.run_circuit",
         "states.DensityMatrix", "states.tensor", "states.partial_trace", "states.fidelity",
         "linalg.hermiticity_defect", "linalg.mat_fn", "channels.apply_gate",
         "channels.apply_kraus", "channels.measure_project"),
    ),
}
