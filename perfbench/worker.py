"""One measuring process: set up, run timed passes of one workload, check them.

Started by ``run.py`` in a fresh interpreter.  It prints ``READY`` once the
imports and the per-layer warm-up calls are done, then, unless
``--setup-only`` is given, runs the workload and prints one JSON line with the
raw results for ``run.py`` to turn into metrics.

With ``--trace 0`` it repeats passes until ``--seconds`` have elapsed (at
least one).  With ``--trace 1`` it runs one untraced pass, then one pass with
every public function of the package wrapped, and derives per-layer metrics
from the spans; the spans are written to ``perfbench/out/<workload>/spans.npz``.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("states", "linalg", "channels", "protocol", "correlations", "search",
           "experiments", "emit", "cli")


def import_program() -> SimpleNamespace:
    if not (SRC / "discordnet" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'discordnet'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("discordnet")
    if Path(pkg.__file__).resolve().parent != SRC / "discordnet":
        raise SystemExit(f"benchmark: imported discordnet from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"discordnet.{m}") for m in MODULES})


def warm_up(dn, out_dir: Path) -> None:
    """One call per layer on a toy input, so lazy set-up is not timed as work."""
    rho = dn.states.bell_mixture(0.5)
    dn.states.fidelity(rho, rho)
    pair = dn.states.tensor([rho, dn.states.bell_mixture(0.5, labels=("C1", "C2"))])
    dn.states.partial_trace(pair, ["M1", "M2"])
    dn.linalg.mat_fn(rho.matrix, abs)
    noise = dn.channels.correlated_dephasing(0.5, 1.0)
    out = dn.protocol.run_circuit(dn.protocol.standard_config([0.9, 0.9], memory_noise=noise))
    dn.correlations.gqd_min(out.final_state, budget="fast")
    dn.correlations.discord_asym(rho, "M1", "M2", budget="fast")
    dn.search.optimize(dn.search.SearchSpec(
        objective=lambda x: float(x @ x), dimension=1, bounds=((-1.0, 1.0),),
        grid_resolution=3, multistarts=1, random_starts=0))
    dn.experiments.protocol_gqd([0.9, 0.9])
    dn.emit.emit({"warmup": [{"x": 1.0}]}, fmt="csv", out_dir=out_dir, command="warmup",
                 config={}, seed=0)
    with contextlib.redirect_stdout(io.StringIO()):
        dn.cli.main(["gqd", "--state", "bell_mixture", "--param", "x=0.5",
                     "--inner-budget", "fast", "--out", str(out_dir)])


# -- environment ----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "discordnet").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- per-layer metrics ------------------------------------------------------------


def _gqd_tags(args, result):
    n = getattr(args[0], "n_qubits", None) if args else None
    if result is None:
        return {"n": n}
    return {"n": n, "evaluations": result.evaluations, "converged": result.converged}


def _result_tags(args, result):
    if result is None:
        return None
    return {"evaluations": result.evaluations, "converged": getattr(result, "converged", True)}


TAGGERS = {
    "correlations.gqd_min": _gqd_tags,
    "correlations.discord_asym": _result_tags,
    "search.optimize": _result_tags,
}


def layer_metrics(spans, extra: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from the traced pass."""
    import numpy as np

    outer = spans.outermost()
    calls = spans.per_name(np.ones(len(spans)))
    busy = spans.per_name(spans.duration, outer)
    own = spans.per_name(spans.self_times())
    m: dict[str, tuple[float, str]] = {}

    def add(name, *kinds):
        for kind in kinds:
            table, unit = {"calls": (calls, "count"), "busy_s": (busy, "s"),
                           "self_s": (own, "s")}[kind]
            m[f"{name}.{kind}"] = (table.get(name, 0.0), unit)

    def outer_spans(name, n=None):
        rows = np.flatnonzero(outer & (spans.name == spans.code(name)))
        tags = [spans.tags.get(int(spans.id[i])) or {} for i in rows]
        if n is not None:
            keep = [k for k, t in enumerate(tags) if t.get("n") == n]
            rows, tags = rows[keep], [tags[k] for k in keep]
        evals = sum(t.get("evaluations", 0) for t in tags)
        nonconv = sum(1 for t in tags if t.get("converged") is False)
        return float(spans.duration[rows].sum()), evals, nonconv

    def quantile(name, q):
        d = spans.duration[spans.name == spans.code(name)]
        return float(np.quantile(d, q)) if len(d) else 0.0

    def search_layer(name):
        add(name, "calls", "busy_s")
        busy_s, evals, nonconv = outer_spans(name)
        m[f"{name}.evaluations"] = (evals, "count")
        m[f"{name}.us_per_eval"] = (busy_s / evals * 1e6 if evals else 0.0, "us")
        m[f"{name}.nonconverged"] = (nonconv, "count")

    name = "protocol.run_circuit"
    add(name, "calls", "busy_s", "self_s")
    m[f"{name}.p50_us"] = (quantile(name, 0.5) * 1e6, "us")
    m["states.DensityMatrix.count"] = (calls.get("states.DensityMatrix", 0.0), "count")
    add("states.DensityMatrix", "busy_s")
    for fn in ("tensor", "partial_trace", "fidelity"):
        add(f"states.{fn}", "busy_s")
    for name in ("linalg.hermiticity_defect", "linalg.mat_fn", "channels.apply_gate",
                 "channels.apply_kraus", "channels.measure_project"):
        add(name, "calls", "busy_s")

    name = "correlations.gqd_min"
    search_layer(name)
    add(name, "self_s")
    m[f"{name}.p50_ms"] = (quantile(name, 0.5) * 1e3, "ms")
    m[f"{name}.p90_ms"] = (quantile(name, 0.9) * 1e3, "ms")
    for n in (2, 3, 4, 5):
        busy_s, evals, _ = outer_spans(name, n)
        m[f"{name}.n{n}.busy_s"] = (busy_s, "s")
        m[f"{name}.n{n}.evaluations"] = (evals, "count")
    search_layer("correlations.discord_asym")

    name = "search.optimize"
    add(name, "calls", "busy_s", "self_s")
    m[f"{name}.evaluations"] = (outer_spans(name)[1], "count")

    m["experiments.self_s"] = (sum(v for k, v in own.items() if k.startswith("experiments.")), "s")
    add("emit.emit", "busy_s")
    add("cli.main", "self_s")
    m.update(extra)
    return m


# -- passes -------------------------------------------------------------------------


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _emitted(out_dir: Path) -> tuple[dict[str, str], int]:
    """sha256 of each output file named in the run manifests, and their bytes."""
    digests, size = {}, 0
    for manifest in sorted(out_dir.glob("*_manifest.json")):
        files = json.loads(manifest.read_text(encoding="utf-8"))["files"]
        for fname, digest in sorted(files.items()):
            digests[fname] = digest
            size += (out_dir / fname).stat().st_size
    return digests, size


def main() -> int:
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    dn = import_program()
    import_s = perf_counter() - _T0
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    warm_up(dn, out_dir / "warmup")
    print("READY", flush=True)
    if args.setup_only:
        return 0
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    def one_pass(k: int, tracer=None):
        pass_dir = out_dir / f"pass{k}"
        if tracer is not None:
            tracer.set_item(pass_dir.name)
        t0, c0 = perf_counter(), _cpu_s()
        raw = wl.run_pass(dn, args.seed, pass_dir, tracer)
        return raw, pass_dir, perf_counter() - t0, _cpu_s() - c0

    passes = []
    if args.trace:
        passes.append(one_pass(0))
        tracer = Tracer("discordnet", classes=("states.DensityMatrix",), taggers=TAGGERS)
        tracer.install()
        try:
            passes.append(one_pass(1, tracer))
        finally:
            tracer.uninstall()
    else:
        start = perf_counter()
        while not passes or perf_counter() - start < args.seconds:
            passes.append(one_pass(len(passes)))
    peak_rss_mb = _peak_rss_mb()

    checked = [wl.check(dn, raw, pass_dir, reference) for raw, pass_dir, _, _ in passes]
    result = {
        "env": environment(args.seed, load_at_start),
        "import_s": import_s,
        "pass_wall_s": [p[2] for p in passes],
        "pass_ok": [sum(i.ok for i in items) for items in checked],
        "pass_items": [len(items) for items in checked],
        "peak_rss_mb": peak_rss_mb,
        "digests": _emitted(passes[-1][1])[0],
        "failures": [
            {"item": i.id, "known_defect": i.known_defect, "detail": i.detail}
            for items in checked for i in items if not i.ok
        ],
    }

    if args.trace:
        (_, _, wall, cpu), (_, traced_dir, traced_wall, _) = passes
        spans = tracer.spans()
        spans.write(out_dir / "spans.npz")
        problems = [f"span nesting: {p}" for p in spans.nesting_errors()]
        problems += [f"layer {name} expected on {wl.name} but recorded zero calls"
                     for name in wl.expected_layers if spans.count(name) == 0]
        extra = {
            "fanout.cpu_per_wall": (cpu / wall, "ratio"),
            "emit.emit.bytes": (_emitted(traced_dir)[1], "bytes"),
            "setup.import_s": (import_s, "s"),
            "trace.overhead_share": (traced_wall / wall - 1.0, "share"),
        }
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layer_metrics(spans, extra).items()}
        result["spans"] = len(spans)
        result["trace_problems"] = problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
