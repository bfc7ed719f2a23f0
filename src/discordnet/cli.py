"""Command-line front end.

All angles are accepted and reported in radians.  Subcommands cover single
protocol runs, correlation measures of named states, and the scripted
experiments; results go to stdout and, for experiments, to CSV/JSON files
with a reproducibility manifest.

Exit codes: 0 success, 1 configuration error (bad flags, bad config file,
invalid parameters), 2 an exception during computation (numerical or I/O).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__, emit, experiments, protocol, states
from .correlations import FAST_BUDGET, FULL_BUDGET, discord_asym, gqd_min


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        value = value.strip()
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        values[key.strip().replace("-", "_")] = value
    return values


def _number_list(text: str, cast=float) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {cast.__name__}s, got {text!r}") from exc


def _budget(name: str):
    return FULL_BUDGET if name == "full" else FAST_BUDGET


def _named_state(family: str, n: int | None, params: Sequence[str]) -> states.DensityMatrix:
    kwargs: dict[str, float] = {}
    for item in params:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            kwargs[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--param {key.strip()} expects a number, got {value!r}") from None
    if n is not None:
        kwargs["n"] = n
    try:
        return states.make_named_state(family, kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad state spec {family!r}: {exc}") from exc


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are valid before and after the subcommand; the trailing
    # copies default to SUPPRESS so they only override when explicitly given.
    d = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="flat key=value config file; flags override", **d)
    parser.add_argument("--seed", type=int, **(d or {"default": 0}))
    parser.add_argument("--out", help="output directory for experiment data", **(d or {"default": "out"}))
    parser.add_argument("--format", choices=("csv", "json"), **(d or {"default": "csv"}))
    # Accepted for compatibility; every command runs in one thread.
    parser.add_argument("--threads", type=int, **(d or {"default": None}))
    parser.add_argument("--inner-budget", choices=("fast", "full"), **(d or {"default": "full"}))


def build_parser() -> _Parser:
    parser = _Parser(prog="discordnet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_proto = sub.add_parser("protocol", help="run the distribution protocol once", parents=[common])
    proto_sub = p_proto.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p_run = proto_sub.add_parser("run", parents=[common])
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--theta", required=True, help="comma-separated carrier angles (radians)")
    p_run.add_argument("--phi", default=None, help="comma-separated azimuthal angles (radians)")
    p_run.add_argument("--interactions", default=None, help="comma-separated carrier indices")
    p_run.add_argument("--outcome", default="zeros")
    p_run.add_argument("--report", choices=("discord", "gqd", "both"), default="both")

    p_disc = sub.add_parser("discord", help="asymmetric discord of a named two-qubit state", parents=[common])
    p_disc.add_argument("--state", required=True)
    p_disc.add_argument("--n", type=int, default=None)
    p_disc.add_argument("--param", action="append", default=[])
    p_disc.add_argument("--unmeasured", default=None)
    p_disc.add_argument("--measured", default=None)

    p_gqd = sub.add_parser("gqd", help="global quantum discord of a named state", parents=[common])
    p_gqd.add_argument("--state", required=True)
    p_gqd.add_argument("--n", type=int, default=None)
    p_gqd.add_argument("--param", action="append", default=[])

    p_t1 = sub.add_parser("scaling", help="per-size protocol maxima and W-state benchmarks", parents=[common])
    p_t1.add_argument("--n-max", type=int, default=5)
    p_t1.add_argument("--n-min", type=int, default=2)
    p_t1.add_argument("--mixedness", choices=("purity", "entropy"), default="purity")

    p_t2 = sub.add_parser("census", help="pairwise discord structure census", parents=[common])
    p_t2.add_argument("--n", type=int, default=3)

    p_heat = sub.add_parser("heatmap", help="bipartite correlation heatmaps over carrier angles", parents=[common])
    p_heat.add_argument("--resolution", type=int, default=61)

    p_rob = sub.add_parser("robustness", help="robustness studies", parents=[common])
    rob_sub = p_rob.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    p_carrier = rob_sub.add_parser("carrier", help="carrier mixing and bias sweeps", parents=[common])
    p_carrier.add_argument("--step", type=float, default=0.01)
    p_memory = rob_sub.add_parser("memory", help="GQD over initial memory states", parents=[common])
    p_memory.add_argument("--resolution", type=int, default=41)
    rob_sub.add_parser("measurement", help="carrier- and memory-angle windows", parents=[common])

    sub.add_parser("channels", help="effective-channel classification study", parents=[common])

    p_a2 = sub.add_parser("noise", help="correlated-dephasing noise study", parents=[common])
    p_a2.add_argument("--p-step", type=float, default=0.01)
    p_a2.add_argument("--no-tau", action="store_true", help="skip the Bell-mixture target search")

    p_fit = sub.add_parser("fits", help="scaling-law fits of the per-size maxima", parents=[common])
    p_fit.add_argument("--n-max", type=int, default=5)
    return parser


def _iter_parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for sub in action.choices.values():
                if id(sub) not in seen:
                    seen.add(id(sub))
                    yield from _iter_parsers(sub)


def _config_path(argv: Sequence[str]) -> str | None:
    """The --config value wherever it appears in argv, read the way the main
    parser reads it: ``--config PATH``, ``--config=PATH`` or an abbreviation."""
    pre = _Parser(prog="discordnet", add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def _apply_config_defaults(parser: argparse.ArgumentParser, values: Mapping[str, Any]) -> None:
    """Install config-file values as defaults on every (sub)parser.

    A key found in the file also clears the matching option's ``required``
    flag, so e.g. ``state=...`` satisfies a mandatory ``--state``.
    """
    known: set[str] = set()
    for p in _iter_parsers(parser):
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction) or action.dest in (
                "help",
                "version",
            ):
                continue
            known.add(action.dest)
            if action.dest in values:
                action.default = values[action.dest]
                action.required = False
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _emit(args, name: str, named_records: Mapping[str, Sequence[Mapping[str, Any]]]) -> None:
    manifest = emit.emit(
        named_records,
        fmt=args.format,
        out_dir=Path(args.out),
        command=name,
        config={k: v for k, v in vars(args).items() if k not in ("command", "action") and v is not None},
        seed=args.seed,
    )
    for fname in manifest.files:
        print(f"wrote {Path(args.out) / fname}")


def _grid_records(grids: Mapping[str, np.ndarray], x_name: str, y_name: str, x_axis, y_axis, value_keys) -> list[dict]:
    records = []
    for i, x in enumerate(x_axis):
        for j, y in enumerate(y_axis):
            rec = {x_name: float(x), y_name: float(y)}
            for key in value_keys:
                rec[key] = float(grids[key][i, j])
            records.append(rec)
    return records


def _cmd_protocol_run(args) -> None:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    thetas = _number_list(args.theta)
    if len(thetas) != args.n:
        raise ConfigError(f"--theta needs {args.n} values")
    if not all(0 <= t <= math.pi for t in thetas):
        raise ConfigError(f"--theta values must be in [0, pi], got {args.theta!r}")
    phis = _number_list(args.phi) if args.phi else None
    if phis is not None and (len(phis) != args.n or not all(map(math.isfinite, phis))):
        raise ConfigError(f"--phi needs {args.n} finite values, got {args.phi!r}")
    interactions = _number_list(args.interactions, int) if args.interactions else None
    if interactions is not None and (
        len(set(interactions)) != len(interactions)
        or not all(1 <= i <= args.n for i in interactions)
    ):
        raise ConfigError(f"--interactions must be distinct indices in 1..{args.n}, "
                          f"got {args.interactions!r}")
    measured = args.n if interactions is None else len(interactions)
    if args.outcome in ("zeros", "all"):
        outcome = args.outcome
    elif len(args.outcome) == measured and set(args.outcome) <= {"0", "1"}:
        outcome = tuple(int(b) for b in args.outcome)
    else:
        raise ConfigError(f"--outcome must be zeros, all or {measured} bits, got {args.outcome!r}")
    cfg = protocol.standard_config(
        thetas=thetas, phis=phis, outcome=outcome, interactions=interactions
    )
    result = protocol.run_circuit(cfg)
    outs = result if isinstance(result, list) else [result]
    budget = _budget(args.inner_budget)
    for out in outs:
        bits = "".join(str(b) for b in out.outcome_bits)
        print(f"outcome {bits}: probability {out.probability:.10g}, "
              f"retained {','.join(out.retained_labels)}")
        if args.report in ("gqd", "both"):
            g = gqd_min(out.final_state, budget=budget, seed=args.seed)
            print(f"  GQD = {g.value:.10g}")
        if args.report in ("discord", "both"):
            labels = out.retained_labels
            for a in range(len(labels)):
                for b in range(len(labels)):
                    if a == b:
                        continue
                    la, lb = labels[a], labels[b]
                    pair = states.partial_trace(out.final_state, [la, lb])
                    d = discord_asym(pair, la, lb, budget=budget, seed=args.seed)
                    print(f"  D({la}|{lb}) = {d.value:.10g}")


def _cmd_discord(args) -> None:
    rho = _named_state(args.state, args.n, args.param)
    if rho.n_qubits != 2:
        raise ConfigError(f"discord needs a two-qubit state, got labels {','.join(rho.labels)}")
    unmeasured = args.unmeasured or rho.labels[0]
    measured = args.measured or rho.labels[1]
    if {unmeasured, measured} != set(rho.labels):
        raise ConfigError(f"--unmeasured and --measured must be the labels {','.join(rho.labels)}, "
                          f"one each; got {unmeasured} and {measured}")
    d = discord_asym(rho, unmeasured, measured, budget=_budget(args.inner_budget), seed=args.seed)
    print(f"D({unmeasured}|{measured}) = {d.value:.10g}")


def _cmd_gqd(args) -> None:
    rho = _named_state(args.state, args.n, args.param)
    g = gqd_min(rho, budget=_budget(args.inner_budget), seed=args.seed)
    print(f"GQD = {g.value:.10g}")


def _cmd_scaling(args) -> list[experiments.ScalingRow]:
    rows = experiments.scaling_table(
        n_max=args.n_max,
        n_min=args.n_min,
        final=_budget(args.inner_budget),
        seed=args.seed,
        mixedness=args.mixedness,
    )
    records = [asdict(r) for r in rows]
    for rec in records:
        print(rec)
    _emit(args, "scaling", {"scaling": records})
    return rows


def _cmd_census(args) -> None:
    rows = experiments.pairwise_census(args.n, final=_budget(args.inner_budget), seed=args.seed)
    records = []
    for row in rows:
        for pair in row.pairs:
            records.append(
                {
                    "n": row.n,
                    "interactions": len(row.interactions),
                    "pair": "|".join(pair.labels),
                    "d_ab": pair.d_ab,
                    "d_ba": pair.d_ba,
                    "quantum_ab": pair.quantum_ab,
                    "quantum_ba": pair.quantum_ba,
                    "theta_max": row.theta,
                    "gqd_max": row.gqd_max,
                }
            )
    for rec in records:
        print(rec)
    _emit(args, "census", {"census": records})


def _cmd_heatmap(args) -> None:
    grids = experiments.heatmaps(resolution=args.resolution, seed=args.seed)
    records = _grid_records(
        grids, "theta1", "theta2", grids["theta"], grids["theta"], ("d_m1_m2", "d_m2_m1", "gqd")
    )
    _emit(args, "heatmap", {"heatmap": records})


def _cmd_robustness(args) -> None:
    if args.kind == "carrier":
        values = np.round(np.arange(0.0, 1.0 + 1e-9, args.step), 10)
        lam = experiments.carrier_mixing_sweep(values, seed=args.seed)
        eta = experiments.carrier_bias_sweep(values, seed=args.seed)
        anti = experiments.anticorrelated_max(seed=args.seed)
        print(f"anticorrelated-carrier GQD at the standard basis = {anti:.10g}")
        _emit(
            args,
            "robustness_carrier",
            {"lambda_sweep": lam, "eta_sweep": eta},
        )
    elif args.kind == "memory":
        panels = experiments.memory_robustness(resolution=args.resolution, seed=args.seed)
        named = {}
        for name, grid in panels.items():
            keys = [k for k in grid if k not in ("theta_m", "phi_m", "a1", "a2")]
            if name in ("a", "b"):
                named[f"memory_panel_{name}"] = _grid_records(
                    grid, "theta_m", "phi_m", grid["theta_m"], grid["phi_m"], keys
                )
            else:
                named["memory_panel_c"] = _grid_records(
                    grid, "a1", "a2", grid["a1"], grid["a2"], keys
                )
        _emit(args, "robustness_memory", named)
    else:
        avg, peak = experiments.measurement_window_average(seed=args.seed)
        mem_avg = experiments.memory_window_average(seed=args.seed)
        print(f"carrier-angle window average = {avg:.10g} (peak {peak:.10g}, "
              f"reduction {100 * (peak - avg) / peak:.3g}%)")
        print(f"memory-angle window average = {mem_avg:.10g}")
        _emit(
            args,
            "robustness_measurement",
            {
                "measurement_window": [
                    {"window_average": avg, "peak": peak, "memory_window_average": mem_avg}
                ]
            },
        )


def _cmd_channels(args) -> None:
    records = experiments.channel_classification_study(seed=args.seed)
    for rec in records:
        print(rec)
    cols = sorted({k for rec in records for k in rec})
    filled = [{c: rec.get(c, "") for c in cols} for rec in records]
    _emit(args, "channels", {"channels": filled})


def _cmd_noise(args) -> None:
    p_values = np.round(np.arange(0.0, 1.0 + 1e-9, args.p_step), 10)
    study = experiments.dephasing_noise_study(
        p_values,
        final=_budget(args.inner_budget),
        include_tau=not args.no_tau,
        seed=args.seed,
    )
    _emit(
        args,
        "noise",
        {"noise_curve": study["curve"], "outcomes_p1": study["outcomes_p1"]},
    )


def _cached_scaling_rows(args) -> list[experiments.ScalingRow] | None:
    """Rows n = 2..n_max of ``<out>/scaling.json``, or None unless its manifest
    shows that this very file came from the seed, inner budget and mixedness
    that ``fits`` would compute with."""
    out = Path(args.out)
    try:
        manifest = json.loads((out / "scaling_manifest.json").read_text(encoding="utf-8"))
        config = manifest["config"]
        if (
            manifest["files"].get("scaling.json") != emit.sha256_of(out / "scaling.json")
            or config.get("seed") != args.seed
            or config.get("inner_budget") != args.inner_budget
            or config.get("mixedness") != "purity"
        ):
            return None
        rows = [
            experiments.ScalingRow(**rec)
            for rec in emit.read_json(out / "scaling.json")
            if 2 <= rec["n"] <= args.n_max
        ]
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return rows if [r.n for r in rows] == list(range(2, args.n_max + 1)) else None


def _cmd_fits(args) -> None:
    rows = _cached_scaling_rows(args)
    if rows is not None:
        print(f"using cached table from {Path(args.out) / 'scaling.json'}")
    else:
        rows = experiments.scaling_table(n_max=args.n_max, final=_budget(args.inner_budget), seed=args.seed)
    fits = experiments.scaling_fits(rows)
    records = []
    for fit in fits:
        print(f"{fit.model}: coefficients {tuple(round(c, 6) for c in fit.coefficients)}, "
              f"residual {fit.residual:.3g}")
        records.append(
            {
                "model": fit.model,
                "coefficients": ",".join(f"{c:.10g}" for c in fit.coefficients),
                "residual": fit.residual,
                "points": fit.points,
            }
        )
    _emit(args, "fits", {"fits": records})


_COMMANDS = {
    "discord": _cmd_discord,
    "gqd": _cmd_gqd,
    "scaling": _cmd_scaling,
    "census": _cmd_census,
    "heatmap": _cmd_heatmap,
    "robustness": _cmd_robustness,
    "channels": _cmd_channels,
    "noise": _cmd_noise,
    "fits": _cmd_fits,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # Config-file values act as defaults; explicit flags override them.
        cfg_path = _config_path(argv)
        if cfg_path is not None:
            _apply_config_defaults(parser, _parse_config_file(cfg_path))
        args = parser.parse_args(argv)
        args.seed = int(args.seed)
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        for flag in ("threads", "resolution"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ConfigError(f"--{flag} must be >= 1, got {value}")
        for flag in ("step", "p_step"):
            value = getattr(args, flag, None)
            if value is not None and not 0 < value <= 1:  # also rejects nan and inf
                raise ConfigError(f"--{flag.replace('_', '-')} must be in (0, 1], got {value}")
        if args.command == "scaling" and not 2 <= args.n_min <= args.n_max <= 6:
            raise ConfigError(
                f"scaling needs 2 <= --n-min <= --n-max <= 6, got {args.n_min} and {args.n_max}"
            )
        if args.command == "census" and args.n < 2:
            raise ConfigError(f"--n must be >= 2, got {args.n}")
        if args.command == "fits" and not 4 <= args.n_max <= 6:
            raise ConfigError(f"--n-max must be between 4 and 6, got {args.n_max}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "protocol":
            _cmd_protocol_run(args)
        else:
            _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical or I/O failure
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
