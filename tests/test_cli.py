import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from discordnet import cli, emit, experiments


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gqd_named_state(capsys):
    code, out, _ = run(
        ["gqd", "--state", "w", "--n", "3", "--inner-budget", "fast"], capsys
    )
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value - math.log2(3)) < 1e-6


def test_discord_named_state(capsys):
    code, out, _ = run(
        ["discord", "--state", "bell_mixture", "--param", "x=0.5",
         "--inner-budget", "fast"], capsys
    )
    assert code == 0
    assert out.startswith("D(")


def test_negative_correlation_value_exits_2(capsys, monkeypatch):
    import numpy as np

    from discordnet import correlations
    from discordnet.search import SearchResult

    def search(obj, n, grid, top, b, seed):
        return SearchResult(np.zeros(2 * n), -1e-6, 1, True), (np.zeros(n), np.zeros(n))

    monkeypatch.setattr(correlations, "_basis_search", search)
    code, out, err = run(["gqd", "--state", "w", "--n", "2", "--inner-budget", "fast"], capsys)
    assert code == 2 and out == ""
    assert "SearchError" in err and "-1e-06" in err


def test_protocol_run_computational_basis_gives_zero_discord(capsys):
    # theta = 0 measures the carriers in the computational basis: no discord
    code, out, _ = run(
        ["protocol", "run", "--n", "2", "--theta", "0,1.0",
         "--inner-budget", "fast"], capsys
    )
    assert code == 0
    for line in out.splitlines():
        if line.strip().startswith(("GQD", "D(")):
            assert abs(float(line.split("=")[1])) < 1e-7


def test_protocol_run_radians_at_maximum(capsys):
    code, out, _ = run(
        ["protocol", "run", "--n", "2", "--theta", "0.9458,0.9458",
         "--report", "gqd", "--inner-budget", "fast"], capsys
    )
    assert code == 0
    gqd_line = [l for l in out.splitlines() if "GQD" in l][0]
    assert abs(float(gqd_line.split("=")[1]) - 0.2198113593729) < 1e-6


def test_global_flags_accepted_after_subcommand(capsys):
    code, _, _ = run(
        ["gqd", "--state", "ghz3", "--inner-budget", "fast",
         "--seed", "3"], capsys
    )
    assert code == 0


def test_bad_flag_exits_1(capsys):
    code, _, err = run(["gqd", "--state", "w", "--n", "3", "--bogus"], capsys)
    assert code == 1
    assert "error" in err


def test_unknown_state_exits_1(capsys):
    code, _, err = run(["gqd", "--state", "no_such_family"], capsys)
    assert code == 1
    assert "error" in err


def test_theta_count_mismatch_exits_1(capsys):
    code, _, _ = run(["protocol", "run", "--n", "3", "--theta", "0.9,0.9"], capsys)
    assert code == 1


def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "state = w\n"
        "n = 3\n"
        "inner-budget = fast\n",
        encoding="utf-8",
    )
    code, out, _ = run(["--config", str(cfg), "gqd"], capsys)
    assert code == 0
    assert abs(float(out.split("=")[1]) - math.log2(3)) < 1e-6
    # explicit flag overrides the file value
    code, out, _ = run(["--config", str(cfg), "gqd", "--n", "2"], capsys)
    assert code == 0
    assert abs(float(out.split("=")[1]) - 1.0) < 1e-6


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n", encoding="utf-8")
    code, _, err = run(["--config", str(cfg), "gqd", "--state", "w"], capsys)
    assert code == 1
    assert "unknown config keys" in err


def test_config_flag_without_value_exits_1(tmp_path, capsys):
    for argv in (["gqd", "--state", "w", "--config"], ["--config"]):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "--config" in err and "expected one argument" in err
        assert "Traceback" not in err


def test_config_equals_form_is_honored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = w\nn = 3\ninner-budget = fast\n", encoding="utf-8")
    for argv in ([f"--config={cfg}", "gqd"], ["gqd", f"--config={cfg}"]):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert abs(float(out.split("=")[1]) - math.log2(3)) < 1e-6
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n", encoding="utf-8")
    code, _, err = run([f"--config={bad}", "gqd", "--state", "w"], capsys)
    assert code == 1
    assert "unknown config keys" in err


def test_missing_config_file_exits_1(capsys):
    code, _, _ = run(["--config", "/nonexistent.cfg", "gqd", "--state", "w"], capsys)
    assert code == 1


def test_emit_outputs_with_manifest(tmp_path, capsys):
    code, out, _ = run(
        ["heatmap", "--resolution", "3", "--out", str(tmp_path),
         "--format", "json", "--inner-budget", "fast"], capsys
    )
    assert code == 0
    data = tmp_path / "heatmap.json"
    manifest = tmp_path / "heatmap_manifest.json"
    assert data.exists() and manifest.exists()
    records = json.loads(data.read_text(encoding="utf-8"))
    assert len(records) == 9
    assert set(records[0]) == {"theta1", "theta2", "d_m1_m2", "d_m2_m1", "gqd"}
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    assert "heatmap.json" in payload["files"]


def test_reruns_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run(
            ["heatmap", "--resolution", "3", "--out", str(d),
             "--format", "csv", "--seed", "5"], capsys
        )
        assert code == 0
    assert (d1 / "heatmap.csv").read_bytes() == (d2 / "heatmap.csv").read_bytes()


def test_threads_env_is_ignored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISCORDNET_THREADS", "abc")
    code, _, _ = run(
        ["heatmap", "--resolution", "3", "--threads", "2", "--out", str(tmp_path)], capsys
    )
    assert code == 0


@pytest.mark.parametrize("command", [["heatmap"], ["robustness", "memory"]])
@pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--threads", "-2"),
                                         ("--resolution", "0"), ("--resolution", "-3")])
def test_threads_or_resolution_below_one_exits_1(tmp_path, capsys, command, flag, value):
    code, _, err = run([*command, flag, value, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert f"{flag} must be >= 1" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, message", [
    ("robustness carrier --step 0", "--step must be in (0, 1]"),
    ("robustness carrier --step -0.1", "--step must be in (0, 1]"),
    ("robustness carrier --step nan", "--step must be in (0, 1]"),
    ("robustness carrier --step 1.5", "--step must be in (0, 1]"),
    ("noise --p-step 0", "--p-step must be in (0, 1]"),
    ("noise --p-step -1", "--p-step must be in (0, 1]"),
    ("noise --p-step inf", "--p-step must be in (0, 1]"),
    ("scaling --n-max 1", "2 <= --n-min <= --n-max <= 6"),
    ("scaling --n-min 1", "2 <= --n-min <= --n-max <= 6"),
    ("scaling --n-min 4 --n-max 3", "2 <= --n-min <= --n-max <= 6"),
    ("scaling --n-max 7", "2 <= --n-min <= --n-max <= 6"),
    ("census --n 1", "--n must be >= 2"),
    ("fits --n-max 2", "--n-max must be between 4 and 6"),
    ("fits --n-max 7", "--n-max must be between 4 and 6"),
    ("protocol run --n 2 --theta 0.9,0.9 --outcome 02", "--outcome must be zeros, all or 2 bits"),
    ("protocol run --n 2 --theta 0.9,0.9 --outcome ab", "--outcome must be zeros, all or 2 bits"),
    ("protocol run --n 2 --theta 0.9,0.9 --outcome 0", "--outcome must be zeros, all or 2 bits"),
    ("protocol run --n 2 --theta 0.9,0.9 --interactions 1,5", "--interactions must be distinct"),
    ("protocol run --n 2 --theta 0.9,4", "--theta values must be in [0, pi]"),
    ("gqd --state bell_mixture --param x=abc", "--param x expects a number"),
    ("discord --state bell_mixture --param x=0.5 --measured Z",
     "--unmeasured and --measured must be the labels M1,M2"),
    ("discord --state w --n 3", "discord needs a two-qubit state"),
    ("gqd --state w --n 2 --seed -1", "--seed must be >= 0"),
    ("gqd --state w --param n=2.7 --inner-budget fast", "n = 2.7 is not a whole number"),
    ("robustness carrier --resolution 3", "unrecognized arguments: --resolution"),
    ("robustness memory --step 0.5", "unrecognized arguments: --step"),
    ("robustness measurement --step 0.5", "unrecognized arguments: --step"),
    ("robustness measurement --resolution 3", "unrecognized arguments: --resolution"),
])
def test_out_of_range_size_or_step_exits_1(tmp_path, capsys, command, message):
    code, _, err = run([*command.split(), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, discordnet.cli, discordnet.experiments; "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _write_scaling_cache(out, seed=0, inner_budget="full", mixedness="purity", ns=(2, 3, 4, 5)):
    g_max = {2: 0.219811, 3: 0.469449, 4: 0.704025, 5: 0.933755}
    rows = [
        {"n": n, "theta": 0.9, "g_max": g_max[n], "g_w": 1.0, "epsilon": 0.5, "g_eps": 0.5,
         "ratio": 1.0}
        for n in ns
    ]
    config = {"seed": seed, "inner_budget": inner_budget, "mixedness": mixedness, "n_min": 2,
              "n_max": max(ns), "out": str(out), "format": "json", "threads": 1}
    emit.emit({"scaling": rows}, fmt="json", out_dir=out, command="scaling", config=config, seed=seed)
    return [experiments.ScalingRow(**r) for r in rows]


def _fits_with_table(tmp_path, capsys, monkeypatch, argv):
    computed = []

    def table(**kwargs):
        computed.append(kwargs)
        return _write_scaling_cache(tmp_path / "fresh", seed=kwargs["seed"])[: kwargs["n_max"] - 1]

    monkeypatch.setattr(experiments, "scaling_table", table)
    code, out, _ = run(["fits", "--out", str(tmp_path), "--format", "json", *argv], capsys)
    assert code == 0
    return computed, out


def test_fits_reuses_matching_scaling_cache(tmp_path, capsys, monkeypatch):
    _write_scaling_cache(tmp_path, seed=3)
    computed, out = _fits_with_table(tmp_path, capsys, monkeypatch, ["--seed", "3"])
    assert computed == []
    assert "using cached table" in out
    assert json.loads((tmp_path / "fits.json").read_text(encoding="utf-8"))[0]["points"] == 4


@pytest.mark.parametrize(
    "cache, argv",
    [
        ({"seed": 1}, ["--seed", "3"]),
        ({"seed": 3, "inner_budget": "fast"}, ["--seed", "3"]),
        ({"seed": 3, "mixedness": "entropy"}, ["--seed", "3"]),
        ({"seed": 3, "ns": (2, 3, 4)}, ["--seed", "3", "--n-max", "5"]),
        ({"seed": 3, "ns": (3, 4, 5)}, ["--seed", "3"]),
    ],
)
def test_fits_recomputes_stale_scaling_cache(tmp_path, capsys, monkeypatch, cache, argv):
    _write_scaling_cache(tmp_path, **cache)
    computed, out = _fits_with_table(tmp_path, capsys, monkeypatch, argv)
    assert len(computed) == 1 and computed[0]["seed"] == 3
    assert "using cached table" not in out


def test_fits_recomputes_when_cache_file_changed_after_manifest(tmp_path, capsys, monkeypatch):
    _write_scaling_cache(tmp_path, seed=3)
    data = tmp_path / "scaling.json"
    data.write_text(data.read_text(encoding="utf-8").replace("0.9", "1.1"), encoding="utf-8")
    computed, _ = _fits_with_table(tmp_path, capsys, monkeypatch, ["--seed", "3"])
    assert len(computed) == 1
