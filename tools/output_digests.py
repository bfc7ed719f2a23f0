"""Digests of the outputs that a refactor must leave bit-identical.

Usage, from the root of a checkout:

    python tools/output_digests.py [--src DIR]

``--src`` is the root of the checkout whose ``src/discordnet`` runs (default:
the checkout holding this script).  It prints three sha256 digests, one per
line:

- ``scaling.csv`` of ``discordnet scaling --n-min 2 --n-max 5``;
- ``heatmap.csv`` of ``discordnet heatmap --resolution 11``;
- ``fidelity``: ``experiments.best_fidelity_state`` on the 30 targets
  (p, x) of the benchmark's fidelity workload, p in {0, 0.25, 0.5, 0.75, 1}
  and Bell-mixture weight x in {0, 0.2, ..., 1}, taken in that order.  Each
  target adds the hex of its angles and fidelity and the bytes of its
  state, or the type and message of the error it raised.

Every run uses the program's default seed.  Two checkouts give the same
three lines exactly when these outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SCALING_ARGS = ["scaling", "--n-min", "2", "--n-max", "5"]
HEATMAP_ARGS = ["heatmap", "--resolution", "11"]
FIDELITY_P = (0.0, 0.25, 0.5, 0.75, 1.0)
FIDELITY_X = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _cli_digest(cli, argv: list[str], name: str) -> str:
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        if code != 0:
            raise SystemExit(f"discordnet {' '.join(argv)} exited {code}")
        return hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()


def _fidelity_digest(experiments, states) -> str:
    h = hashlib.sha256()
    for p in FIDELITY_P:
        for x in FIDELITY_X:
            try:
                angles, fid, rho = experiments.best_fidelity_state(p, states.bell_mixture(x))
            except Exception as exc:  # a raising target is part of the output
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            h.update(" ".join(float(v).hex() for v in [*angles, fid]).encode())
            h.update(rho.matrix.tobytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    src = args.src.resolve() / "src"
    if not (src / "discordnet" / "__init__.py").is_file():
        ap.error(f"no src/discordnet under {args.src}")
    sys.path.insert(0, str(src))
    from discordnet import cli, experiments, states

    print("scaling.csv", _cli_digest(cli, SCALING_ARGS, "scaling.csv"))
    print("heatmap.csv", _cli_digest(cli, HEATMAP_ARGS, "heatmap.csv"))
    print("fidelity", _fidelity_digest(experiments, states))
    return 0


if __name__ == "__main__":
    sys.exit(main())
