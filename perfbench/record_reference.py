"""Write ``reference.json``: the checked outputs of every workload at seed 0.

Run from the root of a checkout, on the revision whose outputs are taken as
correct:

    python3 perfbench/record_reference.py

Fidelity targets that raise are stored as null: they are the known defect,
and are checked only by invariants once they succeed.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker
from workloads import (HEATMAP_FIELDS, SCALING_FIELDS, fidelity_pass, heatmap_pass, read_csv,
                       scaling_pass, target_key)

SEED = 0


def main() -> int:
    dn = worker.import_program()
    out = worker.OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if scaling_pass(dn, SEED, out, None) != 0 or heatmap_pass(dn, SEED, out, None) != 0:
        print("reference: a CLI run failed", file=sys.stderr)
        return 1
    scaling = {r["n"]: {k: float(r[k]) for k in SCALING_FIELDS}
               for r in read_csv(out / "scaling.csv")}
    heatmap = [{k: float(r[k]) for k in ("theta1", "theta2") + HEATMAP_FIELDS}
               for r in read_csv(out / "heatmap.csv")]
    fidelity = {target_key(p, x): None if exc is not None else res[1]
                for p, x, res, exc in sorted(fidelity_pass(dn, SEED, out, None))}
    ref = {"seed": SEED, "scaling": scaling, "heatmap": heatmap, "fidelity": fidelity}
    (worker.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n",
                                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
