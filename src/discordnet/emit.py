"""Record serialization: CSV/JSON emission with a reproducibility manifest.

Records are flat mappings with identical keys.  Floats are written at 10
significant digits so byte-identical reruns are achievable; files use UTF-8
with LF line endings.  Each emission writes a manifest JSON next to the data
files carrying the command, config snapshot, seed, and content hashes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__


class EmitError(OSError):
    pass


def _format_value(v: Any) -> Any:
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float(f"{v:.10g}")
    return v


def _format_cell(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict[str, Any]
    seed: int
    version: str = __version__
    started: str = ""
    finished: str = ""
    files: dict[str, str] = field(default_factory=dict)  # name -> sha256

    def write(self, path: Path) -> None:
        payload = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "started": self.started,
            "finished": self.finished,
            "files": self.files,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def columns_of(records: Sequence[Mapping[str, Any]], columns: Sequence[str] | None) -> list[str]:
    if columns is not None:
        return list(columns)
    return list(records[0].keys()) if records else []


def write_csv(records: Sequence[Mapping[str, Any]], path: Path, columns: Sequence[str] | None = None) -> None:
    cols = columns_of(records, columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for rec in records:
            writer.writerow([_format_cell(rec[c]) for c in cols])


def write_json(records: Sequence[Mapping[str, Any]], path: Path) -> None:
    cols = columns_of(records, None)
    payload = [{c: _format_value(rec[c]) for c in cols} for rec in records]
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_json(path: Path) -> list[dict[str, Any]]:
    return json.loads(path.read_text(encoding="utf-8"))


def emit(
    named_records: Mapping[str, Sequence[Mapping[str, Any]]],
    fmt: str,
    out_dir: Path,
    command: str,
    config: Mapping[str, Any],
    seed: int,
) -> RunManifest:
    """Write one CSV/JSON file per named record list, plus a manifest."""
    if fmt not in ("csv", "json"):
        raise EmitError(f"unknown format {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=command,
        config={k: _format_value(v) for k, v in config.items()},
        seed=seed,
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    for name, records in named_records.items():
        path = out_dir / f"{name}.{fmt}"
        if fmt == "csv":
            write_csv(records, path)
        else:
            write_json(records, path)
        manifest.files[path.name] = sha256_of(path)
    manifest.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest.write(out_dir / f"{command.replace(' ', '_')}_manifest.json")
    return manifest
