"""Regenerate ``scenarios.json``, the golden record of the scenario outputs.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It runs ``scenarios/standard.ini`` and ``scenarios/grids.ini`` into a
temporary directory and records, for each section, every check's verdict,
value and bound, the counters of its ``summary.json`` and the last row of its
``trace.csv`` or ``history.csv``, plus each file's exit status.
``tests/test_golden.py`` compares a fresh run with this record.  A change that
moves an output regenerates the record in the same commit and lists the moved
values in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from lswkit.cli import run_config

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parents[1] / "scenarios"
CONFIGS = ("standard.ini", "grids.ini")
RECORD = HERE / "scenarios.json"
# the summary.json fields that are neither counters nor verdicts
_NOT_COUNTERS = {"model", "scenario", "checks", "violations"}


def _last_row(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), map(float, rows[-1].split(","))))


def _section(outdir: Path) -> dict:
    summary = json.loads((outdir / "summary.json").read_text())
    entry = {"checks": {name: {"passed": c["passed"], "value": c["value"], "bound": c["bound"]}
                        for name, c in summary.get("checks", {}).items()},
             "violations": summary.get("violations"),
             "counters": {k: v for k, v in summary.items() if k not in _NOT_COUNTERS}}
    for name in ("trace.csv", "history.csv"):
        if (outdir / name).exists():
            entry["last_row"] = {"file": name, **_last_row(outdir / name)}
    return entry


def collect(root: Path) -> dict:
    """Run every config into ``root`` and return the record of its outputs."""
    record = {}
    for config in CONFIGS:
        out = root / Path(config).stem
        with contextlib.redirect_stdout(io.StringIO()):
            status = run_config(str(SCENARIOS / config), str(out))
        sections = {d.name: _section(d) for d in sorted(out.iterdir()) if d.is_dir()}
        record[config] = {"exit_status": status, "sections": sections}
    return record


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = collect(Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
