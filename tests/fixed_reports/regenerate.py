"""Regenerate the fixed-seed reports that `tests/test_fixed_reports.py` compares.

Usage (from the repo root): PYTHONPATH=src python tests/fixed_reports/regenerate.py

Each report is written by `padicorb.cli.main` with the argv in `RUNS`, next to
this script.  A change that moves a report on purpose reruns this script in
the same commit and names every moved report and field in CHANGES.md.
"""

import sys
from pathlib import Path

from padicorb.cli import main

HERE = Path(__file__).resolve().parent

# report file -> CLI argv (without --format and --out); no report carries a
# wall-clock time, so a fixed argv gives fixed bytes
RUNS = {
    "fl-p3-split-h0x3-h1x7.json": ["verify-fl", "--p", "3", "--ext", "split",
                                   "--hecke", "0:3,1:7"],
    "fl-p3-split-h6.json": ["verify-fl", "--p", "3", "--ext", "split", "--hecke", "6:1"],
    "fl-p3-inert-h0-h1x2-h2x3.json": ["verify-fl", "--p", "3", "--ext", "inert",
                                      "--hecke", "0:1,1:2,2:3"],
    "fl-p5-inert-h0x9-h1x2-h2x4.json": ["verify-fl", "--p", "5", "--ext", "inert",
                                        "--hecke", "0:9,1:2,2:4"],
    "fl-p5-inert-h0x2-h1x5-h2x8.json": ["verify-fl", "--p", "5", "--ext", "inert",
                                        "--hecke", "0:2,1:5,2:8"],
    "fl-p5-inert-h10.json": ["verify-fl", "--p", "5", "--ext", "inert", "--hecke", "10:1"],
    "fl-p5-split-h0-h1-h2.json": ["verify-fl", "--p", "5", "--ext", "split",
                                  "--hecke", "0:1,1:1,2:1"],
    "fl-p13-inert-h0-h1-h2.json": ["verify-fl", "--p", "13", "--ext", "inert",
                                   "--hecke", "0:1,1:1,2:1"],
    "matching-p3-split-s2-seed9.json": ["verify-matching", "--p", "3", "--ext", "split",
                                        "--samples", "2", "--seed", "9"],
    "matching-p3-inert-s2-seed9.json": ["verify-matching", "--p", "3", "--ext", "inert",
                                        "--samples", "2", "--seed", "9"],
    "tables-p3.json": ["tables", "--p", "3"],
    "tables-p5-inert.json": ["tables", "--p", "5", "--ext", "inert"],
}


def write(name: str, out_dir: Path) -> int:
    """Run `RUNS[name]` through the CLI into `out_dir / name`; the exit code."""
    return main([*RUNS[name], "--format", "json", "--out", str(out_dir / name)])


if __name__ == "__main__":
    codes = {name: write(name, HERE) for name in RUNS}
    failed = {name: code for name, code in codes.items() if code != 0}
    print(f"{len(RUNS) - len(failed)} of {len(RUNS)} reports passed", file=sys.stderr)
    sys.exit(1 if failed else 0)
