"""The library needs nothing outside the standard library at run time."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import padicorb, padicorb.cli
print(json.dumps(sorted({name.split('.')[0] for name in set(sys.modules) - before})))
"""


RUN_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
runpy.run_module("padicorb.cli", run_name="__main__")
"""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _fresh_imports() -> list[str]:
    """Top-level modules a fresh interpreter loads to import padicorb and padicorb.cli."""
    out = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_library_imports_only_the_standard_library():
    """A fresh interpreter that imports padicorb and padicorb.cli loads no
    top-level module but padicorb's own and the standard library's
    (`__mp_main__` and other dunder names are interpreter bookkeeping)."""
    loaded = _fresh_imports()
    assert "padicorb" in loaded
    foreign = [name for name in loaded if name not in sys.stdlib_module_names
               and name != "padicorb" and not name.startswith("__")]
    assert not foreign, foreign


def test_cli_start_loads_no_multiprocessing():
    """Only `verify-fl --jobs N` with N > 1 and several tasks starts a pool, so
    only that path imports multiprocessing."""
    assert "multiprocessing" not in _fresh_imports()


def test_import_loads_no_dataclasses():
    """padicorb defines no dataclass: importing `dataclasses` (with the
    `inspect`, `ast`, `dis` and `tokenize` it loads) and decorating each class,
    which `exec`s generated source on every import, were about a fifth of a
    run's set-up.  `csv` is imported by a CSV report alone."""
    found = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"} & set(_fresh_imports())
    assert not found, found


def test_verify_fl_run_loads_no_argument_parser(tmp_path):
    """A whole `python -m padicorb.cli verify-fl` run exits 0 without argparse,
    gettext or locale in `sys.modules`: building argparse parsers (and the
    locale import of its first gettext call) cost about 4 ms of every run."""
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE, "verify-fl", "--p", "3",
                           "--hecke", "0:1", "--out", str(tmp_path / "fl.json")],
                          env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert "padicorb.orbital" in loaded
    found = {"argparse", "gettext", "locale"} & set(loaded)
    assert not found, found


def test_library_imports_no_test_oracle():
    """The reference builders in `tests/oracles.py` stay test-only: no module
    under `src/` imports `oracles` (or anything under `tests`)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(part in ("oracles", "tests") for name in names for part in name.split(".")):
                found.append((path.name, node.lineno))
    assert not found, found
