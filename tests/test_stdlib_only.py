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


def _fresh_imports() -> list[str]:
    """Top-level modules a fresh interpreter loads to import padicorb and padicorb.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
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
