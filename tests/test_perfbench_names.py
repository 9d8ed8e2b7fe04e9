"""The padicorb names the benchmark in perfbench/ reaches by name still exist.

perfbench/worker.py calls library functions directly, perfbench/layers.py
imports each layer module and reads three caches, and perfbench/run.py turns
the traced functions it lists into per-layer metrics.  A prune that removes or
renames any of them breaks the benchmark, not the rest of the test suite.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

import padicorb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WORKER_CALLS = (
    "cli.main", "errors.PadicOrbError", "localfield.LocalFieldCtx",
    "localfield.rational_valuation", "bruhat.BruhatFn.from_atoms",
    "orbital.BabyInput", "orbital.random_baby_data", "orbital.sz_from_charts",
    "orbital.ip_kuz_elem", "orbital.ip_torus_elem", "orbital.gamma_star",
    "orbital.sx_from_baby", "orbital.fourier_baby", "orbital.baby_orbital",
    "spaces.g_transform_Z_to_W", "spaces.g_value_Z_to_W", "spaces.g_value_SX",
)
CACHE_INFO = ("spaces._frac_unit_key.cache_info",
              "localfield._rational_valuation_cached.cache_info")


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    return reduce(getattr, attrs, importlib.import_module(f"padicorb.{module}"))


def _tuple_constants(path: Path, names: tuple[str, ...]) -> list[str]:
    """The string items of the module-level tuples `names` in `path`, read
    without importing it."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in names):
            out.extend(ast.literal_eval(node.value))
    return out


def test_names_used_by_perfbench_exist():
    layers = _tuple_constants(PERFBENCH / "layers.py", ("LAYERS",))
    traced = _tuple_constants(PERFBENCH / "run.py", ("CALLS", "SELF", "TOTAL"))
    assert len(layers) == 7 and len(traced) > 30
    for layer in layers:
        importlib.import_module(f"padicorb.{layer}")
    for name in (*WORKER_CALLS, *CACHE_INFO, *traced):
        assert callable(_resolve(name)), name
    assert isinstance(_resolve("spaces._osc_cache"), dict)
    assert len(padicorb.__all__) == len(set(padicorb.__all__))
    for name in padicorb.__all__:
        assert hasattr(padicorb, name), name
