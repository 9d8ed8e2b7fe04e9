"""The padicorb names the benchmark in perfbench/ reaches by name still exist.

perfbench/worker.py calls library functions directly, perfbench/layers.py
imports each layer module and reads three caches, and perfbench/run.py turns
the traced functions it lists into per-layer metrics.  A prune that removes or
renames any of them breaks the benchmark, not the rest of the test suite.
"""

import ast
import importlib
import inspect
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


def _frozenset_constants(path: Path, names: tuple[str, ...]) -> list[str]:
    """The string items of the module-level `frozenset({...})` calls bound to
    `names` in `path`, read without importing it."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in names):
            call = node.value
            assert isinstance(call, ast.Call) and call.func.id == "frozenset", ast.dump(call)
            out.extend(ast.literal_eval(call.args[0]))
    return out


def test_special_cased_trace_names_are_functions():
    """COUNT_ONLY and RETURNS_EVALUATOR in perfbench/layers.py name plain
    functions or methods, so the trace still gives them their special wrapper:
    a renamed hot leaf would otherwise get a timed wrapper, and a property or
    other descriptor is not wrapped at all."""
    names = _frozenset_constants(PERFBENCH / "layers.py", ("COUNT_ONLY", "RETURNS_EVALUATOR"))
    assert len(names) >= 6
    for name in names:
        module, *attrs = name.split(".")
        owner = reduce(getattr, attrs[:-1], importlib.import_module(f"padicorb.{module}"))
        raw = vars(owner)[attrs[-1]]
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__
        assert inspect.isfunction(raw), name


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
