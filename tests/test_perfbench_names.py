"""The padicorb names and attributes the benchmark in perfbench/ reaches still exist.

perfbench/worker.py calls library functions directly and reads attributes of
their results, perfbench/layers.py imports each layer module and reads three
caches, and perfbench/run.py turns the traced functions it lists into
per-layer metrics.  A prune that removes or renames any of them, or changes the
shape of a result the worker reads, breaks the benchmark, not the rest of the
test suite.
"""

import ast
import importlib
import importlib.util
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


def _worker():
    """perfbench/worker.py as a module (its main() runs only as a script)."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_attributes_read_by_perfbench_exist():
    """The attribute reads of perfbench/worker.py: `matching_error` indexes the
    zero germ's level as [2] and reads the tail's M; `redraw` reads the baby
    data's components, domain and atoms and rebuilds them positionally."""
    import random
    from fractions import Fraction

    from padicorb.bruhat import Atom, BruhatFn
    from padicorb.localfield import LocalFieldCtx
    from padicorb.orbital import BabyInput, random_baby_data
    from padicorb.spaces import Germ, SZElem, g_transform_Z_to_W

    ctx = LocalFieldCtx(3)
    window = BruhatFn.from_atoms(ctx, "F", [(Fraction(2, 3), 2, 0.5)])
    w = g_transform_Z_to_W(SZElem(ctx, "split", window, Germ(0.25, 0.5, 2),
                                  Germ(0.75, -0.25, 3)))
    assert w.zero_germ[2] == w.zero_germ.level
    assert type(w.inf_tail.M) is int

    worker = _worker()
    for kind in ("split", "inert"):
        data = random_baby_data(ctx, kind, random.Random(1))
        if kind == "inert":
            assert isinstance(data, BabyInput) and data.ext.kind == "inert"
            fns = [data.phi0, data.phi_alpha]
        else:
            fns = [data]
        for f in fns:
            assert isinstance(f.domain, str) and f.atoms
            for a in f.atoms:
                assert isinstance(a, Atom) and isinstance(a.center, tuple)
                assert isinstance(a.level, int)
        again = worker.redraw(ctx, data, random.Random(2))
        assert type(again) is type(data)
