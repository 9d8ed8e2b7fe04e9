"""Outside-in per-layer trace of padicorb, installed by rebinding names.

Every function and method defined in a padicorb layer module is replaced, in
every padicorb namespace that holds it, by a wrapper that records calls,
total time and self time on a span stack.  Methods are patched on their class.
The program's source is not touched: the wrappers live here and are installed
only in a traced benchmark process.

A span's self time is its duration minus the durations of the traced spans it
called directly.  Time in count-only functions and in nested closures (which
cannot be rebound from outside) is therefore self time of the nearest timed
caller, so a layer's self time reads "time whose innermost traced frame lies
in this layer".  Properties and dunder methods are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# padicorb modules in dependency order; `errors` defines no functions.
LAYERS = ("localfield", "rational", "bruhat", "groups", "spaces", "orbital", "cli")

# Leaves called more than 1e5 times in one verification: a timed wrapper would
# cost more than the work it measures, so these are counted but not timed.
COUNT_ONLY = frozenset({
    "localfield.rational_valuation",
    "groups.GroupElt.of",
    "bruhat.BruhatFn.canonicalize",
    "bruhat._coset_key",
    "spaces._val_and_unit_key",
})

# Functions that return an evaluator closure doing their real work: the
# closure is timed too, as '<name>.value', since it cannot be rebound.
RETURNS_EVALUATOR = frozenset({"orbital.hecke_apply_W"})


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class LayerTrace:
    """Wrappers over the padicorb layers; `stats` maps 'layer.qualname' to a Stat."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------------

    def _counted(self, name, fn):
        st = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.self_s += dt - frame[0]
                if st.depth == 0:  # recursion counts once in total time
                    st.total_s += dt
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        if name in RETURNS_EVALUATOR:
            return self._timed(name, self._wrap_result(f"{name}.value", fn))
        return self._timed(name, fn)

    def _wrap_result(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, fn(*args, **kwargs))
        return wrapper

    # -- installation ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [importlib.import_module(f"padicorb.{layer}") for layer in LAYERS]
        namespaces = [importlib.import_module("padicorb"), *mods]
        replaced: dict[int, object] = {}
        for layer, mod in zip(LAYERS, mods):
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj)
        # rebind each function in every namespace that imported it by name
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self._set(ns, attr, new)

    def _patch_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                self._set(cls, attr, type(raw)(self._wrap(f"{layer}.{fn.__qualname__}", fn)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(f"{layer}.{raw.__qualname__}", raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def snapshot(self) -> dict:
        """Per-function stats of functions called at least once."""
        return {name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                for name, st in sorted(self.stats.items()) if st.calls}


def cache_counts() -> dict[str, int]:
    """Sizes and hit counts of the program's own caches, read after a run."""
    from padicorb import localfield, spaces

    val = localfield._rational_valuation_cached.cache_info()
    fuk = spaces._frac_unit_key.cache_info()
    return {
        "osc_cache.entries": len(spaces._osc_cache),
        "valuation_cache.hits": val.hits,
        "valuation_cache.misses": val.misses,
        "frac_unit_key.hits": fuk.hits,
        "frac_unit_key.misses": fuk.misses,
    }
