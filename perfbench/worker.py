"""One benchmark job in a fresh interpreter: set up padicorb, verify, report.

Usage: python3 perfbench/worker.py '<job spec as JSON>'

The spec names the job's mode ("setup", "cli", "matching" or "dual-path"),
its inputs and the monotonic time at which the parent started this process.
The worker prints one JSON object on stdout; the program's own console output
goes to stderr.  Everything before the padicorb import is standard library, so
`setup_s` covers interpreter start, the import and building a LocalFieldCtx.
An untraced job also times a fixed reference loop before, during and after
its verification (`reference_s`); the probe's own time is left out of
`verify_s`.
"""

import contextlib
import json
import resource
import signal
import statistics
import sys
import time

# Library jobs take the shape of their baby data (atom count, coordinate
# valuations, levels) from random_baby_data at a fixed shape seed and draw only
# units and weights from the job's seed, so every seed does the same work:
# data drawn whole made one matching job take 13-26 s and moved dual-path run
# medians by 28% across seeds.  Matching uses the split shapes of seed 2, a
# draw of typical cost (10-14 s for one element; seed 5 takes 1.4 s).
MATCHING_SHAPE_SEED = 2
PROBE_PERIOD_S = 0.25


def reference_loop() -> float:
    """Seconds for a fixed stdlib-only loop of the Fraction arithmetic and
    hashing that padicorb's hot paths spend their time in; about 4 ms on the
    machine in record.json."""
    from fractions import Fraction

    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        x = Fraction(i, 3 ** (i % 7) + 1)
        acc += x * x
        seen[x] = i
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference loop every PROBE_PERIOD_S of wall time while a job
    runs (on SIGALRM, between bytecodes), so that the job's time can be divided
    by the host's speed during that very job; the host in record.json changes
    speed by up to 1.6x for seconds to minutes at a time.  `spent` is the
    probe's own time."""

    def __init__(self):
        self.samples = [reference_loop()]
        self.spent = 0.0

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference_loop())

    def reference_s(self) -> float:
        """Median loop time: a tick that lands just after a burst of the job's
        own allocation reads slow, and the median ignores those."""
        return statistics.median(self.samples)


def redraw(ctx, data, rng):
    """Baby data of the shape of `data` with units and weights drawn from `rng`."""
    from fractions import Fraction

    from padicorb.bruhat import BruhatFn
    from padicorb.localfield import rational_valuation
    from padicorb.orbital import BabyInput

    p = ctx.p
    units = [x for x in range(1, 2 * p * p + 1) if x % p]

    def coord(c):
        if c == 0:
            return Fraction(0)
        return rng.choice(units) * rng.choice((1, -1)) * Fraction(p) ** rational_valuation(c, p)

    def fn(f):
        return BruhatFn.from_atoms(ctx, f.domain, [
            (tuple(coord(c) for c in a.center), a.level,
             complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            for a in f.atoms])

    if isinstance(data, BabyInput):
        return BabyInput(data.ext, fn(data.phi0), fn(data.phi_alpha))
    return fn(data)


def matching_error(ctx, seed):
    """verify_matching's two checks on one S(Z) element built from two charts:
    the window+germ+tail shape of |.|G f against the engine, and the
    inner-product identity <|.|G f> = gamma*(eta, 0, psi) <f>."""
    import random
    from fractions import Fraction

    from padicorb import orbital, spaces

    shapes = random.Random(MATCHING_SHAPE_SEED)
    rng = random.Random(seed)
    phi1, phi2 = (redraw(ctx, orbital.random_baby_data(ctx, "split", shapes), rng)
                  for _ in range(2))
    f = orbital.sz_from_charts(phi1, phi2, "split")
    w = spaces.g_transform_Z_to_W(f)
    resid = 0.0
    for v in (-4, 0, 1, w.zero_germ[2] + 1, -w.inf_tail.M - 2):
        for u in (1, max(2, ctx.p - 1)):
            xi = Fraction(u) * Fraction(ctx.p) ** v
            want = spaces.g_value_Z_to_W(f, xi)
            resid = max(resid, abs(w.eval(xi) - want) / max(1.0, abs(want)))
    lhs = orbital.ip_kuz_elem(w)
    rhs = orbital.gamma_star(ctx, "split") * orbital.ip_torus_elem(f)
    return max(resid, abs(lhs - rhs))


def dual_path_error(ctx, seed, kind, shape_seed):
    """Criterion 4: worst |O(Phi-hat) - G(O(Phi))| on val -4..4, units 1 and 2."""
    import random
    from fractions import Fraction

    from padicorb import orbital, spaces

    shape = orbital.random_baby_data(ctx, kind, random.Random(shape_seed))
    phi = redraw(ctx, shape, random.Random(seed))
    sx = orbital.sx_from_baby(phi, kind)
    phihat = orbital.fourier_baby(phi, kind)
    worst = 0.0
    for v in range(-4, 5):
        for u in (1, 2):
            xi = Fraction(u) * Fraction(ctx.p) ** v
            lhs = orbital.baby_orbital(kind, phihat, xi)
            rhs = spaces.g_value_SX(sx, xi)
            worst = max(worst, abs(lhs - rhs))
    return worst


def library_items(ctx, mode, items):
    """Each item's measured error; a raised PadicOrbError is recorded, not fatal."""
    from padicorb.errors import PadicOrbError

    error_of = matching_error if mode == "matching" else dual_path_error
    out = []
    for item in items:
        rec = {"item": item}
        try:
            rec["error"] = error_of(ctx, *item)
        except PadicOrbError as exc:
            rec["raised"] = f"{type(exc).__name__}: {exc}"
        out.append(rec)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    import padicorb
    import padicorb.cli
    from padicorb.localfield import LocalFieldCtx

    ctx = LocalFieldCtx(spec["p"])
    out = {"setup_s": time.monotonic() - spec["t_spawn"], "module": padicorb.__file__,
           "setup_reference_s": statistics.median(reference_loop() for _ in range(3))}
    if spec["mode"] != "setup":
        trace = probe = None
        if spec.get("trace"):
            from layers import LayerTrace, cache_counts

            trace = LayerTrace()
            trace.install()
        else:
            probe = SpeedProbe()
        with contextlib.redirect_stdout(sys.stderr), probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            if spec["mode"] == "cli":
                out["rc"] = padicorb.cli.main(spec["argv"])
            else:
                out["items"] = library_items(ctx, spec["mode"], spec["items"])
            out["verify_s"] = time.perf_counter() - t0 - (probe.spent if probe else 0.0)
        if probe is not None:
            out["reference_s"] = probe.reference_s()
            out["probes"] = len(probe.samples)
        else:
            trace.uninstall()
            out["trace"] = {"functions": trace.snapshot(),
                            "layer_self_s": trace.layer_self_s(),
                            "caches": cache_counts()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
