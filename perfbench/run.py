"""Run one padicorb benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/padicorb`; nothing is installed.
Each job is one verification in a fresh interpreter (`perfbench/worker.py`),
because every CLI invocation pays cold module caches.  The loop is closed with
one client: the next job starts when the previous one has returned.

With `--trace 0` the run first times set-up alone several times, then runs
jobs until `--seconds` is spent, and reports the medians of `setup_s`,
`verify_ref` and `peak_rss_mb`.  `verify_ref` is each job's time to verdict
divided by the median time of a fixed reference loop that the job's process
runs every quarter second while it verifies (worker.SpeedProbe): this host
changes speed by up to 1.6x for seconds to minutes at a time, which moved run
medians of raw seconds by 25%.  `setup_s` stays in seconds, scaled to the
nominal host speed by the same loop timed right after set-up.  Raw seconds
are in every job record and in the summary.  With `--trace 1` it alternates untraced and traced runs of
job 0 and reports the per-layer metrics of the traced ones.
Every job's outputs are checked; the last stdout line is the result object,
and the lines before it record each job's inputs so that any run can be
replayed.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS
from workloads import WORKLOADS, check_job, job_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench_out"      # CLI reports, relative to the checkout root
SETUP_SAMPLES = 7               # set-up-only interpreters per untraced run
RUN_LIMIT_S = 150.0             # never start a job that would end past this
NOMINAL_REFERENCE_S = 0.004     # worker.reference_loop on the machine in record.json
NO_ASLR = ["setarch", "-R"] if shutil.which("setarch") else []

# Functions whose call count, self-time share and total-time share are per-layer metrics.
CALLS = (
    "groups.GroupElt.mul", "groups.GroupElt.of", "groups.double_coset_reps",
    "groups.hecke_to_coset_basis", "orbital.o_torus_group",
    "orbital.inert_rep_for", "localfield.padic_sqrt", "localfield.is_rational_square",
    "spaces.oscillatory_shell_integral", "spaces.g_transform_Z_to_W",
    "spaces.g_value_Z_to_W", "spaces.g_value_SX", "spaces.kloosterman_germ",
    "orbital.o_baby_split", "orbital.o_baby_nonsplit", "orbital.split_germ_data",
    "bruhat.BruhatFn.make_evaluator", "bruhat.BruhatFn.canonicalize",
    "bruhat.tate_zeta", "localfield.rational_valuation", "orbital.o_kuz_closed",
)
SELF = (
    "groups.GroupElt.mul", "groups.double_coset_reps", "orbital.o_torus_group",
    "orbital.inert_rep_for", "spaces.oscillatory_shell_integral",
    "spaces.g_transform_Z_to_W", "orbital.o_baby_split", "orbital.o_baby_nonsplit",
    "orbital.sx_from_baby", "bruhat.fourier_F2", "bruhat.fourier_E",
)
TOTAL = (
    "orbital.o_torus_group", "spaces.g_value_Z_to_W", "spaces.g_value_SX",
    "orbital.sz_from_charts", "orbital.hecke_apply_W",
)


class BenchError(Exception):
    pass


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "aslr_off": bool(NO_ASLR)}


def spawn(spec: dict, trace: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one job in a fresh interpreter and return the worker's result.

    The job runs with a fixed hash seed and, where `setarch` exists, without
    address-space randomization (for that process only): a random layout
    moved one fl-inert-p5 job by 10% from process to process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spec = dict(spec, trace=trace, t_spawn=time.monotonic())
    try:
        proc = subprocess.run([*NO_ASLR, sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job did not finish within {timeout:.0f} s: {spec}") from exc
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise BenchError(f"worker failed (exit {proc.returncode}) on {spec}:\n"
                         f"{proc.stderr[-2000:]}")
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"padicorb was imported from {result['module']}, not {SRC}")
    return result


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced job, shares as medians.

    Times are reported as shares of the traced job's verify time, which
    cancels the host's speed drift between runs; multiply by trace.verify_s
    for seconds.
    """
    first = traced[0]["trace"]
    fns = first["functions"]

    def share(get):
        return _median([_ratio(get(t["trace"]), t["verify_s"]) for t in traced])

    def fn_share(key, stat):
        return share(lambda tr: tr["functions"].get(key, {}).get(stat, 0.0))

    m: dict[str, float] = {}
    for key in CALLS:
        m[f"{key}.calls"] = fns.get(key, {}).get("calls", 0)
    for key in SELF:
        m[f"{key}.self_share"] = fn_share(key, "self_s")
    for key in TOTAL:
        m[f"{key}.total_share"] = fn_share(key, "total_s")
    # the evaluator hecke_apply_W returns does the Kuznetsov-side work
    m["orbital.hecke_apply_W.total_share"] += fn_share("orbital.hecke_apply_W.value", "total_s")
    caches = first["caches"]
    osc_calls = fns.get("spaces.oscillatory_shell_integral", {}).get("calls", 0)
    m["spaces.osc_cache.entries"] = caches["osc_cache.entries"]
    m["spaces.osc_cache.hit_ratio"] = (1.0 - caches["osc_cache.entries"] / osc_calls
                                       if osc_calls else 0.0)
    m["spaces.frac_unit_key.hit_ratio"] = _ratio(
        caches["frac_unit_key.hits"], caches["frac_unit_key.hits"] + caches["frac_unit_key.misses"])
    m["localfield.valuation_cache.hit_ratio"] = _ratio(
        caches["valuation_cache.hits"], caches["valuation_cache.hits"] + caches["valuation_cache.misses"])
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = share(lambda tr: tr["layer_self_s"][layer])
    m["trace.verify_s"] = _median([t["verify_s"] for t in traced])
    m["trace.overhead_ratio"] = _ratio(m["trace.verify_s"],
                                       _median([u["verify_s"] for u in untraced]))
    return m


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Run:
    """One benchmark run: its jobs and their checks, each job printed as a record."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.attempted = 0
        self.failed = 0
        self.worst_error = 0.0  # largest measured error over its tolerance
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def job(self, index: int, trace: bool = False) -> dict:
        spec = job_spec(self.workload, self.seed, index, OUT_DIR)
        res = spawn(spec, trace=trace, timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        failed, why, error_ratio = check_job(spec, res, ROOT)
        self.attempted += spec["checks"]
        self.failed += failed
        self.worst_error = max(self.worst_error, error_ratio)
        inputs = {k: spec[k] for k in ("mode", "p", "argv", "items") if k in spec}
        print(json.dumps({
            "job": index, "trace": trace, "inputs": inputs,
            "setup_s": res["setup_s"], "setup_reference_s": res["setup_reference_s"],
            "verify_s": res["verify_s"],
            "reference_s": res.get("reference_s"),
            "peak_rss_mb": res["peak_rss_mb"], "checks": spec["checks"], "failed": failed,
            "why": why,
            "error_over_tolerance": error_ratio if math.isfinite(error_ratio) else None,
        }), flush=True)
        return res

    def room_for(self, cost: float) -> bool:
        """Whether a job of this cost still fits in the run."""
        return (self.elapsed() + cost <= self.seconds
                and self.elapsed() + cost <= RUN_LIMIT_S)


def scaled_setup_s(res: dict) -> float:
    """Set-up seconds at the nominal host speed: raw seconds times the nominal
    reference-loop time over the one measured right after set-up."""
    return res["setup_s"] * NOMINAL_REFERENCE_S / res["setup_reference_s"]


def run_timed(run: Run) -> tuple[dict[str, float], dict]:
    p = job_spec(run.workload, run.seed, 0, OUT_DIR)["p"]
    setups = [scaled_setup_s(spawn({"mode": "setup", "p": p})) for _ in range(SETUP_SAMPLES)]
    verify, relative, rss = [], [], []
    index = 0
    while True:
        res = run.job(index)
        index += 1
        setups.append(scaled_setup_s(res))
        verify.append(res["verify_s"])
        relative.append(res["verify_s"] / res["reference_s"])
        rss.append(res["peak_rss_mb"])
        if not run.room_for(_median(verify) + _median(setups)):
            break
    summary = {"samples": {"setup_s": len(setups), "verify_s": len(verify)},
               "verify_s_quartiles": _quartiles(verify),
               "verify_ref_quartiles": _quartiles(relative),
               "setup_s_quartiles": _quartiles(setups)}
    return ({"verify_ref": _median(relative), "setup_s": _median(setups),
             "peak_rss_mb": _median(rss)}, summary)


def run_traced(run: Run) -> tuple[dict[str, float], dict]:
    """Alternate untraced and traced runs of job 0 while time allows."""
    untraced, traced = [], []
    while True:
        untraced.append(run.job(0))
        traced.append(run.job(0, trace=True))
        if not run.room_for(untraced[-1]["verify_s"] + traced[-1]["verify_s"]):
            break
    counts = [{k: v["calls"] for k, v in t["trace"]["functions"].items()} | t["trace"]["caches"]
              for t in traced]
    summary = {"samples": {"untraced": len(untraced), "traced": len(traced)},
               "counts_repeat": all(c == counts[0] for c in counts),
               "functions": traced[0]["trace"]["functions"],
               "caches": traced[0]["trace"]["caches"]}
    return layer_metrics(traced, untraced), summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and waits for its job (subprocess.run does so on exit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "padicorb" / "__init__.py").is_file():
        print(f"error: no padicorb sources under {SRC}", file=sys.stderr)
        return 2
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": environment()}), flush=True)
    try:
        spawn({"mode": "setup", "p": 3})  # compiles bytecode before anything is timed
        run = Run(args.workload, args.seed, args.seconds)
        values, summary = run_traced(run) if args.trace else run_timed(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary.update(failed_ratio=run.failed / run.attempted,
                   worst_error_over_tolerance=(run.worst_error if math.isfinite(run.worst_error)
                                               else None))
    print(json.dumps({"summary": summary}), flush=True)
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
