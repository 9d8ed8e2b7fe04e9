"""Self-test of the benchmark itself (not of padicorb): about two minutes.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout.  It checks that
  * job inputs are a pure function of (workload, seed, index);
  * the correctness gate fails every check of fl-inert-p5 at --tolerance 1e-30
    and none at the default tolerance, and counts a PadicOrbError or an error
    over the gate as a failed check;
  * two traced runs of one job give identical call counts and cache counts;
  * the traced self-time shares match the reason each workload exists;
  * the metric names the benchmark prints are exactly those BENCHMARK.json lists,
    and record.json covers the same metrics and workloads;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import OUT_DIR, ROOT, HERE, layer_metrics, spawn, unit_of
from workloads import WORKLOADS, check_job, job_spec

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_record() -> None:
    record = json.loads((HERE / "record.json").read_text())
    bench = benchmark_json()
    names = [x["name"] for x in bench["per_layer"]]
    expect(sorted(record["per_layer"]) == sorted(names),
           "record.json maps every per-layer metric to a layer and an end-to-end metric")
    expect(sorted(record["workloads"]) == sorted(WORKLOADS)
           == sorted(w["name"] for w in bench["workloads"]),
           "record.json, workloads.py and BENCHMARK.json list the same workloads")


def check_seeding() -> None:
    for w in WORKLOADS:
        for seed in (0, 1, 2024):
            a = [job_spec(w, seed, i, OUT_DIR) for i in range(3)]
            b = [job_spec(w, seed, i, OUT_DIR) for i in range(3)]
            expect(a == b, f"{w} seed {seed}: two generations are identical")
        expect(job_spec(w, 0, 0, OUT_DIR) != job_spec(w, 1, 0, OUT_DIR),
               f"{w}: seeds 0 and 1 give different inputs")


def check_gate() -> None:
    for tol, want in ((1e-8, "none"), (1e-30, "all")):
        spec = job_spec("fl-inert-p5", 5, 0, OUT_DIR, tolerance=tol)
        failed, why, _ = check_job(spec, spawn(spec), ROOT)
        expected = 0 if want == "none" else spec["checks"]
        expect(failed == expected,
               f"fl-inert-p5 at --tolerance {tol:g}: {failed}/{spec['checks']} checks "
               f"failed, expected {want} {why[:1]}")
    spec = job_spec("fl-split-p3", 0, 0, OUT_DIR)
    failed, _, _ = check_job(spec, {"rc": 3}, ROOT)
    expect(failed == spec["checks"], "a PadicOrbError (exit 3) fails every check of its job")
    spec = job_spec("dual-path-p3", 0, 0, OUT_DIR)
    items = [{"item": item, "error": 1e-15} for item in spec["items"]]
    items[1] = {"item": items[1]["item"], "raised": "PrecisionError: x"}
    items[2]["error"] = 1e-6
    failed, _, _ = check_job(spec, {"items": items}, ROOT)
    expect(failed == 2, "a library job counts a raised error and an error over the gate")


def counts(res: dict) -> dict:
    trace = res["trace"]
    return {**{k: v["calls"] for k, v in trace["functions"].items()}, **trace["caches"]}


def check_trace(workload: str) -> None:
    spec = job_spec(workload, 3, 0, OUT_DIR)
    runs = []
    for _ in range(2):
        res = spawn(spec, trace=True)
        failed, why, _ = check_job(spec, res, ROOT)
        expect(failed == 0, f"{workload}: traced job passes its checks {why[:1]}")
        runs.append(res)
    a, b = counts(runs[0]), counts(runs[1])
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    expect(not diff, f"{workload}: counts repeat exactly over two traced runs {diff[:5]}")

    m = layer_metrics(runs, runs)
    names = {x["name"] for x in benchmark_json()["per_layer"]}
    expect(set(m) == names, f"{workload}: traced metrics are BENCHMARK.json's per_layer "
                            f"{sorted(set(m) ^ names)}")
    units = {x["name"]: x["unit"] for x in benchmark_json()["per_layer"]}
    expect(all(units.get(k) == unit_of(k) for k in m), f"{workload}: per-layer units agree")

    share = {layer: m[f"layer.{layer}.self_share"]
             for layer in ("groups", "spaces", "orbital", "bruhat")}
    fns = runs[0]["trace"]["functions"]
    groups_calls = sum(v["calls"] for k, v in fns.items() if k.startswith("groups."))
    if workload == "fl-split-p3":
        literal = share["groups"] + m["orbital.o_torus_group.self_share"]
        subtree = m["orbital.o_torus_group.total_share"]
        print(f"     groups + o_torus_group self share {literal:.3f}; "
              f"o_torus_group subtree share {subtree:.3f}")
        expect(subtree >= 0.80, f"fl-split-p3: the torus side takes >= 80% ({subtree:.3f})")
        expect(share["spaces"] < 0.10, f"fl-split-p3: spaces < 10% ({share['spaces']:.3f})")
    elif workload == "matching-p3":
        expect(share["spaces"] >= 0.80, f"matching-p3: spaces >= 80% ({share['spaces']:.3f})")
        expect(groups_calls == 0, "matching-p3: groups is never called")
    elif workload == "dual-path-p3":
        baby = share["orbital"] + share["bruhat"]
        expect(groups_calls == 0, "dual-path-p3: groups is never called, so all orbital "
                                  "time is baby charts")
        expect(baby >= 0.50, f"dual-path-p3: orbital baby charts + bruhat >= 50% ({baby:.3f})")


def check_end_to_end_names() -> None:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "fl-split-p3",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    want = {x["name"]: x["unit"] for x in benchmark_json()["end_to_end"]}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    expect(out.returncode == 0 and got == want and last["correct"],
           f"run.py --trace 0 prints exactly the end_to_end metrics {got}")


def check_bare_directory() -> None:
    bare = ROOT / OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fl-split-p3",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0 and '"correct"' not in out.stdout,
               f"without src/ the benchmark exits {out.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv: list[str]) -> int:
    workloads = argv or list(WORKLOADS)
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads {sorted(unknown)}; choose from {WORKLOADS}")
        return 2
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    check_record()
    check_seeding()
    check_gate()
    check_end_to_end_names()
    check_bare_directory()
    for w in workloads:
        check_trace(w)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
