"""The benchmark's workloads: seeded inputs for one job, and the check of its outputs.

A job is one verification in a fresh interpreter.  Its inputs come only from
(workload, run seed, job index), through a string-seeded `random.Random`,
so the same seed always yields the same argv and library seeds.  The program
receives only those generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

TOLERANCE = 1e-8        # the CLI's default acceptance tolerance, passed explicitly
DUAL_PATH_GATE = 1e-9   # criterion 4: worst |O(Phi-hat) - G f| over the grid
DUAL_PATH_PHIS = 6      # Phi per dual-path job
MATCHING_SAMPLES = 2    # S(Z) elements per matching job: one cold _osc_cache, one warm

WORKLOADS = ("fl-split-p3", "fl-inert-p5", "matching-p3", "dual-path-p3")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"padicorb-bench:{workload}:{seed}:{index}")


def _coef(rng: random.Random) -> int:
    return rng.randint(1, 9)


def job_spec(workload: str, seed: int, index: int, out_dir: str,
             tolerance: float = TOLERANCE) -> dict:
    """Inputs of job `index` of a run of `workload` at run seed `seed`.

    `out_dir` is where a CLI job writes its report, relative to the checkout.
    """
    rng = _rng(workload, seed, index)
    out = f"{out_dir}/{workload}-{index}.json"
    common = ["--tolerance", repr(tolerance), "--jobs", "1", "--format", "json", "--out", out]
    if workload == "fl-split-p3":
        hecke = f"0:{_coef(rng)},1:{_coef(rng)}"
        argv = ["verify-fl", "--p", "3", "--ext", "split", "--hecke", hecke, *common]
        return {"mode": "cli", "p": 3, "argv": argv, "report": out, "checks": 1}
    if workload == "fl-inert-p5":
        hecke = f"0:{_coef(rng)},1:{_coef(rng)},2:{_coef(rng)}"
        argv = ["verify-fl", "--p", "5", "--ext", "inert", "--hecke", hecke, *common]
        return {"mode": "cli", "p": 5, "argv": argv, "report": out, "checks": 1}
    if workload == "matching-p3":
        items = [[rng.randrange(1 << 31)] for _ in range(MATCHING_SAMPLES)]
        return {"mode": "matching", "p": 3, "items": items, "gate": tolerance,
                "checks": MATCHING_SAMPLES}
    if workload == "dual-path-p3":
        # [value seed, kind, shape seed]: the shapes are the same in every job
        items = [[rng.randrange(1 << 31), "split" if i % 2 == 0 else "inert", i]
                 for i in range(DUAL_PATH_PHIS)]
        return {"mode": "dual-path", "p": 3, "items": items, "gate": DUAL_PATH_GATE,
                "checks": DUAL_PATH_PHIS}
    raise ValueError(f"unknown workload {workload!r}")


def check_job(spec: dict, result: dict, root: Path) -> tuple[int, list[str], float]:
    """(failed checks, reasons, worst error over its tolerance) of one finished job.

    `spec["checks"]` checks were attempted.  A CLI check fails on a nonzero
    exit (3 is a raised PadicOrbError), a report whose `pass` is false, or a
    result outside the tolerance: for FL every point's error and the fitted
    constant's distance from 1, for matching the shape residual and the
    inner-product error.  A library item (one matching element or one
    dual-path Phi) fails when it raised a PadicOrbError or its error exceeds
    the gate.  The error ratio is recorded, not gated; it is inf when a check
    could not measure one.
    """
    if spec["mode"] != "cli":
        errors = [r.get("error", float("inf")) for r in result["items"]]
        bad = [f"item {r['item']}: {r.get('raised') or r['error']}"
               for r, err in zip(result["items"], errors) if not err <= spec["gate"]]
        if len(errors) != spec["checks"]:
            bad.append(f"{len(errors)} items, expected {spec['checks']}")
        return min(len(bad), spec["checks"]), bad, max(errors, default=float("inf")) / spec["gate"]
    report = root / spec["report"]
    if result["rc"] != 0:
        report.unlink(missing_ok=True)
        return spec["checks"], [f"exit code {result['rc']}"], float("inf")
    doc = json.loads(report.read_text())
    report.unlink()
    tol = doc["config"]["tolerance"]
    if doc["command"] == "verify-fl":
        verdicts = []
        for r in doc["results"]:
            const_err = abs(complex(*r["fittedConstant"]) - 1)
            err = max([const_err] + [pt["absError"] for pt in r["points"]])
            verdicts.append((r["pass"] and err <= tol, err,
                             f"hecke {r['hecke']}: maxError {r['maxError']:.3e}, "
                             f"|fittedConstant - 1| {const_err:.3e}"))
    else:
        verdicts = [(c["shapeResidual"] <= tol and c["ipError"] <= tol,
                     max(c["shapeResidual"], c["ipError"]),
                     f"sample {c['index']}: shape {c['shapeResidual']:.3e}, "
                     f"ip {c['ipError']:.3e}")
                    for c in doc["result"]["cases"]]
    bad = [why for ok, _, why in verdicts if not ok]
    if not doc["pass"] and not bad:
        bad = ["report pass is false"]
    if len(verdicts) != spec["checks"]:
        bad.append(f"{len(verdicts)} verdicts, expected {spec['checks']}")
    worst = max((err for _, err, _ in verdicts), default=float("inf"))
    return min(len(bad), spec["checks"]), bad, worst / tol
