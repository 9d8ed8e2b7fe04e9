"""Batch command-line front end: verification suites and orbital tables.

Subcommands:
  verify-fl        the Hecke fundamental lemma at the configured prime
  verify-matching  the matching isomorphism on seeded random elements
  tables           closed-form Kuznetsov orbital table vs the direct engine

Reports serialize to JSON (schemaVersion 1) or CSV; a fixed seed gives
byte-identical report files (wall-clock timings go to the console only).
Each subcommand takes only the options it reads (`OPTIONS`); an unread flag
is a usage error.  Flags override a key=value config file, which may also
carry the other subcommands' options; exit codes: 0 pass, 1 fail, 2 usage
error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from .errors import PadicOrbError
from .groups import HeckeElt
from .localfield import LocalFieldCtx, is_prime
from .orbital import (
    basic_fW0,
    hecke_apply_W,
    o_kuz_closed,
    o_kuz_direct,
    verify_fl,
    verify_matching,
)
from .groups import KSection

USAGE_ERROR = 2
COMPUTE_ERROR = 3


class UsageError(Exception):
    pass


def parse_hecke_list(spec: str) -> list[HeckeElt]:
    """';'-separated Hecke elements, each a comma list of n:coefficient.

    An empty spec defaults to h_0.
    """
    spec = (spec or "").strip()
    if not spec:
        return [HeckeElt.basis(0)]
    out = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        data: dict[int, complex] = {}
        for term in chunk.split(","):
            term = term.strip()
            if not term:
                continue
            if ":" not in term:
                raise UsageError(f"bad hecke term {term!r}; expected n:coefficient")
            n_str, c_str = term.split(":", 1)
            try:
                n = int(n_str)
                c = complex(c_str)
            except ValueError as exc:
                raise UsageError(f"bad hecke term {term!r}: {exc}") from exc
            if not cmath.isfinite(c):
                raise UsageError(f"hecke coefficient in {term!r} is not finite")
            if n < 0:
                raise UsageError("hecke indices must be >= 0")
            data[n] = data.get(n, 0j) + c
        out.append(HeckeElt.of(data))
    return out or [HeckeElt.basis(0)]


def parse_window(spec: str) -> tuple[int, int]:
    try:
        a, b = spec.split(":")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad window {spec!r}; expected a:b") from exc
    if lo > hi:
        raise UsageError("window must satisfy a <= b")
    return lo, hi


def _odd_prime(text: str) -> int:
    p = int(text)
    if not is_prime(p) or p == 2:
        raise UsageError(f"must be an odd prime, got {p}")
    return p


def _one_of(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            raise UsageError(f"must be one of {', '.join(choices)}")
        return text
    return convert


def _hecke_spec(text: str) -> str:
    # usage validation before any work; a zero element checks nothing (0 = 0)
    if any(h.is_zero() for h in parse_hecke_list(text)):
        raise UsageError("a Hecke element is zero")
    return text


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (cmath.isfinite(tol) and tol > 0):
        raise UsageError("must be a finite number > 0")
    return tol


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise UsageError("must be >= 1")
    return n


def _out_path(path: str) -> str:
    # the report is written after the run: reject an unwritable path before it
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise UsageError("not a file path in an existing directory")
    return path


_ALL = ("verify-fl", "verify-matching", "tables")

# option -> (converter, default, the commands that read it, help); flags,
# config-file values and defaults all pass through the converter
OPTIONS = {
    "p": (_odd_prime, "3", _ALL, "odd prime"),
    "ext": (_one_of("split", "inert"), "split", _ALL, "split or inert"),
    "hecke": (_hecke_spec, "0:1", ("verify-fl",),
              "Hecke elements: 'n:c,n:c;n:c' (';' separates elements; empty means h0)"),
    "val_window": (parse_window, "-4:4", ("verify-fl", "tables"), "valuation window a:b"),
    "tolerance": (_tolerance, "1e-8", _ALL, "pass threshold"),
    "seed": (int, "7", ("verify-matching",), "random seed"),
    "jobs": (_positive, "1", ("verify-fl",), "worker processes, one Hecke element each"),
    "samples": (_positive, "20", ("verify-matching",), "random samples"),
    "format": (_one_of("json", "csv"), "json", _ALL, "report format"),
    "out": (_out_path, "", _ALL, "report file path"),
}


def read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}; expected key=value")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """The options `args.command` reads: its flag, else the config file's
    value, else the default.  A config file may carry the options of the
    other commands, so one file serves all three; an unknown key is an error."""
    from_file = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(from_file) - set(OPTIONS))
    if unknown:
        raise UsageError(f"unknown config keys {unknown}")
    cfg = {}
    for key, (convert, default, commands, _) in OPTIONS.items():
        if args.command in commands:
            text = getattr(args, key)
            text = from_file.get(key, default) if text is None else text
            try:
                cfg[key] = convert(text)
            except (UsageError, ValueError) as exc:
                raise UsageError(f"--{key.replace('_', '-')} {text!r}: {exc}") from exc
    return cfg


def _header(cfg: dict) -> dict:
    """The report's `config` block: the command's options in camelCase, less
    the report path, so that reports written to two paths compare equal."""
    return {("valWindow" if key == "val_window" else key): value
            for key, value in cfg.items() if key != "out"}


def _write_report(cfg: dict, doc: dict, csv_rows: list[dict], name: str) -> str:
    if cfg["format"] == "json":
        text = json.dumps(doc, sort_keys=True, indent=1)
    else:
        buf = io.StringIO()
        if csv_rows:
            writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()))
            writer.writeheader()
            writer.writerows(csv_rows)
        text = buf.getvalue()
    path = cfg["out"] or f"{name}.{cfg['format']}"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _fl_single(task):
    p, kind, hdict, window, tol = task
    ctx = LocalFieldCtx(p)
    rep = verify_fl(ctx, kind, HeckeElt.of(hdict), window=window, tolerance=tol)
    return rep


def _hecke_label(coeffs: dict[int, complex]) -> str:
    """'n:c,...' in index order; c prints as a real number unless its
    imaginary part is nonzero."""
    return ",".join(f"{n}:{c.real:g}" if c.imag == 0 else f"{n}:{c:g}"
                    for n, c in sorted(coeffs.items()))


def cmd_verify_fl(cfg: dict) -> int:
    hs = parse_hecke_list(cfg["hecke"])
    tasks = [(cfg["p"], cfg["ext"], h.as_dict(), cfg["val_window"], cfg["tolerance"])
             for h in hs]
    start = time.perf_counter()
    if cfg["jobs"] > 1 and len(tasks) > 1:
        from multiprocessing import get_context  # only a pool pays for the import

        with get_context("fork").Pool(min(cfg["jobs"], len(tasks))) as pool:
            reports = pool.map(_fl_single, tasks)
    else:
        reports = [_fl_single(t) for t in tasks]
    all_pass = all(r.passed for r in reports)
    doc = {
        "schemaVersion": 1,
        "command": "verify-fl",
        "config": _header(cfg),
        "results": [r.to_json_dict() for r in reports],
        "maxError": max((r.max_error for r in reports), default=0.0),
        "pass": all_pass,
    }
    rows = []
    for r in reports:
        hstr = _hecke_label(r.hecke)
        for pt in r.points:
            rows.append({
                "hecke": hstr, "kind": r.kind, "xiVal": pt.xi_val,
                "xiNum": pt.xi_num, "lhsRe": pt.lhs.real, "lhsIm": pt.lhs.imag,
                "rhsRe": pt.rhs.real, "rhsIm": pt.rhs.imag,
                "absError": pt.abs_error,
            })
    path = _write_report(cfg, doc, rows, "fl_report")
    for r in reports:
        hstr = _hecke_label(r.hecke)
        print(f"[{'PASS' if r.passed else 'FAIL'}] fl p={r.p} {r.kind} h={{{hstr}}} "
              f"maxErr={r.max_error:.3e} const={r.fitted_constant:.10f} "
              f"({r.elapsed:.1f}s)")
    print(f"report: {path}  (total {time.perf_counter() - start:.1f}s)")
    return 0 if all_pass else 1


def cmd_verify_matching(cfg: dict) -> int:
    start = time.perf_counter()
    ctx = LocalFieldCtx(cfg["p"])
    rep = verify_matching(ctx, cfg["ext"], samples=cfg["samples"], seed=cfg["seed"],
                          tolerance=cfg["tolerance"])
    doc = {
        "schemaVersion": 1,
        "command": "verify-matching",
        "config": _header(cfg),
        "result": rep.to_json_dict(),
        "pass": rep.passed,
    }
    rows = [{
        "index": c.index, "shapeResidual": c.shape_residual,
        "ipLhsRe": c.ip_lhs.real, "ipLhsIm": c.ip_lhs.imag,
        "ipRhsRe": c.ip_rhs.real, "ipRhsIm": c.ip_rhs.imag,
        "ipError": c.ip_error,
    } for c in rep.cases]
    path = _write_report(cfg, doc, rows, "matching_report")
    print(f"[{'PASS' if rep.passed else 'FAIL'}] matching p={rep.p} {rep.kind} "
          f"samples={rep.samples} shape={rep.max_shape_residual:.3e} "
          f"ip={rep.max_ip_error:.3e} ({time.perf_counter() - start:.1f}s)")
    print(f"report: {path}")
    return 0 if rep.passed else 1


def cmd_tables(cfg: dict) -> int:
    start = time.perf_counter()
    ctx = LocalFieldCtx(cfg["p"])
    lo, hi = cfg["val_window"]
    # the basic vector at s = 1 carries |xi|^2 = q^(-2v)
    ctx.check_float_power(-2 * lo, f"valuation window {cfg['val_window']}")
    rows = []
    max_delta = 0.0
    for m in range(0, 5):
        for v in range(lo, hi + 1):
            xi = Fraction(ctx.p) ** v
            closed = o_kuz_closed(ctx, m, xi)
            direct = o_kuz_direct(ctx, KSection.of({m: 1.0}), KSection.basic(), xi)
            delta = abs(closed - direct)
            max_delta = max(max_delta, delta)
            rows.append({
                "table": "kuznetsov", "m": m, "xiVal": v,
                "closedRe": closed.real, "closedIm": closed.imag,
                "directRe": direct.real, "directIm": direct.imag,
                "delta": delta,
            })
    fw = basic_fW0(ctx, cfg["ext"], 1.0)
    fw_series = hecke_apply_W(ctx, cfg["ext"], HeckeElt.basis(0), 1.0)
    for v in range(lo, hi + 1):
        xi = Fraction(ctx.p) ** v
        closed = fw(xi)
        series = fw_series(xi)
        delta = abs(closed - series)
        max_delta = max(max_delta, delta)
        rows.append({
            "table": "basic-fs0(s=1)", "m": -1, "xiVal": v,
            "closedRe": closed.real, "closedIm": closed.imag,
            "directRe": series.real, "directIm": series.imag,
            "delta": delta,
        })
    doc = {
        "schemaVersion": 1,
        "command": "tables",
        "config": _header(cfg),
        "rows": rows,
        "maxDelta": max_delta,
        "pass": max_delta <= cfg["tolerance"],
    }
    path = _write_report(cfg, doc, rows, "tables")
    print(f"[{'PASS' if doc['pass'] else 'FAIL'}] tables p={ctx.p} "
          f"maxDelta={max_delta:.3e} ({time.perf_counter() - start:.1f}s)")
    print(f"report: {path}")
    return 0 if doc["pass"] else 1


COMMANDS = {
    "verify-fl": (cmd_verify_fl, "verify the Hecke fundamental lemma"),
    "verify-matching": (cmd_verify_matching, "verify the matching isomorphism on random input"),
    "tables": (cmd_tables, "emit closed-form vs direct orbital tables"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding only the options it reads."""
    ap = argparse.ArgumentParser(
        prog="padicorb",
        description="Exact nonarchimedean orbital-integral verification suites",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for key, (_, default, commands, what) in OPTIONS.items():
            if name in commands:
                sp.add_argument("--" + key.replace("_", "-"), dest=key,
                                help=f"{what} (default {default})" if default else what)
        sp.add_argument("--config", help="key=value config file (flags take precedence)")
    return ap


def _fold_value_flags(argv: list[str]) -> list[str]:
    """Glue values that begin with '-' onto their flag (e.g. --val-window -4:4)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--val-window", "--hecke", "--out") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _fold_value_flags(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command][0](resolve_config(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PadicOrbError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
