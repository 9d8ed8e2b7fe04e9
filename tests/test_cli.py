import csv
import json

import pytest

from padicorb.cli import main, parse_hecke_list, parse_window, UsageError


def run(args):
    return main(args)


def test_usage_errors(tmp_path):
    assert run(["verify-fl", "--p", "4"]) == 2
    assert run(["verify-fl", "--p", "-3"]) == 2
    assert run(["verify-fl", "--p", "3", "--ext", "weird"]) == 2
    assert run(["verify-fl", "--p", "3", "--val-window", "nope"]) == 2
    assert run(["verify-fl", "--p", "3", "--hecke", "x:y"]) == 2
    assert run(["verify-fl", "--p", "3", "--hecke", "0:nan"]) == 2
    assert run(["verify-fl", "--p", "3", "--hecke", "0:1,1:inf"]) == 2
    # a zero element checks nothing, from a flag or a config file
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("hecke=1:1;0:1,0:-1\n")
    for args in (["--hecke", "0:0"], ["--hecke", "1:1;2:0"], ["--config", str(cfg)]):
        assert run(["verify-fl", "--p", "3", *args, "--out", str(tmp_path / "z.json")]) == 2
    assert not (tmp_path / "z.json").exists()
    for tol in ("nan", "inf", "-1", "0"):
        assert run(["tables", "--p", "3", "--tolerance", tol]) == 2
    # a tiny finite tolerance is valid: the run completes and its checks fail
    assert run(["tables", "--p", "3", "--val-window", "0:0", "--tolerance", "1e-30",
                "--out", str(tmp_path / "t.json")]) == 1
    assert run(["nonsense"]) == 2
    # each command takes only the options it reads: an unread flag exits 2
    # before any work starts
    out = tmp_path / "unread.json"
    for command, flag, value in (("verify-fl", "--seed", "1"), ("verify-fl", "--samples", "2"),
                                 ("verify-matching", "--hecke", "1:1"),
                                 ("verify-matching", "--val-window", "-2:2"),
                                 ("verify-matching", "--jobs", "2"),
                                 ("tables", "--hecke", "1:1"), ("tables", "--seed", "1"),
                                 ("tables", "--jobs", "2"), ("tables", "--samples", "2")):
        assert run([command, "--p", "3", flag, value, "--out", str(out)]) == 2, (command, flag)
        assert not out.exists()


def test_config_block_holds_the_command_options(tmp_path):
    """A report's `config` echoes exactly the options its command reads."""
    want = {"verify-fl": {"p", "ext", "hecke", "valWindow", "tolerance", "jobs", "format"},
            "verify-matching": {"p", "ext", "seed", "samples", "tolerance", "format"},
            "tables": {"p", "ext", "valWindow", "tolerance", "format"}}
    argv = {"verify-fl": ["--val-window", "0:0"], "verify-matching": ["--samples", "1"],
            "tables": ["--val-window", "0:0"]}
    for command, keys in want.items():
        out = tmp_path / f"{command}.json"
        assert run([command, "--p", "3", *argv[command], "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["config"]) == keys, command


def test_hecke_parsing():
    hs = parse_hecke_list("")
    assert len(hs) == 1 and hs[0].as_dict() == {0: 1}
    hs = parse_hecke_list("0:1;1:1;2:0.5,0:1")
    assert len(hs) == 3
    assert hs[2].as_dict() == {2: 0.5, 0: 1}
    with pytest.raises(UsageError):
        parse_hecke_list("-1:2")
    assert parse_window("-4:4") == (-4, 4)
    with pytest.raises(UsageError):
        parse_window("4:-4")


def test_tables_csv_json_identical_numerics(tmp_path):
    out_json = tmp_path / "t.json"
    out_csv = tmp_path / "t.csv"
    assert run(["tables", "--p", "3", "--val-window", "-2:2",
                "--out", str(out_json)]) == 0
    assert run(["tables", "--p", "3", "--val-window", "-2:2", "--format", "csv",
                "--out", str(out_csv)]) == 0
    doc = json.loads(out_json.read_text())
    assert doc["schemaVersion"] == 1 and doc["pass"]
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(doc["rows"])
    for r_csv, r_json in zip(rows, doc["rows"]):
        assert abs(float(r_csv["closedRe"]) - r_json["closedRe"]) < 1e-15
        assert abs(float(r_csv["directRe"]) - r_json["directRe"]) < 1e-15
        assert abs(float(r_csv["delta"]) - r_json["delta"]) < 1e-15
    assert all(float(r["delta"]) <= 1e-10 for r in rows)


def test_matching_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify-matching", "--p", "3", "--ext", "split", "--samples", "2",
                "--seed", "9", "--out", str(a)]) == 0
    assert run(["verify-matching", "--p", "3", "--ext", "split", "--samples", "2",
                "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\next=split\nsamples=2\nseed=4\nval-window=-2:2\n")
    out = tmp_path / "r.json"
    assert run(["verify-matching", "--config", str(cfg), "--ext", "inert",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["ext"] == "inert"  # flag wins
    assert doc["config"]["samples"] == 2    # file value survives
    assert doc["config"]["seed"] == 4
    # val-window belongs to verify-fl and tables: accepted, not echoed
    assert "valWindow" not in doc["config"]


def test_config_file_unknown_keys(tmp_path):
    """A misspelt or retired key is a usage error, not a silent default."""
    for text in ("sampels=2\nval-windw=-1:1\n", "precision=40\n", "tolerance=nan\n"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["verify-matching", "--config", str(cfg),
                    "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def test_config_file_unreadable(tmp_path):
    """A config path that cannot be read as text is a usage error."""
    garbled = tmp_path / "garbled.cfg"
    garbled.write_bytes(b"\xff\xfe\n")
    for path in (tmp_path / "missing.cfg", garbled, tmp_path):
        assert run(["tables", "--p", "3", "--config", str(path),
                    "--out", str(tmp_path / "t.json")]) == 2
    assert not (tmp_path / "t.json").exists()


def test_out_path_checked_before_any_run(tmp_path, monkeypatch):
    """An --out path whose directory is missing, or that is a directory, is
    rejected before the verification starts."""
    def no_run(*args, **kwargs):
        raise AssertionError("verify_fl ran before --out was checked")

    monkeypatch.setattr("padicorb.cli.verify_fl", no_run)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert run(["verify-fl", "--p", "3", "--out", str(out)]) == 2
    assert run(["tables", "--p", "3", "--out", str(tmp_path / "nodir" / "x.json")]) == 2
    assert not (tmp_path / "missing").exists()


def test_verify_fl_cli_smoke(tmp_path):
    out = tmp_path / "fl.json"
    code = run(["verify-fl", "--p", "3", "--ext", "inert", "--hecke", "1:1",
                "--val-window", "-2:2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] and doc["schemaVersion"] == 1
    assert doc["results"][0]["fittedConstant"][0] == pytest.approx(1.0, abs=1e-9)


def test_verify_fl_passes_at_a_large_hecke_element(tmp_path):
    """The FL gate is relative to the window's largest |rhs|: 1e15 h0 passes
    with an error of a few units at |rhs| about 6e15, and the report keeps
    every field of a passing run."""
    out = tmp_path / "fl.json"
    assert run(["verify-fl", "--p", "3", "--ext", "split", "--hecke", "0:1e15",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    result = doc["results"][0]
    assert doc["pass"] and result["pass"] and 1.0 < result["maxError"] < 1e3
    assert set(result) == {"p", "kind", "hecke", "window", "points", "fittedConstant",
                           "maxError", "pass"}


def test_window_past_float_range_is_a_computation_failure(tmp_path, capsys):
    """A window whose q-power overflows a float (q^-lo for verify-fl, its square
    for the s = 1 basic vector of tables) exits 3 with a typed error, before any
    report is written; the shell above the bound still runs."""
    out = tmp_path / "r.json"
    for args in (["verify-fl", "--val-window", "-700:-690"],
                 ["verify-fl", "--p", "5", "--val-window", "-442:-442"],
                 ["tables", "--val-window", "-330:-324"],
                 ["tables", "--p", "5", "--val-window", "-221:-221"]):
        assert run([*args, "--out", str(out)]) == 3, args
        assert "DomainError" in capsys.readouterr().err and not out.exists()
    assert run(["tables", "--val-window", "-323:-323", "--out", str(out)]) in (0, 1)
    assert out.exists()


def test_hecke_degree_past_float_range_is_a_computation_failure(tmp_path, capsys):
    """A Hecke degree whose q^(-n/2) underflows exits 3 with a typed error at
    once, before any report is written, instead of verifying h0 alone."""
    out = tmp_path / "r.json"
    assert run(["verify-fl", "--p", "3", "--ext", "split", "--hecke", "0:1,1400:1",
                "--out", str(out)]) == 3
    assert "DomainError" in capsys.readouterr().err and not out.exists()


def test_verify_fl_complex_hecke_label(tmp_path, capsys):
    """A coefficient with an imaginary part keeps it in the printed label and
    in the CSV hecke column; a real coefficient prints as a real number."""
    out = tmp_path / "fl.csv"
    assert run(["verify-fl", "--p", "3", "--ext", "split", "--hecke", "0:1,1:1j;1:2",
                "--val-window", "-1:1", "--format", "csv", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "h={0:1,1:0+1j}" in printed and "h={1:2}" in printed
    with open(out) as fh:
        assert {row["hecke"] for row in csv.DictReader(fh)} == {"0:1,1:0+1j", "1:2"}


def test_verify_fl_parallel_jobs(tmp_path):
    seq, par = tmp_path / "s.json", tmp_path / "p.json"
    args = ["verify-fl", "--p", "3", "--ext", "inert", "--hecke", "0:1;1:1",
            "--val-window", "-2:2"]
    assert run(args + ["--out", str(seq)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(par)]) == 0
    a, b = json.loads(seq.read_text()), json.loads(par.read_text())
    a["config"].pop("jobs"), b["config"].pop("jobs")
    assert a == b  # deterministic merge independent of the worker pool


def test_matching_tightened_tolerance(tmp_path):
    out = tmp_path / "m.json"
    assert run(["verify-matching", "--p", "3", "--ext", "split", "--samples", "2",
                "--seed", "3", "--tolerance", "1e-12", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"]
