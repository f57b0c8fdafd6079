"""Shared document-verb wiring used by bench, perf, fleet, slo and replay."""

import argparse

from repro import cli_util, doc


def _parser(kind="bench"):
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true")
    cli_util.add_document_args(parser, kind)
    return parser


def test_document_path_defaults():
    args = _parser().parse_args([])
    assert cli_util.document_path(args, "bench") == ("full", "BENCH_full.json")
    args = _parser().parse_args(["--smoke"])
    assert cli_util.document_path(args, "bench") == ("smoke", "BENCH_smoke.json")
    args = _parser().parse_args(["--smoke", "--label", "ci"])
    assert cli_util.document_path(args, "bench") == ("ci", "BENCH_ci.json")
    args = _parser().parse_args(["--json", "out.json"])
    assert cli_util.document_path(args, "bench") == ("full", "out.json")
    # bare --json means "the default path" (used by `repro fleet --json`)
    args = _parser("fleet").parse_args(["--json"])
    assert cli_util.document_path(args, "fleet") == ("full", "FLEET_full.json")


def test_threshold_default_is_per_verb():
    assert _parser("bench").parse_args([]).threshold == 0.10
    assert _parser("perf").parse_args([]).threshold == 0.20


def test_run_compare_not_requested():
    args = _parser().parse_args([])
    assert cli_util.run_compare(args, "bench") is None


def _save(path, throughput):
    figures = {"fig": {"variant": {"throughput_mbps": throughput}}}
    doc.save(str(path), doc.new("bench", {"label": path.stem,
                                          "config": {"seed": 1},
                                          "figures": figures}))
    return str(path)


def test_run_compare_exit_codes(capsys, tmp_path):
    base = _save(tmp_path / "a.json", 100.0)
    worse = _save(tmp_path / "b.json", 50.0)
    args = _parser().parse_args(["--compare", base, base])
    assert cli_util.run_compare(args, "bench") == 0
    assert "bench compare" in capsys.readouterr().out
    args = _parser().parse_args(["--compare", base, worse])
    assert cli_util.run_compare(args, "bench") == 1
    args = _parser().parse_args(["--compare", base, worse, "--warn-only"])
    assert cli_util.run_compare(args, "bench") == 0


def test_run_compare_unreadable_document_exits_two(capsys, tmp_path):
    base = _save(tmp_path / "a.json", 100.0)
    missing = str(tmp_path / "missing.json")
    args = _parser().parse_args(["--compare", base, missing])
    assert cli_util.run_compare(args, "bench") == 2
    err = capsys.readouterr().err
    assert missing in err and len(err.splitlines()) == 1
