"""End-to-end checks of the command line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from expert_spread import cli
from expert_spread.config import (
    InternalStateError,
    ReduceContradictionError,
    TransformContractError,
)

CLI = [sys.executable, "-m", "expert_spread.cli"]
# the subprocess imports the same package as this test process
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args, stdin=None):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_bound_reports_both_bounds():
    proc = run_cli("bound", "1/4")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["lambda_sharp"] == "2/5"
    assert report["lambda_sharp_dec"] == "0.4"
    assert report["pitman_upper"] == "1/2"
    assert report["achieved"] == "2/5"


def test_bound_above_one_half_blanks_the_linear_bound():
    proc = run_cli("bound", "3/4")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["lambda_sharp"] == "1"
    assert report["pitman_upper"] is None


def test_bound_rejects_bad_threshold():
    assert run_cli("bound", "0").returncode == 2
    assert run_cli("bound", "7/5").returncode == 2
    assert run_cli("bound", "garbage").returncode == 2


def test_extremal_output_is_deterministic(tmp_path):
    first = run_cli("extremal", "1/4")
    second = run_cli("extremal", "1/4")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    cfg = json.loads(first.stdout)
    assert cfg["delta"] == "1/4"
    assert cfg["cols"] == 2 and cfg["rows"] == 2
    path = tmp_path / "ext.json"
    assert run_cli("extremal", "1/4", "--out", str(path)).returncode == 0
    assert json.loads(path.read_text()) == cfg


def test_extremal_pipes_into_verify():
    witness = run_cli("extremal", "1/4").stdout
    proc = run_cli("verify", "-", stdin=witness)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["prob_B"] == "2/5"
    assert report["bound_respected"] is True
    assert report["overlap_violations"] == []
    assert report["separation_violations"] == []
    assert report["pitman_inclusion_violations"] == []


def test_verify_reads_files(tmp_path):
    path = tmp_path / "cfg.json"
    run_cli("extremal", "2/5", "--out", str(path))
    assert run_cli("verify", str(path)).returncode == 0


@pytest.mark.parametrize(
    "name, broken, field, shown",
    [
        ("overlap_violations", lambda cfg: [(1, 2)], "overlap_violations", [[1, 2]]),
        ("separation_violations", lambda cfg: [(2, 1)], "separation_violations", [[2, 1]]),
        (
            "pitman_inclusion_violations",
            lambda cfg: [(1, 1)],
            "pitman_inclusion_violations",
            [[1, 1]],
        ),
        ("lambda_sharp", lambda delta: Fraction(1, 3), "bound_respected", False),
    ],
)
def test_verify_exits_one_on_a_violation(
    tmp_path, monkeypatch, capsys, name, broken, field, shown
):
    # each check guards a proved inequality, so a violation is forced by
    # breaking the check itself
    path = tmp_path / "cfg.json"
    assert cli.main(["extremal", "2/5", "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, name, broken)
    assert cli.main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report[field] == shown
    assert report["ok"] is False


def test_verify_error_exits(tmp_path):
    assert run_cli("verify", str(tmp_path / "missing.json")).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run_cli("verify", str(bad)).returncode == 2


def test_reduce_pipeline(tmp_path):
    cfg_path = tmp_path / "ext.json"
    run_cli("extremal", "1/4", "--out", str(cfg_path))
    out_path = tmp_path / "reduced.json"
    trace_path = tmp_path / "trace.jsonl"
    proc = run_cli(
        "reduce",
        "--eps",
        "1/100",
        "--out",
        str(out_path),
        "--trace",
        str(trace_path),
        str(cfg_path),
    )
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["before"] == "2/5"
    assert summary["after"] == "2/5"
    assert summary["certificate"] == "2/5"
    assert summary["steps"] >= 1
    lines = trace_path.read_text().splitlines()
    assert len(lines) == summary["steps"]
    for line in lines:
        step = json.loads(line)
        assert step["prob_b_nondecreasing"] is True
    reduced = json.loads(out_path.read_text())
    assert run_cli("verify", "-", stdin=json.dumps(reduced)).returncode == 0


def test_reduce_rejects_bad_epsilon(tmp_path):
    cfg_path = tmp_path / "ext.json"
    run_cli("extremal", "1/4", "--out", str(cfg_path))
    assert run_cli("reduce", "--eps", "0", str(cfg_path)).returncode == 2


def test_search_exhaustive():
    proc = run_cli("search", "1/4", "--denom", "5")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["method"] == "exhaustive"
    assert result["best_prob_B"] == "2/5"
    assert result["configs_evaluated"] == 792


def test_search_hill_climb():
    proc = run_cli("search", "1/4", "--iters", "300", "--seed", "9")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["method"] == "hill_climb"
    assert result["seed"] == 9
    assert result["configs_evaluated"] == 300


def test_curve_csv(tmp_path):
    csv_path = tmp_path / "curve.csv"
    proc = run_cli(
        "curve",
        "--from",
        "1/100",
        "--to",
        "49/100",
        "--steps",
        "12",
        "--out",
        str(csv_path),
    )
    assert proc.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "delta,delta_dec,lambda_sharp,lambda_sharp_dec,"
        "pitman_upper,pitman_upper_dec"
    )
    assert len(lines) == 13
    assert lines[1].startswith("1/100,")
    assert lines[-1].startswith("49/100,")


def test_curve_blanks_linear_bound_past_one_half(tmp_path):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    proc = run_cli(
        "curve",
        "--from",
        "2/5",
        "--to",
        "3/5",
        "--steps",
        "5",
        "--out",
        str(csv_path),
        "--svg",
        str(svg_path),
    )
    assert proc.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[3] == "1/2,0.5,1,1,,"
    assert lines[-1].startswith("3/5,")
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_discretize_converts_and_coarsens(tmp_path):
    space_path = tmp_path / "space.json"
    space_path.write_text(
        json.dumps(
            {
                "atoms": [
                    {"w": "3/5", "a": "0", "g": "g1", "h": "h1"},
                    {"w": "1/5", "a": "1/5", "g": "g1", "h": "h2"},
                    {"w": "1/5", "a": "1/5", "g": "g2", "h": "h1"},
                ]
            }
        )
    )
    direct = run_cli("discretize", "--delta", "1/4", str(space_path))
    assert direct.returncode == 0
    assert json.loads(direct.stdout)["prob_B"] == "2/5"

    out_path = tmp_path / "coarse.json"
    coarse = run_cli(
        "discretize",
        "--delta",
        "1/4",
        "--n",
        "4",
        "--out",
        str(out_path),
        str(space_path),
    )
    assert coarse.returncode == 0
    report = json.loads(coarse.stdout)
    assert report["comparison_holds"] is True
    assert report["max_x_shift"] == "0"
    assert report["raw_spread"] == "2/5"
    cfg = json.loads(out_path.read_text())
    assert run_cli("verify", "-", stdin=json.dumps(cfg)).returncode == 0


def test_usage_errors_exit_two():
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("search", "1/4", "--denom", "-3").returncode == 2
    # refused before the search allocates its per-cell lists
    proc = run_cli("search", "1/4", "--cols", "100000", "--rows", "100000", "--iters", "1")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")


def test_malformed_documents_exit_two(tmp_path):
    path = tmp_path / "doc.json"
    one = {"col": 1, "row": 1, "a": "1", "ac": "0"}
    for command, text in (
        ("verify", json.dumps({"delta": "1/4", "cols": 1, "rows": 1, "cells": 5})),
        ("verify", json.dumps({"delta": 0.1, "cols": 1, "rows": 1, "cells": [one]})),
        ("verify", b"\xff\xfe"),
        # past the digit limit, as a string and as a JSON integer too long for int()
        ("verify", json.dumps({"delta": "1/4", "cols": 1, "rows": 1, "cells": [{**one, "ac": "1e-5000"}]})),
        ("verify", '{"delta": "1/4", "cols": 1, "rows": 1, "cells": [{"col": 1, "row": 1, "a": 1%s}]}' % ("0" * 5000)),
        ("discretize", json.dumps({"atoms": 5})),
        ("discretize", "not json"),
        ("discretize", b"\xff\xfe"),
        ("discretize", "[" * 10**5 + "]" * 10**5),
    ):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        args = ["--delta", "1/4"] if command == "discretize" else []
        proc = run_cli(command, *args, str(path))
        assert proc.returncode == 2, text
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "error",
    [
        InternalStateError("merge fixpoint is not a staircase"),
        TransformContractError("augmentation failed to occupy both corners"),
        ReduceContradictionError("corner-pure-complement", {"column": 2, "row": 3}),
    ],
)
def test_internal_errors_exit_three(monkeypatch, capsys, error):
    def broken(*args):
        raise error

    monkeypatch.setattr(cli, "hill_climb", broken)
    assert cli.main(["search", "1/4"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines[0] == f"internal error: {error}"
    if isinstance(error, ReduceContradictionError):
        assert json.loads(lines[1]) == {"column": 2, "row": 3}
    else:
        assert len(lines) == 1
