"""End-to-end checks of the command line interface.

The commands run in this process through ``cli.main``; one test runs
``python -m expert_spread.cli``, the module entry point.
"""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from expert_spread import cli
from expert_spread.search import _column_walker, exhaustive_search, hill_climb
from expert_spread.bounds import certify_upper_bound
from expert_spread.config import (
    InternalStateError,
    ReduceContradictionError,
    TransformContractError,
    compute_stats,
    dump_config,
    load_config,
    normalize,
)
from expert_spread.discretize import load_space, to_configuration
from expert_spread.transforms import reduce as reduce_config

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


def run_main(capsys, *argv, stdin=None):
    """Run ``cli.main(argv)`` in this process; return the exit code and stdout.

    ``stdin``, a string, is what the command reads for a ``-`` path.
    """
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, capsys.readouterr().out


def main_exit(capsys, *argv):
    """Run ``cli.main(argv)`` in this process; return the exit code and stderr.

    argparse ends a usage error by raising ``SystemExit(2)``, caught here.
    """
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def assert_one_error_line(code, err, context=None):
    """Exit 2 with exactly one ``error:`` line on stderr and no traceback."""
    assert code == 2, context
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bound_reports_both_bounds(capsys):
    code, out = run_main(capsys, "bound", "1/4")
    assert code == 0
    report = json.loads(out)
    assert report["lambda_sharp"] == "2/5"
    assert report["lambda_sharp_dec"] == "0.4"
    assert report["pitman_upper"] == "1/2"
    assert report["achieved"] == "2/5"


def test_bound_above_one_half_blanks_the_linear_bound(capsys):
    code, out = run_main(capsys, "bound", "3/4")
    assert code == 0
    report = json.loads(out)
    assert report["lambda_sharp"] == "1"
    assert report["pitman_upper"] is None
    # one half itself is the first threshold with no linear bound
    code, out = run_main(capsys, "bound", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["lambda_sharp"] == "1"
    assert report["pitman_upper"] is None
    assert report["achieved"] == report["certified_upper"] == "2/3"


def test_bound_rejects_bad_threshold(capsys):
    for delta in ("0", "7/5", "garbage"):
        assert main_exit(capsys, "bound", delta)[0] == 2


def test_extremal_output_is_deterministic(tmp_path, capsys):
    first = run_main(capsys, "extremal", "1/4")
    second = run_main(capsys, "extremal", "1/4")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    cfg = json.loads(first[1])
    assert cfg["delta"] == "1/4"
    assert cfg["cols"] == 2 and cfg["rows"] == 2
    path = tmp_path / "ext.json"
    assert run_main(capsys, "extremal", "1/4", "--out", str(path)) == (0, "")
    assert json.loads(path.read_text()) == cfg


def test_extremal_pipes_into_verify():
    """Through the module entry point, ``python -m expert_spread.cli``, as a pipe."""
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


def test_verify_reads_files(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    assert run_main(capsys, "extremal", "2/5", "--out", str(path))[0] == 0
    code, out = run_main(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


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


def test_verify_error_exits(tmp_path, capsys):
    assert_one_error_line(*main_exit(capsys, "verify", str(tmp_path / "missing.json")))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert_one_error_line(*main_exit(capsys, "verify", str(bad)))


def test_reduce_pipeline(tmp_path, capsys):
    cfg_path = tmp_path / "ext.json"
    assert run_main(capsys, "extremal", "1/4", "--out", str(cfg_path))[0] == 0
    out_path = tmp_path / "reduced.json"
    trace_path = tmp_path / "trace.jsonl"
    code, out = run_main(
        capsys,
        "reduce",
        "--eps",
        "1/100",
        "--out",
        str(out_path),
        "--trace",
        str(trace_path),
        str(cfg_path),
    )
    assert code == 0
    summary = json.loads(out)
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
    assert run_main(capsys, "verify", "-", stdin=json.dumps(reduced))[0] == 0


def test_reduce_drops_a_zero_mass_line_that_verify_refuses(tmp_path, capsys):
    """reduce reports the spread of its normalized input; verify exits 2."""
    cells = [
        {"col": 1, "row": 1, "a": "0", "ac": "3/5"},
        {"col": 1, "row": 2, "a": "1/5", "ac": "0"},
        {"col": 3, "row": 1, "a": "1/5", "ac": "0"},
    ]
    # column 2 holds no mass
    cfg_path = tmp_path / "zero_column.json"
    cfg_path.write_text(json.dumps({"delta": "1/4", "cols": 3, "rows": 2, "cells": cells}))
    out_path = tmp_path / "reduced.json"
    trace_path = tmp_path / "trace.jsonl"
    argv = ["reduce", "--eps", "1/100", "--out", str(out_path), "--trace", str(trace_path)]
    code, out = run_main(capsys, *argv, str(cfg_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["before"] == summary["after"] == summary["certificate"] == "2/5"
    assert summary["steps"] == len(trace_path.read_text().splitlines()) == 5
    assert json.loads(out_path.read_text())["cols"] == 2
    assert_one_error_line(*main_exit(capsys, "verify", str(cfg_path)))


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_reduce_without_out_prints_the_report_alone(tmp_path, monkeypatch, capsys):
    """``before`` and ``after`` are the spreads of the normalized input and of the output."""
    zero_column = tmp_path / "zero_column.json"
    zero_column.write_text(json.dumps({"delta": "1/4", "cols": 3, "rows": 2, "cells": [
        {"col": 1, "row": 1, "a": "0", "ac": "3/5"},
        {"col": 1, "row": 2, "a": "1/5", "ac": "0"},
        {"col": 3, "row": 1, "a": "1/5", "ac": "0"},
    ]}))
    monkeypatch.chdir(tmp_path)
    for path in (FIXTURES / "reduce_6x6.json", zero_column):
        code, out = run_main(capsys, "reduce", "--eps", "1/1000", str(path))
        assert code == 0
        # the report is the whole of stdout: no configuration precedes it
        report = json.loads(out)
        with open(path, encoding="utf-8") as fp:
            cfg = load_config(fp)
        result = reduce_config(cfg, "1/1000")
        assert report == {
            "before": str(compute_stats(normalize(cfg)).prob_B),
            "after": str(compute_stats(result["out"]).prob_B),
            "certificate": str(certify_upper_bound(result["out"])),
            "steps": len(result["trace"]),
        }, path
    assert os.listdir(tmp_path) == ["zero_column.json"]


def test_reduce_writes_the_pinned_bytes(capsys):
    """The reduced 6x6 fixture and its report, byte for byte; CI runs the same line."""
    fixture = FIXTURES / "reduce_6x6.json"
    code, out = run_main(capsys, "reduce", "--eps", "1/1000", "--out", "-", str(fixture))
    assert code == 0
    assert out == (FIXTURES / "reduce_6x6.expected").read_text()


def test_reduce_writes_the_pinned_trace(tmp_path, capsys):
    """The step trace of the reduced 6x6 fixture, byte for byte; CI runs the same line."""
    trace = tmp_path / "reduce_6x6.trace"
    argv = ["reduce", "--eps", "1/1000", "--out", "-", "--trace", str(trace)]
    assert cli.main(argv + [str(FIXTURES / "reduce_6x6.json")]) == 0
    assert capsys.readouterr().out == (FIXTURES / "reduce_6x6.expected").read_text()
    assert trace.read_bytes() == (FIXTURES / "reduce_6x6.trace.expected").read_bytes()


def test_discretize_writes_the_pinned_bytes(capsys):
    """The 12-atom fixture coarsened at n = 16, with its report, byte for byte; CI runs it too."""
    fixture = FIXTURES / "coarsen_12.json"
    code, out = run_main(
        capsys, "discretize", "--delta", "1/4", "--n", "16", "--out", "-", str(fixture)
    )
    assert code == 0
    assert out == (FIXTURES / "coarsen_12.expected").read_text()


@pytest.mark.parametrize("name, argv", [
    ("search_2x9", ["1/4", "--denom", "1", "--cols", "2", "--rows", "9"]),
    ("search_9x8", ["1/4", "--cols", "9", "--rows", "8", "--iters", "300", "--seed", "3"]),
    # the two above find no spread; these two pin a positive best
    ("search_1x9", ["3/4", "--denom", "3", "--cols", "1", "--rows", "9"]),
    ("search_9x8_seed1", ["2/5", "--cols", "9", "--rows", "8", "--iters", "300", "--seed", "1"]),
])
def test_search_past_the_caps_writes_the_pinned_bytes(capsys, name, argv):
    """Both searches on grids past the compiled code's caps, byte for byte; CI runs them too."""
    code, out = run_main(capsys, "search", *argv)
    assert code == 0
    assert out == (FIXTURES / f"{name}.expected").read_text()


def test_exhaustive_on_a_compiled_walker_writes_the_pinned_bytes(capsys):
    """A 3x3 enumeration, whose last columns a compiled walker scores, byte for byte; CI runs it too."""
    assert _column_walker(3, 3).__code__.co_filename == "<column walker 3x3>"
    code, out = run_main(capsys, "search", "2/5", "--denom", "5", "--cols", "3", "--rows", "3")
    assert code == 0
    assert out == (FIXTURES / "search_3x3_denom5.expected").read_text()


def test_climb_on_a_compiled_evaluator_writes_the_pinned_bytes(capsys):
    """A 4x4 climb, the benchmark's largest, on a compiled evaluator, byte for byte; CI runs it too."""
    argv = ["2/5", "--cols", "4", "--rows", "4", "--iters", "1250", "--seed", "1"]
    code, out = run_main(capsys, "search", *argv)
    assert code == 0
    assert out == (FIXTURES / "search_4x4_seed1.expected").read_text()


def test_climb_above_one_half_writes_the_pinned_bytes(capsys):
    """A 4x4 climb at delta 3/4, where a column can pass both gates, byte for byte; CI runs it too.

    Its 149 moves cross every quantum phase of the restart.
    """
    argv = ["3/4", "--cols", "4", "--rows", "4", "--iters", "150", "--seed", "1"]
    code, out = run_main(capsys, "search", *argv)
    assert code == 0
    assert out == (FIXTURES / "search_4x4_delta3_4.expected").read_text()


def test_reduce_rejects_bad_epsilon(tmp_path, capsys):
    cfg_path = tmp_path / "ext.json"
    assert cli.main(["extremal", "1/4", "--out", str(cfg_path)]) == 0
    assert_one_error_line(*main_exit(capsys, "reduce", "--eps", "0", str(cfg_path)))


def test_reduce_refuses_an_unreadable_epsilon_in_the_library_text(capsys):
    code, err = main_exit(capsys, "reduce", "--eps", "x", str(FIXTURES / "reduce_6x6.json"))
    assert (code, err) == (2, "error: cannot parse epsilon 'x' as an exact rational\n")


def test_search_exhaustive(capsys):
    code, out = run_main(capsys, "search", "1/4", "--denom", "5")
    assert code == 0
    result = json.loads(out)
    assert result["method"] == "exhaustive"
    assert result["best_prob_B"] == "2/5"
    assert result["configs_evaluated"] == 792


def test_search_hill_climb(capsys):
    code, out = run_main(capsys, "search", "1/4", "--iters", "300", "--seed", "9")
    assert code == 0
    result = json.loads(out)
    assert result["method"] == "hill_climb"
    assert result["seed"] == 9
    assert result["configs_evaluated"] == 300


def test_search_refuses_a_climb_past_the_cap(monkeypatch, capsys):
    """An oversized climb exits 2 at once, as an oversized enumeration does."""
    monkeypatch.delenv("EXPERT_SPREAD_ENUM_CAP", raising=False)
    argv = ["1/4", "--iters", "99999999999999999999", "--cols", "2", "--rows", "2"]
    code, err = main_exit(capsys, "search", *argv)
    assert_one_error_line(code, err)
    assert "EXPERT_SPREAD_ENUM_CAP" in err


def test_search_refuses_an_enumeration_too_large_to_count(monkeypatch, capsys):
    """A count of mass vectors too long to print is refused in one line."""
    monkeypatch.delenv("EXPERT_SPREAD_ENUM_CAP", raising=False)
    argv = ["1/4", "--cols", "100", "--rows", "100", "--denom", "100000"]
    code, err = main_exit(capsys, "search", *argv)
    assert_one_error_line(code, err)
    assert err.startswith("error: exhaustive enumeration would evaluate more configurations")


def test_curve_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    code, _ = run_main(
        capsys,
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
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "delta,delta_dec,lambda_sharp,lambda_sharp_dec,"
        "pitman_upper,pitman_upper_dec"
    )
    assert len(lines) == 13
    assert lines[1].startswith("1/100,")
    assert lines[-1].startswith("49/100,")


def test_curve_blanks_linear_bound_past_one_half(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    code, _ = run_main(
        capsys,
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
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[3] == "1/2,0.5,1,1,,"
    assert lines[-1].startswith("3/5,")
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_curve_empirical_runs_either_search(tmp_path, capsys):
    """``--denom`` picks the exhaustive search and its absence the climb, as ``search`` does."""
    csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
    curve = ["curve", "--from", "1/10", "--to", "9/10", "--steps", "5", "--empirical"]
    files = ["--out", str(csv_path), "--svg", str(svg_path)]
    searches = (("exhaustive", ["--denom", "4"]), ("hill_climb", ["--iters", "50", "--seed", "3"]))
    for method, args in searches:
        assert run_main(capsys, *curve, *args, *files) == (0, "")
        rows = csv_path.read_text().splitlines()
        assert rows[0].endswith(",empirical_best,empirical_best_dec")
        assert len(rows) == 6
        for row in rows[1:]:
            delta = Fraction(row.split(",")[0])
            if method == "exhaustive":
                want = exhaustive_search(delta, 2, 2, 4)
            else:
                want = hill_climb(delta, 2, 2, 50, 3)
            assert row.split(",")[-2] == str(want.best_prob_B), (method, row)
        # one dot per searched threshold
        assert svg_path.read_text().count('fill="#c23b22"') == 5


def test_curve_empirical_without_svg_writes_the_csv_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["curve", "--from", "1/10", "--to", "9/10", "--steps", "3", "--empirical", "--denom", "2"]
    assert run_main(capsys, *argv, "--out", "curve.csv") == (0, "")
    assert os.listdir(tmp_path) == ["curve.csv"]
    rows = (tmp_path / "curve.csv").read_text().splitlines()
    assert rows[0].endswith(",empirical_best,empirical_best_dec")
    for row in rows[1:]:
        best = exhaustive_search(Fraction(row.split(",")[0]), 2, 2, 2).best_prob_B
        assert row.split(",")[-2] == str(best), row


def test_curve_refuses_an_empty_range_or_one_step(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    for args, message in (
        (["--from", "1/2", "--to", "1/4", "--steps", "5"], "error: curve range must satisfy from < to"),
        (["--from", "1/4", "--to", "1/2", "--steps", "1"], "error: curve needs at least 2 steps"),
    ):
        code, err = main_exit(capsys, "curve", *args, "--out", str(csv_path))
        assert_one_error_line(code, err, args)
        assert err.startswith(message), err
        assert not csv_path.exists()


def test_curve_memory_does_not_grow_with_steps(tmp_path, capsys):
    """Rows are written as they are computed, so the peak is the same at 100 and 2,000 steps."""
    csv_path = tmp_path / "curve.csv"

    def peak(steps):
        argv = ["curve", "--from", "1/100", "--to", "99/100", "--steps", str(steps)]
        tracemalloc.start()
        try:
            assert run_main(capsys, *argv, "--out", str(csv_path)) == (0, "")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # imports and first-call caches stay out of the comparison
    small, large = peak(100), peak(2000)
    # holding every row took about 450 bytes a step, 0.86 MB more here
    assert large - small < 64 * 1024, (small, large)
    assert len(csv_path.read_text().splitlines()) == 2001


def test_discretize_converts_and_coarsens(tmp_path, capsys):
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
    code, out = run_main(capsys, "discretize", "--delta", "1/4", str(space_path))
    assert code == 0
    assert json.loads(out)["prob_B"] == "2/5"

    out_path = tmp_path / "coarse.json"
    code, out = run_main(
        capsys,
        "discretize",
        "--delta",
        "1/4",
        "--n",
        "4",
        "--out",
        str(out_path),
        str(space_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["comparison_holds"] is True
    assert report["max_x_shift"] == "0"
    assert report["raw_spread"] == "2/5"
    cfg = json.loads(out_path.read_text())
    assert run_main(capsys, "verify", "-", stdin=json.dumps(cfg))[0] == 0
    # the space read from stdin, as a file is read
    code, out = run_main(capsys, "discretize", "--delta", "1/4", "-", stdin=space_path.read_text())
    assert code == 0
    assert json.loads(out)["prob_B"] == "2/5"


def test_discretize_without_n_writes_the_grouped_grid(tmp_path, capsys):
    space_path, out_path = tmp_path / "space.json", tmp_path / "grid.json"
    space_path.write_text(
        json.dumps({"atoms": [{"w": "1/2", "a": "0", "g": "g1", "h": "h1"},
                              {"w": "1/2", "a": "1/2", "g": "g2", "h": "h1"}]})
    )
    code, _ = run_main(
        capsys, "discretize", "--delta", "1/4", "--out", str(out_path), str(space_path)
    )
    assert code == 0
    space = load_space(io.StringIO(space_path.read_text()))
    buf = io.StringIO()
    dump_config(to_configuration(space, Fraction(1, 4)), buf)
    assert out_path.read_bytes() == buf.getvalue().encode()


def test_discretize_coarsens_without_out_printing_the_report_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fixture = FIXTURES / "coarsen_12.json"
    code, out = run_main(capsys, "discretize", "--delta", "1/4", "--n", "16", str(fixture))
    assert code == 0
    # the pinned output with --out - is the configuration, then this report
    assert (FIXTURES / "coarsen_12.expected").read_text().endswith(out)
    assert set(json.loads(out)) == {
        "max_x_shift", "max_y_shift", "raw_spread", "coarse_spread", "comparison_holds"
    }
    assert os.listdir(tmp_path) == []


def test_usage_errors_exit_two(capsys):
    assert main_exit(capsys)[0] == 2
    assert main_exit(capsys, "no-such-command")[0] == 2
    assert main_exit(capsys, "search", "1/4", "--denom", "-3")[0] == 2
    # refused before the search allocates its per-cell lists
    assert_one_error_line(
        *main_exit(capsys, "search", "1/4", "--cols", "100000", "--rows", "100000", "--iters", "1")
    )


def test_malformed_documents_exit_two(tmp_path, capsys):
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
        # labels are JSON strings, never coerced
        *(
            ("discretize", json.dumps({"atoms": [{"w": "1", "a": "0", "g": "g1", "h": "h1", key: bad}]}))
            for key in ("g", "h")
            for bad in (1, [], True, None)
        ),
    ):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        args = ["--delta", "1/4"] if command == "discretize" else []
        assert_one_error_line(*main_exit(capsys, command, *args, str(path)), text)


def test_discretize_refuses_grids_past_the_cell_cap(tmp_path, capsys):
    # 1,001 atoms, each with its own labels and value: 1001x1001 cells
    # directly, and as many on the 1/10**6 grid
    path = tmp_path / "space.json"
    atoms = [{"w": "1/1001", "a": f"{i}/1002001", "g": f"g{i}", "h": f"h{i}"} for i in range(1001)]
    path.write_text(json.dumps({"atoms": atoms}))
    for args in ((), ("--n", str(10**6))):
        assert main_exit(capsys, "discretize", "--delta", "1/4", *args, str(path)) == (
            2, "error: a 1001x1001 grid exceeds the limit of 1000000 cells\n"
        )


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
