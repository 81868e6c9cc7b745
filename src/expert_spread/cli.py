"""Command-line surface for the library.

Subcommands: ``bound`` (closed-form values at one threshold), ``extremal``
(write the optimal witness), ``reduce`` (run the reduction with a trace),
``search`` (exhaustive or hill-climbing sharpness search), ``verify``
(check every configuration invariant), ``curve`` (CSV and SVG of the bound
across thresholds), and ``discretize`` (raw space conversion and grid
coarsening).

Exit codes: 0 on success, 1 when ``verify`` finds a violation, 2 on usage,
parse, or file errors, 3 on an internal error (a failed consistency check,
a refused transformation, or an impossible reduction state, whose
diagnostics follow as one JSON line on stderr). All printed numbers are
exact rational strings; decimal renderings appear only as companions, never
in comparisons.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import IO, Any, Callable, Optional

from .config import (
    ConfigError,
    Configuration,
    DomainError,
    InternalStateError,
    ReduceContradictionError,
    SearchSpaceError,
    TransformContractError,
    compute_stats,
    dump_config,
    load_config,
    overlap_violations,
    pitman_inclusion_violations,
    rational_to_decimal,
    rational_to_str,
    separation_violations,
    validate_delta,
)
from .bounds import (
    HALF,
    certify_upper_bound,
    extremal_config,
    lambda_sharp,
    make_report,
    pitman_upper,
    report_to_json_dict,
)
from .transforms import reduce as reduce_config
from .transforms import trace_to_json_dict
from .search import (
    SearchResult,
    exhaustive_search,
    hill_climb,
    search_result_to_json_dict,
)
from . import discretize as discretize_mod


# ---------------------------------------------------------------------------
# Small I/O helpers
# ---------------------------------------------------------------------------


def _read(path: str, load: Callable[[IO[str]], Any]) -> Any:
    """``load`` applied to the file at ``path``, or to stdin for ``-``."""
    if path == "-":
        return load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fp:
        return load(fp)


def _write_config(cfg: Configuration, path: Optional[str]) -> None:
    if path is None or path == "-":
        dump_config(cfg, sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as fp:
        dump_config(cfg, fp)


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bound(args: argparse.Namespace) -> int:
    report = make_report(args.delta)
    _print_json(report_to_json_dict(report))
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    cfg = extremal_config(args.delta)
    _write_config(cfg, args.out)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    cfg = _read(args.config, load_config)
    result = reduce_config(cfg, args.eps)
    out, trace = result["out"], result["trace"]
    if args.out is not None:
        _write_config(out, args.out)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fp:
            for step in trace:
                fp.write(json.dumps(trace_to_json_dict(step)))
                fp.write("\n")
    _print_json(
        {
            # the first step, augment, starts at the normalized input: a
            # zero-mass line, which compute_stats refuses, is dropped there
            # without changing the spread; the last step ends at the output
            "before": rational_to_str(trace[0].prob_B_before),
            "after": rational_to_str(trace[-1].prob_B_after),
            "certificate": rational_to_str(certify_upper_bound(out)),
            "steps": len(trace),
        }
    )
    return 0


def _search(args: argparse.Namespace, delta: Fraction) -> SearchResult:
    """Exhaustive search with ``--denom``, hill climbing without, at ``delta``."""
    if args.denom is not None:
        return exhaustive_search(delta, args.cols, args.rows, args.denom)
    return hill_climb(delta, args.cols, args.rows, args.iters, args.seed)


def _cmd_search(args: argparse.Namespace) -> int:
    _print_json(search_result_to_json_dict(_search(args, args.delta)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _read(args.config, load_config)
    s = compute_stats(cfg)
    lam = lambda_sharp(cfg.delta)
    report = {
        "prob_B": rational_to_str(s.prob_B),
        "lambda_sharp": rational_to_str(lam),
        "bound_respected": s.prob_B <= lam,
        "overlap_violations": [list(c) for c in overlap_violations(cfg)],
        "separation_violations": [list(c) for c in separation_violations(cfg)],
        "pitman_inclusion_violations": [
            list(c) for c in pitman_inclusion_violations(cfg)
        ],
    }
    ok = (
        report["bound_respected"]
        and not report["overlap_violations"]
        and not report["separation_violations"]
        and not report["pitman_inclusion_violations"]
    )
    report["ok"] = ok
    _print_json(report)
    return 0 if ok else 1


def _cmd_curve(args: argparse.Namespace) -> int:
    """Write the CSV a row at a time; only the SVG's empirical points are kept."""
    import csv

    lo = validate_delta(args.delta_from)
    hi = validate_delta(args.delta_to)
    if not lo < hi:
        raise DomainError(f"curve range must satisfy from < to, got {lo} .. {hi}")
    if args.steps < 2:
        raise DomainError(f"curve needs at least 2 steps, got {args.steps}")
    columns = ["delta", "lambda_sharp", "pitman_upper"]
    if args.empirical:
        columns.append("empirical_best")
    points: list[tuple[Fraction, Fraction]] = []
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        # each value is written exactly and as a decimal
        writer.writerow([name + suffix for name in columns for suffix in ("", "_dec")])
        for i in range(args.steps):
            d = lo + Fraction(i, args.steps - 1) * (hi - lo)
            record = _exact_and_decimal(d) + _exact_and_decimal(lambda_sharp(d))
            record += _exact_and_decimal(pitman_upper(d)) if d < HALF else ["", ""]
            if args.empirical:
                best = _search(args, d).best_prob_B
                record += _exact_and_decimal(best)
                if args.svg is not None:
                    points.append((d, best))
            writer.writerow(record)
    if args.svg is not None:
        _write_curve_svg(points, args.svg)
    return 0


def _cmd_discretize(args: argparse.Namespace) -> int:
    space = _read(args.space, discretize_mod.load_space)
    d = validate_delta(args.delta)
    if args.n is None:
        cfg = discretize_mod.to_configuration(space, d)
        report = {"prob_B": rational_to_str(compute_stats(cfg).prob_B)}
    else:
        result = discretize_mod.grid_coarsen(space, args.n, d)
        cfg = result["cfg"]
        raw = discretize_mod.spread_probability(space, 1 - d)
        coarse = discretize_mod.threshold_probability(cfg, 1 - d - Fraction(2, args.n))
        report = {
            "max_x_shift": rational_to_str(result["report"]["max_x_shift"]),
            "max_y_shift": rational_to_str(result["report"]["max_y_shift"]),
            "raw_spread": rational_to_str(raw),
            "coarse_spread": rational_to_str(coarse),
            "comparison_holds": raw <= coarse,
        }
    if args.out is not None:
        _write_config(cfg, args.out)
    _print_json(report)
    return 0


# ---------------------------------------------------------------------------
# Curve output
# ---------------------------------------------------------------------------


def _exact_and_decimal(value: Fraction) -> list[str]:
    return [rational_to_str(value), rational_to_decimal(value)]


_SVG_W, _SVG_H = 640, 440
_SVG_L, _SVG_R, _SVG_T, _SVG_B = 60, 20, 20, 50


def _sx(value: float) -> float:
    return _SVG_L + value * (_SVG_W - _SVG_L - _SVG_R)


def _sy(value: float) -> float:
    return _SVG_H - _SVG_B - (value / 1.05) * (_SVG_H - _SVG_T - _SVG_B)


def _write_curve_svg(points: list[tuple[Fraction, Fraction]], path: str) -> None:
    """Static plot of the bound, with the jump drawn as an open/closed pair.

    ``points`` are the ``(delta, empirical best)`` pairs of the curve's
    searches, drawn as dots.

    Floating point appears here only to place picture coordinates; every
    numeric claim of the package stays rational.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_sx(0)}" y1="{_sy(0)}" x2="{_sx(1)}" y2="{_sy(0)}" '
        'stroke="black"/>',
        f'<line x1="{_sx(0)}" y1="{_sy(0)}" x2="{_sx(0)}" y2="{_sy(1.02)}" '
        'stroke="black"/>',
    ]
    for tick in (0, 0.25, 0.5, 0.75, 1):
        x = _sx(tick)
        parts.append(
            f'<line x1="{x}" y1="{_sy(0)}" x2="{x}" y2="{_sy(0) + 5}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x}" y="{_sy(0) + 20}" font-size="12" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    for tick in (0, 0.5, 1):
        y = _sy(tick)
        parts.append(
            f'<line x1="{_sx(0) - 5}" y1="{y}" x2="{_sx(0)}" y2="{y}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_sx(0) - 10}" y="{y + 4}" font-size="12" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_sx(0.5)}" y="{_SVG_H - 10}" font-size="13" '
        'text-anchor="middle">threshold parameter</text>'
    )
    # Rising branch up to the jump, then the constant branch at one.
    pts = []
    for i in range(65):
        d = 0.5 * i / 64
        pts.append(f"{_sx(d):.2f},{_sy(2 * d / (1 + d)):.2f}")
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#1f4e9c" '
        'stroke-width="2"/>'
    )
    parts.append(
        f'<line x1="{_sx(0.5)}" y1="{_sy(1)}" x2="{_sx(1)}" y2="{_sy(1)}" '
        'stroke="#1f4e9c" stroke-width="2"/>'
    )
    parts.append(
        f'<circle cx="{_sx(0.5)}" cy="{_sy(2 / 3)}" r="4" fill="white" '
        'stroke="#1f4e9c" stroke-width="2"/>'
    )
    parts.append(
        f'<circle cx="{_sx(0.5)}" cy="{_sy(1)}" r="4" fill="#1f4e9c"/>'
    )
    for d, best in points:
        parts.append(
            f'<circle cx="{_sx(float(d)):.2f}" cy="{_sy(float(best)):.2f}" r="3" '
            'fill="#c23b22" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(parts))
        fp.write("\n")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _delta_arg(text: str) -> Fraction:
    try:
        return validate_delta(text)
    except (DomainError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _search_options(p: argparse.ArgumentParser, iters: int) -> None:
    """The options of both searches, with ``iters`` as the climb's default budget."""
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--denom", type=int, default=None,
                   help="exhaustive search over masses in units of 1/denom")
    p.add_argument("--iters", type=int, default=iters,
                   help="hill-climb evaluation budget (ignored with --denom)")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expert-spread",
        description="Exact machinery for the largest possible disagreement "
        "probability of two experts' forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form bounds at one threshold")
    p.add_argument("delta", type=_delta_arg)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("extremal", help="write the optimal witness configuration")
    p.add_argument("delta", type=_delta_arg)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("reduce", help="run the reduction pipeline on a configuration")
    p.add_argument("config", help="configuration file, or - for stdin")
    p.add_argument("--eps", required=True, help="allowed spread probability loss")
    p.add_argument("--out", default=None, help="write the reduced configuration here")
    p.add_argument("--trace", default=None, help="write a JSONL step trace here")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("search", help="search for high-spread configurations")
    p.add_argument("delta", type=_delta_arg)
    _search_options(p, 10_000)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify", help="check every configuration invariant")
    p.add_argument("config", nargs="?", default="-",
                   help="configuration file, or - for stdin (default)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("curve", help="emit the bound across thresholds")
    p.add_argument("--from", dest="delta_from", required=True)
    p.add_argument("--to", dest="delta_to", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--empirical", action="store_true",
                   help="add a searched best-value column")
    _search_options(p, 2_000)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("discretize", help="convert or coarsen a raw labeled space")
    p.add_argument("space", help="raw space JSON file, or - for stdin")
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="coarsen onto a 1/n grid (omit to convert directly)")
    p.add_argument("--out", default=None, help="write the configuration here")
    p.set_defaults(handler=_cmd_discretize)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, ConfigError, SearchSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalStateError, TransformContractError, ReduceContradictionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if isinstance(exc, ReduceContradictionError):
            print(json.dumps(exc.diagnostics), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
