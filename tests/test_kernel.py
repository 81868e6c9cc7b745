"""The integer spread kernel against the original Fraction statistics and scans."""

import functools
import hashlib
import json
import math
import random
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from expert_spread import config
from expert_spread.bounds import extremal_config
from expert_spread.config import (
    ConfigError,
    Configuration,
    Stats,
    UNROLL_CELLS,
    _derive_loop,
    _grid_stats,
    _GridStats,
    _line_sums,
    _stats_evaluator,
    _stats_loop,
    _units_evaluator,
    _units_loop,
    compute_stats,
    make_configuration,
    overlap_violations,
    pitman_inclusion_violations,
    separation_violations,
)
from expert_spread.search import _column_walker, _random_parts, _walk_last_column
from expert_spread.transforms import transpose
from expert_spread.discretize import threshold_probability

F = Fraction

DELTAS = (
    F(1, 10), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(9, 20),
    F(1, 2), F(3, 5), F(2, 3), F(3, 4),
)


def reference_stats(cfg):
    """Every statistic by direct Fraction arithmetic, one cell at a time."""
    m, n, cells = cfg.n_cols, cfg.n_rows, cfg.cells
    p = [sum((cells[k][j].mass for j in range(n)), F(0)) for k in range(m)]
    q = [sum((cells[k][j].mass for k in range(m)), F(0)) for j in range(n)]
    for what, totals in (("column", p), ("row", q)):
        for i, total in enumerate(totals, 1):
            if total == 0:
                raise ConfigError(
                    f"{what} {i} has zero mass; conditional probability undefined"
                )
    x = [sum((cells[k][j].a_mass for j in range(n)), F(0)) / p[k] for k in range(m)]
    y = [sum((cells[k][j].a_mass for k in range(m)), F(0)) / q[j] for j in range(n)]
    th = 1 - cfg.delta

    def low(k, j):
        return 0 <= k < m and 0 <= j < n and y[j] - x[k] >= th

    def high(k, j):
        return 0 <= k < m and 0 <= j < n and x[k] - y[j] >= th

    b_mask = tuple(tuple(abs(x[k] - y[j]) >= th for j in range(n)) for k in range(m))
    cols_low = [k + 1 for k in range(m) if any(low(k, j) for j in range(n))]
    cols_high = [k + 1 for k in range(m) if any(high(k, j) for j in range(n))]
    rows_low = [j + 1 for j in range(n) if any(high(k, j) for k in range(m))]
    rows_high = [j + 1 for j in range(n) if any(low(k, j) for k in range(m))]
    cells_at = [(k, j) for k in range(m) for j in range(n)]
    return Stats(
        p=tuple(p),
        q=tuple(q),
        x=tuple(x),
        y=tuple(y),
        b_mask=b_mask,
        m_minus_G=max(cols_low, default=0),
        m_plus_G=min(cols_high, default=math.inf),
        m_minus_H=max(rows_low, default=0),
        m_plus_H=min(rows_high, default=math.inf),
        d_minus=tuple(
            (k + 1, j + 1) for k, j in cells_at
            if low(k, j) and not low(k + 1, j) and not low(k, j - 1)
        ),
        d_plus=tuple(
            (k + 1, j + 1) for k, j in cells_at
            if high(k, j) and not high(k - 1, j) and not high(k, j + 1)
        ),
        prob_B=sum((cells[k][j].mass for k, j in cells_at if b_mask[k][j]), F(0)),
    )


def reference_threshold_probability(cfg, threshold):
    s = reference_stats(cfg)
    return sum(
        (
            cfg.cells[k][j].mass
            for k in range(cfg.n_cols)
            for j in range(cfg.n_rows)
            if abs(s.x[k] - s.y[j]) >= threshold
        ),
        F(0),
    )


def reference_pitman_inclusion_violations(cfg):
    """The far-apart inclusion scan in Fraction arithmetic on the statistics."""
    if cfg.delta >= F(1, 2):
        return []
    s = compute_stats(cfg)
    threshold = 1 - cfg.delta
    bad = []
    for k in range(1, cfg.n_cols + 1):
        for j in range(1, cfg.n_rows + 1):
            if not s.b_mask[k - 1][j - 1]:
                continue
            xk, yj = s.x[k - 1], s.y[j - 1]
            low_high = xk <= cfg.delta and yj >= threshold
            high_low = yj <= cfg.delta and xk >= threshold
            if not (low_high or high_low):
                bad.append((k, j))
    return bad


def reference_overlap_violations(cfg):
    """The intersection-bound scan in Fraction arithmetic on the statistics."""
    s = compute_stats(cfg)
    rate = cfg.delta / (1 + cfg.delta)
    bad = []
    for k in range(1, cfg.n_cols + 1):
        for j in range(1, cfg.n_rows + 1):
            if not s.b_mask[k - 1][j - 1]:
                continue
            if cfg.cells[k - 1][j - 1].mass > rate * (s.p[k - 1] + s.q[j - 1]):
                bad.append((k, j))
    return bad


def reference_separation_violations(cfg):
    """The separation scan in Fraction arithmetic on the statistics."""
    s = compute_stats(cfg)
    bad = []
    for k in range(1, cfg.n_cols + 1):
        for j in range(1, cfg.n_rows + 1):
            c = cfg.cells[k - 1][j - 1].mass
            union = s.p[k - 1] + s.q[j - 1] - c
            if (s.p[k - 1] + s.q[j - 1] - 2 * c) < abs(s.x[k - 1] - s.y[j - 1]) * union:
                bad.append((k, j))
    return bad


SCANS = (
    (overlap_violations, reference_overlap_violations),
    (separation_violations, reference_separation_violations),
    (pitman_inclusion_violations, reference_pitman_inclusion_violations),
)


def random_grid(rng):
    """Unsorted grid, masses over a random denominator, zero lines allowed."""
    n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
    denom = rng.choice((2, 3, 5, 7, 12, 30, 64, 210, 1024))
    slots = 2 * n_cols * n_rows
    cuts = sorted(rng.sample(range(denom + slots - 1), slots - 1))
    ends = (-1, *cuts, denom + slots - 1)
    parts = [b - a - 1 for a, b in zip(ends, ends[1:])]
    masses = {}
    for i in range(n_cols * n_rows):
        k, j = divmod(i, n_rows)
        masses[(k + 1, j + 1)] = (F(parts[2 * i + 1], denom), F(parts[2 * i], denom))
    return make_configuration(rng.choice(DELTAS), n_cols, n_rows, masses)


def compare(cfg):
    """``"ok"`` or ``"zero line"`` after checking both implementations agree."""
    try:
        expected = reference_stats(cfg)
    except ConfigError as exc:
        compute_stats.cache_clear()
        with pytest.raises(ConfigError) as got:
            compute_stats(cfg)
        assert str(got.value) == str(exc)
        return "zero line"
    compute_stats.cache_clear()
    got = compute_stats(cfg)
    for field in fields(Stats):
        assert getattr(got, field.name) == getattr(expected, field.name), field.name
    return "ok"


def test_kernel_matches_the_fraction_reference():
    rng = random.Random(20191201)
    outcomes = {"ok": 0, "zero line": 0}
    high_delta = 0
    while outcomes["ok"] < 3000:
        cfg = random_grid(rng)
        outcome = compare(cfg)
        outcomes[outcome] += 1
        high_delta += outcome == "ok" and cfg.delta >= F(1, 2)
    assert outcomes["zero line"] > 100
    assert high_delta > 500


def test_kernel_matches_at_exact_ties_and_without_spread():
    # the witness's off-diagonal gaps equal the threshold exactly
    for delta in DELTAS:
        assert compare(extremal_config(delta)) == "ok"
    halves = {(k, j): (F(1, 12), F(1, 12)) for k in (1, 2, 3) for j in (1, 2)}
    flat = make_configuration(F(1, 4), 3, 2, halves)
    assert compare(flat) == "ok"
    assert compute_stats(flat).m_plus_G == math.inf


def has_spread_tie(parts, n_rows, col_t, col_a, row_t, row_a, th):
    """Whether a cell with mass has column and row values exactly ``th`` apart."""
    return any(
        True
        for k, (ct, ca) in enumerate(zip(col_t, col_a))
        for j, (rt, ra) in enumerate(zip(row_t, row_a))
        if parts[2 * (k * n_rows + j)] + parts[2 * (k * n_rows + j) + 1]
        and abs(ca * rt - ra * ct) * th.denominator == th.numerator * ct * rt
    )


def gate_edges(parts, n_cols, n_rows, th):
    """Whether some column holding a high cell, and some holding a low one, sits on that gate.

    A column can hold a cell with mass on the high side only when ``above >=
    0`` and on the low side only when ``below <= ctd`` (``config._gates``);
    a column exactly on a gate holds such a cell only where the row's value
    is exactly 0 or 1.
    """
    col_t, col_a, _, _, side = _stats_loop(parts, n_cols, n_rows, th.numerator, th.denominator)[:5]
    high = low = False
    for k, (ct, ca) in enumerate(zip(col_t, col_a)):
        i = 2 * k * n_rows
        held = {s for j, s in enumerate(side[k]) if parts[i + 2 * j] + parts[i + 2 * j + 1]}
        cad, ctn = ca * th.denominator, ct * th.numerator
        high |= 1 in held and cad == ctn
        low |= -1 in held and cad + ctn == ct * th.denominator
    return high, low


def test_search_spread_units_match_the_kernel():
    """The searches' spread numerator, from the mass vector alone, is the loop reference's.

    The grids are 6x6 or smaller, so each shape's evaluator is compiled. The
    extremal witnesses, which tie exactly, are among the inputs.
    """
    rng = random.Random(8128)
    cases = [(cfg._parts, cfg.n_cols, cfg.n_rows, 1 - cfg.delta)
             for cfg in map(extremal_config, DELTAS)]
    for _ in range(3000):
        n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
        th = 1 - rng.choice(DELTAS)
        # a denominator that is a multiple of the threshold's makes exact
        # ties common
        denom = th.denominator * rng.randint(1, 4)
        parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
        cases.append((parts, n_cols, n_rows, th))
    zero_lines = ties = 0
    for parts, n_cols, n_rows, th in cases:
        want = _stats_loop(parts, n_cols, n_rows, th.numerator, th.denominator)[5]
        assert _units_evaluator(n_cols, n_rows)(parts, th.numerator, th.denominator) == want
        sums = _line_sums(parts, n_cols, n_rows)
        zero_lines += 0 in sums[0] or 0 in sums[2]
        ties += has_spread_tie(parts, n_rows, *sums, th)
    assert zero_lines > 1000
    assert ties > 300


def test_units_evaluator_matches_the_kernel_and_the_loop():
    """Each shape's evaluator, straight-line up to the cap and the loop past it.

    It reads only the mass vector and the threshold.
    """
    # the shapes below straddle the cap
    assert UNROLL_CELLS == 64
    shapes = [(m, n) for m in range(1, 9) for n in range(1, 9)]
    # tall grids within the cell cap are compiled too
    shapes += [(9, 8), (1, 9), (2, 32), (7, 9), (1, 64), (1, 65)]
    rng = random.Random(4099)
    zero_lines = ties = high_edges = low_edges = 0
    for n_cols, n_rows in shapes:
        units = _units_evaluator(n_cols, n_rows)
        assert _units_evaluator(n_cols, n_rows) is units
        if n_cols * n_rows <= UNROLL_CELLS:
            assert units.__code__.co_filename == f"<spread units {n_cols}x{n_rows}>"
        else:
            assert (units.func, units.args, units.keywords) == (_units_loop, (n_cols, n_rows), {})
        for _ in range(60):
            th = 1 - rng.choice(DELTAS)
            # threshold-aligned denominators make exact ties common
            denom = th.denominator * rng.randint(1, 4)
            parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
            want = _stats_loop(parts, n_cols, n_rows, th.numerator, th.denominator)[5]
            assert units(parts, th.numerator, th.denominator) == want
            sums = _line_sums(parts, n_cols, n_rows)
            zero_lines += 0 in sums[0] or 0 in sums[2]
            ties += has_spread_tie(parts, n_rows, *sums, th)
            high, low = gate_edges(parts, n_cols, n_rows, th)
            high_edges += high
            low_edges += low
    assert zero_lines > 1500
    assert ties > 500
    # a gate that refused its edge would drop these cases' far cells
    assert min(high_edges, low_edges) > 150


def test_column_walker_matches_the_loop():
    """Each shape's last-column walker, compiled within the caps and the loop past them."""
    # the shapes below straddle both caps: 8 rows and UNROLL_CELLS cells
    assert UNROLL_CELLS == 64
    shapes = [(m, n) for m in range(1, 9) for n in range(1, 9)] + [(9, 8), (1, 9), (3, 9)]
    rng = random.Random(6173)
    counts = dict.fromkeys(("no class", "first equal", "tie", "high edge", "low edge"), 0)
    for n_cols, n_rows in shapes:
        walk = _column_walker(n_cols, n_rows)
        assert _column_walker(n_cols, n_rows) is walk
        loop = functools.partial(_walk_last_column, n_rows)
        if n_rows <= 8 and n_cols * n_rows <= UNROLL_CELLS:
            assert walk.__code__.co_filename == f"<column walker {n_cols}x{n_rows}>"
        else:
            assert (walk.func, walk.args, walk.keywords) == (loop.func, loop.args, {})
        width = 2 * n_rows
        # the largest room whose compositions stay few, so each case is quick
        cap = max(r for r in range(41) if math.comb(r + width - 1, r) <= 600)
        for _ in range(24):
            th = 1 - rng.choice(DELTAS)
            # threshold-aligned fixed masses make exact ties common; a room
            # equal to the lower bound's total makes the first class equal it
            fixed = []
            if n_cols > 1:
                fixed = _random_parts(
                    rng, th.denominator * rng.randint(0, 3), (n_cols - 1) * width
                )
            bound = sum(fixed[-width:]) if fixed else -1
            if 0 <= bound <= cap and rng.random() < 0.3:
                room = bound
            else:
                room = rng.randint(0, cap)
            denom = sum(fixed) + room
            args = (fixed, denom, th.numerator, th.denominator)
            got = walk(*args)
            assert got == loop(*args)
            leaves, first_equal, best, column = got
            counts["no class"] += not leaves
            counts["first equal"] += first_equal
            if not best > 0:
                continue
            parts = [*fixed, *column]
            counts["tie"] += has_spread_tie(
                parts, n_rows, *_line_sums(parts, n_cols, n_rows), th
            )
            high, low = gate_edges(parts, n_cols, n_rows, th)
            counts["high edge"] += high
            counts["low edge"] += low
    edges = [counts.pop("high edge"), counts.pop("low edge")]
    assert min(counts.values()) > 150, counts
    assert min(edges) > 50, edges


def loop_grid_stats(monkeypatch, cfg):
    """``_grid_stats(cfg)`` computed, uncached, through the loops."""
    with monkeypatch.context() as patch:
        patch.setattr(
            config, "_stats_evaluator", lambda n_rows: (_stats_loop, _derive_loop)
        )
        return _grid_stats.__wrapped__(cfg)


def test_stats_evaluator_matches_the_loops(monkeypatch):
    """Each row count's compiled kernel and derivation, and the memo built on them."""
    # rows are unrolled up to the side of the largest square grid that
    # _units_evaluator compiles, 8; the shapes below straddle that cap
    assert UNROLL_CELLS == 64
    shapes = [(m, n) for m in range(1, 9) for n in range(1, 9)]
    shapes += [(1, 9), (3, 9), (1, 65), (3, 65), (65, 1), (65, 8)]
    rng = random.Random(1931)
    counts = dict.fromkeys(("zero line", "tie", "d_minus", "d_plus", "both occupied"), 0)
    for n_cols, n_rows in shapes:
        evaluators = _stats_evaluator(n_rows)
        assert _stats_evaluator(n_rows) is evaluators
        compiled = n_rows <= 8
        assert (evaluators == (_stats_loop, _derive_loop)) != compiled
        kernel, derive = evaluators
        for _ in range(80 if n_cols * n_rows <= 64 else 20):
            delta = rng.choice(DELTAS)
            th = 1 - delta
            # threshold-aligned denominators make exact ties common; the
            # small ones leave zero lines, the ones scaled by the cell count
            # mostly fill every line
            scale = rng.choice((1, n_cols * n_rows))
            denom = th.denominator * rng.randint(1, 4) * scale
            parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
            args = (parts, n_cols, n_rows, th.numerator, th.denominator)
            line_sums = _line_sums(parts, n_cols, n_rows)
            got = kernel(*args)
            assert got == _stats_loop(*args)
            # the sweep's sides are one tuple per column, and flattened in
            # slot order they pick out the cells the numerator sums
            assert [len(col) for col in got[4]] == [n_rows] * n_cols
            flat = [v for col in got[4] for v in col]
            assert got[5] == sum(parts[2 * i] + parts[2 * i + 1] for i, v in enumerate(flat) if v)
            assert derive(got[4]) == _derive_loop(got[4])
            cfg = Configuration._from_parts(delta, n_cols, n_rows, parts, denom)
            if 0 in line_sums[0] or 0 in line_sums[2]:
                counts["zero line"] += 1
                with pytest.raises(ConfigError) as want:
                    reference_stats(cfg)
                for build in (_grid_stats.__wrapped__, lambda c: loop_grid_stats(monkeypatch, c)):
                    with pytest.raises(ConfigError) as raised:
                        build(cfg)
                    assert str(raised.value) == str(want.value)
                continue
            g, want = _grid_stats.__wrapped__(cfg), loop_grid_stats(monkeypatch, cfg)
            for slot in _GridStats.__slots__:
                assert getattr(g, slot) == getattr(want, slot), slot
            # the memo hands its sides to every reader, so they are immutable
            assert type(g.side) is tuple
            counts["tie"] += has_spread_tie(parts, n_rows, *line_sums, th)
            counts["d_minus"] += len(g.d_minus) > 1
            counts["d_plus"] += len(g.d_plus) > 1
            counts["both occupied"] += all(g.occupied)
    assert counts["zero line"] > 1200
    assert counts["tie"] > 100
    assert min(counts["d_minus"], counts["d_plus"], counts["both occupied"]) > 250
    # every pattern of sides, not only those a grid produces, derives alike
    for n_rows in range(1, 9):
        derive = _stats_evaluator(n_rows)[1]
        for _ in range(300):
            side = [
                tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n_rows))
                for _ in range(rng.randint(1, 8))
            ]
            assert derive(side) == _derive_loop(side)


def test_generated_sources_keep_their_pinned_hashes(monkeypatch):
    """The source of every compiled evaluator within the cap, by its SHA-256.

    ``tests/fixtures/generated_sources.json`` pins, under each source's
    compile tag, the 64 column walkers and 64 units evaluators of the shapes
    up to 8x8 and the memo kernels of 1 to 8 rows. A change of the generated
    code shows here; a change of only the generators leaves every hash.
    """
    pinned = json.loads((Path(__file__).parent / "fixtures" / "generated_sources.json").read_text())
    seen = {}

    def record(src, filename, mode):
        seen[filename.strip("<>")] = hashlib.sha256(src.encode()).hexdigest()
        return compile(src, filename, mode)

    # every generator compiles through config, so a module global there
    # stands in for the builtin
    monkeypatch.setattr(config, "compile", record, raising=False)
    for n_rows in range(1, 9):
        for n_cols in range(1, 9):
            _column_walker.__wrapped__(n_cols, n_rows)
            _units_evaluator.__wrapped__(n_cols, n_rows)
        _stats_evaluator.__wrapped__(n_rows)
    assert len(seen) == 136
    assert sorted(tag for tag in pinned if seen.get(tag) != pinned[tag]) == []
    assert seen.keys() == pinned.keys()


def test_threshold_probability_matches_the_reference():
    rng = random.Random(7)
    checked = 0
    while checked < 400:
        cfg = random_grid(rng)
        try:
            reference_stats(cfg)
        except ConfigError:
            with pytest.raises(ConfigError):
                threshold_probability(cfg, 1 - cfg.delta)
            continue
        th = 1 - cfg.delta
        for threshold in (F(-1, 3), F(0), th, th - F(2, 4), th - F(2, 16), th - F(2, 64)):
            expected = reference_threshold_probability(cfg, threshold)
            assert threshold_probability(cfg, threshold) == expected
        assert threshold_probability(cfg, th) == compute_stats(cfg).prob_B
        checked += 1


def compare_scans(cfg):
    """``"ok"`` or ``"zero line"`` after checking the three scans agree.

    On a zero line every scan must raise the reference's error, except
    that the inclusion scan returns ``[]`` from ``delta >= 1/2`` before it
    looks at the grid.
    """
    try:
        compute_stats(cfg)
    except ConfigError as exc:
        for scan, reference in SCANS:
            if scan is pitman_inclusion_violations and cfg.delta >= F(1, 2):
                assert scan(cfg) == reference(cfg) == []
                continue
            with pytest.raises(ConfigError) as got:
                scan(cfg)
            assert str(got.value) == str(exc)
        return "zero line"
    for scan, reference in SCANS:
        assert scan(cfg) == reference(cfg), scan.__name__
    return "ok"


def test_verify_scans_match_the_fraction_reference():
    rng = random.Random(20191202)
    outcomes = {"ok": 0, "zero line": 0}
    high_delta_zero_lines = 0
    while outcomes["ok"] < 3000:
        cfg = random_grid(rng)
        outcome = compare_scans(cfg)
        outcomes[outcome] += 1
        high_delta_zero_lines += outcome == "zero line" and cfg.delta >= F(1, 2)
    assert outcomes["zero line"] > 100
    assert high_delta_zero_lines > 20


def edge_grid(delta):
    """A column at 0 and a row at exactly ``1 - delta``: a far-apart cell on the bound.

    The row holds complement ``m`` from the first column and event mass
    ``(1 - delta) / delta * m`` from the second, so its value is ``1 - delta``.
    """
    m = delta / 2
    event = (1 - delta) / delta * m
    return make_configuration(
        delta, 2, 2, {(1, 1): (0, 1 - m - event), (1, 2): (0, m), (2, 2): (event, 0)}
    )


def test_verify_scans_match_on_their_equality_cases():
    """Witness, worked example and edge grids meet each inequality with equality."""
    worked = make_configuration(
        F(1, 4), 2, 2, {(1, 1): (0, F(1, 2)), (1, 2): (F(1, 4), 0), (2, 1): (F(1, 4), 0)}
    )
    cases = [worked, transpose(worked)]
    for delta in DELTAS:
        cases += [extremal_config(delta), edge_grid(delta)]
        cases += [transpose(cases[-2]), transpose(cases[-1])]
    for cfg in cases:
        assert compare_scans(cfg) == "ok"
        for scan, _ in SCANS:
            assert scan(cfg) == []
    # the witness's off-diagonal cells meet overlap and separation with
    # equality, and its low column sits exactly at delta
    s = compute_stats(extremal_config(F(1, 4)))
    assert s.x[0] == F(1, 4) and s.b_mask[0][1]
    # the edge grid's far-apart cell has a row exactly at 1 - delta
    s = compute_stats(edge_grid(F(1, 4)))
    assert (s.x[0], s.y[1]) == (0, F(3, 4)) and s.b_mask[0][1]
