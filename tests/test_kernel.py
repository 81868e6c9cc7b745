"""The integer spread kernel against the original Fraction statistics."""

import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from expert_spread.bounds import extremal_config
from expert_spread.config import (
    ConfigError,
    Stats,
    compute_stats,
    make_configuration,
)
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
