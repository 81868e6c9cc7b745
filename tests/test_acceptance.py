"""Acceptance suite: one test per headline guarantee of the package.

Every test prints a single PASS line with its runtime; stated time
budgets are asserted alongside the exact checks, so a slow or wrong
build fails loudly rather than quietly.
"""

import math
import random
import time
from fractions import Fraction

from expert_spread.bounds import (
    certify_upper_bound,
    correlation_example,
    extremal_config,
    halfpoint_example,
    lambda_sharp,
)
from expert_spread.config import (
    compute_stats,
    overlap_violations,
    pitman_inclusion_violations,
)
from expert_spread.discretize import (
    grid_coarsen,
    spread_probability,
    threshold_probability,
)
from expert_spread.search import exhaustive_search, reduced_shape_problem
from expert_spread.transforms import reduce as reduce_config
from test_discretize import random_space
from test_search import count_evaluations
from test_transform_reference import fuzz_transforms
from test_transforms import random_configuration

F = Fraction

SHARP_VALUES = {
    F(1, 10): F(2, 11),
    F(1, 4): F(2, 5),
    F(1, 3): F(1, 2),
    F(2, 5): F(4, 7),
}

FUZZ_DELTAS = (F(1, 10), F(1, 4), F(33, 80), F(1, 2), F(3, 4))


def report(label, elapsed, budget, detail):
    print(f"{label}: PASS ({elapsed:.2f}s) {detail}")
    if budget is not None:
        assert elapsed < budget, f"{label} exceeded its {budget}s budget"


def test_criterion_1_witness_attains_the_sharp_bound():
    t0 = time.monotonic()
    for delta, value in SHARP_VALUES.items():
        s = compute_stats(extremal_config(delta))
        assert s.prob_B == value == lambda_sharp(delta)
    report(
        "criterion 1 (sharp witness values)",
        time.monotonic() - t0,
        1.0,
        "four thresholds, exact rational equality",
    )


def test_criterion_2_exhaustive_search_confirms_optimality(monkeypatch):
    # count the column classes the last-column walkers score
    scored = []
    count_evaluations(monkeypatch, scored)
    t0 = time.monotonic()
    fine = exhaustive_search(F(1, 4), 2, 2, 5)
    assert fine.configs_evaluated == math.comb(12, 5)
    assert fine.best_prob_B == F(2, 5)
    assert fine.best_config == extremal_config(F(1, 4))
    off_grid = exhaustive_search(F(1, 4), 2, 2, 8)
    assert off_grid.configs_evaluated == math.comb(15, 8)
    assert off_grid.best_prob_B < F(2, 5)
    wide = exhaustive_search(F(1, 4), 3, 3, 6)
    assert wide.configs_evaluated == math.comb(23, 6)
    assert wide.best_prob_B <= F(2, 5)
    # column_classes(2, 2, 5) + column_classes(2, 2, 8) + column_classes(3, 3, 6)
    assert len(scored) == 21_320
    report(
        "criterion 2 (exhaustive optimality)",
        time.monotonic() - t0,
        120.0,
        f"{fine.configs_evaluated + off_grid.configs_evaluated + wide.configs_evaluated}"
        f" mass vectors covered by {len(scored)} column classes,"
        " maximum 2/5 hit only on the matching grid",
    )


def test_criterion_3_random_configurations_respect_every_inequality():
    t0 = time.monotonic()
    rng = random.Random(3001)
    per_delta = 2000
    checked = 0
    for delta in FUZZ_DELTAS:
        bound = lambda_sharp(delta)
        for _ in range(per_delta):
            cfg = random_configuration(rng, delta)
            assert compute_stats(cfg).prob_B <= bound
            assert overlap_violations(cfg) == []
            assert pitman_inclusion_violations(cfg) == []
            checked += 1
    assert checked >= 10_000
    report(
        "criterion 3 (random inequality sweep)",
        time.monotonic() - t0,
        120.0,
        f"{checked} configurations, zero bound/overlap/inclusion violations",
    )


def test_criterion_4_transformation_fuzz_is_clean():
    t0 = time.monotonic()
    total = 0
    for i, delta in enumerate(FUZZ_DELTAS):
        assert fuzz_transforms(delta, 2000, seed=4000 + i) == []
        total += 2000
    assert total >= 10_000
    report(
        "criterion 4 (transformation fuzz)",
        time.monotonic() - t0,
        300.0,
        f"{total} fuzzed configurations, zero contract violations",
    )


def test_criterion_5_reduction_contract_holds_in_bulk():
    t0 = time.monotonic()
    eps = F(1, 1000)
    quotas = {F(1, 4): 400, F(1, 3): 300, F(2, 5): 300}
    rng = random.Random(5001)
    reduced = 0
    for delta, quota in quotas.items():
        bound = lambda_sharp(delta)
        done = 0
        while done < quota:
            cfg = random_configuration(rng, delta)
            before = compute_stats(cfg).prob_B
            if before == 0:
                continue
            result = reduce_config(cfg, eps)
            after = compute_stats(result["out"]).prob_B
            assert before - after < eps
            assert reduced_shape_problem(result["out"]) is None
            certificate = certify_upper_bound(result["out"])
            assert after <= certificate <= bound
            done += 1
        reduced += done
    assert reduced >= 1000
    report(
        "criterion 5 (reduction pipeline)",
        time.monotonic() - t0,
        600.0,
        f"{reduced} reductions, exit shape reached, loss under 1/1000,"
        " certificates in range, no contradiction branch fired",
    )


def test_criterion_6_bound_jumps_at_one_half():
    t0 = time.monotonic()
    assert compute_stats(halfpoint_example(F(1, 2))).prob_B == 1
    assert compute_stats(halfpoint_example(F(3, 4))).prob_B == 1
    assert compute_stats(halfpoint_example(F(49, 100))).prob_B == 0
    report(
        "criterion 6 (discontinuity witness)",
        time.monotonic() - t0,
        None,
        "full spread from one half on, none just below",
    )


def test_criterion_7_correlation_example_is_exact():
    t0 = time.monotonic()
    for delta in (F(1, 4), F(1, 2), F(9, 10)):
        example = correlation_example(delta)
        assert example["correlation"] == -delta
        assert sum(w for _, w in example["points"]) == 1
    report(
        "criterion 7 (correlation witness)",
        time.monotonic() - t0,
        None,
        "correlation equals minus the threshold gap at three gaps",
    )


def test_criterion_8_coarsening_inequality_holds_in_bulk():
    t0 = time.monotonic()
    rng = random.Random(8001)
    deltas = (F(1, 4), F(1, 3), F(2, 5))
    spaces = 0
    for i in range(1000):
        space = random_space(rng)
        delta = deltas[i % len(deltas)]
        raw = spread_probability(space, 1 - delta)
        for n in (4, 16, 64):
            result = grid_coarsen(space, n, delta)
            assert result["report"]["max_x_shift"] <= F(1, n)
            assert result["report"]["max_y_shift"] <= F(1, n)
            coarse = threshold_probability(result["cfg"], 1 - delta - F(2, n))
            assert raw <= coarse
        spaces += 1
    assert spaces >= 1000
    report(
        "criterion 8 (coarsening inequality)",
        time.monotonic() - t0,
        120.0,
        f"{spaces} spaces at three resolutions, shifts within 1/n,"
        " comparison exact",
    )
