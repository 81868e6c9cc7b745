"""Exhaustive enumeration and hill climbing."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from expert_spread.bounds import extremal_config, lambda_sharp
from expert_spread import search
from expert_spread.config import (
    ConfigError,
    DomainError,
    InternalStateError,
    _normalized,
    _stats_loop,
    compute_stats,
    make_configuration,
    normalize,
)
from expert_spread.search import (
    SearchSpaceError,
    _gaps,
    _random_parts,
    enumeration_cap,
    exhaustive_search,
    hill_climb,
    reduced_shape_problem,
    search_result_to_json_dict,
)

from test_transforms import random_configuration

F = Fraction


def test_exhaustive_finds_the_extremal_witness():
    result = exhaustive_search(F(1, 4), 2, 2, 5)
    assert result.configs_evaluated == math.comb(12, 5) == 792
    assert result.best_prob_B == F(2, 5) == lambda_sharp(F(1, 4))
    assert result.best_config == extremal_config(F(1, 4))
    assert result.method == "exhaustive"
    assert result.seed is None


def test_exhaustive_denominator_eight_falls_short():
    # the optimal masses have denominator five, so eighths cannot tile them
    result = exhaustive_search(F(1, 4), 2, 2, 8)
    assert result.configs_evaluated == math.comb(15, 8) == 6435
    assert F(1, 4) <= result.best_prob_B < F(2, 5)


def test_exhaustive_three_by_three_stays_below_the_bound():
    result = exhaustive_search(F(1, 4), 3, 3, 6)
    assert result.configs_evaluated == math.comb(23, 6) == 100947
    assert F(1, 3) <= result.best_prob_B <= F(2, 5)


def test_exhaustive_single_cell_has_no_spread():
    result = exhaustive_search(F(1, 4), 1, 1, 7)
    assert result.best_prob_B == 0


def test_exhaustive_shape_validation():
    with pytest.raises(DomainError):
        exhaustive_search(F(1, 4), 0, 2, 5)
    with pytest.raises(DomainError):
        exhaustive_search(F(1, 4), 2, 2, 0)


def test_oversized_searches_are_refused_before_allocating():
    # hill_climb builds lists of two slots per cell; the limit comes first
    tracemalloc.start()
    try:
        for run in (
            lambda: hill_climb(F(1, 4), 1001, 1000, 1, 0),
            lambda: exhaustive_search(F(1, 4), 1001, 1000, 5),
        ):
            with pytest.raises(DomainError, match="exceeds the limit of 1000000 cells"):
                run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_enumeration_cap_guards_the_loop(monkeypatch):
    monkeypatch.delenv("EXPERT_SPREAD_ENUM_CAP", raising=False)
    assert enumeration_cap() == 10**8
    count = math.comb(95, 64)
    with pytest.raises(SearchSpaceError) as err:
        exhaustive_search(F(1, 4), 4, 4, 64)
    assert str(count) in str(err.value)


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("EXPERT_SPREAD_ENUM_CAP", "100")
    assert enumeration_cap() == 100
    with pytest.raises(SearchSpaceError) as err:
        exhaustive_search(F(1, 4), 2, 2, 5)
    assert "792" in str(err.value)
    monkeypatch.setenv("EXPERT_SPREAD_ENUM_CAP", "not a number")
    with pytest.raises(ConfigError):
        enumeration_cap()


def test_hill_climb_is_deterministic():
    a = hill_climb(F(1, 4), 2, 2, 2000, seed=42)
    b = hill_climb(F(1, 4), 2, 2, 2000, seed=42)
    assert a.best_prob_B == b.best_prob_B
    assert a.best_config == b.best_config
    assert a.configs_evaluated == b.configs_evaluated == 2000
    assert a.method == "hill_climb"
    assert a.seed == 42


def test_hill_climb_approaches_the_bound():
    result = hill_climb(F(1, 4), 2, 2, 10_000, seed=0)
    assert result.configs_evaluated == 10_000
    assert F(39, 100) <= result.best_prob_B <= lambda_sharp(F(1, 4))


def test_hill_climb_minimal_budget():
    result = hill_climb(F(1, 4), 2, 2, 1, seed=5)
    assert result.configs_evaluated == 1
    assert 0 <= result.best_prob_B <= lambda_sharp(F(1, 4))
    with pytest.raises(DomainError):
        hill_climb(F(1, 4), 2, 2, 0, seed=5)


def test_search_result_serialization():
    result = exhaustive_search(F(1, 4), 2, 2, 5)
    wire = search_result_to_json_dict(result)
    assert wire["method"] == "exhaustive"
    assert wire["seed"] is None
    assert wire["delta"] == "1/4"
    assert wire["best_prob_B"] == "2/5"
    assert wire["configs_evaluated"] == 792
    assert wire["best_config"]["cols"] == 2


def test_random_configuration_is_seeded_and_normalized():
    first = [random_configuration(random.Random(99), F(1, 4)) for _ in range(5)]
    second = [random_configuration(random.Random(99), F(1, 4)) for _ in range(5)]
    assert first == second
    rng = random.Random(100)
    for _ in range(50):
        cfg = random_configuration(rng, F(1, 3))
        assert cfg == normalize(cfg)
        assert cfg.delta == F(1, 3)
        assert 1 <= cfg.n_cols <= 4 and 1 <= cfg.n_rows <= 4
        assert compute_stats(cfg).prob_B <= lambda_sharp(F(1, 3))


def test_reduced_shape_conditions():
    result = exhaustive_search(F(1, 4), 2, 2, 5)
    assert reduced_shape_problem(result.best_config) is None
    deep = make_configuration(
        F(1, 4),
        3,
        2,
        {
            (1, 1): (0, F(2, 5)),
            (2, 1): (0, F(7, 40)),
            (2, 2): (F(1, 40), 0),
            (3, 1): (0, F(3, 10)),
            (3, 2): (F(1, 10), 0),
        },
    )
    assert reduced_shape_problem(deep) is not None


def _compositions(total, slots):
    """All weak compositions of ``total`` into ``slots`` parts.

    Lexicographically ascending in the flat slot order, so a search that
    updates its argmax only on strict improvement reports the
    lexicographically smallest maximizer.
    """
    for bars in itertools.combinations(range(total + slots - 1), slots - 1):
        yield tuple(_gaps(bars, total))


def recursive_compositions(total, slots):
    """Weak compositions in lexicographic order, by recursion on the first slot."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, slots - 1):
            yield (first,) + rest


def test_compositions_keep_the_lexicographic_order():
    for total, slots in ((0, 3), (1, 1), (4, 1), (5, 8), (4, 18), (3, 18), (2, 32)):
        got = list(_compositions(total, slots))
        assert got == list(recursive_compositions(total, slots))
        assert len(got) == math.comb(total + slots - 1, total)


def test_compositions_do_not_recurse_per_slot():
    # a 40x40 grid at denominator 1: more slots than the recursion limit
    vectors = list(_compositions(1, 3200))
    assert len(vectors) == 3200
    assert vectors[0] == (0,) * 3199 + (1,)
    assert vectors[-1] == (1,) + (0,) * 3199


# ---------------------------------------------------------------------------
# The reference: both searches as they were before column classes and
# running line sums, every vector scored by the full kernel.
# ---------------------------------------------------------------------------


def reference_exhaustive(delta, n_cols, n_rows, denom):
    """Best spread numerator, vector count and winner, one kernel call per vector."""
    th = 1 - delta
    best_prob, best_parts, evaluated = -1, None, 0
    for parts in _compositions(denom, 2 * n_cols * n_rows):
        evaluated += 1
        prob = _stats_loop(parts, n_cols, n_rows, th.numerator, th.denominator)[5]
        if prob > best_prob:
            best_prob, best_parts = prob, parts
    cfg = _normalized(delta, n_cols, n_rows, best_parts, denom)
    return F(best_prob, denom), evaluated, cfg


def reference_hill_climb(delta, n_cols, n_rows, iters, seed):
    """The climb rebuilding its positive slots and line sums after every move."""
    rng = random.Random(seed)
    slots = 2 * n_cols * n_rows
    th = 1 - delta

    def spread(parts):
        return _stats_loop(parts, n_cols, n_rows, th.numerator, th.denominator)[5]

    restarts = max(1, min(8, iters // 1250))
    base = iters // restarts
    leftover = iters - base * restarts
    best_prob, best_parts, evaluated = -1, None, 0
    for r in range(restarts):
        budget = base + (leftover if r == 0 else 0)
        if budget == 0:
            continue
        parts = _random_parts(rng, 1024, slots)
        cur = spread(parts)
        evaluated += 1
        if cur > best_prob:
            best_prob, best_parts = cur, tuple(parts)
        moves = budget - 1
        for step in range(moves):
            quantum = max(1, 128 >> ((8 * step) // max(1, moves)))
            positive = [i for i in range(slots) if parts[i] > 0]
            src = rng.choice(positive)
            dst = rng.randrange(slots - 1)
            if dst >= src:
                dst += 1
            amt = min(quantum, parts[src])
            parts[src] -= amt
            parts[dst] += amt
            prob = spread(parts)
            evaluated += 1
            if prob >= cur:
                cur = prob
                if prob > best_prob:
                    best_prob, best_parts = prob, tuple(parts)
            else:
                parts[src] += amt
                parts[dst] -= amt
    cfg = _normalized(delta, n_cols, n_rows, best_parts, 1024)
    return F(best_prob, 1024), evaluated, cfg


SEARCH_DELTAS = (F(1, 10), F(1, 4), F(1, 3), F(2, 5), F(3, 4))


def column_classes(n_cols, n_rows, denom):
    """Multisets of ``n_cols`` columns of ``2 * n_rows`` slots with ``denom`` units in all.

    Counted by total: ``math.comb(t + w - 1, w - 1)`` columns hold ``t``
    units, and ``s`` of them are chosen with repetition in
    ``math.comb(kinds + s - 1, s)`` ways.
    """
    width = 2 * n_rows
    # ways[s][u]: multisets of s columns holding u units, over the totals so far
    ways = [[0] * (denom + 1) for _ in range(n_cols + 1)]
    ways[0][0] = 1
    for t in range(denom + 1):
        kinds = math.comb(t + width - 1, width - 1)
        grown = [row[:] for row in ways]
        for s in range(n_cols + 1):
            for u in range(denom + 1):
                if not ways[s][u]:
                    continue
                for extra in range(1, n_cols - s + 1):
                    if u + extra * t > denom:
                        break
                    grown[s + extra][u + extra * t] += ways[s][u] * math.comb(
                        kinds + extra - 1, extra
                    )
        ways = grown
    return ways[n_cols][denom]


def count_evaluations(monkeypatch, scored):
    """Make every evaluator the searches fetch append to ``scored`` per call."""
    factory = search._units_evaluator

    def counting_factory(n_cols, n_rows):
        units = factory(n_cols, n_rows)

        def counting(*args):
            scored.append(1)
            return units(*args)

        return counting

    monkeypatch.setattr(search, "_units_evaluator", counting_factory)


def test_exhaustive_matches_the_reference(monkeypatch):
    scored = []
    count_evaluations(monkeypatch, scored)
    cases = 0
    for n_cols in range(1, 4):
        for n_rows in range(1, 4):
            for denom in range(1, 6):
                if math.comb(denom + 2 * n_cols * n_rows - 1, denom) > 30_000:
                    continue
                for delta in SEARCH_DELTAS:
                    scored.clear()
                    got = exhaustive_search(delta, n_cols, n_rows, denom)
                    want = reference_exhaustive(delta, n_cols, n_rows, denom)
                    assert (got.best_prob_B, got.configs_evaluated, got.best_config) == want
                    # each column class is scored exactly once
                    assert len(scored) == column_classes(n_cols, n_rows, denom)
                    cases += 1
    assert cases == 225


def test_hill_climb_matches_the_reference():
    cases = 0
    for n_cols in range(1, 6):
        for n_rows in range(1, 3):
            for iters in (1, 2, 7, 1249, 1250, 2600):
                for seed in range(3):
                    delta = SEARCH_DELTAS[(n_cols + n_rows + iters + seed) % 5]
                    got = hill_climb(delta, n_cols, n_rows, iters, seed)
                    want = reference_hill_climb(delta, n_cols, n_rows, iters, seed)
                    assert (got.best_prob_B, got.configs_evaluated, got.best_config) == want
                    cases += 1
    # the benchmark's climb grids, whose positive lists run up to 32 slots
    for n_cols, n_rows in ((3, 3), (4, 4), (2, 4), (4, 3)):
        for seed in range(3):
            delta = SEARCH_DELTAS[(n_cols + n_rows + seed) % 5]
            got = hill_climb(delta, n_cols, n_rows, 1250, seed)
            want = reference_hill_climb(delta, n_cols, n_rows, 1250, seed)
            assert (got.best_prob_B, got.configs_evaluated, got.best_config) == want
            cases += 1
    assert cases == 192


def test_column_classes_count():
    # the criterion-2 grids and the counts quoted for them
    assert column_classes(3, 3, 6) == 17_689
    assert column_classes(2, 2, 8) == 3_235
    assert column_classes(1, 2, 5) == math.comb(8, 5)


def test_spread_is_invariant_under_line_permutations():
    rng = random.Random(606)
    for _ in range(400):
        n_cols, n_rows = rng.randint(1, 5), rng.randint(1, 5)
        denom = 2 ** rng.randint(2, 8)
        parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
        th = 1 - rng.choice(SEARCH_DELTAS)
        cols = rng.sample(range(n_cols), n_cols)
        rows = rng.sample(range(n_rows), n_rows)
        moved = []
        for k in cols:
            for j in rows:
                i = 2 * (k * n_rows + j)
                moved += parts[i : i + 2]
        spread = _stats_loop(parts, n_cols, n_rows, th.numerator, th.denominator)
        shuffled = _stats_loop(moved, n_cols, n_rows, th.numerator, th.denominator)
        assert shuffled[5] == spread[5]


@pytest.mark.parametrize("n_cols, n_rows, denom", [(40, 40, 1), (2, 1600, 1), (1, 1, 2000)])
def test_exhaustive_does_not_recurse_per_column(n_cols, n_rows, denom):
    result = exhaustive_search(F(1, 4), n_cols, n_rows, denom)
    assert result.configs_evaluated == math.comb(denom + 2 * n_cols * n_rows - 1, denom)
    assert result.best_prob_B == 0


@pytest.mark.parametrize("search_run", [
    lambda: exhaustive_search(F(1, 4), 2, 2, 5),
    lambda: hill_climb(F(1, 4), 2, 2, 400, seed=0),
])
def test_searches_check_every_evaluation_against_the_bound(monkeypatch, search_run):
    # the bound is a theorem, so only a bound broken on purpose, just below
    # the best value the search reaches, can trip the check
    best = search_run().best_prob_B
    assert best > 0
    lam = best - F(1, 10**9)
    monkeypatch.setattr(search, "lambda_sharp", lambda delta: lam)
    # the first evaluation above the bound is one at the best value, and
    # the whole message is matched, so any change to its text fails here
    message = (
        f"evaluated spread probability {best} exceeds the closed-form bound "
        f"{lam}; the evaluator or the bound is broken"
    )
    with pytest.raises(InternalStateError, match=f"^{re.escape(message)}$"):
        search_run()


def test_exhaustive_checks_that_its_classes_cover_every_vector(monkeypatch):
    raise_column = search._raise_column

    def skipping(parts, o, width, room, after, strict):
        # a column before the last moved on twice leaves the classes that
        # start with the column it skips unscored
        if strict and after:
            raise_column(parts, o, width, room, after, strict)
        return raise_column(parts, o, width, room, after, strict)

    monkeypatch.setattr(search, "_raise_column", skipping)
    with pytest.raises(InternalStateError, match="cover .* mass vectors, not 792"):
        exhaustive_search(F(1, 4), 2, 2, 5)
