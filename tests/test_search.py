"""Exhaustive enumeration, hill climbing, and the transformation fuzzer."""

import math
import random
from fractions import Fraction

import pytest

from expert_spread.bounds import extremal_config, lambda_sharp
from expert_spread.config import (
    ConfigError,
    DomainError,
    compute_stats,
    make_configuration,
    normalize,
)
from expert_spread.search import (
    SearchSpaceError,
    _compositions,
    enumeration_cap,
    exhaustive_search,
    fuzz_transforms,
    hill_climb,
    random_configuration,
    reduced_shape_problem,
    search_result_to_json_dict,
)

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


def test_fuzzer_reports_no_violations():
    for delta in (F(1, 4), F(3, 4)):
        report = fuzz_transforms(delta, 40, seed=7)
        assert report["violations"] == []


def test_fuzzer_is_deterministic():
    a = fuzz_transforms(F(1, 4), 20, seed=21)
    b = fuzz_transforms(F(1, 4), 20, seed=21)
    assert a == b


def test_fuzzer_input_validation():
    with pytest.raises(DomainError):
        fuzz_transforms(F(1, 4), 0, seed=1)


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
