"""Raw labeled spaces, grid conversion, and resolution coarsening."""

import json
import random
from fractions import Fraction

import pytest

from expert_spread.bounds import extremal_config
from expert_spread.config import ConfigError, DomainError, compute_stats
from expert_spread.discretize import (
    Atom,
    RawSpace,
    dump_space,
    grid_coarsen,
    label_values,
    load_space,
    make_space,
    random_space,
    space_from_json_dict,
    space_to_json_dict,
    spread_probability,
    threshold_probability,
    to_configuration,
)

F = Fraction


def witness_space():
    """Atoms realizing the sharp two-by-two witness at gap 1/4."""
    return make_space(
        [
            (F(3, 5), 0, "g1", "h1"),
            (F(1, 5), F(1, 5), "g1", "h2"),
            (F(1, 5), F(1, 5), "g2", "h1"),
        ]
    )


def test_atom_validation():
    with pytest.raises(ConfigError):
        Atom(F(-1, 2), F(0), "g", "h")
    with pytest.raises(ConfigError):
        Atom(F(1, 2), F(3, 4), "g", "h")
    with pytest.raises(ConfigError):
        Atom(F(1, 2), F(-1, 4), "g", "h")


def test_space_validation():
    with pytest.raises(ConfigError):
        make_space([])
    with pytest.raises(ConfigError):
        make_space([(F(1, 2), 0, "g", "h")])


def test_label_values_on_the_witness():
    x, y = label_values(witness_space())
    assert x == {"g1": F(1, 4), "g2": F(1)}
    assert y == {"h1": F(1, 4), "h2": F(1)}


def test_witness_space_converts_to_the_witness():
    cfg = to_configuration(witness_space(), F(1, 4))
    assert cfg == extremal_config(F(1, 4))


def test_conversion_merges_repeated_label_pairs():
    space = make_space(
        [
            (F(3, 10), 0, "g1", "h1"),
            (F(3, 10), 0, "g1", "h1"),
            (F(1, 5), F(1, 5), "g1", "h2"),
            (F(1, 5), F(1, 5), "g2", "h1"),
        ]
    )
    assert to_configuration(space, F(1, 4)) == extremal_config(F(1, 4))


def test_single_atom_space_has_no_spread():
    space = make_space([(F(1), F(1, 2), "g", "h")])
    cfg = to_configuration(space, F(1, 4))
    assert (cfg.n_cols, cfg.n_rows) == (1, 1)
    assert compute_stats(cfg).prob_B == 0
    assert spread_probability(space, F(3, 4)) == 0


def test_spread_probability_matches_configuration():
    rng = random.Random(31)
    for _ in range(60):
        space = random_space(rng)
        cfg = to_configuration(space, F(1, 4))
        assert spread_probability(space, F(3, 4)) == threshold_probability(
            cfg, F(3, 4)
        )


def test_nonpositive_threshold_counts_everything():
    cfg = extremal_config(F(1, 4))
    assert threshold_probability(cfg, F(0)) == 1
    assert threshold_probability(cfg, F(-1, 2)) == 1
    assert spread_probability(witness_space(), F(0)) == 1


def test_coarsening_the_witness_is_lossless():
    result = grid_coarsen(witness_space(), 4, F(1, 4))
    report = result["report"]
    assert report["max_x_shift"] == 0
    assert report["max_y_shift"] == 0
    s = compute_stats(result["cfg"])
    assert s.prob_B == F(2, 5)
    assert s.x == (F(1, 4), F(1))


def test_coarsening_contract_on_random_spaces():
    rng = random.Random(32)
    delta = F(1, 4)
    for _ in range(120):
        space = random_space(rng)
        n = rng.choice((4, 16, 64))
        result = grid_coarsen(space, n, delta)
        report = result["report"]
        assert report["max_x_shift"] <= F(1, n)
        assert report["max_y_shift"] <= F(1, n)
        cfg = result["cfg"]
        assert cfg.n_cols <= n + 1 and cfg.n_rows <= n + 1
        raw = spread_probability(space, 1 - delta)
        coarse = threshold_probability(cfg, 1 - delta - F(2, n))
        assert raw <= coarse


def test_coarsening_resolution_validation():
    with pytest.raises(DomainError):
        grid_coarsen(witness_space(), 1, F(1, 4))
    with pytest.raises(DomainError):
        grid_coarsen(witness_space(), 0, F(1, 4))


def test_space_json_round_trip(tmp_path):
    space = witness_space()
    wire = json.loads(json.dumps(space_to_json_dict(space)))
    assert space_from_json_dict(wire) == space
    path = tmp_path / "space.json"
    with open(path, "w") as fh:
        dump_space(space, fh)
    with open(path) as fh:
        assert load_space(fh) == space


def test_space_json_rejects_garbage():
    with pytest.raises(ConfigError):
        space_from_json_dict({})
    with pytest.raises(ConfigError):
        space_from_json_dict({"atoms": [{"w": "1/2"}]})
    with pytest.raises(ConfigError):
        space_from_json_dict({"atoms": 5})
    # weights travel as strings or integers, never as JSON floats or booleans
    good = [
        {"w": "0.5", "a": 0, "g": "g1", "h": "h1"},
        {"w": "1/2", "a": "1/4", "g": "g2", "h": "h1"},
    ]
    assert space_from_json_dict({"atoms": good}).atoms[0].weight == F(1, 2)
    for key, value in (("w", 0.5), ("a", False)):
        atoms = [{**good[0], key: value}, good[1]]
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            space_from_json_dict({"atoms": atoms})


def test_random_space_is_seeded():
    assert random_space(random.Random(8)) == random_space(random.Random(8))
    total = sum(a.weight for a in random_space(random.Random(9)).atoms)
    assert total == 1
