"""Statistics, validation, and serialization of grid configurations."""

import copy
import json
import math
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from expert_spread.config import (
    Cell,
    ConfigError,
    Configuration,
    DomainError,
    compute_stats,
    config_from_json_dict,
    config_to_json_dict,
    dump_config,
    load_config,
    make_configuration,
    normalize,
    overlap_check,
    overlap_violations,
    parse_rational,
    pitman_inclusion_violations,
    rational_to_decimal,
    rational_to_str,
    replace_cells,
    separation_check,
    separation_violations,
    validate_delta,
)
from expert_spread.transforms import complement_reflect, transpose

F = Fraction


def quarter_witness():
    """The sharp two-by-two witness at threshold gap 1/4, built by hand."""
    return make_configuration(
        F(1, 4),
        2,
        2,
        {(1, 1): (0, F(3, 5)), (1, 2): (F(1, 5), 0), (2, 1): (F(1, 5), 0)},
    )


def worked_example():
    """Two-by-two with colliding conditionals and no spread at gap 1/4."""
    return make_configuration(
        F(1, 4),
        2,
        2,
        {(1, 1): (0, F(1, 2)), (1, 2): (F(1, 4), 0), (2, 1): (F(1, 4), 0)},
    )


def test_witness_statistics():
    s = compute_stats(quarter_witness())
    assert s.p == (F(4, 5), F(1, 5))
    assert s.q == (F(4, 5), F(1, 5))
    assert s.x == (F(1, 4), F(1))
    assert s.y == (F(1, 4), F(1))
    assert s.prob_B == F(2, 5)
    assert s.b_mask == ((False, True), (True, False))
    assert s.m_minus_G == 1
    assert s.m_plus_G == 2
    assert s.m_minus_H == 1
    assert s.m_plus_H == 2
    assert s.d_minus == ((1, 2),)
    assert s.d_plus == ((2, 1),)


def test_worked_example_statistics():
    s = compute_stats(worked_example())
    assert s.x == (F(1, 3), F(1))
    assert s.y == (F(1, 3), F(1))
    assert s.prob_B == 0
    assert all(not flag for col in s.b_mask for flag in col)


def test_sentinels_when_no_spread():
    s = compute_stats(worked_example())
    assert s.m_minus_G == 0
    assert s.m_plus_G == math.inf
    assert s.m_minus_H == 0
    assert s.m_plus_H == math.inf
    assert s.d_minus == ()
    assert s.d_plus == ()


def test_stats_are_cached():
    cfg = quarter_witness()
    assert compute_stats(cfg) is compute_stats(cfg)


def test_overlap_equality_on_witness():
    cfg = quarter_witness()
    low = overlap_check(cfg, 1, 2)
    assert low["applicable"]
    assert low["holds"]
    assert low["lhs"] == F(1, 5)
    assert low["rhs"] == F(1, 5)
    high = overlap_check(cfg, 2, 1)
    assert high["applicable"]
    assert high["lhs"] == high["rhs"] == F(1, 5)
    # cells outside the spread set carry no overlap constraint
    assert not overlap_check(cfg, 1, 1)["applicable"]


def test_separation_equality_on_witness():
    cfg = quarter_witness()
    d = separation_check(cfg, 1, 2)
    assert d["lhs"] == F(3, 4)
    assert d["rhs"] == F(3, 4)
    assert d["holds"]


def test_violation_scans_empty_on_sound_inputs():
    for cfg in (quarter_witness(), worked_example()):
        assert overlap_violations(cfg) == []
        assert separation_violations(cfg) == []
        assert pitman_inclusion_violations(cfg) == []


def test_pitman_scan_vacuous_above_one_half():
    cfg = make_configuration(
        F(3, 4), 1, 2, {(1, 1): (0, F(1, 2)), (1, 2): (F(1, 2), 0)}
    )
    assert pitman_inclusion_violations(cfg) == []


def test_delta_validation():
    assert validate_delta(F(1, 4)) == F(1, 4)
    assert validate_delta("2/5") == F(2, 5)
    for bad in (0, 1, F(3, 2), F(-1, 4)):
        with pytest.raises(DomainError):
            validate_delta(bad)
    with pytest.raises(ConfigError):
        validate_delta("not a number")


def test_parse_rational():
    assert parse_rational("2/5") == F(2, 5)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(3) == F(3)
    assert parse_rational(F(1, 7)) == F(1, 7)
    for bad in ("", "x", "1/0", None):
        with pytest.raises(ConfigError):
            parse_rational(bad)
    # digits and exponent are counted before parsing: Fraction itself takes
    # seconds on the first of these and builds a 33-million-bit denominator
    assert parse_rational("1e-999") == F(1, 10**999)
    for huge in ("1e-10000000", "1e-1000", "1" * 1001, "1/" + "3" * 1001):
        with pytest.raises(ConfigError, match="has more than 1000 digits"):
            parse_rational(huge)


def test_construction_validation():
    with pytest.raises(ConfigError):
        make_configuration(F(1, 4), 0, 1, {})
    with pytest.raises(ConfigError):
        make_configuration(F(1, 4), 1, 1, {(2, 1): (1, 0)})
    with pytest.raises(ConfigError):
        make_configuration(F(1, 4), 1, 1, {(1, 1): (F(-1, 2), F(3, 2))})
    with pytest.raises(ConfigError):
        make_configuration(F(1, 4), 1, 1, {(1, 1): (0, F(1, 2))})
    with pytest.raises((ConfigError, DomainError)):
        make_configuration(0, 1, 1, {(1, 1): (0, 1)})
    with pytest.raises(ConfigError, match="^cell masses must be non-negative"):
        Cell(F(-1, 2), 0)
    with pytest.raises(ConfigError, match="^grid must be at least 1x1, got 0x1$"):
        Configuration(F(1, 4), 0, 1, ())
    with pytest.raises(ConfigError, match="^cells array shape does not match"):
        Configuration(F(1, 4), 2, 1, ((Cell(1, 0),),))
    # masses are exact rationals: a float, a bool or a string is refused when
    # the cell is built, not when statistics first read its denominator
    for bad in (0.5, True, "1/2", None):
        with pytest.raises(ConfigError, match="^cell masses must be ints or Fractions"):
            Cell(bad, F(1, 2))
        with pytest.raises(ConfigError, match="^cell masses must be ints or Fractions"):
            Cell(F(1, 2), bad)
    assert Cell(1, 0) == Cell(F(1), F(0))


def test_errors_abbreviate_values_too_long_to_print():
    # the API takes exact values past the parser's digit limit; formatting
    # one into a message must not raise Python's 4300-digit ValueError
    tiny = F(1, 10**5000)
    with pytest.raises(ConfigError, match="got <a rational of about 5000 digits>$"):
        make_configuration(F(1, 4), 1, 1, {(1, 1): (0, tiny)})
    with pytest.raises(ConfigError, match="non-negative"):
        make_configuration(F(1, 4), 1, 2, {(1, 1): (0, 1 + tiny), (1, 2): (-tiny, 0)})
    with pytest.raises(DomainError, match="about 5000 digits"):
        validate_delta(1 + tiny)


def test_stats_reject_empty_lines():
    cfg = quarter_witness()
    hollow = replace_cells(
        cfg,
        {
            (1, 1): Cell(F(0), F(1)),
            (1, 2): Cell(F(0), F(0)),
            (2, 1): Cell(F(0), F(0)),
        },
    )
    with pytest.raises(ConfigError):
        compute_stats(hollow)
    dropped = normalize(hollow)
    assert (dropped.n_cols, dropped.n_rows) == (1, 1)


def test_normalize_sorts_columns_and_rows():
    cfg = make_configuration(
        F(1, 4), 2, 1, {(1, 1): (F(1, 2), 0), (2, 1): (0, F(1, 2))}
    )
    assert compute_stats(cfg).x == (F(1), F(0))
    sorted_cfg = normalize(cfg)
    assert compute_stats(sorted_cfg).x == (F(0), F(1))
    assert compute_stats(sorted_cfg).prob_B == compute_stats(cfg).prob_B


def test_normalize_fixed_point_on_sorted_input():
    cfg = quarter_witness()
    assert normalize(cfg) == cfg


def test_decimal_rendering():
    assert rational_to_decimal(F(2, 5)) == "0.4"
    assert rational_to_decimal(F(1, 8)) == "0.125"
    assert rational_to_decimal(F(1, 3)) == "0." + "3" * 15
    assert rational_to_decimal(F(2, 11)) == "0.181818181818181"
    assert rational_to_decimal(F(4, 7)) == "0.571428571428571"
    assert rational_to_decimal(F(1)) == "1"
    assert rational_to_decimal(F(0)) == "0"
    assert rational_to_decimal(F(-2, 5)) == "-0.4"


def test_rational_to_str():
    assert rational_to_str(F(2, 5)) == "2/5"
    assert rational_to_str(F(3)) == "3"
    assert rational_to_str(F(0)) == "0"


def test_json_round_trip_is_exact():
    cfg = quarter_witness()
    wire = json.loads(json.dumps(config_to_json_dict(cfg)))
    assert config_from_json_dict(wire) == cfg


def test_file_round_trip_is_exact(tmp_path):
    cfg = worked_example()
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        dump_config(cfg, fh)
    with open(path) as fh:
        again = load_config(fh)
    assert again == cfg


def test_json_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_json_dict({"delta": "1/4"})
    with pytest.raises(ConfigError):
        config_from_json_dict(
            {"delta": "1/4", "cols": 1, "rows": 1, "cells": [{"col": 1}]}
        )
    with pytest.raises(ConfigError):
        config_from_json_dict({"delta": "1/4", "cols": 1, "rows": 1, "cells": 5})
    twice = {"col": 1, "row": 1, "a": "1/2", "ac": "1/2"}
    with pytest.raises(ConfigError, match=r"^duplicate cell entry for \(1, 1\)$"):
        config_from_json_dict(
            {"delta": "1/4", "cols": 1, "rows": 1, "cells": [twice, twice]}
        )
    # numbers travel as strings or integers; JSON floats and booleans are
    # refused instead of being rounded, truncated or read as 0 and 1
    good = {
        "delta": "0.25",
        "cols": 2,
        "rows": 1,
        "cells": [
            {"col": 1, "row": 1, "a": "1/2", "ac": 0},
            {"col": 2, "row": 1, "a": 0, "ac": "0.5"},
        ],
    }
    assert config_from_json_dict(good).delta == F(1, 4)
    for key, value in (("delta", 0.1), ("cols", 2.9), ("rows", True)):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            config_from_json_dict({**good, key: value})
    for key, value in (("col", 1.7), ("row", True), ("a", 0.5), ("ac", 0.0)):
        cells = [{**good["cells"][0], key: value}, good["cells"][1]]
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            config_from_json_dict({**good, "cells": cells})


def test_oversized_grids_are_refused_before_allocating():
    # just past the limit first, where a late check costs megabytes, not the
    # whole memory: only then the 10^10 cells a document may declare
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="exceeds the limit of 1000000 cells"):
            config_from_json_dict(
                {"delta": "1/4", "cols": 1001, "rows": 1000, "cells": []}
            )
        with pytest.raises(ConfigError, match="at least 1x1"):
            make_configuration(F(1, 4), 10**6 + 1, -1, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    with pytest.raises(ConfigError, match="exceeds the limit"):
        config_from_json_dict(
            {"delta": "1/4", "cols": 100000, "rows": 100000, "cells": []}
        )


def test_random_round_trips():
    rng = random.Random(20240817)
    for _ in range(50):
        n_cols = rng.randint(1, 3)
        n_rows = rng.randint(1, 3)
        denom = 2 ** rng.randint(3, 6)
        slots = 2 * n_cols * n_rows
        cuts = sorted(rng.randint(0, denom) for _ in range(slots - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        masses = {}
        idx = 0
        for k in range(1, n_cols + 1):
            for j in range(1, n_rows + 1):
                a, ac = parts[idx], parts[idx + 1]
                idx += 2
                masses[(k, j)] = (F(a, denom), F(ac, denom))
        try:
            cfg = make_configuration(F(1, 4), n_cols, n_rows, masses)
        except ConfigError:
            continue  # a random draw may leave some line empty
        wire = json.loads(json.dumps(config_to_json_dict(cfg)))
        assert config_from_json_dict(wire) == cfg


def test_equal_rebuilds_share_hash_and_memo_entry():
    rng = random.Random(4)
    deltas = (F(1, 4), F(2, 5), F(3, 4))
    distinct = set()
    for _ in range(60):
        n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
        denom = rng.choice((12, 30, 64, 97, 360))
        cuts = sorted(rng.randint(0, denom) for _ in range(2 * n_cols * n_rows - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        masses = {
            (k + 1, j + 1): (F(parts[2 * (k * n_rows + j)], denom), F(parts[2 * (k * n_rows + j) + 1], denom))
            for k in range(n_cols)
            for j in range(n_rows)
        }
        for delta in deltas:
            a = normalize(make_configuration(delta, n_cols, n_rows, masses))
            distinct.add(a)
            rebuilds = (
                transpose(transpose(a)),
                complement_reflect(complement_reflect(a)),
                config_from_json_dict(json.loads(json.dumps(config_to_json_dict(a)))),
                replace_cells(a, {(1, 1): a.cell(1, 1)}),
            )
            compute_stats(a)
            for b in rebuilds:
                assert b is not a
                assert b == a
                assert hash(b) == hash(a)
                hits = compute_stats.cache_info().hits
                assert compute_stats(b) is compute_stats(a)
                assert compute_stats.cache_info().hits == hits + 2
    # the same grid at another delta is another key, not a collision
    assert len({hash(cfg) for cfg in distinct}) == len(distinct)
    # slots keep the per-instance footprint flat, hash included
    for cfg in (a, a.cell(1, 1)):
        assert not hasattr(cfg, "__dict__")


def test_configurations_are_frozen_and_copy_through_the_lattice():
    cfg = quarter_witness()
    assert repr(cfg).startswith(
        "Configuration(delta=Fraction(1, 4), n_cols=2, n_rows=2, "
        "cells=((Cell(a_mass=Fraction(0, 1), ac_mass=Fraction(3, 5)), "
    )
    with pytest.raises(FrozenInstanceError):
        cfg.delta = F(1, 3)
    with pytest.raises(FrozenInstanceError):
        del cfg.n_cols
    for twin in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
        assert twin == cfg and hash(twin) == hash(cfg)
        assert twin.cells == cfg.cells


def test_the_integer_constructor_checks_its_input():
    build = Configuration._from_parts
    # four slots over 8, in lowest terms after dividing by 2
    cfg = build(F(1, 4), 1, 2, [2, 2, 0, 4], 8)
    assert (cfg._parts, cfg._den) == ((1, 1, 0, 2), 4)
    assert cfg == make_configuration(F(1, 4), 1, 2, {(1, 1): ("1/4", "1/4"), (1, 2): ("1/2", 0)})
    with pytest.raises(ConfigError, match="^cell masses must be non-negative, got a=1/2, ac=-1/4$"):
        build(F(1, 4), 1, 2, [4, 2, -2, 4], 8)
    with pytest.raises(ConfigError, match="^total mass must be exactly 1, got 7/8$"):
        build(F(1, 4), 1, 2, [2, 2, 0, 3], 8)
    with pytest.raises(ConfigError, match="^3 masses do not fill a 1x2 grid$"):
        build(F(1, 4), 1, 2, [2, 2, 4], 8)
    with pytest.raises(DomainError, match="^delta must lie strictly between 0 and 1"):
        build(F(1), 1, 2, [2, 2, 0, 4], 8)
