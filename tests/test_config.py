"""Statistics, validation, and serialization of grid configurations."""

import copy
import io
import json
import math
import pickle
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import expert_spread
from expert_spread import config
from expert_spread.bounds import extremal_config
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
    overlap_violations,
    parse_rational,
    pitman_inclusion_violations,
    rational_to_decimal,
    rational_to_str,
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
    # a far-apart cell's mass c is at most delta/(1+delta) * (P+Q), with P
    # and Q its column's and row's masses; the witness meets it with equality
    cfg = quarter_witness()
    s = compute_stats(cfg)
    for k, j in ((1, 2), (2, 1)):
        assert s.b_mask[k - 1][j - 1]
        bound = cfg.delta / (1 + cfg.delta) * (s.p[k - 1] + s.q[j - 1])
        assert cfg.cell(k, j).mass == bound == F(1, 5)
    # cells outside the spread set carry no overlap constraint
    assert not s.b_mask[0][0]
    assert overlap_violations(cfg) == []


def test_separation_equality_on_witness():
    # (P+Q-2c)/(P+Q-c), the chance that exactly one of "in column k" and
    # "in row j" holds given that one does, is at least |x_k - y_j|; the
    # witness meets it with equality at cell (1, 2)
    cfg = quarter_witness()
    s = compute_stats(cfg)
    c = cfg.cell(1, 2).mass
    lhs = (s.p[0] + s.q[1] - 2 * c) / (s.p[0] + s.q[1] - c)
    assert lhs == abs(s.x[0] - s.y[1]) == F(3, 4)
    assert separation_violations(cfg) == []


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


def test_parse_rational_reads_plain_digits_like_fraction(monkeypatch):
    """Plain "p" and "p/q" in ASCII digits, and every near miss, parse as Fraction does."""
    # which strings reach Fraction's own parser
    parsed = []

    class Recording(Fraction):
        def __new__(cls, *args):
            if isinstance(args[0], str):
                parsed.append(args[0])
            return Fraction(*args)

    monkeypatch.setattr(config, "Fraction", Recording)
    plain = [
        "0", "7", "007", "2/5", "10/4", "0/3", "123456789/987654321",
        "1" * 1000, "9" * 499 + "/" + "7" * 500,
    ]
    near_misses = [
        "/3", "3/", "/", " 1/2", "1/2 ", "+1/2", "-1/2", "1_0/3", "0.5", "1e3",
        "1/2/3", "1 /2", "١/٢", "1/٢", "²", "0x10", "\t7",
        "1" * 1001, "1/" + "3" * 999, "1/" + "3" * 997 + "x",
    ]
    for text in plain + near_misses:
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        if sum(map(str.isdigit, text)) > 1000:
            message = f"rational {shown} has more than 1000 digits"
        else:
            try:
                want = Fraction(text)
            except (ValueError, ZeroDivisionError):
                message = f"cannot parse rational {shown} as an exact rational"
            else:
                got = parse_rational(text)
                assert got.__class__ is Fraction and got == want, text
                continue
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            parse_rational(text)
    # only the near misses that pass the digit count reach Fraction's parser
    assert parsed == [t for t in near_misses if sum(map(str.isdigit, t)) <= 1000]
    # up to 1,000 characters are tried on the direct path, longer strings
    # are counted first
    assert len(plain[-1]) == len(plain[-2]) == len(near_misses[-1]) == 1000
    assert len(near_misses[-3]) == len(near_misses[-2]) == 1001
    with pytest.raises(ConfigError, match=r"^cannot parse rational '3/0' as an exact rational$"):
        parse_rational("3/0")


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
    # all the mass in cell (1, 1): column 2 and row 2 are empty
    hollow = make_configuration(F(1, 4), 2, 2, {(1, 1): (0, 1)})
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


# The deltas of every benchmark workload, and a few more.
WORKLOAD_DELTAS = (F(1, 10), F(1, 4), F(1, 3), F(2, 5), F(3, 4))


def random_dump_case(rng):
    """A grid of up to 6x6 over a denominator of up to 2^60, many shares zero."""
    n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
    denom = rng.choice((1, 2, 7, 360, 2520, 2**60, rng.randint(2, 2**60)))
    slots = 2 * n_cols * n_rows
    cuts = sorted(rng.randint(0, denom) for _ in range(slots - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    for i in range(0, slots, 2):
        # one share of the cell moved onto the other
        if rng.random() < 0.3:
            keep = rng.randint(0, 1)
            parts[i + keep], parts[i + 1 - keep] = parts[i] + parts[i + 1], 0
    delta = rng.choice(WORKLOAD_DELTAS + (F(1, 2), F(999, 1000)))
    return Configuration._from_parts(delta, n_cols, n_rows, parts, denom)


def test_dump_config_writes_the_json_module_text():
    """The direct writer gives json.dumps(config_to_json_dict(cfg), indent=2) byte for byte."""
    rng = random.Random(20190514)
    cases = [extremal_config(delta) for delta in WORKLOAD_DELTAS]
    # 1x1 grids, whole masses on either side
    cases += [make_configuration(delta, 1, 1, {(1, 1): ("1", 0)}) for delta in WORKLOAD_DELTAS]
    cases += [make_configuration(F(1, 4), 1, 1, {(1, 1): (0, 1)})]
    cases += [random_dump_case(rng) for _ in range(2000)]
    seen = dict.fromkeys(("1x1", "whole", "one zero share", "den > 2^40"), 0)
    for cfg in cases:
        buf = io.StringIO()
        dump_config(cfg, buf)
        data = config_to_json_dict(cfg)
        assert buf.getvalue() == json.dumps(data, indent=2) + "\n"
        # the dict's strings are those Fraction prints
        for entry in data["cells"]:
            cell = cfg.cell(entry["col"], entry["row"])
            assert (entry["a"], entry["ac"]) == (str(cell.a_mass), str(cell.ac_mass))
            seen["whole"] += "1" in (entry["a"], entry["ac"])
            seen["one zero share"] += "0" in (entry["a"], entry["ac"])
        seen["1x1"] += cfg.dims == (1, 1)
        seen["den > 2^40"] += cfg._den > 2**40
    assert {cfg.delta for cfg in cases} >= set(WORKLOAD_DELTAS)
    assert min(seen.values()) > 50, seen


def reference_rational(value, what):
    """A mass as the loaders read it before they read masses into integers: a Fraction."""
    if isinstance(value, Fraction):
        return value
    try:
        # a float has lost its exact value, and a boolean is not a number
        if isinstance(value, (bool, float)):
            raise TypeError(value)
        if isinstance(value, str):
            digits = sum(map(str.isdigit, value))
            _, e, exponent = value.upper().partition("E")
            if e and digits <= 1000:
                digits += abs(int(exponent)) - sum(map(str.isdigit, exponent))
            if digits > 1000:
                raise ConfigError(f"{what} {config._shown(value)} has more than 1000 digits")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(
            f"cannot parse {what} {config._shown(value)} as an exact rational"
        ) from exc


def reference_make_configuration(delta, n_cols, n_rows, masses):
    """make_configuration on the Fraction path: every mass a Fraction, then the lattice."""
    delta_f = validate_delta(delta)
    if n_cols < 1 or n_rows < 1:
        raise ConfigError(f"grid must be at least 1x1, got {n_cols}x{n_rows}")
    if n_cols * n_rows > config.MAX_CELLS:
        raise ConfigError(f"a {n_cols}x{n_rows} grid exceeds the limit of {config.MAX_CELLS} cells")
    flat = [F(0)] * (2 * n_cols * n_rows)
    for (k, j), (a, ac) in masses.items():
        if not (1 <= k <= n_cols and 1 <= j <= n_rows):
            raise ConfigError(f"cell index ({k},{j}) out of range for a {n_cols}x{n_rows} grid")
        a_f, ac_f = reference_rational(a, "a mass"), reference_rational(ac, "ac mass")
        if a_f < 0 or ac_f < 0:
            raise config._negative_masses(a_f, ac_f)
        i = 2 * ((k - 1) * n_rows + j - 1)
        flat[i], flat[i + 1] = ac_f, a_f
    parts, den = config._lattice(flat)
    return Configuration._from_parts(delta_f, n_cols, n_rows, parts, den)


def reference_from_json_dict(data):
    """config_from_json_dict on the Fraction path: each mass parsed as it is met."""
    try:
        delta = config._json_exact(data["delta"], "delta")
        n_cols = int(config._json_exact(data["cols"], "cols"))
        n_rows = int(config._json_exact(data["rows"], "rows"))
        raw_cells = data["cells"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    if not isinstance(raw_cells, (list, tuple)):
        raise ConfigError(f"'cells' must be a list, got {raw_cells!r}")
    masses = {}
    for entry in raw_cells:
        try:
            key = (
                int(config._json_exact(entry["col"], "col")),
                int(config._json_exact(entry["row"], "row")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed cell entry {entry!r}") from exc
        if key in masses:
            raise ConfigError(f"duplicate cell entry for {key}")
        masses[key] = (
            reference_rational(config._json_exact(entry.get("a", 0), "a"), "rational"),
            reference_rational(config._json_exact(entry.get("ac", 0), "ac"), "rational"),
        )
    return reference_make_configuration(delta, n_cols, n_rows, masses)


def outcome(build, *args):
    """The configuration with its lattice, or the error's type and text."""
    try:
        cfg = build(*args)
    except config.ExpertSpreadError as exc:
        return type(exc), str(exc)
    return cfg, cfg._parts, cfg._den


LOADER_MASSES = [
    "1/2", "2/4", "0/7", "3/0", " 1/2", "1/2 ", "+1/2", "-1/2", "0.5", "1e-3",
    "5e-1", "٠/٧", "١/٢", "1/٢", "²", "", "/", "x",
    "0" * 999 + "1", "1/" + "0" * 997 + "2",  # 1,000 characters, read directly
    "0" * 1000 + "1", "1/" + "0" * 998 + "2",  # 1,001: counted, then parsed
    0, 1, 2, -1, 10**5000, None, [1], 0.5, 1.0, True, False,
]


def test_loader_matches_the_fraction_path():
    """Each mass loads to the Fraction path's configuration and lattice, or its error text."""
    assert len(LOADER_MASSES[18]) == len(LOADER_MASSES[19]) == 1000
    assert len(LOADER_MASSES[20]) == len(LOADER_MASSES[21]) == 1001
    kinds = dict.fromkeys(("loaded", "error"), 0)
    for mass in LOADER_MASSES:
        try:
            rest = str(1 - Fraction(mass)) if not isinstance(mass, (bool, float)) else "1/2"
        except (TypeError, ValueError, ZeroDivisionError):
            rest = "1/2"
        for where, other in (("a", "ac"), ("ac", "a")):
            doc = {
                "delta": "1/4",
                "cols": 2,
                "rows": 1,
                "cells": [
                    {"col": 1, "row": 1, where: mass, other: "0"},
                    {"col": 2, "row": 1, where: "0", other: rest},
                ],
            }
            want = outcome(reference_from_json_dict, doc)
            assert outcome(config_from_json_dict, doc) == want, (mass, where)
            kinds["loaded" if want[0].__class__ is Configuration else "error"] += 1
            # make_configuration reads the same values, naming the share
            masses = {(1, 1): (mass, 0), (2, 1): (0, rest)}
            if where == "ac":
                masses = {(1, 1): (0, mass), (2, 1): (rest, 0)}
            assert outcome(make_configuration, F(1, 4), 2, 1, masses) == outcome(
                reference_make_configuration, F(1, 4), 2, 1, masses
            ), (mass, where)
    assert kinds["loaded"] > 20 and kinds["error"] > 20, kinds
    for value, text in ((0.5, "a must be a string or an integer, got 0.5"),
                        (True, "a must be a string or an integer, got True")):
        doc = {"delta": "1/4", "cols": 1, "rows": 1, "cells": [{"col": 1, "row": 1, "a": value}]}
        with pytest.raises(ConfigError, match="^" + re.escape(text) + "$"):
            config_from_json_dict(doc)


def test_loader_keeps_its_error_texts_and_their_order():
    """One and several errors in a document: the first reported is the Fraction path's."""
    good = {"col": 1, "row": 1, "a": "1/2", "ac": "1/2"}
    bad_mass = {"col": 1, "row": 1, "a": "x", "ac": "0"}

    def doc(*cells, delta="1/4", rows=1):
        return {"delta": delta, "cols": 1, "rows": rows, "cells": list(cells)}

    docs = {
        "duplicate": doc(good, good),
        "out of range": doc({**good, "col": 2}),
        "total mass": doc({**good, "ac": "1/3"}),
        "negative": doc({**good, "a": "-1/2", "ac": "3/2"}),
        "delta": doc(good, delta="5/4"),
        "mass then duplicate": doc(bad_mass, good),
        "mass then range": doc(bad_mass, {**good, "row": 3}),
        "range then mass": doc({**good, "row": 3}, {**bad_mass, "row": 2}),
        "mass and delta": doc(bad_mass, delta="0"),
        "negative then range": doc({**good, "a": "-1", "ac": "2"}, {**good, "col": 3}, rows=2),
        "negative ac then range": doc({**good, "a": "2", "ac": "-1"}, {**good, "col": 3}, rows=2),
    }
    texts = {}
    for name, document in docs.items():
        want = outcome(reference_from_json_dict, document)
        assert outcome(config_from_json_dict, document) == want, name
        texts[name] = want[1]
    assert texts["duplicate"] == "duplicate cell entry for (1, 1)"
    assert texts["out of range"] == "cell index (2,1) out of range for a 1x1 grid"
    assert texts["total mass"] == "total mass must be exactly 1, got 5/6"
    assert texts["negative"] == "cell masses must be non-negative, got a=-1/2, ac=3/2"
    assert texts["mass then duplicate"] == texts["mass and delta"] == (
        "cannot parse rational 'x' as an exact rational"
    )
    assert texts["range then mass"] == "cannot parse rational 'x' as an exact rational"
    assert texts["negative ac then range"] == "cell masses must be non-negative, got a=2, ac=-1"


def test_star_import_resolves_every_public_name():
    # an __all__ entry whose import was deleted fails the star import
    namespace = {}
    exec("from expert_spread import *", namespace)
    assert [name for name in expert_spread.__all__ if name not in namespace] == []
