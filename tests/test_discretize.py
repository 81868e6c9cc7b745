"""Raw labeled spaces, grid conversion, and resolution coarsening."""

import copy
import io
import json
import math
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from expert_spread import config
from expert_spread.bounds import extremal_config
from expert_spread.config import (
    ConfigError,
    Configuration,
    DomainError,
    compute_stats,
    make_configuration,
    normalize,
    parse_rational,
    rational_to_str,
)
from expert_spread.discretize import (
    Atom,
    RawSpace,
    grid_coarsen,
    label_values,
    load_space,
    space_from_json_dict,
    spread_probability,
    threshold_probability,
    to_configuration,
)
from expert_spread.search import _random_parts

F = Fraction

DELTAS = (F(1, 10), F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 4))


def random_space(rng, max_atoms=12, max_labels=5):
    """One seeded random space with deliberately colliding labels."""
    n_atoms = rng.randint(1, max_atoms)
    denom = 2 ** rng.randint(4, 10)
    atoms = []
    for w in _random_parts(rng, denom, n_atoms):
        a = rng.randint(0, w)
        atoms.append(
            Atom(
                F(w, denom),
                F(a, denom),
                f"g{rng.randint(1, max_labels)}",
                f"h{rng.randint(1, max_labels)}",
            )
        )
    return RawSpace(atoms=tuple(atoms))


def space_to_json_dict(space):
    """The document ``space_from_json_dict`` reads, with exact rational strings."""
    return {
        "atoms": [
            {
                "w": rational_to_str(atom.weight),
                "a": rational_to_str(atom.a_weight),
                "g": atom.g_label,
                "h": atom.h_label,
            }
            for atom in space.atoms
        ]
    }


# ---------------------------------------------------------------------------
# The Fraction reference: label values, spread, conversion and coarsening as
# they were computed before the integer grouping, one atom at a time.
# ---------------------------------------------------------------------------


def reference_label_values(space):
    g_w, g_a, h_w, h_a = {}, {}, {}, {}
    for atom in space.atoms:
        g_w[atom.g_label] = g_w.get(atom.g_label, F(0)) + atom.weight
        g_a[atom.g_label] = g_a.get(atom.g_label, F(0)) + atom.a_weight
        h_w[atom.h_label] = h_w.get(atom.h_label, F(0)) + atom.weight
        h_a[atom.h_label] = h_a.get(atom.h_label, F(0)) + atom.a_weight
    x = {g: g_a[g] / w for g, w in g_w.items() if w > 0}
    y = {h: h_a[h] / w for h, w in h_w.items() if w > 0}
    return x, y


def reference_spread_probability(space, threshold):
    x, y = reference_label_values(space)
    total = F(0)
    for atom in space.atoms:
        if atom.weight == 0:
            continue
        if abs(x[atom.g_label] - y[atom.h_label]) >= threshold:
            total += atom.weight
    return total


def reference_to_configuration(space, delta):
    g_order, h_order = [], []
    for atom in space.atoms:
        if atom.g_label not in g_order:
            g_order.append(atom.g_label)
        if atom.h_label not in h_order:
            h_order.append(atom.h_label)
    g_index = {g: i + 1 for i, g in enumerate(g_order)}
    h_index = {h: i + 1 for i, h in enumerate(h_order)}
    masses = {}
    for atom in space.atoms:
        key = (g_index[atom.g_label], h_index[atom.h_label])
        a0, c0 = masses.get(key, (F(0), F(0)))
        masses[key] = (a0 + atom.a_weight, c0 + atom.weight - atom.a_weight)
    return normalize(make_configuration(delta, len(g_order), len(h_order), masses))


def reference_bin_of(value, n):
    scaled = n * value
    return scaled.numerator // scaled.denominator


def reference_grid_coarsen(space, n, delta):
    x, y = reference_label_values(space)
    relabeled = []
    for atom in space.atoms:
        if atom.weight == 0:
            continue
        gb = reference_bin_of(x[atom.g_label], n)
        hb = reference_bin_of(y[atom.h_label], n)
        relabeled.append(Atom(atom.weight, atom.a_weight, f"{gb:04d}", f"{hb:04d}"))
    coarse_space = RawSpace(atoms=tuple(relabeled))
    cfg = reference_to_configuration(coarse_space, delta)
    xc, yc = reference_label_values(coarse_space)
    max_x_shift = max(
        (abs(v - xc[f"{reference_bin_of(v, n):04d}"]) for v in x.values()), default=F(0)
    )
    max_y_shift = max(
        (abs(v - yc[f"{reference_bin_of(v, n):04d}"]) for v in y.values()), default=F(0)
    )
    return {"cfg": cfg, "report": {"max_x_shift": max_x_shift, "max_y_shift": max_y_shift}}


def make_space(atoms):
    """A raw space from (weight, a_weight, g_label, h_label) tuples."""
    return RawSpace(atoms=tuple(Atom(*atom) for atom in atoms))


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
    assert Atom(1, F(1, 2), "g", "h").weight == 1
    # weights are ints or Fractions; anything else is refused at construction
    for bad in (0.5, True, False, "1/2", None):
        for weights in ((bad, F(0)), (F(1, 2), bad)):
            with pytest.raises(ConfigError, match="^atom weights must be ints or Fractions"):
                Atom(*weights, "g", "h")


def test_space_validation():
    with pytest.raises(ConfigError):
        make_space([])
    # no space without atoms, so conversion and coarsening never see one
    with pytest.raises(ConfigError, match="atom weights must sum to 1, got 0"):
        RawSpace(atoms=())
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


def test_thresholds_are_read_as_exact_rationals():
    # a string reads as its Fraction does; a float has lost its exact value
    # and a boolean is not a number, so both are refused
    cfg, space = extremal_config(F(1, 4)), witness_space()
    for value in ("1/2", "3/4", 1, 0):
        want = F(value)
        assert threshold_probability(cfg, value) == threshold_probability(cfg, want)
        assert spread_probability(space, value) == spread_probability(space, want)
    for bad in (0.5, True, False):
        with pytest.raises(ConfigError, match="threshold"):
            threshold_probability(cfg, bad)
        with pytest.raises(ConfigError, match="threshold"):
            spread_probability(space, bad)


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
    path.write_text(json.dumps(wire))
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


def test_labels_must_be_strings():
    # no label is coerced: 1 and "1" would otherwise name one column
    good = {"w": "1", "a": "0", "g": "g1", "h": "h1"}
    assert space_from_json_dict({"atoms": [good]}).atoms[0].g_label == "g1"
    for key in ("g", "h"):
        for bad in (1, [], True, None):
            with pytest.raises(ConfigError, match="^atom labels must be strings, got "):
                space_from_json_dict({"atoms": [{**good, key: bad}]})
    with pytest.raises(ConfigError, match="^atom labels must be strings, got int$"):
        Atom(F(1), F(0), "g", 1)


def test_grids_past_the_cell_cap_are_refused_before_allocating():
    # a 1001x1001 grid holds 1,002,001 cells, past the cap of 10**6
    with pytest.raises(ConfigError) as want:
        make_configuration(F(1, 4), 1001, 1001, {})
    # 1,001 atoms of equal weight, each with its own labels and the value
    # i/1001: as many lines on each axis, directly and on the 1/10**6 grid
    w = F(1, 1001)
    space = make_space([(w, w * F(i, 1001), f"g{i}", f"h{i}") for i in range(1001)])
    for build in (
        lambda: to_configuration(space, F(1, 4)),
        lambda: grid_coarsen(space, 10**6, F(1, 4)),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as raised:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == str(want.value)
        assert str(raised.value) == "a 1001x1001 grid exceeds the limit of 1000000 cells"
        # the grid's list alone would take 16 MB
        assert peak < 10**6


def test_random_space_is_seeded():
    assert random_space(random.Random(8)) == random_space(random.Random(8))
    total = sum(a.weight for a in random_space(random.Random(9)).atoms)
    assert total == 1


def with_zero_atoms(rng, space):
    """``space`` with up to three zero-weight atoms inserted at random places.

    Each carries an existing label or a fresh one, so some labels are
    carried only by zero-weight atoms.
    """
    atoms = list(space.atoms)
    for _ in range(rng.randint(0, 3)):
        g = rng.choice((atoms[0].g_label, f"gz{rng.randint(1, 2)}"))
        h = rng.choice((atoms[-1].h_label, f"hz{rng.randint(1, 2)}"))
        atoms.insert(rng.randint(0, len(atoms)), Atom(F(0), F(0), g, h))
    return RawSpace(atoms=tuple(atoms))


def test_discretize_matches_the_fraction_reference():
    rng = random.Random(20191203)
    zero_only_labels = 0
    gap_thresholds = 0
    for draw in range(2000):
        space = with_zero_atoms(rng, random_space(rng))
        delta = DELTAS[draw % len(DELTAS)]
        x, y = label_values(space)
        expected = reference_label_values(space)
        assert (list(x.items()), list(y.items())) == tuple(
            list(values.items()) for values in expected
        )
        labels = {a.g_label for a in space.atoms} | {a.h_label for a in space.atoms}
        zero_only_labels += len(labels) > len(x) + len(y)
        gaps = sorted({abs(xv - yv) for xv in x.values() for yv in y.values()})
        gaps = rng.sample(gaps, min(3, len(gaps)))
        gap_thresholds += len(gaps)
        for threshold in (F(0), F(-1, 2), 1 - delta, *gaps):
            assert spread_probability(space, threshold) == reference_spread_probability(
                space, threshold
            )
        assert to_configuration(space, delta) == reference_to_configuration(space, delta)
        for n in (2, 3, 4, 16, 64):
            assert grid_coarsen(space, n, delta) == reference_grid_coarsen(space, n, delta)
    assert zero_only_labels > 300
    assert gap_thresholds > 4000


def test_coarsening_builds_one_configuration_in_normal_order(monkeypatch):
    """Ascending bins are ascending values: one build per call, and no sort."""
    counts = {}
    init, orders = Configuration._init, config._line_orders

    def counted(name, method):
        def call(*args):
            counts[name] += 1
            return method(*args)

        return call

    monkeypatch.setattr(Configuration, "_init", counted("builds", init))
    monkeypatch.setattr(config, "_line_orders", counted("sorts", orders))
    rng = random.Random(1912)
    zero_atoms = 0
    for draw in range(400):
        space = with_zero_atoms(rng, random_space(rng))
        zero_atoms += any(not atom.weight for atom in space.atoms)
        counts.update(builds=0, sorts=0)
        n = rng.choice((2, 3, 4, 16, 64, 1000))
        result = grid_coarsen(space, n, DELTAS[draw % len(DELTAS)])
        assert counts == {"builds": 1, "sorts": 0}
        assert normalize(result["cfg"]) == result["cfg"]
    assert zero_atoms > 200


def assert_coarsens_as_the_reference(atoms, n, delta=F(1, 4)):
    space = make_space(atoms)
    result = grid_coarsen(space, n, delta)
    assert result == reference_grid_coarsen(space, n, delta)
    return result


def test_coarsening_bin_edges():
    # at n = 4, labels at 0, 1/4, 3/8, 1/2, 3/4, 7/8 and 1, rows mirroring
    # columns: each edge value k/4 opens bin k, 1/4 and 3/8 share bin 1,
    # 3/4 and 7/8 share bin 3, and 1 stays alone in the top bin 4
    values = (F(0), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(7, 8), F(1))
    weights = (F(1, 8),) * 6 + (F(1, 4),)
    atoms = [(w, w * v, f"g{i}", f"h{i}") for i, (w, v) in enumerate(zip(weights, values))]
    result = assert_coarsens_as_the_reference(atoms, 4)
    assert result["cfg"].dims == (5, 5)
    assert compute_stats(result["cfg"]).x == (F(0), F(5, 16), F(1, 2), F(13, 16), F(1))
    assert result["report"] == {"max_x_shift": F(1, 16), "max_y_shift": F(1, 16)}
    # every label in one bin: a 1x1 grid, each label moved to the average
    result = assert_coarsens_as_the_reference(
        [(F(1, 2), F(1, 16), "g1", "h1"), (F(1, 2), F(1, 8), "g2", "h2")], 2
    )
    assert result["cfg"].dims == (1, 1)
    assert result["report"] == {"max_x_shift": F(1, 16), "max_y_shift": F(1, 16)}
    # two labels tied for the largest move, in bins of different weight;
    # each row is alone in its bin
    result = assert_coarsens_as_the_reference(
        [
            (F(1, 8), 0, "g1", "h1"),
            (F(1, 8), F(1, 32), "g2", "h1"),
            (F(3, 8), F(3, 16), "g3", "h2"),
            (F(3, 8), F(9, 32), "g4", "h2"),
        ],
        2,
    )
    assert result["report"] == {"max_x_shift": F(1, 8), "max_y_shift": F(0)}
    # n = 1000 above the space's denominator (every draw's but 2**10); over
    # 16, two distinct label values differ by at least 1/256, so each value
    # sits alone in its bin and nothing moves
    rng = random.Random(1000)
    above = alone = 0
    for _ in range(300):
        space = random_space(rng)
        den = space._grouped[0]
        result = grid_coarsen(space, 1000, F(1, 3))
        assert result == reference_grid_coarsen(space, 1000, F(1, 3))
        above += den < 1000
        if den <= 16:
            alone += 1
            report = result["report"]
            assert report == {"max_x_shift": F(0), "max_y_shift": F(0)}
            assert {type(v) for v in report.values()} == {F}
    assert above > 200 and alone > 20


def test_label_indexing_is_linear():
    """Each label lookup goes through a dict, never a scan of the labels seen.

    Column labels are all distinct; every atom's row label is a fresh but
    equal string, so each dict lookup of it costs one comparison. A list
    scan would need about n**2 / 2 comparisons for n column labels, and
    the budget of eight per label stops it long before that.
    """
    counts = {}
    for n_labels in (5_000, 20_000):
        seen = [0]

        class Label(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                seen[0] += 1
                if seen[0] > 8 * n_labels:
                    raise AssertionError(f"more than {8 * n_labels} label comparisons")
                return str.__eq__(self, other)

        atoms = tuple(
            Atom(F(1, n_labels), F(i % 3, 2 * n_labels), Label(f"g{i}"), Label("h"))
            for i in range(n_labels)
        )
        space = RawSpace(atoms=atoms)
        label_values(space)
        spread_probability(space, F(3, 4))
        assert to_configuration(space, F(1, 4)).dims == (n_labels, 1)
        grid_coarsen(space, 4, F(1, 4))
        counts[n_labels] = seen[0]
    # four times the labels, fewer than five times the comparisons
    assert 0 < counts[20_000] < 5 * counts[5_000]


# ---------------------------------------------------------------------------
# The Fraction loader: every weight parsed into a Fraction, each Atom checked
# on Fractions, then the space grouped, as raw spaces were read before the
# loader read integer pairs. The differential test keeps it as its oracle.
# ---------------------------------------------------------------------------


def reference_space_from_json_dict(data):
    try:
        raw_atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("space JSON must be an object with an 'atoms' list") from exc
    if not isinstance(raw_atoms, (list, tuple)):
        raise ConfigError("space JSON must be an object with an 'atoms' list")
    atoms = []
    for entry in raw_atoms:
        try:
            atoms.append(
                Atom(
                    weight=parse_rational(config._json_exact(entry["w"], "w")),
                    a_weight=parse_rational(config._json_exact(entry["a"], "a")),
                    g_label=entry["g"],
                    h_label=entry["h"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed atom entry: {entry!r}") from exc
    return RawSpace(atoms=tuple(atoms))


def written(rng, value):
    """``value``, a Fraction in [0, 1], as one of the spellings a file may use."""
    kind = rng.randrange(7)
    if kind == 0 and value.denominator == 1:
        return int(value)  # a JSON integer
    if kind == 1:
        k = rng.randint(2, 9)  # "p/q" not in lowest terms
        return f"{value.numerator * k}/{value.denominator * k}"
    if kind in (2, 3) and 10**12 % value.denominator == 0:
        digits = value.numerator * 10**12 // value.denominator
        if kind == 2:
            return f"{digits}e-12"  # an exponent
        return f"{digits // 10**12}.{digits % 10**12:012d}"  # a decimal point
    if kind == 4:
        return f" {value} "  # surrounding blanks, left to Fraction's parser
    return str(value)


def random_space_document(rng):
    """A valid space document, before any damage: atoms summing to one."""
    denom = rng.choice((1, 2, 3, 4, 5, 8, 12, 16, 1000, 1024))
    atoms = []
    for w in _random_parts(rng, denom, rng.randint(1, 8)):
        a = rng.randint(0, w)
        atoms.append(
            {
                "w": written(rng, F(w, denom)),
                "a": written(rng, F(a, denom)),
                "g": f"g{rng.randint(1, 4)}",
                "h": f"h{rng.randint(1, 4)}",
            }
        )
    return {"atoms": atoms}


def damaged(rng, doc):
    """``doc`` with one atom broken in one of the ways a file can be malformed."""
    atoms = [dict(atom) for atom in doc["atoms"]]
    atom = rng.choice(atoms)
    kind = rng.randrange(10)
    if kind == 0:
        del atom[rng.choice("wagh")]  # a missing key
    elif kind == 1:
        atom[rng.choice("wa")] = rng.choice((0.5, 1.0, True, False))  # a JSON float or boolean
    elif kind == 2:
        atom[rng.choice("gh")] = rng.choice((1, None, [], True))  # a non-string label
    elif kind == 3:
        atom["w"] = rng.choice(("-1/4", -1, "-0.5"))  # a negative weight
    elif kind == 4:
        atom["a"] = f"{rng.randint(2, 5)}/{rng.choice((1, 2))}"  # a > w
    elif kind == 5:
        atoms.append({"w": "1/7", "a": "0", "g": "g9", "h": "h9"})  # a sum that is not 1
    elif kind == 6:
        atom[rng.choice("wa")] = "1" * 1001 + "/" + "3" * 1001  # more than 1000 digits
    elif kind == 7:
        atom[rng.choice("wa")] = rng.choice(("1/0", "x", "", None, [1], "1/2/3"))  # not a rational
    elif kind == 8:
        atoms[atoms.index(atom)] = rng.choice(("atom", 3, None, ["w"]))  # not an object
    else:
        return rng.choice(({}, [], {"atoms": 5}, {"atoms": None}, {"atoms": []}))
    return {"atoms": atoms}


def loaded_or_refused(load, doc):
    try:
        return load(doc)
    except ConfigError as exc:
        return type(exc), str(exc)


def test_space_loader_matches_the_fraction_loader():
    rng = random.Random(1403)
    loaded, refusals, reduced = 0, [], 0
    for draw in range(3000):
        doc = random_space_document(rng)
        if draw % 2:
            doc = damaged(rng, doc)
        got = loaded_or_refused(space_from_json_dict, doc)
        want = loaded_or_refused(reference_space_from_json_dict, doc)
        assert got == want, doc
        if isinstance(got, RawSpace):
            loaded += 1
            assert hash(got) == hash(want)
            assert got.atoms == want.atoms
            assert {type(v) for a in got.atoms for v in (a.weight, a.a_weight)} == {F}
            # the written denominators' lcm shares a factor with every weight
            written_den = math.lcm(
                *[config._as_ratio(atom[k], "rational")[1] for atom in doc["atoms"] for k in "wa"]
            )
            reduced += written_den != got._grouped[0]
        else:
            refusals.append(got[1])
    assert loaded > 1200 and reduced > 100
    # every refusal of the loader, each reached many times
    for start in (
        "space JSON must be an object",
        "malformed atom entry: {",
        "malformed atom entry: 'atom'",
        "w must be a string or an integer",
        "a must be a string or an integer",
        "atom labels must be strings",
        "atom weight must be non-negative",
        "atom event share must lie in [0, weight]",
        "atom weights must sum to 1",
        "rational '1111111111",
        "cannot parse rational",
    ):
        assert sum(text.startswith(start) for text in refusals) >= 10, start


def test_loaded_spaces_build_their_atoms_only_when_read(monkeypatch):
    built = [0]
    check = Atom.__post_init__

    def counted(atom):
        built[0] += 1
        check(atom)

    monkeypatch.setattr(Atom, "__post_init__", counted)
    text = json.dumps(random_space_document(random.Random(35)))
    space = load_space(io.StringIO(text))
    label_values(space)
    spread_probability(space, F(3, 4))
    to_configuration(space, F(1, 4))
    for n in (2, 16):
        grid_coarsen(space, n, F(1, 4))
    assert built[0] == 0
    atoms = space.atoms
    assert built[0] == len(atoms) and space.atoms is atoms
    # a space built from atoms keeps them and equals the loaded one
    same = RawSpace(atoms=list(atoms))
    assert built[0] == len(atoms) and same.atoms == atoms
    assert same == space and hash(same) == hash(space)
    assert space.__eq__(atoms) is NotImplemented and space != atoms
    assert repr(space) == f"RawSpace(atoms={atoms!r})"
    assert load_space(io.StringIO(text)) == same
    with pytest.raises(FrozenInstanceError):
        space.atoms = ()
    assert copy.copy(space) == space == pickle.loads(pickle.dumps(space))
