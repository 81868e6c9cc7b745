"""From arbitrary finite labeled spaces to grid configurations.

A raw space is a list of atoms, each carrying a total weight, the part of
that weight on which the event holds, and one label per expert. Grouping
atoms by label pair turns the space into a configuration; binning the
per-label conditional probabilities onto a 1/n grid coarsens it while
moving every conditional by at most 1/n. Both steps are exact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Mapping, Sequence

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    RationalLike,
    _grid_stats,
    _json_exact,
    _shown,
    _spread_units,
    normalize,
    parse_rational,
    rational_to_str,
    validate_delta,
)
from .search import _random_parts


# ---------------------------------------------------------------------------
# Raw spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One elementary outcome: total weight, event share, two labels.

    Each weight is an ``int`` or a :class:`~fractions.Fraction`; anything
    else, ``bool`` included, raises :class:`ConfigError`.
    """

    weight: Fraction
    a_weight: Fraction
    g_label: str
    h_label: str

    def __post_init__(self) -> None:
        w, a = self.weight, self.a_weight
        for value in (w, a):
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ConfigError(
                    f"atom weights must be ints or Fractions, got {type(value).__name__}"
                )
        # signs are the numerators'; a <= w is cross-multiplied
        if w.numerator < 0:
            raise ConfigError(f"atom weight must be non-negative, got {_shown(w)}")
        if a.numerator < 0 or a.numerator * w.denominator > w.numerator * a.denominator:
            raise ConfigError(
                f"atom event share must lie in [0, weight], got "
                f"{_shown(a)} with weight {_shown(w)}"
            )


def _group(
    atoms: Sequence[Atom],
) -> tuple[int, list[tuple[int, int]], dict[str, list[int]], dict[str, list[int]]]:
    """The atoms as integers over the lcm of their denominators, summed per label.

    Returns the common denominator, each atom's (weight, event mass) in
    those units, and per column label and per row label the summed
    ``[weight, event mass]``, in dicts ordered by first appearance; labels
    carried only by zero-weight atoms are kept with zero sums.
    """
    # a list, not a generator: star-arguments from a generator build an
    # over-sized tuple and shrink it, which leaves one tuple per call in the
    # interpreter's free lists (up to 2000 of each size) until a full collection
    den = math.lcm(*[v.denominator for atom in atoms for v in (atom.weight, atom.a_weight)])
    parts = []
    cols: dict[str, list[int]] = {}
    rows: dict[str, list[int]] = {}
    for atom in atoms:
        w = atom.weight.numerator * (den // atom.weight.denominator)
        a = atom.a_weight.numerator * (den // atom.a_weight.denominator)
        parts.append((w, a))
        for sums, label in ((cols, atom.g_label), (rows, atom.h_label)):
            line = sums.get(label)
            if line is None:
                sums[label] = [w, a]
            else:
                line[0] += w
                line[1] += a
    return den, parts, cols, rows


@dataclass(frozen=True)
class RawSpace:
    """A finite labeled probability space.

    Atoms may repeat label pairs freely; weights must sum to one exactly.
    Construction groups the atoms once (see :func:`_group`): every weight
    is scaled to an integer over the lcm of the denominators, the total is
    checked as ``sum(weights) == den`` on every construction, and the
    per-label sums are kept for :func:`label_values`,
    :func:`spread_probability`, :func:`to_configuration` and
    :func:`grid_coarsen`.
    """

    atoms: tuple[Atom, ...]
    _grouped: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grouped = _group(self.atoms)
        den, parts, _, _ = grouped
        total = sum(w for w, _ in parts)
        if total != den:
            raise ConfigError(
                f"atom weights must sum to 1, got {_shown(Fraction(total, den))}"
            )
        object.__setattr__(self, "_grouped", grouped)


def make_space(atoms: list[tuple[RationalLike, RationalLike, str, str]]) -> RawSpace:
    """Build a space from (weight, a_weight, g_label, h_label) tuples."""
    built = tuple(
        Atom(
            weight=parse_rational(w),
            a_weight=parse_rational(a),
            g_label=str(g),
            h_label=str(h),
        )
        for w, a, g, h in atoms
    )
    return RawSpace(atoms=built)


# ---------------------------------------------------------------------------
# Conditional values per label
# ---------------------------------------------------------------------------


def label_values(space: RawSpace) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Exact conditional event probability per column label and row label.

    Each value is a label's summed event mass over its summed weight, both
    integers from the space's grouping. Labels whose atoms carry zero total
    weight have no conditional value and are omitted.
    """
    _, _, cols, rows = space._grouped
    x = {g: Fraction(a, w) for g, (w, a) in cols.items() if w}
    y = {h: Fraction(a, w) for h, (w, a) in rows.items() if w}
    return x, y


def spread_probability(space: RawSpace, threshold: Fraction) -> Fraction:
    """Mass of atoms whose two conditional forecasts differ by >= threshold.

    Each atom is tested on its labels' integer sums by cross-multiplying,
    one test per atom, so the cost stays linear in the atoms however many
    label pairs they span.
    """
    den, parts, cols, rows = space._grouped
    th_num, th_den = threshold.numerator, threshold.denominator
    total = 0
    for atom, (w, _) in zip(space.atoms, parts):
        if not w:
            continue
        gw, ga = cols[atom.g_label]
        hw, ha = rows[atom.h_label]
        if abs(ga * hw - ha * gw) * th_den >= th_num * gw * hw:
            total += w
    return Fraction(total, den)


def threshold_probability(cfg: Configuration, threshold: Fraction) -> Fraction:
    """Mass of cells whose column and row values differ by >= threshold.

    With ``threshold = 1 - delta`` this is the configuration's spread
    probability; other thresholds support the coarsening comparison, whose
    right-hand side uses a threshold lowered by 2/n. A non-positive
    threshold makes every cell count, so the result is 1.
    """
    g = _grid_stats(cfg)
    b_num = _spread_units(
        cfg._parts, cfg.n_rows, g.col_t, g.col_a, g.row_t, g.row_a,
        threshold.numerator, threshold.denominator,
    )
    return Fraction(b_num, g.den)


# ---------------------------------------------------------------------------
# Conversion and coarsening
# ---------------------------------------------------------------------------


def _configuration(
    d: Fraction, n_cols: int, n_rows: int, cells: dict[tuple[int, int], list[int]], den: int
) -> Configuration:
    """Normalize the grid of integer ``[a, ac]`` cells over ``den``."""
    parts = [0] * (2 * n_cols * n_rows)
    for (k, j), (a, ac) in cells.items():
        i = 2 * ((k - 1) * n_rows + j - 1)
        parts[i], parts[i + 1] = ac, a
    return normalize(Configuration._from_parts(d, n_cols, n_rows, parts, den))


def to_configuration(space: RawSpace, delta: RationalLike) -> Configuration:
    """Group atoms by label pair into a normalized configuration.

    Columns follow the first appearance order of column labels, rows of row
    labels; the final order is whatever :func:`normalize` produces from the
    conditional values. Labels carried only by zero-weight atoms vanish
    with their zero lines.
    """
    d = validate_delta(delta)
    den, parts, cols, rows = space._grouped
    g_index = {g: i for i, g in enumerate(cols, 1)}
    h_index = {h: i for i, h in enumerate(rows, 1)}
    cells: dict[tuple[int, int], list[int]] = {}
    for atom, (w, a) in zip(space.atoms, parts):
        key = (g_index[atom.g_label], h_index[atom.h_label])
        cell = cells.setdefault(key, [0, 0])
        cell[0] += a
        cell[1] += w - a
    return _configuration(d, len(cols), len(rows), cells, den)


def grid_coarsen(space: RawSpace, n: int, delta: RationalLike) -> dict:
    """Bin both experts' conditionals onto a 1/n grid.

    A label with summed weight ``w`` and event mass ``a`` (integers from the
    space's grouping) falls in bin ``(n * a) // w``: half-open 1/n bins,
    with the top value 1 in bin n. Column labels sharing a bin merge into
    one column, row labels likewise; the merged conditionals are the
    weight-averaged originals, so no conditional moves by 1/n or more.
    Coarse cells and bin totals are summed as integers in one pass over the
    atoms. Returns the coarsened configuration under ``"cfg"`` and the
    largest observed moves under ``"report"``.
    """
    d = validate_delta(delta)
    if n < 2:
        raise DomainError(f"grid resolution must be at least 2, got {n}")
    den, parts, cols, rows = space._grouped
    g_bin = {g: (n * a) // w for g, (w, a) in cols.items() if w}
    h_bin = {h: (n * a) // w for h, (w, a) in rows.items() if w}
    # bin -> [line index, weight, event mass], indexed by first appearance
    g_bins: dict[int, list[int]] = {}
    h_bins: dict[int, list[int]] = {}
    cells: dict[tuple[int, int], list[int]] = {}
    for atom, (w, a) in zip(space.atoms, parts):
        if not w:
            continue
        g_total = g_bins.setdefault(g_bin[atom.g_label], [len(g_bins) + 1, 0, 0])
        g_total[1] += w
        g_total[2] += a
        h_total = h_bins.setdefault(h_bin[atom.h_label], [len(h_bins) + 1, 0, 0])
        h_total[1] += w
        h_total[2] += a
        cell = cells.setdefault((g_total[0], h_total[0]), [0, 0])
        cell[0] += a
        cell[1] += w - a
    return {
        "cfg": _configuration(d, len(g_bins), len(h_bins), cells, den),
        "report": {
            "max_x_shift": _max_shift(cols, g_bin, g_bins),
            "max_y_shift": _max_shift(rows, h_bin, h_bins),
        },
    }


def _max_shift(
    sums: dict[str, list[int]], bin_of: dict[str, int], bins: dict[int, list[int]]
) -> Fraction:
    """The largest move of a label's conditional onto its bin's.

    A label with sums ``w, a`` in a bin with totals ``W, A`` moves by
    ``|a/w - A/W| = |a*W - A*w| / (w*W)``.
    """
    moves = []
    for label, b in bin_of.items():
        w, a = sums[label]
        _, bin_w, bin_a = bins[b]
        moves.append(Fraction(abs(a * bin_w - bin_a * w), w * bin_w))
    return max(moves, default=Fraction(0))


# ---------------------------------------------------------------------------
# Randomized spaces for property tests
# ---------------------------------------------------------------------------


def random_space(
    rng: random.Random, max_atoms: int = 12, max_labels: int = 5
) -> RawSpace:
    """One seeded random space with deliberately colliding labels."""
    n_atoms = rng.randint(1, max_atoms)
    denom = 2 ** rng.randint(4, 10)
    atoms = []
    for w in _random_parts(rng, denom, n_atoms):
        a = rng.randint(0, w)
        atoms.append(
            Atom(
                Fraction(w, denom),
                Fraction(a, denom),
                f"g{rng.randint(1, max_labels)}",
                f"h{rng.randint(1, max_labels)}",
            )
        )
    return RawSpace(atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def space_to_json_dict(space: RawSpace) -> dict:
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


def space_from_json_dict(data: Mapping) -> RawSpace:
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
                    weight=parse_rational(_json_exact(entry["w"], "w")),
                    a_weight=parse_rational(_json_exact(entry["a"], "a")),
                    g_label=str(entry["g"]),
                    h_label=str(entry["h"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed atom entry: {entry!r}") from exc
    return RawSpace(atoms=tuple(atoms))


def dump_space(space: RawSpace, fp: IO[str]) -> None:
    json.dump(space_to_json_dict(space), fp, indent=2)
    fp.write("\n")


def load_space(fp: IO[str]) -> RawSpace:
    try:
        data = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"space file is not valid JSON: {exc}") from exc
    return space_from_json_dict(data)
