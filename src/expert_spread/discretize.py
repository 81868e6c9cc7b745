"""From arbitrary finite labeled spaces to grid configurations.

A raw space is a list of atoms, each carrying a total weight, the part of
that weight on which the event holds, and one label per expert. Grouping
atoms by label pair turns the space into a configuration; binning the
per-label conditional probabilities onto a 1/n grid coarsens it while
moving every conditional by at most 1/n. Both steps are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Mapping, Sequence

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    RationalLike,
    _JSON_PLAIN,
    _as_ratio,
    _cap_cells,
    _grid_stats,
    _json_exact,
    _load_json,
    _normalized,
    _shown,
    _units_evaluator,
    parse_rational,
    validate_delta,
)


# ---------------------------------------------------------------------------
# Raw spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One elementary outcome: total weight, event share, two labels.

    Each weight is an ``int`` or a :class:`~fractions.Fraction` and each
    label a ``str``; anything else, ``bool`` included, raises
    :class:`ConfigError`.
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
        for label in (self.g_label, self.h_label):
            if not isinstance(label, str):
                raise ConfigError(f"atom labels must be strings, got {type(label).__name__}")
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
    :func:`spread_probability` and :func:`grid_coarsen`, and their label
    order for :func:`to_configuration`.
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


def spread_probability(space: RawSpace, threshold: RationalLike) -> Fraction:
    """Mass of atoms whose two conditional forecasts differ by >= threshold.

    Each atom is tested on its labels' integer sums by cross-multiplying,
    one test per atom, so the cost stays linear in the atoms however many
    label pairs they span. The threshold is read as an exact rational; a
    float or a boolean raises :class:`ConfigError`.
    """
    den, parts, cols, rows = space._grouped
    th_num, th_den = _as_ratio(threshold, "threshold")
    total = 0
    for atom, (w, _) in zip(space.atoms, parts):
        if not w:
            continue
        gw, ga = cols[atom.g_label]
        hw, ha = rows[atom.h_label]
        if abs(ga * hw - ha * gw) * th_den >= th_num * gw * hw:
            total += w
    return Fraction(total, den)


def threshold_probability(cfg: Configuration, threshold: RationalLike) -> Fraction:
    """Mass of cells whose column and row values differ by >= threshold.

    With ``threshold = 1 - delta`` this is the configuration's spread
    probability; other thresholds support the coarsening comparison, whose
    right-hand side uses a threshold lowered by 2/n. A non-positive
    threshold makes every cell count, so the result is 1, returned without
    running the evaluator, which tests each side of the spread region apart
    and needs a positive threshold. The threshold is read as in
    :func:`spread_probability`.
    """
    th_num, th_den = _as_ratio(threshold, "threshold")
    _grid_stats(cfg)  # refuses a zero-mass line, as compute_stats does
    if th_num <= 0:
        return Fraction(1)
    b_num = _units_evaluator(cfg.n_cols, cfg.n_rows)(cfg._parts, th_num, th_den)
    return Fraction(b_num, cfg._den)


# ---------------------------------------------------------------------------
# Conversion and coarsening
# ---------------------------------------------------------------------------


def to_configuration(space: RawSpace, delta: RationalLike) -> Configuration:
    """Group atoms by label pair into a normalized configuration.

    Columns follow the first appearance order of column labels, rows of row
    labels; the final order is whatever :func:`normalize` produces from the
    conditional values, and the grid is built once, in that order. Labels
    carried only by zero-weight atoms vanish with their zero lines. A grid
    of more than :data:`~expert_spread.config.MAX_CELLS` cells raises
    :class:`ConfigError` before it is allocated.
    """
    d = validate_delta(delta)
    den, parts, cols, rows = space._grouped
    n_cols, n_rows = len(cols), len(rows)
    _cap_cells(n_cols, n_rows)
    g_index = {g: i for i, g in enumerate(cols)}
    h_index = {h: i for i, h in enumerate(rows)}
    grid = [0] * (2 * n_cols * n_rows)
    for atom, (w, a) in zip(space.atoms, parts):
        i = 2 * (g_index[atom.g_label] * n_rows + h_index[atom.h_label])
        grid[i] += w - a
        grid[i + 1] += a
    return _normalized(d, n_cols, n_rows, grid, den)


def grid_coarsen(space: RawSpace, n: int, delta: RationalLike) -> dict:
    """Bin both experts' conditionals onto a 1/n grid.

    A label with summed weight ``w`` and event mass ``a`` (integers from the
    space's grouping) falls in bin ``(n * a) // w``: half-open 1/n bins,
    with the top value 1 in bin n. Column labels sharing a bin merge into
    one column, row labels likewise; the merged conditionals are the
    weight-averaged originals, so no conditional moves by 1/n or more.

    Bin order is value order: a merged line's value averages values in
    ``[b/n, (b+1)/n)`` (bin n holds only 1), so it stays in that interval,
    and ascending bins have strictly ascending values, each over a positive
    weight. The lines are therefore laid out by ascending bin, the grid
    :func:`normalize` would return, and the atoms are summed straight into
    it as integers, so one configuration is built, after the cell cap of
    :func:`to_configuration`. Returns it under ``"cfg"`` and the largest
    observed moves under ``"report"``.
    """
    d = validate_delta(delta)
    if n < 2:
        raise DomainError(f"grid resolution must be at least 2, got {n}")
    den, parts, cols, rows = space._grouped
    g_line, n_cols, g_shift = _bin_lines(cols, n)
    h_line, n_rows, h_shift = _bin_lines(rows, n)
    _cap_cells(n_cols, n_rows)
    grid = [0] * (2 * n_cols * n_rows)
    for atom, (w, a) in zip(space.atoms, parts):
        if w:
            i = 2 * (g_line[atom.g_label] * n_rows + h_line[atom.h_label])
            grid[i] += w - a
            grid[i + 1] += a
    return {
        "cfg": Configuration._from_parts(d, n_cols, n_rows, grid, den),
        "report": {"max_x_shift": g_shift, "max_y_shift": h_shift},
    }


def _bin_lines(
    sums: dict[str, list[int]], n: int
) -> tuple[dict[str, int], int, Fraction]:
    """Each weighted label's coarse line index, the line count, the largest move.

    Lines are the occupied bins in ascending order. A label with sums
    ``w, a`` in a bin with totals ``W, A`` moves by
    ``|a/w - A/W| = |a*W - A*w| / (w*W)``; the running maximum is kept as
    an integer pair, compared by cross-multiplying.
    """
    bin_of = {}
    totals: dict[int, list[int]] = {}
    for label, (w, a) in sums.items():
        if w:
            b = bin_of[label] = (n * a) // w
            total = totals.get(b)
            if total is None:
                totals[b] = [w, a]
            else:
                total[0] += w
                total[1] += a
    index = {b: i for i, b in enumerate(sorted(totals))}
    line_of = {}
    top_num, top_den = 0, 1
    for label, b in bin_of.items():
        w, a = sums[label]
        bin_w, bin_a = totals[b]
        num, move_den = abs(a * bin_w - bin_a * w), w * bin_w
        if num * top_den > top_num * move_den:
            top_num, top_den = num, move_den
        line_of[label] = index[b]
    return line_of, len(index), Fraction(top_num, top_den)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


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
                    weight=parse_rational(
                        w if (w := entry["w"]).__class__ in _JSON_PLAIN else _json_exact(w, "w")
                    ),
                    a_weight=parse_rational(
                        a if (a := entry["a"]).__class__ in _JSON_PLAIN else _json_exact(a, "a")
                    ),
                    g_label=entry["g"],
                    h_label=entry["h"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed atom entry: {entry!r}") from exc
    return RawSpace(atoms=tuple(atoms))


def load_space(fp: IO[str]) -> RawSpace:
    return space_from_json_dict(_load_json(fp, "space"))
