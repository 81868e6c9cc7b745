"""From arbitrary finite labeled spaces to grid configurations.

A raw space is a list of atoms, each carrying a total weight, the part of
that weight on which the event holds, and one label per expert. Grouping
atoms by label pair turns the space into a configuration; binning the
per-label conditional probabilities onto a 1/n grid coarsens it while
moving every conditional by at most 1/n. Both steps are exact.

A space keeps its atoms as integer records over one denominator, and every
step here reads those records. The loader reads each weight straight into
an integer numerator and denominator, so a loaded space builds its
:class:`Atom` objects only when :attr:`RawSpace.atoms` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    RationalLike,
    _Frozen,
    _JSON_PLAIN,
    _as_ratio,
    _cap_cells,
    _grid_stats,
    _json_exact,
    _load_json,
    _normalized,
    _set,
    _shown,
    _units_evaluator,
    validate_delta,
)


# ---------------------------------------------------------------------------
# Raw spaces
# ---------------------------------------------------------------------------


def _check_atom(w_num: int, w_den: int, a_num: int, a_den: int, g: object, h: object) -> None:
    """Refuse an atom whose labels are not strings or whose weights are out of range.

    The weights are ``w_num / w_den`` and ``a_num / a_den`` with positive
    denominators, not necessarily in lowest terms: signs are the
    numerators', and ``a <= w`` is cross-multiplied.
    """
    for label in (g, h):
        if not isinstance(label, str):
            raise ConfigError(f"atom labels must be strings, got {type(label).__name__}")
    if w_num < 0:
        raise ConfigError(
            f"atom weight must be non-negative, got {_shown(Fraction(w_num, w_den))}"
        )
    if a_num < 0 or a_num * w_den > w_num * a_den:
        raise ConfigError(
            f"atom event share must lie in [0, weight], got "
            f"{_shown(Fraction(a_num, a_den))} with weight {_shown(Fraction(w_num, w_den))}"
        )


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
        _check_atom(
            w.numerator, w.denominator, a.numerator, a.denominator, self.g_label, self.h_label
        )


# One atom as read: weight and event share as (numerator, positive
# denominator) pairs, flattened, then the two labels.
_Ratios = tuple[int, int, int, int, str, str]


def _group(
    ratios: Sequence[_Ratios],
) -> tuple[int, tuple[tuple[int, int, str, str], ...], dict[str, list[int]], dict[str, list[int]]]:
    """The atoms as integer records over one denominator, and their sums per label.

    Returns the denominator, each atom's record ``(w, a, g, h)`` (weight
    and event mass in those units, then the labels), and per column label
    and per row label the summed ``[weight, event mass]``, in dicts ordered
    by first appearance; labels carried only by zero-weight atoms are kept
    with zero sums. The denominator is the lcm of the given ones, divided
    by its gcd with every weight, which is the lcm of the weights'
    lowest-term denominators: equal atoms give equal records however their
    ratios were written.
    """
    # lists, not generators: star-arguments from a generator build an
    # over-sized tuple and shrink it, which leaves one tuple per call in the
    # interpreter's free lists (up to 2000 of each size) until a full collection
    den = math.lcm(*[d for r in ratios for d in (r[1], r[3])])
    records = [(wn * (den // wd), an * (den // ad), g, h) for wn, wd, an, ad, g, h in ratios]
    common = math.gcd(den, *[v for w, a, _, _ in records for v in (w, a)])
    if common > 1:
        den //= common
        records = [(w // common, a // common, g, h) for w, a, g, h in records]
    cols: dict[str, list[int]] = {}
    rows: dict[str, list[int]] = {}
    for w, a, g, h in records:
        for sums, label in ((cols, g), (rows, h)):
            line = sums.get(label)
            if line is None:
                sums[label] = [w, a]
            else:
                line[0] += w
                line[1] += a
    return den, tuple(records), cols, rows


class RawSpace(_Frozen):
    """A finite labeled probability space.

    Atoms may repeat label pairs freely; weights must sum to one exactly.
    Construction groups the atoms once (see :func:`_group`) into integer
    records over one denominator, checks the total as ``sum(weights) ==
    den``, and keeps per-label sums for :func:`label_values`,
    :func:`spread_probability` and :func:`grid_coarsen`, and their label
    order for :func:`to_configuration`; those steps read the records only.

    ``RawSpace(atoms=...)`` keeps the atoms it is given; a space read by
    :func:`space_from_json_dict` builds its ``atoms``, with
    :class:`~fractions.Fraction` weights, from the records on first access
    and then keeps them. Both constructors end in ``_init``, which groups.
    Spaces with equal atoms are equal and hash alike, and a space is
    immutable.
    """

    __slots__ = ("_grouped", "_atoms")

    def __init__(self, atoms: Sequence[Atom]) -> None:
        atoms = tuple(atoms)
        ratios = [
            (
                atom.weight.numerator,
                atom.weight.denominator,
                atom.a_weight.numerator,
                atom.a_weight.denominator,
                atom.g_label,
                atom.h_label,
            )
            for atom in atoms
        ]
        self._init(ratios, atoms)

    @classmethod
    def _from_ratios(cls, ratios: Sequence[_Ratios]) -> RawSpace:
        """Build from atoms already read and checked as :func:`_check_atom` checks them."""
        space = cls.__new__(cls)
        space._init(ratios, None)
        return space

    def _init(self, ratios: Sequence[_Ratios], atoms: tuple[Atom, ...] | None) -> None:
        """Group, check the total and store; both constructors end here."""
        grouped = _group(ratios)
        den, records, _, _ = grouped
        total = sum([w for w, _, _, _ in records])
        if total != den:
            raise ConfigError(
                f"atom weights must sum to 1, got {_shown(Fraction(total, den))}"
            )
        _set(self, "_grouped", grouped)
        _set(self, "_atoms", atoms)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms, built from the integer records once on demand."""
        atoms = self._atoms
        if atoms is None:
            den, records, _, _ = self._grouped
            atoms = tuple(
                [Atom(Fraction(w, den), Fraction(a, den), g, h) for w, a, g, h in records]
            )
            _set(self, "_atoms", atoms)
        return atoms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RawSpace:
            return NotImplemented
        return self._grouped[:2] == other._grouped[:2]

    def __hash__(self) -> int:
        return hash(self._grouped[:2])

    def __reduce__(self) -> tuple:
        return RawSpace, (self.atoms,)

    def __repr__(self) -> str:
        return f"RawSpace(atoms={self.atoms!r})"


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
    den, records, cols, rows = space._grouped
    th_num, th_den = _as_ratio(threshold, "threshold")
    total = 0
    for w, _, g, h in records:
        if not w:
            continue
        gw, ga = cols[g]
        hw, ha = rows[h]
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
    den, records, cols, rows = space._grouped
    n_cols, n_rows = len(cols), len(rows)
    _cap_cells(n_cols, n_rows)
    g_index = {g: i for i, g in enumerate(cols)}
    h_index = {h: i for i, h in enumerate(rows)}
    grid = [0] * (2 * n_cols * n_rows)
    for w, a, g, h in records:
        i = 2 * (g_index[g] * n_rows + h_index[h])
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
    den, records, cols, rows = space._grouped
    g_line, n_cols, g_shift = _bin_lines(cols, n)
    h_line, n_rows, h_shift = _bin_lines(rows, n)
    _cap_cells(n_cols, n_rows)
    grid = [0] * (2 * n_cols * n_rows)
    for w, a, g, h in records:
        if w:
            i = 2 * (g_line[g] * n_rows + h_line[h])
            grid[i] += w - a
            grid[i + 1] += a
    return {
        "cfg": Configuration._from_parts(d, n_cols, n_rows, grid, den),
        "report": {"max_x_shift": g_shift, "max_y_shift": h_shift},
    }


# the largest move when no label moves, the common case: one shared value
_NO_MOVE = Fraction(0)


def _bin_lines(
    sums: dict[str, list[int]], n: int
) -> tuple[dict[str, int], int, Fraction]:
    """Each weighted label's coarse line index, the line count, the largest move.

    Lines are the occupied bins in ascending order. A label with sums
    ``w, a`` in a bin with totals ``W, A`` moves by
    ``|a/w - A/W| = |a*W - A*w| / (w*W)``; the running maximum is kept as
    an integer pair, compared by cross-multiplying. A label alone in its
    bin (``w == W``, as every weight in a bin is positive) does not move,
    and when no label moves the move is the shared :data:`_NO_MOVE`.
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
        if w != bin_w:
            num, move_den = abs(a * bin_w - bin_a * w), w * bin_w
            if num * top_den > top_num * move_den:
                top_num, top_den = num, move_den
        line_of[label] = index[b]
    return line_of, len(index), Fraction(top_num, top_den) if top_num else _NO_MOVE


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def space_from_json_dict(data: Mapping) -> RawSpace:
    """Load a raw space from the file schema, validating every atom and the total.

    Each ``w`` and ``a`` is read into an integer numerator and denominator
    as :func:`~expert_spread.config.make_configuration` reads a mass, with
    no :class:`~fractions.Fraction` built for an ``int`` or a plain
    ``"p/q"`` string, and a bad one is reported as
    :func:`~expert_spread.config.parse_rational` reports it. The labels, the
    signs and ``a <= w`` are checked on those integers in document order,
    with :class:`Atom`'s checks and texts, and the space is grouped from
    them, so its atoms are built only when read.
    """
    try:
        raw_atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("space JSON must be an object with an 'atoms' list") from exc
    if not isinstance(raw_atoms, (list, tuple)):
        raise ConfigError("space JSON must be an object with an 'atoms' list")
    ratios = []
    for entry in raw_atoms:
        try:
            w_num, w_den = _as_ratio(
                w if (w := entry["w"]).__class__ in _JSON_PLAIN else _json_exact(w, "w"),
                "rational",
            )
            a_num, a_den = _as_ratio(
                a if (a := entry["a"]).__class__ in _JSON_PLAIN else _json_exact(a, "a"),
                "rational",
            )
            g, h = entry["g"], entry["h"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed atom entry: {entry!r}") from exc
        _check_atom(w_num, w_den, a_num, a_den, g, h)
        ratios.append((w_num, w_den, a_num, a_den, g, h))
    return RawSpace._from_ratios(ratios)


def load_space(fp: IO[str]) -> RawSpace:
    return space_from_json_dict(_load_json(fp, "space"))
