"""Exact finite configurations for two experts observing a common event.

A configuration models a probability space carved up by two finite partitions:
columns (what the first expert can distinguish) and rows (what the second
expert can distinguish).  Each cell of the resulting grid stores two exact
rational masses: the part of the cell lying inside a distinguished event and
the part lying outside it.  From these masses we derive each expert's
conditional probability of the event (``x`` per column, ``y`` per row) and the
probability that the two opinions differ by at least ``1 - delta``, written
``prob_B`` throughout.

All arithmetic is exact.  A configuration stores its masses as integers
over one common denominator, and the statistics, the normalization and the
verify scans compare those integers by cross-multiplying; rationals
(:class:`fractions.Fraction`) are built only where the API hands values out:
the :class:`Stats` fields, :class:`Cell` masses, files and error messages.
Floats are not used anywhere in this module.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence, Union

__all__ = [
    "Rational",
    "RationalLike",
    "Delta",
    "ExpertSpreadError",
    "ConfigError",
    "DomainError",
    "TransformContractError",
    "InternalStateError",
    "ReduceContradictionError",
    "SearchSpaceError",
    "Cell",
    "Configuration",
    "Stats",
    "validate_delta",
    "make_configuration",
    "replace_cells",
    "compute_stats",
    "normalize",
    "overlap_check",
    "separation_check",
    "pitman_inclusion_violations",
    "overlap_violations",
    "separation_violations",
    "rational_to_str",
    "parse_rational",
    "rational_to_decimal",
    "config_to_json_dict",
    "config_from_json_dict",
    "dump_config",
    "load_config",
]

Rational = Fraction
Delta = Fraction
RationalLike = Union[Fraction, int, str]

EMPTY = Fraction(0)

# The largest grid make_configuration allocates, in cells; larger documents
# are refused before any cell is built.
MAX_CELLS = 10**6

# The most digits a rational string may carry, counting an exponent's value
# as that many digits; longer strings are refused before they are parsed.
# Well below the 4300 digits Python converts between int and str.
MAX_DIGITS = 1000


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class ExpertSpreadError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ExpertSpreadError):
    """Raised for malformed configurations, bad indices, or bad input files."""


class DomainError(ExpertSpreadError):
    """Raised when a numeric argument lies outside its required domain."""


class TransformContractError(ExpertSpreadError):
    """Raised when a transformation would violate one of its guarantees.

    The guarantees are re-checked at runtime (for example, that a mass move
    never removes probability from the spread event).  A failure means the
    requested operation is not sound for the given input and was refused.
    """


class InternalStateError(ExpertSpreadError):
    """Raised when an internal consistency check fails.

    This always indicates an implementation bug, never a property of the
    caller's input.
    """


class ReduceContradictionError(ExpertSpreadError):
    """Raised when the reduction driver reaches a provably impossible state.

    The driver's case analysis contains branches that cannot occur for any
    valid configuration.  Each such branch verifies its premises on the
    current state and raises this error with diagnostics if they hold, so a
    firing always points at an implementation bug rather than looping
    silently.
    """

    def __init__(self, state: str, diagnostics: Mapping[str, object] | None = None):
        self.state = state
        self.diagnostics = dict(diagnostics or {})
        super().__init__(f"impossible reduction state reached at {state}: {self.diagnostics}")


class SearchSpaceError(ExpertSpreadError):
    """Raised when an enumeration request exceeds the configured budget."""


# ---------------------------------------------------------------------------
# Core value types
# ---------------------------------------------------------------------------


# Exact values too long to print are shown by their size in error messages.
_SHOWN_CHARS = 40
_SHOWN_BITS = MAX_DIGITS * 3322 // 1000  # bits of a MAX_DIGITS-digit integer


def _shown(value: object) -> str:
    """``value`` for an error message, abbreviated when it is too long.

    Python refuses to turn an integer of more than 4300 digits into a
    string, so formatting such an exact value would replace the intended
    one-line error with a ``ValueError``; it is shown by its size instead.
    """
    if isinstance(value, str):
        if len(value) <= _SHOWN_CHARS:
            return repr(value)
        return f"{value[:_SHOWN_CHARS]!r}... ({len(value)} characters)"
    if isinstance(value, (int, Fraction)):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > _SHOWN_BITS:
            return f"<a rational of about {bits * 30103 // 100000} digits>"
    return str(value)


def _as_fraction(value: RationalLike, what: str) -> Fraction:
    # an exact Fraction (the loaders parse every mass to one first) is
    # already in lowest terms; building it again would only copy it
    if value.__class__ is Fraction:
        return value
    try:
        if isinstance(value, str):
            # the mantissa's digits plus the exponent's value; the exponent
            # is read only when the whole string is short enough for int()
            digits = sum(map(str.isdigit, value))
            _, e, exponent = value.upper().partition("E")
            if e and digits <= MAX_DIGITS:
                digits += abs(int(exponent)) - sum(map(str.isdigit, exponent))
            if digits > MAX_DIGITS:
                raise ConfigError(
                    f"{what} {_shown(value)} has more than {MAX_DIGITS} digits"
                )
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(
            f"cannot parse {what} {_shown(value)} as an exact rational"
        ) from exc


def _json_exact(value: object, what: str) -> object:
    """Pass a document value on, refusing JSON floats and booleans.

    A float has already lost its exact value when the parser hands it over,
    and a boolean is not a number; numbers travel as strings or integers.
    """
    if isinstance(value, (bool, float)):
        raise ConfigError(f"{what} must be a string or an integer, got {value!r}")
    return value


def validate_delta(value: RationalLike) -> Fraction:
    """Parse and range-check a spread threshold, which must lie in (0, 1)."""
    delta = _as_fraction(value, "delta")
    if not (0 < delta < 1):
        raise DomainError(f"delta must lie strictly between 0 and 1, got {_shown(delta)}")
    return delta


def _negative_masses(a: Fraction, ac: Fraction) -> ConfigError:
    return ConfigError(
        f"cell masses must be non-negative, got a={_shown(a)}, ac={_shown(ac)}"
    )


@dataclass(frozen=True, slots=True)
class Cell:
    """One grid cell: exact masses inside and outside the tracked event.

    Each mass is an ``int`` or a :class:`~fractions.Fraction`; anything else,
    ``bool`` included, raises :class:`ConfigError`.
    """

    a_mass: Fraction = EMPTY
    ac_mass: Fraction = EMPTY

    def __post_init__(self) -> None:
        for mass in (self.a_mass, self.ac_mass):
            if isinstance(mass, bool) or not isinstance(mass, (int, Fraction)):
                raise ConfigError(
                    f"cell masses must be ints or Fractions, got {type(mass).__name__}"
                )
            # a rational's sign is its numerator's; reading it skips the
            # slower Fraction comparison
            if mass.numerator < 0:
                raise _negative_masses(self.a_mass, self.ac_mass)

    @property
    def mass(self) -> Fraction:
        return self.a_mass + self.ac_mass

    @property
    def is_empty(self) -> bool:
        return self.a_mass == 0 and self.ac_mass == 0


_EMPTY_CELL = Cell()


def _lattice(masses: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact masses as integers over the lcm of all their denominators."""
    dens = [m.denominator for m in masses]
    den = math.lcm(*dens)
    return [m.numerator * (den // d) for m, d in zip(masses, dens)], den


_set = object.__setattr__


class Configuration:
    """An immutable grid of cells with a per-configuration spread threshold.

    ``cell(k, j)`` and ``cells[k - 1][j - 1]`` are the cell in column ``k``,
    row ``j`` (1-based in the public API).  Total mass must be exactly 1.
    Zero-mass columns or rows are tolerated here so that loaders can accept
    them; :func:`normalize` removes them and :func:`compute_stats` rejects
    them.

    A configuration stores its masses as integers: one flat column-major
    tuple holding the complement share and then the event share of each
    cell, over one denominator, in lowest terms (the gcd of the denominator
    and every entry is 1).  So equal grids store equal tuples, and equality
    and the hash compare and hash ``(delta, dims, tuple)``; the hash is kept
    in a slot.  ``cells`` is built from the integers on first access and
    then kept; the transforms never read it.  Construction from ``cells``
    checks the shape and that the masses sum to exactly 1; the package's
    own transforms build from integers, checking signs and the sum there.
    """

    __slots__ = ("delta", "n_cols", "n_rows", "_parts", "_den", "_hash", "_cells")

    def __init__(
        self,
        delta: Fraction,
        n_cols: int,
        n_rows: int,
        cells: tuple[tuple[Cell, ...], ...],
    ) -> None:
        if n_cols < 1 or n_rows < 1:
            raise ConfigError(f"grid must be at least 1x1, got {n_cols}x{n_rows}")
        if len(cells) != n_cols or any(len(col) != n_rows for col in cells):
            raise ConfigError("cells array shape does not match n_cols x n_rows")
        parts, den = _lattice([m for col in cells for c in col for m in (c.ac_mass, c.a_mass)])
        self._init(delta, n_cols, n_rows, parts, den, cells)

    @classmethod
    def _from_parts(
        cls, delta: Fraction, n_cols: int, n_rows: int, parts: Sequence[int], den: int
    ) -> Configuration:
        """Build from a flat column-major ``(ac, a)`` integer vector over ``den``.

        The vector need not be in lowest terms; it is reduced here.
        """
        cfg = cls.__new__(cls)
        cfg._init(delta, n_cols, n_rows, parts, den, None)
        return cfg

    def _init(
        self,
        delta: Fraction,
        n_cols: int,
        n_rows: int,
        parts: Sequence[int],
        den: int,
        cells: tuple[tuple[Cell, ...], ...] | None,
    ) -> None:
        """Check and store; both constructors end here."""
        # a rational's sign is its numerator's, and its denominator is positive
        if not 0 < delta.numerator < delta.denominator:
            raise DomainError(
                f"delta must lie strictly between 0 and 1, got {_shown(delta)}"
            )
        if n_cols < 1 or n_rows < 1 or len(parts) != 2 * n_cols * n_rows:
            raise ConfigError(
                f"{len(parts)} masses do not fill a {n_cols}x{n_rows} grid"
            )
        if min(parts) < 0:
            i = next(i for i, v in enumerate(parts) if v < 0) & ~1
            raise _negative_masses(Fraction(parts[i + 1], den), Fraction(parts[i], den))
        total = sum(parts)
        if total != den:
            raise ConfigError(
                f"total mass must be exactly 1, got {_shown(Fraction(total, den))}"
            )
        g = math.gcd(den, *parts)
        parts = tuple(parts) if g == 1 else tuple([v // g for v in parts])
        _set(self, "delta", delta)
        _set(self, "n_cols", n_cols)
        _set(self, "n_rows", n_rows)
        _set(self, "_parts", parts)
        _set(self, "_den", den // g)
        _set(self, "_hash", hash((delta.numerator, delta.denominator, n_cols, parts)))
        _set(self, "_cells", cells)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Configuration:
            return NotImplemented
        # the tuple fixes n_rows once n_cols is known; a Fraction is stored
        # in lowest terms, so equal deltas have equal terms
        return (
            self._parts == other._parts
            and self.n_cols == other.n_cols
            and self.delta.numerator == other.delta.numerator
            and self.delta.denominator == other.delta.denominator
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # copies and pickles rebuild through the checked integer constructor
        return (
            Configuration._from_parts,
            (self.delta, self.n_cols, self.n_rows, self._parts, self._den),
        )

    def __repr__(self) -> str:
        return (
            f"Configuration(delta={self.delta!r}, n_cols={self.n_cols!r}, "
            f"n_rows={self.n_rows!r}, cells={self.cells!r})"
        )

    @property
    def cells(self) -> tuple[tuple[Cell, ...], ...]:
        """The grid as columns of :class:`Cell` objects, built once on demand."""
        cells = self._cells
        if cells is None:
            parts, den, n = self._parts, self._den, self.n_rows
            flat = [
                Cell(Fraction(parts[i + 1], den), Fraction(parts[i], den))
                if parts[i] or parts[i + 1]
                else _EMPTY_CELL
                for i in range(0, len(parts), 2)
            ]
            cells = tuple([tuple(flat[k * n : (k + 1) * n]) for k in range(self.n_cols)])
            _set(self, "_cells", cells)
        return cells

    def _index(self, k: int, j: int) -> int:
        """Where cell ``(k, j)`` (1-based) starts in the integer tuple.

        Its complement share sits there and its event share one further.
        """
        if not (1 <= k <= self.n_cols and 1 <= j <= self.n_rows):
            raise ConfigError(
                f"cell index ({k},{j}) out of range for a {self.n_cols}x{self.n_rows} grid"
            )
        return 2 * ((k - 1) * self.n_rows + j - 1)

    def cell(self, k: int, j: int) -> Cell:
        """Return the cell in column ``k``, row ``j`` (1-based)."""
        self._index(k, j)
        return self.cells[k - 1][j - 1]

    @property
    def dims(self) -> tuple[int, int]:
        return (self.n_cols, self.n_rows)


def make_configuration(
    delta: RationalLike,
    n_cols: int,
    n_rows: int,
    masses: Mapping[tuple[int, int], tuple[RationalLike, RationalLike]],
) -> Configuration:
    """Build a configuration from a sparse ``{(col, row): (a, ac)}`` mapping.

    Cells absent from ``masses`` are empty.  Indices are 1-based.  A grid
    of more than :data:`MAX_CELLS` cells raises :class:`ConfigError` before
    anything is allocated.
    """
    delta_f = validate_delta(delta)
    if n_cols < 1 or n_rows < 1:
        raise ConfigError(f"grid must be at least 1x1, got {n_cols}x{n_rows}")
    if n_cols * n_rows > MAX_CELLS:
        raise ConfigError(
            f"a {n_cols}x{n_rows} grid exceeds the limit of {MAX_CELLS} cells"
        )
    flat = [EMPTY] * (2 * n_cols * n_rows)
    for (k, j), (a, ac) in masses.items():
        if not (1 <= k <= n_cols and 1 <= j <= n_rows):
            raise ConfigError(
                f"cell index ({k},{j}) out of range for a {n_cols}x{n_rows} grid"
            )
        a_f, ac_f = _as_fraction(a, "a mass"), _as_fraction(ac, "ac mass")
        if a_f.numerator < 0 or ac_f.numerator < 0:
            raise _negative_masses(a_f, ac_f)
        i = 2 * ((k - 1) * n_rows + j - 1)
        flat[i], flat[i + 1] = ac_f, a_f
    parts, den = _lattice(flat)
    return Configuration._from_parts(delta_f, n_cols, n_rows, parts, den)


def replace_cells(
    cfg: Configuration, updates: Mapping[tuple[int, int], Cell]
) -> Configuration:
    """Return a copy of ``cfg`` with the given cells replaced (1-based keys)."""
    at = [cfg._index(k, j) for k, j in updates]
    new, new_den = _lattice([m for c in updates.values() for m in (c.ac_mass, c.a_mass)])
    den = math.lcm(cfg._den, new_den)
    scale, new_scale = den // cfg._den, den // new_den
    parts = [v * scale for v in cfg._parts]
    for n, i in enumerate(at):
        parts[i] = new[2 * n] * new_scale
        parts[i + 1] = new[2 * n + 1] * new_scale
    return Configuration._from_parts(cfg.delta, cfg.n_cols, cfg.n_rows, parts, den)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stats:
    """Derived quantities of a configuration.

    ``p``/``q`` are column/row masses, ``x``/``y`` the conditional
    probabilities of the tracked event given a column/row.  ``b_mask`` marks
    cells where the two conditionals differ by at least ``1 - delta`` (weak
    inequality).  The four ``m_*`` indices locate the extreme columns and rows
    that participate in such a pair: ``m_minus_G`` is the largest column index
    whose conditional sits far below some row's (0 if none), ``m_plus_G`` the
    smallest column index sitting far above some row's (+inf if none), and
    ``m_minus_H``/``m_plus_H`` are the row-side analogues.  ``d_minus`` and
    ``d_plus`` list the inner corner cells of the two far-apart regions.
    """

    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    b_mask: tuple[tuple[bool, ...], ...]
    m_minus_G: int
    m_plus_G: Union[int, float]
    m_minus_H: int
    m_plus_H: Union[int, float]
    d_minus: tuple[tuple[int, int], ...]
    d_plus: tuple[tuple[int, int], ...]
    prob_B: Fraction


def _line_sums(
    parts: Sequence[int], n_cols: int, n_rows: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Column totals, column event masses, row totals, row event masses."""
    col_t = [0] * n_cols
    col_a = [0] * n_cols
    row_t = [0] * n_rows
    row_a = [0] * n_rows
    i = 0
    for k in range(n_cols):
        for j in range(n_rows):
            c, a = parts[i], parts[i + 1]
            i += 2
            col_t[k] += a + c
            col_a[k] += a
            row_t[j] += a + c
            row_a[j] += a
    return col_t, col_a, row_t, row_a


def _spread_kernel(
    parts: Sequence[int], n_cols: int, n_rows: int, th_num: int, th_den: int
) -> tuple[list[int], list[int], list[int], list[int], list[int], int]:
    """The far-apart test on an integer mass vector, giving every cell's side.

    ``parts`` is the flat column-major (complement, event) vector of
    :func:`_lattice`; the threshold is ``th_num/th_den`` with ``th_den > 0``.
    Returns the four line sums of :func:`_line_sums`, a side per cell in
    the same column-major order (+1 when the column value exceeds the row
    value by at least the threshold, -1 when the row value exceeds the
    column value by at least it, 0 otherwise) and the summed mass of the
    cells with a non-zero side, in the units of ``parts``.  The values are
    compared by cross-multiplying, never divided.  A cell on a zero-mass
    line has no conditional value and gets side 0.

    This is the memo's kernel: absorption, the borders and the merges read
    the side of empty cells too.  The searches need only the numerator over
    occupied cells, from line sums they keep as they move; that is
    :func:`_spread_units`.  The two are kept apart because building sides
    inside the search loops made them about 14% slower, and
    ``test_search_spread_units_match_the_kernel`` ties them.
    """
    col_t, col_a, row_t, row_a = _line_sums(parts, n_cols, n_rows)
    sides = []
    b_num = 0
    i = 0
    for k in range(n_cols):
        ct, ca = col_t[k], col_a[k]
        for j in range(n_rows):
            rt = row_t[j]
            side = 0
            if ct and rt:
                gap = (ca * rt - row_a[j] * ct) * th_den
                bar = th_num * ct * rt
                if gap >= bar:
                    side = 1
                elif -gap >= bar:
                    side = -1
                if side:
                    b_num += parts[i] + parts[i + 1]
            sides.append(side)
            i += 2
    return col_t, col_a, row_t, row_a, sides, b_num


def _spread_units(
    parts: Sequence[int],
    n_rows: int,
    col_t: Sequence[int],
    col_a: Sequence[int],
    row_t: Sequence[int],
    row_a: Sequence[int],
    th_num: int,
    th_den: int,
) -> int:
    """The spread numerator of :func:`_spread_kernel`, from line sums kept by the caller.

    ``parts`` is the flat column-major vector and the four lists are its
    line sums, which both searches update as they move instead of summing
    them again. A cell counts when it has mass and its column and row
    values differ by at least the threshold, the kernel's non-zero side;
    a cell with mass lies on two lines with mass.
    """
    b_num = 0
    i = 0
    for ct, ca in zip(col_t, col_a):
        ct_den = ct * th_den
        ca_den = ca * th_den
        ct_num = ct * th_num
        for j in range(n_rows):
            mass = parts[i] + parts[i + 1]
            i += 2
            if mass:
                rt = row_t[j]
                gap = ca_den * rt - row_a[j] * ct_den
                if (gap if gap >= 0 else -gap) >= ct_num * rt:
                    b_num += mass
    return b_num


class _GridStats:
    """The statistics of one configuration on its integer lattice.

    ``col_t``/``col_a``/``row_t``/``row_a`` are the line totals and event
    masses over ``den``; ``side[k][j]`` is the kernel's side of the 0-based
    cell (+1 when the column value sits far above the row value, -1 for the
    mirror, 0 outside the spread region).  The remaining fields are those of
    :class:`Stats`, ``prob_B`` being the only rational.  ``occupied`` says
    whether the low and the high side of the spread region carry positive
    mass; ``stats`` holds the :class:`Stats` once :func:`compute_stats` has
    built it.  ``fixpoint`` is set once
    :func:`expert_spread.transforms.zigzag_normalize` has returned this
    configuration (or an equal one) and checked its shape, so a later call
    on it returns at once.
    """

    __slots__ = (
        "den", "col_t", "col_a", "row_t", "row_a", "side", "b_mask", "b_num",
        "prob_B", "m_minus_G", "m_plus_G", "m_minus_H", "m_plus_H", "d_minus",
        "d_plus", "occupied", "stats", "fixpoint",
    )


@functools.lru_cache(maxsize=8192)
def _grid_stats(cfg: Configuration) -> _GridStats:
    """The memoised integer statistics of ``cfg``; see :func:`compute_stats`."""
    m, n = cfg.n_cols, cfg.n_rows
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    parts = cfg._parts
    col_t, col_a, row_t, row_a, flat, b_num = _spread_kernel(parts, m, n, dd - dn, dd)
    for what, totals in (("column", col_t), ("row", row_t)):
        for i, total in enumerate(totals, 1):
            if total == 0:
                raise ConfigError(
                    f"{what} {i} has zero mass; conditional probability undefined"
                )
    side = tuple([tuple(flat[k * n : (k + 1) * n]) for k in range(m)])
    occupied = {v for i, v in enumerate(flat) if v and (parts[2 * i] or parts[2 * i + 1])}

    # Below, -1 means the row value sits far above the column value (the low
    # corner) and +1 the mirror; th > 0, so a cell is on at most one side.
    rows_side = [{side[k][j] for k in range(m)} for j in range(n)]
    g = _GridStats()
    g.m_minus_G = max((k + 1 for k in range(m) if -1 in side[k]), default=0)
    g.m_plus_G = min((k + 1 for k in range(m) if 1 in side[k]), default=math.inf)
    g.m_minus_H = max((j + 1 for j in range(n) if 1 in rows_side[j]), default=0)
    g.m_plus_H = min((j + 1 for j in range(n) if -1 in rows_side[j]), default=math.inf)

    d_minus = []
    d_plus = []
    for k in range(m):
        for j in range(n):
            if side[k][j] == -1:
                right_off = k + 1 == m or side[k + 1][j] != -1
                below_off = j == 0 or side[k][j - 1] != -1
                if right_off and below_off:
                    d_minus.append((k + 1, j + 1))
            elif side[k][j] == 1:
                left_off = k == 0 or side[k - 1][j] != 1
                above_off = j + 1 == n or side[k][j + 1] != 1
                if left_off and above_off:
                    d_plus.append((k + 1, j + 1))

    g.den, g.col_t, g.col_a, g.row_t, g.row_a = cfg._den, col_t, col_a, row_t, row_a
    g.side = side
    g.b_mask = tuple([tuple([v != 0 for v in col]) for col in side])
    g.b_num = b_num
    g.prob_B = Fraction(b_num, cfg._den)
    g.d_minus = tuple(d_minus)
    g.d_plus = tuple(d_plus)
    g.occupied = (-1 in occupied, 1 in occupied)
    g.stats = None
    g.fixpoint = False
    return g


def compute_stats(cfg: Configuration) -> Stats:
    """Compute all derived statistics of a configuration.

    The configuration need not be sorted; values are reported in the given
    column/row order.  Raises :class:`ConfigError` naming the first zero-mass
    column or row, since conditional probabilities are undefined there.

    The far-apart test runs on the configuration's integer tuple by
    cross-multiplication in :func:`_spread_kernel`, which gives every
    cell's side; :class:`~fractions.Fraction` objects are built only for
    the returned fields, once per memo entry.  The searches and
    :func:`expert_spread.discretize.threshold_probability` count only the
    spread numerator over occupied cells, from line sums the caller keeps,
    with :func:`_spread_units`; see :func:`_spread_kernel` for why the two
    are kept apart.

    Configurations are immutable, so results are memoised.  The memo keys
    on the hash each :class:`Configuration` keeps in a slot, and an equal
    key is confirmed by comparing integer tuples.  The transforms read the
    same memo's integer statistics without building the fields, so
    ``compute_stats.cache_info()`` and ``compute_stats.cache_clear()``
    report and clear that one memo.
    """
    g = _grid_stats(cfg)
    stats = g.stats
    if stats is None:
        den = g.den
        # The memo keeps these tuples alive; built from lists, they are
        # allocated at their exact size, where tuple(<generator>) may keep
        # spare slots.
        stats = g.stats = Stats(
            p=tuple([Fraction(t, den) for t in g.col_t]),
            q=tuple([Fraction(t, den) for t in g.row_t]),
            x=tuple([Fraction(a, t) for a, t in zip(g.col_a, g.col_t)]),
            y=tuple([Fraction(a, t) for a, t in zip(g.row_a, g.row_t)]),
            b_mask=g.b_mask,
            m_minus_G=g.m_minus_G,
            m_plus_G=g.m_plus_G,
            m_minus_H=g.m_minus_H,
            m_plus_H=g.m_plus_H,
            d_minus=g.d_minus,
            d_plus=g.d_plus,
            prob_B=g.prob_B,
        )
    return stats


compute_stats.cache_info = _grid_stats.cache_info  # type: ignore[attr-defined]
compute_stats.cache_clear = _grid_stats.cache_clear  # type: ignore[attr-defined]


def normalize(cfg: Configuration) -> Configuration:
    """Drop zero-mass columns/rows and sort by ascending conditionals.

    Sorting is stable, so equal-valued columns keep their input order; merging
    equal-valued lines is a transformation, not a normalization.  The spread
    probability is unchanged because sorting merely permutes cells.  Values
    are compared by cross-multiplying the integer line sums.
    """
    m, n, parts = cfg.n_cols, cfg.n_rows, cfg._parts
    col_t, col_a, row_t, row_a = _line_sums(parts, m, n)
    col_order = sorted(
        (k for k in range(m) if col_t[k]),
        key=functools.cmp_to_key(lambda k, l: col_a[k] * col_t[l] - col_a[l] * col_t[k]),
    )
    row_order = sorted(
        (j for j in range(n) if row_t[j]),
        key=functools.cmp_to_key(lambda j, i: row_a[j] * row_t[i] - row_a[i] * row_t[j]),
    )
    out = []
    for k in col_order:
        base = 2 * k * n
        for j in row_order:
            out += parts[base + 2 * j : base + 2 * j + 2]
    return Configuration._from_parts(
        cfg.delta, len(col_order), len(row_order), out, cfg._den
    )


def overlap_check(cfg: Configuration, k: int, j: int) -> dict:
    """Check the column/row intersection bound at one cell.

    When the cell's conditionals are at least ``1 - delta`` apart, the mass
    shared by its column and row cannot exceed ``delta/(1+delta)`` times the
    sum of the column and row masses.  Returns ``lhs`` (the cell mass),
    ``rhs`` (the bound), ``applicable`` and ``holds``; the check holds
    vacuously when not applicable.
    """
    i = cfg._index(k, j)
    s = compute_stats(cfg)
    applicable = s.b_mask[k - 1][j - 1]
    lhs = Fraction(cfg._parts[i] + cfg._parts[i + 1], cfg._den)
    rhs = cfg.delta / (1 + cfg.delta) * (s.p[k - 1] + s.q[j - 1])
    return {
        "lhs": lhs,
        "rhs": rhs,
        "applicable": applicable,
        "holds": (not applicable) or lhs <= rhs,
    }


def separation_check(cfg: Configuration, k: int, j: int) -> dict:
    """Check that a column and row overlap little when their values differ.

    The probability that exactly one of "in column k" / "in row j" occurs,
    conditioned on at least one occurring, is at least ``|x_k - y_j|``.  This
    holds for every pair of positive-mass lines, with no threshold condition.
    """
    i = cfg._index(k, j)
    s = compute_stats(cfg)
    c = Fraction(cfg._parts[i] + cfg._parts[i + 1], cfg._den)
    union = s.p[k - 1] + s.q[j - 1] - c
    lhs = (s.p[k - 1] + s.q[j - 1] - 2 * c) / union
    rhs = abs(s.x[k - 1] - s.y[j - 1])
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs}


# The three scans below read the integer statistics of _grid_stats: with
# P, Q a column's and a row's totals, ca, ra their event masses and c a
# cell's mass, all over one denominator, and delta = dn/dd, each inequality
# is multiplied out by its positive denominators and compared exactly.


def pitman_inclusion_violations(cfg: Configuration) -> list[tuple[int, int]]:
    """List cells breaking the far-apart inclusion, empty when all pass.

    For ``delta < 1/2``, every cell whose conditionals differ by at least
    ``1 - delta`` must have one expert at or below ``delta`` and the other at
    or above ``1 - delta``.  For ``delta >= 1/2`` the property is not claimed
    and the check passes vacuously.
    """
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    if 2 * dn >= dd:
        return []
    up = dd - dn  # 1 - delta = up/dd
    g = _grid_stats(cfg)
    bad = []
    for k, col in enumerate(g.side):
        p, ca = g.col_t[k], g.col_a[k]
        for j, side in enumerate(col):
            if side:
                q, ra = g.row_t[j], g.row_a[j]
                low_high = ca * dd <= dn * p and ra * dd >= up * q
                high_low = ra * dd <= dn * q and ca * dd >= up * p
                if not (low_high or high_low):
                    bad.append((k + 1, j + 1))
    return bad


def overlap_violations(cfg: Configuration) -> list[tuple[int, int]]:
    """List cells where the intersection bound fails, empty when all pass.

    A far-apart cell fails when ``c > delta/(1+delta) * (P+Q)``, tested as
    ``c*(dd+dn) > dn*(P+Q)``.
    """
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    g = _grid_stats(cfg)
    parts, n = cfg._parts, cfg.n_rows
    bad = []
    for k, col in enumerate(g.side):
        for j, side in enumerate(col):
            i = 2 * (k * n + j)
            c = parts[i] + parts[i + 1]
            if side and c * (dd + dn) > dn * (g.col_t[k] + g.row_t[j]):
                bad.append((k + 1, j + 1))
    return bad


def separation_violations(cfg: Configuration) -> list[tuple[int, int]]:
    """List pairs where the separation inequality fails, empty when all pass.

    A pair fails when ``(P+Q-2c)/(P+Q-c) < |ca/P - ra/Q|``, tested as
    ``(P+Q-2c)*P*Q < |ca*Q - ra*P|*(P+Q-c)``; ``P+Q-c >= Q > 0``.
    """
    g = _grid_stats(cfg)
    parts, n = cfg._parts, cfg.n_rows
    bad = []
    for k, (p, ca) in enumerate(zip(g.col_t, g.col_a)):
        for j, (q, ra) in enumerate(zip(g.row_t, g.row_a)):
            i = 2 * (k * n + j)
            c = parts[i] + parts[i + 1]
            if (p + q - 2 * c) * p * q < abs(ca * q - ra * p) * (p + q - c):
                bad.append((k + 1, j + 1))
    return bad


# ---------------------------------------------------------------------------
# Rational string and decimal rendering
# ---------------------------------------------------------------------------


def rational_to_str(value: Fraction) -> str:
    """Render an exact rational as a canonical reduced string like "3/5"."""
    return str(Fraction(value))


def parse_rational(text: RationalLike) -> Fraction:
    """Parse "p/q", integer, or decimal strings into an exact rational."""
    return _as_fraction(text, "rational")


def rational_to_decimal(value: Fraction, sig_digits: int = 15) -> str:
    """Render a rational as a decimal string via exact long division.

    Terminating expansions are emitted exactly ("0.4" for 2/5).  Otherwise the
    expansion is truncated after ``sig_digits`` significant digits, counted
    from the first non-zero digit.
    """
    value = Fraction(value)
    if value < 0:
        return "-" + rational_to_decimal(-value, sig_digits)
    num, den = value.numerator, value.denominator
    whole, rem = divmod(num, den)
    digits = str(whole)
    significant = len(digits) if whole > 0 else 0
    if rem == 0:
        return digits
    out = [digits, "."]
    while rem != 0 and significant < sig_digits:
        rem *= 10
        d, rem = divmod(rem, den)
        out.append(str(d))
        if significant > 0 or d != 0:
            significant += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def config_to_json_dict(cfg: Configuration) -> dict:
    """Serialize to the configuration file schema (empty cells omitted)."""
    parts, den, n = cfg._parts, cfg._den, cfg.n_rows
    cells = []
    for i in range(0, len(parts), 2):
        ac, a = parts[i], parts[i + 1]
        if ac or a:
            k, j = divmod(i // 2, n)
            cells.append(
                {
                    "col": k + 1,
                    "row": j + 1,
                    "a": str(Fraction(a, den)),
                    "ac": str(Fraction(ac, den)),
                }
            )
    return {
        "delta": rational_to_str(cfg.delta),
        "cols": cfg.n_cols,
        "rows": cfg.n_rows,
        "cells": cells,
    }


def config_from_json_dict(data: Mapping) -> Configuration:
    """Load a configuration from the file schema, validating shape and mass."""
    try:
        delta = _json_exact(data["delta"], "delta")
        n_cols = int(_json_exact(data["cols"], "cols"))
        n_rows = int(_json_exact(data["rows"], "rows"))
        raw_cells: Iterable[Mapping] = data["cells"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    if not isinstance(raw_cells, (list, tuple)):
        raise ConfigError(f"'cells' must be a list, got {raw_cells!r}")
    masses: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for entry in raw_cells:
        try:
            key = (
                int(_json_exact(entry["col"], "col")),
                int(_json_exact(entry["row"], "row")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed cell entry {entry!r}") from exc
        if key in masses:
            raise ConfigError(f"duplicate cell entry for {key}")
        masses[key] = (
            parse_rational(_json_exact(entry.get("a", 0), "a")),
            parse_rational(_json_exact(entry.get("ac", 0), "ac")),
        )
    return make_configuration(delta, n_cols, n_rows, masses)


def dump_config(cfg: Configuration, fp: IO[str]) -> None:
    json.dump(config_to_json_dict(cfg), fp, indent=2)
    fp.write("\n")


def load_config(fp: IO[str]) -> Configuration:
    # ValueError covers the decode errors and a JSON integer too long for int()
    try:
        data = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"configuration file is not valid JSON: {exc}") from exc
    return config_from_json_dict(data)
