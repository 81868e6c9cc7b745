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
the :class:`Stats` fields, :class:`Cell` masses and error messages.
Configuration files are read into the integers and written from them; only
a mass written in another form than ``"p"`` or ``"p/q"`` is parsed as a
rational.  Floats appear only as ``math.inf``, for a missing extreme: the
first paired line of a side of the spread region that has no cell.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, Union

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
    "compute_stats",
    "normalize",
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

# The most cells the generated evaluators unroll; see _unrolls.
UNROLL_CELLS = 64

# Significant digits of a non-terminating decimal companion; see rational_to_decimal.
DECIMAL_DIGITS = 15


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
    one-line error with a ``ValueError``; it is shown by its sign, its kind
    (integer or rational) and its size instead.
    """
    if isinstance(value, str):
        if len(value) <= _SHOWN_CHARS:
            return repr(value)
        return f"{value[:_SHOWN_CHARS]!r}... ({len(value)} characters)"
    if isinstance(value, (int, Fraction)):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > _SHOWN_BITS:
            kind = "integer" if isinstance(value, int) else "rational"
            if value < 0:
                kind = f"negative {kind}"
            article = "an" if kind == "integer" else "a"
            return f"<{article} {kind} of about {bits * 30103 // 100000} digits>"
    return str(value)


def _plain_digits(text: str) -> tuple[int, int] | None:
    """``(p, q)`` for a plain ``"p"`` or ``"p/q"`` in ASCII digits with ``q > 0``.

    This is the files' common case, read without Fraction's regex or the
    digit count of :func:`_as_fraction`; any other string gives ``None``
    and is left to that function.  The pair need not be in lowest terms.
    """
    if len(text) <= MAX_DIGITS:
        num, slash, den = text.partition("/")
        if num.isdigit() and num.isascii():
            if not slash:
                return int(num), 1
            if den.isdigit() and den.isascii():
                q = int(den)
                if q:
                    return int(num), q
    return None


def _as_fraction(value: RationalLike, what: str) -> Fraction:
    """``value``, an ``int``, a :class:`~fractions.Fraction` or a string, as a Fraction.

    A float has already lost its exact value and a boolean is not a
    number, so both are refused, as is every other type.
    """
    # an exact Fraction is already in lowest terms; building it again would
    # only copy it
    if value.__class__ is Fraction:
        return value
    try:
        if value.__class__ is str:
            plain = _plain_digits(value)
            if plain is not None:
                return Fraction(*plain)
        elif isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
            raise TypeError
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


def _as_ratio(value: RationalLike, what: str) -> tuple[int, int]:
    """``value`` as an integer numerator and a positive denominator.

    Integers and plain digit strings (:func:`_plain_digits`) are read
    directly; every other value goes through :func:`_as_fraction`, so it is
    accepted or refused, with the same message, as there.
    """
    if value.__class__ is int:
        return value, 1
    if value.__class__ is str:
        plain = _plain_digits(value)
        if plain is not None:
            return plain
    exact = _as_fraction(value, what)
    return exact.numerator, exact.denominator


# the classes of nearly every document value, which _json_exact passes on
# unchanged: loaders test a value's class against these before calling it
_JSON_PLAIN = (str, int)


def _json_exact(value: object, what: str) -> object:
    """Pass a document value on, refusing JSON floats and booleans.

    A float has already lost its exact value when the parser hands it over,
    and a boolean is not a number; numbers travel as strings or integers.
    """
    if isinstance(value, (bool, float)):
        raise ConfigError(f"{what} must be a string or an integer, got {value!r}")
    return value


def _check_delta(delta: Fraction) -> Fraction:
    """Refuse a threshold outside (0, 1) with :class:`DomainError`."""
    # a rational's sign is its numerator's, and its denominator is positive
    if not 0 < delta.numerator < delta.denominator:
        raise DomainError(f"delta must lie strictly between 0 and 1, got {_shown(delta)}")
    return delta


def validate_delta(value: RationalLike) -> Fraction:
    """Parse and range-check a spread threshold, which must lie in (0, 1)."""
    return _check_delta(_as_fraction(value, "delta"))


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


class _Frozen:
    """Refuses assignment and deletion; subclasses set their slots with ``_set``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Configuration(_Frozen):
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
    reads ``delta`` as :func:`validate_delta` does and checks the shape and
    that the masses sum to exactly 1; the package's own transforms build
    from integers, checking signs and the sum there.
    """

    __slots__ = ("delta", "n_cols", "n_rows", "_parts", "_den", "_hash", "_cells")

    def __init__(
        self,
        delta: RationalLike,
        n_cols: int,
        n_rows: int,
        cells: tuple[tuple[Cell, ...], ...],
    ) -> None:
        _cap_cells(n_cols, n_rows)
        if len(cells) != n_cols or any(len(col) != n_rows for col in cells):
            raise ConfigError("cells array shape does not match n_cols x n_rows")
        delta = validate_delta(delta)
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
        _check_delta(delta)
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

    Each mass becomes an integer numerator and denominator: an ``int`` or a
    plain ASCII ``"p"``/``"p/q"`` string is read directly, any other value
    goes through the parser of :func:`parse_rational`, and no
    :class:`~fractions.Fraction` is built for the first kind.  The grid is
    then built over the lcm of the denominators and reduced to lowest terms.
    """
    return _configuration(delta, n_cols, n_rows, masses, _as_ratio)


def _configuration(
    delta: RationalLike,
    n_cols: int,
    n_rows: int,
    masses: Mapping[tuple[int, int], tuple],
    read: Callable[[RationalLike, str], tuple[int, int]] | None,
) -> Configuration:
    """:func:`make_configuration`, each mass read by ``read(mass, what)``.

    With ``read`` ``None`` the masses are already ``(numerator,
    denominator)`` pairs, as :func:`config_from_json_dict` reads them.
    """
    delta_f = validate_delta(delta)
    _cap_cells(n_cols, n_rows)
    nums = [0] * (2 * n_cols * n_rows)
    dens = [1] * len(nums)
    for (k, j), (a, ac) in masses.items():
        if not (1 <= k <= n_cols and 1 <= j <= n_rows):
            raise ConfigError(
                f"cell index ({k},{j}) out of range for a {n_cols}x{n_rows} grid"
            )
        if read is not None:
            a, ac = read(a, "a mass"), read(ac, "ac mass")
        (a_n, a_d), (ac_n, ac_d) = a, ac
        if a_n < 0 or ac_n < 0:
            raise _negative_masses(Fraction(a_n, a_d), Fraction(ac_n, ac_d))
        i = 2 * ((k - 1) * n_rows + j - 1)
        nums[i], nums[i + 1], dens[i], dens[i + 1] = ac_n, a_n, ac_d, a_d
    den = math.lcm(*dens)
    parts = [v * (den // d) for v, d in zip(nums, dens)]
    return Configuration._from_parts(delta_f, n_cols, n_rows, parts, den)


def _cap_cells(
    n_cols: int, n_rows: int, error: type[ExpertSpreadError] = ConfigError
) -> None:
    """Refuse, with ``error``, an empty grid or one of more than :data:`MAX_CELLS` cells.

    Every grid allocator of the package calls this before it allocates.
    """
    if n_cols < 1 or n_rows < 1:
        raise error(f"grid must be at least 1x1, got {_shown(n_cols)}x{_shown(n_rows)}")
    if n_cols * n_rows > MAX_CELLS:
        raise error(
            f"a {_shown(n_cols)}x{_shown(n_rows)} grid exceeds the limit of {MAX_CELLS} cells"
        )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stats:
    """Derived quantities of a configuration.

    ``p``/``q`` are column/row masses, ``x``/``y`` the conditional
    probabilities of the tracked event given a column/row.  ``b_mask`` marks
    cells where the two conditionals differ by at least ``1 - delta`` (weak
    inequality); it is built from the memo's cell sides, the cells whose
    side is not 0.  The four ``m_*`` indices locate the extreme columns and
    rows that participate in such a pair: ``m_minus_G`` is the largest column index
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


def _units_loop(n_cols: int, n_rows: int, parts: Sequence[int], th_num: int, th_den: int) -> int:
    """:func:`_stats_loop`'s spread numerator.

    Past the cap of :func:`_unrolls`, :func:`_units_evaluator` binds the
    shape to it with :func:`functools.partial`.
    """
    return _stats_loop(parts, n_cols, n_rows, th_num, th_den)[5]


def _names(prefix: str, count: int) -> str:
    """``prefix0, prefix1, ...,``: ``count`` names with a trailing comma.

    So the text is an unpacking target as it stands, and a tuple inside
    parentheses, for any ``count`` from 1.
    """
    return "".join([f"{prefix}{i}, " for i in range(count)]).rstrip(" ")


def _unrolls(n_cols: int, n_rows: int) -> bool:
    """Whether generated code unrolls this shape: the one cap, ``UNROLL_CELLS`` cells.

    Source and compile time grow with what is unrolled, so larger grids run
    the loop references.  The memo kernel unrolls only rows, and asks of
    the square of side ``n_rows``, so at most 8: a merge sweep needs the
    code of every row count it passes.  The column walker asks both.
    """
    return n_cols * n_rows <= UNROLL_CELLS


def _compiled(tag: str, src: list[str], *names: str, **env: object) -> tuple:
    """The functions ``names`` that the lines ``src`` define, run as ``<tag>`` in ``env``."""
    exec(compile("\n".join(src), f"<{tag}>", "exec"), env)
    return tuple([env[name] for name in names])


def _line_locals(n_cols: int, n_rows: int, row_t: str, row_a: str) -> list[str]:
    """Lines summing the first ``n_cols`` columns of the unpacked slots ``p0, p1, ...``.

    They set each cell's mass ``m{i}``; each column's total ``ct{k}`` and
    event mass ``ca{k}``, with the terms :func:`_far_apart` reads, named as
    in the memo kernel: ``ctd{k}``, the total times the threshold's
    denominator, and ``above{k}`` and ``below{k}``, the event mass times the
    denominator less and plus the total times the numerator; and each row's
    total ``{row_t}{j}`` and event mass ``{row_a}{j}`` over those columns.
    The threshold is read from ``th_num`` and ``th_den``.
    """
    n = n_rows
    src = [f"    m{i} = p{2 * i} + p{2 * i + 1}" for i in range(n_cols * n)]
    for k in range(n_cols):
        col = range(k * n, k * n + n)
        src += [
            f"    ct{k} = " + " + ".join([f"m{i}" for i in col]),
            f"    ca{k} = " + " + ".join([f"p{2 * i + 1}" for i in col]),
            f"    ctd{k}, cad{k}, ctn{k} = ct{k} * th_den, ca{k} * th_den, ct{k} * th_num",
            f"    above{k}, below{k} = cad{k} - ctn{k}, cad{k} + ctn{k}",
        ]
    # a row over no columns, as in a one-column walker, sums to 0
    for j in range(n):
        row = range(j, n_cols * n, n)
        src.append(f"    {row_t}{j} = " + (" + ".join([f"m{i}" for i in row]) or "0"))
        src.append(f"    {row_a}{j} = " + (" + ".join([f"p{2 * i + 1}" for i in row]) or "0"))
    return src


def _gates(k: int | str) -> tuple[str, str]:
    """The conditions under which column ``k`` can hold a cell on the high, and on the low side.

    A cell of row ``j`` is on the high side when ``above{k} * t{j} >=
    a{j} * ctd{k}``, which needs ``above{k} >= 0``, a column value of at
    least the threshold, and on the low side when ``below{k} * t{j} <=
    a{j} * ctd{k}``, which needs ``below{k} <= ctd{k}``, a column value of
    at most one minus the threshold, because ``a{j} <= t{j}``.
    """
    return f"above{k} >= 0", f"below{k} <= ctd{k}"


def _far_apart(
    pad: str, k: int | str, high: Sequence[tuple[str, int]], low: Sequence[tuple[str, int]],
    into: str, gated: bool = True,
) -> list[str]:
    """Lines adding to ``into`` the masses of column ``k``'s cells far apart from their rows.

    :func:`_stats_loop`'s test on locals, one side at a time, with the terms
    in the row's total ``t{j}`` gathered as in the memo kernel: ``high`` and
    ``low`` pair the name of a cell's mass with its row ``j``, and a mass is
    added when its cell is on that side, compared with the row's total and
    event mass ``a{j}`` and the column's ``ctd{k}``, ``above{k}`` and
    ``below{k}`` of :func:`_line_locals`.  Each side's tests sit behind that
    side's gate of :func:`_gates`, or, unless ``gated``, the masses named
    are already 0 where the gate fails.  The threshold must be positive, so
    that no cell is on both sides.
    """
    src = []
    tests = (f"above{k} * t{{j}} >= a{{j}} * ctd{k}", f"below{k} * t{{j}} <= a{{j}} * ctd{k}")
    for gate, test, cells in zip(_gates(k), tests, (high, low)):
        inner = pad
        if gated:
            src.append(f"{pad}if {gate}:")
            inner += "    "
        for mass, j in cells:
            src += [f"{inner}if {mass} and {test.format(j=j)}:", f"{inner}    {into} += {mass}"]
    return src


@functools.lru_cache(maxsize=1024)
def _units_evaluator(n_cols: int, n_rows: int) -> Callable[..., int]:
    """``units(parts, th_num, th_den)``: :func:`_stats_loop`'s spread numerator for one shape.

    Within the cap of :func:`_unrolls` it is compiled, once per shape, from
    straight-line source: the slots are unpacked into locals, the lines of
    :func:`_line_locals` sum them, and each column is the two gated blocks
    of :func:`_far_apart`, each testing its cells' masses and cross-
    multiplying for one side, so a call runs no Python loop.  The threshold
    must be positive.  The source is built from integer indices alone.
    Past the cap it is :func:`_units_loop` with the shape bound.  Callers
    fetch the evaluator once, outside their loops.
    """
    if not _unrolls(n_cols, n_rows):
        return functools.partial(_units_loop, n_cols, n_rows)
    src = [
        "def units(parts, th_num, th_den):",
        f"    {_names('p', 2 * n_cols * n_rows)} = parts",
        *_line_locals(n_cols, n_rows, "t", "a"),
        "    b_num = 0",
    ]
    for k in range(n_cols):
        cells = [(f"m{k * n_rows + j}", j) for j in range(n_rows)]
        src += _far_apart("    ", k, cells, cells, "b_num")
    src.append("    return b_num\n")
    return _compiled(f"spread units {n_cols}x{n_rows}", src, "units")[0]


def _stats_loop(
    parts: Sequence[int], n_cols: int, n_rows: int, th_num: int, th_den: int
) -> tuple[list[int], list[int], list[int], list[int], list[tuple[int, ...]], int, bool, bool]:
    """The far-apart test on an integer mass vector, giving every cell's side.

    ``parts`` is the flat column-major (complement, event) vector of
    :func:`_lattice`; the threshold is ``th_num/th_den`` with ``th_den > 0``.
    Returns the four line sums of :func:`_line_sums`, the sides as a list of
    column tuples (+1 when the column value exceeds the row value by at
    least the threshold, -1 when the row value exceeds the column value by
    at least it, 0 otherwise), the summed mass of the cells with a non-zero
    side in the units of ``parts``, and whether the low (-1) and the high
    (+1) side hold a cell with mass.  The values are compared by
    cross-multiplying, never divided.  A cell on a zero-mass line has no
    conditional value and gets side 0.

    This loop is the one reference for every compiled evaluator, and runs
    past the cap of :func:`_unrolls`: for the memo in place of the kernels
    of :func:`_stats_evaluator`, and on grids with a zero-mass line; for
    the searches and :func:`expert_spread.discretize.threshold_probability`,
    which pass only the mass vector and need only the numerator, through
    :func:`_units_loop` and :func:`expert_spread.search._walk_last_column`,
    each summing the lines here.  The tests in
    ``tests/test_kernel.py`` tie each of them to it.
    """
    col_t, col_a, row_t, row_a = _line_sums(parts, n_cols, n_rows)
    side = []
    low = high = 0
    i = 0
    for k in range(n_cols):
        ct, ca = col_t[k], col_a[k]
        col = []
        for j in range(n_rows):
            rt = row_t[j]
            s = 0
            if ct and rt:
                gap = (ca * rt - row_a[j] * ct) * th_den
                bar = th_num * ct * rt
                if gap >= bar:
                    s = 1
                    high += parts[i] + parts[i + 1]
                elif -gap >= bar:
                    s = -1
                    low += parts[i] + parts[i + 1]
            col.append(s)
            i += 2
        side.append(tuple(col))
    return col_t, col_a, row_t, row_a, side, low + high, low > 0, high > 0


def _derive_loop(side: Sequence[tuple[int, ...]]) -> tuple:
    """The four ``m_*`` extremes, ``d_minus`` and ``d_plus`` of the sides.

    ``side`` holds one tuple of cell sides per column, as the memo's
    kernels give them; the fields are those of :class:`Stats` and of the
    memo entry, and the spread region itself is read from the sides.  This
    is the reference for the derivations of :func:`_stats_evaluator` and
    the one it hands out past its cap.
    """
    m, n = len(side), len(side[0])
    # Below, -1 means the row value sits far above the column value (the low
    # corner) and +1 the mirror; th > 0, so a cell is on at most one side.
    rows_side = [{side[k][j] for k in range(m)} for j in range(n)]
    m_minus_G = max((k + 1 for k in range(m) if -1 in side[k]), default=0)
    m_plus_G = min((k + 1 for k in range(m) if 1 in side[k]), default=math.inf)
    m_minus_H = max((j + 1 for j in range(n) if 1 in rows_side[j]), default=0)
    m_plus_H = min((j + 1 for j in range(n) if -1 in rows_side[j]), default=math.inf)

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

    return m_minus_G, m_plus_G, m_minus_H, m_plus_H, tuple(d_minus), tuple(d_plus)


@functools.lru_cache(maxsize=128)
def _stats_evaluator(n_rows: int) -> tuple[Callable[..., tuple], Callable[..., tuple]]:
    """The memo's kernel and derivation for grids of ``n_rows`` rows.

    The two have the signatures and results of the loop references,
    :func:`_stats_loop` and :func:`_derive_loop`.  Within the row cap of
    :func:`_unrolls` they are compiled, once per row count, with the rows
    unrolled into locals and the columns looped, so the code serves every
    column count.  The kernel sums the lines, sends a grid with a zero-mass
    line to :func:`_stats_loop`, forms each column's products with the
    threshold once and compares every cell; the derivation walks the
    columns once, each beside its two neighbours, to find the corners, and
    reads the four extremes off them.  Callers read the spread region
    itself from the kernel's sides.  The source is built from integer
    indices alone.  Past the cap the two are the loops themselves.
    """
    if not _unrolls(n_rows, n_rows):
        return _stats_loop, _derive_loop
    n = n_rows
    rows = range(n)
    src = [
        "def kernel(parts, n_cols, n_rows, th_num, th_den):",
        "    col_t = []",
        "    col_a = []",
        "    " + " = ".join([f"rt{j} = ra{j}" for j in rows]) + " = 0",
        f"    for i in range(0, {2 * n} * n_cols, {2 * n}):",
        f"        {_names('p', 2 * n)} = parts[i:i + {2 * n}]",
    ]
    for j in rows:
        src += [
            f"        m{j} = p{2 * j} + p{2 * j + 1}",
            f"        rt{j} += m{j}",
            f"        ra{j} += p{2 * j + 1}",
        ]
    src += [
        "        col_t.append(" + " + ".join([f"m{j}" for j in rows]) + ")",
        "        col_a.append(" + " + ".join([f"p{2 * j + 1}" for j in rows]) + ")",
        f"    row_t = [{_names('rt', n)}]",
        "    if 0 in col_t or 0 in row_t:",
        "        return _stats_loop(parts, n_cols, n_rows, th_num, th_den)",
        "    side = []",
        "    low = high = i = 0",
        "    for ct, ca in zip(col_t, col_a):",
        f"        {_names('p', 2 * n)} = parts[i:i + {2 * n}]",
        f"        i += {2 * n}",
        # the loop's tests gap >= bar and -gap >= bar, where gap is
        # ca_den * rt - ra * ct_den and bar is ct_num * rt, with the terms
        # in rt gathered: above * rt >= cross and below * rt <= cross
        "        ct_den = ct * th_den",
        "        ca_den = ca * th_den",
        "        ct_num = ct * th_num",
        "        above = ca_den - ct_num",
        "        below = ca_den + ct_num",
    ]
    for j in rows:
        src += [
            f"        cross = ra{j} * ct_den",
            f"        if above * rt{j} >= cross:",
            f"            s{j} = 1",
            f"            high += p{2 * j} + p{2 * j + 1}",
            f"        elif below * rt{j} <= cross:",
            f"            s{j} = -1",
            f"            low += p{2 * j} + p{2 * j + 1}",
            "        else:",
            f"            s{j} = 0",
        ]
    src += [
        f"        side.append(({_names('s', n)}))",
        f"    return col_t, col_a, row_t, [{_names('ra', n)}], side, low + high, low > 0, high > 0",
        "def derive(side):",
        "    d_minus = []",
        "    d_plus = []",
        "    k = 0",
        f"    pad = (0,) * {n}",
        "    for before, col, after in zip([pad] + side, side, side[1:] + [pad]):",
        "        k += 1",
        f"        {_names('s', n)} = col",
    ]
    for j in rows:
        # d_minus needs no -1 to the right and none below, d_plus no +1 to
        # the left and none above
        below = f" and s{j - 1} != -1" if j else ""
        above = f" and s{j + 1} != 1" if j + 1 < n else ""
        src += [
            f"        if s{j}:",
            f"            if s{j} < 0:",
            f"                if after[{j}] != -1{below}:",
            f"                    d_minus.append((k, {j + 1}))",
            f"            elif before[{j}] != 1{above}:",
            f"                d_plus.append((k, {j + 1}))",
        ]
    # The extremes are read off the corners: the lowest -1 of the rightmost
    # column holding one, and the rightmost -1 of the lowest row holding
    # one, are both in d_minus, which lists its cells column by column;
    # d_plus mirrors this with the leftmost column and the highest row.
    src.append(
        "    return (d_minus[-1][0] if d_minus else 0,"
        " d_plus[0][0] if d_plus else inf, max([j for _, j in d_plus], default=0),"
        " min([j for _, j in d_minus], default=inf), tuple(d_minus), tuple(d_plus))\n"
    )
    env = {"inf": math.inf, "_stats_loop": _stats_loop}
    return _compiled(f"grid stats, {n} rows", src, "kernel", "derive", **env)


class _GridStats:
    """The statistics of one configuration on its integer lattice.

    ``col_t``/``col_a``/``row_t``/``row_a`` are the line totals and event
    masses over the configuration's ``_den``, which the entry does not
    copy; ``side[k][j]`` is the kernel's side of the 0-based cell (+1 when
    the column value sits far above the row value, -1 for the mirror, 0
    outside the spread region), the entry's only record of that region.
    ``b_num`` is the spread numerator over ``_den``.  The remaining fields
    are those of :class:`Stats` but its mask of the region, ``prob_B``
    being the only rational.  ``occupied`` says whether the low and the high side of the
    spread region carry positive mass; ``stats`` holds the :class:`Stats`
    once :func:`compute_stats` has built it.  ``fixpoint`` is set once
    :func:`expert_spread.transforms.canonicalize` has returned this
    configuration (or an equal one) with its shape checked, or the
    reduction driver has transposed a configuration so marked, so a later
    merge sweep of ``canonicalize`` on it returns at once.  No other
    function reads the mark.
    """

    __slots__ = (
        "col_t", "col_a", "row_t", "row_a", "side", "b_num", "prob_B",
        "m_minus_G", "m_plus_G", "m_minus_H", "m_plus_H", "d_minus", "d_plus",
        "occupied", "stats", "fixpoint",
    )


@functools.lru_cache(maxsize=8192)
def _grid_stats(cfg: Configuration) -> _GridStats:
    """The memoised integer statistics of ``cfg``; see :func:`compute_stats`.

    Every field comes from the kernel and the derivation that
    :func:`_stats_evaluator` gives for the grid's row count.  The sides
    stand for the spread region and ``cfg._den`` for the denominator; the
    entry holds no copy of either.
    """
    m, n = cfg.n_cols, cfg.n_rows
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    kernel, derive = _stats_evaluator(n)
    col_t, col_a, row_t, row_a, side, b_num, low, high = kernel(cfg._parts, m, n, dd - dn, dd)
    _refuse_zero_lines(col_t, row_t)
    g = _GridStats()
    g.m_minus_G, g.m_plus_G, g.m_minus_H, g.m_plus_H, g.d_minus, g.d_plus = derive(side)
    g.col_t, g.col_a, g.row_t, g.row_a = col_t, col_a, row_t, row_a
    # a tuple, so no reader can change a memoised entry's sides
    g.side = tuple(side)
    g.b_num = b_num
    g.prob_B = Fraction(b_num, cfg._den)
    g.occupied = (low, high)
    g.stats = None
    g.fixpoint = False
    return g


def _refuse_zero_lines(col_t: Sequence[int], row_t: Sequence[int]) -> None:
    """Raise :class:`ConfigError` naming the first zero-mass column, else row."""
    for what, totals in (("column", col_t), ("row", row_t)):
        if 0 in totals:
            raise ConfigError(
                f"{what} {totals.index(0) + 1} has zero mass; "
                "conditional probability undefined"
            )


def compute_stats(cfg: Configuration) -> Stats:
    """Compute all derived statistics of a configuration.

    The configuration need not be sorted; values are reported in the given
    column/row order.  Raises :class:`ConfigError` naming the first zero-mass
    column or row, since conditional probabilities are undefined there.

    The far-apart test runs on the configuration's integer tuple by
    cross-multiplication, in the kernel that :func:`_stats_evaluator` gives
    for the grid's row count, which gives every cell's side; a companion
    function derives the extremes and the corners from the sides.
    :class:`~fractions.Fraction` objects and ``b_mask``, the cells whose
    side is not 0, are built only for the returned fields, once per memo
    entry.  The searches count only the spread numerator; see
    :func:`_stats_loop`.

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
        den = cfg._den
        # The memo keeps these tuples alive; built from lists, they are
        # allocated at their exact size, where tuple(<generator>) may keep
        # spare slots.
        stats = g.stats = Stats(
            p=tuple([Fraction(t, den) for t in g.col_t]),
            q=tuple([Fraction(t, den) for t in g.row_t]),
            x=tuple([Fraction(a, t) for a, t in zip(g.col_a, g.col_t)]),
            y=tuple([Fraction(a, t) for a, t in zip(g.row_a, g.row_t)]),
            b_mask=tuple([tuple([s != 0 for s in col]) for col in g.side]),
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
    return _normalized(cfg.delta, cfg.n_cols, cfg.n_rows, cfg._parts, cfg._den)


def _normalized(
    delta: Fraction, n_cols: int, n_rows: int, parts: Sequence[int], den: int
) -> Configuration:
    """:func:`normalize` of the grid of a flat ``(ac, a)`` vector over ``den``, built once."""
    col_order, row_order = _line_orders(*_line_sums(parts, n_cols, n_rows))
    return Configuration._from_parts(
        delta,
        len(col_order),
        len(row_order),
        _permuted(parts, n_rows, col_order, row_order),
        den,
    )


def _line_orders(
    col_t: Sequence[int], col_a: Sequence[int], row_t: Sequence[int], row_a: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The 0-based columns and rows with mass, each stably sorted by value."""
    col_order = sorted(
        (k for k in range(len(col_t)) if col_t[k]),
        key=functools.cmp_to_key(lambda k, l: col_a[k] * col_t[l] - col_a[l] * col_t[k]),
    )
    row_order = sorted(
        (j for j in range(len(row_t)) if row_t[j]),
        key=functools.cmp_to_key(lambda j, i: row_a[j] * row_t[i] - row_a[i] * row_t[j]),
    )
    return col_order, row_order


def _permuted(
    parts: Sequence[int], n_rows: int, col_order: Sequence[int], row_order: Sequence[int]
) -> list[int]:
    """The flat vector of ``parts`` with its columns and rows taken in these orders."""
    out: list[int] = []
    for k in col_order:
        base = 2 * k * n_rows
        for j in row_order:
            out += parts[base + 2 * j : base + 2 * j + 2]
    return out


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
    """Parse "p/q", integer, or decimal strings into an exact rational.

    An ``int`` or a :class:`~fractions.Fraction` is taken as it is; any other
    value, a float or a boolean included, raises :class:`ConfigError`.
    """
    return _as_fraction(text, "rational")


def rational_to_decimal(value: Fraction) -> str:
    """Render a rational as a decimal string via exact long division.

    Terminating expansions are emitted exactly ("0.4" for 2/5).  Otherwise the
    expansion is truncated after 15 (``DECIMAL_DIGITS``) significant digits,
    counted from the first non-zero digit.
    """
    value = Fraction(value)
    if value < 0:
        return "-" + rational_to_decimal(-value)
    num, den = value.numerator, value.denominator
    whole, rem = divmod(num, den)
    digits = str(whole)
    significant = len(digits) if whole > 0 else 0
    if rem == 0:
        return digits
    out = [digits, "."]
    while rem != 0 and significant < DECIMAL_DIGITS:
        rem *= 10
        d, rem = divmod(rem, den)
        out.append(str(d))
        if significant > 0 or d != 0:
            significant += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def _ratio_str(num: int, den: int) -> str:
    """``num/den`` as :class:`~fractions.Fraction` prints it.

    That is ``"p/q"`` in lowest terms, or ``"p"`` when the value is whole.
    """
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def _cell_strs(cfg: Configuration) -> Iterator[tuple[int, int, str, str]]:
    """``(col, row, a, ac)`` for each non-empty cell, in column-major order.

    Each mass is written as :func:`rational_to_str` would write it, formatted
    from the integers without building a :class:`~fractions.Fraction`.
    """
    parts, den, n = cfg._parts, cfg._den, cfg.n_rows
    for i in range(0, len(parts), 2):
        ac, a = parts[i], parts[i + 1]
        if ac or a:
            k, j = divmod(i // 2, n)
            yield k + 1, j + 1, _ratio_str(a, den), _ratio_str(ac, den)


def config_to_json_dict(cfg: Configuration) -> dict:
    """Serialize to the configuration file schema (empty cells omitted)."""
    cells = [
        {"col": k, "row": j, "a": a, "ac": ac} for k, j, a, ac in _cell_strs(cfg)
    ]
    return {
        "delta": rational_to_str(cfg.delta),
        "cols": cfg.n_cols,
        "rows": cfg.n_rows,
        "cells": cells,
    }


def config_from_json_dict(data: Mapping) -> Configuration:
    """Load a configuration from the file schema, validating shape and mass.

    Each mass is read into an integer numerator and denominator as
    :func:`make_configuration` reads it, in document order, and a bad one
    is reported as :func:`parse_rational` reports it; the grid is then
    built by the code that function ends in.
    """
    try:
        delta = _json_exact(data["delta"], "delta")
        n_cols = int(_json_exact(data["cols"], "cols"))
        n_rows = int(_json_exact(data["rows"], "rows"))
        raw_cells: Iterable[Mapping] = data["cells"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration document: {exc}") from exc
    if not isinstance(raw_cells, (list, tuple)):
        raise ConfigError(f"'cells' must be a list, got {raw_cells!r}")
    masses: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for entry in raw_cells:
        try:
            key = (
                int(k if (k := entry["col"]).__class__ in _JSON_PLAIN else _json_exact(k, "col")),
                int(j if (j := entry["row"]).__class__ in _JSON_PLAIN else _json_exact(j, "row")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed cell entry {entry!r}") from exc
        if key in masses:
            raise ConfigError(f"duplicate cell entry for {key}")
        masses[key] = (
            _as_ratio(
                a if (a := entry.get("a", 0)).__class__ in _JSON_PLAIN else _json_exact(a, "a"),
                "rational",
            ),
            _as_ratio(
                c if (c := entry.get("ac", 0)).__class__ in _JSON_PLAIN else _json_exact(c, "ac"),
                "rational",
            ),
        )
    return _configuration(delta, n_cols, n_rows, masses, None)


def dump_config(cfg: Configuration, fp: IO[str]) -> None:
    """Write ``cfg`` in the file schema, ending in a newline.

    The text is that of ``json.dumps(config_to_json_dict(cfg), indent=2)``
    plus ``"\\n"``, written directly from the integers: ``indent`` sends
    :mod:`json` to its pure-Python encoder, which took several times as
    long.  A configuration has mass, so its cell list is never empty.
    """
    cells = [
        f'    {{\n      "col": {k},\n      "row": {j},\n'
        f'      "a": "{a}",\n      "ac": "{ac}"\n    }}'
        for k, j, a, ac in _cell_strs(cfg)
    ]
    fp.write(
        f'{{\n  "delta": "{rational_to_str(cfg.delta)}",\n  "cols": {cfg.n_cols},\n'
        f'  "rows": {cfg.n_rows},\n  "cells": [\n' + ",\n".join(cells) + "\n  ]\n}\n"
    )


def _load_json(fp: IO[str], what: str) -> object:
    """The JSON document in ``fp``; a file that is not one raises :class:`ConfigError`."""
    # ValueError covers the decode errors and a JSON integer too long for int()
    try:
        return json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}") from exc


def load_config(fp: IO[str]) -> Configuration:
    return config_from_json_dict(_load_json(fp, "configuration"))
