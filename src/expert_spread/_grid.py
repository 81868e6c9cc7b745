"""The lattice readers of the transforms, and the working grid of the canonicalize cycle.

A configuration's masses are the integers of its ``_parts`` tuple over its
``_den``: column-major, the complement share of each cell first and its
event share second.  Its statistics come from the memoised ``_grid_stats``:
integer line sums over the same denominator and a side per cell.  Values
are compared by cross-multiplying line sums; rationals appear only where a
caller's epsilon is compared, in trace values and in messages.

:class:`_Grid` holds the same integers and statistics in lists that the
cycle transforms of :mod:`expert_spread.transforms` change in place; the
public transforms are thin wrappers over its methods.  It is a module of
its own because compiling takes memory in proportion to a module's size,
and the largest module of the package sets the peak memory of importing
the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import (
    Configuration,
    ConfigError,
    InternalStateError,
    TransformContractError,
    _GridStats,
    _line_orders,
    _line_sums,
    _permuted,
    _refuse_zero_lines,
    _stats_evaluator,
    rational_to_str,
)


def _rounds(
    cap: int, loop: str, fail: Callable[[str], Exception] = InternalStateError
) -> Iterator[int]:
    """Count the rounds of a loop that must settle within ``cap`` rounds.

    The loop breaks or returns once it settles; asking for round ``cap + 1``
    raises ``fail`` with a message naming ``loop``.  Every fixpoint loop of
    the transforms and of the working grid counts its rounds here.
    """
    yield from range(1, cap + 1)
    raise fail(f"{loop} exceeded its cap of {cap} rounds")


# ---------------------------------------------------------------------------
# Reading the integer lattice
# ---------------------------------------------------------------------------


def _cell(cfg: Configuration, k: int, j: int) -> tuple[int, int]:
    """The event and complement mass of cell ``(k, j)`` (1-based), over ``cfg._den``."""
    i = cfg._index(k, j)
    return cfg._parts[i + 1], cfg._parts[i]


def _a(cfg: Configuration, k: int, j: int) -> int:
    return cfg._parts[cfg._index(k, j) + 1]


def _ac(cfg: Configuration, k: int, j: int) -> int:
    return cfg._parts[cfg._index(k, j)]


def _mass(cfg: Configuration, k: int, j: int) -> int:
    i = cfg._index(k, j)
    return cfg._parts[i] + cfg._parts[i + 1]


def _rational(cfg: Configuration, units: int) -> str:
    """A mass in ``cfg``'s units as a rational string, for diagnostics."""
    return rational_to_str(Fraction(units, cfg._den))


def _below_half(cfg: Configuration) -> bool:
    return 2 * cfg.delta.numerator < cfg.delta.denominator


def _least(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The smallest of the rationals ``num/den`` (``den > 0``), as given."""
    best_n, best_d = terms[0]
    for num, den in terms[1:]:
        if num * best_d < best_n * den:
            best_n, best_d = num, den
    return best_n, best_d


def _transposed(parts: Sequence[int], n_rows: int) -> list[int]:
    """The flat column-major vector of the transposed grid, cell pairs kept."""
    ac, a = parts[0::2], parts[1::2]
    out = [0] * len(parts)
    out[0::2] = [v for j in range(n_rows) for v in ac[j::n_rows]]
    out[1::2] = [v for j in range(n_rows) for v in a[j::n_rows]]
    return out


# ---------------------------------------------------------------------------
# Shape tests
# ---------------------------------------------------------------------------


def _blocked(
    parts: Sequence[int],
    first: Sequence[int],
    second: Sequence[int],
    starts: Iterable[int],
    step: int,
) -> bool:
    """Whether pooling two lines could lose spread mass.

    The merge pools, for each offset ``i`` of ``starts``, the cell at ``i``,
    whose side is the next of ``first``, with the cell at ``i + step``,
    whose side is the next of ``second``.  A pair is safe when both cells
    lie in the spread region on the same side, or when neither carries
    spread mass.
    """
    for s1, s2, i in zip(first, second, starts):
        if s1 and s1 == s2:
            continue
        if s1 and (parts[i] or parts[i + 1]):
            return True
        if s2 and (parts[i + step] or parts[i + step + 1]):
            return True
    return False


def _sorted_problem(
    col_t: Sequence[int], col_a: Sequence[int], row_t: Sequence[int], row_a: Sequence[int]
) -> Optional[str]:
    """Explain why the lines with these sums are not strictly value-sorted, or ``None``."""
    for what, a, t in (("columns", col_a, col_t), ("rows", row_a, row_t)):
        for i in range(len(t) - 1):
            if not a[i] * t[i + 1] < a[i + 1] * t[i]:
                return f"{what} {i + 1} and {i + 2} are not strictly sorted"
    return None


def _staircase_problem(cfg: Configuration, g: _GridStats) -> Optional[str]:
    """Explain why the spread region is not in staircase form, or ``None``.

    Checks strict sorting, the dimension identities tying each corner's depth
    to the opposite axis, and the two tests that pin every border cell to
    its exact step position.  Only meaningful below threshold one half,
    where the two sides of the region cannot overlap.  On sorted lines each
    side is monotone, so a corner's depth and its first paired line come
    from the same cells.
    """
    sort_problem = _sorted_problem(g.col_t, g.col_a, g.row_t, g.row_a)
    if sort_problem is not None:
        return sort_problem

    mm_g = g.m_minus_G
    mp_h = g.m_plus_H
    if mm_g > 0:
        if mm_g != cfg.n_rows - mp_h + 1:
            return (
                f"low corner depth {mm_g} does not match rows {cfg.n_rows} "
                f"and first paired row {mp_h}"
            )
        for k in range(1, mm_g + 1):
            t = mp_h + k - 1
            if g.side[k - 1][t - 1] != -1:
                return f"column {k} is not paired with row {t}"
            if k + 1 <= cfg.n_cols and g.side[k][t - 1] == -1:
                return f"column {k + 1} unexpectedly pairs with row {t}"

    mm_h = g.m_minus_H
    mp_g = g.m_plus_G
    if mm_h > 0:
        if mm_h != cfg.n_cols - mp_g + 1:
            return (
                f"high corner depth {mm_h} does not match columns {cfg.n_cols} "
                f"and first paired column {mp_g}"
            )
        for j in range(1, mm_h + 1):
            t = mp_g + j - 1
            if g.side[t - 1][j - 1] != 1:
                return f"row {j} is not paired with column {t}"
            if j + 1 <= cfg.n_rows and g.side[t - 1][j] == 1:
                return f"row {j + 1} unexpectedly pairs with column {t}"
    return None


def _find_corner_move(
    cfg: Configuration, g: _GridStats
) -> Optional[tuple[tuple[int, int], tuple[int, int], int]]:
    """Locate the first evacuation move, scanning the low rectangle first.

    Returns the source cell, the receiving cell and the species it receives:
    0 for complement, 1 for event mass.  A side with no cell has its first
    paired line at ``inf`` and its depth at 0, so its rectangle's outer
    range is empty and the infinite bound is never read.
    """
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    up = dd - dn  # the threshold 1 - delta is up/dd
    for k in range(1, g.m_minus_G + 1):
        for j in range(g.m_plus_H, cfg.n_rows + 1):
            a, ac = _cell(cfg, k, j)
            if g.side[k - 1][j - 1] or a + ac == 0:
                continue
            if a * dd < up * (a + ac):
                return ((k, j), (k, 1), 0)
            return ((k, j), (cfg.n_cols, j), 1)
    for j in range(1, g.m_minus_H + 1):
        for k in range(g.m_plus_G, cfg.n_cols + 1):
            a, ac = _cell(cfg, k, j)
            if g.side[k - 1][j - 1] or a + ac == 0:
                continue
            if ac * dd < up * (a + ac):
                return ((k, j), (k, cfg.n_rows), 1)
            return ((k, j), (1, j), 0)
    return None


# ---------------------------------------------------------------------------
# The working grid
# ---------------------------------------------------------------------------


class _Grid:
    """A configuration's integers, changed in place by the cycle transforms.

    It holds what a :class:`Configuration` and its memo entry hold, under
    the same names: the flat column-major ``(ac, a)`` list ``_parts`` over
    ``_den``, the dimensions, the four line sums, the sides as a list of
    column tuples, and the fields the memo's derivation gives (the four
    ``m_*`` extremes, ``d_minus`` and ``d_plus``).  The sides are the
    grid's only record of the spread region: a cell lies in it when its
    side is not 0.  So the readers written for a configuration and its
    statistics, :func:`_cell`, :func:`_find_corner_move` and
    :func:`_staircase_problem`, read a grid as both.

    A mass move (:meth:`_shift`), a purification's included, updates its
    cell's two line sums by addition and leaves the sides to the memo's
    kernel, run when they are next read.  A column merge recomputes the
    merged column's sides alone, a row merge the merged row's.  Whether the
    two sides of the spread region hold mass is read only from memo
    entries, never from a grid.  The derived fields come from the
    derivation of :func:`~expert_spread.config._stats_evaluator`, run again
    only after the sides change.  ``moves`` counts the moves, so a caller
    can tell a pass that changed nothing; ``settled`` says the merge sweep
    has run and nothing moved since.  A grid starts unsettled, memo entry or
    not; :func:`~expert_spread.transforms.canonicalize` sets ``settled``
    from the memo's fixpoint mark, which no code here reads.
    """

    __slots__ = (
        "delta", "dn", "dd", "up", "n_cols", "n_rows", "_parts", "_den",
        "col_t", "col_a", "row_t", "row_a", "side", "m_minus_G", "m_plus_G",
        "m_minus_H", "m_plus_H", "d_minus", "d_plus", "derived", "settled",
        "moves",
    )

    # the bounds check and offset of a cell, as a configuration has them
    _index = Configuration._index

    def __init__(self, cfg: Configuration, g: Optional[_GridStats] = None) -> None:
        """Load ``cfg``; with its memo entry ``g``, take its statistics, not its mark."""
        self.delta = cfg.delta
        self.dn, self.dd = cfg.delta.numerator, cfg.delta.denominator
        self.up = self.dd - self.dn  # the threshold 1 - delta is up/dd
        self.n_cols, self.n_rows = cfg.n_cols, cfg.n_rows
        self._parts, self._den = list(cfg._parts), cfg._den
        self.moves = 0
        self.settled = False
        if g is None:
            self.col_t, self.col_a, self.row_t, self.row_a = _line_sums(
                self._parts, cfg.n_cols, cfg.n_rows
            )
            self.side = None
            self.derived = False
        else:
            self.col_t, self.col_a = g.col_t[:], g.col_a[:]
            self.row_t, self.row_a = g.row_t[:], g.row_a[:]
            self.side = list(g.side)
            self.d_minus, self.d_plus = g.d_minus, g.d_plus
            self.m_minus_G, self.m_plus_G = g.m_minus_G, g.m_plus_G
            self.m_minus_H, self.m_plus_H = g.m_minus_H, g.m_plus_H
            self.derived = True

    def _result(self, cfg: Configuration) -> Configuration:
        """``cfg`` itself when nothing moved since it was loaded, else the grid built once."""
        if not self.moves:
            return cfg
        return Configuration._from_parts(
            self.delta, self.n_cols, self.n_rows, self._parts, self._den
        )

    # -- sides and derived fields -------------------------------------------

    def _sides(self) -> list[tuple[int, ...]]:
        """The sides, from the memo's kernel when a mass move left them stale.

        A grid with a zero-mass line has no sides; it is refused as the memo
        refuses it.
        """
        if self.side is None:
            _refuse_zero_lines(self.col_t, self.row_t)
            kernel = _stats_evaluator(self.n_rows)[0]
            self.side = kernel(self._parts, self.n_cols, self.n_rows, self.up, self.dd)[4]
        return self.side

    def _derive(self) -> None:
        """Bring the extremes and the corner lists up to date with the sides."""
        if not self.derived:
            (
                self.m_minus_G, self.m_plus_G, self.m_minus_H, self.m_plus_H,
                self.d_minus, self.d_plus,
            ) = _stats_evaluator(self.n_rows)[1](self._sides())
            self.derived = True

    def _side(self, ct: int, ca: int, rt: int, ra: int) -> int:
        """The side of a cell on lines with these sums, by the memo kernel's test."""
        ct_den = ct * self.dd
        ca_den = ca * self.dd
        ct_num = ct * self.up
        cross = ra * ct_den
        if (ca_den - ct_num) * rt >= cross:
            return 1
        if (ca_den + ct_num) * rt <= cross:
            return -1
        return 0

    def _column_sides(self, k: int) -> tuple[int, ...]:
        """The sides of 0-based column ``k``."""
        ct, ca = self.col_t[k], self.col_a[k]
        return tuple([self._side(ct, ca, rt, ra) for rt, ra in zip(self.row_t, self.row_a)])

    def _row_sides(self, j: int) -> list[int]:
        """The sides of 0-based row ``j``, one per column."""
        rt, ra = self.row_t[j], self.row_a[j]
        return [self._side(ct, ca, rt, ra) for ct, ca in zip(self.col_t, self.col_a)]

    # -- moves ----------------------------------------------------------------

    def _changed(self) -> None:
        self.derived = self.settled = False
        self.moves += 1

    def _shift(self, i: int, d_ac: int, d_a: int) -> None:
        """Add ``d_ac`` and ``d_a`` to the cell at offset ``i`` and to its two lines."""
        self._parts[i] += d_ac
        self._parts[i + 1] += d_a
        k, j = divmod(i >> 1, self.n_rows)
        self.col_t[k] += d_ac + d_a
        self.col_a[k] += d_a
        self.row_t[j] += d_ac + d_a
        self.row_a[j] += d_a
        self.side = None
        self._changed()

    def _rescale(self, mul: int, div: int = 1) -> None:
        """Every mass and line sum times ``mul`` over ``div``, which divides them all."""
        if mul == div:
            return
        self._parts = [v * mul // div for v in self._parts]
        self.col_t = [v * mul // div for v in self.col_t]
        self.col_a = [v * mul // div for v in self.col_a]
        self.row_t = [v * mul // div for v in self.row_t]
        self.row_a = [v * mul // div for v in self.row_a]
        self._den = self._den * mul // div

    def _same(self, state: tuple[int, int, tuple[int, ...]]) -> bool:
        """Whether the grid holds the configuration it held at ``(n_cols, _den, parts)``."""
        n_cols, den, parts = state
        return (
            n_cols == self.n_cols
            and len(parts) == len(self._parts)
            and [v * self._den for v in parts] == [v * den for v in self._parts]
        )

    # -- symmetries, for purification -----------------------------------------

    def _reflect(self) -> None:
        """:func:`complement_reflect` in place."""
        self._parts.reverse()
        self.col_t.reverse()
        self.row_t.reverse()
        self.col_a = [t - a for t, a in zip(self.col_t, self.col_a[::-1])]
        self.row_a = [t - a for t, a in zip(self.row_t, self.row_a[::-1])]
        self.side = [tuple([-s for s in col[::-1]]) for col in self.side[::-1]]

    def _reflected_transpose(self) -> None:
        """``transpose(complement_reflect(.))`` in place, its own inverse.

        Cell ``(k, j)`` goes to ``(n_rows + 1 - j, n_cols + 1 - k)`` with its
        two species swapped, so every side keeps its sign.
        """
        m, n = self.n_cols, self.n_rows
        self._parts = _transposed(self._parts[::-1], n)
        col_t, col_a = self.col_t[::-1], self.col_a[::-1]
        self.col_t = self.row_t[::-1]
        self.col_a = [t - a for t, a in zip(self.col_t, self.row_a[::-1])]
        self.row_t = col_t
        self.row_a = [t - a for t, a in zip(col_t, col_a)]
        side = self.side[::-1]
        self.side = [tuple([col[j] for col in side]) for j in range(n - 1, -1, -1)]
        self.n_cols, self.n_rows = n, m

    # -- the cycle's transforms -----------------------------------------------

    def _sort(self) -> None:
        """:func:`~expert_spread.config.normalize` in place."""
        cols, rows = _line_orders(self.col_t, self.col_a, self.row_t, self.row_a)
        if cols == list(range(self.n_cols)) and rows == list(range(self.n_rows)):
            return
        self._parts = _permuted(self._parts, self.n_rows, cols, rows)
        self.col_t = [self.col_t[k] for k in cols]
        self.col_a = [self.col_a[k] for k in cols]
        self.row_t = [self.row_t[j] for j in rows]
        self.row_a = [self.row_a[j] for j in rows]
        self.n_cols, self.n_rows = len(cols), len(rows)
        self.side = None
        self._changed()

    def _merge_columns(self, k: int) -> bool:
        """:func:`merge_columns` in place, for ``1 <= k < n_cols``; whether they merged."""
        n, parts, side = self.n_rows, self._parts, self._sides()
        lo, mid, hi = 2 * (k - 1) * n, 2 * k * n, 2 * (k + 1) * n  # the two columns' cells
        if _blocked(parts, side[k - 1], side[k], range(lo, mid, 2), 2 * n):
            return False
        parts[lo:hi] = [u + v for u, v in zip(parts[lo:mid], parts[mid:hi])]
        self.col_t[k - 1] += self.col_t.pop(k)
        self.col_a[k - 1] += self.col_a.pop(k)
        self.n_cols -= 1
        del side[k]
        side[k - 1] = self._column_sides(k - 1)
        self._changed()
        return True

    def _merge_rows(self, j: int) -> bool:
        """:func:`merge_rows` in place, for ``1 <= j < n_rows``; whether they merged."""
        m, n, parts, side = self.n_cols, self.n_rows, self._parts, self._sides()
        starts = range(2 * (j - 1), 2 * m * n, 2 * n)  # row j's cells, one per column
        if _blocked(parts, [col[j - 1] for col in side], [col[j] for col in side], starts, 2):
            return False
        # from the last column back, so the offsets still to visit hold
        for i in reversed(starts):
            parts[i] += parts[i + 2]
            parts[i + 1] += parts[i + 3]
            del parts[i + 2 : i + 4]
        self.row_t[j - 1] += self.row_t.pop(j)
        self.row_a[j - 1] += self.row_a.pop(j)
        self.n_rows -= 1
        row = self._row_sides(j - 1)
        side[:] = [col[: j - 1] + (s,) + col[j + 1 :] for col, s in zip(side, row)]
        self._changed()
        return True

    def _zigzag(self) -> None:
        """:func:`zigzag_normalize` in place; nothing when the grid is settled."""
        if self.settled:
            return
        if _sorted_problem(self.col_t, self.col_a, self.row_t, self.row_a) is not None:
            self._sort()
        for _ in _rounds(16 * (self.n_cols + self.n_rows) ** 2, "merging"):
            dims = self.n_cols, self.n_rows
            k = 1
            while k < self.n_cols:
                if not self._merge_columns(k):
                    k += 1
            j = 1
            while j < self.n_rows:
                if not self._merge_rows(j):
                    j += 1
            if (self.n_cols, self.n_rows) == dims:
                break
        self._derive()
        problem = (
            _staircase_problem(self, self)
            if _below_half(self)
            else _sorted_problem(self.col_t, self.col_a, self.row_t, self.row_a)
        )
        if problem is not None:
            raise InternalStateError(f"merge fixpoint is not a staircase: {problem}")
        self.settled = True

    def _purify(self, k: int, j: int) -> bool:
        """:func:`purify_border_cell` in place; whether mass moved.

        A high-corner border cell is purified in the complement reflection,
        and a low one whose row is the heavier line in the reflected
        transpose; there each is a low border cell whose column is the
        heavier line.  The grid is turned into that view and back in place.
        A pure cell, and from one half on every border cell, is left alone
        before any view is applied.
        """
        a, ac = _cell(self, k, j)
        self._derive()
        m, n = self.n_cols, self.n_rows
        # Both maps keep every line's total.  In the reflected transpose the
        # caps of _purify_low are mirrored: x may fall to the previous column
        # value (or 0), y to the previous row value.  The one cap added
        # there, q * (y - th) from x' <= delta, never binds: y - th >= x on a
        # low border cell and q > p make it at least p * (x - x_prev).
        row_heavy = self.col_t[k - 1] < self.row_t[j - 1]
        views = []
        if (k, j) in self.d_plus:
            views.append(self._reflect)
            k, j = m + 1 - k, n + 1 - j
        elif (k, j) not in self.d_minus:
            raise ConfigError(f"cell ({k}, {j}) is not on the border of the spread region")
        if a == 0 or ac == 0 or not _below_half(self):
            return False
        if row_heavy:
            views.append(self._reflected_transpose)
            k, j = n + 1 - j, m + 1 - k
        for view in views:
            view()
        moved = self._purify_low(k, j)
        for view in reversed(views):
            view()
        return moved

    def _purify_low(self, k: int, j: int) -> bool:
        """Purify low border cell ``(k, j)``, whose column outweighs its row or ties."""
        col_t, col_a, row_t, row_a = self.col_t, self.col_a, self.row_t, self.row_a
        dn, dd = self.dn, self.dd
        # with x = A/P and y = R/Q the two lines' values, p = P and q = Q their
        # masses in units, a cap p*(x' - x) is (P*x' - A), and so on
        P, A = col_t[k - 1], col_a[k - 1]
        Q, R = row_t[j - 1], row_a[j - 1]
        # x' = min(next column value, delta); y' = the next row value, or 1
        if k < self.n_cols and col_a[k] * dd < dn * col_t[k]:
            x_cap = (col_a[k], col_t[k])
        else:
            x_cap = (dn, dd)
        y_cap = (row_a[j], row_t[j]) if j < self.n_rows else (1, 1)
        i = self._index(k, j)
        # below one half no high-side pair shares the row: x_c >= y + th >= x + 2 * th > 1
        terms = [
            (P * x_cap[0] - A * x_cap[1], x_cap[1]),
            (Q * y_cap[0] - R * y_cap[1], y_cap[1]),
            (self._parts[i], 1),
        ]
        shift, den = _least(terms)  # event mass gained, in units of 1/(den * _den)
        if shift <= 0:
            return False
        before = self.side, col_t[:], col_a[:], row_t[:], row_a[:]
        self._rescale(den)
        self._shift(i, -shift, shift)
        self._rescale(1, math.gcd(self._den, *self._parts))
        self._check_spread_pairs_kept(*before)
        return True

    def _check_spread_pairs_kept(
        self,
        side: list[tuple[int, ...]],
        col_t: list[int],
        col_a: list[int],
        row_t: list[int],
        row_a: list[int],
    ) -> None:
        """Verify every column/row pair in the spread region of ``side`` stayed there.

        The line sums are those ``side`` was computed from; the grid's own
        sides are read from the memo's kernel.
        """
        for k, (was, now) in enumerate(zip(side, self._sides())):
            if was == now:
                continue
            for j, (s, t) in enumerate(zip(was, now)):
                if s and not t:
                    gap = abs(Fraction(col_a[k], col_t[k]) - Fraction(row_a[j], row_t[j]))
                    new_gap = abs(
                        Fraction(self.col_a[k], self.col_t[k])
                        - Fraction(self.row_a[j], self.row_t[j])
                    )
                    raise TransformContractError(
                        f"column {k + 1} and row {j + 1} left the spread region "
                        f"(gap {gap} fell to {new_gap})"
                    )

    def _purify_all_borders(self) -> None:
        """:func:`purify_all_borders` in place, below one half."""
        # the cap is sized on the grid as given, before merges shrink it
        rounds = _rounds(16 * (self.n_cols + self.n_rows) ** 2, "border purification")
        self._zigzag()
        for _ in rounds:
            self._derive()
            for target in sorted(set(self.d_minus) | set(self.d_plus)):
                if all(_cell(self, *target)):
                    break
            else:
                return
            if not self._purify(*target):
                raise InternalStateError(f"purification stalled on impure border cell {target}")
            self._zigzag()

    def _corner_fill(self) -> None:
        """:func:`corner_fill` in place, below one half."""
        self._derive()
        high_k, high_j = self.m_plus_G, self.m_plus_H
        low_k, low_j = self.m_minus_G, self.m_minus_H
        n, parts = self.n_rows, self._parts
        for k in range(1, self.n_cols + 1):
            for j in range(1, n + 1):
                if k < high_k and j < high_j:
                    pure = 0  # in the high block: all complement
                elif k > low_k and j > low_j:
                    pure = 1  # in the low block: all event
                else:
                    continue
                i = 2 * ((k - 1) * n + j - 1)
                moved = parts[i + 1 - pure]
                if moved:
                    d_a = moved if pure else -moved
                    self._shift(i, -d_a, d_a)

    def _empty_corner_rectangles(self) -> None:
        """:func:`empty_corner_rectangles` in place, below one half."""
        for _ in _rounds(16 * (self.n_cols + self.n_rows) ** 2, "corner evacuation"):
            self._derive()
            move = _find_corner_move(self, self)
            if move is None:
                return
            src, dst, species = move
            i, d = self._index(*src), self._index(*dst)
            ac, a = self._parts[i], self._parts[i + 1]
            self._shift(i, -ac, -a)
            self._shift(d, 0 if species else ac + a, ac + a if species else 0)
