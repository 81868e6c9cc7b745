"""Mass-preserving configuration transformations and the reduction driver.

Every public function here takes a :class:`Configuration` and returns one,
never mutating its input.  When a transformation's hypotheses fail it acts as
the identity and returns the input object unchanged, so callers can detect
"nothing happened" with an ``is`` check.  The three contracts shared by the
toolbox are: the spread probability never decreases, the grid never grows
(except for :func:`transpose`, which swaps the axes, and :func:`augment`,
which deliberately adds one row and one column), and a configuration with
positive mass in both extreme spread corners keeps it.

The module culminates in :func:`reduce`, which drives a configuration with
positive spread probability down to a two-sided reduced form whose spread
probability can be certified, giving up at most ``epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional

from .config import (
    Cell,
    Configuration,
    ConfigError,
    DomainError,
    InternalStateError,
    RationalLike,
    ReduceContradictionError,
    Stats,
    TransformContractError,
    compute_stats,
    normalize,
    rational_to_str,
    replace_cells,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def _rounds(
    cap: int, loop: str, fail: Callable[[str], Exception] = InternalStateError
) -> Iterator[int]:
    """Count the rounds of a loop that must settle within ``cap`` rounds.

    The loop breaks or returns once it settles; asking for round ``cap + 1``
    raises ``fail`` with a message naming ``loop``.  Every fixpoint loop in
    this module counts its rounds here.
    """
    yield from range(1, cap + 1)
    raise fail(f"{loop} exceeded its cap of {cap} rounds")


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformTrace:
    """Record of one transformation application.

    The three booleans re-derive the toolbox contracts from the recorded
    configurations: the spread probability did not drop, neither grid
    dimension grew, and positive mass in both extreme corners was preserved.
    They are observations, not assertions; :func:`transpose` legitimately
    reports ``dims_nonincreasing=False`` on a rectangular grid, and
    :func:`augment` legitimately grows the grid and lowers the spread
    probability within its stated allowance.
    """

    name: str
    params: tuple
    prob_B_before: Fraction
    prob_B_after: Fraction
    dims_before: tuple[int, int]
    dims_after: tuple[int, int]
    prob_b_nondecreasing: bool
    dims_nonincreasing: bool
    corners_preserved: bool


def make_trace(
    name: str, params: tuple, before: Configuration, after: Configuration
) -> TransformTrace:
    """Build a trace entry by recomputing both configurations' statistics."""
    sb = compute_stats(before)
    sa = compute_stats(after)
    return TransformTrace(
        name=name,
        params=tuple(params),
        prob_B_before=sb.prob_B,
        prob_B_after=sa.prob_B,
        dims_before=before.dims,
        dims_after=after.dims,
        prob_b_nondecreasing=sa.prob_B >= sb.prob_B,
        dims_nonincreasing=(
            after.n_cols <= before.n_cols and after.n_rows <= before.n_rows
        ),
        corners_preserved=(
            not all(_corners_occupied(before)) or all(_corners_occupied(after))
        ),
    )


def trace_to_json_dict(trace: TransformTrace) -> dict:
    """Serialize one trace entry with exact rational strings."""

    def enc(value):
        if isinstance(value, Fraction):
            return rational_to_str(value)
        if isinstance(value, (tuple, list)):
            return [enc(v) for v in value]
        return value

    return {
        "name": trace.name,
        "params": enc(trace.params),
        "prob_B_before": rational_to_str(trace.prob_B_before),
        "prob_B_after": rational_to_str(trace.prob_B_after),
        "dims_before": list(trace.dims_before),
        "dims_after": list(trace.dims_after),
        "prob_b_nondecreasing": trace.prob_b_nondecreasing,
        "dims_nonincreasing": trace.dims_nonincreasing,
        "corners_preserved": trace.corners_preserved,
    }


def _side(s: Stats, k: int, j: int) -> int:
    """Which side of the spread region cell ``(k, j)`` (1-based) lies on.

    -1 in the low corner, where the row conditional exceeds the column
    conditional by at least ``1 - delta``; +1 in the high corner, its
    mirror; 0 outside the region.
    """
    if not s.b_mask[k - 1][j - 1]:
        return 0
    return 1 if s.x[k - 1] > s.y[j - 1] else -1


def _corners_occupied(cfg: Configuration) -> tuple[bool, bool]:
    """Whether the low and the high extreme spread corners carry positive mass.

    Configurations with both corners occupied can be canonicalized
    directly, others must be augmented first.
    """
    s = compute_stats(cfg)
    sides = {
        _side(s, k, j)
        for k in range(1, cfg.n_cols + 1)
        for j in range(1, cfg.n_rows + 1)
        if not cfg.cells[k - 1][j - 1].is_empty
    }
    return -1 in sides, 1 in sides


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def transpose(cfg: Configuration) -> Configuration:
    """Swap the roles of columns and rows.

    The spread probability is symmetric in the two partitions, so it is
    unchanged; the dimensions swap.
    """
    cells = tuple(
        tuple(cfg.cells[k][j] for k in range(cfg.n_cols)) for j in range(cfg.n_rows)
    )
    return Configuration(
        delta=cfg.delta, n_cols=cfg.n_rows, n_rows=cfg.n_cols, cells=cells
    )


def complement_reflect(cfg: Configuration) -> Configuration:
    """Swap the tracked event with its complement.

    Every conditional ``v`` becomes ``1 - v``, so both axes reverse to keep
    ascending order, and the two species in every cell trade places.  The
    absolute gap between any column and row conditional is unchanged, hence
    so is the spread probability; the low and high corners trade places.
    """
    cells = tuple(
        tuple(
            Cell(
                a_mass=cfg.cells[cfg.n_cols - 1 - k][cfg.n_rows - 1 - j].ac_mass,
                ac_mass=cfg.cells[cfg.n_cols - 1 - k][cfg.n_rows - 1 - j].a_mass,
            )
            for j in range(cfg.n_rows)
        )
        for k in range(cfg.n_cols)
    )
    return Configuration(
        delta=cfg.delta, n_cols=cfg.n_cols, n_rows=cfg.n_rows, cells=cells
    )


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_columns(cfg: Configuration, k: int) -> Configuration:
    """Merge columns ``k`` and ``k + 1`` when the spread region allows it.

    The merge is legal when in every row the two cells either both lie in the
    spread region on the same side of the row's value, or together carry no
    spread mass; then pooling the columns cannot remove spread mass (the
    merged conditional lies between the two originals, so rows fully inside
    one side of the region stay inside).  Below threshold one half the
    same-side requirement is automatic, since the two sides are more than a
    column's worth of value apart.  If any row violates the condition the
    function is the identity.  An out-of-range index raises
    :class:`ConfigError`.
    """
    if not (1 <= k <= cfg.n_cols - 1):
        raise ConfigError(
            f"cannot merge columns {k} and {k + 1} of a {cfg.n_cols}-column grid"
        )
    s = compute_stats(cfg)
    for j in range(1, cfg.n_rows + 1):
        b1 = s.b_mask[k - 1][j - 1]
        b2 = s.b_mask[k][j - 1]
        if b1 and b2 and (s.x[k - 1] > s.y[j - 1]) == (s.x[k] > s.y[j - 1]):
            continue
        spread_mass = ZERO
        if b1:
            spread_mass += cfg.cells[k - 1][j - 1].mass
        if b2:
            spread_mass += cfg.cells[k][j - 1].mass
        if spread_mass != 0:
            return cfg
    merged = tuple(
        Cell(
            a_mass=cfg.cells[k - 1][j].a_mass + cfg.cells[k][j].a_mass,
            ac_mass=cfg.cells[k - 1][j].ac_mass + cfg.cells[k][j].ac_mass,
        )
        for j in range(cfg.n_rows)
    )
    cells = cfg.cells[: k - 1] + (merged,) + cfg.cells[k + 1 :]
    return Configuration(
        delta=cfg.delta, n_cols=cfg.n_cols - 1, n_rows=cfg.n_rows, cells=cells
    )


def merge_rows(cfg: Configuration, j: int) -> Configuration:
    """Row analogue of :func:`merge_columns`, via transposition."""
    if not (1 <= j <= cfg.n_rows - 1):
        raise ConfigError(
            f"cannot merge rows {j} and {j + 1} of a {cfg.n_rows}-row grid"
        )
    t = transpose(cfg)
    merged = merge_columns(t, j)
    if merged is t:
        return cfg
    return transpose(merged)


def zigzag_normalize(cfg: Configuration) -> Configuration:
    """Sort, then merge until no legal column or row merge remains.

    Each round sweeps both axes: left to right through the columns with
    :func:`merge_columns`, then the same sweep on the transpose for the
    rows.  Rounds repeat until one merges nothing.

    Below threshold one half, the fixpoint's spread region forms two
    staircases with unit steps: in the low corner, column ``k`` pairs exactly
    with rows ``t(k)`` and above where ``t`` increases by one per column; the
    high corner mirrors this.  From one half on the two sides of the region
    can overlap and only strict sorting is guaranteed.  Equal-valued
    neighbours always merge, so the result is strictly sorted on both axes.
    """
    cfg = normalize(cfg)
    for _ in _rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "merging"):
        dims = cfg.dims
        # columns, then rows as the columns of the transpose, then back
        for _axis in range(2):
            k = 1
            while k < cfg.n_cols:
                out = merge_columns(cfg, k)
                if out is cfg:
                    k += 1
                else:
                    cfg = out
            cfg = transpose(cfg)
        if cfg.dims == dims:
            break
    s = compute_stats(cfg)
    problem = (
        _staircase_problem(cfg, s) if cfg.delta < HALF else _sorted_problem(cfg, s)
    )
    if problem is not None:
        raise InternalStateError(f"merge fixpoint is not a staircase: {problem}")
    return cfg


def _sorted_problem(cfg: Configuration, s: Stats) -> Optional[str]:
    """Explain why the configuration is not strictly value-sorted, or ``None``."""
    for i in range(cfg.n_cols - 1):
        if not s.x[i] < s.x[i + 1]:
            return f"columns {i + 1} and {i + 2} are not strictly sorted"
    for i in range(cfg.n_rows - 1):
        if not s.y[i] < s.y[i + 1]:
            return f"rows {i + 1} and {i + 2} are not strictly sorted"
    return None


def _staircase_problem(cfg: Configuration, s: Stats) -> Optional[str]:
    """Explain why the spread region is not in staircase form, or ``None``.

    Checks strict sorting, the dimension identities tying each corner's depth
    to the opposite axis, and the three inequalities that pin every border
    cell to its exact step position.  Only meaningful below threshold one
    half, where the two sides of the region cannot overlap.
    """
    sort_problem = _sorted_problem(cfg, s)
    if sort_problem is not None:
        return sort_problem

    mm_g = s.m_minus_G
    mp_h = s.m_plus_H
    if mm_g > 0:
        if not isinstance(mp_h, int):
            return "low corner exists on one axis only"
        if mm_g != cfg.n_rows - mp_h + 1:
            return (
                f"low corner depth {mm_g} does not match rows {cfg.n_rows} "
                f"and first paired row {mp_h}"
            )
        for k in range(1, mm_g + 1):
            t = mp_h + k - 1
            if _side(s, k, t) != -1:
                return f"column {k} is not paired with row {t}"
            if k + 1 <= cfg.n_cols and _side(s, k + 1, t) == -1:
                return f"column {k + 1} unexpectedly pairs with row {t}"
            if t >= 2 and _side(s, k, t - 1) == -1:
                return f"column {k} unexpectedly pairs with row {t - 1}"

    mm_h = s.m_minus_H
    mp_g = s.m_plus_G
    if mm_h > 0:
        if not isinstance(mp_g, int):
            return "high corner exists on one axis only"
        if mm_h != cfg.n_cols - mp_g + 1:
            return (
                f"high corner depth {mm_h} does not match columns {cfg.n_cols} "
                f"and first paired column {mp_g}"
            )
        for j in range(1, mm_h + 1):
            t = mp_g + j - 1
            if _side(s, t, j) != 1:
                return f"row {j} is not paired with column {t}"
            if j + 1 <= cfg.n_rows and _side(s, t, j + 1) == 1:
                return f"row {j + 1} unexpectedly pairs with column {t}"
            if t >= 2 and _side(s, t - 1, j) == 1:
                return f"row {j} unexpectedly pairs with column {t - 1}"
    return None


# ---------------------------------------------------------------------------
# Border maintenance
# ---------------------------------------------------------------------------


def absorb_empty_border_cell(cfg: Configuration, k: int, i: int) -> Configuration:
    """Fold an empty spread-region cell into a neighbouring line.

    When the cell in column ``k``, row ``i`` lies in the spread region but
    carries no mass, merging its line with a neighbouring line that sits just
    outside the region costs nothing and shrinks the grid.  The neighbour
    merge is still value-checked, so this is the identity whenever no legal
    direction exists.  Out-of-range indices raise :class:`ConfigError`.
    """
    cell = cfg.cell(k, i)
    s = compute_stats(cfg)
    if not s.b_mask[k - 1][i - 1] or cell.mass != 0:
        return cfg
    attempts: list[Callable[[], Configuration]] = []
    if k + 1 <= cfg.n_cols and not s.b_mask[k][i - 1]:
        attempts.append(lambda: merge_columns(cfg, k))
    if k - 1 >= 1 and not s.b_mask[k - 2][i - 1]:
        attempts.append(lambda: merge_columns(cfg, k - 1))
    if i + 1 <= cfg.n_rows and not s.b_mask[k - 1][i]:
        attempts.append(lambda: merge_rows(cfg, i))
    if i - 1 >= 1 and not s.b_mask[k - 1][i - 2]:
        attempts.append(lambda: merge_rows(cfg, i - 1))
    for attempt in attempts:
        out = attempt()
        if out is not cfg:
            return out
    return cfg


def ensure_positive_border(cfg: Configuration) -> Configuration:
    """Normalize and absorb empty border cells until none can be folded.

    Empty border cells that resist absorption are tolerated; downstream code
    treats them as already pure.
    """
    for _ in _rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "border absorption"):
        cfg = zigzag_normalize(cfg)
        s = compute_stats(cfg)
        for k, j in sorted(set(s.d_minus) | set(s.d_plus)):
            if cfg.cell(k, j).mass != 0:
                continue
            out = absorb_empty_border_cell(cfg, k, j)
            if out is not cfg:
                cfg = out
                break
        else:
            return cfg


# ---------------------------------------------------------------------------
# Purification
# ---------------------------------------------------------------------------


def purify_border_cell(cfg: Configuration, k: int, j: int) -> Configuration:
    """Push a border cell toward a pure state without losing spread pairs.

    The cell must be a border cell of the spread region (raises
    :class:`ConfigError` otherwise); a cell that is already pure is left
    alone.  For a cell in the low-corner border the move grows the smaller of
    the two conditional shifts: when the column mass dominates the row mass,
    complement mass turns into event mass, capped so the column conditional
    stays below both its right neighbour and the threshold ``delta`` and the
    row conditional stays below its upper neighbour; otherwise event mass
    turns into complement mass with the mirrored caps, including one that
    keeps the cell's own pair inside the spread region.  High-corner border
    cells are handled by conjugating with :func:`complement_reflect`.

    On strictly sorted configurations the moved amount is positive and the
    result is either pure or exhibits a value tie with a neighbouring line;
    a final check verifies no spread pair was lost and raises
    :class:`TransformContractError` if one was.
    """
    cfg.cell(k, j)
    s = compute_stats(cfg)
    pos = (k, j)
    if pos in s.d_plus:
        ref = complement_reflect(cfg)
        out = purify_border_cell(ref, cfg.n_cols + 1 - k, cfg.n_rows + 1 - j)
        if out is ref:
            return cfg
        return complement_reflect(out)
    if pos not in s.d_minus:
        raise ConfigError(f"cell ({k}, {j}) is not on the border of the spread region")

    cell = cfg.cell(k, j)
    if cell.a_mass == 0 or cell.ac_mass == 0:
        return cfg

    th = 1 - cfg.delta
    pk, qj = s.p[k - 1], s.q[j - 1]
    xk, yj = s.x[k - 1], s.y[j - 1]
    if pk >= qj:
        x_cap = cfg.delta if k == cfg.n_cols else min(s.x[k], cfg.delta)
        y_cap = Fraction(1) if j == cfg.n_rows else min(s.y[j], Fraction(1))
        terms = [pk * (x_cap - xk), qj * (y_cap - yj), cell.ac_mass]
        # From threshold one half on, the rising row value could break a
        # high-side pair in the same row; below one half no such pair exists.
        for c in range(cfg.n_cols):
            if _side(s, c + 1, j) == 1:
                terms.append(qj * (s.x[c] - th - yj))
        alpha = min(terms)
        if alpha <= 0:
            return cfg
        new_cell = Cell(cell.a_mass + alpha, cell.ac_mass - alpha)
    else:
        x_prev = s.x[k - 2] if k >= 2 else ZERO
        terms = [
            pk * (xk - x_prev),
            qj * (yj - th - x_prev),
            cell.a_mass,
        ]
        if j >= 2:
            terms.append(qj * (yj - s.y[j - 2]))
        # Mirror of the cap above: the falling column value could break a
        # high-side pair in the same column from threshold one half on.
        for r in range(cfg.n_rows):
            if _side(s, k, r + 1) == 1:
                terms.append(pk * (xk - th - s.y[r]))
        alpha = min(terms)
        if alpha <= 0:
            return cfg
        new_cell = Cell(cell.a_mass - alpha, cell.ac_mass + alpha)

    out = replace_cells(cfg, {pos: new_cell})
    _check_spread_pairs_kept(cfg, out)
    return out


def _check_spread_pairs_kept(before: Configuration, after: Configuration) -> None:
    """Verify every column/row pair in the spread region stayed there."""
    sb = compute_stats(before)
    sa = compute_stats(after)
    for k in range(before.n_cols):
        for j in range(before.n_rows):
            if sb.b_mask[k][j] and not sa.b_mask[k][j]:
                raise TransformContractError(
                    f"column {k + 1} and row {j + 1} left the spread region "
                    f"(gap {abs(sb.x[k] - sb.y[j])} fell to {abs(sa.x[k] - sa.y[j])})"
                )


def purify_all_borders(cfg: Configuration) -> Configuration:
    """Purify border cells, folding and renormalizing between steps.

    Iterates until every positive border cell is pure.  Each purification
    either settles its cell or creates a value tie that the next
    normalization merges away, so the loop terminates; a generous iteration
    cap guards against bugs.

    Below one half a stalled purification is a hard error.  From one half
    on, a border cell can be pinned by a tight opposite-side pair on its
    own line (the shift caps that protect that pair allow no movement at
    all), so pinned cells are skipped and may stay impure.  The skip list
    is reset whenever an absorption merges lines, since cell coordinates
    shift; merges strictly shrink the grid, so this still terminates.
    """
    # the cap is sized on the grid as given, before absorption shrinks it
    rounds = _rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "border purification")
    cfg = ensure_positive_border(cfg)
    pinned: set[tuple[int, int]] = set()
    for _ in rounds:
        s = compute_stats(cfg)
        for target in sorted(set(s.d_minus) | set(s.d_plus)):
            cell = cfg.cell(*target)
            if target not in pinned and cell.a_mass > 0 and cell.ac_mass > 0:
                break
        else:
            return cfg
        out = purify_border_cell(cfg, *target)
        if out is cfg:
            if cfg.delta < HALF:
                raise InternalStateError(
                    f"purification stalled on impure border cell {target}"
                )
            pinned.add(target)
            continue
        folded = ensure_positive_border(out)
        if folded.dims != cfg.dims:
            pinned.clear()
        cfg = folded


# ---------------------------------------------------------------------------
# Rearranging mass across a rectangle
# ---------------------------------------------------------------------------


def diagonal_swap(
    cfg: Configuration,
    c1: tuple[int, int],
    c2: tuple[int, int],
    complement: bool = False,
) -> Configuration:
    """Exchange mass across a rectangle without touching any conditional.

    ``c1`` must be the upper-left source (smaller column, larger row) and
    ``c2`` the lower-right one; :class:`ConfigError` otherwise.  The common
    transferable amount of the chosen species moves from each source to the
    corner in the same column, so all column and row masses and conditionals
    are bit-for-bit unchanged.  The move only happens when the rectangle's
    spread pattern guarantees the spread probability is preserved: all four
    corners inside the region, or one source line fully inside and the
    opposite line fully outside.  Otherwise, or when nothing can move, this
    is the identity.
    """
    k1, j1 = c1
    k2, j2 = c2
    cfg.cell(k1, j1)
    cfg.cell(k2, j2)
    if not (k1 < k2 and j2 < j1):
        raise ConfigError(
            f"swap sources must run from upper-left to lower-right, got {c1} and {c2}"
        )
    return _diagonal_swap_any(cfg, c1, c2, complement)


def _diagonal_swap_any(
    cfg: Configuration,
    c1: tuple[int, int],
    c2: tuple[int, int],
    complement: bool,
) -> Configuration:
    """Internal swap accepting sources on either diagonal of the rectangle."""
    k1, j1 = c1
    k2, j2 = c2
    if k1 == k2 or j1 == j2:
        raise ConfigError("swap sources must differ in both column and row")
    s = compute_stats(cfg)

    def in_b(k: int, j: int) -> bool:
        return s.b_mask[k - 1][j - 1]

    kl, kr = min(k1, k2), max(k1, k2)
    jb, jt = min(j1, j2), max(j1, j2)
    col_l_in = in_b(kl, jb) and in_b(kl, jt)
    col_l_out = not in_b(kl, jb) and not in_b(kl, jt)
    col_r_in = in_b(kr, jb) and in_b(kr, jt)
    col_r_out = not in_b(kr, jb) and not in_b(kr, jt)
    row_b_in = in_b(kl, jb) and in_b(kr, jb)
    row_b_out = not in_b(kl, jb) and not in_b(kr, jb)
    row_t_in = in_b(kl, jt) and in_b(kr, jt)
    row_t_out = not in_b(kl, jt) and not in_b(kr, jt)
    pattern_ok = (
        (col_l_in and col_r_in)
        or (col_l_in and col_r_out)
        or (col_r_in and col_l_out)
        or (row_t_in and row_b_out)
        or (row_b_in and row_t_out)
    )
    if not pattern_ok:
        return cfg

    cell1 = cfg.cell(k1, j1)
    cell2 = cfg.cell(k2, j2)
    if complement:
        amount = min(cell1.ac_mass, cell2.ac_mass)
    else:
        amount = min(cell1.a_mass, cell2.a_mass)
    if amount == 0:
        return cfg

    t1 = cfg.cell(k1, j2)
    t2 = cfg.cell(k2, j1)
    if complement:
        updates: Mapping[tuple[int, int], Cell] = {
            (k1, j1): Cell(cell1.a_mass, cell1.ac_mass - amount),
            (k2, j2): Cell(cell2.a_mass, cell2.ac_mass - amount),
            (k1, j2): Cell(t1.a_mass, t1.ac_mass + amount),
            (k2, j1): Cell(t2.a_mass, t2.ac_mass + amount),
        }
    else:
        updates = {
            (k1, j1): Cell(cell1.a_mass - amount, cell1.ac_mass),
            (k2, j2): Cell(cell2.a_mass - amount, cell2.ac_mass),
            (k1, j2): Cell(t1.a_mass + amount, t1.ac_mass),
            (k2, j1): Cell(t2.a_mass + amount, t2.ac_mass),
        }
    return replace_cells(cfg, updates)


# ---------------------------------------------------------------------------
# Corner cleanup
# ---------------------------------------------------------------------------


def corner_fill(cfg: Configuration) -> Configuration:
    """Make the two corner blocks pure, outside the active spread bands.

    Below threshold one half, every cell strictly beyond the low corner's
    depth on both axes becomes pure event mass, then every cell strictly
    before the high corner's start on both axes becomes pure complement mass
    (the second rule wins where they overlap).  Values only move away from
    the spread threshold on unaffected lines, so no spread pair is lost.
    From one half on the spread bands cover everything and this is the
    identity.
    """
    if cfg.delta >= HALF:
        return cfg
    s = compute_stats(cfg)
    updates: dict[tuple[int, int], Cell] = {}
    for k in range(1, cfg.n_cols + 1):
        for j in range(1, cfg.n_rows + 1):
            cell = cfg.cell(k, j)
            in_low_block = k > s.m_minus_G and j > s.m_minus_H
            in_high_block = k < s.m_plus_G and j < s.m_plus_H
            if in_high_block:
                new = Cell(ZERO, cell.mass)
            elif in_low_block:
                new = Cell(cell.mass, ZERO)
            else:
                continue
            if new != cell:
                updates[(k, j)] = new
    if not updates:
        return cfg
    return replace_cells(cfg, updates)


def empty_corner_rectangles(cfg: Configuration) -> Configuration:
    """Evacuate non-spread cells from the two corner rectangles.

    Expects a value-sorted configuration with positive mass in both extreme
    corners (:class:`ConfigError` otherwise; augment first).  Each positive
    cell outside the spread region but inside the low corner's rectangle is
    moved whole: to the bottom of its own column as pure complement mass when
    its event share is below ``1 - delta``, otherwise to the last column of
    its own row as pure event mass.  The high rectangle mirrors this.  Either
    way the receiving line's conditional moves away from the threshold, so
    the spread region only grows.  Identity from one half on.
    """
    if not all(_corners_occupied(cfg)):
        raise ConfigError(
            "both extreme spread corners need positive mass; augment the "
            "configuration first"
        )
    if cfg.delta >= HALF:
        return cfg
    for _ in _rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "corner evacuation"):
        s = compute_stats(cfg)
        move = _find_corner_move(cfg, s)
        if move is None:
            return cfg
        src, dst, species = move
        cell = cfg.cell(*src)
        target = cfg.cell(*dst)
        if species == "a":
            new_target = Cell(target.a_mass + cell.mass, target.ac_mass)
        else:
            new_target = Cell(target.a_mass, target.ac_mass + cell.mass)
        cfg = replace_cells(cfg, {src: Cell(), dst: new_target})


def _find_corner_move(
    cfg: Configuration, s: Stats
) -> Optional[tuple[tuple[int, int], tuple[int, int], str]]:
    """Locate the first evacuation move, scanning the low rectangle first."""
    th = 1 - cfg.delta
    if isinstance(s.m_plus_H, int):
        for k in range(1, s.m_minus_G + 1):
            for j in range(s.m_plus_H, cfg.n_rows + 1):
                cell = cfg.cell(k, j)
                if s.b_mask[k - 1][j - 1] or cell.mass == 0:
                    continue
                if cell.a_mass < th * cell.mass:
                    return ((k, j), (k, 1), "ac")
                return ((k, j), (cfg.n_cols, j), "a")
    if isinstance(s.m_plus_G, int):
        for j in range(1, s.m_minus_H + 1):
            for k in range(s.m_plus_G, cfg.n_cols + 1):
                cell = cfg.cell(k, j)
                if s.b_mask[k - 1][j - 1] or cell.mass == 0:
                    continue
                if cell.ac_mass < th * cell.mass:
                    return ((k, j), (k, cfg.n_rows), "a")
                return ((k, j), (1, j), "ac")
    return None


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def canonicalize(cfg: Configuration) -> Configuration:
    """Drive a configuration to its canonical shape.

    Below threshold one half: repeats the cycle purify borders (which
    merges and sorts first), fill corners, re-sort, evacuate corner
    rectangles until a cycle changes nothing.  The sort between filling and
    evacuation restores value order, which corner filling can disturb; at
    the fixpoint it is a no-op.  From one half on the canonical shape is
    just the sorted merge fixpoint, because purification can be pinned and
    merges blocked by opposite-side pairs, and chaining the two can cycle
    forever.

    Requires positive mass in both extreme spread corners
    (:class:`ConfigError` otherwise).
    """
    if not all(_corners_occupied(cfg)):
        raise ConfigError(
            "both extreme spread corners need positive mass; augment the "
            "configuration first"
        )
    if cfg.delta >= HALF:
        cfg = zigzag_normalize(cfg)
    else:
        for _ in _rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "canonicalization"):
            prev = cfg
            cfg = purify_all_borders(cfg)
            cfg = corner_fill(cfg)
            cfg = zigzag_normalize(cfg)
            cfg = empty_corner_rectangles(cfg)
            if cfg == prev:
                break
    if not is_canonical(cfg):
        raise InternalStateError("canonical fixpoint failed its own checks")
    return cfg


def is_canonical(cfg: Configuration) -> bool:
    """Whether a configuration is in canonical shape.

    Below threshold one half: the spread region is a strict staircase, every
    positive border cell is pure, outside the spread region the low-corner
    lines carry no event mass and the high-corner lines no complement mass,
    and the two corner rectangles are empty.  From one half on only strict
    value sorting is demanded, since merges and purifications can both be
    legitimately blocked there by opposite-side pairs.
    """
    try:
        s = compute_stats(cfg)
    except ConfigError:
        return False
    if cfg.delta >= HALF:
        return _sorted_problem(cfg, s) is None
    if _staircase_problem(cfg, s) is not None:
        return False
    for pos in set(s.d_minus) | set(s.d_plus):
        cell = cfg.cell(*pos)
        if cell.a_mass > 0 and cell.ac_mass > 0:
            return False
    for k in range(1, cfg.n_cols + 1):
        for j in range(1, cfg.n_rows + 1):
            if s.b_mask[k - 1][j - 1]:
                continue
            cell = cfg.cell(k, j)
            if k <= s.m_minus_G and cell.a_mass > 0:
                return False
            if j <= s.m_minus_H and cell.a_mass > 0:
                return False
            if k >= s.m_plus_G and cell.ac_mass > 0:
                return False
            if j >= s.m_plus_H and cell.ac_mass > 0:
                return False
            if k <= s.m_minus_G and j >= s.m_plus_H and cell.mass > 0:
                return False
            if k >= s.m_plus_G and j <= s.m_minus_H and cell.mass > 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def augment(cfg: Configuration, epsilon: RationalLike) -> Configuration:
    """Seed both extreme spread corners, giving up at most ``epsilon``.

    Requires positive ``epsilon`` and positive spread probability
    (:class:`DomainError` otherwise).  If both corners already hold positive
    mass this is the identity.  Otherwise the whole configuration is scaled
    down slightly and two slivers are added: a new bottom row of pure
    complement mass attached to the first column and a new last column whose
    single occupied cell, pure event mass in the new row, lands deep in the
    missing corner.  The scaling is chosen so the spread probability drops by
    strictly less than ``epsilon``; this is re-verified exactly and a
    violation raises :class:`TransformContractError`.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    s = compute_stats(cfg)
    if s.prob_B == 0:
        raise DomainError("cannot augment a configuration with zero spread probability")
    low, high = _corners_occupied(cfg)
    if low and high:
        return cfg
    if not low and not high:
        raise InternalStateError(
            "positive spread probability requires at least one occupied corner"
        )
    if high:
        reflected = complement_reflect(cfg)
        out = complement_reflect(_augment_missing_high(reflected, eps))
    else:
        out = _augment_missing_high(cfg, eps)
    s_out = compute_stats(out)
    if not (s_out.prob_B > s.prob_B - eps):
        raise TransformContractError(
            f"augmentation dropped the spread probability from {s.prob_B} "
            f"to {s_out.prob_B}, more than {eps}"
        )
    if not all(_corners_occupied(out)):
        raise TransformContractError("augmentation failed to occupy both corners")
    return out


def _augment_missing_high(cfg: Configuration, eps: Fraction) -> Configuration:
    """Add the slivers when the high corner is the empty one."""
    s = compute_stats(cfg)
    d = cfg.delta
    eps1 = min(HALF, eps / s.prob_B)
    scale = 1 - eps1 / 2 - eps1 * d / 4
    m, n = cfg.n_cols, cfg.n_rows
    grid = [
        [
            Cell(scale * cfg.cells[k][j].a_mass, scale * cfg.cells[k][j].ac_mass)
            for j in range(n)
        ]
        + [Cell()]
        for k in range(m)
    ]
    grid[0][n] = Cell(ZERO, eps1 / 2)
    new_col = [Cell() for _ in range(n + 1)]
    new_col[n] = Cell(eps1 * d / 4, ZERO)
    grid.append(new_col)
    built = Configuration(
        delta=d,
        n_cols=m + 1,
        n_rows=n + 1,
        cells=tuple(tuple(col) for col in grid),
    )
    return normalize(built)


# ---------------------------------------------------------------------------
# Reduction driver
# ---------------------------------------------------------------------------


def reduce(cfg: Configuration, epsilon: RationalLike) -> dict:
    """Reduce a configuration until both spread corners are nearly trivial.

    Requires ``delta < 1/2``, positive ``epsilon`` and positive spread
    probability (:class:`DomainError` otherwise).  Returns ``{"out":
    Configuration, "trace": [TransformTrace, ...]}`` where the output
    satisfies, on both axes, that the corner depth is at most 1, or exactly 2
    with an empty extreme cell, so every column and row meets the spread
    region in at most one positive cell and
    :func:`expert_spread.bounds.certify_upper_bound` applies.  The spread
    probability drops by strictly less than ``epsilon``, all of it during the
    initial augmentation; every other step preserves or grows it.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    if cfg.delta >= HALF:
        raise DomainError(f"reduction requires delta < 1/2, got {cfg.delta}")
    start = normalize(cfg)
    if compute_stats(start).prob_B == 0:
        raise DomainError("cannot reduce a configuration with zero spread probability")
    driver = _ReduceDriver(start, eps)
    out = driver.run()
    return {"out": out, "trace": driver.trace}


def reduced_shape_problem(cfg: Configuration) -> Optional[str]:
    """Check the reduction's two output conditions, literally.

    Returns ``None`` when the low-side count of the column family is at
    most 1, or equals 2 with an empty top-left deep cell, and the
    transposed condition holds for the row family; otherwise a short
    description of the first failure.
    """
    s = compute_stats(cfg)
    if not (
        s.m_minus_G <= 1
        or (s.m_minus_G == 2 and cfg.cell(1, cfg.n_rows).is_empty)
    ):
        return f"column low-side count {s.m_minus_G} with occupied deep cell"
    if not (
        s.m_minus_H <= 1
        or (s.m_minus_H == 2 and cfg.cell(cfg.n_cols, 1).is_empty)
    ):
        return f"row low-side count {s.m_minus_H} with occupied deep cell"
    return None


class _ReduceDriver:
    """Stateful driver alternating attacks on the two spread corners.

    The low corner is attacked directly; the high corner by transposing,
    rerunning the same attack, and transposing back.  Each attack loops
    through the canonical state, from which a scripted chain of swaps and
    purifications either shrinks the corner, proves the canonical state
    impossible (:class:`ReduceContradictionError`, never reached from sound
    inputs), or changes some value structure; in the last case control
    returns to the canonical state, whose re-normalization must strictly
    shrink the grid.  That strict decrease bounds the number of rounds.
    """

    def __init__(self, cfg: Configuration, eps: Fraction) -> None:
        self.cfg = cfg
        self.eps = eps
        self.trace: list[TransformTrace] = []
        self._mask0: Optional[tuple] = None

    # -- bookkeeping --------------------------------------------------------

    def _step(self, name: str, params: tuple, after: Configuration) -> None:
        self.trace.append(make_trace(name, params, self.cfg, after))
        self.cfg = after

    def _stats(self) -> Stats:
        return compute_stats(self.cfg)

    def _fail(self, message: str) -> InternalStateError:
        return InternalStateError(f"{message} (after {len(self.trace)} steps)")

    def _contradiction(self, state: str, extra: Optional[dict] = None) -> None:
        s = self._stats()
        diagnostics = {
            "delta": rational_to_str(self.cfg.delta),
            "dims": list(self.cfg.dims),
            "x": [rational_to_str(v) for v in s.x],
            "y": [rational_to_str(v) for v in s.y],
            "prob_B": rational_to_str(s.prob_B),
            "steps": len(self.trace),
        }
        if extra:
            diagnostics.update(extra)
        raise ReduceContradictionError(state, diagnostics)

    def _jump_now(self) -> bool:
        """True when value structure changed and the attack must restart.

        A value tie between neighbouring lines or any change to the spread
        membership mask means a merge is now available, so re-normalizing
        strictly shrinks the grid.  Swaps never change values; only
        purifications can trigger this.
        """
        s = self._stats()
        tie = any(s.x[i] == s.x[i + 1] for i in range(self.cfg.n_cols - 1)) or any(
            s.y[i] == s.y[i + 1] for i in range(self.cfg.n_rows - 1)
        )
        return tie or s.b_mask != self._mask0

    # -- outer loop ---------------------------------------------------------

    def run(self) -> Configuration:
        initial = self._stats().prob_B
        self._step("augment", (rational_to_str(self.eps),), augment(self.cfg, self.eps))
        m0, n0 = self.cfg.dims
        for _ in _rounds(4 * (m0 + n0 + 2), "reduction", self._fail):
            self._phase()
            self._step("transpose", (), transpose(self.cfg))
            self._phase()
            self._step("transpose", (), transpose(self.cfg))
            if reduced_shape_problem(self.cfg) is None:
                break
        final = self._stats().prob_B
        if not (final > initial - self.eps):
            raise TransformContractError(
                f"reduction dropped the spread probability from {initial} to "
                f"{final}, more than {self.eps}"
            )
        return self.cfg

    def _low_side_done(self, s: Stats) -> bool:
        if s.m_minus_G <= 1:
            return True
        return s.m_minus_G == 2 and self.cfg.cell(1, self.cfg.n_rows).mass == 0

    def _phase(self) -> None:
        prev_sum = None
        for _ in _rounds(self.cfg.n_cols + self.cfg.n_rows + 4, "phase", self._fail):
            self._step("canonicalize", (), canonicalize(self.cfg))
            dsum = self.cfg.n_cols + self.cfg.n_rows
            if prev_sum is not None and dsum >= prev_sum:
                raise self._fail("revisited the canonical state without shrinking")
            prev_sum = dsum
            s = self._stats()
            if self._low_side_done(s):
                return
            self._mask0 = s.b_mask
            if self._attack(s) == "exit":
                return

    # -- one attack from the canonical state --------------------------------

    def _attack(self, s: Stats) -> str:
        mm = s.m_minus_G
        if mm < 2:
            raise self._fail("attack started with a trivial low corner")
        if self._corner_sweep() == "jump":
            return "jump"
        if mm >= 4:
            return self._two_sided_squeeze()
        if self._with_chi(self._corner_sweep) == "jump":
            return "jump"
        if mm == 2:
            if self.cfg.cell(1, self.cfg.n_rows).mass != 0:
                raise self._fail("expected an empty extreme cell at depth two")
            return "exit"
        return self._three_column_attack()

    def _with_chi(self, body: Callable[[], str]) -> str:
        """Run an attack fragment on the reflected-transposed configuration."""
        self._step("complement_reflect", (), complement_reflect(self.cfg))
        self._step("transpose", (), transpose(self.cfg))
        self._mask0 = self._stats().b_mask
        outcome = body()
        self._step("transpose", (), transpose(self.cfg))
        self._step("complement_reflect", (), complement_reflect(self.cfg))
        self._mask0 = self._stats().b_mask
        return outcome

    def _corner_sweep(self) -> str:
        """Concentrate the extreme column's complement mass in the corner.

        Sweeps complement mass out of the top row and into the corner cell of
        the deepest low column via rectangle swaps, then purifies that
        corner.  Returns "jump" when the purification changed value
        structure.  Otherwise the corner ends pure and positive; a drained
        column or a complement-pure corner is impossible from sound input and
        raises :class:`ReduceContradictionError`.  On success the whole top
        row is free of complement mass.
        """
        s = self._stats()
        mm = s.m_minus_G
        mH = self.cfg.n_rows
        mG = self.cfg.n_cols
        if not isinstance(s.m_plus_H, int) or s.m_plus_H < 2:
            raise self._fail("corner sweep needs a two-sided spread region")
        mp_h = s.m_plus_H
        for k in range(1, mm):
            for j in range(1, mp_h):
                after = diagonal_swap(self.cfg, (k, mH), (mm, j), complement=True)
                self._step("diagonal_swap", ((k, mH), (mm, j), "complement"), after)
        after = purify_border_cell(self.cfg, mm, mH)
        self._step("purify_border_cell", (mm, mH), after)
        if self._jump_now():
            return "jump"
        corner = self.cfg.cell(mm, mH)
        if corner.mass == 0 or (corner.a_mass > 0 and corner.ac_mass > 0):
            raise self._fail("corner purification left an unusable corner")
        if all(self.cfg.cell(mm, j).ac_mass == 0 for j in range(1, mH)):
            self._contradiction(
                "deep-column-complement-exhausted",
                {"column": mm, "corner_a": rational_to_str(corner.a_mass)},
            )
        if any(self.cfg.cell(k, mH).ac_mass > 0 for k in range(1, mm)):
            raise self._fail("sweep dichotomy failed on the top row")
        if corner.a_mass == 0:
            self._contradiction(
                "corner-pure-complement", {"column": mm, "row": mH}
            )
        if any(self.cfg.cell(k, mH).ac_mass > 0 for k in range(1, mG + 1)):
            raise self._fail("top row still carries complement mass after the sweep")
        return "ok"

    def _three_column_attack(self) -> str:
        """Attack a depth-three low corner through its middle border cell."""
        mH = self.cfg.n_rows
        mid = self.cfg.cell(2, mH - 1)
        if mid.mass == 0 or (mid.a_mass > 0 and mid.ac_mass > 0):
            raise self._fail("middle border cell is not pure and positive")
        if mid.a_mass == 0:
            return self._middle_cell_attack()
        return self._with_chi(self._middle_cell_attack)

    def _middle_cell_attack(self) -> str:
        """Core of the depth-three attack, for a complement-pure middle cell.

        First concentrates event mass of the next-to-top row into the middle
        cell, then purifies it; if it turns pure in the event, a complement
        sweep through the first column sets up a second purification.  Every
        purification that changes value structure jumps; each remaining
        terminal is impossible from sound input.
        """
        s = self._stats()
        mG, mH = self.cfg.dims
        mm = s.m_minus_G
        if mm != 3 or not isinstance(s.m_plus_H, int) or s.m_plus_H != mH - 2:
            raise self._fail("depth-three attack entered with the wrong shape")
        mp_h = s.m_plus_H
        for k in range(4, mG + 1):
            after = diagonal_swap(self.cfg, (2, mH), (k, mH - 1), complement=False)
            self._step("diagonal_swap", ((2, mH), (k, mH - 1), "plain"), after)
        a_top = self.cfg.cell(2, mH).a_mass
        a_mid = self.cfg.cell(2, mH - 1).a_mass
        if a_top > 0:
            if any(self.cfg.cell(k, mH - 1).a_mass > 0 for k in range(4, mG + 1)):
                raise self._fail("event sweep dichotomy failed on the middle row")
            if a_mid == 0:
                self._contradiction(
                    "middle-row-event-exhausted",
                    {"a_top": rational_to_str(a_top)},
                )
        after = purify_border_cell(self.cfg, 2, mH - 1)
        self._step("purify_border_cell", (2, mH - 1), after)
        if self._jump_now():
            return "jump"
        mid = self.cfg.cell(2, mH - 1)
        if mid.mass == 0 or (mid.a_mass > 0 and mid.ac_mass > 0):
            raise self._fail("middle cell purification failed")
        if mid.a_mass == 0:
            self._contradiction("middle-cell-pure-complement", {})
        for j in range(1, mp_h):
            after = diagonal_swap(self.cfg, (1, mp_h + 1), (2, j), complement=True)
            self._step("diagonal_swap", ((1, mp_h + 1), (2, j), "complement"), after)
        ac_first = self.cfg.cell(1, mp_h + 1).ac_mass
        if ac_first > 0:
            if any(self.cfg.cell(2, j).ac_mass > 0 for j in range(1, mp_h)):
                raise self._fail("complement sweep dichotomy failed on column two")
        after = purify_border_cell(self.cfg, 2, mH - 1)
        self._step("purify_border_cell", (2, mH - 1), after)
        if self._jump_now():
            return "jump"
        mid = self.cfg.cell(2, mH - 1)
        if mid.a_mass > 0 and mid.ac_mass > 0:
            raise self._fail("second purification left the middle cell impure")
        s2 = self._stats()
        extra = {
            "middle_a": rational_to_str(mid.a_mass),
            "middle_ac": rational_to_str(mid.ac_mass),
            "ac_first": rational_to_str(ac_first),
        }
        if ac_first == 0:
            self._contradiction("first-column-complement-exhausted", extra)
        if s2.x[1] == 1:
            self._contradiction("second-column-saturated", extra)
        self._contradiction("depth-three-deadlock", extra)
        return "jump"  # unreachable; _contradiction always raises

    # -- depth four and beyond ----------------------------------------------

    def _two_sided_squeeze(self) -> str:
        """Attack a deep low corner from both ends of its staircase.

        Establishes pure footholds at both ends (directly, then through the
        reflected-transposed view), locates the staircase's purity
        transition, and drains the two adjacent lines into the single cell
        just above the transition, which then must simultaneously dominate
        its column in complement mass and its row in event mass: impossible.
        Any value-structure change along the way jumps back instead.
        """
        if self._foothold_sweep() == "jump":
            return "jump"
        if self._with_chi(self._chi_foothold) == "jump":
            return "jump"
        s = self._stats()
        mG, mH = self.cfg.dims
        mm = s.m_minus_G
        if not isinstance(s.m_plus_H, int):
            raise self._fail("two-sided squeeze lost the spread region")
        mp_h = s.m_plus_H
        kinds = []
        for i in range(1, mm + 1):
            cell = self.cfg.cell(i, mp_h + i - 1)
            if cell.mass == 0 or (cell.a_mass > 0 and cell.ac_mass > 0):
                raise self._fail("staircase cell is not pure and positive")
            kinds.append("a" if cell.ac_mass == 0 else "ac")
        if kinds[0] != "ac" or kinds[1] != "a" or kinds[-2] != "ac" or kinds[-1] != "a":
            raise self._fail("staircase footholds are not in the expected state")
        trans = next(
            (
                i
                for i in range(2, mm - 1)
                if kinds[i - 1] == "a" and kinds[i] == "ac"
            ),
            None,
        )
        if trans is None:
            raise self._fail("no purity transition on the staircase")
        k = trans
        j = mp_h + k - 1

        for j1 in range(1, mH + 1):
            if j1 in (j, j + 1):
                continue
            after = _diagonal_swap_any(
                self.cfg, (k + 1, j + 1), (k, j1), complement=True
            )
            self._step(
                "diagonal_swap", ((k + 1, j + 1), (k, j1), "complement"), after
            )
        upper = self.cfg.cell(k + 1, j + 1)
        if upper.ac_mass == 0:
            if upper.a_mass != 0:
                raise self._fail("transition cell should be complement-pure")
            after = absorb_empty_border_cell(self.cfg, k + 1, j + 1)
            if after is self.cfg:
                raise self._fail("guaranteed absorption failed above the transition")
            self._step("absorb_empty_border_cell", (k + 1, j + 1), after)
            return "jump"
        if any(
            self.cfg.cell(k, j1).ac_mass > 0
            for j1 in range(1, mH + 1)
            if j1 not in (j, j + 1)
        ):
            raise self._fail("complement drain dichotomy failed")

        for c in range(1, mG + 1):
            if c in (k, k + 1):
                continue
            after = _diagonal_swap_any(self.cfg, (k, j), (c, j + 1), complement=False)
            self._step("diagonal_swap", ((k, j), (c, j + 1), "plain"), after)
        lower = self.cfg.cell(k, j)
        if lower.a_mass == 0:
            if lower.ac_mass != 0:
                raise self._fail("transition cell should be event-pure")
            after = absorb_empty_border_cell(self.cfg, k, j)
            if after is self.cfg:
                raise self._fail("guaranteed absorption failed at the transition")
            self._step("absorb_empty_border_cell", (k, j), after)
            return "jump"
        if any(
            self.cfg.cell(c, j + 1).a_mass > 0
            for c in range(1, mG + 1)
            if c not in (k, k + 1)
        ):
            raise self._fail("event drain dichotomy failed")

        self._overloaded_cell_contradiction(k, j + 1)
        return "jump"  # unreachable; the line above always raises

    def _foothold_sweep(self) -> str:
        """Like the corner sweep, one line in from the corner on both axes."""
        s = self._stats()
        mG, mH = self.cfg.dims
        mm = s.m_minus_G
        if mm < 4 or not isinstance(s.m_plus_H, int):
            raise self._fail("two-sided sweep expects a deep low corner")
        mp_h = s.m_plus_H
        for k in range(1, mm - 1):
            for j in range(1, mp_h):
                after = diagonal_swap(
                    self.cfg, (k, mH - 1), (mm - 1, j), complement=True
                )
                self._step(
                    "diagonal_swap", ((k, mH - 1), (mm - 1, j), "complement"), after
                )
        after = purify_border_cell(self.cfg, mm - 1, mH - 1)
        self._step("purify_border_cell", (mm - 1, mH - 1), after)
        if self._jump_now():
            return "jump"
        near = self.cfg.cell(mm - 1, mH - 1)
        if near.mass == 0 or (near.a_mass > 0 and near.ac_mass > 0):
            raise self._fail("near-corner purification failed")
        if near.ac_mass == 0:
            if all(self.cfg.cell(mm - 1, j).ac_mass == 0 for j in range(1, mp_h)):
                self._contradiction(
                    "near-column-complement-exhausted", {"column": mm - 1}
                )
            if any(self.cfg.cell(k, mH - 1).ac_mass > 0 for k in range(1, mm - 1)):
                raise self._fail("near sweep dichotomy failed")
            raise self._fail("expected a row-value tie after the near sweep")
        if self.cfg.cell(mm, mH).ac_mass != 0 or near.a_mass != 0:
            raise self._fail("footholds are not in the expected pure state")
        return "footholds"

    def _chi_foothold(self) -> str:
        """Foothold preparation in the reflected-transposed view.

        The corner sweep has not run in this view yet, so run it first to
        make the top row complement-free, then the near-corner sweep.
        """
        outcome = self._corner_sweep()
        if outcome == "jump":
            return "jump"
        return self._foothold_sweep()

    def _overloaded_cell_contradiction(self, k: int, j: int) -> None:
        """Verify and report the impossible cell ending a two-sided squeeze.

        The cell must hold its entire column's complement mass and its entire
        row's event mass.  Its complement share is then at least one minus
        its column conditional, which sits below ``delta``, and its event
        share at least its row conditional, which sits above ``1 - delta``:
        two shares summing beyond one.
        """
        s = self._stats()
        cell = self.cfg.cell(k, j)
        if cell.mass == 0:
            raise self._fail("overloaded cell lost its mass")
        col_ac = sum(
            (self.cfg.cell(k, r).ac_mass for r in range(1, self.cfg.n_rows + 1)),
            ZERO,
        )
        row_a = sum(
            (self.cfg.cell(c, j).a_mass for c in range(1, self.cfg.n_cols + 1)),
            ZERO,
        )
        if col_ac != cell.ac_mass or row_a != cell.a_mass:
            raise self._fail("overloaded cell does not dominate its lines")
        if s.x[k - 1] > self.cfg.delta or s.y[j - 1] < 1 - self.cfg.delta:
            raise self._fail("overloaded cell's lines left their value bands")
        share_ac = cell.ac_mass / cell.mass
        share_a = cell.a_mass / cell.mass
        if share_ac < 1 - s.x[k - 1] or share_a < s.y[j - 1]:
            raise self._fail("overloaded cell's shares fell short of their bounds")
        if share_ac + share_a <= 1:
            raise self._fail("overloaded cell is not actually impossible")
        self._contradiction(
            "transition-cell-overloaded",
            {
                "cell": [k, j],
                "complement_share": rational_to_str(share_ac),
                "event_share": rational_to_str(share_a),
            },
        )
