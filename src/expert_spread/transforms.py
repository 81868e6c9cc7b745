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

The transforms read configurations on their integer lattice and run their
moves on the working grid of :mod:`expert_spread._grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NoReturn, Optional

from ._grid import (
    _a,
    _ac,
    _below_half,
    _cell,
    _Grid,
    _loaded,
    _mass,
    _rational,
    _rounds,
    _sorted_problem,
    _staircase_problem,
    _transposed,
)
from .config import (
    Configuration,
    ConfigError,
    DomainError,
    InternalStateError,
    RationalLike,
    ReduceContradictionError,
    TransformContractError,
    _grid_stats,
    _GridStats,
    _as_fraction,
    _normalized,
    compute_stats,
    normalize,
    rational_to_str,
)


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
    """Build a trace entry from both configurations' memoised statistics."""
    gb = _grid_stats(before)
    ga = _grid_stats(after)
    return TransformTrace(
        name=name,
        params=tuple(params),
        prob_B_before=gb.prob_B,
        prob_B_after=ga.prob_B,
        dims_before=before.dims,
        dims_after=after.dims,
        prob_b_nondecreasing=ga.b_num * gb.den >= gb.b_num * ga.den,
        dims_nonincreasing=(
            after.n_cols <= before.n_cols and after.n_rows <= before.n_rows
        ),
        corners_preserved=not all(gb.occupied) or all(ga.occupied),
    )


def trace_to_json_dict(trace: TransformTrace) -> dict:
    """Serialize one trace entry with exact rational strings.

    The reduce driver records its parameters as integers and strings, the
    swap's cells as ``(k, j)`` tuples, so only the tuples need converting.
    """

    def enc(value):
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


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def transpose(cfg: Configuration) -> Configuration:
    """Swap the roles of columns and rows.

    The spread probability is symmetric in the two partitions, so it is
    unchanged; the dimensions swap.
    """
    n = cfg.n_rows
    return Configuration._from_parts(
        cfg.delta, n, cfg.n_cols, _transposed(cfg._parts, n), cfg._den
    )


def complement_reflect(cfg: Configuration) -> Configuration:
    """Swap the tracked event with its complement.

    Every conditional ``v`` becomes ``1 - v``, so both axes reverse to keep
    ascending order, and the two species in every cell trade places.  The
    absolute gap between any column and row conditional is unchanged, hence
    so is the spread probability; the low and high corners trade places.
    Both at once are the reversal of the integer tuple.
    """
    return Configuration._from_parts(
        cfg.delta, cfg.n_cols, cfg.n_rows, cfg._parts[::-1], cfg._den
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
    grid = _Grid(cfg, _grid_stats(cfg))
    grid._merge_columns(k)
    return grid._result(cfg)


def merge_rows(cfg: Configuration, j: int) -> Configuration:
    """Row analogue of :func:`merge_columns`.

    Transposing turns the side of every cell into its opposite, so the
    same-side test of :func:`merge_columns` on the transpose is the same
    test on the rows here.
    """
    if not (1 <= j <= cfg.n_rows - 1):
        raise ConfigError(
            f"cannot merge rows {j} and {j + 1} of a {cfg.n_rows}-row grid"
        )
    grid = _Grid(cfg, _grid_stats(cfg))
    grid._merge_rows(j)
    return grid._result(cfg)


def zigzag_normalize(cfg: Configuration) -> Configuration:
    """Sort, then merge until no legal column or row merge remains.

    Each round sweeps both axes: left to right through the columns as
    :func:`merge_columns` would, then bottom to top through the rows as
    :func:`merge_rows` would.  Rounds repeat until one merges nothing.

    The sort and the sweep run in place on a working grid of the input's
    integers: a merge adds the two lines' sums and recomputes the sides of
    the merged line alone, and each merge is decided by the same test as
    the public merges.  So a call builds one configuration, the result, and
    none when nothing moved, so the input itself comes back; it adds no
    memo entry for the grids in between.  The result's memo entry is
    marked as a fixpoint once its shape is checked.  Only a strictly sorted
    input, the only kind that can carry the mark, is looked up in the memo
    (the test reads the input's line sums), so an unsorted one leaves no
    memo entry behind; an input that carries the mark comes back at once.

    Below threshold one half, the fixpoint's spread region forms two
    staircases with unit steps: in the low corner, column ``k`` pairs exactly
    with rows ``t(k)`` and above where ``t`` increases by one per column; the
    high corner mirrors this.  From one half on the two sides of the region
    can overlap and only strict sorting is guaranteed.  Equal-valued
    neighbours always merge, so the result is strictly sorted on both axes.
    """
    grid = _loaded(cfg)
    grid._zigzag()
    out = grid._result(cfg)
    _grid_stats(out).fixpoint = True
    return out


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
    mass = _mass(cfg, k, i)
    b = _grid_stats(cfg).b_mask
    if not b[k - 1][i - 1] or mass != 0:
        return cfg
    attempts: list[Callable[[], Configuration]] = []
    if k + 1 <= cfg.n_cols and not b[k][i - 1]:
        attempts.append(lambda: merge_columns(cfg, k))
    if k - 1 >= 1 and not b[k - 2][i - 1]:
        attempts.append(lambda: merge_columns(cfg, k - 1))
    if i + 1 <= cfg.n_rows and not b[k - 1][i]:
        attempts.append(lambda: merge_rows(cfg, i))
    if i - 1 >= 1 and not b[k - 1][i - 2]:
        attempts.append(lambda: merge_rows(cfg, i - 1))
    for attempt in attempts:
        out = attempt()
        if out is not cfg:
            return out
    return cfg


# ---------------------------------------------------------------------------
# Purification
# ---------------------------------------------------------------------------


def purify_border_cell(cfg: Configuration, k: int, j: int) -> Configuration:
    """Push a border cell toward a pure state without losing spread pairs.

    The cell must be a border cell of the spread region (raises
    :class:`ConfigError` otherwise); a cell that is already pure is left
    alone.  For a cell in the low-corner border whose column mass is at
    least its row mass, the move grows the smaller of the two conditional
    shifts: complement mass turns into event mass, capped so the column
    conditional stays below both its right neighbour and the threshold
    ``delta`` and the row conditional stays below its upper neighbour.
    The other cells are handled by conjugation, so they meet the same caps
    mirrored: a high-corner border cell through :func:`complement_reflect`,
    and a low one whose row mass is the larger through
    ``transpose(complement_reflect(.))``, where its row is a column.  Both
    maps are applied to a working grid in place and undone after the move,
    so a call builds one configuration, the result.

    On strictly sorted configurations the moved amount is positive and the
    result is either pure or exhibits a value tie with a neighbouring line;
    a final check verifies no spread pair was lost and raises
    :class:`TransformContractError` if one was.

    Each cap is a rational number of the configuration's mass units, kept
    as an integer pair ``(num, den)``; the moved amount is the least of
    them, and the grid is rescaled by its denominator to move it.
    """
    cfg._index(k, j)
    grid = _Grid(cfg, _grid_stats(cfg))
    grid._purify(k, j)
    return grid._result(cfg)


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
    is reset whenever a normalization merges lines, since cell coordinates
    shift; merges strictly shrink the grid, so this still terminates.

    The purifications and normalizations run in place on one working grid,
    as in :func:`zigzag_normalize`, and only the result is built.
    """
    grid = _loaded(cfg)
    grid._purify_all_borders()
    return grid._result(cfg)


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
    cfg._index(k1, j1)
    cfg._index(k2, j2)
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
    b = _grid_stats(cfg).b_mask

    def in_b(k: int, j: int) -> bool:
        return b[k - 1][j - 1]

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

    # the moved species sits at a cell's index, or one further for the event
    species = 0 if complement else 1
    src1, src2 = cfg._index(k1, j1) + species, cfg._index(k2, j2) + species
    amount = min(cfg._parts[src1], cfg._parts[src2])
    if amount == 0:
        return cfg
    parts = list(cfg._parts)
    parts[src1] -= amount
    parts[src2] -= amount
    parts[cfg._index(k1, j2) + species] += amount
    parts[cfg._index(k2, j1) + species] += amount
    return Configuration._from_parts(cfg.delta, cfg.n_cols, cfg.n_rows, parts, cfg._den)


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
    identity.  The cells are changed in place on a working grid, each
    move adding to its two lines' sums, and only the result is built.
    """
    if not _below_half(cfg):
        return cfg
    grid = _Grid(cfg, _grid_stats(cfg))
    grid._corner_fill()
    return grid._result(cfg)


def empty_corner_rectangles(cfg: Configuration) -> Configuration:
    """Evacuate non-spread cells from the two corner rectangles.

    Expects a value-sorted configuration with positive mass in both extreme
    corners (:class:`ConfigError` otherwise; augment first).  Each positive
    cell outside the spread region but inside the low corner's rectangle is
    moved whole: to the bottom of its own column as pure complement mass when
    its event share is below ``1 - delta``, otherwise to the last column of
    its own row as pure event mass.  The high rectangle mirrors this.  Either
    way the receiving line's conditional moves away from the threshold, so
    the spread region only grows.  Identity from one half on.  The moves
    are made in place on a working grid and only the result is built.
    """
    g = _grid_stats(cfg)
    _need_both_corners(g)
    grid = _Grid(cfg, g)
    grid._empty_corner_rectangles()
    return grid._result(cfg)


def _need_both_corners(g: _GridStats) -> None:
    """Refuse a memo entry whose spread region is empty on one side."""
    if not all(g.occupied):
        raise ConfigError(
            "both extreme spread corners need positive mass; augment the "
            "configuration first"
        )


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

    The cycle runs on one working grid, loaded from the input's memo entry:
    the four transforms' in-place forms keep its line sums, sides and
    derived fields current, and its move count tells a cycle that changed
    nothing, so no configuration is built or looked up between steps.  A
    cycle whose moves lead back to the grid it started from changes nothing
    either.  One configuration is built, the result, and none when the
    input comes back; its memo entry is marked as a merge fixpoint, as
    :func:`zigzag_normalize` marks its results.

    Requires positive mass in both extreme spread corners
    (:class:`ConfigError` otherwise).  The cycle's steps keep both corners
    occupied, and the grid is not checked for it between steps: the result
    must pass :func:`is_canonical` and still hold mass on both sides of its
    spread region, both read from its memo entry, or
    :class:`InternalStateError` is raised.
    """
    g = _grid_stats(cfg)
    _need_both_corners(g)
    if not _below_half(cfg):
        cfg = zigzag_normalize(cfg)
    else:
        grid = _Grid(cfg, g)
        for _ in _rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "canonicalization"):
            moves, start = grid.moves, (grid.n_cols, grid._den, tuple(grid._parts))
            grid._purify_all_borders()
            grid._corner_fill()
            grid._zigzag()
            grid._empty_corner_rectangles()
            if grid.moves == moves or grid._same(start):
                break
        cfg = grid._result(cfg)
        if grid.settled:
            # swept with nothing moved since, as zigzag_normalize marks its results
            _grid_stats(cfg).fixpoint = True
    # is_canonical leaves the result's memo entry behind, so its corners
    # cost no second kernel run
    if not is_canonical(cfg) or not all(_grid_stats(cfg).occupied):
        raise InternalStateError("canonical fixpoint failed its own checks")
    return cfg


def is_canonical(cfg: Configuration) -> bool:
    """Whether a configuration is in canonical shape.

    Below threshold one half: the spread region is a strict staircase, every
    positive border cell is pure, and outside the spread region the
    low-valued lines (columns up to ``m_minus_G``, rows up to
    ``m_minus_H``) carry no event mass and the high-valued ones (columns
    from ``m_plus_G``, rows from ``m_plus_H``) no complement mass.  So the
    two corner rectangles are empty: each of their cells lies on a
    low-valued and a high-valued line.  From one half on only strict value
    sorting is demanded, since merges and purifications can both be
    legitimately blocked there by opposite-side pairs.
    """
    try:
        g = _grid_stats(cfg)
    except ConfigError:
        return False
    if not _below_half(cfg):
        return _sorted_problem(g.col_t, g.col_a, g.row_t, g.row_a) is None
    if _staircase_problem(cfg, g) is not None:
        return False
    for pos in set(g.d_minus) | set(g.d_plus):
        if all(_cell(cfg, *pos)):
            return False
    parts, i = cfg._parts, 0
    for k, col in enumerate(g.b_mask, 1):
        low_col, high_col = k <= g.m_minus_G, k >= g.m_plus_G
        for j, in_region in enumerate(col, 1):
            if not in_region:
                if parts[i + 1] and (low_col or j <= g.m_minus_H):
                    return False
                if parts[i] and (high_col or j >= g.m_plus_H):
                    return False
            i += 2
    return True


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def augment(cfg: Configuration, epsilon: RationalLike) -> Configuration:
    """Seed both extreme spread corners, giving up at most ``epsilon``.

    Requires positive ``epsilon``, read as
    :func:`~expert_spread.config.parse_rational` reads it (a float or a
    boolean raises :class:`ConfigError`), and positive spread probability
    (:class:`DomainError` otherwise).  If both corners already hold positive
    mass this is the identity.  Otherwise the whole configuration is scaled
    down slightly and two slivers are added: a new bottom row of pure
    complement mass attached to the first column and a new last column whose
    single occupied cell, pure event mass in the new row, lands deep in the
    missing corner.  The scaling is chosen so the spread probability drops by
    strictly less than ``epsilon``; this is re-verified exactly and a
    violation raises :class:`TransformContractError`.
    """
    eps = _as_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    g = _grid_stats(cfg)
    if g.b_num == 0:
        raise DomainError("cannot augment a configuration with zero spread probability")
    low, high = g.occupied
    if low and high:
        return cfg
    if not low and not high:
        raise InternalStateError(
            "positive spread probability requires at least one occupied corner"
        )
    out = _augmented(cfg, g, eps, high)
    g_out = _grid_stats(out)
    if not (g_out.prob_B > g.prob_B - eps):
        raise TransformContractError(
            f"augmentation dropped the spread probability from {g.prob_B} "
            f"to {g_out.prob_B}, more than {eps}"
        )
    if not all(g_out.occupied):
        raise TransformContractError("augmentation failed to occupy both corners")
    return out


def _augmented(
    cfg: Configuration, g: _GridStats, eps: Fraction, low_missing: bool
) -> Configuration:
    """Add the slivers to the empty corner of ``cfg``; ``g`` is its memo entry.

    They are laid out for an empty high corner: with
    ``e = min(1/2, eps / prob_B)`` the grid is scaled by
    ``1 - e/2 - e*delta/4``, the new row's cell in the first column gets
    complement mass ``e/2`` and the new corner cell event mass
    ``e*delta/4``.  All three share the denominator ``4*dd*e_den`` (for
    ``delta = dn/dd``), so the new grid is integral over ``den`` times it.
    An empty low corner is the high one of the complement reflection, a
    reversal of the integer list: the slivers are laid out there and the
    list is reversed back.  Reflecting commutes with the stable value sort,
    and ``prob_B`` and the denominator are the reflection's too, so the
    list is sorted once and built once.
    """
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    e_num, e_den = eps.numerator * g.den, eps.denominator * g.b_num
    if 2 * e_num > e_den:
        e_num, e_den = 1, 2
    whole = 4 * dd * e_den
    scale = whole - 2 * dd * e_num - dn * e_num
    m, n, den = cfg.n_cols, cfg.n_rows, g.den
    parts = cfg._parts[::-1] if low_missing else cfg._parts
    out: list[int] = []
    for k in range(m):
        out += [v * scale for v in parts[2 * k * n : 2 * (k + 1) * n]]
        out += (2 * dd * e_num * den if k == 0 else 0, 0)
    out += [0] * (2 * n) + [0, dn * e_num * den]
    if low_missing:
        out.reverse()
    return _normalized(cfg.delta, m + 1, n + 1, out, den * whole)


# ---------------------------------------------------------------------------
# Reduction driver
# ---------------------------------------------------------------------------


def reduce(cfg: Configuration, epsilon: RationalLike) -> dict:
    """Reduce a configuration until both spread corners are nearly trivial.

    Requires ``delta < 1/2``, positive ``epsilon`` (read as in
    :func:`augment`) and positive spread probability (:class:`DomainError`
    otherwise).  Returns ``{"out": Configuration, "trace":
    [TransformTrace, ...]}`` where the output satisfies, on both axes, that
    the corner depth is at most 1, or exactly 2 with an empty extreme cell,
    so every column and row meets the spread region in at most one positive
    cell and :func:`expert_spread.bounds.certify_upper_bound` applies.  The spread
    probability drops by strictly less than ``epsilon``, all of it during the
    initial augmentation; every other step preserves or grows it.
    """
    eps = _as_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    if not _below_half(cfg):
        raise DomainError(f"reduction requires delta < 1/2, got {cfg.delta}")
    start = normalize(cfg)
    if _grid_stats(start).b_num == 0:
        raise DomainError("cannot reduce a configuration with zero spread probability")
    driver = _ReduceDriver(start, eps)
    out = driver.run()
    return {"out": out, "trace": driver.trace}


def _low_side_done(cfg: Configuration, g: _GridStats) -> bool:
    """The column clause of :func:`reduced_shape_problem`, read from ``g``."""
    return g.m_minus_G <= 1 or (g.m_minus_G == 2 and _mass(cfg, 1, cfg.n_rows) == 0)


def reduced_shape_problem(cfg: Configuration) -> Optional[str]:
    """Check the reduction's two output conditions, literally.

    Returns ``None`` when the low-side count of the column family is at
    most 1, or equals 2 with an empty top-left deep cell, and the
    transposed condition holds for the row family; otherwise a short
    description of the first failure.
    """
    g = _grid_stats(cfg)
    if not _low_side_done(cfg, g):
        return f"column low-side count {g.m_minus_G} with occupied deep cell"
    if not (
        g.m_minus_H <= 1
        or (g.m_minus_H == 2 and _mass(cfg, cfg.n_cols, 1) == 0)
    ):
        return f"row low-side count {g.m_minus_H} with occupied deep cell"
    return None


class _Jump(Exception):
    """Value structure changed: the attack restarts from the canonical state."""


class _ReduceDriver:
    """Stateful driver alternating attacks on the two spread corners.

    The low corner is attacked directly; the high corner by transposing,
    rerunning the same attack, and transposing back.  Each attack loops
    through the canonical state, from which a scripted chain of swaps and
    purifications either shrinks the corner, proves the canonical state
    impossible (:class:`ReduceContradictionError`, never reached from sound
    inputs), or changes some value structure.  In the last case the move
    that changed it raises :class:`_Jump`, which only :meth:`_phase` catches:
    control returns to the canonical state, whose re-normalization must
    strictly shrink the grid.  That strict decrease bounds the number of
    rounds.
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

    def _stats(self) -> _GridStats:
        return _grid_stats(self.cfg)

    def _fail(self, message: str) -> InternalStateError:
        return InternalStateError(f"{message} (after {len(self.trace)} steps)")

    def _contradiction(
        self, state: str, extra: Optional[dict] = None
    ) -> ReduceContradictionError:
        s = compute_stats(self.cfg)
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
        return ReduceContradictionError(state, diagnostics)

    def _jump_now(self) -> bool:
        """True when value structure changed and the attack must restart.

        A value tie between neighbouring lines or any change to the spread
        membership mask means a merge is now available, so re-normalizing
        strictly shrinks the grid.  Swaps never change values; only
        purifications can trigger this.
        """
        g = self._stats()
        tie = any(
            a[i] * t[i + 1] == a[i + 1] * t[i]
            for a, t in ((g.col_a, g.col_t), (g.row_a, g.row_t))
            for i in range(len(t) - 1)
        )
        return tie or g.b_mask != self._mask0

    # -- the moves of an attack ---------------------------------------------

    def _swap(self, c1: tuple[int, int], c2: tuple[int, int], complement: bool) -> None:
        after = _diagonal_swap_any(self.cfg, c1, c2, complement)
        self._step("diagonal_swap", (c1, c2, "complement" if complement else "plain"), after)

    def _purify(self, k: int, j: int) -> tuple[int, int]:
        """Purify border cell ``(k, j)``; raise :class:`_Jump` or return its ``(a, ac)``."""
        self._step("purify_border_cell", (k, j), purify_border_cell(self.cfg, k, j))
        if self._jump_now():
            raise _Jump
        return _cell(self.cfg, k, j)

    def _absorb(self, k: int, j: int, where: str) -> NoReturn:
        """Fold the empty border cell ``(k, j)``, which must merge, and restart."""
        after = absorb_empty_border_cell(self.cfg, k, j)
        if after is self.cfg:
            raise self._fail(f"guaranteed absorption failed {where}")
        self._step("absorb_empty_border_cell", (k, j), after)
        raise _Jump

    # -- outer loop ---------------------------------------------------------

    def run(self) -> Configuration:
        initial = self._stats().prob_B
        self._step("augment", (rational_to_str(self.eps),), augment(self.cfg, self.eps))
        m0, n0 = self.cfg.dims
        for _ in _rounds(4 * (m0 + n0 + 2), "reduction", self._fail):
            self._phase()
            before = self.cfg
            self._step("transpose", (), transpose(before))
            flipped = self.cfg
            if _grid_stats(before).fixpoint:
                # the transpose of a merge fixpoint is one: the merge test
                # and the staircase check are symmetric in the two axes
                self._stats().fixpoint = True
            self._phase()
            # transposing is an involution, so an untouched transpose goes
            # back to the configuration before it
            self._step("transpose", (), before if self.cfg is flipped else transpose(self.cfg))
            if reduced_shape_problem(self.cfg) is None:
                break
        final = self._stats().prob_B
        if not (final > initial - self.eps):
            raise TransformContractError(
                f"reduction dropped the spread probability from {initial} to "
                f"{final}, more than {self.eps}"
            )
        return self.cfg

    def _phase(self) -> None:
        prev_sum = None
        for _ in _rounds(self.cfg.n_cols + self.cfg.n_rows + 4, "phase", self._fail):
            self._step("canonicalize", (), canonicalize(self.cfg))
            dsum = self.cfg.n_cols + self.cfg.n_rows
            if prev_sum is not None and dsum >= prev_sum:
                raise self._fail("revisited the canonical state without shrinking")
            prev_sum = dsum
            s = self._stats()
            if _low_side_done(self.cfg, s):
                return
            self._mask0 = s.b_mask
            try:
                self._attack(s)
            except _Jump:
                continue
            return

    # -- one attack from the canonical state --------------------------------

    def _attack(self, s: _GridStats) -> None:
        """Attack the low corner; return only when it exits at depth two.

        Every deeper attack ends in :class:`_Jump` or a contradiction: from
        depth four on the staircase is squeezed from both ends, and at depth
        three the attack goes on through the middle border cell, in the view
        where that cell is complement-pure.
        """
        mm = s.m_minus_G
        if mm < 2:
            raise self._fail("attack started with a trivial low corner")
        self._corner_sweep()
        if mm >= 4:
            self._two_sided_squeeze()
        self._with_chi(self._corner_sweep)
        mH = self.cfg.n_rows
        if mm == 2:
            if _mass(self.cfg, 1, mH) != 0:
                raise self._fail("expected an empty extreme cell at depth two")
            return
        mid_a, mid_ac = _cell(self.cfg, 2, mH - 1)
        if mid_a + mid_ac == 0 or (mid_a > 0 and mid_ac > 0):
            raise self._fail("middle border cell is not pure and positive")
        if mid_a == 0:
            self._middle_cell_attack()
        else:
            self._with_chi(self._middle_cell_attack)

    def _with_chi(self, body: Callable[[], None]) -> None:
        """Run an attack fragment on the reflected-transposed configuration."""
        self._step("complement_reflect", (), complement_reflect(self.cfg))
        self._step("transpose", (), transpose(self.cfg))
        self._mask0 = self._stats().b_mask
        try:
            body()
        finally:
            self._step("transpose", (), transpose(self.cfg))
            self._step("complement_reflect", (), complement_reflect(self.cfg))
            self._mask0 = self._stats().b_mask

    def _corner_sweep(self) -> None:
        """Concentrate the extreme column's complement mass in the corner.

        Sweeps complement mass out of the top row and into the corner cell of
        the deepest low column via rectangle swaps, then purifies that
        corner.  Unless the purification jumps, the corner ends pure and
        positive; a drained column or a complement-pure corner is impossible
        from sound input and raises :class:`ReduceContradictionError`.  On
        success the whole top row is free of complement mass.
        """
        s = self._stats()
        mm = s.m_minus_G
        mG, mH = self.cfg.dims
        if not isinstance(s.m_plus_H, int) or s.m_plus_H < 2:
            raise self._fail("corner sweep needs a two-sided spread region")
        for k in range(1, mm):
            for j in range(1, s.m_plus_H):
                self._swap((k, mH), (mm, j), complement=True)
        corner_a, corner_ac = self._purify(mm, mH)
        if corner_a + corner_ac == 0 or (corner_a > 0 and corner_ac > 0):
            raise self._fail("corner purification left an unusable corner")
        if all(_ac(self.cfg, mm, j) == 0 for j in range(1, mH)):
            raise self._contradiction(
                "deep-column-complement-exhausted",
                {"column": mm, "corner_a": _rational(self.cfg, corner_a)},
            )
        if any(_ac(self.cfg, k, mH) > 0 for k in range(1, mm)):
            raise self._fail("sweep dichotomy failed on the top row")
        if corner_a == 0:
            raise self._contradiction(
                "corner-pure-complement", {"column": mm, "row": mH}
            )
        if any(_ac(self.cfg, k, mH) > 0 for k in range(1, mG + 1)):
            raise self._fail("top row still carries complement mass after the sweep")

    def _middle_cell_attack(self) -> NoReturn:
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
            self._swap((2, mH), (k, mH - 1), complement=False)
        a_top = _a(self.cfg, 2, mH)
        a_mid = _a(self.cfg, 2, mH - 1)
        if a_top > 0:
            if any(_a(self.cfg, k, mH - 1) > 0 for k in range(4, mG + 1)):
                raise self._fail("event sweep dichotomy failed on the middle row")
            if a_mid == 0:
                raise self._contradiction(
                    "middle-row-event-exhausted",
                    {"a_top": _rational(self.cfg, a_top)},
                )
        mid_a, mid_ac = self._purify(2, mH - 1)
        if mid_a + mid_ac == 0 or (mid_a > 0 and mid_ac > 0):
            raise self._fail("middle cell purification failed")
        if mid_a == 0:
            raise self._contradiction("middle-cell-pure-complement", {})
        for j in range(1, mp_h):
            self._swap((1, mp_h + 1), (2, j), complement=True)
        # kept as text: the purification below may change the denominator
        ac_first = _ac(self.cfg, 1, mp_h + 1)
        ac_first_text = _rational(self.cfg, ac_first)
        if ac_first > 0:
            if any(_ac(self.cfg, 2, j) > 0 for j in range(1, mp_h)):
                raise self._fail("complement sweep dichotomy failed on column two")
        mid_a, mid_ac = self._purify(2, mH - 1)
        if mid_a > 0 and mid_ac > 0:
            raise self._fail("second purification left the middle cell impure")
        s2 = self._stats()
        extra = {
            "middle_a": _rational(self.cfg, mid_a),
            "middle_ac": _rational(self.cfg, mid_ac),
            "ac_first": ac_first_text,
        }
        if ac_first == 0:
            raise self._contradiction("first-column-complement-exhausted", extra)
        if s2.col_a[1] == s2.col_t[1]:
            raise self._contradiction("second-column-saturated", extra)
        raise self._contradiction("depth-three-deadlock", extra)

    # -- depth four and beyond ----------------------------------------------

    def _two_sided_squeeze(self) -> NoReturn:
        """Attack a deep low corner from both ends of its staircase.

        Establishes pure footholds at both ends (directly, then through the
        reflected-transposed view), locates the staircase's purity
        transition, and drains the two adjacent lines into the single cell
        just above the transition, which then must simultaneously dominate
        its column in complement mass and its row in event mass: impossible.
        Any value-structure change along the way jumps back instead.
        """
        self._foothold_sweep()
        self._with_chi(self._chi_foothold)
        s = self._stats()
        mG, mH = self.cfg.dims
        mm = s.m_minus_G
        if not isinstance(s.m_plus_H, int):
            raise self._fail("two-sided squeeze lost the spread region")
        mp_h = s.m_plus_H
        kinds = []
        for i in range(1, mm + 1):
            a, ac = _cell(self.cfg, i, mp_h + i - 1)
            if a + ac == 0 or (a > 0 and ac > 0):
                raise self._fail("staircase cell is not pure and positive")
            kinds.append("a" if ac == 0 else "ac")
        if kinds[0] != "ac" or kinds[1] != "a" or kinds[-2] != "ac" or kinds[-1] != "a":
            raise self._fail("staircase footholds are not in the expected state")
        k = next((i for i in range(2, mm - 1) if kinds[i - 1 : i + 1] == ["a", "ac"]), None)
        if k is None:
            raise self._fail("no purity transition on the staircase")
        j = mp_h + k - 1

        for j1 in range(1, mH + 1):
            if j1 not in (j, j + 1):
                self._swap((k + 1, j + 1), (k, j1), complement=True)
        upper_a, upper_ac = _cell(self.cfg, k + 1, j + 1)
        if upper_ac == 0:
            if upper_a != 0:
                raise self._fail("transition cell should be complement-pure")
            self._absorb(k + 1, j + 1, "above the transition")
        if any(
            _ac(self.cfg, k, j1) > 0
            for j1 in range(1, mH + 1)
            if j1 not in (j, j + 1)
        ):
            raise self._fail("complement drain dichotomy failed")

        for c in range(1, mG + 1):
            if c not in (k, k + 1):
                self._swap((k, j), (c, j + 1), complement=False)
        lower_a, lower_ac = _cell(self.cfg, k, j)
        if lower_a == 0:
            if lower_ac != 0:
                raise self._fail("transition cell should be event-pure")
            self._absorb(k, j, "at the transition")
        if any(
            _a(self.cfg, c, j + 1) > 0
            for c in range(1, mG + 1)
            if c not in (k, k + 1)
        ):
            raise self._fail("event drain dichotomy failed")

        raise self._overloaded_cell_contradiction(k, j + 1)

    def _foothold_sweep(self) -> None:
        """Like the corner sweep, one line in from the corner on both axes."""
        s = self._stats()
        mG, mH = self.cfg.dims
        mm = s.m_minus_G
        if mm < 4 or not isinstance(s.m_plus_H, int):
            raise self._fail("two-sided sweep expects a deep low corner")
        mp_h = s.m_plus_H
        for k in range(1, mm - 1):
            for j in range(1, mp_h):
                self._swap((k, mH - 1), (mm - 1, j), complement=True)
        near_a, near_ac = self._purify(mm - 1, mH - 1)
        if near_a + near_ac == 0 or (near_a > 0 and near_ac > 0):
            raise self._fail("near-corner purification failed")
        if near_ac == 0:
            if all(_ac(self.cfg, mm - 1, j) == 0 for j in range(1, mp_h)):
                raise self._contradiction(
                    "near-column-complement-exhausted", {"column": mm - 1}
                )
            if any(_ac(self.cfg, k, mH - 1) > 0 for k in range(1, mm - 1)):
                raise self._fail("near sweep dichotomy failed")
            raise self._fail("expected a row-value tie after the near sweep")
        if _ac(self.cfg, mm, mH) != 0 or near_a != 0:
            raise self._fail("footholds are not in the expected pure state")

    def _chi_foothold(self) -> None:
        """Foothold preparation in the reflected-transposed view.

        The corner sweep has not run in this view yet, so run it first to
        make the top row complement-free, then the near-corner sweep.
        """
        self._corner_sweep()
        self._foothold_sweep()

    def _overloaded_cell_contradiction(
        self, k: int, j: int
    ) -> ReduceContradictionError:
        """Verify the impossible cell ending a two-sided squeeze; return its error.

        The cell must hold its entire column's complement mass and its entire
        row's event mass.  Its complement share is then at least one minus
        its column conditional, which sits at or below ``delta``, and its
        event share at least its row conditional, which sits at or above
        ``1 - delta``: below one half, two shares summing beyond one.  A
        failed premise raises :class:`InternalStateError`; once the premises
        hold, the contradiction is returned for the caller to raise.
        """
        g = self._stats()
        a, ac = _cell(self.cfg, k, j)
        mass = a + ac
        if mass == 0:
            raise self._fail("overloaded cell lost its mass")
        col_ac = sum(_ac(self.cfg, k, r) for r in range(1, self.cfg.n_rows + 1))
        row_a = sum(_a(self.cfg, c, j) for c in range(1, self.cfg.n_cols + 1))
        if col_ac != ac or row_a != a:
            raise self._fail("overloaded cell does not dominate its lines")
        dn, dd = self.cfg.delta.numerator, self.cfg.delta.denominator
        P, A = g.col_t[k - 1], g.col_a[k - 1]
        Q, R = g.row_t[j - 1], g.row_a[j - 1]
        # x = A/P above delta, or y = R/Q below 1 - delta
        if A * dd > dn * P or R * dd < (dd - dn) * Q:
            raise self._fail("overloaded cell's lines left their value bands")
        return self._contradiction(
            "transition-cell-overloaded",
            {
                "cell": [k, j],
                "complement_share": rational_to_str(Fraction(ac, mass)),
                "event_share": rational_to_str(Fraction(a, mass)),
            },
        )
