"""The integer transforms against their earlier rational bodies.

The ``ref_*`` functions below are the transformation bodies as they were
written on ``Fraction`` cells, before the transforms moved onto the integer
lattice. They build every result through the public ``Configuration``
constructor from ``Cell`` objects and read the public ``Stats``, so they
share no code with the integer versions beyond ``compute_stats``, which
``tests/test_kernel.py`` checks against its own reference.

Every grid compared with the references also goes through the contract
battery, ``contract_violations``, which the seeded transformation fuzzer
runs on its own random configurations.
"""

import copy
import gc
import io
import random
from fractions import Fraction
from typing import Callable

import pytest

from expert_spread import _grid, transforms
from expert_spread.bounds import certify_upper_bound, extremal_config, lambda_sharp
from expert_spread.config import (
    Cell,
    Configuration,
    ConfigError,
    DomainError,
    ExpertSpreadError,
    InternalStateError,
    TransformContractError,
    _grid_stats,
    compute_stats,
    config_from_json_dict,
    config_to_json_dict,
    dump_config,
    load_config,
    make_configuration,
    normalize,
)
from expert_spread.discretize import grid_coarsen, to_configuration
from expert_spread.search import hill_climb

from test_discretize import random_space
from test_transforms import random_configuration, seeded_reduce_inputs

F = Fraction
ZERO = F(0)
HALF = F(1, 2)

DELTAS = (
    F(1, 10), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(9, 20),
    F(1, 2), F(3, 5), F(2, 3), F(3, 4),
)


# ---------------------------------------------------------------------------
# Rational reference bodies
# ---------------------------------------------------------------------------


def ref_config(delta, cells):
    return Configuration(
        delta=delta,
        n_cols=len(cells),
        n_rows=len(cells[0]),
        cells=tuple(tuple(col) for col in cells),
    )


def ref_replace_cells(cfg, updates):
    grid = [list(col) for col in cfg.cells]
    for (k, j), cell in updates.items():
        if not (1 <= k <= cfg.n_cols and 1 <= j <= cfg.n_rows):
            raise ConfigError(
                f"cell index ({k},{j}) out of range for a {cfg.n_cols}x{cfg.n_rows} grid"
            )
        grid[k - 1][j - 1] = cell
    return ref_config(cfg.delta, grid)


def ref_normalize(cfg):
    cells = cfg.cells
    p = [sum((c.mass for c in col), ZERO) for col in cells]
    q = [sum((cells[k][j].mass for k in range(cfg.n_cols)), ZERO) for j in range(cfg.n_rows)]
    x = {k: sum((c.a_mass for c in cells[k]), ZERO) / p[k] for k in range(cfg.n_cols) if p[k]}
    y = {
        j: sum((cells[k][j].a_mass for k in range(cfg.n_cols)), ZERO) / q[j]
        for j in range(cfg.n_rows)
        if q[j]
    }
    col_order = sorted(x, key=x.get)
    row_order = sorted(y, key=y.get)
    return ref_config(cfg.delta, [[cells[k][j] for j in row_order] for k in col_order])


def ref_side(s, k, j):
    if not s.b_mask[k - 1][j - 1]:
        return 0
    return 1 if s.x[k - 1] > s.y[j - 1] else -1


def ref_corners_occupied(cfg):
    s = compute_stats(cfg)
    sides = {
        ref_side(s, k, j)
        for k in range(1, cfg.n_cols + 1)
        for j in range(1, cfg.n_rows + 1)
        if not cfg.cells[k - 1][j - 1].is_empty
    }
    return -1 in sides, 1 in sides


def ref_transpose(cfg):
    cells = tuple(
        tuple(cfg.cells[k][j] for k in range(cfg.n_cols)) for j in range(cfg.n_rows)
    )
    return Configuration(
        delta=cfg.delta, n_cols=cfg.n_rows, n_rows=cfg.n_cols, cells=cells
    )


def ref_complement_reflect(cfg):
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


def ref_merge_columns(cfg, k):
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


def ref_merge_rows(cfg, j):
    if not (1 <= j <= cfg.n_rows - 1):
        raise ConfigError(
            f"cannot merge rows {j} and {j + 1} of a {cfg.n_rows}-row grid"
        )
    t = ref_transpose(cfg)
    merged = ref_merge_columns(t, j)
    if merged is t:
        return cfg
    return ref_transpose(merged)


def ref_absorb_empty_border_cell(cfg, k, i):
    cell = cfg.cell(k, i)
    s = compute_stats(cfg)
    if not s.b_mask[k - 1][i - 1] or cell.mass != 0:
        return cfg
    attempts: list[Callable[[], Configuration]] = []
    if k + 1 <= cfg.n_cols and not s.b_mask[k][i - 1]:
        attempts.append(lambda: ref_merge_columns(cfg, k))
    if k - 1 >= 1 and not s.b_mask[k - 2][i - 1]:
        attempts.append(lambda: ref_merge_columns(cfg, k - 1))
    if i + 1 <= cfg.n_rows and not s.b_mask[k - 1][i]:
        attempts.append(lambda: ref_merge_rows(cfg, i))
    if i - 1 >= 1 and not s.b_mask[k - 1][i - 2]:
        attempts.append(lambda: ref_merge_rows(cfg, i - 1))
    for attempt in attempts:
        out = attempt()
        if out is not cfg:
            return out
    return cfg


def ref_purify_border_cell(cfg, k, j):
    cfg.cell(k, j)
    s = compute_stats(cfg)
    pos = (k, j)
    if pos in s.d_plus:
        ref = ref_complement_reflect(cfg)
        out = ref_purify_border_cell(ref, cfg.n_cols + 1 - k, cfg.n_rows + 1 - j)
        if out is ref:
            return cfg
        return ref_complement_reflect(out)
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
        for c in range(cfg.n_cols):
            if ref_side(s, c + 1, j) == 1:
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
        for r in range(cfg.n_rows):
            if ref_side(s, k, r + 1) == 1:
                terms.append(pk * (xk - th - s.y[r]))
        alpha = min(terms)
        if alpha <= 0:
            return cfg
        new_cell = Cell(cell.a_mass - alpha, cell.ac_mass + alpha)

    out = ref_replace_cells(cfg, {pos: new_cell})
    ref_check_spread_pairs_kept(cfg, out)
    return out


def ref_check_spread_pairs_kept(before, after):
    sb = compute_stats(before)
    sa = compute_stats(after)
    for k in range(before.n_cols):
        for j in range(before.n_rows):
            if sb.b_mask[k][j] and not sa.b_mask[k][j]:
                raise TransformContractError(
                    f"column {k + 1} and row {j + 1} left the spread region "
                    f"(gap {abs(sb.x[k] - sb.y[j])} fell to {abs(sa.x[k] - sa.y[j])})"
                )


def ref_diagonal_swap_any(cfg, c1, c2, complement):
    k1, j1 = c1
    k2, j2 = c2
    if k1 == k2 or j1 == j2:
        raise ConfigError("swap sources must differ in both column and row")
    s = compute_stats(cfg)

    def in_b(k, j):
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
        updates = {
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
    return ref_replace_cells(cfg, updates)


def ref_diagonal_swap(cfg, c1, c2, complement=False):
    k1, j1 = c1
    k2, j2 = c2
    cfg.cell(k1, j1)
    cfg.cell(k2, j2)
    if not (k1 < k2 and j2 < j1):
        raise ConfigError(
            f"swap sources must run from upper-left to lower-right, got {c1} and {c2}"
        )
    return ref_diagonal_swap_any(cfg, c1, c2, complement)


def ref_corner_fill(cfg):
    if cfg.delta >= HALF:
        return cfg
    s = compute_stats(cfg)
    updates = {}
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
    return ref_replace_cells(cfg, updates)


def ref_find_corner_move(cfg, s):
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


def ref_empty_corner_rectangles(cfg):
    if not all(ref_corners_occupied(cfg)):
        raise ConfigError(
            "both extreme spread corners need positive mass; augment the "
            "configuration first"
        )
    if cfg.delta >= HALF:
        return cfg
    for _ in transforms._rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "corner evacuation"):
        s = compute_stats(cfg)
        move = ref_find_corner_move(cfg, s)
        if move is None:
            return cfg
        src, dst, species = move
        cell = cfg.cell(*src)
        target = cfg.cell(*dst)
        if species == "a":
            new_target = Cell(target.a_mass + cell.mass, target.ac_mass)
        else:
            new_target = Cell(target.a_mass, target.ac_mass + cell.mass)
        cfg = ref_replace_cells(cfg, {src: Cell(), dst: new_target})


def ref_augment_missing_high(cfg, eps):
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
    return ref_normalize(ref_config(d, grid))


def ref_augment(cfg, epsilon):
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    s = compute_stats(cfg)
    if s.prob_B == 0:
        raise DomainError("cannot augment a configuration with zero spread probability")
    low, high = ref_corners_occupied(cfg)
    if low and high:
        return cfg
    if not low and not high:
        raise InternalStateError(
            "positive spread probability requires at least one occupied corner"
        )
    if high:
        reflected = ref_complement_reflect(cfg)
        out = ref_complement_reflect(ref_augment_missing_high(reflected, eps))
    else:
        out = ref_augment_missing_high(cfg, eps)
    s_out = compute_stats(out)
    if not (s_out.prob_B > s.prob_B - eps):
        raise TransformContractError(
            f"augmentation dropped the spread probability from {s.prob_B} "
            f"to {s_out.prob_B}, more than {eps}"
        )
    if not all(ref_corners_occupied(out)):
        raise TransformContractError("augmentation failed to occupy both corners")
    return out


def ref_sorted_problem(cfg, s):
    for i in range(cfg.n_cols - 1):
        if not s.x[i] < s.x[i + 1]:
            return f"columns {i + 1} and {i + 2} are not strictly sorted"
    for i in range(cfg.n_rows - 1):
        if not s.y[i] < s.y[i + 1]:
            return f"rows {i + 1} and {i + 2} are not strictly sorted"
    return None


def ref_staircase_problem(cfg, s):
    sort_problem = ref_sorted_problem(cfg, s)
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
            if ref_side(s, k, t) != -1:
                return f"column {k} is not paired with row {t}"
            if k + 1 <= cfg.n_cols and ref_side(s, k + 1, t) == -1:
                return f"column {k + 1} unexpectedly pairs with row {t}"
            if t >= 2 and ref_side(s, k, t - 1) == -1:
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
            if ref_side(s, t, j) != 1:
                return f"row {j} is not paired with column {t}"
            if j + 1 <= cfg.n_rows and ref_side(s, t, j + 1) == 1:
                return f"row {j + 1} unexpectedly pairs with column {t}"
            if t >= 2 and ref_side(s, t - 1, j) == 1:
                return f"row {j} unexpectedly pairs with column {t - 1}"
    return None


def ref_zigzag_normalize(cfg):
    cfg = ref_normalize(cfg)
    while True:
        dims = cfg.dims
        for merge, axis in ((ref_merge_columns, 0), (ref_merge_rows, 1)):
            i = 1
            while i < cfg.dims[axis]:
                out = merge(cfg, i)
                if out is cfg:
                    i += 1
                else:
                    cfg = out
        if cfg.dims == dims:
            break
    s = compute_stats(cfg)
    problem = (
        ref_staircase_problem(cfg, s) if cfg.delta < HALF else ref_sorted_problem(cfg, s)
    )
    if problem is not None:
        raise InternalStateError(f"merge fixpoint is not a staircase: {problem}")
    return cfg


def ref_is_canonical(cfg):
    try:
        s = compute_stats(cfg)
    except ConfigError:
        return False
    if cfg.delta >= HALF:
        return ref_sorted_problem(cfg, s) is None
    if ref_staircase_problem(cfg, s) is not None:
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
# Differential runs
# ---------------------------------------------------------------------------


def random_grid(rng, delta, max_dim=6):
    """A seeded normalized grid; zero lines of the draw are dropped.

    One draw in three uses a small multiple of the threshold's denominator,
    so values landing exactly on a threshold are common.
    """
    n_cols, n_rows = rng.randint(1, max_dim), rng.randint(1, max_dim)
    denom = rng.choice(
        (2 ** rng.randint(3, 10), rng.randint(2, 400), delta.denominator * rng.randint(1, 6))
    )
    cuts = sorted(rng.randint(0, denom) for _ in range(2 * n_cols * n_rows - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    masses = {
        (k + 1, j + 1): (F(parts[2 * (k * n_rows + j) + 1], denom), F(parts[2 * (k * n_rows + j)], denom))
        for k in range(n_cols)
        for j in range(n_rows)
    }
    return normalize(make_configuration(delta, n_cols, n_rows, masses))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ExpertSpreadError as exc:
        return (type(exc), str(exc))


def same(cfg, new, ref, *args):
    """Both versions agree, including on returning their input itself.

    ``new`` is a function or the name of one in ``transforms``.
    """
    got = outcome(getattr(transforms, new) if isinstance(new, str) else new, cfg, *args)
    want = outcome(ref, cfg, *args)
    assert got == want, (new, args, cfg)
    assert (got is cfg) == (want is cfg), (new, args, cfg)
    return got


def same_zigzag(cfg, counts):
    """``zigzag_normalize`` against its rational body, then on its own output.

    The output is given back as an equal copy twice: with the fixpoint mark
    in the memo, and after the memo is cleared.  A fixpoint comes back as
    the copy itself either way.
    """
    want = outcome(ref_zigzag_normalize, cfg)
    got = outcome(transforms.zigzag_normalize, cfg)
    assert got == want, cfg
    if not isinstance(want, Configuration):
        return
    counts["zigzag merged" if want.dims != normalize(cfg).dims else "zigzag kept"] += 1
    for clear in (False, True):
        if clear:
            compute_stats.cache_clear()
        again = copy.copy(want)
        assert again is not want
        assert outcome(transforms.zigzag_normalize, again) is again, cfg


# ---------------------------------------------------------------------------
# Contract battery
# ---------------------------------------------------------------------------


def contract_violations(cfg, rng):
    """The toolbox's contracts on ``cfg``, every breach as a trace.

    Each transform's result must keep the spread probability from dropping,
    the grid from growing, and both corners occupied if they were; the two
    symmetries keep the spread probability exactly, and transpose may swap
    the dimensions. The diagonal swap keeps every line value, augment loses
    less than its epsilon and fills both corners, canonicalize reaches a
    canonical shape, and reduce reaches its exit shape with a certificate
    between its value and the sharp bound. ``rng`` draws the merge indices,
    the swap and the epsilon, in that order. An error from the toolbox ends
    the battery as one ``battery:<error class>`` trace.
    """
    out = []
    make_trace = transforms.make_trace

    def judge(name, params, after, *, dims_exempt=False, prob_exact=False):
        trace = make_trace(name, params, cfg, after)
        ok = trace.prob_b_nondecreasing and trace.corners_preserved
        if not dims_exempt:
            ok = ok and trace.dims_nonincreasing
        if prob_exact:
            ok = ok and trace.prob_B_after == trace.prob_B_before
        if not ok:
            out.append(trace)

    try:
        m, n = cfg.n_cols, cfg.n_rows
        judge("transpose", (), transforms.transpose(cfg), dims_exempt=True, prob_exact=True)
        judge("complement_reflect", (), transforms.complement_reflect(cfg), prob_exact=True)
        if m >= 2:
            k = rng.randint(1, m - 1)
            judge("merge_columns", (k,), transforms.merge_columns(cfg, k))
        if n >= 2:
            j = rng.randint(1, n - 1)
            judge("merge_rows", (j,), transforms.merge_rows(cfg, j))
        s = compute_stats(cfg)
        for k, j in list(s.d_minus) + list(s.d_plus):
            i = cfg._index(k, j)
            if cfg._parts[i] and cfg._parts[i + 1]:
                judge("purify_border_cell", (k, j), transforms.purify_border_cell(cfg, k, j))
                break

        if m >= 2 and n >= 2:
            k1 = rng.randint(1, m - 1)
            k2 = rng.randint(k1 + 1, m)
            j2 = rng.randint(1, n - 1)
            j1 = rng.randint(j2 + 1, n)
            complement = rng.random() < 0.5
            after = transforms.diagonal_swap(cfg, (k1, j1), (k2, j2), complement)
            sa = compute_stats(after)
            vectors_kept = (sa.prob_B, sa.x, sa.y, sa.p, sa.q) == (s.prob_B, s.x, s.y, s.p, s.q)
            corners_ok = cfg.delta >= HALF or (
                not all(_grid_stats(cfg).occupied) or all(_grid_stats(after).occupied)
            )
            if not (vectors_kept and corners_ok):
                out.append(make_trace("diagonal_swap", (k1, j1, k2, j2, complement), cfg, after))

        judge("zigzag_normalize", (), transforms.zigzag_normalize(cfg))
        judge("purify_all_borders", (), transforms.purify_all_borders(cfg))
        judge("corner_fill", (), transforms.corner_fill(cfg))
        if s.prob_B == 0:
            return out
        eps = F(1, rng.choice((50, 100, 1000)))
        grown = transforms.augment(cfg, eps)
        trace = make_trace("augment", (eps,), cfg, grown)
        if trace.prob_B_after <= trace.prob_B_before - eps or not all(_grid_stats(grown).occupied):
            out.append(trace)
        else:
            canon = transforms.canonicalize(grown)
            trace = make_trace("canonicalize", (), grown, canon)
            if not (
                trace.prob_b_nondecreasing
                and trace.corners_preserved
                and transforms.is_canonical(canon)
            ):
                out.append(trace)

        if cfg.delta >= HALF:
            return out
        eps = F(1, 1000)
        reduced = transforms.reduce(cfg, eps)["out"]
        problem = transforms.reduced_shape_problem(reduced)
        after = compute_stats(reduced).prob_B
        if not (
            after > s.prob_B - eps
            and problem is None
            and after <= certify_upper_bound(reduced) <= lambda_sharp(cfg.delta)
        ):
            out.append(make_trace("reduce", (eps, problem), cfg, reduced))
    except ExpertSpreadError as exc:
        out.append(make_trace(f"battery:{type(exc).__name__}", (str(exc),), cfg, cfg))
    return out


def fuzz_transforms(delta, n_configs, seed):
    """The battery on the extremal witness, then on seeded random grids.

    One ``Random`` draws each configuration and then the battery's moves on
    it, so the configurations depend on the moves drawn before them. Returns
    every violation found, in order.
    """
    rng = random.Random(seed)
    violations = contract_violations(extremal_config(delta), rng)
    for _ in range(n_configs - 1):
        violations += contract_violations(random_configuration(rng, delta), rng)
    return violations


def exercise(cfg, rng, counts, seed):
    """Every transform on ``cfg``, compared with its rational body.

    The contract battery runs first, on its own ``Random`` seeded with
    ``seed``, so it leaves the draws from ``rng`` as they are.
    """
    assert contract_violations(cfg, random.Random(seed)) == [], (seed, cfg)
    m, n = cfg.n_cols, cfg.n_rows
    same(cfg, "transpose", ref_transpose)
    same(cfg, "complement_reflect", ref_complement_reflect)
    same(cfg, normalize, ref_normalize)
    # the grid as drawn, and unsorted with an empty column in front, which
    # the merge sweep reaches only through normalize
    same_zigzag(cfg, counts)
    same_zigzag(ref_config(cfg.delta, [[Cell()] * n] + list(cfg.cells[::-1])), counts)
    if compute_stats(cfg).prob_B == 0 and rng.random() < 0.75:
        counts["no spread"] += 1
        return
    for k in range(1, m):
        same(cfg, "merge_columns", ref_merge_columns, k)
    for j in range(1, n):
        same(cfg, "merge_rows", ref_merge_rows, j)
    s = compute_stats(cfg)
    # the driver's restart test, and the evacuation's move search on its own
    tie = any(s.x[i] == s.x[i + 1] for i in range(m - 1)) or any(
        s.y[j] == s.y[j + 1] for j in range(n - 1)
    )
    driver = transforms._ReduceDriver(cfg, F(1, 1000))
    driver._mask0 = s.b_mask
    assert driver._jump_now() == tie
    counts["tie" if tie else "no tie"] += 1
    move = ref_find_corner_move(cfg, s)
    got = _grid._find_corner_move(cfg, _grid_stats(cfg))
    assert got == (move and (move[0], move[1], ("ac", "a").index(move[2])))
    counts["corner move" if move else "no corner move"] += 1
    assert transforms._staircase_problem(cfg, _grid_stats(cfg)) == ref_staircase_problem(cfg, s)
    assert transforms.is_canonical(cfg) == ref_is_canonical(cfg)
    for k, j in sorted(set(s.d_minus) | set(s.d_plus)):
        out = same(cfg, "purify_border_cell", ref_purify_border_cell, k, j)
        counts["purify moved" if out is not cfg else "purify kept"] += 1
        # purify_all_borders merges what a purification leaves tied, which
        # can take a second round of sweeps
        same_zigzag(out, counts)
        same(cfg, "absorb_empty_border_cell", ref_absorb_empty_border_cell, k, j)
    k, j = rng.randint(1, m), rng.randint(1, n)
    same(cfg, "purify_border_cell", ref_purify_border_cell, k, j)
    same(cfg, "absorb_empty_border_cell", ref_absorb_empty_border_cell, k, j)
    if m >= 2 and n >= 2:
        for _ in range(3):
            k1 = rng.randint(1, m - 1)
            k2 = rng.randint(k1 + 1, m)
            j2 = rng.randint(1, n - 1)
            j1 = rng.randint(j2 + 1, n)
            for complement in (False, True):
                out = same(
                    cfg, "diagonal_swap", ref_diagonal_swap, (k1, j1), (k2, j2), complement
                )
                counts["swap moved" if out is not cfg else "swap kept"] += 1
                same(
                    cfg, transforms._diagonal_swap_any, ref_diagonal_swap_any,
                    (k2, j2), (k1, j1), complement,
                )
    same(cfg, "corner_fill", ref_corner_fill)
    eps = F(1, rng.choice((3, 50, 1000)))
    grown = same(cfg, "augment", ref_augment, eps)
    if isinstance(grown, Configuration):
        counts["augmented" if grown is not cfg else "corners held"] += 1
        same_zigzag(same(grown, "corner_fill", ref_corner_fill), counts)
        same(grown, "empty_corner_rectangles", ref_empty_corner_rectangles)
        filled = transforms.corner_fill(grown)
        same(filled, "empty_corner_rectangles", ref_empty_corner_rectangles)
        # a canonical shape with one cell's species reshuffled, which may
        # break any one of the shape's conditions
        canon = transforms.canonicalize(grown)
        k, j = rng.randint(1, canon.n_cols), rng.randint(1, canon.n_rows)
        mass = canon.cell(k, j).mass
        share = F(rng.randint(0, 4), 4)
        for shape in (canon, ref_replace_cells(canon, {(k, j): Cell(share * mass, (1 - share) * mass)})):
            canonical = transforms.is_canonical(shape)
            assert canonical == ref_is_canonical(shape)
            counts["canonical" if canonical else "not canonical"] += 1
    counts["grids"] += 1


def test_transforms_match_their_rational_bodies():
    rng = random.Random(20191202)
    counts = {
        "grids": 0, "no spread": 0, "purify moved": 0, "purify kept": 0,
        "swap moved": 0, "swap kept": 0, "augmented": 0, "corners held": 0,
        "tie": 0, "no tie": 0, "corner move": 0, "no corner move": 0,
        "canonical": 0, "not canonical": 0, "zigzag merged": 0, "zigzag kept": 0,
    }
    for i in range(3000):
        exercise(random_grid(rng, DELTAS[i % len(DELTAS)]), rng, counts, i)
    for i, cfg in enumerate(seeded_reduce_inputs()[:3]):
        exercise(cfg, rng, counts, 3000 + 2 * i)
        grown = transforms.augment(cfg, F(1, 1000))
        exercise(transforms.canonicalize(grown), rng, counts, 3001 + 2 * i)
    # every branch ran often enough to matter
    assert min(counts.values()) >= 100, counts


def test_fuzzer_reports_no_violations():
    for delta in (F(1, 4), F(3, 4)):
        assert fuzz_transforms(delta, 40, seed=7) == []


# What each judged transform returns when broken: a grid without spread,
# or for the swap one whose line values all moved.
FLAT = make_configuration(F(1, 4), 1, 1, {(1, 1): (1, 0)})
BROKEN_TRANSFORMS = {
    "corner_fill": lambda cfg: FLAT,
    "augment": lambda cfg, eps: FLAT,
    "canonicalize": lambda cfg: FLAT,
    "diagonal_swap": lambda cfg, c1, c2, complement: transforms.complement_reflect(cfg),
    "reduce": lambda cfg, eps: {"out": FLAT, "trace": []},
}


@pytest.mark.parametrize("name", list(BROKEN_TRANSFORMS))
def test_fuzzer_reports_a_broken_transform(monkeypatch, name):
    monkeypatch.setattr(transforms, name, BROKEN_TRANSFORMS[name])
    names = [trace.name for trace in fuzz_transforms(F(1, 4), 1, seed=7)]
    assert name in names

    def raises(*args):
        raise InternalStateError(f"{name} broke")

    monkeypatch.setattr(transforms, name, raises)
    [trace] = fuzz_transforms(F(1, 4), 1, seed=7)
    assert trace.name == "battery:InternalStateError"
    assert trace.params == (f"{name} broke",)


def test_fuzzer_is_deterministic():
    assert fuzz_transforms(F(1, 4), 20, seed=21) == fuzz_transforms(F(1, 4), 20, seed=21)


def cycle_canonicalize(cfg):
    """``canonicalize`` as the cycle of the public transforms.

    Each transform builds its result and reads the memo, and a cycle ends
    when its result equals the grid it started from.
    """
    if not all(_grid_stats(cfg).occupied):
        raise ConfigError(
            "both extreme spread corners need positive mass; augment the "
            "configuration first"
        )
    if cfg.delta >= HALF:
        cfg = transforms.zigzag_normalize(cfg)
    else:
        for _ in transforms._rounds(16 * (cfg.n_cols + cfg.n_rows) ** 2, "canonicalization"):
            prev = cfg
            cfg = transforms.purify_all_borders(cfg)
            cfg = transforms.corner_fill(cfg)
            cfg = transforms.zigzag_normalize(cfg)
            cfg = transforms.empty_corner_rectangles(cfg)
            if cfg == prev:
                break
    if not transforms.is_canonical(cfg):
        raise InternalStateError("canonical fixpoint failed its own checks")
    return cfg


def test_canonicalize_matches_the_cycle_of_public_transforms(monkeypatch):
    """One working grid gives what the cycle of public transforms gives.

    The inputs are seeded augmented grids, and every state that ``reduce``
    canonicalizes on the first seeded reduce inputs.  A call
    builds one configuration, its result, and none when its input comes
    back.
    """
    # the benchmark's reduce deltas and three more; below 1/4 a drawn grid
    # rarely has spread
    deltas = (F(1, 4), F(1, 3), F(2, 5), F(9, 20), F(1, 2), F(3, 4))
    rng = random.Random(20191210)
    grids = []
    while len(grids) < 3000:
        cfg = random_grid(rng, deltas[len(grids) % len(deltas)])
        if compute_stats(cfg).prob_B:
            grids.append(transforms.augment(cfg, F(1, rng.choice((3, 50, 1000)))))
    canonicalize = transforms.canonicalize
    with monkeypatch.context() as patch:
        patch.setattr(transforms, "canonicalize", lambda cfg: grids.append(cfg) or canonicalize(cfg))
        for cfg in seeded_reduce_inputs()[:30]:
            transforms.reduce(cfg, F(1, 1000))
    builds = []
    init = Configuration._init

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(Configuration, "_init", counted)
    kept = 0
    for cfg in grids:
        want = outcome(cycle_canonicalize, cfg)
        builds.clear()
        got = outcome(canonicalize, cfg)
        assert got == want, cfg
        if got is cfg:
            assert builds == [], cfg
            kept += 1
        else:
            assert got != cfg and len(builds) == 1, cfg
    assert 100 <= kept <= len(grids) - 1000, kept


def test_public_constructor_matches_the_lattice():
    """Grids built from cells and from integers are the same value."""
    rng = random.Random(5)
    for i in range(300):
        cfg = random_grid(rng, DELTAS[i % len(DELTAS)])
        rebuilt = ref_config(cfg.delta, [list(col) for col in cfg.cells])
        assert rebuilt == cfg and hash(rebuilt) == hash(cfg)
        assert config_from_json_dict(config_to_json_dict(rebuilt)) == cfg


# ---------------------------------------------------------------------------
# Cells stay off the hot path
# ---------------------------------------------------------------------------


def live_configurations():
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is Configuration]


def test_reduce_builds_no_cells():
    compute_stats.cache_clear()
    inputs = seeded_reduce_inputs()
    texts = []
    for cfg in inputs:
        buf = io.StringIO()
        dump_config(cfg, buf)
        texts.append(buf.getvalue())
    del inputs, cfg
    compute_stats.cache_clear()
    loaded = [load_config(io.StringIO(text)) for text in texts]
    before = {id(c) for c in live_configurations()}
    outs = [transforms.reduce(cfg, F(1, 1000))["out"] for cfg in loaded]
    made = [c for c in live_configurations() if id(c) not in before]
    assert len(made) > len(outs)
    assert [c for c in made if c._cells is not None] == []
    assert all(out._cells is None for out in outs)


def test_memo_hit_on_an_equal_key_builds_no_cells():
    rng = random.Random(9)
    for i in range(40):
        cfg = random_grid(rng, DELTAS[i % 6])
        a = transforms.transpose(transforms.transpose(cfg))
        b = transforms.complement_reflect(transforms.complement_reflect(cfg))
        assert a is not b and a == b and a._cells is None and b._cells is None
        first = compute_stats(a)
        hits = compute_stats.cache_info().hits
        assert compute_stats(b) is first
        assert compute_stats.cache_info().hits == hits + 1
        assert a._cells is None and b._cells is None


def test_constructed_results_build_no_cells():
    rng = random.Random(3)
    space = random_space(rng, 8, 4)
    assert to_configuration(space, F(1, 4))._cells is None
    assert grid_coarsen(space, 4, F(1, 4))["cfg"]._cells is None
    assert hill_climb(F(1, 4), 2, 2, 50, 1).best_config._cells is None
