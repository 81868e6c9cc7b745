"""Mass-moving transformations: contracts, hand oracles, and regressions."""

import hashlib
import io
import json
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from expert_spread.bounds import (
    certify_upper_bound,
    extremal_config,
    halfpoint_example,
    lambda_sharp,
)
from expert_spread.config import (
    Configuration,
    ConfigError,
    DomainError,
    InternalStateError,
    ReduceContradictionError,
    TransformContractError,
    _grid_stats,
    _normalized,
    compute_stats,
    config_from_json_dict,
    dump_config,
    make_configuration,
    normalize,
    parse_rational,
)
from expert_spread.search import _random_parts, reduced_shape_problem
from expert_spread import _grid, transforms
from expert_spread.transforms import (
    absorb_empty_border_cell,
    augment,
    canonicalize,
    complement_reflect,
    diagonal_swap,
    empty_corner_rectangles,
    is_canonical,
    merge_columns,
    merge_rows,
    purify_all_borders,
    purify_border_cell,
    reduce,
    trace_to_json_dict,
    transpose,
    zigzag_normalize,
)

F = Fraction


def no_spread_square():
    """Two-by-two with tied column values and no spread at gap 1/4."""
    return make_configuration(
        F(1, 4),
        2,
        2,
        {
            (1, 1): (0, F(1, 4)),
            (2, 1): (0, F(1, 4)),
            (1, 2): (F(1, 4), 0),
            (2, 2): (F(1, 4), 0),
        },
    )


def impure_border_example():
    """Hand-built gap 2/5 square whose low border cell holds both species."""
    return make_configuration(
        F(2, 5),
        2,
        2,
        {
            (1, 1): (0, F(1, 2)),
            (1, 2): (F(1, 20), F(1, 20)),
            (2, 2): (F(2, 5), 0),
        },
    )


def absorb_trap():
    """Gap 1/4 square where merging away the empty border cell kills spread."""
    return make_configuration(
        F(1, 4),
        2,
        2,
        {(1, 1): (0, F(1, 2)), (2, 1): (0, F(1, 16)), (2, 2): (F(7, 16), 0)},
    )


def test_transpose_is_an_involution():
    rng = random.Random(11)
    for _ in range(40):
        cfg = random_configuration(rng, F(1, 4))
        flipped = transpose(cfg)
        assert transpose(flipped) == cfg
        s, t = compute_stats(cfg), compute_stats(flipped)
        assert t.prob_B == s.prob_B
        assert (flipped.n_cols, flipped.n_rows) == (cfg.n_rows, cfg.n_cols)
        assert t.x == s.y and t.y == s.x


def test_complement_reflect_is_an_involution():
    rng = random.Random(12)
    for _ in range(40):
        cfg = random_configuration(rng, F(1, 3))
        mirrored = complement_reflect(cfg)
        assert complement_reflect(mirrored) == cfg
        assert compute_stats(mirrored).prob_B == compute_stats(cfg).prob_B


def test_reflected_transpose_is_an_involution_and_both_compositions():
    # the working grid's two in-place symmetries move its integers, line
    # sums and sides as the public maps move the configuration
    rng = random.Random(13)
    for _ in range(200):
        n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
        denom = rng.randint(1, 40)
        parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
        cfg = normalize(Configuration._from_parts(F(1, 3), n_cols, n_rows, parts, denom))
        for view, want in (
            ("_reflected_transpose", transpose(complement_reflect(cfg))),
            ("_reflect", complement_reflect(cfg)),
        ):
            grid = transforms._Grid(cfg, _grid_stats(cfg))
            getattr(grid, view)()
            g = _grid_stats(want)
            assert (grid.n_cols, grid.n_rows, grid._parts) == (want.n_cols, want.n_rows, list(want._parts))
            assert (grid.col_t, grid.col_a, grid.row_t, grid.row_a) == (g.col_t, g.col_a, g.row_t, g.row_a)
            assert grid.side == list(g.side)
            getattr(grid, view)()
            assert grid._parts == list(cfg._parts) and grid.side == list(_grid_stats(cfg).side)
        assert transpose(complement_reflect(cfg)) == complement_reflect(transpose(cfg))


def test_merges_refuse_to_destroy_spread():
    ext = extremal_config(F(1, 4))
    assert merge_columns(ext, 1) is ext
    assert merge_rows(ext, 1) is ext


def test_merge_of_spread_free_lines():
    cfg = no_spread_square()
    merged = merge_columns(cfg, 1)
    assert (merged.n_cols, merged.n_rows) == (1, 2)
    assert merged.cells[0][0].ac_mass == F(1, 2)
    assert merged.cells[0][1].a_mass == F(1, 2)
    assert compute_stats(merged).prob_B == 0


def test_merge_out_of_range_raises():
    cfg = no_spread_square()
    with pytest.raises(ConfigError):
        merge_columns(cfg, 2)
    with pytest.raises(ConfigError):
        merge_rows(cfg, 0)


def test_merge_respects_opposite_side_pairs_above_one_half():
    # both rows sit in the spread set on opposite sides of the single
    # column, so merging them would erase all spread; the transformation
    # must decline and return its input
    hp = halfpoint_example(F(3, 4))
    assert compute_stats(hp).prob_B == 1
    assert merge_rows(hp, 1) is hp


def test_zigzag_fixes_the_extremal_witness():
    ext = extremal_config(F(1, 4))
    assert zigzag_normalize(ext) == ext


def test_zigzag_collapses_spread_free_ties():
    out = zigzag_normalize(no_spread_square())
    assert (out.n_cols, out.n_rows) == (1, 1)
    assert compute_stats(out).prob_B == 0


def test_zigzag_contract_on_random_inputs():
    rng = random.Random(13)
    for delta in (F(1, 10), F(1, 4), F(2, 5)):
        for _ in range(30):
            cfg = random_configuration(rng, delta)
            out = zigzag_normalize(cfg)
            s, t = compute_stats(cfg), compute_stats(out)
            assert t.prob_B >= s.prob_B
            assert out.n_cols <= cfg.n_cols and out.n_rows <= cfg.n_rows
            assert all(a < b for a, b in zip(t.x, t.x[1:]))
            assert all(a < b for a, b in zip(t.y, t.y[1:]))


def test_zigzag_builds_only_the_sorted_grid_and_the_fixpoint(monkeypatch):
    # the public sweeps merge and purify on a list of integers, so the grids
    # between the input and the result are neither built nor memoised, and
    # they leave no memo entry, the input's and the result's included: only
    # canonicalize reads and writes the memo's fixpoint mark
    rng = random.Random(23)
    inputs = []
    while len(inputs) < 40:
        n_cols, n_rows = rng.randint(2, 6), rng.randint(2, 6)
        parts = _random_parts(rng, 256, 2 * n_cols * n_rows)
        delta = rng.choice((F(1, 10), F(1, 4), F(3, 5)))
        cfg = Configuration._from_parts(delta, n_cols, n_rows, parts, 256)
        sorted_cfg, out = normalize(cfg), zigzag_normalize(cfg)
        if sum(sorted_cfg.dims) - sum(out.dims) >= 3:
            inputs.append(cfg)
    built = []
    from_parts = Configuration._from_parts

    def counted(*args):
        built.append(args)
        return from_parts(*args)

    monkeypatch.setattr(Configuration, "_from_parts", counted)
    unsorted = 0
    for cfg in inputs:
        unsorted += normalize(cfg) != cfg
        if cfg.delta == F(3, 5):
            # from one half on purify_all_borders is the identity
            assert purify_all_borders(cfg) is cfg
            sweeps = (zigzag_normalize,)
        else:
            sweeps = (zigzag_normalize, purify_all_borders)
        for sweep in sweeps:
            compute_stats.cache_clear()
            built.clear()
            out = sweep(cfg)
            # at most normalize and the result
            assert len(built) <= 2
            assert compute_stats.cache_info().currsize == 0
            built.clear()
            assert zigzag_normalize(out) is out
            assert built == []
            assert compute_stats.cache_info().currsize == 0
    assert unsorted > 30

    # from one half on canonicalize is the merge sweep; it marks its result,
    # so a second call returns it at once, with no merge tried
    merged = []
    merge_columns_in_place = _grid._Grid._merge_columns

    def counted_merge(grid, k):
        merged.append(k)
        return merge_columns_in_place(grid, k)

    monkeypatch.setattr(_grid._Grid, "_merge_columns", counted_merge)
    grown = [
        augment(cfg, F(1, 100))
        for cfg in inputs
        if cfg.delta == F(3, 5) and compute_stats(cfg).prob_B > 0
    ]
    assert grown
    for cfg in grown:
        merged.clear()
        out = canonicalize(cfg)
        # the first call sweeps, and the result has columns left to merge
        assert merged and out.n_cols > 1
        assert _grid_stats(out).fixpoint
        merged.clear()
        assert canonicalize(out) is out
        assert merged == []


def test_canonicalize_marks_only_a_grid_unmoved_since_its_sweep(monkeypatch):
    # a cycle that moves after its merge sweep and comes back to the grid it
    # started from leaves by its same-grid exit unsettled; its result must
    # not be marked a merge fixpoint. No unpatched input in the suite takes
    # this exit after such a move, so one step is made to count a move that
    # leaves the grid as it was.
    cfg = extremal_config(F(1, 4))
    empty_corners = _grid._Grid._empty_corner_rectangles

    def moved_back(grid):
        empty_corners(grid)
        grid._changed()

    monkeypatch.setattr(_grid._Grid, "_empty_corner_rectangles", moved_back)
    _grid_stats.cache_clear()
    assert canonicalize(cfg) == cfg
    assert not _grid_stats(cfg).fixpoint
    monkeypatch.undo()
    assert canonicalize(cfg) == cfg
    assert _grid_stats(cfg).fixpoint


def test_zigzag_keeps_full_spread_above_one_half():
    hp = halfpoint_example(F(3, 4))
    out = zigzag_normalize(hp)
    assert compute_stats(out).prob_B == 1


def test_purify_border_oracle():
    cfg = impure_border_example()
    s = compute_stats(cfg)
    assert s.x == (F(1, 12), F(1))
    assert s.y == (F(0), F(9, 10))
    assert s.d_minus == ((1, 2),)
    out = purify_border_cell(cfg, 1, 2)
    cell = out.cells[0][1]
    assert cell.a_mass == F(1, 10)
    assert cell.ac_mass == 0
    t = compute_stats(out)
    assert t.x[0] == F(1, 6)
    assert t.y[1] == F(1)
    assert t.prob_B >= s.prob_B


def test_purify_identity_on_pure_cell():
    ext = extremal_config(F(1, 4))
    assert purify_border_cell(ext, 1, 2) is ext


def test_purify_rejects_non_border_cell():
    cfg = impure_border_example()
    with pytest.raises(ConfigError):
        purify_border_cell(cfg, 1, 1)
    with pytest.raises(ConfigError):
        purify_border_cell(cfg, 3, 1)


def test_grid_guards_name_a_broken_staircase_and_a_stalled_purification(monkeypatch):
    # both are theorem guards: below one half the merge fixpoint is a
    # staircase and a border purification always moves mass
    with monkeypatch.context() as patch:
        patch.setattr(_grid, "_staircase_problem", lambda cfg, g: "a crafted problem")
        with pytest.raises(
            InternalStateError, match="^merge fixpoint is not a staircase: a crafted problem$"
        ):
            zigzag_normalize(extremal_config(F(1, 4)))
    cfg = impure_border_example()
    assert _grid_stats(cfg).d_minus == ((1, 2),)
    monkeypatch.setattr(_grid._Grid, "_purify", lambda grid, k, j: False)
    with pytest.raises(
        InternalStateError, match=r"^purification stalled on impure border cell \(1, 2\)$"
    ):
        purify_all_borders(cfg)


def test_purification_guard_names_a_spread_pair_it_lost():
    # a theorem guard: no purification drops a pair from the spread region,
    # so the guard is fed sides in which every cell was in the region
    cfg = impure_border_example()
    grid = transforms._Grid(cfg, _grid_stats(cfg))
    before = [tuple(-1 for _ in col) for col in grid.side]
    message = r"^column 1 and row 1 left the spread region \(gap 1/12 fell to 1/12\)$"
    with pytest.raises(TransformContractError, match=message):
        grid._check_spread_pairs_kept(before, grid.col_t, grid.col_a, grid.row_t, grid.row_a)


def test_purify_all_borders_leaves_positive_borders_pure():
    out = purify_all_borders(impure_border_example())
    s = compute_stats(out)
    assert s.prob_B == F(1, 10)
    for k, j in s.d_minus + s.d_plus:
        cell = out.cells[k - 1][j - 1]
        assert cell.a_mass == 0 or cell.ac_mass == 0


def test_purify_all_borders_random_postcondition():
    rng = random.Random(14)
    for delta in (F(1, 4), F(2, 5)):
        for _ in range(25):
            cfg = zigzag_normalize(random_configuration(rng, delta))
            out = purify_all_borders(cfg)
            s = compute_stats(out)
            assert s.prob_B >= compute_stats(cfg).prob_B
            for k, j in s.d_minus + s.d_plus:
                cell = out.cells[k - 1][j - 1]
                assert cell.a_mass == 0 or cell.ac_mass == 0


def test_absorb_declines_the_trap():
    cfg = absorb_trap()
    s = compute_stats(cfg)
    assert s.x == (F(0), F(7, 8))
    assert s.y == (F(0), F(1))
    assert s.prob_B == F(1, 16)
    # cell (1, 2) is an empty spread-border cell, but every neighboring
    # merge would drop the spread probability, so nothing happens
    assert absorb_empty_border_cell(cfg, 1, 2) is cfg


def test_zigzag_fixpoints_leave_no_empty_spread_cell_to_absorb():
    # absorption only tries neighbour merges, and the merge fixpoint has
    # refused every one of them, so no empty spread cell can be folded there
    rng = random.Random(20191209)
    deltas = (
        F(1, 10), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(9, 20),
        F(1, 2), F(3, 5), F(2, 3), F(3, 4),
    )
    tried = on_border = 0
    for _ in range(3000):
        n_cols, n_rows = rng.randint(1, 5), rng.randint(1, 5)
        denom = rng.randint(2, 12)
        parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
        masses = {
            (i // n_rows + 1, i % n_rows + 1): (F(parts[2 * i + 1], denom), F(parts[2 * i], denom))
            for i in range(n_cols * n_rows)
        }
        cfg = zigzag_normalize(make_configuration(rng.choice(deltas), n_cols, n_rows, masses))
        s = compute_stats(cfg)
        border = set(s.d_minus) | set(s.d_plus)
        for k in range(1, cfg.n_cols + 1):
            for j in range(1, cfg.n_rows + 1):
                if s.b_mask[k - 1][j - 1] and cfg.cell(k, j).is_empty:
                    assert absorb_empty_border_cell(cfg, k, j) is cfg
                    tried += 1
                    on_border += (k, j) in border
    assert tried > 300 and on_border > 80


def test_reduce_still_certifies_the_trap():
    cfg = absorb_trap()
    before = compute_stats(cfg).prob_B
    result = reduce(cfg, F(1, 1000))
    after = compute_stats(result["out"]).prob_B
    assert before - after < F(1, 1000)
    assert reduced_shape_problem(result["out"]) is None
    cert = certify_upper_bound(result["out"])
    assert after <= cert <= lambda_sharp(F(1, 4))


def test_diagonal_swap_orientation_contract():
    cfg = extremal_config(F(1, 4))
    with pytest.raises(ConfigError):
        diagonal_swap(cfg, (2, 1), (1, 2))
    with pytest.raises(ConfigError):
        diagonal_swap(cfg, (1, 1), (2, 2))
    with pytest.raises(ConfigError):
        diagonal_swap(cfg, (0, 2), (2, 1))
    # a pair on one column or one row gets the public text, not the internal one
    for c1, c2 in (((1, 2), (1, 1)), ((1, 1), (2, 1))):
        message = f"swap sources must run from upper-left to lower-right, got {c1} and {c2}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            diagonal_swap(cfg, c1, c2)


def swap_rectangle():
    """Every cell mixed and inside the spread set at gap 3/4."""
    return make_configuration(
        F(3, 4),
        2,
        2,
        {
            (1, 1): (F(1, 16), F(3, 16)),
            (1, 2): (F(1, 16), F(3, 16)),
            (2, 1): (F(3, 16), F(1, 16)),
            (2, 2): (F(3, 16), F(1, 16)),
        },
    )


def test_diagonal_swap_moves_mass_on_the_full_rectangle():
    cfg = swap_rectangle()
    s = compute_stats(cfg)
    assert s.b_mask == ((True, True), (True, True))
    out = diagonal_swap(cfg, (1, 2), (2, 1), complement=False)
    assert out is not cfg
    # one sixteenth of event mass leaves each source for the cell above
    # or below it in the same column
    assert out.cells[0][0].a_mass == F(1, 8)
    assert out.cells[0][1].a_mass == F(0)
    t = compute_stats(out)
    assert t.prob_B == s.prob_B
    assert t.x == s.x and t.y == s.y
    assert t.p == s.p and t.q == s.q
    mirrored = diagonal_swap(cfg, (1, 2), (2, 1), complement=True)
    assert mirrored is not cfg
    u = compute_stats(mirrored)
    assert u.x == s.x and u.y == s.y and u.prob_B == s.prob_B


def test_diagonal_swap_preserves_every_marginal():
    rng = random.Random(15)
    for _ in range(300):
        cfg = random_configuration(rng, F(1, 4))
        if cfg.n_cols < 2 or cfg.n_rows < 2:
            continue
        k1 = rng.randint(1, cfg.n_cols - 1)
        k2 = rng.randint(k1 + 1, cfg.n_cols)
        j2 = rng.randint(1, cfg.n_rows - 1)
        j1 = rng.randint(j2 + 1, cfg.n_rows)
        out = diagonal_swap(
            cfg, (k1, j1), (k2, j2), complement=bool(rng.getrandbits(1))
        )
        if out is cfg:
            continue
        s, t = compute_stats(cfg), compute_stats(out)
        assert t.prob_B == s.prob_B
        assert t.x == s.x and t.y == s.y
        assert t.p == s.p and t.q == s.q


def test_augment_oracle():
    cfg = make_configuration(
        F(1, 4), 1, 2, {(1, 1): (0, F(4, 5)), (1, 2): (F(1, 5), 0)}
    )
    assert compute_stats(cfg).prob_B == F(1, 5)
    out = augment(cfg, F(1, 100))
    assert (out.n_cols, out.n_rows) == (2, 3)
    assert compute_stats(out).prob_B == F(79, 400)
    assert compute_stats(out).prob_B > F(1, 5) - F(1, 100)
    # the grown configuration now satisfies the corner precondition
    assert is_canonical(canonicalize(out))


def test_augment_needs_positive_spread():
    with pytest.raises(DomainError):
        augment(no_spread_square(), F(1, 100))
    with pytest.raises(DomainError, match="^epsilon must be positive, got 0$"):
        augment(extremal_config(F(1, 4)), 0)


def test_augment_guards_its_theorems(monkeypatch):
    """The three guards no input fires, each tripped by a helper broken on purpose.

    The loss guard is tripped twice: by a loss past epsilon, and by one of
    exactly epsilon, which is as much a breach as more.
    """
    # spread 1/5 with the high corner empty, so augment adds slivers
    cfg = make_configuration(
        F(1, 4), 1, 2, {(1, 1): (0, F(4, 5)), (1, 2): (F(1, 5), 0)}
    )
    b_num = _grid_stats(cfg).b_num
    cases = [
        # positive spread probability with neither corner occupied
        (
            "_grid_stats",
            lambda c: SimpleNamespace(b_num=b_num, occupied=(False, False)),
            F(1, 100),
            InternalStateError,
            "positive spread probability requires at least one occupied corner",
        ),
        # slivers that lose the whole spread probability
        (
            "_augmented",
            lambda c, g, eps, low_missing: no_spread_square(),
            F(1, 100),
            TransformContractError,
            "augmentation dropped the spread probability from 1/5 to 0, more than 1/100",
        ),
        # the same slivers, losing exactly epsilon
        (
            "_augmented",
            lambda c, g, eps, low_missing: no_spread_square(),
            F(1, 5),
            TransformContractError,
            "augmentation dropped the spread probability from 1/5 to 0, more than 1/5",
        ),
        # slivers that leave the grid as it was, its high corner still empty
        (
            "_augmented",
            lambda c, g, eps, low_missing: c,
            F(1, 100),
            TransformContractError,
            "augmentation failed to occupy both corners",
        ),
    ]
    for name, broken, epsilon, error, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(transforms, name, broken)
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                augment(cfg, epsilon)


def test_canonicalize_requires_corners_below_one_half():
    one_sided = make_configuration(
        F(1, 4), 1, 2, {(1, 1): (0, F(4, 5)), (1, 2): (F(1, 5), 0)}
    )
    with pytest.raises(ConfigError):
        canonicalize(one_sided)
    with pytest.raises(ConfigError, match="^both extreme spread corners need positive mass"):
        empty_corner_rectangles(one_sided)


def test_canonicalize_checks_that_its_result_keeps_both_corners(monkeypatch):
    """A cycle step that empties a corner is caught on the result, after the cycle.

    The replaced step loads a one-sided grid that passes ``is_canonical``, so
    only the result's occupancy, read from its memo entry, can refuse it.
    """
    one_sided = make_configuration(
        F(1, 4), 1, 2, {(1, 1): (0, F(4, 5)), (1, 2): (F(1, 5), 0)}
    )
    assert is_canonical(one_sided) and _grid_stats(one_sided).occupied == (True, False)

    def emptying_fill(grid):
        moves = grid.moves
        grid.__init__(one_sided, _grid_stats(one_sided))
        grid.moves = moves + 1

    monkeypatch.setattr(_grid._Grid, "_corner_fill", emptying_fill)
    with pytest.raises(InternalStateError, match="^canonical fixpoint failed its own checks$"):
        canonicalize(extremal_config(F(1, 4)))


def test_exact_values_refuse_floats_and_booleans():
    """The API reads exact values as the file loaders, Cell and Atom do: no float or boolean."""
    cfg = extremal_config(F(1, 4))
    for bad, shown in ((0.1, "0.1"), (True, "True"), ("abc", "'abc'")):
        with pytest.raises(ConfigError, match=f"^cannot parse rational {shown} as an exact rational$"):
            parse_rational(bad)
        for call in (reduce, augment):
            with pytest.raises(ConfigError, match=f"^cannot parse epsilon {shown} as an exact rational$"):
                call(cfg, bad)
    for bad, shown in ((True, "True"), (0.5, "0.5")):
        with pytest.raises(ConfigError, match=f"^cannot parse a mass {shown} as an exact rational$"):
            make_configuration("1/4", 1, 1, {(1, 1): (bad, 0)})
    assert reduce(cfg, "1/1000")["out"] == reduce(cfg, F(1, 1000))["out"]


def test_canonicalize_fixes_the_extremal_witness():
    ext = extremal_config(F(1, 4))
    assert canonicalize(ext) == ext
    assert is_canonical(ext)


def test_is_canonical_rejects_unsorted_values():
    cfg = make_configuration(
        F(1, 4), 2, 1, {(1, 1): (F(1, 2), 0), (2, 1): (0, F(1, 2))}
    )
    assert not is_canonical(cfg)


def test_is_canonical_refuses_a_grid_with_a_zero_line():
    # the statistics refuse an unnormalized grid; is_canonical answers no
    cfg = make_configuration(F(1, 4), 2, 1, {(1, 1): (F(1, 2), F(1, 2))})
    with pytest.raises(ConfigError):
        _grid_stats(cfg)
    assert is_canonical(cfg) is False


# Canonical staircases at delta 1/4, each beside one cell change that breaks
# one clause of is_canonical and keeps the staircase: integer masses
# {(col, row): (a, ac)} over their total.
WITNESS_LIKE = {(1, 1): (0, 500), (1, 2): (100, 0), (2, 1): (100, 0)}
DEPTH_TWO = {
    (1, 1): (0, 30), (1, 2): (0, 4), (1, 3): (0, 2), (2, 1): (0, 50), (2, 3): (6, 0),
    (3, 1): (10, 0), (3, 2): (20, 0), (3, 3): (24, 0),
}
REFUSED = {
    # the low border cell (1, 2) holds both species
    "impure border cell": (2, WITNESS_LIKE, {(1, 2): (90, 10)}),
    # column 1 is a low-corner line, and (1, 1) lies outside the region
    "event mass on a low-corner line": (2, WITNESS_LIKE, {(1, 1): (10, 490)}),
    # column 2 is a high-corner line, and (2, 2) lies outside the region
    "complement mass on a high-corner line": (2, WITNESS_LIKE, {(2, 2): (0, 1)}),
    # (2, 2) is in the low corner's rectangle, outside the region; an occupied
    # rectangle cell always carries mass of a species its lines forbid
    "occupied corner rectangle": (3, DEPTH_TWO, {(1, 2): (0, 2), (2, 2): (0, 2)}),
}


@pytest.mark.parametrize("clause", sorted(REFUSED))
def test_is_canonical_refuses_each_broken_clause(clause):
    side, canonical, change = REFUSED[clause]

    def grid(masses):
        den = sum(a + ac for a, ac in masses.values())
        return lattice_grid(F(1, 4), side, side, den, masses)

    broken = grid({**canonical, **change})
    s = compute_stats(broken)
    assert s.d_minus and s.d_plus
    assert transforms._staircase_problem(broken, _grid_stats(broken)) is None
    assert is_canonical(grid(canonical))
    assert not is_canonical(broken)


def test_canonicalize_contract_below_one_half():
    rng = random.Random(16)
    done = 0
    while done < 40:
        cfg = random_configuration(rng, F(1, 4))
        if compute_stats(cfg).prob_B == 0:
            continue
        grown = augment(cfg, F(1, 100))
        out = canonicalize(grown)
        assert is_canonical(out)
        assert compute_stats(out).prob_B >= compute_stats(grown).prob_B
        assert out.n_cols <= grown.n_cols and out.n_rows <= grown.n_rows
        done += 1


def test_canonicalize_contract_above_one_half():
    # the corner precondition applies at every gap, so grow first; from
    # one half on the canonical form is just the sorted merge fixpoint
    rng = random.Random(17)
    done = 0
    while done < 40:
        cfg = random_configuration(rng, F(3, 4))
        if compute_stats(cfg).prob_B == 0:
            continue
        grown = augment(cfg, F(1, 100))
        out = canonicalize(grown)
        assert out == zigzag_normalize(grown)
        assert is_canonical(out)
        done += 1


def test_reduce_keeps_the_extremal_witness():
    ext = extremal_config(F(1, 4))
    result = reduce(ext, F(1, 1000))
    out = result["out"]
    assert compute_stats(out).prob_B == F(2, 5)
    assert certify_upper_bound(out) == F(2, 5)
    assert reduced_shape_problem(out) is None
    assert result["trace"]
    assert result["trace"][0].name == "augment"
    for trace in result["trace"]:
        assert trace.prob_b_nondecreasing


def test_reduce_domain_errors():
    ext = extremal_config(F(1, 4))
    with pytest.raises(DomainError):
        reduce(ext, 0)
    with pytest.raises(DomainError):
        reduce(extremal_config(F(1, 2)), F(1, 100))
    with pytest.raises(DomainError):
        reduce(no_spread_square(), F(1, 100))


def test_reduce_contract_on_random_inputs():
    rng = random.Random(18)
    eps = F(1, 1000)
    done = 0
    while done < 40:
        cfg = random_configuration(rng, F(1, 4))
        before = compute_stats(cfg).prob_B
        if before == 0:
            continue
        result = reduce(cfg, eps)
        after = compute_stats(result["out"]).prob_B
        assert before - after < eps
        assert reduced_shape_problem(result["out"]) is None
        cert = certify_upper_bound(result["out"])
        assert after <= cert <= lambda_sharp(F(1, 4))
        done += 1


DRIVER_BRANCHES = (
    "_attack",
    "_corner_sweep",
    "_with_chi",
    "_middle_cell_attack",
    "_two_sided_squeeze",
    "_foothold_sweep",
)


def reduce_counting_branches(monkeypatch, cfg):
    """Reduce at epsilon 1/1000, recording how each call of an attack branch ended.

    A call ends in "return" or, when a move changed value structure, in
    "jump".  Returns the endings per branch and the reduced configuration's
    certificate and trace length.
    """
    outcomes = {name: [] for name in DRIVER_BRANCHES}
    for name in DRIVER_BRANCHES:
        original = getattr(transforms._ReduceDriver, name)

        def counted(self, *args, _original=original, _name=name):
            try:
                _original(self, *args)
            except transforms._Jump:
                outcomes[_name].append("jump")
                raise
            outcomes[_name].append("return")

        monkeypatch.setattr(transforms._ReduceDriver, name, counted)
    eps = F(1, 1000)
    result = reduce(cfg, eps)
    out = result["out"]
    before, after = compute_stats(cfg).prob_B, compute_stats(out).prob_B
    cert = certify_upper_bound(out)
    assert reduced_shape_problem(out) is None
    assert before - after < eps
    assert after <= cert <= lambda_sharp(cfg.delta)
    return outcomes, cert, len(result["trace"])


def lattice_grid(delta, n_cols, n_rows, den, masses):
    """A grid from integer masses ``{(col, row): (a, ac)}`` over ``den``."""
    return make_configuration(
        delta, n_cols, n_rows, {key: (F(a, den), F(ac, den)) for key, (a, ac) in masses.items()}
    )


def depth_two_input():
    """A gap 49/100 input whose attack exits at corner depth two.

    Found by a seeded random sweep; the only inputs known to reach that
    exit use a threshold gap close to 1/2.
    """
    return config_from_json_dict(
        {
            "delta": "49/100",
            "cols": 4,
            "rows": 3,
            "cells": [
                {"col": 1, "row": 1, "a": "1/16", "ac": "1/32"},
                {"col": 1, "row": 2, "a": "0", "ac": "3/32"},
                {"col": 2, "row": 1, "a": "0", "ac": "1/16"},
                {"col": 2, "row": 2, "a": "1/16", "ac": "0"},
                {"col": 2, "row": 3, "a": "0", "ac": "1/32"},
                {"col": 3, "row": 1, "a": "0", "ac": "3/32"},
                {"col": 3, "row": 2, "a": "1/32", "ac": "3/16"},
                {"col": 3, "row": 3, "a": "3/16", "ac": "0"},
                {"col": 4, "row": 1, "a": "1/32", "ac": "0"},
                {"col": 4, "row": 2, "a": "1/16", "ac": "0"},
                {"col": 4, "row": 3, "a": "1/16", "ac": "0"},
            ],
        }
    )


def test_reduce_runs_the_depth_two_attack(monkeypatch):
    cfg = depth_two_input()
    outcomes, cert, steps = reduce_counting_branches(monkeypatch, cfg)
    assert outcomes["_attack"] == ["return"]
    assert len(outcomes["_corner_sweep"]) == 2
    assert len(outcomes["_with_chi"]) == 1
    assert steps == 13
    assert cert == F(98, 149)


def depth_three_input():
    """A gap 2/5 square whose attack enters the depth-three branch."""
    masses = {
        (1, 2): (0, 1), (1, 3): (0, 1), (2, 1): (0, 9), (2, 3): (1, 0),
        (3, 1): (0, 4), (3, 4): (1, 0), (4, 1): (1, 0), (4, 2): (2, 0),
        (4, 3): (2, 0), (4, 4): (1, 0),
    }
    return lattice_grid(F(2, 5), 4, 4, 23, masses)


def test_reduce_runs_the_depth_three_attack(monkeypatch):
    outcomes, _, steps = reduce_counting_branches(monkeypatch, depth_three_input())
    assert outcomes["_middle_cell_attack"] == ["jump"]
    assert len(outcomes["_with_chi"]) == 2
    assert steps == 22


def depth_four_input():
    """A gap 2/5 square whose attack enters the two-sided squeeze."""
    masses = {
        (1, 2): (0, 1), (1, 3): (0, 1), (1, 4): (0, 1), (2, 1): (0, 9),
        (2, 3): (1, 0), (3, 1): (0, 4), (3, 4): (1, 0), (4, 1): (0, 7),
        (4, 5): (3, 0), (5, 1): (1, 0), (5, 2): (2, 0), (5, 3): (2, 0),
        (5, 4): (4, 0), (5, 5): (1, 0),
    }
    return lattice_grid(F(2, 5), 5, 5, 38, masses)


def test_reduce_runs_the_two_sided_squeeze(monkeypatch):
    outcomes, _, steps = reduce_counting_branches(monkeypatch, depth_four_input())
    assert len(outcomes["_two_sided_squeeze"]) == 1
    assert len(outcomes["_foothold_sweep"]) == 1
    assert steps == 21


# Inputs that reach lines of the driver's deep branches that the inputs above
# do not, found by a random walk over canonical states: delta, columns, rows,
# denominator and masses, then how each branch that ran ended, the trace
# length and the certificate.
DEEP_BRANCH_INPUTS = {
    "corner sweeps jump": (
        F(2, 5), 5, 4, 114,
        {
            (1, 2): (0, 3), (1, 3): (0, 3), (1, 4): (0, 3), (2, 1): (0, 27),
            (2, 3): (3, 0), (3, 1): (0, 12), (3, 4): (3, 0), (4, 1): (0, 21),
            (4, 4): (11, 0), (5, 1): (3, 0), (5, 2): (6, 0), (5, 3): (6, 0),
            (5, 4): (13, 0),
        },
        {"_attack": ["jump", "jump"], "_corner_sweep": ["jump", "jump"]},
        12, F(4, 7),
    ),
    "chi corner sweep jumps": (
        F(2, 5), 4, 4, 115,
        {
            (1, 1): (0, 17), (1, 2): (0, 3), (1, 3): (1, 3), (2, 1): (0, 35),
            (2, 3): (3, 0), (3, 1): (0, 21), (3, 4): (9, 0), (4, 1): (2, 0),
            (4, 2): (6, 0), (4, 3): (12, 0), (4, 4): (3, 0),
        },
        {"_attack": ["jump"], "_corner_sweep": ["return", "jump"], "_with_chi": ["jump"]},
        16, F(4, 7),
    ),
    "middle-cell attack runs directly": (
        F(7, 20), 4, 4, 5800,
        {
            (1, 2): (0, 150), (1, 3): (0, 1), (2, 1): (0, 1245), (2, 3): (0, 310),
            (2, 4): (37, 0), (3, 1): (0, 1088), (3, 4): (440, 0), (4, 1): (0, 150),
            (4, 2): (300, 0), (4, 3): (1929, 0), (4, 4): (150, 0),
        },
        {
            "_attack": ["jump"],
            "_corner_sweep": ["return", "return"],
            "_with_chi": ["return"],
            "_middle_cell_attack": ["jump"],
        },
        18, F(14, 27),
    ),
    "second purification jumps": (
        F(1, 3), 4, 4, 196,
        {
            (1, 2): (0, 5), (1, 3): (0, 10), (2, 1): (0, 41), (2, 3): (3, 0),
            (2, 4): (2, 0), (3, 1): (0, 37), (3, 4): (15, 0), (4, 1): (0, 5),
            (4, 2): (10, 0), (4, 3): (63, 0), (4, 4): (5, 0),
        },
        {
            "_attack": ["jump"],
            "_corner_sweep": ["return", "return"],
            "_with_chi": ["return", "jump"],
            "_middle_cell_attack": ["jump"],
        },
        24, F(1, 2),
    ),
    "squeeze absorbs above the transition": (
        F(7, 20), 5, 5, 3814,
        {
            (1, 2): (0, 98), (1, 3): (0, 102), (1, 4): (4, 54), (2, 1): (0, 900),
            (2, 3): (69, 0), (3, 1): (0, 400), (3, 4): (80, 0), (3, 5): (60, 17),
            (4, 1): (0, 726), (4, 5): (300, 0), (5, 1): (0, 100), (5, 2): (200, 0),
            (5, 3): (200, 0), (5, 4): (500, 0), (5, 5): (4, 0),
        },
        {
            "_attack": ["jump"],
            "_corner_sweep": ["return", "return"],
            "_foothold_sweep": ["return", "return"],
            "_with_chi": ["return"],
            "_two_sided_squeeze": ["jump"],
        },
        28, F(14, 27),
    ),
}


def deep_branch_input(name):
    delta, n_cols, n_rows, den, masses = DEEP_BRANCH_INPUTS[name][:5]
    return lattice_grid(delta, n_cols, n_rows, den, masses)


@pytest.mark.parametrize("name", list(DEEP_BRANCH_INPUTS))
def test_reduce_runs_a_deep_branch(monkeypatch, name):
    want, want_steps, want_cert = DEEP_BRANCH_INPUTS[name][5:]
    outcomes, cert, steps = reduce_counting_branches(monkeypatch, deep_branch_input(name))
    assert {branch: got for branch, got in outcomes.items() if got} == want
    assert steps == want_steps
    assert cert == want_cert


def test_overloaded_cell_terminal_reports_its_contradiction():
    # the terminal's premises contradict each other below one half; at one
    # half a cell holding half its mass in each species meets them all
    cfg = make_configuration(F(1, 2), 1, 1, {(1, 1): (F(1, 2), F(1, 2))})
    driver = transforms._ReduceDriver(cfg, F(1, 1000))
    err = driver._overloaded_cell_contradiction(1, 1)
    assert isinstance(err, ReduceContradictionError)
    assert err.state == "transition-cell-overloaded"
    assert err.diagnostics["cell"] == [1, 1]
    assert err.diagnostics["complement_share"] == "1/2"
    assert err.diagnostics["event_share"] == "1/2"


@pytest.mark.parametrize(
    "guard, message",
    [
        (lambda d: d._attack(_grid_stats(d.cfg)), "attack started with a trivial low corner"),
        (lambda d: d._absorb(1, 1, "here"), "guaranteed absorption failed here"),
        (lambda d: d._foothold_sweep(), "two-sided sweep expects a deep low corner"),
        (lambda d: d._middle_cell_attack(), "depth-three attack entered with the wrong shape"),
        (
            lambda d: d._overloaded_cell_contradiction(1, 1),
            "overloaded cell does not dominate its lines",
        ),
        (lambda d: d._overloaded_cell_contradiction(2, 2), "overloaded cell lost its mass"),
    ],
)
def test_reduce_driver_guards_name_their_broken_premise(guard, message):
    # theorem guards: the reduction calls each step only in the shape it
    # expects, so each is fed the extremal witness, which has none of them
    driver = transforms._ReduceDriver(extremal_config(F(1, 4)), F(1, 1000))
    with pytest.raises(InternalStateError, match=f"^{re.escape(message)} \\(after 0 steps\\)$"):
        guard(driver)


def test_corner_sweep_refuses_a_spread_region_without_two_sides():
    # below one half the halfpoint example has no spread region, so no
    # first paired row
    driver = transforms._ReduceDriver(halfpoint_example(F(1, 4)), F(1, 1000))
    message = r"^corner sweep needs a two-sided spread region \(after 0 steps\)$"
    with pytest.raises(InternalStateError, match=message):
        driver._corner_sweep()


def test_phase_refuses_a_restart_that_does_not_shrink(monkeypatch):
    # an attack that jumps without changing anything brings the phase back
    # to the same canonical state
    def jump(self, s):
        raise transforms._Jump

    monkeypatch.setattr(transforms._ReduceDriver, "_attack", jump)
    message = r"^revisited the canonical state without shrinking \(after 3 steps\)$"
    with pytest.raises(InternalStateError, match=message):
        reduce(depth_three_input(), F(1, 1000))


def test_bounded_loops_fail_past_their_cap():
    rounds = transforms._rounds(3, "settling")
    assert [next(rounds) for _ in range(3)] == [1, 2, 3]
    message = "^settling exceeded its cap of 3 rounds$"
    with pytest.raises(InternalStateError, match=message):
        next(rounds)


def test_reduction_that_never_reaches_its_exit_shape_fails(monkeypatch):
    # the witness keeps its 2x2 grid through augmentation: a cap of
    # 4 * (2 + 2 + 2) rounds of four steps each, after the augmentation
    monkeypatch.setattr(transforms, "reduced_shape_problem", lambda cfg: "never")
    with pytest.raises(
        InternalStateError,
        match=r"^reduction exceeded its cap of 24 rounds \(after 97 steps\)$",
    ):
        reduce(extremal_config(F(1, 4)), F(1, 100))


def test_trace_serialization():
    result = reduce(extremal_config(F(1, 4)), F(1, 100))
    for trace in result["trace"]:
        wire = trace_to_json_dict(trace)
        assert set(wire) == {
            "name",
            "params",
            "prob_B_before",
            "prob_B_after",
            "dims_before",
            "dims_after",
            "prob_b_nondecreasing",
            "dims_nonincreasing",
            "corners_preserved",
        }
        json.dumps(wire)


def random_configuration(rng, delta, max_dim=4):
    """One seeded random configuration, normalized.

    Dimensions are uniform on 1..max_dim, masses are a uniform integer
    composition over a power-of-two denominator between 2^4 and 2^10, so
    degenerate shapes (empty cells, pure cells, zero lines before the
    normalize) appear with substantial probability.
    """
    n_cols = rng.randint(1, max_dim)
    n_rows = rng.randint(1, max_dim)
    denom = 2 ** rng.randint(4, 10)
    parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
    return _normalized(delta, n_cols, n_rows, parts, denom)


def seeded_reduce_inputs():
    """The pinned driver inputs, then 30 seeded positive-spread grids up to 6x6.

    The seeded grids cycle through gaps 1/4, 1/3 and 2/5; masses are a
    uniform composition over a power-of-two denominator, and draws without
    spread are redrawn.
    """
    inputs = [depth_two_input(), depth_three_input(), depth_four_input()]
    rng = random.Random(7)
    deltas = (F(1, 4), F(1, 3), F(2, 5))
    while len(inputs) < 33:
        delta = deltas[len(inputs) % 3]
        n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
        denom = 2 ** rng.randint(4, 10)
        cuts = sorted(rng.randint(0, denom) for _ in range(2 * n_cols * n_rows - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
        masses = {
            (k + 1, j + 1): (F(parts[2 * (k * n_rows + j) + 1], denom), F(parts[2 * (k * n_rows + j)], denom))
            for k in range(n_cols)
            for j in range(n_rows)
        }
        cfg = normalize(make_configuration(delta, n_cols, n_rows, masses))
        if compute_stats(cfg).prob_B > 0:
            inputs.append(cfg)
    return inputs


# The SHA-256 of every trace line and reduced file below, as the rational
# implementation of the transforms wrote them; any change to a step, its
# parameters, its recorded values or the output changes it.
REDUCE_TRACE_DIGEST = "e2485f3a106521757a4ded8d8fc749f10acfc7d4e85ba56b241b1400a18adf9e"


def reduce_trace_digest(inputs):
    """The SHA-256 of every trace line and reduced file, input by input."""
    digest = hashlib.sha256()
    for cfg in inputs:
        result = reduce(cfg, F(1, 1000))
        for trace in result["trace"]:
            line = json.dumps(trace_to_json_dict(trace), sort_keys=True)
            digest.update(line.encode() + b"\n")
        buf = io.StringIO()
        dump_config(result["out"], buf)
        digest.update(buf.getvalue().encode())
    return digest.hexdigest()


def test_reduce_traces_are_pinned():
    assert reduce_trace_digest(seeded_reduce_inputs()) == REDUCE_TRACE_DIGEST


# The same over the deep-branch inputs in the order listed, as the driver
# wrote them when each attack returned its outcome as a string, before its
# moves raised their restarts.
DEEP_BRANCH_TRACE_DIGEST = "24d41ca2d8624bd2c675543bfae1f42244ff116f12d4a741d5930179b42ad67a"


def test_deep_branch_traces_are_pinned():
    inputs = [deep_branch_input(name) for name in DEEP_BRANCH_INPUTS]
    assert reduce_trace_digest(inputs) == DEEP_BRANCH_TRACE_DIGEST


def test_trace_flags_a_spread_drop_of_one_cross_unit():
    # spreads 1/5 and 1/6, whose cross products 6 and 5 differ by one
    higher = make_configuration(
        F(1, 4), 2, 2, {(1, 2): (F(1, 5), 0), (2, 1): (0, F(1, 5)), (2, 2): (F(3, 5), 0)}
    )
    lower = make_configuration(
        F(1, 4), 2, 2, {(1, 2): (F(1, 6), 0), (2, 1): (F(1, 3), 0), (2, 2): (0, F(1, 2))}
    )
    assert (compute_stats(higher).prob_B, compute_stats(lower).prob_B) == (F(1, 5), F(1, 6))
    assert not transforms.make_trace("step", (), higher, lower).prob_b_nondecreasing
    assert transforms.make_trace("step", (), lower, higher).prob_b_nondecreasing
