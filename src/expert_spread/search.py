"""Sharpness searches over configuration space.

The closed form for the largest spread probability is attacked here from
below, without assuming it: enumerate every configuration on a small
rational grid, or hill-climb through mass space with random restarts, and
report the best value found. Every single evaluation is compared against
the closed form, so the searches double as a falsification harness: a
configuration beating the bound would surface as a hard error, not a
silently kept "discovery".
"""

from __future__ import annotations

import bisect
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    InternalStateError,
    RationalLike,
    SearchSpaceError,
    _cap_cells,
    _line_sums,
    _normalized,
    _units_evaluator,
    compute_stats,
    config_to_json_dict,
    rational_to_str,
    validate_delta,
)
from .bounds import lambda_sharp

# re-exported: the benchmark's reduce workload reads it from this module
from .transforms import reduced_shape_problem  # noqa: F401

DEFAULT_ENUM_CAP = 10**8
ENUM_CAP_ENV = "EXPERT_SPREAD_ENUM_CAP"


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    ``best_prob_B`` always equals the exact spread probability of
    ``best_config``, and never exceeds the closed-form bound for the run's
    threshold parameter; both facts are enforced at construction time by
    the search functions. ``seed`` is ``None`` for deterministic methods.
    """

    delta: Fraction
    best_prob_B: Fraction
    best_config: Configuration
    configs_evaluated: int
    method: str
    seed: Optional[int]


def search_result_to_json_dict(result: SearchResult) -> dict:
    """Serialize a result as an envelope around the standard config format."""
    return {
        "method": result.method,
        "seed": result.seed,
        "delta": rational_to_str(result.delta),
        "best_prob_B": rational_to_str(result.best_prob_B),
        "configs_evaluated": result.configs_evaluated,
        "best_config": config_to_json_dict(result.best_config),
    }


# ---------------------------------------------------------------------------
# Shared integer-grid evaluation
# ---------------------------------------------------------------------------
#
# Both searches represent a configuration as a flat tuple of non-negative
# integers over a common denominator: the slots run over cells in
# column-major order, with the complement share first and the event share
# second in each cell. The species order matters only through the
# lexicographic tie-break on maximizers; complement-first makes the
# reported small-grid witnesses line up with the canonical extremal
# configuration rather than its event-complement mirror image. This is the
# layout of the statistics kernel, so every evaluation is one call to the
# evaluator config._units_evaluator compiles for the grid's shape: the
# kernel's numerator over occupied cells, in integer arithmetic, with no
# Python loop on grids of up to config.UNROLL_CELLS cells. Each search
# fetches it once per call. A Configuration object is only built for the
# winner.
# Zero-mass lines carry no conditional value and no probability there,
# which matches evaluating the configuration with its zero lines dropped.


def _bound_broken(b_num: int, denom: int, lam: Fraction) -> InternalStateError:
    """The error for an evaluation of ``b_num/denom`` above the bound ``lam``."""
    return InternalStateError(
        f"evaluated spread probability {Fraction(b_num, denom)} exceeds the "
        f"closed-form bound {lam}; the evaluator or the bound is broken"
    )


def _check_winner(cfg: Configuration, b_num: int, denom: int) -> Fraction:
    """The winner's spread probability, re-derived from its configuration."""
    prob = Fraction(b_num, denom)
    if compute_stats(cfg).prob_B != prob:
        raise InternalStateError(
            "the winner's configuration statistics disagree with its integer "
            "evaluation"
        )
    return prob


def _validate_dims(n_cols: int, n_rows: int) -> None:
    """Refuse an empty grid, or one past the cell cap of :func:`config._cap_cells`.

    The searches allocate per cell, so the limit is checked first.
    """
    if n_cols < 1 or n_rows < 1:
        raise DomainError(
            f"grid dimensions must be at least 1x1, got {n_cols}x{n_rows}"
        )
    _cap_cells(n_cols, n_rows, DomainError)


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def enumeration_cap() -> int:
    """Configured ceiling on exhaustive enumeration size."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{ENUM_CAP_ENV} must be an integer, got {raw!r}"
        ) from exc


def _gaps(bars: tuple[int, ...] | list[int], total: int) -> list[int]:
    """The weak composition of ``total`` whose stars-and-bars cuts sit at ``bars``.

    ``bars`` are ascending positions in ``range(total + len(bars))``; part
    ``i`` counts the stars between cut ``i - 1`` and cut ``i``.
    """
    ends = (-1, *bars, total + len(bars))
    return [b - a - 1 for a, b in zip(ends, ends[1:])]


def _raise_column(
    parts: list[int], o: int, width: int, room: int, after: int, strict: bool
) -> bool:
    """Move the column ``parts[o:o + width]`` up to the next one that can be completed.

    Columns compare lexicographically. The column takes its total from
    ``room`` and leaves the rest to ``after`` more columns, each at or
    above it. A column with first slot ``a`` and total ``t`` has no column
    above it with total below ``min(t, a + 1)``, and every total from there
    up is reachable, so it can be completed exactly when
    ``t <= max(room - after * (a + 1), room // (after + 1))``. The column
    becomes the smallest such column at or above its value, or strictly
    above it with ``strict``; returns False, the column then unspecified,
    when none is left.
    """
    end = o + width
    first = parts[o]
    cap = max(room - after * (first + 1), room // (after + 1))
    total = sum(parts[o:end])
    if not strict and total <= cap:
        return True
    # the smallest column above raises the last slot it can by one and
    # clears the slots after it; ``total`` runs over the prefix sums
    for i in range(end - 1, o, -1):
        if total < cap:
            parts[i] += 1
            parts[i + 1 : end] = [0] * (end - i - 1)
            return True
        total -= parts[i]
    first += 1
    if first > max(room - after * (first + 1), room // (after + 1)):
        return False
    parts[o] = first
    parts[o + 1 : end] = [0] * (width - 1)
    return True


def exhaustive_search(
    delta: RationalLike, n_cols: int, n_rows: int, denom: int
) -> SearchResult:
    """Evaluate every configuration with cell masses in units of 1/denom.

    The number of mass vectors is C(denom + 2mn - 1, denom); it is computed
    and compared against :func:`enumeration_cap` before any work happens,
    and a :class:`SearchSpaceError` naming the count refuses oversized
    requests. The returned witness is the lexicographically smallest
    maximizer in column-major (complement, event) slot order, with zero
    lines dropped.

    The spread probability does not change when columns are permuted, so
    the vectors are covered by column classes: each multiset of columns is
    scored once, as its non-decreasing arrangement, the lexicographically
    smallest vector of the class, and stands for ``n_cols! / prod(mult!)``
    vectors. The arrangements are walked in ascending flat order by an
    explicit stack with one column per level, each level keeping the row
    sums of the columns before it, so a strict improvement still picks the
    smallest maximizer over all vectors. Every column but the last moves by
    :func:`_raise_column`. The last column holds all the mass left, and
    walks in place through the compositions of it, from the first at or
    above the column before: most steps move one unit from the last event
    slot to the complement slot beside it, the others empty the last
    positive slot into its predecessor and the last slot, so a step
    changes three slots and their line sums. The weights must sum to the
    vector count, which is reported as ``configs_evaluated``.
    """
    d = validate_delta(delta)
    _validate_dims(n_cols, n_rows)
    if denom < 1:
        raise DomainError(f"denominator must be at least 1, got {denom}")
    slots = 2 * n_cols * n_rows
    count = math.comb(denom + slots - 1, denom)
    cap = enumeration_cap()
    if count > cap:
        raise SearchSpaceError(
            f"exhaustive enumeration would evaluate {count} configurations, "
            f"above the cap of {cap}; lower denom or the grid, or raise "
            f"{ENUM_CAP_ENV}"
        )
    lam = lambda_sharp(d)
    lam_num, lam_den = lam.numerator * denom, lam.denominator
    th = 1 - d
    th_num, th_den = th.numerator, th.denominator
    spread_units = _units_evaluator(n_cols, n_rows)
    width = 2 * n_rows
    last = n_cols - 1
    parts = [0] * slots
    col_t = [0] * n_cols
    col_a = [0] * n_cols
    room = [denom] * n_cols
    # rows[k]: row totals and row event masses of the columns before k
    rows = [([0] * n_rows, [0] * n_rows)] * (n_cols + 1)
    run = [1] * n_cols
    weight = [1] * n_cols
    covered = 0
    best_prob = -1
    best_parts: Optional[tuple[int, ...]] = None
    # the last column's last two slots: the last row's complement and event
    top = slots - 1
    below = top - 1
    j_last = n_rows - 1
    k = 0
    found = _raise_column(parts, 0, width, denom, last, False)
    while True:
        if not found:
            k -= 1
            if k < 0:
                break
            found = _raise_column(parts, k * width, width, room[k], last - k, True)
            continue
        o = k * width
        if k == last:
            # the last column takes all that is left: the smallest column
            # with total at most room[k], its last slot topped up, is the
            # smallest with total exactly room[k]
            parts[top] += room[k] - sum(parts[o:])
        column = parts[o : o + width]
        comp, event = column[::2], column[1::2]
        col_a[k] = sum(event)
        col_t[k] = sum(comp) + col_a[k]
        base_t, base_a = rows[k]
        rows[k + 1] = (
            [t + c + a for t, c, a in zip(base_t, comp, event)],
            [t + a for t, a in zip(base_a, event)],
        )
        run[k] = run[k - 1] + 1 if k and column == parts[o - width : o] else 1
        weight[k] = (weight[k - 1] if k else 1) * (k + 1) // run[k]
        if k < last:
            room[k + 1] = room[k] - col_t[k]
            k += 1
            parts[o + width : o + 2 * width] = column
            found = _raise_column(parts, o + width, width, room[k], last - k, False)
            continue
        # The last column walks in place through every composition of
        # room[k] in ascending order. Only the first can equal the column
        # before it, so the ones after it weigh weight[k] * run[k].
        row_t, row_a = rows[n_cols]
        w, w_after = weight[k], weight[k] * run[k]
        # q: the last positive slot before ``top``, or ``o - 1`` for none
        q = top - 1
        while q >= o and not parts[q]:
            q -= 1
        while True:
            prob = spread_units(parts, n_rows, col_t, col_a, row_t, row_a, th_num, th_den)
            if prob * lam_den > lam_num:
                raise _bound_broken(prob, denom, lam)
            covered += w
            w = w_after
            if prob > best_prob:
                best_prob = prob
                best_parts = tuple(parts)
            s = parts[top]
            if s:
                # the common step: one unit from the last event slot to
                # the complement slot beside it
                parts[top] = s - 1
                parts[below] += 1
                col_a[k] -= 1
                row_a[j_last] -= 1
                q = below
                continue
            if q <= o:
                break
            # otherwise slot q, holding s units, empties: q - 1 gains one
            # and the last slot takes the other s - 1
            s = parts[q]
            parts[q] = 0
            j = (q - o) >> 1
            row_t[j] -= s
            if q & 1:
                row_a[j] -= s
                col_a[k] -= s
            q -= 1
            parts[q] += 1
            j = (q - o) >> 1
            row_t[j] += 1
            if q & 1:
                row_a[j] += 1
                col_a[k] += 1
            s -= 1
            parts[top] = s
            row_t[j_last] += s
            row_a[j_last] += s
            col_a[k] += s
        found = False
    if covered != count:
        raise InternalStateError(
            f"the column classes cover {covered} mass vectors, not {count}"
        )
    assert best_parts is not None
    cfg = _normalized(d, n_cols, n_rows, best_parts, denom)
    return SearchResult(
        delta=d,
        best_prob_B=_check_winner(cfg, best_prob, denom),
        best_config=cfg,
        configs_evaluated=count,
        method="exhaustive",
        seed=None,
    )


# ---------------------------------------------------------------------------
# Hill climbing
# ---------------------------------------------------------------------------

_CLIMB_DENOM = 1024
_CLIMB_START_QUANTUM = 128


def _random_parts(rng: random.Random, total: int, slots: int) -> list[int]:
    """Uniform weak composition of ``total`` into ``slots`` via stars and bars."""
    return _gaps(sorted(rng.sample(range(total + slots - 1), slots - 1)), total)


def hill_climb(
    delta: RationalLike, n_cols: int, n_rows: int, iters: int, seed: int
) -> SearchResult:
    """Randomized ascent through mass space, deterministic given the seed.

    The run is split into up to eight restarts, each starting from a fresh
    uniform random composition over a denominator of 1024. A move transfers
    a quantum of mass between two uniformly chosen slots; the quantum
    shrinks geometrically from 1/8 to 1/1024 over each restart, and a move
    is kept exactly when the spread probability does not decrease. ``iters``
    counts evaluations, so ``iters=1`` scores the initial configuration and
    stops.

    A restart keeps its line sums and the sorted list of its positive slots
    as running state: a move changes two slots, so it updates one column
    and one row sum per slot, and a rejected move reverts them. Each
    evaluation is one call on those sums to the evaluator that
    :func:`~expert_spread.config._units_evaluator` gives for the grid's
    shape, fetched once per call. The source slot is drawn as
    ``rng.choice`` draws from the positive slots and the target offset as
    ``rng.randrange(slots - 1)`` does, by rejection sampling on
    ``rng.getrandbits``, so a seed gives the same run as those calls would.
    """
    d = validate_delta(delta)
    _validate_dims(n_cols, n_rows)
    if iters < 1:
        raise DomainError(f"iters must be at least 1, got {iters}")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    slots = 2 * n_cols * n_rows
    lam = lambda_sharp(d)
    lam_num, lam_den = lam.numerator * _CLIMB_DENOM, lam.denominator
    th = 1 - d
    th_num, th_den = th.numerator, th.denominator
    spread_units = _units_evaluator(n_cols, n_rows)
    # slot i lies in column col_of[i] and row row_of[i]; odd slots hold
    # event mass
    col_of = [i // (2 * n_rows) for i in range(slots)]
    row_of = [(i >> 1) % n_rows for i in range(slots)]
    others = slots - 1
    others_bits = others.bit_length()

    restarts = max(1, min(8, iters // 1250))
    base = iters // restarts
    leftover = iters - base * restarts

    best_prob = -1
    best_parts: Optional[tuple[int, ...]] = None
    evaluated = 0
    for r in range(restarts):
        budget = base + (leftover if r == 0 else 0)
        parts = _random_parts(rng, _CLIMB_DENOM, slots)
        col_t, col_a, row_t, row_a = _line_sums(parts, n_cols, n_rows)
        positive = [i for i in range(slots) if parts[i] > 0]
        cur = spread_units(parts, n_rows, col_t, col_a, row_t, row_a, th_num, th_den)
        if cur * lam_den > lam_num:
            raise _bound_broken(cur, _CLIMB_DENOM, lam)
        evaluated += 1
        if cur > best_prob:
            best_prob = cur
            best_parts = tuple(parts)
        moves = budget - 1
        for step in range(moves):
            # step < moves, so the quantum runs from 128 down to 1
            quantum = _CLIMB_START_QUANTUM >> (8 * step // moves)
            # k random bits, drawn again while they name no element, with
            # k the bit length of the element count, as Random._randbelow
            n = len(positive)
            bits = n.bit_length()
            src = getrandbits(bits)
            while src >= n:
                src = getrandbits(bits)
            src = positive[src]
            dst = getrandbits(others_bits)
            while dst >= others:
                dst = getrandbits(others_bits)
            if dst >= src:
                dst += 1
            amt = parts[src]
            if amt > quantum:
                amt = quantum
            sk = col_of[src]
            sj = row_of[src]
            dk = col_of[dst]
            dj = row_of[dst]
            col_t[sk] -= amt
            row_t[sj] -= amt
            col_t[dk] += amt
            row_t[dj] += amt
            if src & 1:
                col_a[sk] -= amt
                row_a[sj] -= amt
            if dst & 1:
                col_a[dk] += amt
                row_a[dj] += amt
            parts[src] -= amt
            parts[dst] += amt
            prob = spread_units(parts, n_rows, col_t, col_a, row_t, row_a, th_num, th_den)
            if prob * lam_den > lam_num:
                raise _bound_broken(prob, _CLIMB_DENOM, lam)
            evaluated += 1
            if prob >= cur:
                cur = prob
                if prob > best_prob:
                    best_prob = prob
                    best_parts = tuple(parts)
                if not parts[src]:
                    positive.remove(src)
                if parts[dst] == amt:
                    bisect.insort(positive, dst)
            else:
                parts[src] += amt
                parts[dst] -= amt
                col_t[sk] += amt
                row_t[sj] += amt
                col_t[dk] -= amt
                row_t[dj] -= amt
                if src & 1:
                    col_a[sk] += amt
                    row_a[sj] += amt
                if dst & 1:
                    col_a[dk] -= amt
                    row_a[dj] -= amt
    assert best_parts is not None
    cfg = _normalized(d, n_cols, n_rows, best_parts, _CLIMB_DENOM)
    return SearchResult(
        delta=d,
        best_prob_B=_check_winner(cfg, best_prob, _CLIMB_DENOM),
        best_config=cfg,
        configs_evaluated=evaluated,
        method="hill_climb",
        seed=seed,
    )
