"""Sharpness searches over configuration space.

The closed form for the largest spread probability is attacked here from
below, without assuming it: enumerate every configuration on a small
rational grid, or hill-climb through mass space with random restarts, and
report the best value found. The best value, the maximum over every
evaluation, is compared against the closed form, so the searches double as
a falsification harness: a configuration beating the bound would surface
as a hard error, not a silently kept "discovery".
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    InternalStateError,
    RationalLike,
    SearchSpaceError,
    _SHOWN_BITS,
    _cap_cells,
    _compiled,
    _far_apart,
    _gates,
    _grid_stats,
    _line_locals,
    _names,
    _normalized,
    _shown,
    _stats_loop,
    _units_evaluator,
    _unrolls,
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
    threshold parameter, and as the largest value evaluated, neither does
    any evaluation; the search functions check both on the winner.
    ``seed`` is ``None`` for deterministic methods.
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
# layout of the statistics kernel, and both score its numerator over
# occupied cells in integer arithmetic, in code compiled per grid shape
# within the cap of config._unrolls: hill_climb passes the mass vector
# alone to config._units_evaluator's evaluator once per move, which sums the
# lines itself, and exhaustive_search runs _column_walker's last-column
# walker, which scores every last column inline, once per placement of the
# others. Both generators write their line sums with config._line_locals
# and their far-apart tests with config._far_apart: the spread event is the
# union of two disjoint one-sided events, since the threshold 1 - delta is
# positive, and a column with value x reaches the high one only when
# x >= 1 - delta and the low one only when x <= delta, so each column's
# cells are tested one side at a time, each side behind its column gate.
# Past the cap both run config._stats_loop, the loop that code is tested
# against: hill_climb through config._units_loop, exhaustive_search through
# _walk_last_column. Both only score: _search_result builds the winner, the
# one Configuration built, and compares it with the closed form, once.
# Zero-mass lines carry no conditional value and no probability there,
# which matches evaluating the configuration with its zero lines dropped.


def _search_result(
    d: Fraction, n_cols: int, n_rows: int, parts: Optional[tuple[int, ...]], best: int,
    denom: int, evaluated: int, method: str, seed: Optional[int],
) -> SearchResult:
    """The result whose winner is ``parts`` over ``denom``, with spread numerator ``best``.

    The winner's spread probability is checked against the bound and
    re-derived from its configuration. It is the largest value evaluated,
    so every evaluation obeys the bound if it does.
    """
    assert parts is not None
    cfg = _normalized(d, n_cols, n_rows, parts, denom)
    prob = Fraction(best, denom)
    lam = lambda_sharp(d)
    if prob > lam:
        raise InternalStateError(
            f"evaluated spread probability {prob} exceeds the closed-form bound "
            f"{lam}; the evaluator or the bound is broken"
        )
    if _grid_stats(cfg).prob_B != prob:
        raise InternalStateError(
            "the winner's configuration statistics disagree with its integer "
            "evaluation"
        )
    return SearchResult(d, prob, cfg, evaluated, method, seed)


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


def _walk_last_column(
    n_rows: int, fixed: Sequence[int], denom: int, th_num: int, th_den: int
) -> tuple[int, bool, int, Optional[tuple[int, ...]]]:
    """Score, in ascending order, every last column at or above the last of ``fixed``.

    The last column holds the ``room`` units of ``denom`` that ``fixed``
    leaves. :func:`_raise_column` gives the smallest column at or above the
    last fixed column with total at most ``room``, then each time the
    smallest strictly above the one before; topped up in its last slot to
    ``room``, each is the next column with total exactly ``room``. Each
    class is only scored, by :func:`_stats_loop` on the whole grid.
    Returns the class count, whether the first class equals the last fixed
    column, the best spread numerator (-1 for none) and the first column
    reaching it. This is the reference for :func:`_column_walker`'s
    compiled walkers and its walker past the cap.
    """
    width = 2 * n_rows
    o = len(fixed)
    n_cols = o // width + 1
    parts = [*fixed, *(fixed[o - width :] if o else [0] * width)]
    room = denom - sum(fixed)
    leaves, first_equal, best, best_column = 0, False, -1, None
    while _raise_column(parts, o, width, room, 0, leaves > 0):
        parts[-1] += room - sum(parts[o:])
        if not leaves:
            first_equal = o > 0 and parts[o:] == parts[o - width : o]
        prob = _stats_loop(parts, n_cols, n_rows, th_num, th_den)[5]
        leaves += 1
        if prob > best:
            best, best_column = prob, tuple(parts[o:])
    return leaves, first_equal, best, best_column


@functools.lru_cache(maxsize=1024)
def _column_walker(n_cols: int, n_rows: int) -> Callable[..., tuple]:
    """``walk(fixed, denom, th_num, th_den)`` as :func:`_walk_last_column`.

    Where :func:`config._unrolls` holds for the shape and for the memo
    kernel's square of side ``n_rows``, it is compiled once per shape from
    integer indices alone: the fixed slots and line sums become locals
    once, and each last-column slot but the last, which takes what is left,
    is one nested ``for`` (15 at the cap; CPython allows 20 nested blocks).
    Each level keeps whether the column so far equals its lower bound, and
    the level completing a row tests that row's fixed cells, so a class
    tests the last row's fixed cells and the last column's, with no call,
    no global and no list store. The fixed columns' gates of
    :func:`config._gates` are read once per walk, into each fixed cell's
    mass on either side, 0 where its column's gate fails; the last
    column's are read once per class, ahead of its two blocks of
    :func:`config._far_apart`. The threshold must be positive. Past the
    cap it is :func:`_walk_last_column` itself.
    """
    if not (_unrolls(n_rows, n_rows) and _unrolls(n_cols, n_rows)):
        return functools.partial(_walk_last_column, n_rows)
    n, last, width = n_rows, n_cols - 1, 2 * n_rows
    src = [
        "def walk(fixed, denom, th_num, th_den):",
        f"    {_names('p', last * width)} = fixed" if last else "",
        # the lower bound: the last fixed column, or zeros
        f"    {_names('l', width)} = {f'fixed[-{width}:]' if last else (0,) * width}",
        # the fixed columns' line sums; row j's t{j} and a{j} add the last column
        *_line_locals(last, n, "br", "ba"),
        "    room = denom" + "".join([f" - ct{k}" for k in range(last)]),
        f"    first_equal = {f'ct{last - 1} == room' if last else False}",
        "    ctd, ctn = room * th_den, room * th_num",
        "    leaves, best, best_column = 0, -1, None",
    ]
    # each fixed cell's mass on either side, 0 where its column's gate fails
    for i in range(last * n):
        high, low = _gates(i // n)
        src += [f"    hi{i} = m{i} if {high} else 0", f"    lo{i} = m{i} if {low} else 0"]

    pad, left = "    ", "room"
    for i in range(width):
        if i < width - 1:
            start = f"l{i} if e{i - 1} else 0" if i else "l0"
            src += [
                f"{pad}for x{i} in range({start}, {left} + 1):",
                f"{pad}    e{i} = {f'e{i - 1} and ' if i else ''}x{i} == l{i}",
                f"{pad}    r{i} = {left} - x{i}",
            ]
            pad, left = pad + "    ", f"r{i}"
        else:
            src += [f"{pad}x{i} = {left}", f"{pad}if e{i - 1} and x{i} < l{i}:", f"{pad}    continue"]
        if i % 2:
            # row j is complete: its sums, and in f{j} the spread mass of
            # the fixed cells of rows 0 to j
            j = i // 2
            src += [
                f"{pad}lm{j} = x{i - 1} + x{i}",
                f"{pad}t{j} = br{j} + lm{j}",
                f"{pad}a{j} = ba{j} + x{i}",
                f"{pad}c{j} = {f'c{j - 1} + ' if j else ''}x{i}",
                f"{pad}f{j} = {f'f{j - 1}' if j else 0}",
            ]
            for k in range(last):
                high, low = [(f"hi{k * n + j}", j)], [(f"lo{k * n + j}", j)]
                src += _far_apart(pad, k, high, low, f"f{j}", gated=False)
    b = f"f{n - 1}"
    src.append(f"{pad}cad = c{n - 1} * th_den")
    src.append(f"{pad}above, below = cad - ctn, cad + ctn")
    cells = [(f"lm{j}", j) for j in range(n)]
    src += _far_apart(pad, "", cells, cells, b)
    src += [
        f"{pad}leaves += 1",
        f"{pad}if {b} > best:",
        f"{pad}    best, best_column = {b}, ({_names('x', width)})",
        "    return leaves, first_equal, best, best_column\n",
    ]
    return _compiled(f"column walker {n_cols}x{n_rows}", src, "walk")[0]


def exhaustive_search(
    delta: RationalLike, n_cols: int, n_rows: int, denom: int
) -> SearchResult:
    """Evaluate every configuration with cell masses in units of 1/denom.

    The number of mass vectors is C(denom + 2mn - 1, denom); it is
    compared against :func:`enumeration_cap` before any work happens, by a
    running product that stops once it passes the cap, and a
    :class:`SearchSpaceError` refuses oversized requests, naming the count
    when it is short enough to print. The returned witness is the
    lexicographically smallest maximizer in column-major (complement,
    event) slot order, with zero lines dropped.

    The spread probability does not change when columns are permuted, so
    the vectors are covered by column classes: each multiset of columns is
    scored once, as its non-decreasing arrangement, the lexicographically
    smallest vector of the class, and stands for ``n_cols! / prod(mult!)``
    vectors. The arrangements are walked in ascending flat order, so a
    strict improvement still picks the smallest maximizer over all
    vectors. An explicit stack moves every column but the last by
    :func:`_raise_column`; the last holds all the mass left, and the walker
    :func:`_column_walker` gives for the grid's shape scores each of its
    compositions at or above the column before. The weights must sum to
    the vector count, which is reported as ``configs_evaluated``. The
    winner's value, the best over every class, is checked against the bound.
    """
    d = validate_delta(delta)
    _cap_cells(n_cols, n_rows, DomainError)
    if denom < 1:
        raise DomainError(f"denominator must be at least 1, got {_shown(denom)}")
    slots = 2 * n_cols * n_rows
    # the count C(n, k) as the running product C(n - k + i, i), i = 1..k:
    # as n - k >= k, each step at least doubles it, so an oversized count
    # passes the cap within cap.bit_length() + 1 steps
    n, k = denom + slots - 1, min(denom, slots - 1)
    cap = enumeration_cap()
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > cap:
            # the exact count is named only when it is short enough to print
            if k * n.bit_length() <= _SHOWN_BITS:
                over = f"{math.comb(n, k)} configurations, above"
            else:
                over = "more configurations than"
            raise SearchSpaceError(
                f"exhaustive enumeration would evaluate {over} the cap of {cap}; "
                f"lower denom or the grid, or raise {ENUM_CAP_ENV}"
            )
    # the threshold 1 - d, in lowest terms as d is
    th_num, th_den = d.denominator - d.numerator, d.denominator
    walk = _column_walker(n_cols, n_rows)
    width = 2 * n_rows
    last = n_cols - 1
    # the columns before the last; weight[k]: the weight of the first k
    parts = [0] * (last * width)
    room = [denom] * n_cols
    run = [1] * n_cols
    weight = [1] * n_cols
    covered = 0
    best_prob = -1
    best_parts: Optional[tuple[int, ...]] = None
    k = 0
    found = last == 0 or _raise_column(parts, 0, width, denom, last, False)
    while True:
        if not found:
            k -= 1
            if k < 0:
                break
            found = _raise_column(parts, k * width, width, room[k], last - k, True)
            continue
        if k < last:
            o = k * width
            column = parts[o : o + width]
            run[k] = run[k - 1] + 1 if k and column == parts[o - width : o] else 1
            k += 1
            weight[k] = weight[k - 1] * k // run[k - 1]
            if k < last:
                room[k] = room[k - 1] - sum(column)
                parts[o + width : o + 2 * width] = column
                found = _raise_column(parts, o + width, width, room[k], last - k, False)
                continue
        leaves, equal, best, tail = walk(parts, denom, th_num, th_den)
        # a class weighs n_cols! / prod(mult!); only the first last column
        # can equal the column before it and so lengthen its run
        w = weight[last] * n_cols
        covered += w * leaves
        if equal:
            covered -= w - w // (run[last - 1] + 1)
        if best > best_prob:
            best_prob = best
            best_parts = (*parts, *tail)
        found = False
    if covered != count:
        raise InternalStateError(
            f"the column classes cover {covered} mass vectors, not {count}"
        )
    return _search_result(
        d, n_cols, n_rows, best_parts, best_prob, denom, count, "exhaustive", None
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
    counts evaluations and is reported as ``configs_evaluated``, so
    ``iters=1`` scores the initial configuration and stops. An ``iters``
    above :func:`enumeration_cap` raises :class:`SearchSpaceError` before
    any work happens.

    A restart keeps its mass vector and the sorted list of its positive
    slots as running state: a move changes two slots, and a rejected move
    restores those two. Its moves run in eight phases, the quantum halving
    from one to the next: the move at step ``s`` of ``moves`` has quantum
    ``128 >> (8 * s // moves)``, set once per phase, and the count of
    positive slots, which the source draw reads, is re-read only when a
    move is kept. Each evaluation is one call on the vector alone to
    the evaluator that :func:`~expert_spread.config._units_evaluator` gives
    for the grid's shape, fetched once per climb, and it sums the lines:
    compiled code within the cap of :func:`~expert_spread.config._unrolls`,
    which tests each column only on the sides its value can reach, and past
    it the loop reference :func:`~expert_spread.config._stats_loop`.
    The source slot is drawn as ``rng.choice`` draws from the positive
    slots and the target offset as ``rng.randrange(slots - 1)`` does, by
    rejection sampling on ``rng.getrandbits``, so a seed gives the same run
    as those calls would. A rejected move scores below the current value,
    never above the best, so the winner's is the best of every evaluation,
    and it is the one checked against the bound.
    """
    d = validate_delta(delta)
    _cap_cells(n_cols, n_rows, DomainError)
    if iters < 1:
        raise DomainError(f"iters must be at least 1, got {_shown(iters)}")
    cap = enumeration_cap()
    if iters > cap:
        raise SearchSpaceError(
            f"hill climb would evaluate {_shown(iters)} configurations, above the cap "
            f"of {cap}; lower iters, or raise {ENUM_CAP_ENV}"
        )
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    slots = 2 * n_cols * n_rows
    # the threshold 1 - d, in lowest terms as d is
    th_num, th_den = d.denominator - d.numerator, d.denominator
    spread_units = _units_evaluator(n_cols, n_rows)
    others = slots - 1
    others_bits = others.bit_length()

    restarts = max(1, min(8, iters // 1250))
    base = iters // restarts
    leftover = iters - base * restarts

    best_prob = -1
    best_parts: Optional[tuple[int, ...]] = None
    for r in range(restarts):
        budget = base + (leftover if r == 0 else 0)
        parts = _random_parts(rng, _CLIMB_DENOM, slots)
        positive = [i for i in range(slots) if parts[i] > 0]
        n = len(positive)
        bits = n.bit_length()
        cur = spread_units(parts, th_num, th_den)
        if cur > best_prob:
            best_prob = cur
            best_parts = tuple(parts)
        moves = budget - 1
        start = 0
        # phase p runs the steps with 8 * step // moves == p, quantum 128 >> p
        for phase in range(8):
            quantum = _CLIMB_START_QUANTUM >> phase
            end = -(-(phase + 1) * moves // 8)
            for _ in range(end - start):
                # k random bits, drawn again while they name no element, with
                # k the bit length of the element count, as Random._randbelow
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
                parts[src] -= amt
                parts[dst] += amt
                prob = spread_units(parts, th_num, th_den)
                if prob >= cur:
                    cur = prob
                    if prob > best_prob:
                        best_prob = prob
                        best_parts = tuple(parts)
                    if not parts[src]:
                        positive.remove(src)
                    if parts[dst] == amt:
                        bisect.insort(positive, dst)
                    n = len(positive)
                    bits = n.bit_length()
                else:
                    parts[src] += amt
                    parts[dst] -= amt
            start = end
    return _search_result(
        d, n_cols, n_rows, best_parts, best_prob, _CLIMB_DENOM, iters, "hill_climb", seed
    )
