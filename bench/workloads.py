"""Seeded inputs, one op, and the exact-output guard for each workload.

Inputs are generated here with the benchmark's own stars-and-bars code and
handed to the package as data (JSON text or plain parameters), so the cost
of generating them never depends on the package. Every workload has a fixed
number of inputs per pass; ops cycle through the pass, and the digest of one
pass's exact outputs is what the golden file pins. A pass lasts a second or
two, so each input runs many times in a measured run and its best latency
filters out a shared host's bursts of interference.

An op takes a ``span`` callable and wraps each call into the package in
``with span("<module>.<function>"):``; untraced runs pass a no-op.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from expert_spread import bounds, config, discretize, search, transforms

F = Fraction
EPS = F(1, 1000)
HALF = F(1, 2)


def sharp_bound(delta: Fraction) -> Fraction:
    """The closed form 2d/(1+d) below one half, 1 from one half on."""
    return 2 * delta / (1 + delta) if delta < HALF else F(1)


def composition(rng: random.Random, total: int, slots: int) -> list[int]:
    """Uniform weak composition of ``total`` into ``slots`` parts."""
    if slots == 1:
        return [total]
    cuts = sorted(rng.sample(range(total + slots - 1), slots - 1))
    parts, prev = [], -1
    for c in cuts:
        parts.append(c - prev - 1)
        prev = c
    parts.append(total + slots - 2 - prev)
    return parts


def spread_units(parts: list[int], n_cols: int, n_rows: int, delta: Fraction) -> int:
    """Mass units, in column-major (complement, event) slots, in the spread region.

    Integer cross-multiplication: a cell counts when its column and row
    conditionals differ by at least ``1 - delta``. Zero lines are skipped,
    as :func:`normalize` drops them.
    """
    th = 1 - delta
    col_t, col_a = [0] * n_cols, [0] * n_cols
    row_t, row_a = [0] * n_rows, [0] * n_rows
    i = 0
    for k in range(n_cols):
        for j in range(n_rows):
            c, a = parts[i], parts[i + 1]
            i += 2
            col_t[k] += a + c
            col_a[k] += a
            row_t[j] += a + c
            row_a[j] += a
    units = 0
    i = 0
    for k in range(n_cols):
        for j in range(n_rows):
            c, a = parts[i], parts[i + 1]
            i += 2
            ct, rt = col_t[k], row_t[j]
            if a + c and abs(col_a[k] * rt - row_a[j] * ct) * th.denominator >= th.numerator * ct * rt:
                units += a + c
    return units


def config_spread(cfg) -> Fraction:
    """Exact spread probability of a package ``Configuration``, computed here."""
    den = math.lcm(*(m.denominator for col in cfg.cells for c in col for m in (c.a_mass, c.ac_mass)))
    parts = []
    for col in cfg.cells:
        for c in col:
            parts += [int(c.ac_mass * den), int(c.a_mass * den)]
    return F(spread_units(parts, cfg.n_cols, cfg.n_rows, cfg.delta), den)


def config_key(cfg) -> str:
    """Canonical text of a configuration's exact content."""
    cells = ";".join(f"{c.a_mass},{c.ac_mass}" for col in cfg.cells for c in col)
    return f"{cfg.delta}|{cfg.n_cols}x{cfg.n_rows}|{cells}"


def config_json(delta: Fraction, n_cols: int, n_rows: int, cells) -> str:
    """Configuration file text; ``cells`` yields ``(col, row, a, ac)``."""
    return json.dumps(
        {
            "delta": str(delta),
            "cols": n_cols,
            "rows": n_rows,
            "cells": [
                {"col": k, "row": j, "a": str(a), "ac": str(ac)}
                for k, j, a, ac in cells
                if a or ac
            ],
        }
    )


def space_json_of_config(cfg) -> str:
    """Raw space text with one atom per occupied cell, labelled by its line."""
    atoms = [
        {"w": str(c.a_mass + c.ac_mass), "a": str(c.a_mass), "g": f"g{k}", "h": f"h{j}"}
        for k, col in enumerate(cfg.cells, 1)
        for j, c in enumerate(col, 1)
        if c.a_mass or c.ac_mass
    ]
    return json.dumps({"atoms": atoms})


@dataclass
class Item:
    """One input: search parameters or JSON text, and a reduce input's exact spread."""

    delta: Fraction
    params: tuple = ()
    text: str = ""
    spread: Fraction = F(0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_NO_SPAN = nullcontext()


def no_span(name: str):
    """The span hook of an untraced run."""
    return _NO_SPAN


def spaced(items: list, k: int) -> list:
    """Up to ``k`` items evenly spaced through ``items``."""
    return items[:: max(1, len(items) // k)][:k]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

SEARCH_DELTAS = (F(1, 10), F(1, 4), F(1, 3), F(2, 5), F(3, 4))
# The criterion-2 grid 2x2/5 and its neighbours, 364 to 3432 mass vectors
# each, so ops last about 4 to 40 ms. Longer ops, such as the 101k vectors of
# 3x3/6, average over more of a shared host's interference and made each
# input's best latency vary by 15-20% between runs.
EXHAUSTIVE_GRIDS = (
    (2, 2, 5), (2, 2, 6), (2, 2, 7), (2, 3, 3),
    (3, 2, 3), (2, 3, 4), (3, 2, 4), (3, 3, 3),
)
CLIMB_GRIDS = ((2, 2), (3, 3), (4, 4), (2, 4), (4, 3))
CLIMB_ITERS = 1250


def search_inputs(seed: int) -> list[Item]:
    """Every grid at every delta once per pass, in seeded order."""
    rng = random.Random(seed)
    items = []
    for delta in SEARCH_DELTAS:
        for cols, rows, denom in EXHAUSTIVE_GRIDS:
            items.append(Item(delta, ("exhaustive", cols, rows, denom)))
        for cols, rows in CLIMB_GRIDS:
            items.append(Item(delta, ("hill_climb", cols, rows, CLIMB_ITERS, rng.randrange(2**31))))
    rng.shuffle(items)
    return items


def search_op(item: Item, span: Callable):
    kind, cols, rows, *rest = item.params
    if kind == "exhaustive":
        with span("search.exhaustive_search"):
            return search.exhaustive_search(item.delta, cols, rows, rest[0])
    with span("search.hill_climb"):
        return search.hill_climb(item.delta, cols, rows, rest[0], rest[1])


def witness_fits(delta: Fraction, cols: int, rows: int, denom: int) -> bool:
    """True when the 2x2 extremal witness lies on the enumerated grid."""
    if delta >= HALF or cols < 2 or rows < 2:
        return False
    wing, corner = delta / (1 + delta), (1 - delta) / (1 + delta)
    return denom % wing.denominator == 0 and denom % corner.denominator == 0


def search_check(item: Item, res) -> tuple[list[str], str]:
    kind, cols, rows, *rest = item.params
    lam = sharp_bound(item.delta)
    problems = []
    if kind == "exhaustive":
        expected = math.comb(rest[0] + 2 * cols * rows - 1, rest[0])
    else:
        expected = rest[0]
    if res.configs_evaluated != expected:
        problems.append(f"evaluated {res.configs_evaluated} vectors, expected {expected}")
    if res.best_prob_B > lam:
        problems.append(f"best {res.best_prob_B} above the bound {lam}")
    if kind == "exhaustive" and witness_fits(item.delta, cols, rows, rest[0]) and res.best_prob_B != lam:
        problems.append(f"best {res.best_prob_B} misses the bound {lam} on a grid holding the witness")
    if config_spread(res.best_config) != res.best_prob_B:
        problems.append("best_prob_B differs from the spread of best_config")
    output = f"{res.method}|{res.best_prob_B}|{res.configs_evaluated}|{config_key(res.best_config)}"
    return problems, output


def search_counts(item: Item, res) -> dict:
    return {"search.vectors": res.configs_evaluated}


def search_sample(items: list[Item], k: int) -> tuple[list, list[str]]:
    """Best configurations of ``k`` hill climbs, and their raw spaces."""
    climbs = [item for item in items if item.params[0] == "hill_climb"]
    cfgs = [search_op(item, no_span).best_config for item in spaced(climbs, k)]
    return cfgs, [space_json_of_config(c) for c in cfgs]


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

REDUCE_DELTAS = (F(1, 4), F(1, 3), F(2, 5))
REDUCE_MAX_DIM = 6
REDUCE_REPEATS = 2


def reduce_inputs(seed: int) -> list[Item]:
    """Positive-spread grids, every delta and every shape up to 6x6 twice.

    Masses are a uniform composition over 2^4..2^10; draws without spread
    are rejected here by integer cross-multiplication. A 1x1 grid never
    has spread, so it is not a shape.
    """
    rng = random.Random(seed)
    items = []
    for _ in range(REDUCE_REPEATS):
        for delta in REDUCE_DELTAS:
            for cols in range(1, REDUCE_MAX_DIM + 1):
                for rows in range(1, REDUCE_MAX_DIM + 1):
                    if cols == rows == 1:
                        continue
                    while True:
                        denom = 2 ** rng.randint(4, 10)
                        parts = composition(rng, denom, 2 * cols * rows)
                        units = spread_units(parts, cols, rows, delta)
                        if units:
                            break
                    cells = [
                        (k + 1, j + 1, F(parts[2 * (k * rows + j) + 1], denom), F(parts[2 * (k * rows + j)], denom))
                        for k in range(cols)
                        for j in range(rows)
                    ]
                    text = config_json(delta, cols, rows, cells)
                    items.append(Item(delta, text=text, spread=F(units, denom)))
    rng.shuffle(items)
    return items


def reduce_op(item: Item, span: Callable):
    """What ``expert-spread reduce`` does for one file, in process."""
    with span("config.load_config"):
        cfg = config.load_config(io.StringIO(item.text))
    with span("transforms.reduce"):
        result = transforms.reduce(cfg, EPS)
    out = result["out"]
    with span("bounds.certify_upper_bound"):
        cert = bounds.certify_upper_bound(out)
    buf = io.StringIO()
    with span("config.dump_config"):
        config.dump_config(out, buf)
    return result, cert, buf.getvalue()


def reduce_check(item: Item, res) -> tuple[list[str], str]:
    result, cert, text = res
    out = result["out"]
    after = config_spread(out)
    problems = []
    if not item.spread - after < EPS:
        problems.append(f"spread fell from {item.spread} to {after}, not less than {EPS}")
    shape = search.reduced_shape_problem(out)
    if shape is not None:
        problems.append(f"exit shape not reached: {shape}")
    if not after <= cert <= sharp_bound(item.delta):
        problems.append(f"certificate {cert} outside [{after}, {sharp_bound(item.delta)}]")
    dumped = json.dumps(json.loads(text), sort_keys=True)
    return problems, f"{dumped}|{cert}|{len(result['trace'])}"


def reduce_counts(item: Item, res) -> dict:
    return {"transforms.steps": len(res[0]["trace"])}


def reduce_sample(items: list[Item], k: int) -> tuple[list, list[str]]:
    """``k`` input configurations, and their raw spaces."""
    cfgs = [config.load_config(io.StringIO(item.text)) for item in spaced(items, k)]
    return cfgs, [space_json_of_config(c) for c in cfgs]


# ---------------------------------------------------------------------------
# coarsen
# ---------------------------------------------------------------------------

COARSEN_DELTAS = (F(1, 4), F(1, 3), F(2, 5))
COARSEN_MAX_ATOMS = 12
COARSEN_MAX_LABELS = 5
COARSEN_REPEATS = 10
RESOLUTIONS = (4, 16, 64)


def coarsen_inputs(seed: int) -> list[Item]:
    """Raw spaces with 1..12 atoms and up to 5 labels per expert, 10 per (delta, atoms)."""
    rng = random.Random(seed)
    items = []
    for _ in range(COARSEN_REPEATS):
        for delta in COARSEN_DELTAS:
            for n_atoms in range(1, COARSEN_MAX_ATOMS + 1):
                denom = 2 ** rng.randint(4, 10)
                atoms = []
                for w in composition(rng, denom, n_atoms):
                    a = rng.randint(0, w)
                    atoms.append(
                        {
                            "w": str(F(w, denom)),
                            "a": str(F(a, denom)),
                            "g": f"g{rng.randint(1, COARSEN_MAX_LABELS)}",
                            "h": f"h{rng.randint(1, COARSEN_MAX_LABELS)}",
                        }
                    )
                items.append(Item(delta, text=json.dumps({"atoms": atoms})))
    rng.shuffle(items)
    return items


def coarsen_op(item: Item, span: Callable):
    d = item.delta
    with span("discretize.load_space"):
        space = discretize.load_space(io.StringIO(item.text))
    with span("discretize.spread_probability"):
        raw = discretize.spread_probability(space, 1 - d)
    levels = []
    for n in RESOLUTIONS:
        with span("discretize.grid_coarsen"):
            result = discretize.grid_coarsen(space, n, d)
        cfg = result["cfg"]
        with span("discretize.threshold_probability"):
            coarse = discretize.threshold_probability(cfg, 1 - d - F(2, n))
        with span("config.verify_checks"):
            bad = (
                config.overlap_violations(cfg),
                config.separation_violations(cfg),
                config.pitman_inclusion_violations(cfg),
            )
        levels.append((n, result, coarse, bad))
    return raw, levels


def coarsen_check(item: Item, res) -> tuple[list[str], str]:
    raw, levels = res
    problems, parts = [], [str(raw)]
    for n, result, coarse, bad in levels:
        sx, sy = result["report"]["max_x_shift"], result["report"]["max_y_shift"]
        if sx > F(1, n) or sy > F(1, n):
            problems.append(f"n={n}: shifts {sx}, {sy} exceed 1/{n}")
        if not raw <= coarse:
            problems.append(f"n={n}: raw spread {raw} above coarse {coarse}")
        if any(bad):
            problems.append(f"n={n}: verify violations {bad}")
        parts.append(f"{n}|{sx}|{sy}|{coarse}|{config_key(result['cfg'])}")
    return problems, "#".join(parts)


def coarsen_counts(item: Item, res) -> dict:
    return {"discretize.coarse_cells": sum(r["cfg"].n_cols * r["cfg"].n_rows for _, r, _, _ in res[1])}


def coarsen_sample(items: list[Item], k: int) -> tuple[list, list[str]]:
    """The first ``k`` spaces whose configuration has spread, and those configurations.

    Positive spread lets the probe reduce the configurations as well.
    """
    cfgs, texts = [], []
    for item in items:
        cfg = discretize.to_configuration(discretize.load_space(io.StringIO(item.text)), item.delta)
        if config_spread(cfg) > 0:
            cfgs.append(cfg)
            texts.append(item.text)
            if len(cfgs) == k:
                break
    return cfgs, texts


@dataclass(frozen=True)
class Workload:
    """Inputs from a seed, one op, its contract check, per-op counts, and the probe's sample."""

    name: str
    inputs: Callable
    op: Callable
    check: Callable
    counts: Callable
    sample: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", search_inputs, search_op, search_check, search_counts, search_sample),
        Workload("reduce", reduce_inputs, reduce_op, reduce_check, reduce_counts, reduce_sample),
        Workload("coarsen", coarsen_inputs, coarsen_op, coarsen_check, coarsen_counts, coarsen_sample),
    )
}
