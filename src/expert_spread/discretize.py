"""From arbitrary finite labeled spaces to grid configurations.

A raw space is a list of atoms, each carrying a total weight, the part of
that weight on which the event holds, and one label per expert. Grouping
atoms by label pair turns the space into a configuration; binning the
per-label conditional probabilities onto a 1/n grid coarsens it while
moving every conditional by at most 1/n. Both steps are exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    RationalLike,
    _json_exact,
    _shown,
    _spread_on_lattice,
    make_configuration,
    normalize,
    parse_rational,
    rational_to_str,
    validate_delta,
)
from .search import _random_parts


# ---------------------------------------------------------------------------
# Raw spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """One elementary outcome: total weight, event share, two labels."""

    weight: Fraction
    a_weight: Fraction
    g_label: str
    h_label: str

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError(f"atom weight must be non-negative, got {_shown(self.weight)}")
        if not 0 <= self.a_weight <= self.weight:
            raise ConfigError(
                f"atom event share must lie in [0, weight], got "
                f"{_shown(self.a_weight)} with weight {_shown(self.weight)}"
            )


@dataclass(frozen=True)
class RawSpace:
    """A finite labeled probability space.

    Atoms may repeat label pairs freely; weights must sum to one exactly.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        total = sum((atom.weight for atom in self.atoms), Fraction(0))
        if total != 1:
            raise ConfigError(f"atom weights must sum to 1, got {_shown(total)}")


def make_space(atoms: list[tuple[RationalLike, RationalLike, str, str]]) -> RawSpace:
    """Build a space from (weight, a_weight, g_label, h_label) tuples."""
    built = tuple(
        Atom(
            weight=parse_rational(w),
            a_weight=parse_rational(a),
            g_label=str(g),
            h_label=str(h),
        )
        for w, a, g, h in atoms
    )
    return RawSpace(atoms=built)


# ---------------------------------------------------------------------------
# Conditional values per label
# ---------------------------------------------------------------------------


def label_values(space: RawSpace) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Exact conditional event probability per column label and row label.

    Labels whose atoms carry zero total weight have no conditional value
    and are omitted.
    """
    g_w: dict[str, Fraction] = {}
    g_a: dict[str, Fraction] = {}
    h_w: dict[str, Fraction] = {}
    h_a: dict[str, Fraction] = {}
    for atom in space.atoms:
        g_w[atom.g_label] = g_w.get(atom.g_label, Fraction(0)) + atom.weight
        g_a[atom.g_label] = g_a.get(atom.g_label, Fraction(0)) + atom.a_weight
        h_w[atom.h_label] = h_w.get(atom.h_label, Fraction(0)) + atom.weight
        h_a[atom.h_label] = h_a.get(atom.h_label, Fraction(0)) + atom.a_weight
    x = {g: g_a[g] / w for g, w in g_w.items() if w > 0}
    y = {h: h_a[h] / w for h, w in h_w.items() if w > 0}
    return x, y


def spread_probability(space: RawSpace, threshold: Fraction) -> Fraction:
    """Mass of atoms whose two conditional forecasts differ by >= threshold."""
    x, y = label_values(space)
    total = Fraction(0)
    for atom in space.atoms:
        if atom.weight == 0:
            continue
        if abs(x[atom.g_label] - y[atom.h_label]) >= threshold:
            total += atom.weight
    return total


def threshold_probability(cfg: Configuration, threshold: Fraction) -> Fraction:
    """Mass of cells whose column and row values differ by >= threshold.

    With ``threshold = 1 - delta`` this is the configuration's spread
    probability; other thresholds support the coarsening comparison, whose
    right-hand side uses a threshold lowered by 2/n. A non-positive
    threshold makes every cell count, so the result is 1.
    """
    *_, b_num, den = _spread_on_lattice(cfg, threshold)
    return Fraction(b_num, den)


# ---------------------------------------------------------------------------
# Conversion and coarsening
# ---------------------------------------------------------------------------


def to_configuration(space: RawSpace, delta: RationalLike) -> Configuration:
    """Group atoms by label pair into a normalized configuration.

    Columns follow the first appearance order of column labels, rows of row
    labels; the final order is whatever :func:`normalize` produces from the
    conditional values. Labels carried only by zero-weight atoms vanish
    with their zero lines.
    """
    d = validate_delta(delta)
    if not space.atoms:
        raise ConfigError("cannot build a configuration from an empty label set")
    g_order: list[str] = []
    h_order: list[str] = []
    for atom in space.atoms:
        if atom.g_label not in g_order:
            g_order.append(atom.g_label)
        if atom.h_label not in h_order:
            h_order.append(atom.h_label)
    g_index = {g: i + 1 for i, g in enumerate(g_order)}
    h_index = {h: i + 1 for i, h in enumerate(h_order)}
    masses: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for atom in space.atoms:
        key = (g_index[atom.g_label], h_index[atom.h_label])
        a0, c0 = masses.get(key, (Fraction(0), Fraction(0)))
        masses[key] = (a0 + atom.a_weight, c0 + atom.weight - atom.a_weight)
    cfg = make_configuration(d, len(g_order), len(h_order), masses)
    return normalize(cfg)


def _bin_of(value: Fraction, n: int) -> int:
    """Half-open 1/n bins, with the top value 1 in bin n."""
    scaled = n * value
    return scaled.numerator // scaled.denominator


def grid_coarsen(space: RawSpace, n: int, delta: RationalLike) -> dict:
    """Bin both experts' conditionals onto a 1/n grid.

    Column labels with the same floor(n * X) merge into one column, row
    labels likewise by floor(n * Y); the merged conditionals are the
    weight-averaged originals, so no conditional moves by 1/n or more.
    Returns the coarsened configuration under ``"cfg"`` and the largest
    observed moves under ``"report"``.
    """
    d = validate_delta(delta)
    if n < 2:
        raise DomainError(f"grid resolution must be at least 2, got {n}")
    if not space.atoms:
        raise ConfigError("cannot coarsen an empty label set")
    x, y = label_values(space)
    relabeled = []
    for atom in space.atoms:
        if atom.weight == 0:
            continue
        gb = _bin_of(x[atom.g_label], n)
        hb = _bin_of(y[atom.h_label], n)
        relabeled.append(Atom(atom.weight, atom.a_weight, f"{gb:04d}", f"{hb:04d}"))
    coarse_space = RawSpace(atoms=tuple(relabeled))
    cfg = to_configuration(coarse_space, d)
    xc, yc = label_values(coarse_space)
    max_x_shift = max(
        (abs(value - xc[f"{_bin_of(value, n):04d}"]) for value in x.values()),
        default=Fraction(0),
    )
    max_y_shift = max(
        (abs(value - yc[f"{_bin_of(value, n):04d}"]) for value in y.values()),
        default=Fraction(0),
    )
    return {
        "cfg": cfg,
        "report": {"max_x_shift": max_x_shift, "max_y_shift": max_y_shift},
    }


# ---------------------------------------------------------------------------
# Randomized spaces for property tests
# ---------------------------------------------------------------------------


def random_space(
    rng: random.Random, max_atoms: int = 12, max_labels: int = 5
) -> RawSpace:
    """One seeded random space with deliberately colliding labels."""
    n_atoms = rng.randint(1, max_atoms)
    denom = 2 ** rng.randint(4, 10)
    atoms = []
    for w in _random_parts(rng, denom, n_atoms):
        a = rng.randint(0, w)
        atoms.append(
            Atom(
                Fraction(w, denom),
                Fraction(a, denom),
                f"g{rng.randint(1, max_labels)}",
                f"h{rng.randint(1, max_labels)}",
            )
        )
    return RawSpace(atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def space_to_json_dict(space: RawSpace) -> dict:
    return {
        "atoms": [
            {
                "w": rational_to_str(atom.weight),
                "a": rational_to_str(atom.a_weight),
                "g": atom.g_label,
                "h": atom.h_label,
            }
            for atom in space.atoms
        ]
    }


def space_from_json_dict(data: Mapping) -> RawSpace:
    try:
        raw_atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("space JSON must be an object with an 'atoms' list") from exc
    if not isinstance(raw_atoms, (list, tuple)):
        raise ConfigError("space JSON must be an object with an 'atoms' list")
    atoms = []
    for entry in raw_atoms:
        try:
            atoms.append(
                Atom(
                    weight=parse_rational(_json_exact(entry["w"], "w")),
                    a_weight=parse_rational(_json_exact(entry["a"], "a")),
                    g_label=str(entry["g"]),
                    h_label=str(entry["h"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed atom entry: {entry!r}") from exc
    return RawSpace(atoms=tuple(atoms))


def dump_space(space: RawSpace, fp: IO[str]) -> None:
    json.dump(space_to_json_dict(space), fp, indent=2)
    fp.write("\n")


def load_space(fp: IO[str]) -> RawSpace:
    try:
        data = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"space file is not valid JSON: {exc}") from exc
    return space_from_json_dict(data)
