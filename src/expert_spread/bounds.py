"""Closed-form bounds on the spread probability and the witnesses that meet them.

The central quantity is the sharp bound ``2*delta/(1+delta)`` on the
probability that two conditional estimates of the same event differ by at
least ``1 - delta``, valid for ``delta < 1/2``; from ``1/2`` on the bound is
the trivial ``1``.  This module provides the bound itself, the weaker linear
``2*delta`` bound it improves upon, explicit configurations attaining the
interesting values, and a certificate routine that bounds the spread
probability of a fully reduced configuration from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import (
    Configuration,
    ConfigError,
    DomainError,
    InternalStateError,
    RationalLike,
    compute_stats,
    make_configuration,
    rational_to_decimal,
    rational_to_str,
    validate_delta,
)

HALF = Fraction(1, 2)


def lambda_sharp(delta: RationalLike) -> Fraction:
    """Largest possible spread probability for gap ``1 - delta``.

    Equals ``2*delta/(1+delta)`` below one half and ``1`` from one half on.
    Raises :class:`DomainError` outside the open interval (0, 1).
    """
    d = validate_delta(delta)
    if d >= HALF:
        return Fraction(1)
    return 2 * d / (1 + d)


def pitman_upper(delta: RationalLike) -> Fraction:
    """The simple linear bound ``2*delta``, valid only below one half.

    Raises :class:`DomainError` for ``delta >= 1/2`` where the linear bound
    is meaningless (it would exceed 1 long before the trivial bound does).
    """
    d = validate_delta(delta)
    if d >= HALF:
        raise DomainError(f"the linear bound requires delta < 1/2, got {d}")
    return 2 * d


def extremal_config(delta: RationalLike) -> Configuration:
    """The two-by-two configuration attaining the sharp bound.

    Column and row conditionals are ``[delta, 1]`` on both axes.  The two
    off-diagonal cells each hold mass ``delta/(1+delta)`` of pure event mass,
    the corner holds the complement, and the spread probability works out to
    exactly ``2*delta/(1+delta)``.
    """
    d = validate_delta(delta)
    lam = 2 * d / (1 + d)
    corner = 1 - lam
    wing = d / (1 + d)
    return make_configuration(
        delta=d,
        n_cols=2,
        n_rows=2,
        masses={
            (1, 1): (Fraction(0), corner),
            (1, 2): (wing, Fraction(0)),
            (2, 1): (wing, Fraction(0)),
        },
    )


def halfpoint_example(delta: RationalLike = HALF) -> Configuration:
    """A configuration whose spread probability jumps to 1 at ``delta = 1/2``.

    One column split into two rows: half the mass is pure complement in a row
    with conditional 0, half is pure event mass in a row with conditional 1.
    The column conditional is one half, so both cells have spread exactly one
    half.  For ``delta >= 1/2`` every cell clears the gap ``1 - delta`` and
    the spread probability is 1; for any ``delta < 1/2`` it is 0.  This shows
    the sharp bound's jump at one half is genuine.
    """
    d = validate_delta(delta)
    return make_configuration(
        delta=d,
        n_cols=1,
        n_rows=2,
        masses={
            (1, 1): (Fraction(0), HALF),
            (1, 2): (HALF, Fraction(0)),
        },
    )


def correlation_example(delta: RationalLike) -> dict:
    """Joint distribution of the two estimates under the extremal configuration.

    Returns the three support points of ``(X, Y)`` with their masses, one
    per positive cell of :func:`extremal_config` in column-major order,
    plus the exact correlation, which works out to ``-delta``: maximal
    spread forces the estimates to disagree in a precisely anti-correlated
    way.
    """
    cfg = extremal_config(delta)
    s = compute_stats(cfg)
    points = [
        ((s.x[k], s.y[j]), cell.mass)
        for k, col in enumerate(cfg.cells)
        for j, cell in enumerate(col)
        if cell.mass > 0
    ]

    mean_x = sum((px * w for (px, _), w in points), Fraction(0))
    mean_y = sum((py * w for (_, py), w in points), Fraction(0))
    var_x = sum(((px - mean_x) ** 2 * w for (px, _), w in points), Fraction(0))
    var_y = sum(((py - mean_y) ** 2 * w for (_, py), w in points), Fraction(0))
    cov = sum(
        ((px - mean_x) * (py - mean_y) * w for (px, py), w in points),
        Fraction(0),
    )
    if var_x == 0 or var_x != var_y:
        raise InternalStateError("marginals of the correlation example must match")
    return {"points": points, "correlation": cov / var_x}


def certify_upper_bound(cfg: Configuration) -> Fraction:
    """Certificate bounding the spread probability of a reduced configuration.

    Requires every column and every row to contain at most one cell that both
    lies in the spread region and carries positive mass; otherwise raises
    :class:`ConfigError` naming the offending line.  The certificate is the
    sum over occupied columns of ``delta/(1+delta)`` times the column mass
    plus the partner row mass.  It always dominates the spread probability
    and never exceeds the sharp bound.
    """
    s = compute_stats(cfg)
    parts, n = cfg._parts, cfg.n_rows
    positive = [
        (k + 1, j + 1)
        for k, col in enumerate(s.b_mask)
        for j, b in enumerate(col)
        if b and (parts[2 * (k * n + j)] or parts[2 * (k * n + j) + 1])
    ]
    by_col: dict[int, list[int]] = {}
    by_row: dict[int, list[int]] = {}
    for k, j in positive:
        by_col.setdefault(k, []).append(j)
        by_row.setdefault(j, []).append(k)
    for k, rows in sorted(by_col.items()):
        if len(rows) > 1:
            raise ConfigError(
                f"column {k} has {len(rows)} positive-mass spread cells; "
                "certificate needs at most one per column"
            )
    for j, cols in sorted(by_row.items()):
        if len(cols) > 1:
            raise ConfigError(
                f"row {j} has {len(cols)} positive-mass spread cells; "
                "certificate needs at most one per row"
            )

    ratio = cfg.delta / (1 + cfg.delta)
    cert = sum(
        (ratio * (s.p[k - 1] + s.q[j - 1]) for k, j in positive),
        Fraction(0),
    )
    if cert < s.prob_B:
        raise InternalStateError(
            f"certificate {cert} fell below the spread probability {s.prob_B}"
        )
    if cert > 2 * cfg.delta / (1 + cfg.delta):
        raise InternalStateError(
            f"certificate {cert} exceeded the sharp bound at delta={cfg.delta}"
        )
    return cert


@dataclass(frozen=True)
class BoundReport:
    """Bundle of bound values at a single ``delta``.

    ``pitman_upper`` is ``None`` from one half on, where the linear bound is
    undefined.  ``certified_upper`` is only present when a reduced
    configuration was certified.
    """

    delta: Fraction
    lambda_sharp: Fraction
    pitman_upper: Optional[Fraction]
    achieved: Fraction
    certified_upper: Optional[Fraction] = None


def make_report(
    delta: RationalLike,
    cfg: Optional[Configuration] = None,
    certify: bool = False,
) -> BoundReport:
    """Build a :class:`BoundReport`, defaulting to the extremal configuration."""
    d = validate_delta(delta)
    if cfg is None:
        cfg = extremal_config(d)
    s = compute_stats(cfg)
    return BoundReport(
        delta=d,
        lambda_sharp=lambda_sharp(d),
        pitman_upper=pitman_upper(d) if d < HALF else None,
        achieved=s.prob_B,
        certified_upper=certify_upper_bound(cfg) if certify else None,
    )


def report_to_json_dict(report: BoundReport) -> dict:
    """Serialize a report with exact rationals plus decimal twins."""
    out: dict = {}
    for name in ("delta", "lambda_sharp", "pitman_upper", "achieved", "certified_upper"):
        value = getattr(report, name)
        if value is None:
            out[name] = None
            out[name + "_dec"] = None
        else:
            out[name] = rational_to_str(value)
            out[name + "_dec"] = rational_to_decimal(value)
    return out
