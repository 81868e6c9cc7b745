"""Closed-form bounds, named witnesses, and the certificate routine."""

import random
from fractions import Fraction

import pytest

from expert_spread import bounds, config
from expert_spread.bounds import (
    certify_upper_bound,
    correlation_example,
    extremal_config,
    halfpoint_example,
    lambda_sharp,
    make_report,
    pitman_upper,
    report_to_json_dict,
)
from expert_spread.config import (
    ConfigError,
    Configuration,
    DomainError,
    InternalStateError,
    _GridStats,
    compute_stats,
    make_configuration,
    overlap_violations,
    pitman_inclusion_violations,
    separation_violations,
)
from expert_spread.search import _random_parts
from expert_spread.transforms import reduce

F = Fraction

SPOT_VALUES = {
    F(1, 10): F(2, 11),
    F(1, 4): F(2, 5),
    F(1, 3): F(1, 2),
    F(2, 5): F(4, 7),
}


def test_sharp_bound_spot_values():
    for delta, expected in SPOT_VALUES.items():
        assert lambda_sharp(delta) == expected
    for delta in (F(1, 2), F(3, 4), F(99, 100)):
        assert lambda_sharp(delta) == 1


def test_sharp_bound_closed_form_below_one_half():
    for num in range(1, 50):
        d = F(num, 100)
        assert lambda_sharp(d) == 2 * d / (1 + d)


def test_sharp_bound_is_monotone_with_a_jump():
    grid = [F(k, 64) for k in range(1, 64)]
    values = [lambda_sharp(d) for d in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert lambda_sharp(F(49, 100)) == F(98, 149)
    assert lambda_sharp(F(1, 2)) == 1


def test_sharp_bound_domain():
    for bad in (0, 1, F(5, 4)):
        with pytest.raises(DomainError):
            lambda_sharp(bad)


def test_linear_upper_bound():
    assert pitman_upper(F(1, 10)) == F(1, 5)
    assert pitman_upper(F(1, 4)) == F(1, 2)
    assert pitman_upper(F(49, 100)) == F(49, 50)
    for bad in (F(1, 2), F(3, 4)):
        with pytest.raises(DomainError):
            pitman_upper(bad)


def test_sharp_bound_strictly_below_linear_bound():
    for num in range(1, 50):
        d = F(num, 100)
        assert lambda_sharp(d) < pitman_upper(d)


def test_bound_gap_vanishes_quadratically():
    # near zero the two bounds agree to first order
    d = F(1, 1000)
    assert pitman_upper(d) - lambda_sharp(d) == 2 * d * d / (1 + d)


def test_extremal_witness_attains_the_bound_below_one_half():
    for delta, expected in SPOT_VALUES.items():
        cfg = extremal_config(delta)
        s = compute_stats(cfg)
        assert (cfg.n_cols, cfg.n_rows) == (2, 2)
        assert s.prob_B == expected == lambda_sharp(delta)
        assert s.x == s.y == (delta, F(1))
        wing = delta / (1 + delta)
        assert cfg.cells[0][1].a_mass == wing
        assert cfg.cells[1][0].a_mass == wing
        assert cfg.cells[0][0].ac_mass == 1 - 2 * wing


def test_extremal_witness_keeps_the_ratio_form_above_one_half():
    # the ratio-form witness stays a valid configuration but no longer
    # reaches the bound, which jumps to one
    for delta in (F(1, 2), F(3, 4)):
        s = compute_stats(extremal_config(delta))
        assert s.prob_B == 2 * delta / (1 + delta) < lambda_sharp(delta)


def test_halfpoint_witness_straddles_the_jump():
    cases = {F(1, 2): F(1), F(3, 4): F(1), F(49, 100): F(0)}
    for delta, expected in cases.items():
        s = compute_stats(halfpoint_example(delta))
        assert s.prob_B == expected
    default = halfpoint_example()
    assert (default.n_cols, default.n_rows) == (1, 2)
    s = compute_stats(default)
    assert s.x == (F(1, 2),)
    assert s.y == (F(0), F(1))
    assert s.prob_B == 1


def test_correlation_example_is_negative_delta():
    for delta in (F(1, 4), F(1, 2), F(9, 10)):
        ex = correlation_example(delta)
        assert ex["correlation"] == -delta
        points = ex["points"]
        assert sum(w for _, w in points) == 1
        assert all(w > 0 for _, w in points)
        values = {value for value, _ in points}
        assert values == {(delta, delta), (delta, F(1)), (F(1), delta)}


def test_correlation_points_are_the_witness_values_on_positive_cells():
    for delta in (F(1, 4), F(1, 3), F(1, 2), F(9, 10)):
        cfg = extremal_config(delta)
        s = compute_stats(cfg)
        expected = [
            ((s.x[k - 1], s.y[j - 1]), cfg.cell(k, j).mass)
            for k in (1, 2)
            for j in (1, 2)
            if cfg.cell(k, j).mass > 0
        ]
        assert correlation_example(delta)["points"] == expected


def test_certificate_on_the_extremal_witness():
    for delta in SPOT_VALUES:
        assert certify_upper_bound(extremal_config(delta)) == lambda_sharp(delta)


def test_certificate_rejects_shared_column():
    # two positive spread cells in the same column defeat the per-line
    # overlap argument, so the certificate must refuse
    cfg = make_configuration(
        F(1, 4),
        2,
        3,
        {
            (1, 1): (0, F(6, 10)),
            (1, 2): (F(1, 10), 0),
            (1, 3): (F(1, 10), 0),
            (2, 1): (F(2, 10), 0),
        },
    )
    with pytest.raises(ConfigError):
        certify_upper_bound(cfg)


def test_certificate_rejects_shared_row():
    cfg = make_configuration(
        F(1, 4),
        3,
        2,
        {
            (1, 1): (0, F(6, 10)),
            (2, 1): (F(1, 10), 0),
            (3, 1): (F(1, 10), 0),
            (1, 2): (F(2, 10), 0),
        },
    )
    with pytest.raises(ConfigError):
        certify_upper_bound(cfg)


def test_report_with_certificate():
    rep = make_report(F(1, 4))
    wire = report_to_json_dict(rep)
    assert wire == {
        "delta": "1/4",
        "delta_dec": "0.25",
        "lambda_sharp": "2/5",
        "lambda_sharp_dec": "0.4",
        "pitman_upper": "1/2",
        "pitman_upper_dec": "0.5",
        "achieved": "2/5",
        "achieved_dec": "0.4",
        "certified_upper": "2/5",
        "certified_upper_dec": "0.4",
    }


def test_report_blanks_linear_bound_above_one_half():
    wire = report_to_json_dict(make_report(F(3, 4)))
    assert wire["lambda_sharp"] == "1"
    assert wire["pitman_upper"] is None
    assert wire["pitman_upper_dec"] is None


def reference_certificate(cfg):
    """certify_upper_bound's body on the Fraction statistics, before it read integers."""
    s = compute_stats(cfg)
    parts, n = cfg._parts, cfg.n_rows
    positive = [
        (k + 1, j + 1)
        for k, col in enumerate(s.b_mask)
        for j, b in enumerate(col)
        if b and (parts[2 * (k * n + j)] or parts[2 * (k * n + j) + 1])
    ]
    by_col = {}
    by_row = {}
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
    cert = sum((ratio * (s.p[k - 1] + s.q[j - 1]) for k, j in positive), Fraction(0))
    if cert < s.prob_B:
        raise InternalStateError(
            f"certificate {cert} fell below the spread probability {s.prob_B}"
        )
    if cert > 2 * cfg.delta / (1 + cfg.delta):
        raise InternalStateError(
            f"certificate {cert} exceeded the sharp bound at delta={cfg.delta}"
        )
    return cert


def certificate_outcome(certify, cfg):
    """The certificate, or the error's type and text."""
    try:
        cert = certify(cfg)
    except (ConfigError, InternalStateError) as exc:
        return type(exc), str(exc)
    assert cert.__class__ is Fraction
    return cert


def test_certificate_matches_the_fraction_reference():
    """Reduced grids certify to the reference's value, unreduced ones fail with its text."""
    rng = random.Random(1912)
    deltas = (F(1, 10), F(1, 4), F(1, 3), F(2, 5), F(9, 20))
    cases = [extremal_config(delta) for delta in list(deltas) + [F(1, 2), F(3, 4)]]
    while len(cases) < 400:
        n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
        denom = rng.choice((12, 60, 64, 210, 1024))
        parts = _random_parts(rng, denom, 2 * n_cols * n_rows)
        cfg = Configuration._from_parts(rng.choice(deltas), n_cols, n_rows, parts, denom)
        try:
            if compute_stats(cfg).prob_B == 0:
                continue
        except ConfigError:
            continue  # a zero-mass line
        cases += [cfg, reduce(cfg, F(1, 1000))["out"]]
    seen = {"certified": 0, "column": 0, "row": 0}
    for cfg in cases:
        compute_stats.cache_clear()
        want = certificate_outcome(reference_certificate, cfg)
        compute_stats.cache_clear()
        assert certificate_outcome(certify_upper_bound, cfg) == want
        if want.__class__ is Fraction:
            seen["certified"] += 1
        else:
            assert want[0] is ConfigError
            seen[want[1].split()[0]] += 1
    assert seen["certified"] > 200 and seen["column"] > 10 and seen["row"] > 10, seen


def tampered(cfg, **fields):
    """A copy of ``cfg``'s memo entry with some statistics replaced."""
    g = config._grid_stats(cfg)
    copy = _GridStats()
    for name in _GridStats.__slots__:
        setattr(copy, name, getattr(g, name))
    copy.stats = None
    for name, value in fields.items():
        setattr(copy, name, value)
    return copy


def test_violation_scanners_report_a_tampered_cell(monkeypatch):
    """Each verify scan's report line, reached by a tampered memo entry."""
    cfg = extremal_config(F(1, 4))
    # over 5, cell (1, 1) holds 3, cells (1, 2) and (2, 1) hold 1 each, and
    # both axes have line values 1/4 and 1
    flagged = tampered(cfg, side=((1, -1), (1, 0)))
    for scan, entry in (
        # (1, 1) flagged, though neither of its lines' values 1/4 reaches 3/4
        (pitman_inclusion_violations, flagged),
        # (1, 1) flagged, and its mass 3 is over 1/5 of its lines' 8
        (overlap_violations, flagged),
        # (1, 1) as its whole column and row, of values 2/3 and 1/3: its
        # separation bound is 0
        (separation_violations, tampered(cfg, col_t=[3, 1], col_a=[2, 1], row_t=[3, 1])),
    ):
        assert scan(cfg) == []
        with monkeypatch.context() as patch:
            patch.setattr(config, "_grid_stats", lambda c: entry)
            assert scan(cfg) == [(1, 1)]


def test_correlation_example_refuses_unequal_marginals(monkeypatch):
    # the witness is symmetric in its two axes; this grid is not, so its
    # marginal variances are 1/4 and 1/12
    lopsided = make_configuration(
        F(1, 4), 2, 2, {(1, 1): (0, F(1, 2)), (2, 1): (F(1, 4), 0), (2, 2): (F(1, 4), 0)}
    )
    monkeypatch.setattr(bounds, "extremal_config", lambda delta: lopsided)
    with pytest.raises(
        InternalStateError, match="^marginals of the correlation example must match$"
    ):
        correlation_example(F(1, 4))


def test_certificate_guards_fire_on_broken_statistics(monkeypatch):
    """Both InternalStateError guards, reached by a tampered memo entry, as in the reference."""
    cfg = extremal_config(F(1, 4))
    den = cfg._den
    g = config._grid_stats(cfg)
    # all the mass counted as spread: the spread probability 1 beats 2/5
    above = tampered(cfg, b_num=den, prob_B=F(1))
    # one more unit of mass in the first column, which holds a spread cell:
    # the certificate gains 1/5, past the sharp bound 2/5
    wide = tampered(cfg, col_t=[g.col_t[0] + den] + list(g.col_t[1:]))
    for entry, text in (
        (above, "certificate 2/5 fell below the spread probability 1"),
        (wide, "certificate 3/5 exceeded the sharp bound at delta=1/4"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(config, "_grid_stats", lambda c: entry)
            patch.setattr(bounds, "_grid_stats", lambda c: entry)
            want = certificate_outcome(reference_certificate, cfg)
            assert want == (InternalStateError, text)
            assert certificate_outcome(certify_upper_bound, cfg) == want
