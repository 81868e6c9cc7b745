"""Closed-form bounds, named witnesses, and the certificate routine."""

from fractions import Fraction

import pytest

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
    DomainError,
    compute_stats,
    make_configuration,
)

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
    cfg = extremal_config(F(1, 4))
    rep = make_report(F(1, 4), cfg, certify=True)
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


def test_report_without_certification_leaves_it_unset():
    wire = report_to_json_dict(make_report(F(1, 4)))
    assert wire["certified_upper"] is None
