"""Panel weighting and combination rules for the moving-average estimators."""

import math

import pytest

from timberline.errors import UsageError
from timberline.panels import (
    normalize_lambdas,
    panel_weights,
    present_weights,
)


def test_sma_weights_uniform():
    assert panel_weights("SMA", 5) == [0.2] * 5


def test_lma_weights_linear():
    # p / sum(1..4): 1/10, 2/10, 3/10, 4/10
    assert panel_weights("LMA", 4) == pytest.approx([0.1, 0.2, 0.3, 0.4])


def test_ema_weights_geometric_decay():
    got = panel_weights("EMA", 5, lam=0.5)
    # lam^(N-p) scaled to sum 1; newest panel has the largest share
    want = [1 / 31, 2 / 31, 4 / 31, 8 / 31, 16 / 31]
    assert got == pytest.approx(want, rel=1e-12)
    assert got[-1] == max(got)


def test_weights_sum_to_one_across_grid():
    for n in range(1, 11):
        for method in ("SMA", "LMA"):
            assert math.fsum(panel_weights(method, n)) == pytest.approx(1.0, abs=1e-12)
        lam = 0.05
        while lam < 1.0:
            assert math.fsum(panel_weights("EMA", n, lam)) == pytest.approx(1.0, abs=1e-12)
            lam += 0.05


def test_non_averaging_methods_have_no_weights():
    assert panel_weights("TI", 5) is None
    assert panel_weights("ANNUAL", 5) is None


def test_ema_lambda_must_be_strictly_inside_unit_interval():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(UsageError):
            panel_weights("EMA", 5, bad)
    # omitted lambda falls back to the default decay
    assert panel_weights("EMA", 5, None) == panel_weights("EMA", 5, 0.5)


def test_unknown_method_rejected():
    with pytest.raises(UsageError):
        panel_weights("WMA", 5)


def test_present_weights_renormalize_over_observed_panels():
    w = [0.1, 0.2, 0.3, 0.4]
    got = present_weights(w, [True, False, True, True])
    # kept mass = 0.8
    assert got == pytest.approx([0.125, 0.0, 0.375, 0.5])
    assert math.fsum(got) == pytest.approx(1.0)


def test_present_weights_all_absent_raises():
    from timberline.errors import EstimationError

    with pytest.raises(EstimationError):
        present_weights([0.5, 0.5], [False, False])


def test_normalize_lambdas_sorts_and_dedupes():
    assert normalize_lambdas([0.7, 0.3, 0.7]) == (0.3, 0.7)
    assert normalize_lambdas([]) == (0.5,)
