"""Synthetic fixtures, randomized databases, and Monte Carlo machinery."""

import math
import random
import statistics

import pytest

from conftest import same_contents
import timberline as tl
from timberline.synth import (
    FIXTURE_NAMES,
    SyntheticPopulation,
    bootstrap_diff_ci,
    draw_database,
    make_population,
    monte_carlo_bias_variance,
    random_database,
)


def test_fixture_names_and_unknown():
    assert set(FIXTURE_NAMES) == {"SYNTH-1", "SYNTH-5PANEL", "SYNTH-GRM", "SYNTH-INV"}
    for name in FIXTURE_NAMES:
        assert tl.validate_integrity(tl.build_fixture(name)) == []
    with pytest.raises(KeyError, match="unknown fixture"):
        tl.build_fixture("SYNTH-99")


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 1001])
def test_random_databases_are_consistent(seed):
    db = random_database(seed)
    assert tl.validate_integrity(db) == []
    assert len(db.plots) <= 200
    for ev in db.evaluations:
        n_units = sum(1 for u in db.estn_units if u.evalid == ev.evalid)
        assert 1 <= n_units <= 2
    assert len(db.strata) <= 4 * len(db.evaluations)


def test_random_database_is_deterministic():
    assert same_contents(random_database(42), random_database(42))
    assert not same_contents(random_database(42), random_database(43))


def test_population_census_truth():
    pop = SyntheticPopulation(stands=(100.0, 120.0, 140.0), trend=-2.0)
    assert pop.report_year == 2018
    assert list(pop.years) == [2014, 2015, 2016, 2017, 2018]
    assert pop.stand_value(0, 2014) == 100.0
    assert pop.stand_value(2, 2018) == 140.0 - 8.0
    assert pop.true_mean(2016) == pytest.approx(120.0 - 4.0)


def test_make_population_reproducible_and_clamped():
    a = make_population(seed=5, n_stands=500, base=30.0, sd=40.0)
    b = make_population(seed=5, n_stands=500, base=30.0, sd=40.0)
    assert a.stands == b.stands
    assert min(a.stands) >= 25.0


def test_draw_database_structure():
    pop = make_population(seed=11, n_stands=200)
    db = draw_database(pop, seed=3)
    assert len(db.plots) == pop.n_panels * pop.plots_per_panel
    assert sorted({p.invyr for p in db.plots}) == list(pop.years)
    assert tl.validate_integrity(db) == []
    # every plot's tree density is some stand's value in the plot's year
    by_cn = {p.cn: p for p in db.plots}
    for t in db.trees:
        year = by_cn[t.plt_cn].invyr
        offsets = {pop.stand_value(i, year) for i in range(len(pop.stands))}
        assert t.tpa_unadj in offsets


def test_monte_carlo_replicates_are_paired():
    pop = make_population(seed=2, n_stands=300, plots_per_panel=6)
    out = monte_carlo_bias_variance(pop, ("TI", "SMA"), replicates=20, seed=9)
    assert set(out) == {"TI", "SMA"}
    assert len(out["TI"].estimates) == 20
    assert out["TI"].mean_estimate == pytest.approx(
        statistics.fmean(out["TI"].estimates)
    )
    # zero trend: both estimators aim at the same census mean
    truth = pop.true_mean(pop.report_year)
    assert out["SMA"].lag_bias == pytest.approx(
        abs(statistics.fmean(out["SMA"].estimates) - truth)
    )


def test_bootstrap_ci_basics():
    x = [3.0, 4.0, 5.0, 6.0]
    y = [1.0, 2.0, 3.0, 4.0]
    lo, hi = bootstrap_diff_ci(x, y, statistics.fmean, n_boot=200, seed=1)
    assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)
    lo, hi = bootstrap_diff_ci(x, x, statistics.variance, n_boot=50, seed=1)
    assert lo == 0.0 and hi == 0.0
    with pytest.raises(ValueError, match="same length"):
        bootstrap_diff_ci(x, y[:-1], statistics.fmean)


def reference_bootstrap_diff_ci(x, y, stat, n_boot=1000, seed=7, level=0.95):
    """The one-randrange-per-index bootstrap that the block draws replaced."""
    n = len(x)
    rng = random.Random(seed)
    diffs = []
    for _ in range(n_boot):
        idx = [rng.randrange(n) for _ in range(n)]
        diffs.append(stat([x[i] for i in idx]) - stat([y[i] for i in idx]))
    diffs.sort()
    alpha = (1.0 - level) / 2.0
    lo = diffs[max(0, math.floor(alpha * n_boot))]
    hi = diffs[min(n_boot - 1, math.ceil((1.0 - alpha) * n_boot) - 1)]
    return lo, hi


@pytest.mark.parametrize("n, n_boot", [(1, 20), (2, 50), (7, 100), (64, 40), (1000, 12), (2000, 6)])
@pytest.mark.parametrize("stat", [statistics.fmean, statistics.pvariance, statistics.median])
@pytest.mark.parametrize("seed", [1, 4, 20180501])
def test_bootstrap_ci_equals_the_reference(n, n_boot, stat, seed):
    rng = random.Random(n)
    x = tuple(rng.gauss(10.0, 2.0) for _ in range(n))
    y = tuple(v + rng.gauss(0.5, 1.0) for v in x)
    want = reference_bootstrap_diff_ci(x, y, stat, n_boot=n_boot, seed=seed, level=0.9)
    assert bootstrap_diff_ci(x, y, stat, n_boot=n_boot, seed=seed, level=0.9) == want
