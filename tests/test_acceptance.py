"""End-to-end acceptance checks, one test per shipping requirement.

Run with ``pytest -v`` to get a single pass/fail line per requirement.
The last two tests need real inventory downloads and skip themselves when
``TIMBERLINE_FIA_DIR`` does not point at a directory holding the files.
"""

import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import timberline as tl
from timberline.core import Sample, post_stratified_total
from timberline.errors import EstimationError
from timberline.model import EstimationUnit, Stratum
from timberline.oracle import brute_force_estimate, compare_tables
from timberline.panels import panel_weights
from timberline.synth import (
    bootstrap_diff_ci,
    make_population,
    monte_carlo_bias_variance,
    random_database,
)

FIXTURES = Path(__file__).parent / "fixtures"
LAMBDA_GRID = [round(0.05 * k, 2) for k in range(1, 20)]


def test_panel_weight_exactness():
    start = time.perf_counter()
    for n in range(1, 11):
        for method in ("SMA", "LMA"):
            assert abs(sum(panel_weights(method, n, None)) - 1.0) <= 1e-12
        for lam in LAMBDA_GRID:
            assert abs(sum(panel_weights("EMA", n, lam)) - 1.0) <= 1e-12
    got = panel_weights("EMA", 5, 0.5)
    want = [0.03226, 0.06452, 0.12903, 0.25806, 0.51613]
    assert got == pytest.approx(want, abs=1e-5)
    assert time.perf_counter() - start < 1.0


def test_panel_weight_limit_behavior():
    start = time.perf_counter()
    for n in range(1, 11):
        near_one = panel_weights("EMA", n, 1.0 - 1e-6)
        sma = panel_weights("SMA", n, None)
        assert near_one == pytest.approx(sma, abs=1e-4)
        assert panel_weights("EMA", n, 1e-6)[-1] > 0.9999 or n == 1
    assert panel_weights("EMA", 5, 1e-6)[-1] > 0.9999
    assert time.perf_counter() - start < 1.0


def test_single_stratum_variance_reduction():
    """With one stratum of weight 1 the total's variance is A^2 s^2 / n."""
    start = time.perf_counter()
    rng = random.Random(20180501)
    for trial in range(100):
        n = rng.randint(2, 40)
        area = rng.uniform(100.0, 5000.0)
        values = np.array([rng.uniform(-20.0, 50.0) for _ in range(n)])
        stratum = Stratum(f"S{trial}", "U", 1.0, 1.0, 1.0)
        plots, zeros = np.arange(n), np.zeros(n, dtype=np.intp)
        sample = Sample(plots, plots, zeros, zeros, zeros, [stratum], zeros[:1],
                        [EstimationUnit("U", 1, area)])
        est = post_stratified_total(values, sample)
        want_var = area * area * statistics.variance(values.tolist()) / n
        assert est.total == pytest.approx(area * float(values.mean()), rel=1e-12)
        assert est.variance == pytest.approx(want_var, rel=1e-12)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("weights, n", [
    ((0.7, 0.3), 100),
    ((0.4, 0.3, 0.2, 0.1), 100),
    ((0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06, 0.04), 200),
])
def test_post_stratified_variance_monte_carlo(weights, n):
    """Mean reported variance matches the replicate variance of the total.

    Each plot falls in stratum h with probability W_h, as post-stratification
    assumes, so n_h varies between replicates.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20050601 + len(weights))
    h_count = len(weights)
    means, sds = 10.0 * np.arange(1, h_count + 1), 2.0 + 3.0 * np.arange(h_count)
    strata = [Stratum(f"S{h}", "U", w, 1.0, 1.0, 1.0) for h, w in enumerate(weights)]
    units, unit = [EstimationUnit("U", 1, 1000.0)], np.zeros(h_count, dtype=np.intp)
    plots = np.arange(n)
    totals, reported = [], []
    for _ in range(3000):
        stratum = rng.choice(h_count, size=n, p=weights)
        zeros = np.zeros(n, dtype=np.intp)
        sample = Sample(plots, plots, stratum, zeros, zeros, strata, unit, units)
        est = post_stratified_total(rng.normal(means[stratum], sds[stratum]), sample)
        totals.append(est.total)
        reported.append(est.variance)
    ratio = statistics.fmean(reported) / statistics.variance(totals)
    assert abs(ratio - 1.0) < 0.15, f"{h_count} strata: variance ratio {ratio:.3f}"
    assert time.perf_counter() - start < 60.0


def test_engine_matches_reference_on_random_databases():
    start = time.perf_counter()
    for seed in range(50):
        db = random_database(seed)
        for family in sorted(tl.FAMILIES):
            try:
                got = tl.estimate(db, family, variance=True)
            except EstimationError:
                with pytest.raises(EstimationError):
                    brute_force_estimate(db, family, variance=True)
                continue
            want = brute_force_estimate(db, family, variance=True)
            diffs = compare_tables(got, want, rel=1e-9)
            assert diffs == [], f"seed {seed} {family}: {diffs[:3]}"
    assert time.perf_counter() - start < 120.0


def test_handmade_fixture_values():
    start = time.perf_counter()
    db = tl.build_fixture("SYNTH-1")
    row = tl.tpa(db).rows[0]
    assert row["TPA"] == pytest.approx(6.0, abs=1e-9)
    assert row["TPA_SE"] == pytest.approx(40.82, abs=0.01)
    area_row = tl.area(db, area_domain="OWNCD == 31").rows[0]
    assert area_row["AREA_TOTAL"] == 500.0
    assert time.perf_counter() - start < 1.0


def test_zero_trend_unbiasedness():
    start = time.perf_counter()
    pop = make_population(trend=0.0)
    out = monte_carlo_bias_variance(pop, ("TI", "SMA"), replicates=2000,
                                    seed=20180501)
    truth = pop.true_mean(pop.report_year)
    for method in ("TI", "SMA"):
        rel_err = abs(out[method].mean_estimate - truth) / truth
        assert rel_err < 0.01, f"{method} mean off by {rel_err:.2%}"
    ti = out["TI"]
    ratio = ti.mean_reported_variance / ti.empirical_variance
    assert abs(ratio - 1.0) < 0.15, f"TI variance ratio {ratio:.3f}"
    assert time.perf_counter() - start < 300.0


def test_smoothing_lag_precision_tradeoff():
    """Declining population: more smoothing buys precision, costs lag bias."""
    start = time.perf_counter()
    pop = make_population(trend=-4.0)
    out = monte_carlo_bias_variance(pop, ("SMA", "EMA", "ANNUAL"),
                                    replicates=2000, seed=20180501, lam=0.5)
    truth = pop.true_mean(pop.report_year)

    def lag_bias(values):
        return abs(statistics.fmean(values) - truth)

    sma = out["SMA"].estimates
    ema = out["EMA"].estimates
    annual = out["ANNUAL"].estimates
    # bias ordering SMA > EMA > ANNUAL, each difference significant at 95%
    lo, _ = bootstrap_diff_ci(sma, ema, lag_bias, n_boot=1000, seed=1)
    assert lo > 0.0
    lo, _ = bootstrap_diff_ci(ema, annual, lag_bias, n_boot=1000, seed=2)
    assert lo > 0.0
    # variance ordering ANNUAL > EMA > SMA
    lo, _ = bootstrap_diff_ci(annual, ema, statistics.variance, n_boot=1000, seed=3)
    assert lo > 0.0
    lo, _ = bootstrap_diff_ci(ema, sma, statistics.variance, n_boot=1000, seed=4)
    assert lo > 0.0
    assert time.perf_counter() - start < 300.0


def test_parallel_runs_are_byte_identical():
    start = time.perf_counter()
    commands = [
        ["tpa", "--db", str(FIXTURES / "SYNTH-5PANEL"), "--method", "EMA",
         "--lambda", "0.3,0.7", "--variance"],
        ["biomass", "--db", str(FIXTURES / "SYNTH-1"), "--by-species"],
        ["area", "--db", str(FIXTURES / "SYNTH-1"), "--grp-by", "OWNCD"],
        ["growmort", "--db", str(FIXTURES / "SYNTH-GRM")],
        ["dwm", "--db", str(FIXTURES / "SYNTH-INV"), "--format", "json"],
    ]
    for cmd in commands:
        outputs = set()
        for workers in ("1", "2", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "timberline.cli", *cmd,
                 "--workers", workers],
                capture_output=True, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, f"{cmd[0]} output varied with worker count"
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# published-value reproductions against real downloads (skipped offline)
# ---------------------------------------------------------------------------


def _real_state_dir(state):
    root = os.environ.get("TIMBERLINE_FIA_DIR")
    if not root:
        pytest.skip("TIMBERLINE_FIA_DIR not set; real inventory data absent")
    path = Path(root)
    if not (path / f"{state}_PLOT.csv").exists():
        pytest.skip(f"no {state} tables under TIMBERLINE_FIA_DIR")
    return path


def test_connecticut_2018_published_values():
    start = time.perf_counter()
    path = _real_state_dir("CT")
    db = tl.load_database(path, states=["CT"])
    db = tl.clip(db, evalids=tl.find_evaluations(db, year=2018))

    tpa_row = tl.tpa(db).rows[0]
    bio_row = tl.biomass(db).rows[0]
    vr_row = tl.vital_rates(db).rows[0]
    gm_row = tl.grow_mort(db).rows[0]
    dwm_rows = {r["FUEL_TYPE"]: r for r in tl.dwm(db).rows}
    cwd = dwm_rows["1000HR"]
    area_row = tl.area(db).rows[0]

    checks = [
        (tpa_row["TPA"], "432.63"), (tpa_row["TPA_SE"], "4.46"),
        (tpa_row["BAA"], "121.19"), (tpa_row["BAA_SE"], "2.13"),
        (bio_row["NETVOL_ACRE"], "2625.99"), (bio_row["NETVOL_ACRE_SE"], "2.65"),
        (bio_row["SAWVOL_ACRE"], "1648.77"), (bio_row["SAWVOL_ACRE_SE"], "3.56"),
        (bio_row["BIO_AG_ACRE"], "75.99"), (bio_row["BIO_AG_ACRE_SE"], "2.38"),
        (bio_row["CARB_AG_ACRE"], "37.99"), (bio_row["CARB_AG_ACRE_SE"], "2.38"),
        (vr_row["BIO_GROW_AC"], "1.06"), (vr_row["BIO_GROW_AC_SE"], "6.39"),
        (gm_row["MORT_TPA"], "1.47"), (gm_row["MORT_TPA_SE"], "6.93"),
        (gm_row["REMV_TPA"], "0.36"), (gm_row["REMV_TPA_SE"], "31.09"),
        (cwd["VOL_ACRE"], "299.87"), (cwd["VOL_ACRE_SE"], "23.92"),
        (cwd["BIO_ACRE"], "3.08"), (cwd["BIO_ACRE_SE"], "25.25"),
        (cwd["CARB_ACRE"], "1.52"), (cwd["CARB_ACRE_SE"], "25.14"),
        (area_row["AREA_TOTAL"] / 1000.0, "1789.61"),
        (area_row["AREA_TOTAL_SE"], "2.29"),
    ]
    bad = [f"got {got:.2f}, want {want}" for got, want in checks
           if f"{got:.2f}" != want]
    assert bad == []
    assert time.perf_counter() - start < 600.0


def test_rhode_island_2018_biomass_listing():
    path = _real_state_dir("RI")
    db = tl.load_database(path, states=["RI"])
    db = tl.clip(db, most_recent=True)
    row = [r for r in tl.biomass(db).rows if r["YEAR"] == 2018][0]
    assert row["NETVOL_ACRE"] == pytest.approx(2491, abs=0.5)
    assert row["BIO_AG_ACRE"] == pytest.approx(70.4, abs=0.5)
