"""Estimator families against the hand-designed fixture databases.

Every expected number below was derived by hand from the fixture's record
values (see the derivations in comments); none were copied from the engine.
"""

import logging
import math
import random

import pytest

import timberline as tl
from timberline import core
from timberline.errors import EstimationError, UsageError
from timberline.model import EstimationUnit, ForestDatabase, Stratum
from timberline.synth import random_database


# ---------------------------------------------------------------------------
# SYNTH-1: four plots, one 1000-acre unit, single stratum
# ---------------------------------------------------------------------------


def test_tpa_point_estimates(synth1):
    row = tl.tpa(synth1).rows[0]
    # plot tree-per-acre sums: 12, 6, 0, 6 -> mean 6; s^2 = 24
    # ratio var = (A^2/n) s^2 / A^2 = 6 -> SE = 100 sqrt(6)/6
    assert row["YEAR"] == 2018
    assert row["TPA"] == pytest.approx(6.0)
    assert row["TPA_SE"] == pytest.approx(100 * math.sqrt(6) / 6, abs=1e-9)
    # basal area: 0.005454 dia^2 tpa summed per plot: 6.5448, 13.0896, 0, 1.178064
    assert row["BAA"] == pytest.approx(5.203116)
    assert row["nPlots_TREE"] == 3
    assert row["nPlots_AREA"] == 4


def test_tpa_by_species(synth1):
    rows = {r["SPCD"]: r for r in tl.tpa(synth1, by_species=True).rows}
    assert rows[316]["TPA"] == pytest.approx(4.5)   # plots 12, 0, 0, 6
    assert rows[129]["TPA"] == pytest.approx(1.5)   # plots 0, 6, 0, 0
    assert rows[316]["COMMON_NAME"] == "red maple"
    assert rows[129]["SCIENTIFIC_NAME"] == "Pinus strobus"
    # single occupied plot cannot carry a sampling error
    assert rows[129]["TPA_SE"] is None
    assert rows[316]["TPA_SE"] == pytest.approx(100 * math.sqrt(8.25) / 4.5)


def test_tpa_by_size_class(synth1):
    rows = {r["SIZE_CLASS"]: r for r in tl.tpa(synth1, by_size_class=True).rows}
    assert set(rows) == {"[5, 7)", "[9, 11)", "[19, 21)"}
    assert rows["[9, 11)"]["TPA"] == pytest.approx(3.0)    # the two dia-10 stems
    assert rows["[19, 21)"]["BAA"] == pytest.approx(13.0896 / 4)


def test_tpa_tree_domain(synth1):
    row = tl.tpa(synth1, tree_domain="DIA >= 10").rows[0]
    # only the three stems of 10 in and up: plots 12, 6, 0, 0
    assert row["TPA"] == pytest.approx(4.5)
    assert row["nPlots_TREE"] == 2


def test_area_total_and_domain(synth1):
    assert tl.area(synth1).rows[0]["AREA_TOTAL"] == pytest.approx(1000.0)
    row = tl.area(synth1, area_domain="OWNCD == 31").rows[0]
    # half the plots are state-owned: 1000 * 2/4, exactly
    assert row["AREA_TOTAL"] == pytest.approx(500.0, abs=0.0)
    assert row["AREA_TOTAL_SE"] == pytest.approx(100 * math.sqrt(250000 / 3) / 500)
    assert row["nPlots_AREA"] == 2


def test_area_grouped(synth1):
    rows = {r["OWNCD"]: r["AREA_TOTAL"] for r in tl.area(synth1, grp_by=("OWNCD",)).rows}
    assert rows == {31: pytest.approx(500.0), 46: pytest.approx(500.0)}


def test_biomass_per_acre_values(synth1):
    row = tl.biomass(synth1).rows[0]
    # net cubic volume per plot: 240, 240, 0, 72 -> 138 ft^3/acre
    assert row["NETVOL_ACRE"] == pytest.approx(138.0)
    assert row["NETVOL_ACRE_SE"] == pytest.approx(100 * math.sqrt(3684.0) / 138.0)
    # sawlog volume: the dia-6 stem has none -> 144, 144, 0, 0 -> 72
    assert row["SAWVOL_ACRE"] == pytest.approx(72.0)
    # dry biomass is stored in pounds, reported in short tons
    assert row["BIO_AG_ACRE"] == pytest.approx(1.725)
    assert row["BIO_ACRE"] == pytest.approx(2.07)
    assert row["CARB_AG_ACRE"] == pytest.approx(0.8625)
    assert row["nPlots_VOL"] == 3


def test_biomass_board_feet_appended(synth1):
    table = tl.biomass(synth1, board_feet=True)
    assert table.columns.index("SAWVOL_BF_ACRE") > table.columns.index("CARB_ACRE")
    row = table.rows[0]
    # 12 board feet per sawlog cubic foot
    assert row["SAWVOL_BF_ACRE"] == pytest.approx(12 * 72.0)
    assert row["SAWVOL_BF_ACRE_SE"] == pytest.approx(row["SAWVOL_ACRE_SE"])


def test_diversity_plot_level_and_pooled(synth1):
    row = tl.diversity(synth1).rows[0]
    # every occupied plot holds a single species -> plot-level H is zero and
    # richness averages 3 occupied plots / 4
    assert row["H"] == pytest.approx(0.0)
    assert row["S"] == pytest.approx(0.75)
    assert row["Eh"] == pytest.approx(0.0)
    # pooled over the whole domain (basal-area shares 0.371069 / 0.628931)
    assert row["S_POOLED"] == 2
    assert row["H_POOLED"] == pytest.approx(0.6595222664388065)
    assert row["Eh_POOLED"] == pytest.approx(0.9514895031471158)


def test_diversity_tpa_basis(synth1):
    row = tl.diversity(synth1, basis="TPA").rows[0]
    # stem-count shares: 18/24 red maple, 6/24 white pine
    want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert row["H_POOLED"] == pytest.approx(want)
    assert row["Eh_POOLED"] == pytest.approx(want / math.log(2))


@pytest.mark.parametrize("grp_by", [(), ("OWNCD",)])
def test_diversity_without_trees_in_the_domains_is_empty(synth1, grp_by):
    # the forest conditions still give area entries; the species have none
    table = tl.diversity(synth1, tree_domain="DIA > 1e9", grp_by=grp_by)
    assert len(table) == 0
    assert table.columns == tl.diversity(synth1, grp_by=grp_by).columns


def test_families_missing_required_eval_type(synth1):
    with pytest.raises(EstimationError, match="GRM"):
        tl.grow_mort(synth1)
    with pytest.raises(EstimationError, match="GRM"):
        tl.vital_rates(synth1)


# ---------------------------------------------------------------------------
# SYNTH-GRM: change estimation over a 5-year remeasurement period
# ---------------------------------------------------------------------------


def test_grow_mort_rates(synth_grm):
    row = tl.grow_mort(synth_grm).rows[0]
    # ingrowth 1.5 and 1.0 stems/acre over REMPER 5 -> plots 0.3, 0.2
    assert row["RECR_TPA"] == pytest.approx(0.25)
    assert row["RECR_TPA_SE"] == pytest.approx(20.0)
    # mortality 2.0 and 1.0 -> plots 0.4, 0.2
    assert row["MORT_TPA"] == pytest.approx(0.30)
    assert row["MORT_TPA_SE"] == pytest.approx(100 * (0.1 / 0.3))
    # harvest 1.0 on each plot -> no between-plot variance at all
    assert row["REMV_TPA"] == pytest.approx(0.20)
    assert row["REMV_TPA_SE"] == 0.0


def test_vital_rates_tree_and_acre_scales(synth_grm):
    row = tl.vital_rates(synth_grm).rows[0]
    # both survivors grew 1.0 inch over 5 years
    assert row["DIA_GROW"] == pytest.approx(0.2)
    assert row["DIA_GROW_SE"] == 0.0
    # basal-area growth per tree: 0.005454 (11^2-10^2)/5 and (15.5^2-14.5^2)/5
    want_ba = 0.005454 * (21 + 30) / 5 / 2
    assert row["BA_GROW"] == pytest.approx(want_ba)
    # per-acre scale: six surviving stems per acre on both plots
    assert row["BA_GROW_AC"] == pytest.approx(6 * want_ba)
    assert row["DIA_GROW_AC"] == pytest.approx(1.2)


# ---------------------------------------------------------------------------
# SYNTH-INV: understory and surface attributes
# ---------------------------------------------------------------------------


def test_invasive_cover(synth_inv):
    row = tl.invasive(synth_inv).rows[0]
    assert row["SPCD"] == 341
    assert row["COVER_PCT"] == pytest.approx(50.0)  # plots 60 and 40
    assert row["COVER_PCT_SE"] == pytest.approx(20.0)
    assert row["nPlots_INV"] == 2


def test_seedling_density(synth_inv):
    row = tl.seedling(synth_inv).rows[0]
    # one microplot seedling record expands by its per-acre factor
    assert row["TPA"] == pytest.approx(74.97 / 2)
    assert row["TPA_SE"] is None  # single occupied plot
    assert row["nPlots_TREE"] == 1


def test_dwm_by_fuel_class(synth_inv):
    rows = {r["FUEL_TYPE"]: r for r in tl.dwm(synth_inv).rows}
    assert rows["1HR"]["VOL_ACRE"] == pytest.approx(1.0)    # plots 1.5, 0.5
    assert rows["1HR"]["VOL_ACRE_SE"] == pytest.approx(50.0)
    assert rows["1HR"]["BIO_ACRE"] == pytest.approx(0.6)
    assert rows["DUFF"]["VOL_ACRE"] == pytest.approx(5.0)   # plots 10, absent
    assert rows["DUFF"]["VOL_ACRE_SE"] is None
    assert rows["DUFF"]["nPlots_DWM"] == 1


def test_stand_struct_tidy_and_wide(synth_inv):
    rows = {r["STAGE"]: r for r in tl.stand_struct(synth_inv).rows}
    assert rows["POLE"]["PERC_AREA"] == pytest.approx(50.0)
    assert rows["LATE"]["PERC_AREA"] == pytest.approx(50.0)
    assert rows["POLE"]["nPlots"] == 2

    wide = tl.stand_struct(synth_inv, tidy=False)
    assert len(wide.rows) == 1
    row = wide.rows[0]
    assert row["PERC_POLE"] == pytest.approx(50.0)
    assert row["PERC_LATE"] == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# SYNTH-5PANEL: five panels of four plots, linear trend in time
# ---------------------------------------------------------------------------

PANEL_MEANS = {2014: 5.5, 2015: 7.5, 2016: 9.5, 2017: 11.5, 2018: 13.5}


def test_annual_rows_per_panel(synth_panel):
    rows = tl.tpa(synth_panel, method="ANNUAL", variance=True).rows
    got = {r["YEAR"]: r for r in rows}
    assert set(got) == set(PANEL_MEANS)
    for year, mean in PANEL_MEANS.items():
        assert got[year]["TPA"] == pytest.approx(mean)
        # within-panel values are k, k+1, k+2, k+3: s^2 = 5/3 on 4 plots
        assert got[year]["TPA_VAR"] == pytest.approx(5 / 12)
        assert got[year]["nPlots_TREE"] == 4


def test_ti_pools_all_panels(synth_panel):
    row = tl.tpa(synth_panel, method="TI", variance=True).rows[0]
    assert row["YEAR"] == 2018
    assert row["TPA"] == pytest.approx(9.5)
    # 20 pooled values, squared deviations sum 185 -> s^2 = 185/19
    assert row["TPA_VAR"] == pytest.approx((185 / 19) / 20)
    assert row["nPlots_TREE"] == 20


def test_sma_equals_mean_of_panels(synth_panel):
    row = tl.tpa(synth_panel, method="SMA", variance=True).rows[0]
    assert row["TPA"] == pytest.approx(9.5)
    assert row["TPA_VAR"] == pytest.approx((5 / 12) / 5)  # sum (1/5)^2 per panel


def test_lma_leans_toward_recent_panels(synth_panel):
    row = tl.tpa(synth_panel, method="LMA", variance=True).rows[0]
    want = sum(p * m for p, m in zip(range(1, 6), PANEL_MEANS.values())) / 15
    assert row["TPA"] == pytest.approx(want)
    assert row["TPA_VAR"] == pytest.approx((5 / 12) * 55 / 225)


def test_ema_decay_weighting(synth_panel):
    row = tl.tpa(synth_panel, method="EMA", lambdas=(0.5,), variance=True).rows[0]
    assert row["lambda"] == 0.5
    weights = [1 / 31, 2 / 31, 4 / 31, 8 / 31, 16 / 31]
    want = sum(w * m for w, m in zip(weights, PANEL_MEANS.values()))
    assert row["TPA"] == pytest.approx(want)
    assert row["TPA_VAR"] == pytest.approx((5 / 12) * sum(w * w for w in weights))


def test_ema_lambda_sweep_one_row_each(synth_panel):
    rows = tl.tpa(synth_panel, method="EMA", lambdas=(0.3, 0.7)).rows
    assert [r["lambda"] for r in rows] == [0.3, 0.7]
    # heavier smoothing sits further from the newest panel
    assert rows[0]["TPA"] > rows[1]["TPA"] - 5  # sanity: both between 9.5 and 13.5
    for r in rows:
        assert 9.5 < r["TPA"] < 13.5


def test_method_point_estimates_order(synth_panel):
    """On a rising population: ANNUAL(last) > EMA > LMA > SMA."""
    sma = tl.tpa(synth_panel, method="SMA").rows[0]["TPA"]
    lma = tl.tpa(synth_panel, method="LMA").rows[0]["TPA"]
    ema = tl.tpa(synth_panel, method="EMA", lambdas=(0.5,)).rows[0]["TPA"]
    annual = tl.tpa(synth_panel, method="ANNUAL").rows[-1]["TPA"]
    assert sma < lma < ema < annual


@pytest.mark.parametrize("request_kw, n_rows", [
    ({"method": "EMA", "lambdas": (0.3, 0.5, 0.7)}, 3),
    ({"method": "SMA"}, 1),
    ({"method": "ANNUAL"}, 5),
])
def test_panel_methods_take_one_pass_per_group(synth_panel, monkeypatch, request_kw, n_rows):
    calls = []
    for name in ("make_bundle", "compute_pass"):
        def counted(*args, _name=name, _original=getattr(core, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(core, name, counted)
    assert len(tl.tpa(synth_panel, **request_kw)) == n_rows
    assert sorted(calls) == ["compute_pass", "make_bundle"]


PANEL_WARNINGS = [
    "7 of 12 (estimation unit, panel) cells have no sampled plots in this selection; skipped",
    "missing panel(s): renormalizing weights over 5 of 6 panels",
    "5 (stratum, panel) cells with no plots in 5 (estimation unit, panel) cells; "
    "weights renormalized",
]


def _panel_warning_db(synth_panel):
    """An unmeasured panel, a unit without plots and a stratum without plots."""
    ev = synth_panel.evaluations[0]._replace(start_invyr=2013)
    return ForestDatabase(
        plots=synth_panel.plots, conds=synth_panel.conds, trees=synth_panel.trees,
        evaluations=[ev],
        estn_units=synth_panel.estn_units + (EstimationUnit("U2", ev.evalid, 5.0),),
        strata=synth_panel.strata + (Stratum("S2", "U91851", 0.5), Stratum("S3", "U2", 1.0)),
        assignments=synth_panel.assignments, species=synth_panel.species,
    )


def _warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def test_panel_warnings_log_once_per_group(synth_panel, caplog):
    db = _panel_warning_db(synth_panel)
    with caplog.at_level(logging.INFO, logger="timberline"):
        tl.tpa(db, method="EMA", lambdas=(0.3, 0.7))
    assert _warnings(caplog) == PANEL_WARNINGS


def test_panel_warnings_log_again_from_the_kept_sample(synth_panel, caplog):
    """The second estimate reuses the group's sample and constants, and warns the same."""
    db = _panel_warning_db(synth_panel)
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="timberline"):
            tl.tpa(db, method="EMA", lambdas=(0.3, 0.7))
        assert _warnings(caplog) == PANEL_WARNINGS


# ---------------------------------------------------------------------------
# request validation and layout
# ---------------------------------------------------------------------------


def test_usage_problems_reported_together(synth1):
    with pytest.raises(UsageError) as info:
        tl.area(synth1, by_species=True, tree_domain="DIA > 5", method="BIENNIAL")
    assert len(info.value.problems) == 3


def test_by_plot_takes_no_variance_or_panel_method(synth1):
    with pytest.raises(UsageError) as info:
        tl.tpa(synth1, by_plot=True, variance=True, method="EMA")
    assert info.value.problems == [
        "per-plot output has no variance",
        "per-plot output pools all panels (TI); it takes no EMA method",
    ]
    for method in ("TI", "ti"):
        assert len(tl.tpa(synth1, by_plot=True, method=method)) == 3


def test_by_plot_layout(synth1):
    table = tl.tpa(synth1, by_plot=True)
    assert "PLT_CN" in table.columns
    by_cn = {r["PLT_CN"]: r for r in table.rows}
    # only plots carrying at least one qualifying stem appear
    assert set(by_cn) == {"P1", "P2", "P4"}
    assert by_cn["P1"]["TPA"] == pytest.approx(12.0)
    assert by_cn["P1"]["nStems"] == 2


def test_variance_columns_replace_se(synth1):
    cols = tl.tpa(synth1, variance=True).columns
    assert "TPA_VAR" in cols and "TPA_SE" in cols


def test_unknown_family_name(synth1):
    with pytest.raises(UsageError, match="unknown attribute family"):
        tl.estimate(synth1, "carbonCredits")


# ---------------------------------------------------------------------------
# properties over randomized databases
# ---------------------------------------------------------------------------


def _by_year(table):
    out = {}
    for row in table.rows:
        out.setdefault(row["YEAR"], []).append(row)
    return out


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "family, columns, grouping",
    [
        ("tpa", ("TPA", "BAA"), {"by_species": True}),
        ("tpa", ("TPA", "BAA"), {"by_size_class": True}),
        ("biomass", ("NETVOL_ACRE", "BIO_ACRE", "CARB_ACRE"), {"by_species": True}),
        ("biomass", ("NETVOL_ACRE", "BIO_ACRE", "CARB_ACRE"), {"by_size_class": True}),
    ],
)
def test_tree_level_groups_sum_to_ungrouped(seed, family, columns, grouping):
    # Tree-level groups share the full-domain denominator, so per-acre
    # group estimates add up to the ungrouped one.
    db = random_database(seed)
    whole = _by_year(tl.estimate(db, family))
    parts = _by_year(tl.estimate(db, family, **grouping))
    assert set(parts) == set(whole)
    for year, (row,) in whole.items():
        for col in columns:
            total = sum(r[col] for r in parts[year])
            assert total == pytest.approx(row[col], rel=1e-12)


_PERMUTED_REQUESTS = [
    ("tpa", {"by_species": True, "by_size_class": True}),
    ("biomass", {"grp_by": ("OWNCD",), "method": "EMA", "lambdas": (0.3, 0.7)}),
    ("area", {"grp_by": ("FORTYPCD",)}),
    ("growMort", {"by_species": True}),
    ("vitalRates", {"method": "SMA"}),
    ("diversity", {}),
    ("dwm", {}),
    ("invasive", {}),
    ("seedling", {"by_species": True}),
    ("standStruct", {"method": "ANNUAL"}),
]


def _outcome(db, family, kw):
    try:
        return tl.estimate(db, family, variance=True, **kw)
    except EstimationError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_permuted_records_give_the_same_output(seed):
    db = random_database(seed)
    rng = random.Random(seed)
    shuffled = ForestDatabase(
        states=db.states,
        **{
            name: rng.sample(getattr(db, name), len(getattr(db, name)))
            for name in ("plots", "conds", "trees", "seedlings", "dwm", "invasives",
                         "evaluations", "estn_units", "strata", "assignments", "species")
        },
    )
    for family, kw in _PERMUTED_REQUESTS:
        want, got = _outcome(db, family, kw), _outcome(shuffled, family, kw)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.columns == want.columns
        assert len(got.rows) == len(want.rows)
        for a, b in zip(got.rows, want.rows):
            assert a.keys() == b.keys()
            for col in a:
                if isinstance(b[col], float):
                    assert a[col] == pytest.approx(b[col], rel=1e-12), (family, col)
                else:
                    assert a[col] == b[col], (family, col)


def test_missing_remper_warns_once_per_pass(synth_grm, caplog):
    plots = [p._replace(remper=None) for p in synth_grm.plots]
    db = ForestDatabase(
        plots=plots, conds=synth_grm.conds, trees=synth_grm.trees,
        evaluations=synth_grm.evaluations, estn_units=synth_grm.estn_units,
        strata=synth_grm.strata, assignments=synth_grm.assignments,
        species=synth_grm.species,
    )
    for family in ("growMort", "vitalRates"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="timberline"):
            tl.estimate(db, family)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert lines == ["2 plots have change records but no usable REMPER; skipped"]


def test_stageless_conditions_logged_once_per_pass(synth_inv, caplog):
    trees = [t._replace(statuscd=2) if t.plt_cn == "V1" else t
             for t in synth_inv.trees]
    db = ForestDatabase(
        plots=synth_inv.plots, conds=synth_inv.conds, trees=trees,
        evaluations=synth_inv.evaluations, estn_units=synth_inv.estn_units,
        strata=synth_inv.strata, assignments=synth_inv.assignments,
        species=synth_inv.species,
    )
    with caplog.at_level(logging.INFO, logger="timberline"):
        out = tl.stand_struct(db)
    assert out.column("PERC_AREA") == [100.0]
    lines = [r.getMessage() for r in caplog.records if "live basal area" in r.getMessage()]
    assert len(lines) == 1 and lines[0].startswith("1 forested conditions")


def test_records_without_a_condition_warn_with_a_count(synth1, caplog):
    conds = [c for c in synth1.conds if c.plt_cn != "P2"]
    db = ForestDatabase(
        plots=synth1.plots, conds=conds, trees=synth1.trees,
        evaluations=synth1.evaluations, estn_units=synth1.estn_units,
        strata=synth1.strata, assignments=synth1.assignments, species=synth1.species,
    )
    orphans = sum(t.plt_cn == "P2" for t in synth1.trees)
    for family in ("tpa", "diversity"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="timberline"):
            tl.estimate(db, family)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert lines == [f"{orphans} TREE rows have no COND row for their (PLT_CN, CONDID); "
                         "skipped"]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="timberline"):
        tl.tpa(synth1)
    assert not [r for r in caplog.records if "COND row" in r.getMessage()]
