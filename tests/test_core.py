"""Post-stratified estimation machinery: samples, totals, ratios, classes."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline import core
from timberline.core import (
    Sample,
    TotalEstimate,
    build_sample,
    make_classes,
    post_stratified_covariance,
    post_stratified_total,
    ratio_estimate,
    sampling_error_pct,
)
import timberline as tl
from timberline.cli import main
from timberline.errors import EstimationError
from timberline.io import write_database
from timberline.oracle import brute_force_estimate
from timberline.model import (
    Evaluation,
    EstimationUnit,
    ForestDatabase,
    PlotRecord,
    Stratum,
    StratumAssignment,
)


def _db(weights, plot_strata, area=1000.0, adj=1.0):
    """One evaluation, one unit, strata with the given weights.

    ``plot_strata`` maps plot cn -> stratum index.
    """
    ev = Evaluation(evalid=1, statecd=9, eval_typ="VOL", report_year=2018,
                    start_invyr=2018, end_invyr=2018)
    unit = EstimationUnit(cn="U1", evalid=1, area_used=area)
    strata = [
        Stratum(cn=f"S{i}", estn_unit_cn="U1", weight=w,
                adj_subp=adj, adj_micr=adj, adj_macr=adj)
        for i, w in enumerate(weights)
    ]
    plots = [
        PlotRecord(cn=cn, statecd=9, plot=i, invyr=2018, lat=41.0, lon=-72.0,
                   remper=None, plot_status_cd=1, designcd=1)
        for i, cn in enumerate(plot_strata)
    ]
    assigns = [
        StratumAssignment(plt_cn=cn, stratum_cn=f"S{k}", invyr=2018)
        for cn, k in plot_strata.items()
    ]
    return ForestDatabase(
        plots=plots, conds=[], trees=[], seedlings=[], dwm=[], invasives=[],
        evaluations=[ev], estn_units=[unit], strata=strata, assignments=assigns,
        species=[], states=("CT",),
    )


def _sample(weights, plot_strata, **kw):
    db = _db(weights, plot_strata, **kw)
    return build_sample(db, db.evaluations)


# -- build_sample ----------------------------------------------------------


def test_sample_counts_and_order():
    db = _db([0.6, 0.4], {"P3": 0, "P1": 0, "P2": 1})
    s = build_sample(db, db.evaluations)
    assert s.n_plots == 3
    # plots held in global cn order; strata ordered by cn within the unit
    assert [db.plots[r].cn for r in s.rows] == ["P1", "P2", "P3"]
    assert [st.cn for st in s.strata] == ["S0", "S1"]
    assert [sorted(s.plot[s.stratum == h]) for h in range(2)] == [[0, 2], [1]]
    assert s.panel.tolist() == [0, 0, 0]


def test_plot_in_two_evaluations_takes_its_last_assignment():
    """Each membership counts; adjustment factors and YEAR follow the last one."""
    db = _db([1.0], {"P1": 0, "P2": 0})
    ev = Evaluation(evalid=2, statecd=9, eval_typ="VOL", report_year=2018,
                    start_invyr=2017, end_invyr=2018)
    stratum = Stratum(cn="T0", estn_unit_cn="U2", weight=1.0, adj_subp=2.0)
    db = ForestDatabase(
        plots=db.plots, evaluations=db.evaluations + (ev,),
        estn_units=db.estn_units + (EstimationUnit(cn="U2", evalid=2, area_used=500.0),),
        strata=db.strata + (stratum,),
        assignments=db.assignments + (StratumAssignment("P1", "T0", 2017),),
    )
    s = build_sample(db, db.evaluations)
    assert (s.n_plots, len(s.plot)) == (2, 3)
    assert [s.strata[h].cn for h in s.stratum[s.last]] == ["T0", "S0"]
    assert s.year[s.last].tolist() == [2017, 2018]
    panels = build_sample(db, db.evaluations, [2017, 2018])
    assert sorted(zip(panels.plot.tolist(), panels.panel.tolist())) == [(0, 0), (0, 1), (1, 1)]


def test_assignment_to_unknown_stratum_dropped_and_reported():
    # the index cannot route such an assignment to any evaluation; it is
    # invisible to sampling and surfaces through validate_integrity instead
    db = _db([1.0], {"P1": 0})
    assigns = [StratumAssignment(plt_cn="P1", stratum_cn="S9", invyr=2018)]
    bad = ForestDatabase(
        plots=db.plots, conds=[], trees=[], seedlings=[], dwm=[], invasives=[],
        evaluations=db.evaluations, estn_units=db.estn_units, strata=db.strata,
        assignments=assigns, species=[], states=("CT",),
    )
    sample = build_sample(bad, bad.evaluations)
    assert sample.n_plots == 0
    from timberline.model import validate_integrity

    assert any(v.rule == "assignment->stratum" for v in validate_integrity(bad))


def test_assignment_to_missing_plot_raises():
    db = _db([1.0], {"P1": 0})
    assigns = list(db.assignments) + [
        StratumAssignment(plt_cn="GHOST", stratum_cn="S0", invyr=2018),
        StratumAssignment(plt_cn="GHOST2", stratum_cn="S0", invyr=2018),
    ]
    bad = ForestDatabase(
        plots=db.plots, conds=[], trees=[], seedlings=[], dwm=[], invasives=[],
        evaluations=db.evaluations, estn_units=db.estn_units, strata=db.strata,
        assignments=assigns, species=[], states=("CT",),
    )
    with pytest.raises(EstimationError, match="evaluation 1 assigns missing plot GHOST$"):
        build_sample(bad, bad.evaluations)


def _twice_assigned_db():
    """P1 assigned to both S0 and S1 of one evaluation, P2 to S1."""
    db = _db([0.5, 0.5], {"P1": 0, "P2": 1})
    extra = StratumAssignment(plt_cn="P1", stratum_cn="S1", invyr=2018)
    return ForestDatabase(
        plots=db.plots, conds=[], trees=[], seedlings=[], dwm=[], invasives=[],
        evaluations=db.evaluations, estn_units=db.estn_units, strata=db.strata,
        assignments=db.assignments + (extra,), species=[], states=("CT",),
    )


def test_sample_duplicate_assignment_is_an_error():
    db = _twice_assigned_db()
    with pytest.raises(EstimationError, match=r"evaluation 1 assigns plot P1 .*S0, S1"):
        build_sample(db, db.evaluations)


def test_duplicate_assignment_fails_the_estimate_and_the_reference():
    db = _twice_assigned_db()
    with pytest.raises(EstimationError, match=r"evaluation 1 assigns plot P1 .*S0, S1"):
        tl.area(db)
    with pytest.raises(EstimationError, match=r"evaluation 1 assigns plot P1 .*S0, S1"):
        brute_force_estimate(db, "area")


@pytest.mark.parametrize("field, table, cn", [
    ("estn_units", "POP_ESTN_UNIT", "U91801"),
    ("strata", "POP_STRATUM", "S91801-1"),
])
def test_repeated_unit_or_stratum_cn_fails_the_estimate_and_the_reference(
        synth1, tmp_path, capsys, field, table, cn):
    # A second row under one CN leaves the unit or stratum ambiguous; each
    # estimator once picked a row of its own and they disagreed, silently.
    tables = {name: list(getattr(synth1, name)) for name in (
        "plots", "conds", "trees", "evaluations", "estn_units", "strata", "assignments")}
    tables[field].append(tables[field][0])
    db = ForestDatabase(states=synth1.states, **tables)
    message = f"{table} repeats CN {cn}; each row needs a CN of its own"
    with pytest.raises(EstimationError, match=f"^{message}$"):
        tl.tpa(db)
    with pytest.raises(EstimationError, match=f"^{message}$"):
        brute_force_estimate(db, "tpa")
    write_database(db, tmp_path)
    assert main(["tpa", "--db", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_repeated_evalid_fails_the_estimate_and_the_reference(synth1, tmp_path, capsys):
    # Both copies of a POP_EVAL row join one evaluation group; the engine once
    # counted each unit once and the reference twice, and they disagreed.
    tables = {name: list(getattr(synth1, name)) for name in (
        "plots", "conds", "trees", "evaluations", "estn_units", "strata", "assignments")}
    tables["evaluations"].append(tables["evaluations"][0])
    db = ForestDatabase(states=synth1.states, **tables)
    message = "POP_EVAL repeats EVALID 91801; each row needs an EVALID of its own"
    with pytest.raises(EstimationError, match=f"^{message}$"):
        tl.tpa(db)
    with pytest.raises(EstimationError, match=f"^{message}$"):
        brute_force_estimate(db, "tpa")
    write_database(db, tmp_path)
    assert main(["tpa", "--db", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_an_evalid_on_rows_of_two_report_years_fails_the_estimate_and_the_reference(
        synth1, tmp_path, capsys):
    # The copies fall into two evaluation groups, one per report year; both
    # estimators once printed the same estimate for each year and exited 0.
    tables = {name: list(getattr(synth1, name)) for name in (
        "plots", "conds", "trees", "evaluations", "estn_units", "strata", "assignments")}
    tables["evaluations"].append(tables["evaluations"][0]._replace(report_year=2019))
    db = ForestDatabase(states=synth1.states, **tables)
    message = "POP_EVAL repeats EVALID 91801; each row needs an EVALID of its own"
    for kwargs in ({"variance": True}, {"method": "EMA"}, {"by_plot": True}):
        with pytest.raises(EstimationError, match=f"^{message}$"):
            tl.tpa(db, **kwargs)
    with pytest.raises(EstimationError, match=f"^{message}$"):
        brute_force_estimate(db, "tpa")
    write_database(db, tmp_path)
    assert main(["tpa", "--variance", "--db", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


# -- post_stratified_total -------------------------------------------------


def test_single_stratum_total_is_classic_srs():
    # values 12, 6, 0, 6 over A = 1000: mean 6, s^2 = 24
    s = _sample([1.0], {"P1": 0, "P2": 0, "P3": 0, "P4": 0})
    est = post_stratified_total(np.array([12.0, 6.0, 0.0, 6.0]), s)
    assert est.total == pytest.approx(6000.0)
    assert est.variance == pytest.approx(1000.0**2 * 24.0 / 4.0)
    assert est.n_nonzero == 3
    assert est.n_plots == 4


def test_two_strata_total_hand_value():
    # stratum A (w .6): plots 10, 20 -> mean 15, s2 50
    # stratum B (w .4): plots 0, 40 -> mean 20, s2 800
    # Yhat = 1000 * (.6*15 + .4*20) = 17000
    s = _sample([0.6, 0.4], {"P1": 0, "P2": 0, "P3": 1, "P4": 1})
    est = post_stratified_total(np.array([10.0, 20.0, 0.0, 40.0]), s)
    assert est.total == pytest.approx(17000.0)
    # v = (A^2/n) [sum_h w_h n_h v_h + sum_h (1-w_h) (n_h/n) v_h], v_h = s2_h / n_h:
    # v_A = 25, v_B = 400; 0.6*2*25 + 0.4*2*400 = 350; 0.4*.5*25 + 0.6*.5*400 = 125
    assert est.variance == pytest.approx(1000.0**2 / 4.0 * 475.0)


def test_singleton_stratum_contributes_zero_variance():
    s = _sample([0.7, 0.3], {"P1": 0, "P2": 0, "P3": 1})
    est = post_stratified_total(np.array([10.0, 20.0, 99.0]), s)
    # v_h = 50 / 2 = 25: 0.7*2*25 + 0.3*(2/3)*25 = 40; the singleton adds nothing
    assert est.variance == pytest.approx(1000.0**2 / 3.0 * 40.0)


def test_missing_stratum_weight_raises_at_estimation():
    s = _sample([None], {"P1": 0, "P2": 0})
    with pytest.raises(EstimationError, match="STRATUM_WGT"):
        post_stratified_total(np.array([1.0, 2.0]), s)


def test_covariance_matches_variance_on_identical_series():
    s = _sample([0.6, 0.4], {"P1": 0, "P2": 0, "P3": 1, "P4": 1})
    x = np.array([10.0, 20.0, 0.0, 40.0])
    est = post_stratified_total(x, s)
    cov = post_stratified_covariance(x, x, s)
    assert cov == pytest.approx(est.variance)


def test_covariance_sign_tracks_association():
    s = _sample([1.0], {"P1": 0, "P2": 0, "P3": 0})
    x = np.array([1.0, 2.0, 3.0])
    up = np.array([2.0, 4.0, 6.0])
    down = np.array([6.0, 4.0, 2.0])
    assert post_stratified_covariance(x, up, s) > 0
    assert post_stratified_covariance(x, down, s) < 0


# -- the kernel against the per-stratum loops ------------------------------

log = logging.getLogger("timberline.core")


def _panel_units(sample: Sample, p: int):
    """Per unit with plots in panel p: (area, [(weight, plot indices)]) of its present strata."""
    for u, unit in enumerate(sample.units):
        present = []
        for h, st in enumerate(sample.strata):
            idx = sample.plot[(sample.panel == p) & (sample.stratum == h)]
            if sample.unit[h] == u and len(idx):
                present.append((st, np.sort(idx)))
        if present:
            wsum = sum(st.weight for st, _ in present)
            yield unit.area_used, [(st.weight / wsum, idx) for st, idx in present]


def _reference_total(values: np.ndarray, sample: Sample, weights) -> TotalEstimate:
    """Per-panel, per-unit, per-stratum loops; panels combine as sum w_p T_p, sum w_p^2 V_p."""
    total = 0.0
    variance = 0.0
    nonzero = plots = 0
    for p, w_p in enumerate(weights):
        seen = np.unique(sample.plot[sample.panel == p])
        nonzero += int(np.count_nonzero(values[seen]))
        plots += len(seen)
        for area, terms in _panel_units(sample, p):
            n = sum(len(idx) for _, idx in terms)
            acc = 0.0
            for w, idx in terms:
                vals = values[idx]
                n_h = len(idx)
                s2 = float(vals.var(ddof=1)) if n_h > 1 else 0.0
                total += w_p * area * w * float(vals.mean())
                acc += s2 * (w + (1.0 - w) / n)
            variance += w_p * w_p * (area ** 2 / n) * acc
    return TotalEstimate(total, variance, nonzero, plots)


def _reference_covariance(x: np.ndarray, y: np.ndarray, sample: Sample, weights) -> float:
    """The per-panel, per-unit, per-stratum covariance loop."""
    cov = 0.0
    for p, w_p in enumerate(weights):
        for area, terms in _panel_units(sample, p):
            n = sum(len(idx) for _, idx in terms)
            acc = 0.0
            for w, idx in terms:
                n_h = len(idx)
                if n_h > 1:
                    xv = x[idx]
                    yv = y[idx]
                    s_xy = float(((xv - xv.mean()) * (yv - yv.mean())).sum() / (n_h - 1))
                else:
                    s_xy = 0.0
                acc += s_xy * (w + (1.0 - w) / n)
            cov += w_p * w_p * (area ** 2 / n) * acc
    return cov


@st.composite
def _stratified_samples(draw):
    """A sample of 1-3 units with 1-4 strata each on 1-4 panels, two sparse plot
    series and the panel weights.

    A stratum may be empty in some panels (weights renormalize) or hold one
    plot, and a whole panel may be empty.  Most samples give each plot at
    most one membership; the rest draw each (stratum, panel)'s plots with
    replacement, so a plot can sit in several strata and panels or in none,
    as duplicate or dangling assignments allow.
    """
    n_plots = draw(st.integers(1, 24))
    n_panels = draw(st.integers(1, 4))
    partition = draw(st.booleans())
    order = draw(st.permutations(range(n_plots)))
    strata, unit, units, members = [], [], [], []
    for u in range(draw(st.integers(1, 3))):
        units.append(EstimationUnit(cn=f"U{u}", evalid=1, area_used=draw(st.floats(1.0, 1e6))))
        for h in range(draw(st.integers(1, 4))):
            strata.append(Stratum(cn=f"S{u}{h}", estn_unit_cn=f"U{u}",
                                  weight=draw(st.floats(0.01, 1.0)),
                                  adj_subp=1.0, adj_micr=1.0, adj_macr=1.0))
            unit.append(u)
            for p in range(n_panels):
                if partition:
                    size = draw(st.integers(0, min(4, len(order))))
                    plots, order = order[:size], order[size:]
                else:
                    plots = draw(st.lists(st.integers(0, n_plots - 1), max_size=4))
                members += [(i, len(strata) - 1, p) for i in plots]
    plot, stratum, panel = (np.array(a, dtype=np.intp).reshape(-1)
                            for a in zip(*members or [(0, 0, 0)]))
    sample = Sample(np.arange(n_plots), plot, stratum, panel, np.zeros_like(plot), strata,
                    np.array(unit, dtype=np.intp), units, n_panels)
    values = st.one_of(st.just(0.0), st.floats(-1e4, 1e4))
    x = np.array(draw(st.lists(values, min_size=n_plots, max_size=n_plots)))
    y = np.array(draw(st.lists(values, min_size=n_plots, max_size=n_plots)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n_panels, max_size=n_panels))
    return sample, x, y, weights


@settings(max_examples=300, deadline=None)
@given(_stratified_samples())
def test_kernel_matches_per_stratum_loops(case):
    sample, x, y, weights = case
    # Summation order differs, so values agree to 1e-12 relative, with an
    # absolute floor at 1e-12 of the largest possible term for results that
    # cancel to nearly zero.
    big = max(float(np.abs(np.concatenate([x, y])).max()), 1.0)
    area = sum(unit.area_used for unit in sample.units) * sample.n_panels
    want = _reference_total(x, sample, weights)
    got = post_stratified_total(x, sample, weights)
    assert (got.n_nonzero, got.n_plots) == (want.n_nonzero, want.n_plots)
    assert math.isclose(got.total, want.total, rel_tol=1e-12, abs_tol=1e-12 * area * big)
    assert math.isclose(
        got.variance, want.variance, rel_tol=1e-12, abs_tol=1e-12 * (area * big) ** 2
    )
    assert math.isclose(
        post_stratified_covariance(x, y, sample, weights),
        _reference_covariance(x, y, sample, weights),
        rel_tol=1e-12,
        abs_tol=1e-12 * (area * big) ** 2,
    )


# -- ratio_estimate and sampling_error_pct ---------------------------------
# The scalar forms the elementwise functions replaced, kept as the
# bit-for-bit reference: None marks an undefined cell, the square is
# Python's ``**`` (C pow).


def _scalar_ratio(num_total, num_var, den_total, den_var, cov):
    if den_total == 0:
        return None, None
    r = num_total / den_total
    raw = num_var + r * r * den_var - 2.0 * r * cov
    if raw < 0.0:
        scale = num_var + r * r * den_var + 2.0 * abs(r * cov)
        if -raw <= 1e-9 * max(scale, 1.0):
            raw = 0.0
        else:
            raise EstimationError(f"ratio variance went negative ({raw!r})")
    return r, raw / (den_total ** 2)


def _scalar_se(estimate, variance, n_nonzero):
    if estimate is None or variance is None:
        return None
    if n_nonzero < 2 or estimate == 0:
        return None
    if variance == 0:
        return 0.0
    return 100.0 * math.sqrt(variance) / abs(estimate)


def _bits(values) -> list:
    """Each value's exact bits, None for NaN."""
    return [None if v is None or math.isnan(v) else float(v).hex() for v in values]


def test_ratio_point_and_variance():
    r, v = ratio_estimate(np.array([6000.0, 300.0]), np.array([6.0e6, 0.0]),
                          np.array([1000.0, 100.0]), np.array([0.0, 0.0]), np.zeros(2))
    assert r.tolist() == pytest.approx([6.0, 3.0])
    # var formula: (v_num - 2 r cov + r^2 v_den) / den_total^2
    assert v.tolist() == pytest.approx([6.0, 0.0])


def test_ratio_zero_denominator_is_undefined():
    r, v = ratio_estimate(np.array([5.0, 5.0]), np.array([1.0, 1.0]),
                          np.array([0.0, 2.0]), np.zeros(2), np.zeros(2))
    assert np.isnan(r[0]) and np.isnan(v[0])
    assert (r[1], v[1]) == (2.5, 0.25)


def test_ratio_variance_negative_within_rounding_clamps_to_zero():
    # cov barely above the consistent value: raw = 4 - 2*4.000000000001 + 4 < 0
    r, v = ratio_estimate(np.array([10.0]), np.array([4.0]), np.array([10.0]),
                          np.array([4.0]), np.array([4.0 + 1e-12]))
    assert r[0] == pytest.approx(1.0)
    assert v[0] == 0.0


def test_ratio_variance_truly_negative_raises():
    with pytest.raises(EstimationError):
        ratio_estimate(np.array([6.0, 10.0]), np.array([1.0, 4.0]), np.array([3.0, 10.0]),
                       np.array([0.0, 4.0]), np.array([0.0, 40.0]))


def test_ratio_squares_the_denominator_with_pow():
    # x ** 2 and x * x round differently here; the output keeps x ** 2.
    x = 3631.0701386299424
    assert x ** 2 != x * x
    _, v = ratio_estimate(np.array([x]), np.array([1.0]), np.array([x]), np.zeros(1),
                          np.zeros(1))
    assert v[0] == 1.0 / x ** 2 != 1.0 / (x * x)


def test_sampling_error_basic():
    se = sampling_error_pct(np.array([6.0, -2.0]), np.array([6.0, 1.0]), np.array([3, 2]))
    assert se.tolist() == pytest.approx([100 * math.sqrt(6) / 6, 50.0])


def test_sampling_error_undefined_cases():
    se = sampling_error_pct(
        np.array([np.nan, 5.0, 5.0, 0.0, 5.0]),
        np.array([1.0, np.nan, 1.0, 1.0, 0.0]),
        np.array([5, 5, 1, 5, 5]),  # one nonzero plot in the third cell
    )
    assert np.isnan(se[:4]).all()  # undefined estimate, variance, one plot, zero estimate
    assert se[4] == 0.0


@st.composite
def _ratio_cells(draw):
    """1-6 cells of (num total, num var, den total, den var, cov, nonzero plots).

    Cells are consistent (|cov| at most the Cauchy-Schwarz bound), nearly
    proportional (raw variance is rounding noise, clamped to zero) or
    arbitrary (often a variance that is truly negative).  A nonzero
    denominator stays at least 1e-3 in magnitude: the scalar form divides by
    zero where its square underflows.
    """
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        den = draw(st.one_of(st.just(0.0), st.just(3631.0701386299424),
                             st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3)))
        den_var, r = draw(st.floats(0.0, 1e12)), draw(st.floats(-1e3, 1e3))
        kind = draw(st.sampled_from(["consistent", "proportional", "arbitrary"]))
        if kind == "proportional":
            num, num_var, cov = r * den, r * r * den_var, r * den_var
        else:
            num, num_var = draw(st.floats(-1e6, 1e6)), draw(st.floats(0.0, 1e12))
            bound = math.sqrt(num_var * den_var)
            cov = draw(st.floats(-bound, bound) if kind == "consistent"
                       else st.floats(-1e12, 1e12))
        cells.append((num, num_var, den, den_var, cov, draw(st.integers(0, 3))))
    return cells


@settings(max_examples=500, deadline=None)
@given(_ratio_cells())
def test_elementwise_forms_match_the_scalar_forms_bit_for_bit(cells):
    columns = [np.array(c) for c in zip(*cells)]
    try:
        want = [_scalar_ratio(*cell[:5]) for cell in cells]
    except EstimationError:
        with pytest.raises(EstimationError):
            ratio_estimate(*columns[:5])
        return
    r, v = ratio_estimate(*columns[:5])
    assert _bits(r.tolist()) == _bits([w[0] for w in want])
    assert _bits(v.tolist()) == _bits([w[1] for w in want])
    se = sampling_error_pct(r, v, columns[5].astype(int))
    assert _bits(se.tolist()) == _bits(
        [_scalar_se(*w, cell[5]) for w, cell in zip(want, cells)])
    # totals (no denominator) take the same sampling error
    se = sampling_error_pct(columns[0], columns[1], columns[5].astype(int))
    assert _bits(se.tolist()) == _bits(
        [_scalar_se(cell[0], cell[1], cell[5]) for cell in cells])


# -- make_classes ----------------------------------------------------------


def test_size_class_labels():
    assert make_classes(1.0) == "[1, 3)"
    assert make_classes(2.9) == "[1, 3)"
    assert make_classes(3.0) == "[3, 5)"
    assert make_classes(10.4) == "[9, 11)"
    assert make_classes(None) is None


def test_size_class_below_lower_bound():
    assert make_classes(0.2) == "< 1"


def test_size_class_custom_width_and_origin():
    assert make_classes(12.0, width=5.0, lower=0.0) == "[10, 15)"
    assert make_classes(4.9, width=5.0, lower=0.0) == "[0, 5)"
    assert make_classes(1.6, width=0.5, lower=0.25) == "[1.25, 1.75)"
