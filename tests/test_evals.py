"""Evaluation selection and database clipping."""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_contents
from timberline.errors import EstimationError, UsageError
from timberline.evals import ClipOptions, clip, find_evaluations
from timberline.io import load_database, write_database
from timberline.model import ForestDatabase, StratumAssignment
from timberline.spatial import PolygonSet, plot_owners
from timberline.synth import build_fixture, random_database


def test_find_evaluations_all_sorted():
    db = random_database(0)
    ids = find_evaluations(db)
    assert ids == sorted(ids)
    assert len(ids) == len(db.evaluations)


def test_find_evaluations_filters_by_year_and_type(synth_grm):
    assert find_evaluations(synth_grm, year=2018) == [91862]
    assert find_evaluations(synth_grm, year=1999) == []
    assert find_evaluations(synth_grm, eval_type="GRM") == [91862]
    assert find_evaluations(synth_grm, eval_type="vol") == []


def test_clip_by_evalid_keeps_only_referenced_rows():
    db = random_database(1)
    first = find_evaluations(db)[0]
    out = clip(db, evalids=(first,))
    assert [e.evalid for e in out.evaluations] == [first]
    plot_cns = {p.cn for p in out.plots}
    assert all(t.plt_cn in plot_cns for t in out.trees)
    assert all(a.plt_cn in plot_cns for a in out.assignments)
    # strata all reachable from kept units
    unit_cns = {u.cn for u in out.estn_units}
    assert all(s.estn_unit_cn in unit_cns for s in out.strata)


def test_clip_unknown_evalid_lists_known():
    db = build_fixture("SYNTH-1")
    with pytest.raises(EstimationError, match="91801"):
        clip(db, evalids=(424242,))


def test_clip_most_recent_picks_latest_per_state():
    db = random_database(2)
    out = clip(db, most_recent=True)
    years = {(e.statecd, e.report_year) for e in out.evaluations}
    for st in {e.statecd for e in db.evaluations}:
        all_years = [e.report_year for e in db.evaluations if e.statecd == st]
        assert (st, max(all_years)) in years


def test_clip_rejects_conflicting_selectors():
    db = build_fixture("SYNTH-1")
    with pytest.raises(UsageError, match="at most one"):
        clip(db, most_recent=True, evalids=(91801,))


def test_clip_options_and_keywords_are_exclusive():
    db = build_fixture("SYNTH-1")
    with pytest.raises(UsageError):
        clip(db, ClipOptions(most_recent=True), year=2018)


def test_clip_unfiltered_is_identity_copy(synth1):
    out = clip(synth1)
    assert same_contents(out, synth1)


def test_clip_mask_drops_outside_plots_keeps_population(synth1):
    # SYNTH-1 longitudes: P1 -73.00, P2 -72.90, P3 -72.60, P4 -72.50
    box = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"id": "west"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[-73.05, 41.0], [-72.75, 41.0],
                                 [-72.75, 42.0], [-73.05, 42.0],
                                 [-73.05, 41.0]]],
            },
        }],
    }
    out = clip(synth1, mask=box)
    assert {p.cn for p in out.plots} == {"P1", "P2"}
    assert {a.plt_cn for a in out.assignments} == {"P1", "P2"}
    # population tables intact: expansion still uses the full unit area
    assert len(out.strata) == len(synth1.strata)
    assert out.estn_units[0].area_used == 1000.0


def test_clip_estimates_still_run_after_mask(synth1):
    import timberline as tl

    box = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"id": "east"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[-72.75, 41.0], [-72.0, 41.0],
                                 [-72.0, 42.0], [-72.75, 42.0],
                                 [-72.75, 41.0]]],
            },
        }],
    }
    out = clip(synth1, mask=box)  # P3 (no trees) and P4 (one 6.0-tpa tree)
    table = tl.tpa(out)
    # plot means 0 and 6 over the full 1000-acre unit
    assert table.rows[0]["TPA"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# The column clip against the record clip it replaced
# ---------------------------------------------------------------------------


def _reference_select(db, options):
    chosen = list(db.evaluations)
    if options.evalids:
        known = {ev.evalid: ev for ev in db.evaluations}
        missing = [e for e in options.evalids if e not in known]
        if missing:
            have = ", ".join(str(k) for k in sorted(known)) or "none"
            raise EstimationError(
                f"unknown evalid(s) {', '.join(str(m) for m in missing)}; "
                f"database has {have}"
            )
        chosen = [known[e] for e in options.evalids]
    if options.year is not None:
        chosen = [ev for ev in chosen if ev.report_year == options.year]
    if options.match_eval:
        by_state = {}
        for ev in chosen:
            by_state.setdefault(ev.statecd, set()).add(ev.report_year)
        if by_state:
            common = set.intersection(*by_state.values())
            chosen = [ev for ev in chosen if ev.report_year in common]
    if options.most_recent:
        latest = {}
        for ev in chosen:
            y = ev.report_year if ev.report_year is not None else -1
            st = ev.statecd
            if st not in latest or y > latest[st]:
                latest[st] = y
        chosen = [
            ev
            for ev in chosen
            if (ev.report_year if ev.report_year is not None else -1) == latest[ev.statecd]
        ]
    return chosen


def _reference_clip(db, options):
    """The record-by-record ``clip`` that the column one replaced, kept as an oracle."""
    chosen = _reference_select(db, options)
    keep_evals = {ev.evalid for ev in chosen}

    units = [u for u in db.estn_units if u.evalid in keep_evals]
    unit_cns = {u.cn for u in units}
    strata = [s for s in db.strata if s.estn_unit_cn in unit_cns]
    stratum_cns = {s.cn for s in strata}

    assigned_plots = set()
    assignments = []
    for a in db.assignments:
        if a.stratum_cn in stratum_cns:
            assignments.append(a)
            assigned_plots.add(a.plt_cn)

    plot_by_cn = {p.cn: p for p in db.plots}
    keep_plots = {cn for cn in assigned_plots if cn in plot_by_cn}
    if options.mask is not None:
        owner = plot_owners(np.array([p.lon for p in db.plots], dtype=float),
                            np.array([p.lat for p in db.plots], dtype=float), options.mask)
        inside = {p.cn for p, k in zip(db.plots, owner.tolist()) if k >= 0}
        keep_plots &= inside
        assignments = [a for a in assignments if a.plt_cn in keep_plots]

    plots = [p for p in db.plots if p.cn in keep_plots]
    conds = [c for c in db.conds if c.plt_cn in keep_plots]
    trees = [t for t in db.trees if t.plt_cn in keep_plots]
    seedlings = [s for s in db.seedlings if s.plt_cn in keep_plots]
    dwm = [d for d in db.dwm if d.plt_cn in keep_plots]
    invasives = [i for i in db.invasives if i.plt_cn in keep_plots]

    return ForestDatabase(
        plots=plots, conds=conds, trees=trees, seedlings=seedlings, dwm=dwm,
        invasives=invasives, evaluations=chosen, estn_units=units, strata=strata,
        assignments=assignments, species=db.species, states=db.states,
    )


_TABLE_FIELDS = ("plots", "conds", "trees", "seedlings", "dwm", "invasives",
                 "evaluations", "estn_units", "strata", "assignments", "species")


def _records(db):
    return {name: [repr(r) for r in getattr(db, name)] for name in _TABLE_FIELDS}, db.states


def _box(x0, x1):
    ring = [[x0, 41.0], [x1, 41.0], [x1, 42.0], [x0, 42.0], [x0, 41.0]]
    return PolygonSet.from_geojson({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "box", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}]})


@st.composite
def _clip_case(draw):
    db = random_database(draw(st.integers(0, 40)))
    plots = list(db.plots)
    if plots and draw(st.booleans()):  # a repeated plot CN, maybe without coordinates
        twin = dataclasses.replace(draw(st.sampled_from(plots)),
                                   lon=draw(st.sampled_from([None, -72.0, -73.4])))
        plots.insert(draw(st.integers(0, len(plots))), twin)
    assignments = list(db.assignments)
    if draw(st.booleans()):  # an assignment to a plot the database lacks
        assignments.append(StratumAssignment("GHOST", assignments[0].stratum_cn, 2018))
    db = ForestDatabase(
        plots=plots, conds=db.conds, trees=db.trees, seedlings=db.seedlings, dwm=db.dwm,
        invasives=db.invasives, evaluations=db.evaluations, estn_units=db.estn_units,
        strata=db.strata, assignments=assignments, species=db.species, states=db.states,
    )
    ids = [ev.evalid for ev in db.evaluations]
    selector = draw(st.sampled_from(["none", "most_recent", "evalids", "year"]))
    options = ClipOptions(
        most_recent=selector == "most_recent",
        evalids=tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4)))
        if selector == "evalids" else (),
        year=draw(st.sampled_from([2016, 2017, 2018])) if selector == "year" else None,
        match_eval=draw(st.booleans()),
        mask=_box(-73.5, draw(st.floats(-73.5, -71.5))) if draw(st.booleans()) else None,
    )
    return db, options


@settings(max_examples=60, deadline=None)
@given(case=_clip_case(), loaded=st.booleans())
def test_column_clip_matches_record_clip(case, loaded):
    db, options = case
    if loaded:  # the same rows as loaded columns
        with tempfile.TemporaryDirectory() as tmp:
            write_database(db, tmp)
            db = load_database(tmp, db.states)
    assert _records(clip(db, options)) == _records(_reference_clip(db, options))
