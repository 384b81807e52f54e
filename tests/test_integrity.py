"""``validate_integrity`` against the record-walking implementation it replaced.

``reference_validate_integrity`` below is that implementation, renamed.  It
builds its own record dicts where it once read ``ForestDatabase``'s, and it
gained the ``duplicate CN`` rule of estimation units and strata along with
the columnar validator.  The columnar validator must give the same
violations, in the same order and with the same text, on the fixtures and on
random databases with injected defects, both in memory and after a
write/load round trip.
"""

import dataclasses
import functools
import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline.io import load_database, write_database
from timberline.model import (
    EVAL_TYPES,
    FUEL_TYPES,
    GRM_COMPONENTS,
    MICROPLOT,
    SUBPLOT,
    TABLES,
    ForestDatabase,
    Violation,
    derive_sizer,
    validate_integrity,
)
from timberline.synth import FIXTURE_NAMES, build_fixture, random_database


def _check_range(out, table, key, rule, value, lo, hi) -> None:
    if value is not None and not (lo <= value <= hi):
        out.append(Violation(table, key, rule))


def reference_validate_integrity(db: ForestDatabase) -> list[Violation]:
    """Check foreign keys, uniqueness, and value ranges; report, never raise."""
    out: list[Violation] = []

    seen_plots: set[str] = set()
    for p in db.plots:
        if p.cn in seen_plots:
            out.append(Violation("PLOT", p.cn, "duplicate CN"))
        seen_plots.add(p.cn)
        _check_range(out, "PLOT", p.cn, "LAT outside [-90, 90]", p.lat, -90.0, 90.0)
        _check_range(out, "PLOT", p.cn, "LON outside [-180, 180]", p.lon, -180.0, 180.0)
        if p.remper is not None and p.remper <= 0:
            out.append(Violation("PLOT", p.cn, "REMPER not positive"))

    seen_conds: set[tuple[str, int]] = set()
    prop_sum: dict[str, float] = {}
    for c in db.conds:
        key = f"{c.plt_cn}/{c.condid}"
        if (c.plt_cn, c.condid) in seen_conds:
            out.append(Violation("COND", key, "duplicate (PLT_CN, CONDID)"))
        seen_conds.add((c.plt_cn, c.condid))
        if c.plt_cn not in seen_plots:
            out.append(Violation("COND", key, "cond->plot"))
        _check_range(out, "COND", key, "CONDPROP_UNADJ outside [0, 1]",
                     c.condprop_unadj, 0.0, 1.0)
        if c.condprop_unadj is not None:
            prop_sum[c.plt_cn] = prop_sum.get(c.plt_cn, 0.0) + c.condprop_unadj
    for plt_cn, total in prop_sum.items():
        if total > 1.0 + 1e-6:
            out.append(Violation("COND", plt_cn, "sum CONDPROP_UNADJ > 1"))

    for t in db.trees:
        key = t.cn
        if t.plt_cn not in seen_plots:
            out.append(Violation("TREE", key, "tree->plot"))
        elif (t.plt_cn, t.condid) not in seen_conds:
            out.append(Violation("TREE", key, "tree->cond"))
        if t.dia is not None and t.dia <= 0:
            out.append(Violation("TREE", key, "DIA not positive"))
        if t.tpa_unadj is not None and t.tpa_unadj < 0:
            out.append(Violation("TREE", key, "TPA_UNADJ negative"))
        if t.dia is not None and t.sizer is not None:
            if derive_sizer(t.dia) == MICROPLOT and t.sizer != MICROPLOT:
                out.append(Violation("TREE", key, "SIZER inconsistent with DIA"))
            if derive_sizer(t.dia) == SUBPLOT and t.sizer == MICROPLOT:
                out.append(Violation("TREE", key, "SIZER inconsistent with DIA"))
        if t.component is not None and t.component not in GRM_COMPONENTS:
            out.append(Violation("TREE", key, "unknown COMPONENT"))

    for i, s in enumerate(db.seedlings):
        key = f"{s.plt_cn}/{s.condid}#{i}"
        if s.plt_cn not in seen_plots:
            out.append(Violation("SEEDLING", key, "seedling->plot"))
        elif (s.plt_cn, s.condid) not in seen_conds:
            out.append(Violation("SEEDLING", key, "seedling->cond"))
        if s.treecount is not None and s.treecount < 1:
            out.append(Violation("SEEDLING", key, "TREECOUNT < 1"))

    seen_dwm: set[tuple[str, int, str]] = set()
    for d in db.dwm:
        key = f"{d.plt_cn}/{d.condid}/{d.fuel_type}"
        if (d.plt_cn, d.condid, d.fuel_type) in seen_dwm:
            out.append(Violation("COND_DWM_CALC", key, "duplicate fuel row"))
        seen_dwm.add((d.plt_cn, d.condid, d.fuel_type))
        if d.plt_cn not in seen_plots:
            out.append(Violation("COND_DWM_CALC", key, "dwm->plot"))
        elif (d.plt_cn, d.condid) not in seen_conds:
            out.append(Violation("COND_DWM_CALC", key, "dwm->cond"))
        if d.fuel_type not in FUEL_TYPES:
            out.append(Violation("COND_DWM_CALC", key, "unknown FUEL_TYPE"))
        for v in (d.vol_acre, d.bio_acre, d.carb_acre):
            if v is not None and v < 0:
                out.append(Violation("COND_DWM_CALC", key, "negative per-acre value"))
                break

    for i, r in enumerate(db.invasives):
        key = f"{r.plt_cn}/{r.condid}#{i}"
        if r.plt_cn not in seen_plots:
            out.append(Violation("INVASIVE_SUBPLOT_SPP", key, "invasive->plot"))
        elif (r.plt_cn, r.condid) not in seen_conds:
            out.append(Violation("INVASIVE_SUBPLOT_SPP", key, "invasive->cond"))
        _check_range(out, "INVASIVE_SUBPLOT_SPP", key, "COVER_PCT outside [0, 100]",
                     r.cover_pct, 0.0, 100.0)

    seen_evals: set[int] = set()
    for e in db.evaluations:
        key = str(e.evalid)
        if e.evalid in seen_evals:
            out.append(Violation("POP_EVAL", key, "duplicate EVALID"))
        seen_evals.add(e.evalid)
        if e.eval_typ is not None and e.eval_typ not in EVAL_TYPES:
            out.append(Violation("POP_EVAL", key, "unknown EVAL_TYP"))

    unit_by_cn: dict[str, object] = {}
    for u in db.estn_units:
        if u.cn in unit_by_cn:
            out.append(Violation("POP_ESTN_UNIT", u.cn, "duplicate CN"))
        unit_by_cn[u.cn] = u
        if u.evalid not in seen_evals:
            out.append(Violation("POP_ESTN_UNIT", u.cn, "unit->evaluation"))
        if u.area_used is not None and u.area_used <= 0:
            out.append(Violation("POP_ESTN_UNIT", u.cn, "AREA_USED not positive"))

    stratum_by_cn: dict[str, object] = {}
    for s in db.strata:
        if s.cn in stratum_by_cn:
            out.append(Violation("POP_STRATUM", s.cn, "duplicate CN"))
        stratum_by_cn[s.cn] = s
        if s.estn_unit_cn not in unit_by_cn:
            out.append(Violation("POP_STRATUM", s.cn, "stratum->unit"))
        if s.weight is not None and not (0.0 < s.weight <= 1.0):
            out.append(Violation("POP_STRATUM", s.cn, "STRATUM_WGT outside (0, 1]"))
        for adj in (s.adj_subp, s.adj_micr, s.adj_macr):
            if adj is not None and adj <= 0:
                out.append(Violation("POP_STRATUM", s.cn, "adjustment factor not positive"))
                break
    strata_by_unit: dict[str, list] = {}
    for s in db.strata:
        strata_by_unit.setdefault(s.estn_unit_cn, []).append(s)
    for unit_cn, strata in strata_by_unit.items():
        weights = [s.weight for s in strata if s.weight is not None]
        if weights and not math.isclose(sum(weights), 1.0, abs_tol=1e-9):
            out.append(Violation("POP_STRATUM", unit_cn, "sum W_h != 1"))

    per_eval_plot: dict[tuple[int, str], int] = {}
    for a in db.assignments:
        key = f"{a.plt_cn}->{a.stratum_cn}"
        if a.plt_cn not in seen_plots:
            out.append(Violation("POP_PLOT_STRATUM_ASSGN", key, "assignment->plot"))
        if a.stratum_cn not in stratum_by_cn:
            out.append(Violation("POP_PLOT_STRATUM_ASSGN", key, "assignment->stratum"))
            continue
        unit = unit_by_cn.get(stratum_by_cn[a.stratum_cn].estn_unit_cn)
        evalid = unit.evalid if unit is not None else None
        if evalid is not None:
            k = (evalid, a.plt_cn)
            per_eval_plot[k] = per_eval_plot.get(k, 0) + 1
    for (evalid, plt_cn), count in per_eval_plot.items():
        if count > 1:
            out.append(Violation(
                "POP_PLOT_STRATUM_ASSGN", f"{evalid}/{plt_cn}",
                "plot assigned to multiple strata in one evaluation",
            ))

    seen_spcd: set[int] = set()
    for sp in db.species:
        if sp.spcd in seen_spcd:
            out.append(Violation("REF_SPECIES", str(sp.spcd), "duplicate SPCD"))
        seen_spcd.add(sp.spcd)

    return out


# --------------------------------------------------------------------------
# Defects injected into a database's records.  Each one edits, copies,
# re-points or reorders rows, picked by an integer; ``writable`` says whether
# ``write_database`` and ``load_database`` accept the result.
# --------------------------------------------------------------------------

_FIELDS = tuple(spec.db_field for spec in TABLES.values())
_CHILDREN = ("conds", "trees", "seedlings", "dwm", "invasives")


@dataclasses.dataclass(frozen=True)
class _Defect:
    name: str
    apply: object
    writable: bool = True


def _edit(field, **changes):
    def apply(tables, pick):
        rows = tables[field]
        if rows:
            i = pick % len(rows)
            rows[i] = rows[i]._replace(**changes)
    return apply


def _duplicate(field):
    def apply(tables, pick):
        rows = tables[field]
        if rows:
            rows.insert(pick // 7 % (len(rows) + 1), rows[pick % len(rows)])
    return apply


def _reverse(field):
    def apply(tables, pick):
        tables[field].reverse()
    return apply


def _unassign(tables, pick):
    """Every assignment of one plot pointed at a stratum that does not exist."""
    rows = tables["assignments"]
    if rows:
        plot = rows[pick % len(rows)].plt_cn
        tables["assignments"] = [a._replace(stratum_cn="GHOST")
                                 if a.plt_cn == plot else a for a in rows]


def _restratify(tables, pick):
    """A second assignment of a plot, to a stratum picked among all strata."""
    rows, strata = tables["assignments"], tables["strata"]
    if rows and strata:
        stratum = strata[pick // 3 % len(strata)]
        rows.append(rows[pick % len(rows)]._replace(stratum_cn=stratum.cn))


_DEFECTS = (
    *(_Defect(f"duplicate {f}", _duplicate(f)) for f in _FIELDS),
    *(_Defect(f"reversed {f}", _reverse(f)) for f in _FIELDS),
    _Defect("second stratum", _restratify),
    _Defect("unassigned plot", _unassign, writable=False),
    *(_Defect(f"orphan PLT_CN in {f}", _edit(f, plt_cn="GHOST"), writable=False)
      for f in _CHILDREN),
    _Defect("orphan PLT_CN in assignments", _edit("assignments", plt_cn="GHOST")),
    *(_Defect(f"orphan CONDID in {f}", _edit(f, condid=99)) for f in _CHILDREN),
    _Defect("orphan STRATUM_CN", _edit("assignments", stratum_cn="GHOST"), writable=False),
    _Defect("orphan ESTN_UNIT_CN", _edit("strata", estn_unit_cn="GHOST"), writable=False),
    _Defect("orphan EVALID", _edit("estn_units", evalid=123), writable=False),
    _Defect("LAT high", _edit("plots", lat=95.0)),
    _Defect("LAT low", _edit("plots", lat=-90.5)),
    _Defect("LON high", _edit("plots", lon=180.25)),
    _Defect("LAT at the pole", _edit("plots", lat=-90.0)),
    _Defect("LON at the antimeridian", _edit("plots", lon=180.0)),
    _Defect("CONDPROP high", _edit("conds", condprop_unadj=1.5)),
    _Defect("CONDPROP low", _edit("conds", condprop_unadj=-0.25)),
    _Defect("CONDPROP overfull", _edit("conds", condprop_unadj=0.75)),
    _Defect("CONDPROP a hair over", _edit("conds", condprop_unadj=1.0000005)),
    _Defect("COVER_PCT high", _edit("invasives", cover_pct=100.5)),
    _Defect("COVER_PCT low", _edit("invasives", cover_pct=-3.0)),
    _Defect("COVER_PCT full", _edit("invasives", cover_pct=100.0)),
    _Defect("CONDPROP zero", _edit("conds", condprop_unadj=0.0)),
    _Defect("STRATUM_WGT one", _edit("strata", weight=1.0)),
    _Defect("STRATUM_WGT zero", _edit("strata", weight=0.0)),
    _Defect("STRATUM_WGT high", _edit("strata", weight=1.25)),
    _Defect("STRATUM_WGT off", _edit("strata", weight=0.5)),
    _Defect("DIA zero", _edit("trees", dia=0.0)),
    _Defect("DIA negative", _edit("trees", dia=-2.0)),
    _Defect("TPA_UNADJ negative", _edit("trees", tpa_unadj=-6.0)),
    _Defect("REMPER zero", _edit("plots", remper=0.0)),
    _Defect("AREA_USED zero", _edit("estn_units", area_used=0.0)),
    _Defect("AREA_USED negative", _edit("estn_units", area_used=-5.0)),
    _Defect("ADJ_FACTOR_MICR negative", _edit("strata", adj_micr=-1.0)),
    _Defect("ADJ_FACTOR_MACR zero", _edit("strata", adj_macr=0.0)),
    _Defect("TREECOUNT zero", _edit("seedlings", treecount=0)),
    _Defect("VOL_ACRE negative", _edit("dwm", vol_acre=-1.0)),
    _Defect("CARB_ACRE negative", _edit("dwm", carb_acre=-0.5)),
    _Defect("unknown COMPONENT", _edit("trees", component="BOGUS")),
    _Defect("unknown FUEL_TYPE", _edit("dwm", fuel_type="9HR")),
    _Defect("unknown EVAL_TYP", _edit("evaluations", eval_typ="XYZ")),
    _Defect("small tree on the subplot", _edit("trees", dia=3.0, sizer=SUBPLOT)),
    _Defect("large tree on the microplot", _edit("trees", dia=10.0, sizer=MICROPLOT)),
    _Defect("null LAT", _edit("plots", lat=None)),
    _Defect("null REMPER", _edit("plots", remper=None)),
    _Defect("null CONDPROP", _edit("conds", condprop_unadj=None)),
    _Defect("null DIA", _edit("trees", dia=None)),
    _Defect("null SIZER", _edit("trees", sizer=None)),
    _Defect("null SIZER on a small tree", _edit("trees", dia=2.0, sizer=None)),
    _Defect("null COMPONENT", _edit("trees", component=None)),
    _Defect("null TREECOUNT", _edit("seedlings", treecount=None)),
    _Defect("null COVER_PCT", _edit("invasives", cover_pct=None)),
    _Defect("null EVAL_TYP", _edit("evaluations", eval_typ=None)),
    _Defect("null AREA_USED", _edit("estn_units", area_used=None)),
    _Defect("null STRATUM_WGT", _edit("strata", weight=None)),
    _Defect("null ADJ_FACTOR_SUBP", _edit("strata", adj_subp=None)),
    _Defect("null CONDID", _edit("trees", condid=None), writable=False),
    _Defect("null FUEL_TYPE", _edit("dwm", fuel_type=None), writable=False),
)

_SOURCES = (*FIXTURE_NAMES, *range(30))


@functools.lru_cache(maxsize=None)
def _base(source):
    db = build_fixture(source) if isinstance(source, str) else random_database(source)
    return {f: tuple(getattr(db, f)) for f in _FIELDS}, db.states


def _inject(source, defects) -> ForestDatabase:
    tables, states = _base(source)
    tables = {f: list(rows) for f, rows in tables.items()}
    for k, pick in defects:
        _DEFECTS[k].apply(tables, pick)
    return ForestDatabase(states=states, **tables)


def _report(validate, db) -> list[str]:
    return [str(v) for v in validate(db)]


def _round_trip(db) -> ForestDatabase:
    with tempfile.TemporaryDirectory() as tmp:
        write_database(db, tmp)
        return load_database(tmp, db.states)


def test_clean_sources_match_the_reference():
    for source in _SOURCES:
        db = _inject(source, ())
        assert _report(validate_integrity, db) == _report(reference_validate_integrity, db) == []


def test_every_rule_is_reached_and_matches_the_reference():
    rules, tables = set(), set()
    for source in ("SYNTH-1", "SYNTH-GRM", "SYNTH-INV", 0, 1, 2):
        for k in range(len(_DEFECTS)):
            for pick in (0, 11):
                db = _inject(source, [(k, pick)])
                expected = reference_validate_integrity(db)
                assert _report(validate_integrity, db) == [str(v) for v in expected]
                assert validate_integrity(db) == expected
                rules.update(v.rule for v in expected)
                tables.update(v.table for v in expected if v.rule == "duplicate CN")
    assert len(rules) == 37
    assert tables == {"PLOT", "POP_ESTN_UNIT", "POP_STRATUM"}


def _named(*names_and_picks):
    index = {d.name: k for k, d in enumerate(_DEFECTS)}
    return [(index[name], pick) for name, pick in names_and_picks]


@pytest.mark.parametrize("source, defects", [
    # groups of two keys flagged out of their sorted order
    (0, _named(("reversed assignments", 0), ("duplicate assignments", 3),
               ("duplicate assignments", 40))),
    (1, _named(("reversed conds", 0), ("CONDPROP overfull", 3), ("CONDPROP overfull", 30))),
    (1, _named(("reversed strata", 0), ("STRATUM_WGT off", 0), ("STRATUM_WGT off", 2))),
    # a plot whose every assignment names a missing stratum is in no evaluation
    (1, _named(("unassigned plot", 3),)),
    (2, _named(("reversed dwm", 0), ("duplicate dwm", 1), ("duplicate dwm", 9))),
])
def test_combined_defects_match_the_reference(source, defects):
    db = _inject(source, defects)
    assert _report(validate_integrity, db) == _report(reference_validate_integrity, db) != []


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_SOURCES),
       st.lists(st.tuples(st.integers(0, len(_DEFECTS) - 1), st.integers(0, 10**6)),
                max_size=6))
def test_injected_defects_match_the_reference(source, defects):
    db = _inject(source, defects)
    assert _report(validate_integrity, db) == _report(reference_validate_integrity, db)
    if all(_DEFECTS[k].writable for k, _ in defects):
        back = _round_trip(db)
        assert _report(validate_integrity, back) == _report(reference_validate_integrity, back)


def test_a_loaded_database_builds_no_records_to_validate():
    defects = [(k, 5) for k, d in enumerate(_DEFECTS)
               if d.writable and not d.name.startswith("reversed")]
    db = _round_trip(_inject(2, defects))
    found = validate_integrity(db)
    assert len(found) > 10
    for table in ("PLOT", "COND", "TREE", "SEEDLING", "COND_DWM_CALC", "INVASIVE_SUBPLOT_SPP"):
        assert "records" not in db.table(table).__dict__, table
    assert [str(v) for v in found] == _report(reference_validate_integrity, db)
