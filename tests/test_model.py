"""Record model, indexes, and integrity checks."""

import pytest

from timberline.model import (
    MACROPLOT,
    MICROPLOT,
    SUBPLOT,
    ConditionRecord,
    ForestDatabase,
    PlotRecord,
    Stratum,
    TreeRecord,
    derive_sizer,
    record_value,
    validate_integrity,
)
from timberline.synth import build_fixture


def _plot(cn, **kw):
    base = dict(
        cn=cn, statecd=9, plot=1, invyr=2018, lat=41.5, lon=-72.7,
        remper=None, plot_status_cd=1, designcd=1,
    )
    base.update(kw)
    return PlotRecord(**base)


def _cond(plt_cn, condid=1, **kw):
    base = dict(
        cn=f"C-{plt_cn}-{condid}", plt_cn=plt_cn, condid=condid,
        cond_status_cd=1, condprop_unadj=1.0, owncd=46, fortypcd=505, stdage=60,
    )
    base.update(kw)
    return ConditionRecord(**base)


def test_derive_sizer_breakpoint():
    assert derive_sizer(4.9) == MICROPLOT
    assert derive_sizer(5.0) == SUBPLOT
    assert derive_sizer(None) is None


def test_stratum_adjustment_by_size_basis():
    s = Stratum(cn="S", estn_unit_cn="U", weight=1.0,
                adj_subp=1.1, adj_micr=2.5, adj_macr=0.9)
    assert s.adjustment(SUBPLOT) == 1.1
    assert s.adjustment(MICROPLOT) == 2.5
    assert s.adjustment(MACROPLOT) == 0.9
    # unknown/missing basis falls back to the subplot factor
    assert s.adjustment(None) == 1.1


def test_record_value_reads_fields_and_extras():
    p = _plot("P1", extras={"ECOSUBCD": "M211"})
    assert record_value(p, "STATECD") == 9
    assert record_value(p, "INVYR") == 2018
    assert record_value(p, "ECOSUBCD") == "M211"
    assert record_value(p, "NOPE") is None


def test_indexes_group_children_by_plot(synth1):
    db = synth1

    def plot_of(table):
        return [db.plots[r].cn for r in db.columns.plot_rows(table)]

    assert [p.cn for p in db.plots] == ["P1", "P2", "P3", "P4"]
    assert [c.condid for c, cn in zip(db.conds, plot_of("COND")) if cn == "P1"] == [1]
    assert {t.cn for t, cn in zip(db.trees, plot_of("TREE")) if cn == "P1"} == {"T1", "T2"}
    assert "P3" not in plot_of("TREE")
    assert [db.conds[r].cn for r in db.columns.cond_rows("TREE")] == [
        f"C{t.plt_cn}-{t.condid}" for t in db.trees]


def test_assignments_reach_evaluation_through_stratum(synth1):
    # assignment -> stratum -> unit -> evalid
    assgn = [a for a in synth1.assignments if synth1.eval_of_stratum(a.stratum_cn) == 91801]
    assert len(assgn) == 4
    assert {a.plt_cn for a in assgn} == {"P1", "P2", "P3", "P4"}


def test_fixtures_validate_clean():
    for name in ("SYNTH-1", "SYNTH-5PANEL", "SYNTH-GRM", "SYNTH-INV"):
        assert validate_integrity(build_fixture(name)) == []


def test_integrity_flags_duplicate_plot_and_bad_latitude():
    db = ForestDatabase(
        plots=[_plot("P1"), _plot("P1"), _plot("P2", lat=95.0)],
        conds=[], trees=[], seedlings=[], dwm=[], invasives=[],
        evaluations=[], estn_units=[], strata=[], assignments=[], species=[],
        states=("CT",),
    )
    rules = {(v.table, v.rule) for v in validate_integrity(db)}
    assert ("PLOT", "duplicate CN") in rules
    assert ("PLOT", "LAT outside [-90, 90]") in rules


def test_integrity_flags_orphans_and_overfull_plot():
    db = ForestDatabase(
        plots=[_plot("P1")],
        conds=[_cond("P1", 1, condprop_unadj=0.7), _cond("P1", 2, condprop_unadj=0.6),
               _cond("GHOST")],
        trees=[TreeRecord(cn="T1", plt_cn="P1", condid=9, statuscd=1, spcd=316,
                          dia=10.0, tpa_unadj=6.0, sizer=SUBPLOT)],
        seedlings=[], dwm=[], invasives=[],
        evaluations=[], estn_units=[], strata=[], assignments=[], species=[],
        states=("CT",),
    )
    rules = [(v.table, v.rule) for v in validate_integrity(db)]
    assert ("COND", "cond->plot") in rules
    assert ("COND", "sum CONDPROP_UNADJ > 1") in rules
    assert ("TREE", "tree->cond") in rules


def test_integrity_flags_sizer_inconsistent_with_diameter():
    db = ForestDatabase(
        plots=[_plot("P1")],
        conds=[_cond("P1")],
        trees=[TreeRecord(cn="T1", plt_cn="P1", condid=1, statuscd=1, spcd=316,
                          dia=3.0, tpa_unadj=75.0, sizer=SUBPLOT)],
        seedlings=[], dwm=[], invasives=[],
        evaluations=[], estn_units=[], strata=[], assignments=[], species=[],
        states=("CT",),
    )
    assert any(v.rule == "SIZER inconsistent with DIA" for v in validate_integrity(db))


def test_integrity_flags_stratum_weights_not_summing_to_one(synth1):
    bad = [
        Stratum(cn=s.cn, estn_unit_cn=s.estn_unit_cn, weight=0.4,
                adj_subp=s.adj_subp, adj_micr=s.adj_micr, adj_macr=s.adj_macr)
        for s in synth1.strata
    ]
    db = ForestDatabase(
        plots=synth1.plots, conds=synth1.conds, trees=synth1.trees,
        seedlings=[], dwm=[], invasives=[],
        evaluations=synth1.evaluations, estn_units=synth1.estn_units,
        strata=bad, assignments=synth1.assignments, species=synth1.species,
        states=synth1.states,
    )
    assert any(v.rule == "sum W_h != 1" for v in validate_integrity(db))


def test_violation_str_names_table_and_key():
    from timberline.model import Violation

    v = Violation("TREE", "T9", "DIA not positive")
    assert str(v) == "TREE[T9]: DIA not positive"


def test_same_contents_ignores_row_order(synth1):
    shuffled = ForestDatabase(
        plots=list(reversed(synth1.plots)), conds=list(reversed(synth1.conds)),
        trees=list(reversed(synth1.trees)), seedlings=[], dwm=[], invasives=[],
        evaluations=synth1.evaluations, estn_units=synth1.estn_units,
        strata=synth1.strata, assignments=list(reversed(synth1.assignments)),
        species=synth1.species, states=synth1.states,
    )
    assert synth1.same_contents(shuffled)
    assert shuffled.same_contents(synth1)
