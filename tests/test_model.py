"""Record model, indexes, and integrity checks."""

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline.io import load_database, write_database
from timberline.model import (
    MACROPLOT,
    MICROPLOT,
    SUBPLOT,
    TABLES,
    ColumnSpec,
    ConditionRecord,
    EstimationUnit,
    ForestDatabase,
    PlotRecord,
    Stratum,
    StratumAssignment,
    Table,
    TableSpec,
    TreeRecord,
    derive_sizer,
    record_value,
    validate_integrity,
)
from timberline.synth import FIXTURE_NAMES, build_fixture


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


def test_table_specs_match_the_schema_golden():
    """Every table's name, field, record type and columns, in loader order."""
    golden = json.loads((Path(__file__).parent / "fixtures" / "schema_golden.json").read_text())
    assert [{"table": s.table, "db_field": s.db_field, "mandatory": s.mandatory,
             "record": s.record.__name__,
             "columns": [[c.name, c.attr, c.kind, c.required] for c in s.columns]}
            for s in TABLES.values()] == golden


def test_a_column_must_be_int_float_or_str():
    class Visit(NamedTuple):
        cn: "str"
        visited: "date | None" = None  # noqa: F821

    with pytest.raises(TypeError, match=r"^Visit\.visited: "):
        TableSpec.of("VISIT", Visit, False, "visits")

    class Visit(NamedTuple):  # noqa: F811
        cn: "str"
        year: "int | None" = None
        COLUMNS = {"year": "VISIT_YEAR"}

    assert TableSpec.of("VISIT", Visit, False, "visits").columns == (
        ColumnSpec("CN", "cn", "str", True), ColumnSpec("VISIT_YEAR", "year", "int", False))


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
    codes, evalids = synth1.columns.column("POP_ESTN_UNIT", "EVALID")
    evalid = [evalids[c] for c in codes[synth1.columns.unit_rows("POP_PLOT_STRATUM_ASSGN")]]
    assgn = [a for a, ev in zip(synth1.assignments, evalid) if ev == 91801]
    assert len(assgn) == 4
    assert {a.plt_cn for a in assgn} == {"P1", "P2", "P3", "P4"}


@st.composite
def _population(draw):
    """Units, strata and assignments in shuffled order, with repeated CNs,
    strata naming no unit (U4) and assignments naming no stratum (S4)."""
    units = draw(st.lists(st.sampled_from(["U0", "U1", "U2", "U3"]), max_size=6))
    strata = draw(st.lists(st.tuples(st.sampled_from(["S0", "S1", "S2", "S3"]),
                                     st.sampled_from(["U0", "U1", "U2", "U3", "U4"])),
                           max_size=8))
    named = draw(st.lists(st.sampled_from(["S0", "S1", "S2", "S3", "S4"]), max_size=10))
    return ForestDatabase(
        estn_units=draw(st.permutations(
            [EstimationUnit(cn, evalid) for evalid, cn in enumerate(units)])),
        strata=draw(st.permutations([Stratum(cn, unit) for cn, unit in strata])),
        assignments=[StratumAssignment(f"P{i}", cn) for i, cn in enumerate(named)],
        states=("CT",))


@settings(max_examples=200, deadline=None)
@given(db=_population())
def test_unit_rows_walk_the_records(db):
    def last(records, cn):
        """The last row whose CN is ``cn``, or -1."""
        return max((i for i, r in enumerate(records) if r.cn == cn), default=-1)

    strata = [last(db.estn_units, s.estn_unit_cn) for s in db.strata]
    assignments = [-1 if (h := last(db.strata, a.stratum_cn)) < 0 else strata[h]
                   for a in db.assignments]
    codes, evalids = db.columns.column("POP_ESTN_UNIT", "EVALID")
    for table, want in (("POP_STRATUM", strata), ("POP_PLOT_STRATUM_ASSGN", assignments)):
        rows = db.columns.unit_rows(table)
        assert rows.tolist() == want
        assert [evalids[c] for c in codes[rows]] == [
            db.estn_units[u].evalid if u >= 0 else None for u in want]


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


def _cells(col) -> list:
    """A stored column's cells, None for null."""
    if isinstance(col, np.ndarray):
        return [None if v != v else v for v in col[:-1].tolist()]
    codes, values = col
    return [values[c] for c in codes[:-1].tolist()]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_table_from_records_round_trips(tmp_path, name):
    db = build_fixture(name)
    write_database(db, tmp_path)
    loaded = load_database(tmp_path, db.states)
    for spec in TABLES.values():
        records = db.table(spec.table).records
        table = Table.from_records(spec, records)
        names = [c.name for c in spec.columns] + list(table.extras)
        columns = {n: table.column(n) for n in names}
        assert Table(spec, len(records), columns, table.extras).records == records
        backwards = np.arange(len(records))[::-1]
        assert table.take(backwards).records == records[::-1]
        assert Table.from_records(spec, table.take(backwards)).records == records[::-1]
        for n in names:
            assert _cells(table.column(n)) == _cells(loaded.table(spec.table).column(n)), n
