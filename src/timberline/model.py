"""Typed inventory tables and the in-memory database container.

The package works from a fixed, documented subset of DataMart-style CSV
columns.  Each table maps to a frozen dataclass; columns the loader does not
recognize are preserved verbatim in a per-record ``extras`` mapping so they
remain usable for grouping and domain filtering, and survive a write/load
round trip.

A :class:`ForestDatabase` holds every table as an immutable tuple plus the
lookup indexes the estimators need.  Treat instances as read-only after
construction; operations that "modify" a database (clipping, merging) build a
new one.  ``db.columns`` is the same tables as factorised columns, built on
first use, which the estimators read.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .states import FIPS_TO_ABBR

__all__ = [
    "PlotRecord",
    "ConditionRecord",
    "TreeRecord",
    "SeedlingRecord",
    "DwmRecord",
    "InvasiveRecord",
    "Evaluation",
    "EstimationUnit",
    "Stratum",
    "StratumAssignment",
    "SpeciesRef",
    "ForestDatabase",
    "ColumnView",
    "factorize",
    "Violation",
    "validate_integrity",
    "derive_sizer",
    "record_value",
    "MICROPLOT",
    "SUBPLOT",
    "MACROPLOT",
    "FUEL_TYPES",
    "GRM_COMPONENTS",
    "EVAL_TYPES",
    "FOREST_STATUS",
]

# Tree size classes that select the plot-level adjustment factor.
MICROPLOT = "MICROPLOT"
SUBPLOT = "SUBPLOT"
MACROPLOT = "MACROPLOT"

# COND_STATUS_CD value for accessible forest land.
FOREST_STATUS = 1

# Down-woody-material fuel classes, in display order.
FUEL_TYPES = ("1HR", "10HR", "100HR", "1000HR", "DUFF", "LITTER", "PILE")

# Change-evaluation tree component codes.
GRM_COMPONENTS = ("SURVIVOR", "INGROWTH", "MORTALITY", "CUT")

EVAL_TYPES = ("VOL", "GRM", "CHNG", "DWM")


@dataclass(frozen=True, slots=True)
class PlotRecord:
    cn: str
    statecd: int
    plot: int
    invyr: int
    measyear: int | None = None
    lat: float | None = None
    lon: float | None = None
    remper: float | None = None
    plot_status_cd: int | None = None
    designcd: int | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ConditionRecord:
    cn: str
    plt_cn: str
    condid: int
    cond_status_cd: int | None = None
    condprop_unadj: float | None = None
    fortypcd: int | None = None
    owncd: int | None = None
    stdage: int | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TreeRecord:
    cn: str
    plt_cn: str
    condid: int
    statuscd: int | None = None
    spcd: int | None = None
    dia: float | None = None
    tpa_unadj: float | None = None
    sizer: str | None = None
    volcfnet: float | None = None
    volcsnet: float | None = None
    drybio_ag: float | None = None
    drybio_bg: float | None = None
    carbon_ag: float | None = None
    carbon_bg: float | None = None
    prevdia: float | None = None
    component: str | None = None
    tpamort_unadj: float | None = None
    tparemv_unadj: float | None = None
    tpagrow_unadj: float | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class SeedlingRecord:
    plt_cn: str
    condid: int
    spcd: int | None = None
    treecount: int | None = None
    tpa_unadj: float | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class DwmRecord:
    plt_cn: str
    condid: int
    fuel_type: str
    vol_acre: float | None = None
    bio_acre: float | None = None
    carb_acre: float | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class InvasiveRecord:
    plt_cn: str
    condid: int
    spcd: int | None = None
    cover_pct: float | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Evaluation:
    evalid: int
    statecd: int | None = None
    eval_typ: str | None = None
    report_year: int | None = None
    start_invyr: int | None = None
    end_invyr: int | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class EstimationUnit:
    cn: str
    evalid: int
    area_used: float | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Stratum:
    cn: str
    estn_unit_cn: str
    weight: float | None = None
    adj_subp: float | None = None
    adj_micr: float | None = None
    adj_macr: float | None = None
    extras: dict[str, str] = field(default_factory=dict)

    def adjustment(self, sizer: str | None) -> float:
        """Adjustment factor for a tree-size class; defaults favor SUBP."""
        if sizer == MICROPLOT:
            return self.adj_micr if self.adj_micr is not None else 1.0
        if sizer == MACROPLOT:
            return self.adj_macr if self.adj_macr is not None else 1.0
        return self.adj_subp if self.adj_subp is not None else 1.0


@dataclass(frozen=True, slots=True)
class StratumAssignment:
    plt_cn: str
    stratum_cn: str
    invyr: int | None = None
    extras: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class SpeciesRef:
    spcd: int
    common_name: str | None = None
    genus: str | None = None
    scientific_name: str | None = None
    extras: dict[str, str] = field(default_factory=dict)


def derive_sizer(dia: float | None) -> str | None:
    """Size class implied by diameter: 1.0-4.9 in on the microplot, else subplot."""
    if dia is None:
        return None
    return MICROPLOT if dia < 5.0 else SUBPLOT


# --------------------------------------------------------------------------
# Column schemas.  One ColumnSpec per recognized CSV column, in file order.
# ``kind`` is the parse type; unknown header names land in record extras.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    attr: str
    kind: str  # "int" | "float" | "str"
    required: bool = False


@dataclass(frozen=True)
class TableSpec:
    table: str
    record: type
    columns: tuple[ColumnSpec, ...]
    mandatory: bool
    db_field: str

    def column_kinds(self) -> dict[str, str]:
        return {c.name: c.kind for c in self.columns}


def _cols(*specs: tuple) -> tuple[ColumnSpec, ...]:
    return tuple(ColumnSpec(*s) for s in specs)


PLOT_SPEC = TableSpec(
    "PLOT", PlotRecord,
    _cols(
        ("CN", "cn", "str", True),
        ("STATECD", "statecd", "int", True),
        ("PLOT", "plot", "int", True),
        ("INVYR", "invyr", "int", True),
        ("MEASYEAR", "measyear", "int"),
        ("LAT", "lat", "float"),
        ("LON", "lon", "float"),
        ("REMPER", "remper", "float"),
        ("PLOT_STATUS_CD", "plot_status_cd", "int"),
        ("DESIGNCD", "designcd", "int"),
    ),
    True, "plots",
)

COND_SPEC = TableSpec(
    "COND", ConditionRecord,
    _cols(
        ("CN", "cn", "str", True),
        ("PLT_CN", "plt_cn", "str", True),
        ("CONDID", "condid", "int", True),
        ("COND_STATUS_CD", "cond_status_cd", "int"),
        ("CONDPROP_UNADJ", "condprop_unadj", "float"),
        ("FORTYPCD", "fortypcd", "int"),
        ("OWNCD", "owncd", "int"),
        ("STDAGE", "stdage", "int"),
    ),
    True, "conds",
)

TREE_SPEC = TableSpec(
    "TREE", TreeRecord,
    _cols(
        ("CN", "cn", "str", True),
        ("PLT_CN", "plt_cn", "str", True),
        ("CONDID", "condid", "int", True),
        ("STATUSCD", "statuscd", "int"),
        ("SPCD", "spcd", "int"),
        ("DIA", "dia", "float"),
        ("TPA_UNADJ", "tpa_unadj", "float"),
        ("SIZER", "sizer", "str"),
        ("VOLCFNET", "volcfnet", "float"),
        ("VOLCSNET", "volcsnet", "float"),
        ("DRYBIO_AG", "drybio_ag", "float"),
        ("DRYBIO_BG", "drybio_bg", "float"),
        ("CARBON_AG", "carbon_ag", "float"),
        ("CARBON_BG", "carbon_bg", "float"),
        ("PREVDIA", "prevdia", "float"),
        ("COMPONENT", "component", "str"),
        ("TPAMORT_UNADJ", "tpamort_unadj", "float"),
        ("TPAREMV_UNADJ", "tparemv_unadj", "float"),
        ("TPAGROW_UNADJ", "tpagrow_unadj", "float"),
    ),
    False, "trees",
)

SEEDLING_SPEC = TableSpec(
    "SEEDLING", SeedlingRecord,
    _cols(
        ("PLT_CN", "plt_cn", "str", True),
        ("CONDID", "condid", "int", True),
        ("SPCD", "spcd", "int"),
        ("TREECOUNT", "treecount", "int"),
        ("TPA_UNADJ", "tpa_unadj", "float"),
    ),
    False, "seedlings",
)

DWM_SPEC = TableSpec(
    "COND_DWM_CALC", DwmRecord,
    _cols(
        ("PLT_CN", "plt_cn", "str", True),
        ("CONDID", "condid", "int", True),
        ("FUEL_TYPE", "fuel_type", "str", True),
        ("VOL_ACRE", "vol_acre", "float"),
        ("BIO_ACRE", "bio_acre", "float"),
        ("CARB_ACRE", "carb_acre", "float"),
    ),
    False, "dwm",
)

INVASIVE_SPEC = TableSpec(
    "INVASIVE_SUBPLOT_SPP", InvasiveRecord,
    _cols(
        ("PLT_CN", "plt_cn", "str", True),
        ("CONDID", "condid", "int", True),
        ("SPCD", "spcd", "int"),
        ("COVER_PCT", "cover_pct", "float"),
    ),
    False, "invasives",
)

POP_EVAL_SPEC = TableSpec(
    "POP_EVAL", Evaluation,
    _cols(
        ("EVALID", "evalid", "int", True),
        ("STATECD", "statecd", "int"),
        ("EVAL_TYP", "eval_typ", "str"),
        ("REPORT_YEAR", "report_year", "int"),
        ("START_INVYR", "start_invyr", "int"),
        ("END_INVYR", "end_invyr", "int"),
    ),
    True, "evaluations",
)

POP_ESTN_UNIT_SPEC = TableSpec(
    "POP_ESTN_UNIT", EstimationUnit,
    _cols(
        ("CN", "cn", "str", True),
        ("EVALID", "evalid", "int", True),
        ("AREA_USED", "area_used", "float"),
    ),
    True, "estn_units",
)

POP_STRATUM_SPEC = TableSpec(
    "POP_STRATUM", Stratum,
    _cols(
        ("CN", "cn", "str", True),
        ("ESTN_UNIT_CN", "estn_unit_cn", "str", True),
        ("STRATUM_WGT", "weight", "float"),
        ("ADJ_FACTOR_SUBP", "adj_subp", "float"),
        ("ADJ_FACTOR_MICR", "adj_micr", "float"),
        ("ADJ_FACTOR_MACR", "adj_macr", "float"),
    ),
    True, "strata",
)

POP_ASSGN_SPEC = TableSpec(
    "POP_PLOT_STRATUM_ASSGN", StratumAssignment,
    _cols(
        ("PLT_CN", "plt_cn", "str", True),
        ("STRATUM_CN", "stratum_cn", "str", True),
        ("INVYR", "invyr", "int"),
    ),
    True, "assignments",
)

REF_SPECIES_SPEC = TableSpec(
    "REF_SPECIES", SpeciesRef,
    _cols(
        ("SPCD", "spcd", "int", True),
        ("COMMON_NAME", "common_name", "str"),
        ("GENUS", "genus", "str"),
        ("SCIENTIFIC_NAME", "scientific_name", "str"),
    ),
    False, "species",
)

TABLES: dict[str, TableSpec] = {
    s.table: s for s in (
        PLOT_SPEC, COND_SPEC, TREE_SPEC, SEEDLING_SPEC, DWM_SPEC,
        INVASIVE_SPEC, POP_EVAL_SPEC, POP_ESTN_UNIT_SPEC, POP_STRATUM_SPEC,
        POP_ASSGN_SPEC, REF_SPECIES_SPEC,
    )
}

_COLUMN_TO_ATTR: dict[type, dict[str, str]] = {
    spec.record: {c.name: c.attr for c in spec.columns} for spec in TABLES.values()
}


def record_value(rec, column: str):
    """Value of a (typed or extra) column on a record; None when absent/blank."""
    mapping = _COLUMN_TO_ATTR[type(rec)]
    attr = mapping.get(column)
    if attr is not None:
        return getattr(rec, attr)
    value = rec.extras.get(column)
    return value if value not in (None, "") else None


class ForestDatabase:
    """All loaded tables for one or more states, with read-only indexes.

    ``states`` records which state files the container represents; it drives
    per-state output file naming and survives an empty database.
    """

    def __init__(
        self,
        *,
        plots: Iterable[PlotRecord] = (),
        conds: Iterable[ConditionRecord] = (),
        trees: Iterable[TreeRecord] = (),
        seedlings: Iterable[SeedlingRecord] = (),
        dwm: Iterable[DwmRecord] = (),
        invasives: Iterable[InvasiveRecord] = (),
        evaluations: Iterable[Evaluation] = (),
        estn_units: Iterable[EstimationUnit] = (),
        strata: Iterable[Stratum] = (),
        assignments: Iterable[StratumAssignment] = (),
        species: Iterable[SpeciesRef] = (),
        states: Sequence[str] | None = None,
    ):
        self.plots = tuple(plots)
        self.conds = tuple(conds)
        self.trees = tuple(trees)
        self.seedlings = tuple(seedlings)
        self.dwm = tuple(dwm)
        self.invasives = tuple(invasives)
        self.evaluations = tuple(evaluations)
        self.estn_units = tuple(estn_units)
        self.strata = tuple(strata)
        self.assignments = tuple(assignments)
        self.species = tuple(species)
        if states is None:
            seen = {p.statecd for p in self.plots} | {
                e.statecd for e in self.evaluations if e.statecd is not None
            }
            states = sorted(FIPS_TO_ABBR.get(s, f"F{s}") for s in seen)
        self.states = tuple(states)
        self._build_indexes()

    # Per-plot record lists and the condition key index are built on first
    # use: the integrity report and the reference estimator read them, the
    # estimators read the column view instead.
    conds_by_plot = functools.cached_property(lambda self: _by_plot(self.conds))
    trees_by_plot = functools.cached_property(lambda self: _by_plot(self.trees))
    seedlings_by_plot = functools.cached_property(lambda self: _by_plot(self.seedlings))
    dwm_by_plot = functools.cached_property(lambda self: _by_plot(self.dwm))
    invasives_by_plot = functools.cached_property(lambda self: _by_plot(self.invasives))
    cond_by_key = functools.cached_property(
        lambda self: {(c.plt_cn, c.condid): c for c in self.conds})

    def _build_indexes(self) -> None:
        self.plot_by_cn = {p.cn: p for p in self.plots}
        self.eval_by_id = {e.evalid: e for e in self.evaluations}
        self.unit_by_cn = {u.cn: u for u in self.estn_units}
        self.units_by_eval: dict[int, list[EstimationUnit]] = {}
        for u in self.estn_units:
            self.units_by_eval.setdefault(u.evalid, []).append(u)
        self.stratum_by_cn = {s.cn: s for s in self.strata}
        self.strata_by_unit: dict[str, list[Stratum]] = {}
        for s in self.strata:
            self.strata_by_unit.setdefault(s.estn_unit_cn, []).append(s)

        # Assignments keyed by the evaluation they reach through their stratum.
        self.assignments_by_eval: dict[int, list[StratumAssignment]] = {}
        for a in self.assignments:
            stratum = self.stratum_by_cn.get(a.stratum_cn)
            if stratum is None:
                continue
            unit = self.unit_by_cn.get(stratum.estn_unit_cn)
            if unit is None:
                continue
            self.assignments_by_eval.setdefault(unit.evalid, []).append(a)

    @functools.cached_property
    def columns(self) -> "ColumnView":
        """The column view of this database's tables, built on first use."""
        return ColumnView(self)

    # -- convenience -------------------------------------------------------

    def eval_of_stratum(self, stratum_cn: str) -> int | None:
        stratum = self.stratum_by_cn.get(stratum_cn)
        if stratum is None:
            return None
        unit = self.unit_by_cn.get(stratum.estn_unit_cn)
        return unit.evalid if unit is not None else None

    def same_contents(self, other: "ForestDatabase") -> bool:
        """Field-by-field equality up to row order within each table."""
        if self.states != other.states:
            return False
        for name in ("plots", "conds", "trees", "seedlings", "dwm", "invasives",
                     "evaluations", "estn_units", "strata", "assignments", "species"):
            a = sorted(getattr(self, name), key=repr)
            b = sorted(getattr(other, name), key=repr)
            if a != b:
                return False
        return True


def _by_plot(records: Iterable) -> dict[str, list]:
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r.plt_cn, []).append(r)
    return out


def factorize(values: Iterable, floats: bool = False) -> tuple[np.ndarray, list]:
    """Codes into the distinct values, None first (code 0).

    ``floats`` says every value is a float or None, so numpy can sort them.
    """
    if floats:
        values = list(values)
        number = np.array(values, dtype=float)  # None reads NaN
        known = ~np.isnan(number)
        _, first, codes = np.unique(number[known], return_index=True, return_inverse=True)
        out = np.zeros(len(values), dtype=np.int32)
        out[known] = codes.reshape(-1) + 1
        return out, [None] + [values[i] for i in np.flatnonzero(known)[first].tolist()]
    index: dict = {None: 0}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), np.int32)
    return codes, list(index)


class ColumnView:
    """A database's tables as factorised columns, plus their joins.

    ``column(table, name)`` gives one code per row into the distinct values
    :func:`record_value` returns for that column (an extras ``''`` stays
    None), with ``values[0]`` always None.  The code array ends with one
    extra null code, so gathering it through a join row of -1 reads None.
    Joins map each record to its plot's row in ``db.plots`` and its
    condition's row in ``db.conds`` (-1 when there is none; duplicates
    resolve like ``plot_by_cn`` and ``cond_by_key``, the last row wins).
    Everything is built on first use and kept.
    """

    def __init__(self, db: ForestDatabase):
        self.db = db
        self._memo: dict[tuple, object] = {}

    def _get(self, key: tuple, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def records(self, table: str) -> tuple:
        return getattr(self.db, TABLES[table].db_field)

    def column(self, table: str, name: str) -> tuple[np.ndarray, list]:
        def build():
            records = self.records(table)
            attr = _COLUMN_TO_ATTR[TABLES[table].record].get(name)
            if attr is not None:
                raw = map(operator.attrgetter(attr), records)
            else:
                raw = (r.extras.get(name) or None for r in records)
            codes, distinct = factorize(raw, TABLES[table].column_kinds().get(name) == "float")
            return np.append(codes, np.int32(0)), distinct

        return self._get(("column", table, name), build)

    def order(self, table: str, attrs: tuple[str, ...]) -> np.ndarray:
        """Row numbers sorted by these record attributes, ties in table order."""
        def build():
            records = self.records(table)
            keys = [np.array(list(map(operator.attrgetter(a), records))) for a in attrs]
            return np.lexsort(keys[::-1]).astype(np.intp)

        return self._get(("order", table, attrs), build)

    def extra_names(self, table: str) -> frozenset[str]:
        return self._get(("extras", table), lambda: frozenset(
            name for r in self.records(table) for name in r.extras))

    @property
    def plot_row(self) -> dict[str, int]:
        return self._get(("plot_row",), lambda: _row_index(self.db.plots, "cn"))

    def _join(self, table: str, rows: dict, *attrs: str) -> np.ndarray:
        records = self.records(table)
        found = map(rows.get, map(operator.attrgetter(*attrs), records), itertools.repeat(-1))
        return np.fromiter(found, np.intp, len(records))

    def plot_rows(self, table: str) -> np.ndarray:
        return self._get(("plot_rows", table),
                         lambda: self._join(table, self.plot_row, "plt_cn"))

    def cond_rows(self, table: str) -> np.ndarray:
        return self._get(("cond_rows", table), lambda: self._join(
            table, _row_index(self.db.conds, "plt_cn", "condid"), "plt_cn", "condid"))


def _row_index(records: Sequence, *attrs: str) -> dict:
    """Key -> row number; a duplicate key keeps its last row."""
    return dict(zip(map(operator.attrgetter(*attrs), records), itertools.count()))


# --------------------------------------------------------------------------
# Referential-integrity validation (report-only; loading never runs this).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    table: str
    key: str
    rule: str

    def __str__(self) -> str:
        return f"{self.table}[{self.key}]: {self.rule}"


def _check_range(out, table, key, rule, value, lo, hi) -> None:
    if value is not None and not (lo <= value <= hi):
        out.append(Violation(table, key, rule))


def validate_integrity(db: ForestDatabase) -> list[Violation]:
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
        if c.plt_cn not in db.plot_by_cn:
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
        if t.plt_cn not in db.plot_by_cn:
            out.append(Violation("TREE", key, "tree->plot"))
        elif (t.plt_cn, t.condid) not in db.cond_by_key:
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
        if s.plt_cn not in db.plot_by_cn:
            out.append(Violation("SEEDLING", key, "seedling->plot"))
        elif (s.plt_cn, s.condid) not in db.cond_by_key:
            out.append(Violation("SEEDLING", key, "seedling->cond"))
        if s.treecount is not None and s.treecount < 1:
            out.append(Violation("SEEDLING", key, "TREECOUNT < 1"))

    seen_dwm: set[tuple[str, int, str]] = set()
    for d in db.dwm:
        key = f"{d.plt_cn}/{d.condid}/{d.fuel_type}"
        if (d.plt_cn, d.condid, d.fuel_type) in seen_dwm:
            out.append(Violation("COND_DWM_CALC", key, "duplicate fuel row"))
        seen_dwm.add((d.plt_cn, d.condid, d.fuel_type))
        if d.plt_cn not in db.plot_by_cn:
            out.append(Violation("COND_DWM_CALC", key, "dwm->plot"))
        elif (d.plt_cn, d.condid) not in db.cond_by_key:
            out.append(Violation("COND_DWM_CALC", key, "dwm->cond"))
        if d.fuel_type not in FUEL_TYPES:
            out.append(Violation("COND_DWM_CALC", key, "unknown FUEL_TYPE"))
        for v in (d.vol_acre, d.bio_acre, d.carb_acre):
            if v is not None and v < 0:
                out.append(Violation("COND_DWM_CALC", key, "negative per-acre value"))
                break

    for i, r in enumerate(db.invasives):
        key = f"{r.plt_cn}/{r.condid}#{i}"
        if r.plt_cn not in db.plot_by_cn:
            out.append(Violation("INVASIVE_SUBPLOT_SPP", key, "invasive->plot"))
        elif (r.plt_cn, r.condid) not in db.cond_by_key:
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

    for u in db.estn_units:
        if u.evalid not in db.eval_by_id:
            out.append(Violation("POP_ESTN_UNIT", u.cn, "unit->evaluation"))
        if u.area_used is not None and u.area_used <= 0:
            out.append(Violation("POP_ESTN_UNIT", u.cn, "AREA_USED not positive"))

    for s in db.strata:
        if s.estn_unit_cn not in db.unit_by_cn:
            out.append(Violation("POP_STRATUM", s.cn, "stratum->unit"))
        if s.weight is not None and not (0.0 < s.weight <= 1.0):
            out.append(Violation("POP_STRATUM", s.cn, "STRATUM_WGT outside (0, 1]"))
        for adj in (s.adj_subp, s.adj_micr, s.adj_macr):
            if adj is not None and adj <= 0:
                out.append(Violation("POP_STRATUM", s.cn, "adjustment factor not positive"))
                break
    for unit_cn, strata in db.strata_by_unit.items():
        weights = [s.weight for s in strata if s.weight is not None]
        if weights and not math.isclose(sum(weights), 1.0, abs_tol=1e-9):
            out.append(Violation("POP_STRATUM", unit_cn, "sum W_h != 1"))

    per_eval_plot: dict[tuple[int, str], int] = {}
    for a in db.assignments:
        key = f"{a.plt_cn}->{a.stratum_cn}"
        if a.plt_cn not in db.plot_by_cn:
            out.append(Violation("POP_PLOT_STRATUM_ASSGN", key, "assignment->plot"))
        if a.stratum_cn not in db.stratum_by_cn:
            out.append(Violation("POP_PLOT_STRATUM_ASSGN", key, "assignment->stratum"))
            continue
        evalid = db.eval_of_stratum(a.stratum_cn)
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
