"""Typed inventory tables and the in-memory database container.

The package works from a fixed, documented subset of DataMart-style CSV
columns.  Each table has a record type, a frozen dataclass.  Columns the
loader does not recognize are kept as trimmed text in extras columns (each
record's ``extras`` mapping), so they remain usable for grouping and domain
filtering and survive a write/load round trip.

A :class:`ForestDatabase` holds every table as a :class:`Table`.  Columns
are the storage: the loader parses each CSV column straight into codes into
its distinct values (floats into a float64 array), and the estimators,
clipping and writing read those through ``db.columns``.  Records are a view
derived on first use, for the reference estimator, the integrity report and
tests; ``len`` of a table never builds them.  A database built from records
derives its columns one at a time instead.  Treat instances as read-only
after construction; operations that "modify" a database (clipping, merging)
build a new one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

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
    "Table",
    "ColumnView",
    "factorize",
    "recode",
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
_FLOAT_COLUMNS = {spec.table: {c.name for c in spec.columns if c.kind == "float"}
                  for spec in TABLES.values()}


def record_value(rec, column: str):
    """Value of a (typed or extra) column on a record; None when absent/blank."""
    mapping = _COLUMN_TO_ATTR[type(rec)]
    attr = mapping.get(column)
    if attr is not None:
        return getattr(rec, attr)
    value = rec.extras.get(column)
    return value if value not in (None, "") else None


class Table(Sequence):
    """One table's rows, as columns and as records.

    A table is built from one side and derives the other on first use:
    the loader builds columns, and code that passes records (tests,
    :mod:`timberline.synth`) gets its columns one at a time as they are
    read.  ``len`` never builds records.

    A column is either ``(codes, values)``, int32 codes into the column's
    distinct values with ``values[0]`` None, or, for a float column, a
    float64 array with NaN for null.  Both end with one extra null, so
    gathering through a join row of -1 reads null.  ``extras``
    names the columns the schema does not know, whose values are their
    stripped text (an empty cell is null).
    """

    def __init__(self, spec: TableSpec, n: int, columns: dict | None = None,
                 extras: Sequence[str] = (), records: tuple | None = None):
        self.spec, self.n = spec, n if records is None else len(records)
        self._columns = dict(columns or {})
        self._from_records = records is not None
        if records is not None:
            self.records = records
        else:
            self.extras = tuple(extras)

    @classmethod
    def from_records(cls, spec: TableSpec, records: Iterable) -> "Table":
        return cls(spec, 0, records=tuple(records))

    @functools.cached_property
    def extras(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(name for r in self.records for name in r.extras))

    def column(self, name: str):
        """The stored column, derived from the records on first use; None if unknown."""
        col = self._columns.get(name)
        if col is None and self._from_records:
            attr = _COLUMN_TO_ATTR[self.spec.record].get(name)
            if attr is not None:
                raw = map(operator.attrgetter(attr), self.records)
                if name in _FLOAT_COLUMNS[self.spec.table]:
                    col = np.array([*raw, None], dtype=float)  # None reads NaN
            elif name in self.extras:
                raw = (r.extras.get(name) or None for r in self.records)
            else:
                return None
            self._columns[name] = col = factorize(raw) if col is None else col
        return col

    @functools.cached_property
    def records(self) -> tuple:
        """The rows as records, in table order."""
        def cells(name):
            col = self._columns[name]
            if isinstance(col, np.ndarray):
                return [None if v != v else v for v in col[:-1].tolist()]  # NaN is null
            codes, values = col
            return list(map(values.__getitem__, codes[:-1].tolist()))

        by_attr = {c.attr: c.name for c in self.spec.columns}
        fields = [f.name for f in dataclasses.fields(self.spec.record) if f.name != "extras"]
        if self.extras:
            rows = zip(*map(cells, self.extras))
            extras = [{k: v for k, v in zip(self.extras, row) if v is not None} for row in rows]
        else:
            extras = [{} for _ in range(self.n)]
        return tuple(map(self.spec.record, *(cells(by_attr[f]) for f in fields), extras))

    def take(self, rows: np.ndarray) -> "Table":
        """A table of these rows, in this order; all of them in order is this table."""
        if len(rows) == self.n and (rows == np.arange(self.n)).all():
            return self
        if self._from_records:
            return Table.from_records(self.spec, map(self.records.__getitem__, rows.tolist()))
        gather = np.append(rows, -1)  # and the trailing null
        columns = {name: col[gather] if isinstance(col, np.ndarray) else (col[0][gather], col[1])
                   for name, col in self._columns.items()}
        return Table(self.spec, len(rows), columns, self.extras)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self.records[i]

    def __iter__(self):
        return iter(self.records)

    def __add__(self, other) -> tuple:
        return self.records + tuple(other)

    def __radd__(self, other) -> tuple:
        return tuple(other) + self.records


class ForestDatabase:
    """All loaded tables for one or more states.

    Each table argument is a :class:`Table` or an iterable of records.
    ``states`` records which state files the container represents; it
    drives per-state output file naming and survives an empty database.
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
        given = locals()
        self._tables: dict[str, Table] = {}
        for spec in TABLES.values():
            rows = given[spec.db_field]
            if not (isinstance(rows, Table) and rows.spec is spec):
                rows = Table.from_records(spec, rows)
            self._tables[spec.table] = rows
        if states is None:
            seen = {p.statecd for p in self.plots} | {
                e.statecd for e in self.evaluations if e.statecd is not None
            }
            states = sorted(FIPS_TO_ABBR.get(s, f"F{s}") for s in seen)
        self.states = tuple(states)

    def table(self, name: str) -> Table:
        return self._tables[name]

    @functools.cached_property
    def columns(self) -> "ColumnView":
        """The column view of this database's tables, built on first use."""
        return ColumnView(self)

    # Population-table indexes, built on first use (the tables are small).
    unit_by_cn = functools.cached_property(lambda self: {u.cn: u for u in self.estn_units})
    stratum_by_cn = functools.cached_property(lambda self: {s.cn: s for s in self.strata})
    units_by_eval = functools.cached_property(lambda self: _group_by(self.estn_units, "evalid"))
    strata_by_unit = functools.cached_property(
        lambda self: _group_by(self.strata, "estn_unit_cn"))

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


for _spec in TABLES.values():  # db.plots, db.trees, ...: the tables by field name
    setattr(ForestDatabase, _spec.db_field, property(lambda self, t=_spec.table: self._tables[t]))


def _group_by(records: Iterable, attr: str) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(getattr(r, attr), []).append(r)
    return out


def factorize(values: Iterable) -> tuple[np.ndarray, list]:
    """Codes into the distinct values, None first (code 0), the rest in order of
    first appearance; the codes end with one extra null code."""
    values = list(values)
    distinct = dict.fromkeys(values)
    if len(distinct) == len(values) and None not in distinct:  # each value its own code
        codes = np.arange(1, len(values) + 1, dtype=np.int32)
    else:
        distinct.pop(None, None)
        index = dict(zip(distinct, range(1, len(distinct) + 1)))
        index[None] = 0
        codes = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
    return np.append(codes, np.int32(0)), [None, *distinct]


def recode(codes: np.ndarray, values: Sequence) -> tuple[np.ndarray, list]:
    """``(codes, values)`` renumbered as :func:`factorize` numbers ``values[codes]``.

    Equal values merge, they run in order of first appearance after None,
    and the codes gain the trailing null code.
    """
    used, first = np.unique(codes, return_index=True)
    index: dict = {None: 0}
    remap = np.zeros(len(values), dtype=np.int32)
    for c in used[np.argsort(first)].tolist():
        remap[c] = index.setdefault(values[c], len(index))
    return np.append(remap[codes], np.int32(0)), list(index)


class ColumnView:
    """A database's columns in the one form the estimators read, plus joins.

    ``column(table, name)`` gives one code per row into the distinct values
    :func:`record_value` returns for that column (an extras ``''`` stays
    None), with ``values[0]`` always None.  The code array ends with one
    extra null code, so gathering it through a join row of -1 reads None.
    ``floats`` gives a numeric column as float64, NaN for null, with the
    same trailing null.  Joins map each row to its plot's row in
    ``db.plots`` and its condition's row in ``db.conds`` (-1 when there is
    none; a duplicate key resolves to its last row).  Everything is built
    from the stored columns on first use and kept.
    """

    def __init__(self, db: ForestDatabase):
        self.db = db
        self._memo: dict[tuple, object] = {}

    def _get(self, key: tuple, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def column(self, table: str, name: str) -> tuple[np.ndarray, list]:
        col = self.db.table(table).column(name)
        if isinstance(col, tuple):
            return col

        def build():
            if col is None:
                return np.zeros(len(self.db.table(table)) + 1, dtype=np.int32), [None]
            known = np.flatnonzero(~np.isnan(col))
            distinct, inverse = np.unique(col[known], return_inverse=True)
            codes = np.zeros(len(col), dtype=np.int32)
            codes[known] = inverse.reshape(-1) + 1
            values = [None, *distinct.tolist()]
            if 0.0 in distinct:  # 0.0 and -0.0 are one value: the first one's
                values[np.searchsorted(distinct, 0.0) + 1] = col[np.argmax(col == 0.0)].item()
            return codes, values

        return self._get(("column", table, name), build)

    def floats(self, table: str, name: str) -> np.ndarray:
        col = self.db.table(table).column(name)
        if isinstance(col, np.ndarray):
            return col

        def build():
            codes, values = self.column(table, name)
            return np.array([np.nan if v is None else v for v in values], dtype=float)[codes]

        return self._get(("floats", table, name), build)

    def order(self, table: str, names: tuple[str, ...]) -> np.ndarray:
        """Row numbers sorted by these columns' values, ties in table order."""
        def build():
            keys = []
            for name in reversed(names):
                codes, values = self.column(table, name)
                rest = values[1:]
                rank = np.arange(len(values))  # None first, then values already in order
                if sorted(rest) != rest:
                    rank[sorted(range(1, len(values)), key=values.__getitem__)] = np.arange(
                        1, len(values))
                keys.append(rank[codes[:-1]])
            return np.lexsort(keys).astype(np.intp)

        return self._get(("order", table, names), build)

    def extra_names(self, table: str) -> frozenset[str]:
        """The extras columns holding a value in some row."""
        return self._get(("extras", table), lambda: frozenset(
            name for name in self.db.table(table).extras
            if self.column(table, name)[0][:-1].any()))

    def join(self, table: str, names: tuple[str, ...], target: str,
             keys: tuple[str, ...]) -> np.ndarray:
        """Each row's last row in ``target`` whose ``keys`` equal its ``names``, or -1.

        Each distinct value is looked up once and gathered through the codes.
        """
        def build():
            if len(names) == 1:  # a row per distinct value, gathered through the codes
                codes, values = self.column(table, names[0])
                row_of = self._get(("rows", target, keys[0]), lambda: dict(zip(
                    map(self.column(target, keys[0])[1].__getitem__,
                        self.column(target, keys[0])[0][:-1].tolist()),
                    itertools.count())))  # a repeated key keeps its last row
                return np.fromiter(map(row_of.get, values, itertools.repeat(-1)), np.intp,
                                   len(values))[codes[:-1]]
            n, m = len(self.db.table(target)), len(self.db.table(table))
            key, own = np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64)
            found, size = np.ones(m, dtype=bool), 1
            for name, key_name in zip(names, keys):
                key_codes, key_values = self.column(target, key_name)
                codes, values = self.column(table, name)
                index = dict(zip(key_values, itertools.count()))
                mapped = np.fromiter(map(index.get, values, itertools.repeat(-1)), np.int64,
                                     len(values))[codes[:-1]]
                found &= mapped >= 0
                key = key * len(key_values) + key_codes[:-1]
                own = own * len(key_values) + mapped
                size *= len(key_values)
            if size > 4 * (n + m):  # number sparse keys densely first
                _, dense = np.unique(np.concatenate([key, own]), return_inverse=True)
                key, own, size = dense[:n], dense[n:], n + m
            last = np.full(size, -1, dtype=np.intp)
            np.maximum.at(last, key, np.arange(n))
            return np.where(found, last[np.where(found, own, 0)], -1)

        return self._get(("join", table, names, target, keys), build)

    def plot_rows(self, table: str) -> np.ndarray:
        return self.join(table, ("PLT_CN",), "PLOT", ("CN",))

    def cond_rows(self, table: str) -> np.ndarray:
        return self.join(table, ("PLT_CN", "CONDID"), "COND", ("PLT_CN", "CONDID"))


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

    for u in db.estn_units:
        if u.evalid not in seen_evals:
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
        if a.plt_cn not in seen_plots:
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
