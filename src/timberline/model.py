"""Typed inventory tables and the in-memory database container.

The package works from a fixed, documented subset of DataMart-style CSV
columns.  Each table has a record type, a frozen dataclass, and that class
is the table's only schema: :data:`TABLES` derives each
:class:`TableSpec` from its fields (see :meth:`TableSpec.of`).  A field is
one CSV column, in field order, named by its name upper cased; a column
whose CSV name differs says so in the field's metadata, as
``field(default=None, metadata={"column": "STRATUM_WGT"})`` on
:class:`Stratum`.  Its annotation's first type (int, float or str) is the
parse type, and a field without a default is a required column.  Columns
the loader does not recognize are kept as trimmed text in extras columns
(each record's ``extras`` mapping), so they remain usable for grouping and
domain filtering and survive a write/load round trip.

A :class:`ForestDatabase` holds every table as a :class:`Table`, and
columns are its only storage: the loader parses each CSV column straight
into codes into its distinct values (floats into a float64 array), and a
table built from records builds all its columns at once.  The estimators,
clipping, writing and the integrity report read ``db.columns``, and reach
a stratum's or an assignment's estimation unit and evaluation only through
:meth:`ColumnView.unit_rows`.  Records are a view, for the population
tables, the reference estimator, :mod:`timberline.synth` and tests; ``len``
of a table never builds them.
Treat instances as read-only after construction; operations that "modify"
a database (clipping, merging) build a new one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

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

# The stratum assignment table, which joins plots to strata.
ASSIGNMENTS = "POP_PLOT_STRATUM_ASSGN"


def typed_equality(cls: type) -> type:
    """A NamedTuple class whose instances equal only instances of their own class,
    as a frozen dataclass's do; a hash stays that of the field tuple.  It costs a
    tenth of a frozen dataclass to create, which every command pays on import."""
    cls.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    cls.__ne__ = lambda self, other: not self == other
    return cls


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

    @property
    def eval_type(self) -> str:
        """EVAL_TYP, read as VOL where it is missing."""
        return self.eval_typ if self.eval_typ is not None else "VOL"


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
    weight: float | None = field(default=None, metadata={"column": "STRATUM_WGT"})
    adj_subp: float | None = field(default=None, metadata={"column": "ADJ_FACTOR_SUBP"})
    adj_micr: float | None = field(default=None, metadata={"column": "ADJ_FACTOR_MICR"})
    adj_macr: float | None = field(default=None, metadata={"column": "ADJ_FACTOR_MACR"})
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


class ColumnSpec(NamedTuple):
    name: str
    attr: str
    kind: str  # "int" | "float" | "str"
    required: bool = False


class TableSpec(NamedTuple):
    table: str
    record: type
    columns: tuple[ColumnSpec, ...]
    mandatory: bool
    db_field: str

    @classmethod
    def of(cls, table: str, record: type, mandatory: bool, db_field: str) -> "TableSpec":
        """The spec whose columns are ``record``'s fields but ``extras``, in order.

        A field's CSV name is its ``metadata["column"]``, else its name upper
        cased; its kind is the first type of its annotation, which must be
        int, float or str; it is required when it has no default.
        """
        columns = []
        for f in dataclasses.fields(record):
            if f.name == "extras":
                continue
            kind = str(f.type).split("|")[0].strip()
            if kind not in ("int", "float", "str"):
                raise TypeError(f"{record.__name__}.{f.name}: a column is int, float or str, "
                                f"not {f.type}")
            required = f.default is f.default_factory is dataclasses.MISSING
            columns.append(ColumnSpec(f.metadata.get("column", f.name.upper()), f.name, kind,
                                      required))
        return cls(table, record, tuple(columns), mandatory, db_field)

    def column_kinds(self) -> dict[str, str]:
        return {c.name: c.kind for c in self.columns}


# Each table in load order: its name, record type, whether a state must have
# the file, and the ForestDatabase field holding it.
TABLES: dict[str, TableSpec] = {entry[0]: TableSpec.of(*entry) for entry in (
    ("PLOT", PlotRecord, True, "plots"),
    ("COND", ConditionRecord, True, "conds"),
    ("TREE", TreeRecord, False, "trees"),
    ("SEEDLING", SeedlingRecord, False, "seedlings"),
    ("COND_DWM_CALC", DwmRecord, False, "dwm"),
    ("INVASIVE_SUBPLOT_SPP", InvasiveRecord, False, "invasives"),
    ("POP_EVAL", Evaluation, True, "evaluations"),
    ("POP_ESTN_UNIT", EstimationUnit, True, "estn_units"),
    ("POP_STRATUM", Stratum, True, "strata"),
    ("POP_PLOT_STRATUM_ASSGN", StratumAssignment, True, "assignments"),
    ("REF_SPECIES", SpeciesRef, False, "species"),
)}
PLOT_SPEC, TREE_SPEC, REF_SPECIES_SPEC = TABLES["PLOT"], TABLES["TREE"], TABLES["REF_SPECIES"]

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


class Table(Sequence):
    """One table's rows, stored as columns; records are a view of them.

    A column is either ``(codes, values)``, int32 codes into the column's
    distinct values with ``values[0]`` None, or, for a float column, a
    float64 array with NaN for null.  Both end with one extra null, so
    gathering through a join row of -1 reads null.  ``extras`` names the
    columns the schema does not know, whose values are their stripped text
    (an empty cell is null).  Records not given to :meth:`from_records` are
    built from the columns on first use; ``len`` never builds them.
    """

    def __init__(self, spec: TableSpec, n: int, columns: dict, extras: Sequence[str] = ()):
        self.spec, self.n = spec, n
        self._columns = columns
        self.extras = tuple(extras)

    @classmethod
    def from_records(cls, spec: TableSpec, records: Iterable) -> "Table":
        """A table of these records: every column built now, the records kept."""
        records = tuple(records)
        extras = tuple(dict.fromkeys(name for r in records for name in r.extras))
        columns = {}
        for c in spec.columns:
            raw = list(map(operator.attrgetter(c.attr), records))
            if c.kind != "float":
                columns[c.name] = factorize(raw)
            elif raw.count(None) == len(raw):  # numpy reads None slowly
                columns[c.name] = np.full(len(raw) + 1, np.nan)
            else:
                columns[c.name] = np.array([*raw, None], dtype=float)  # None reads NaN
        for name in extras:
            columns[name] = factorize(r.extras.get(name) or None for r in records)
        table = cls(spec, len(records), columns, extras)
        table.records = records
        return table

    def column(self, name: str):
        """The stored column; None if the table has no such column."""
        return self._columns.get(name)

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


for _spec in TABLES.values():  # db.plots, db.trees, ...: the tables by field name
    setattr(ForestDatabase, _spec.db_field, property(lambda self, t=_spec.table: self._tables[t]))


def factorize(values: Iterable) -> tuple[np.ndarray, list]:
    """Codes into the distinct values, None first (code 0), the rest in order of
    first appearance; the codes end with one extra null code."""
    values = list(values)
    n, distinct = len(values), dict.fromkeys(values)
    if len(distinct) == n and None not in distinct:  # each value its own code
        codes = np.arange(1, n + 2, dtype=np.int32)
        codes[n] = 0
        return codes, [None, *distinct]
    distinct.pop(None, None)
    if not distinct:
        return np.zeros(n + 1, dtype=np.int32), [None]
    index = dict(zip(distinct, range(1, len(distinct) + 1)))
    index[None] = 0
    values.append(None)
    return np.fromiter(map(index.__getitem__, values), np.int32, n + 1), [None, *distinct]


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
    """A database's columns in the one form the estimators read, plus joins,
    and the request-independent state of its estimates.

    ``column(table, name)`` gives one code per row into the distinct values
    :func:`record_value` returns for that column (an extras ``''`` stays
    None), with ``values[0]`` always None.  The code array ends with one
    extra null code, so gathering it through a join row of -1 reads None.
    ``floats`` gives a numeric column as float64, NaN for null, with the
    same trailing null.  Joins map each row to its plot's row in
    ``db.plots``, its condition's row in ``db.conds`` and a stratum's or
    stratum assignment's estimation unit's row in ``POP_ESTN_UNIT`` (-1 when
    there is none; a duplicate key resolves to its last row).
    :meth:`unit_rows` is the one path from a stratum or an assignment to its
    unit and evaluation: an evaluation is the unit's EVALID.  Everything is
    built from the stored columns on first use and kept.

    :meth:`kept` also holds each evaluation group's
    :class:`~timberline.core.Sample`, keyed by its EVALIDs and whether it
    has panels, with its stratum constants once a pass needs them, and each
    family's base-domain mask, keyed by the base domain and its table.
    Every key comes from the database or a family's fixed definition, never
    from a request's domains, groupings or polygons, so what is kept is
    bounded by the tables and evaluation groups, however many estimates
    run.  Nothing kept is checked against the tables again: a database
    must not change once read.
    """

    def __init__(self, db: ForestDatabase):
        self.db = db
        self._memo: dict[tuple, object] = {}

    def kept(self, key: tuple, build: Callable[[], object],
             fits: Callable[[object], bool] | None = None):
        """The value kept under ``key``; ``build()`` makes and keeps it when
        there is none or ``fits`` refuses the kept one.  A build that raises
        keeps nothing."""
        if key not in self._memo or (fits is not None and not fits(self._memo[key])):
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

        return self.kept(("column", table, name), build)

    def floats(self, table: str, name: str) -> np.ndarray:
        col = self.db.table(table).column(name)
        if isinstance(col, np.ndarray):
            return col

        def build():
            codes, values = self.column(table, name)
            return np.array([np.nan if v is None else v for v in values], dtype=float)[codes]

        return self.kept(("floats", table, name), build)

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

        return self.kept(("order", table, names), build)

    def extra_names(self, table: str) -> frozenset[str]:
        """The extras columns holding a value in some row."""
        return self.kept(("extras", table), lambda: frozenset(
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
                row_of = self.kept(("rows", target, keys[0]), lambda: dict(zip(
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

        return self.kept(("join", table, names, target, keys), build)

    def plot_rows(self, table: str) -> np.ndarray:
        return self.join(table, ("PLT_CN",), "PLOT", ("CN",))

    def cond_rows(self, table: str) -> np.ndarray:
        return self.join(table, ("PLT_CN", "CONDID"), "COND", ("PLT_CN", "CONDID"))

    def unit_rows(self, table: str) -> np.ndarray:
        """Each ``POP_STRATUM`` row's unit row in ``POP_ESTN_UNIT`` (by its
        ESTN_UNIT_CN), or each ``POP_PLOT_STRATUM_ASSGN`` row's stratum's; -1
        where the chain breaks."""
        units = self.join("POP_STRATUM", ("ESTN_UNIT_CN",), "POP_ESTN_UNIT", ("CN",))
        if table == "POP_STRATUM":
            return units
        return self.kept(("units", table), lambda: np.append(units, -1)[
            self.join(table, ("STRATUM_CN",), "POP_STRATUM", ("CN",))])


# --------------------------------------------------------------------------
# Referential-integrity validation (report-only; loading never runs this).
# --------------------------------------------------------------------------


@typed_equality
class Violation(NamedTuple):
    table: str
    key: str
    rule: str

    def __str__(self) -> str:
        return f"{self.table}[{self.key}]: {self.rule}"


def _groups(*codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group of equal code combinations, the groups numbered in order
    of first appearance, and each group's first row."""
    key = np.zeros(len(codes[0]), dtype=np.int64)
    for c in codes:  # one mixed-radix code, renumbered densely after each column
        _, first, key = np.unique(key * (int(c.max(initial=0)) + 1) + c,
                                  return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[key], np.sort(first)


def validate_integrity(db: ForestDatabase) -> list[Violation]:
    """Check foreign keys, uniqueness, and value ranges; report, never raise.

    Every check reads ``db.columns``, and no table builds records.  Tables
    are reported in a fixed order, each one's rows in table order and a
    row's rules in a fixed order; a table's per-group sums follow its rows.
    """
    view = db.columns
    out: list[Violation] = []

    def codes(table, name):
        return view.column(table, name)[0][:-1]

    def floats(table, name):
        return view.floats(table, name)[:-1]

    def per_value(table, name, test):
        col, values = view.column(table, name)
        return np.fromiter(map(test, values), bool, len(values))[col[:-1]]

    def repeats(table, *names):
        """Whether each row's values of ``names`` appear together in an earlier row."""
        group, first = _groups(*(codes(table, name) for name in names))
        return first[group] != np.arange(len(group))

    def key(table, form, *names):
        """A row's key: ``form`` filled with its values of ``names`` and its row number."""
        cols = [view.column(table, name) for name in names]
        return lambda row: form.format(*(values[col[row]] for col, values in cols), row=row)

    def report(table, row_key, checks):
        """A violation per (row, rule) flagged, row by row and a row's rules in order."""
        rows, rules = np.nonzero(np.column_stack([mask for _, mask in checks]))
        out.extend(Violation(table, row_key(row), checks[k][0])
                   for row, k in zip(rows.tolist(), rules.tolist()))

    def group_sums(table, by, x, rows, rule, bad, group_key):
        """A violation per group of equal ``by`` codes among ``rows``, in order of
        first appearance, whose count and sum of non-null ``x`` are ``bad``."""
        group, first = _groups(*(c[rows] for c in by))
        known = ~np.isnan(x[rows])
        count = np.bincount(group[known], minlength=len(first))
        total = np.bincount(group[known], weights=x[rows][known], minlength=len(first))
        out.extend(Violation(table, group_key(row), rule) for row, n, s in zip(
            rows[first].tolist(), count.tolist(), total.tolist()) if bad(n, s))

    def parents(table, child):
        """The ``->plot`` and ``->cond`` checks of a table whose rows name a condition."""
        no_plot = view.plot_rows(table) < 0
        return [(f"{child}->plot", no_plot),
                (f"{child}->cond", ~no_plot & (view.cond_rows(table) < 0))]

    report("PLOT", key("PLOT", "{}", "CN"), [
        ("duplicate CN", repeats("PLOT", "CN")),
        ("LAT outside [-90, 90]", np.abs(floats("PLOT", "LAT")) > 90.0),
        ("LON outside [-180, 180]", np.abs(floats("PLOT", "LON")) > 180.0),
        ("REMPER not positive", floats("PLOT", "REMPER") <= 0),
    ])

    prop = floats("COND", "CONDPROP_UNADJ")
    report("COND", key("COND", "{}/{}", "PLT_CN", "CONDID"), [
        ("duplicate (PLT_CN, CONDID)", repeats("COND", "PLT_CN", "CONDID")),
        ("cond->plot", view.plot_rows("COND") < 0),
        ("CONDPROP_UNADJ outside [0, 1]", (prop < 0.0) | (prop > 1.0)),
    ])
    group_sums("COND", [codes("COND", "PLT_CN")], prop, np.flatnonzero(~np.isnan(prop)),
               "sum CONDPROP_UNADJ > 1", lambda n, total: total > 1.0 + 1e-6,
               key("COND", "{}", "PLT_CN"))

    dia = floats("TREE", "DIA")
    micro = per_value("TREE", "SIZER", lambda v: v == MICROPLOT)
    report("TREE", key("TREE", "{}", "CN"), [
        *parents("TREE", "tree"),
        ("DIA not positive", dia <= 0),
        ("TPA_UNADJ negative", floats("TREE", "TPA_UNADJ") < 0),
        ("SIZER inconsistent with DIA",  # derive_sizer's MICROPLOT below 5 in
         ~np.isnan(dia) & (codes("TREE", "SIZER") != 0) & ((dia < 5.0) != micro)),
        ("unknown COMPONENT",
         per_value("TREE", "COMPONENT", lambda v: v is not None and v not in GRM_COMPONENTS)),
    ])

    report("SEEDLING", key("SEEDLING", "{}/{}#{row}", "PLT_CN", "CONDID"), [
        *parents("SEEDLING", "seedling"),
        ("TREECOUNT < 1", per_value("SEEDLING", "TREECOUNT", lambda v: v is not None and v < 1)),
    ])

    dwm = "COND_DWM_CALC"
    report(dwm, key(dwm, "{}/{}/{}", "PLT_CN", "CONDID", "FUEL_TYPE"), [
        ("duplicate fuel row", repeats(dwm, "PLT_CN", "CONDID", "FUEL_TYPE")),
        *parents(dwm, "dwm"),
        ("unknown FUEL_TYPE", per_value(dwm, "FUEL_TYPE", lambda v: v not in FUEL_TYPES)),
        ("negative per-acre value", np.logical_or.reduce(
            [floats(dwm, name) < 0 for name in ("VOL_ACRE", "BIO_ACRE", "CARB_ACRE")])),
    ])

    invasive = "INVASIVE_SUBPLOT_SPP"
    cover = floats(invasive, "COVER_PCT")
    report(invasive, key(invasive, "{}/{}#{row}", "PLT_CN", "CONDID"), [
        *parents(invasive, "invasive"),
        ("COVER_PCT outside [0, 100]", (cover < 0.0) | (cover > 100.0)),
    ])

    report("POP_EVAL", key("POP_EVAL", "{}", "EVALID"), [
        ("duplicate EVALID", repeats("POP_EVAL", "EVALID")),
        ("unknown EVAL_TYP",
         per_value("POP_EVAL", "EVAL_TYP", lambda v: v is not None and v not in EVAL_TYPES)),
    ])

    report("POP_ESTN_UNIT", key("POP_ESTN_UNIT", "{}", "CN"), [
        ("duplicate CN", repeats("POP_ESTN_UNIT", "CN")),
        ("unit->evaluation", view.join("POP_ESTN_UNIT", ("EVALID",), "POP_EVAL", ("EVALID",)) < 0),
        ("AREA_USED not positive", floats("POP_ESTN_UNIT", "AREA_USED") <= 0),
    ])

    weight = floats("POP_STRATUM", "STRATUM_WGT")
    report("POP_STRATUM", key("POP_STRATUM", "{}", "CN"), [
        ("duplicate CN", repeats("POP_STRATUM", "CN")),
        ("stratum->unit", view.unit_rows("POP_STRATUM") < 0),
        ("STRATUM_WGT outside (0, 1]", (weight <= 0.0) | (weight > 1.0)),
        ("adjustment factor not positive", np.logical_or.reduce(
            [floats("POP_STRATUM", f"ADJ_FACTOR_{size}") <= 0
             for size in ("SUBP", "MICR", "MACR")])),
    ])
    group_sums("POP_STRATUM", [codes("POP_STRATUM", "ESTN_UNIT_CN")], weight,
               np.arange(len(weight)), "sum W_h != 1",
               lambda n, total: n and not math.isclose(total, 1.0, abs_tol=1e-9),
               key("POP_STRATUM", "{}", "ESTN_UNIT_CN"))

    assgn = "POP_PLOT_STRATUM_ASSGN"
    report(assgn, key(assgn, "{}->{}", "PLT_CN", "STRATUM_CN"), [
        ("assignment->plot", view.plot_rows(assgn) < 0),
        ("assignment->stratum", view.join(assgn, ("STRATUM_CN",), "POP_STRATUM", ("CN",)) < 0),
    ])
    evalid_codes, evalids = view.column("POP_ESTN_UNIT", "EVALID")
    evalid = evalid_codes[view.unit_rows(assgn)]  # -1 reads the null code 0
    plt = key(assgn, "{}", "PLT_CN")
    group_sums(assgn, [evalid, codes(assgn, "PLT_CN")], np.zeros(len(evalid)),
               np.flatnonzero(evalid != 0), "plot assigned to multiple strata in one evaluation",
               lambda n, total: n > 1, lambda row: f"{evalids[evalid[row]]}/{plt(row)}")

    report("REF_SPECIES", key("REF_SPECIES", "{}", "SPCD"),
           [("duplicate SPCD", repeats("REF_SPECIES", "SPCD"))])
    return out
