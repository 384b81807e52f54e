"""The attribute estimator families.

Each public function here (``tpa``, ``biomass``, ``area``, ...) is a thin
configuration of the estimation core: default domains, output columns and
a small table of value expressions.  Once per estimate, every domain is
compiled to a boolean mask over whole columns of the database's column
view (``ForestDatabase.columns``); the records (or conditions) inside all
of them become the core's :class:`~timberline.core.Records`, with their
group-key codes, a weight and the family's value columns.  The core then
gathers and totals them per sample.  All families accept the same
:class:`EstimatorRequest` options; unsupported combinations raise
:class:`~timberline.errors.UsageError` listing every problem at once.

Column semantics worth knowing:

* Grouping columns read from the tree record restrict only numerators (all
  groups share the full-domain denominator); columns read from the condition
  or plot split the denominator as well.
* ``nPlots_*`` columns count plots with a non-zero contribution, not plots in
  the sample.
* Sampling errors (``*_SE``) are percentages and appear only when at least
  two plots carry a non-zero value.
"""

from __future__ import annotations

import copy
import logging
from collections.abc import Callable, Mapping
from typing import NamedTuple

import numpy as np

from .core import (
    ADJUST_CLASSES,
    ComponentSpec,
    EstimateTable,
    GroupCol,
    Note,
    Plan,
    Records,
    build_sample,
    dense,
    level_ranks,
    make_bundle,
    make_classes,
    method_passes,
    read_only,
    select_family_evals,
)
from .domain import bind_domain
from .errors import DomainBindError, DomainSyntaxError, TimberlineError, UsageError
from .model import (
    FOREST_STATUS,
    FUEL_TYPES,
    MICROPLOT,
    SUBPLOT,
    TABLES,
    ForestDatabase,
    factorize,
    recode,
    typed_equality,
)
from .panels import METHODS, normalize_lambdas

__all__ = [
    "EstimatorRequest",
    "FAMILIES",
    "tpa",
    "biomass",
    "area",
    "grow_mort",
    "vital_rates",
    "dwm",
    "diversity",
    "invasive",
    "seedling",
    "stand_struct",
    "estimate",
    "make_classes",
]

log = logging.getLogger(__name__)

# Basal area in square feet for a diameter in inches: pi/(4*144) ~= 0.005454.
BA_FACTOR = 0.005454

# Pounds per short ton, for biomass/carbon columns reported in tons.
LB_PER_TON = 2000.0

# Fixed cubic-foot -> board-foot conversion for the optional sawlog column.
BOARD_FEET_PER_CUFT = 12.0

# Structural-stage rule: live basal-area fraction a single class must reach
# to name the stage, and the diameter breaks between the classes.
STAGE_DOMINANCE = 0.67
POLE_UPPER_DIA = 11.0
MATURE_UPPER_DIA = 19.0
STAGES = ("POLE", "MATURE", "LATE", "MOSAIC")

_VOL_EVALS = (frozenset({"VOL"}),)
_GRM_EVALS = (frozenset({"GRM", "CHNG"}),)
_DWM_EVALS = (frozenset({"DWM"}), frozenset({"VOL"}))


def basal_area(dia):
    """Stem basal area in square feet from DBH in inches (arrays too)."""
    return BA_FACTOR * dia * dia


# --------------------------------------------------------------------------
# Request options shared by every family.
# --------------------------------------------------------------------------


@typed_equality
class EstimatorRequest(NamedTuple):
    """Options accepted by every estimator family.

    ``grp_by`` names grouping columns from the relevant record, condition, or
    plot table (including passthrough CSV columns); ``tree_domain`` and
    ``area_domain`` are predicate strings.  ``method``/``lambdas`` select the
    panel combination.  ``tidy=False`` pivots the multi-row families (dwm,
    standStruct) to one row per group with per-class columns.  ``variance``
    adds ``*_VAR`` columns holding the estimator variance alongside each
    estimate (useful for comparing engines; off by default).  ``by_plot``
    returns raw per-plot values of the TI sample instead of estimates, so it
    takes neither ``variance`` nor another panel method.
    """

    grp_by: tuple[str, ...] = ()
    tree_domain: str | None = None
    area_domain: str | None = None
    by_species: bool = False
    by_size_class: bool = False
    by_plot: bool = False
    polys: object | None = None
    return_spatial: bool = False
    method: str = "TI"
    lambdas: tuple[float, ...] = (0.5,)
    tidy: bool = True
    variance: bool = False
    board_feet: bool = False
    basis: str = "BA"


def _request(request: EstimatorRequest | None, kw: dict) -> EstimatorRequest:
    if request is None:
        request = EstimatorRequest()
    if kw:
        request = EstimatorRequest(**{**request._asdict(), **kw})
    grp = request.grp_by
    if isinstance(grp, str):
        grp = (grp,)
    grp = tuple(str(g).strip().upper() for g in grp)
    lams = request.lambdas
    if isinstance(lams, (int, float)):
        lams = (float(lams),)
    return request._replace(grp_by=grp, lambdas=tuple(lams))


# --------------------------------------------------------------------------
# Column namespaces.  Domains and grp_by names resolve against the typed
# table schemas plus any passthrough columns observed in the loaded data;
# when the same name exists on several tables the record wins over the
# condition, which wins over the plot.
# --------------------------------------------------------------------------


def _layer_schema(db: ForestDatabase, table: str) -> dict[str, str]:
    kinds = dict(TABLES[table].column_kinds())
    for name in db.columns.extra_names(table):
        kinds.setdefault(name, "text")
    return kinds


def _namespace(
    db: ForestDatabase, record_table: str | None
) -> tuple[dict[str, str], dict[str, str]]:
    """(column kinds, column -> layer) for a family's full namespace."""
    layers = [("plot", "PLOT"), ("cond", "COND")]
    if record_table is not None:
        layers.append(("record", record_table))
    kinds: dict[str, str] = {}
    layer_of: dict[str, str] = {}
    for layer, table in layers:  # later layers take priority
        for name, kind in _layer_schema(db, table).items():
            kinds[name] = kind
            layer_of[name] = layer
    return kinds, layer_of


# --------------------------------------------------------------------------
# Frames: one table's rows joined to their condition and plot.  A column
# read through a frame gives one code per row into the column's distinct
# values (see ``ColumnView``); a name without a layer resolves like a
# domain column.
# --------------------------------------------------------------------------

_WALK_ORDER = {"TREE": ("PLT_CN", "CN"), "COND": ("PLT_CN", "CONDID")}


class _Frame:
    def __init__(self, db: ForestDatabase, table: str, layer_of: Mapping[str, str]):
        view = db.columns
        own = np.arange(len(db.table(table)))
        self.view, self.layer_of, self.n = view, layer_of, len(own)
        self.tables = {"record": table, "cond": "COND", "plot": "PLOT"}
        self.joins = {"plot": view.plot_rows(table)}
        self.joins["cond"] = own if table == "COND" else view.cond_rows(table)
        if table != "COND":
            self.joins["record"] = own
        self.order = view.order(table, _WALK_ORDER.get(table, ("PLT_CN",)))

    def select(self, keep: np.ndarray) -> "_Frame":
        """The kept rows in walk order: plot CN, then the table's order in a plot."""
        rows = self.order[keep[self.order]]
        out = copy.copy(self)
        out.joins = {layer: join[rows] for layer, join in self.joins.items()}
        out.n = len(rows)
        return out

    def column(self, name: str, layer: str | None = None) -> tuple[np.ndarray, list]:
        join = self.joins.get(layer or self.layer_of.get(name))
        if join is None:
            return np.zeros(self.n, dtype=np.intp), [None]
        codes, values = self.view.column(self.tables[layer or self.layer_of[name]], name)
        return codes[join], values

    def map(self, fn: Callable, name: str, layer: str | None = None, dtype=bool) -> np.ndarray:
        """fn of each row's value, called once per distinct value."""
        codes, values = self.column(name, layer)
        return np.array([fn(v) for v in values], dtype=dtype)[codes]

    def num(self, name: str, layer: str | None = None) -> np.ndarray:
        """The column as floats, null read as 0."""
        layer = layer or self.layer_of.get(name)
        if layer not in self.joins:
            return np.zeros(self.n)
        values = self.view.floats(self.tables[layer], name)[self.joins[layer]]
        values[np.isnan(values)] = 0.0
        return values


def _in_domain(dom, frame: _Frame) -> np.ndarray:
    if dom is None:
        return np.ones(frame.n, dtype=bool)
    return dom.mask(frame.column, frame.n)[1]


def _invasive_sampled(raw) -> bool:
    """Whether the invasive protocol ran on a plot.

    Plots carrying INVASIVE_SAMPLING_STATUS_CD are counted only when it is 1;
    data without the column is assumed fully sampled.
    """
    if raw is None:
        return True
    try:
        return float(raw) == 1.0
    except ValueError:
        return False


class _Ctx:
    """What a family's value table reads: its rows, domains and group keys.

    ``area_ok`` marks the conditions on forest land inside the area domain
    (and on plots the family's protocol sampled).  ``notes`` collects the
    plan's counts of skipped records.
    """

    def __init__(self, db, fam, req, group_cols, layer_of, area_layers, domains, polys):
        self.db, self.fam, self.req, self.group_cols = db, fam, req, group_cols
        self.layer_of, (self.base, self.tree, area) = layer_of, domains
        self.comps = _components_for(fam, req)
        self.conds = _Frame(db, "COND", area_layers)
        self.area_ok = (self.conds.num("COND_STATUS_CD", "cond") == FOREST_STATUS) & _in_domain(
            area, self.conds
        )
        if fam.plot_gate is not None:
            self.area_ok &= self.conds.map(fam.plot_gate[1], fam.plot_gate[0], "plot")
        self.poly, self.notes = polys, []

    def records(self, table: str, extra: Callable | None = None) -> _Frame:
        """The family's records on forest land inside every domain.

        The base domain's mask over the whole table is kept in ``db.columns``.
        """
        f = _Frame(self.db, table, self.layer_of)
        self.notes.append(Note(logging.WARNING, f"%d {table} rows have no COND row for their "
                               "(PLT_CN, CONDID); skipped", f.joins["plot"][f.joins["cond"] < 0]))
        keep = np.append(self.area_ok, False)[f.joins["cond"]]
        keep &= self.db.columns.kept(("base domain", self.fam.base_domain, table),
                                     lambda: read_only(_in_domain(self.base, f)))
        keep &= _in_domain(self.tree, f)
        if extra is not None:
            keep &= extra(f)
        return f.select(keep)

    def keys(self, f: _Frame, cols, family) -> tuple[np.ndarray, np.ndarray, list[list]]:
        """Group key code of each row, each key's code row (its value code per
        column) and each column's levels, the values those codes index.

        Each column adds a mixed-radix digit that :func:`dense` compacts, so
        codes stay below rows x radix and count in ``np.unique(..., axis=0)`` order.
        """
        columns = []
        for col in cols:
            if col.origin in ("record", "cond", "plot"):
                columns.append(f.column(col.name, col.origin))
            elif col.origin == "poly":
                codes, names = self.poly
                columns.append((codes[f.joins["plot"]], names))
            elif col.origin == "species":
                columns.append(f.column("SPCD", "record"))
            elif col.origin == "sizeclass":
                codes, dias = f.column("DIA", "record")
                labels, names = factorize(make_classes(d) for d in dias)
                columns.append((labels[codes], names))
            else:
                columns.append(family)
        key, folded, parts = np.zeros(f.n, dtype=np.intp), [0], []
        for codes, values in columns:
            folded, key = dense(key * len(values) + codes, len(folded) * len(values))
            parts = [p[folded // len(values)] for p in parts] + [folded % len(values)]
        codes = np.column_stack(parts) if parts else np.zeros((1, 0), dtype=np.intp)
        return key, codes, [values for _, values in columns]

    def rows(self, f: _Frame, weight, values, adjust: str | None = None,
             family=None, cols=None) -> Records:
        """Records of the rows of ``f``; ``adjust`` None reads each record's SIZER."""
        key, codes, levels = self.keys(f, self.group_cols if cols is None else cols, family)
        if adjust is None:
            size = f.map(lambda v: ADJUST_CLASSES.index(v) if v in ADJUST_CLASSES else 0,
                         "SIZER", "record", np.intp)
        else:
            size = np.full(f.n, ADJUST_CLASSES.index(adjust), dtype=np.intp)
        return Records(f.joins["plot"], key, levels, weight, np.stack(values), size, codes)

    def area_den(self, keep: np.ndarray | None = None) -> Records:
        """Forested area within the area domain, the shared ratio denominator."""
        f = self.conds.select(self.area_ok if keep is None else keep)
        cols = [col for col in self.group_cols if col.level == "area"]
        return self.rows(f, f.num("CONDPROP_UNADJ", "cond"), [np.ones(f.n)], SUBPLOT, cols=cols)

    def remper(self) -> np.ndarray:
        """Which plots have a usable REMPER; notes the change plots without.

        Both depend only on the database, so ``db.columns`` keeps them.
        """
        usable, flagged = self.db.columns.kept(("remper", "PLOT", "TREE"),
                                               lambda: _remper(self.db))
        self.notes.append(Note(logging.WARNING, "%d plots have change records but no usable "
                               "REMPER; skipped", flagged))
        return usable


def _remper(db: ForestDatabase) -> tuple[np.ndarray, np.ndarray]:
    """Each plot row's usable REMPER, and the change plots without one."""
    view = db.columns
    codes, values = view.column("PLOT", "REMPER")
    usable = np.array([v is not None and v > 0 for v in values])[codes]
    plot = view.plot_rows("TREE")
    codes, values = view.column("TREE", "COMPONENT")
    changed = np.zeros(len(usable), dtype=bool)
    changed[plot[np.array([bool(v) for v in values])[codes[:-1]] & (plot >= 0)]] = True
    flagged = np.flatnonzero(changed & ~usable)
    read_only(usable, flagged)
    return usable, flagged


# --------------------------------------------------------------------------
# Value tables.  Each family names its rows, their weight and value columns
# (a sample multiplies weight by the stratum adjustment, then by each value
# column) and its denominators; the core sums them per (group, plot).
# --------------------------------------------------------------------------

_TREE_SELECTORS: dict[str, Callable[[_Frame], np.ndarray]] = {
    "TPA": lambda f: np.ones(f.n),
    "BAA": lambda f: basal_area(f.num("DIA")),
    "NETVOL_ACRE": lambda f: f.num("VOLCFNET"),
    "SAWVOL_ACRE": lambda f: f.num("VOLCSNET"),
    "SAWVOL_BF_ACRE": lambda f: f.num("VOLCSNET") * BOARD_FEET_PER_CUFT,
    "BIO_AG_ACRE": lambda f: f.num("DRYBIO_AG") / LB_PER_TON,
    "BIO_BG_ACRE": lambda f: f.num("DRYBIO_BG") / LB_PER_TON,
    "BIO_ACRE": lambda f: (f.num("DRYBIO_AG") + f.num("DRYBIO_BG")) / LB_PER_TON,
    "CARB_AG_ACRE": lambda f: f.num("CARBON_AG") / LB_PER_TON,
    "CARB_BG_ACRE": lambda f: f.num("CARBON_BG") / LB_PER_TON,
    "CARB_ACRE": lambda f: (f.num("CARBON_AG") + f.num("CARBON_BG")) / LB_PER_TON,
}


def _tree_values(ctx: _Ctx) -> dict:
    """Per-tree selector values times the tree's expansion."""
    f = ctx.records("TREE")
    values = [_TREE_SELECTORS[c.name](f) for c in ctx.comps]
    return dict(num=ctx.rows(f, f.num("TPA_UNADJ"), values), den_area=ctx.area_den())


def _area_values(ctx: _Ctx) -> dict:
    """Forested condition area (a total: no ratio denominator)."""
    f = ctx.conds.select(ctx.area_ok)
    return dict(num=ctx.rows(f, f.num("CONDPROP_UNADJ", "cond"), [np.ones(f.n)], SUBPLOT))


_CHANGES = ("INGROWTH", "MORTALITY", "CUT")
_CHANGE_TPA = ("TPAGROW_UNADJ", "TPAMORT_UNADJ", "TPAREMV_UNADJ")


def _grow_mort_values(ctx: _Ctx) -> dict:
    """Annualized recruitment / mortality / harvest expansions."""
    usable = ctx.remper()
    f = ctx.records("TREE", lambda f: usable[f.joins["plot"]]
                    & f.map(_CHANGES.__contains__, "COMPONENT", "record"))
    remper = f.num("REMPER", "plot")
    values = [
        np.where(f.map(lambda v, name=name: v == name, "COMPONENT", "record"), f.num(tpa), 0.0)
        / remper
        for name, tpa in zip(_CHANGES, _CHANGE_TPA)
    ]
    return dict(num=ctx.rows(f, np.ones(f.n), values), den_area=ctx.area_den())


def _vital_rates_values(ctx: _Ctx) -> dict:
    """Annual growth of survivor trees, per tree and per acre.

    Previous volume/biomass are not stored on the record, so they are
    back-scaled from the current value by the squared diameter ratio —
    the same allometric shortcut used for the per-tree fixtures.
    """
    usable = ctx.remper()
    f = ctx.records("TREE", lambda f: usable[f.joins["plot"]])
    remper, dia, prev = f.num("REMPER", "plot"), f.num("DIA"), f.num("PREVDIA")
    gx = np.where(f.map(lambda v: v is not None, "TPAGROW_UNADJ"),
                  f.num("TPAGROW_UNADJ"), f.num("TPA_UNADJ"))
    shrink = (prev / dia) ** 2
    growth = [
        (dia - prev) / remper,
        (basal_area(dia) - basal_area(prev)) / remper,
        f.num("VOLCFNET") * (1.0 - shrink) / remper,
        f.num("DRYBIO_AG") / LB_PER_TON * (1.0 - shrink) / remper,
    ]
    num = ctx.rows(f, gx, growth + growth)
    return dict(num=num, den_tree=num._replace(values=np.ones((1, f.n))),
                den_area=ctx.area_den())


def _dwm_values(ctx: _Ctx) -> dict:
    """Area-weighted per-acre fuel loads, one group per fuel class."""
    f = ctx.records("COND_DWM_CALC")
    values = [f.num(name) for name in ("VOL_ACRE", "BIO_ACRE", "CARB_ACRE")]
    num = ctx.rows(f, f.num("CONDPROP_UNADJ", "cond"), values, SUBPLOT,
                   family=f.column("FUEL_TYPE", "record"))
    return dict(num=num, den_area=ctx.area_den())


def _invasive_values(ctx: _Ctx) -> dict:
    """Percent cover of invasive species over protocol-sampled forest area."""
    f = ctx.records("INVASIVE_SUBPLOT_SPP")
    weight = f.num("COVER_PCT") * f.num("CONDPROP_UNADJ", "cond")
    return dict(num=ctx.rows(f, weight, [np.ones(f.n)], SUBPLOT), den_area=ctx.area_den())


def _seedling_values(ctx: _Ctx) -> dict:
    """Seedling counts expanded from the microplot."""
    f = ctx.records("SEEDLING")
    weight = f.num("TREECOUNT") * f.num("TPA_UNADJ")
    return dict(num=ctx.rows(f, weight, [np.ones(f.n)], MICROPLOT), den_area=ctx.area_den())


def _stages(db: ForestDatabase) -> tuple[np.ndarray, list]:
    """Structural stage code of every condition row (plus a null slot), and names.

    A condition's live basal area per diameter class is summed over its
    live trees of at least 5 inches.
    """
    f = _Frame(db, "TREE", {})
    f = f.select(f.map(lambda v: v == 1, "STATUSCD", "record")
                 & f.map(lambda v: v is not None and v >= 5.0, "DIA", "record")
                 & (f.joins["cond"] >= 0))
    dia = f.num("DIA", "record")
    ba = basal_area(dia) * f.num("TPA_UNADJ", "record")
    size = np.where(dia < POLE_UPPER_DIA, 0, np.where(dia < MATURE_UPPER_DIA, 1, 2))
    sums = np.bincount(f.joins["cond"] * 3 + size, ba, minlength=3 * len(db.conds))
    pole, mature, late = sums.reshape(len(db.conds), 3).T
    total = pole + mature + late
    share = np.where(total > 0.0, total, 1.0)
    stage = np.select(
        [total <= 0.0, pole / share >= STAGE_DOMINANCE, mature / share >= STAGE_DOMINANCE,
         late / share >= STAGE_DOMINANCE], [0, 1, 2, 3], 4)
    canonical = db.columns.cond_rows("COND")  # duplicate conditions share their trees
    return read_only(np.append(stage[canonical], 0)), [None, *STAGES]


def _stand_struct_values(ctx: _Ctx) -> dict:
    """Share of forested area per structural stage.

    The denominator covers only conditions with a defined stage, which is
    what makes the emitted percentages sum to exactly 100 per group.
    """
    codes, names = ctx.db.columns.kept(("stages", "TREE", "COND"), lambda: _stages(ctx.db))
    staged = ctx.area_ok & (codes[:-1] != 0)
    f = ctx.conds.select(staged)
    num = ctx.rows(f, f.num("CONDPROP_UNADJ", "cond"), [np.full(f.n, 100.0)], SUBPLOT,
                   family=(codes[f.joins["cond"]], names))
    ctx.notes.append(Note(logging.INFO, "%d forested conditions have no live basal area; "
                          "structural stage undefined, conditions excluded",
                          ctx.conds.joins["plot"][ctx.area_ok & (codes[:-1] == 0)]))
    return dict(num=num, den_area=ctx.area_den(staged))


def _diversity_values(ctx: _Ctx) -> dict:
    """Per-plot diversity indices, weighted by the plot's forested area.

    A sample's entries get H, S and Eh from their trees' abundance per
    species, times the entry's forested area; the species records give the
    abundance totals behind the pooled indices.
    """
    f = ctx.records("TREE")
    abundance = _TREE_SELECTORS["BAA" if ctx.req.basis == "BA" else "TPA"](f)
    tpa = f.num("TPA_UNADJ")
    species, names = f.column("SPCD", "record")

    def reduce(bundle) -> np.ndarray:
        num, m = bundle.num, len(bundle.num.key)
        pair, inverse = dense(num.entry * len(names) + species[num.rows], m * len(names))
        a = np.bincount(inverse, num.expand)
        entry = pair // len(names)
        e, a_pos = entry[a > 0], a[a > 0]
        p = a_pos / np.bincount(e, a_pos, minlength=m)[e]
        h = -np.bincount(e, p * np.log(p), minlength=m)
        s = np.bincount(e, minlength=m)
        eh = np.where(s > 1, h / np.log(np.maximum(s, 2)), 0.0)
        x = bundle.den_area.at(bundle.area_of[num.key], num.plot)
        return np.stack([h * x, s * x, eh * x, np.bincount(entry, a, minlength=m)])

    species_cols = ctx.group_cols + (GroupCol("SPCD", "tree", "species"),)
    return dict(num=ctx.rows(f, abundance * tpa, [np.ones(f.n)]), den_area=ctx.area_den(),
                reduce=reduce, species=ctx.rows(f, tpa, [abundance], cols=species_cols))


# --------------------------------------------------------------------------
# Family descriptions.
# --------------------------------------------------------------------------


def _area_comps(*names: str) -> tuple[ComponentSpec, ...]:
    return tuple(ComponentSpec(n, "area") for n in names)


class Family(NamedTuple):
    """Static description of one estimator family."""

    name: str
    type_sets: tuple[frozenset[str], ...]
    record_table: str | None
    values: Callable[[_Ctx], dict]
    components: tuple[ComponentSpec, ...]
    nplots: tuple[tuple[str, str], ...]
    supports: frozenset[str]
    base_domain: str | None = None
    family_group: GroupCol | None = None
    species_default: bool = False
    byplot_ok: bool = True
    byplot_names: tuple[str, ...] | None = None
    wide: bool = False
    plot_gate: tuple[str, Callable] | None = None  # (plot column, test of its value)
    hidden: tuple[str, ...] = ()


_LIVE_GE_1 = "STATUSCD == 1 & DIA >= 1.0"
_TREE_NPLOTS = (("nPlots_TREE", "num"), ("nPlots_AREA", "den"))
_TREE_OPTIONS = frozenset({"treeDomain", "areaDomain", "bySpecies", "bySizeClass"})
_BIOMASS_COLUMNS = ("NETVOL_ACRE", "SAWVOL_ACRE", "BIO_AG_ACRE", "BIO_BG_ACRE", "BIO_ACRE",
                    "CARB_AG_ACRE", "CARB_BG_ACRE", "CARB_ACRE")
_VITAL_COLUMNS = ("DIA_GROW", "BA_GROW", "NETVOL_GROW", "BIO_GROW")

FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("tpa", _VOL_EVALS, "TREE", _tree_values, _area_comps("TPA", "BAA"),
           _TREE_NPLOTS, _TREE_OPTIONS, base_domain=_LIVE_GE_1),
    Family("biomass", _VOL_EVALS, "TREE", _tree_values, _area_comps(*_BIOMASS_COLUMNS),
           (("nPlots_VOL", "num"), ("nPlots_AREA", "den")), _TREE_OPTIONS | {"boardFeet"},
           base_domain=_LIVE_GE_1),
    Family("area", _VOL_EVALS, None, _area_values, (ComponentSpec("AREA_TOTAL", "none"),),
           (("nPlots_AREA", "num"),), frozenset({"areaDomain"}),
           byplot_names=("PROP_FOREST",)),
    Family("growMort", _GRM_EVALS, "TREE", _grow_mort_values,
           _area_comps("RECR_TPA", "MORT_TPA", "REMV_TPA"), _TREE_NPLOTS, _TREE_OPTIONS,
           base_domain="DIA >= 5.0"),
    Family("vitalRates", _GRM_EVALS, "TREE", _vital_rates_values,
           tuple(ComponentSpec(n, "trees") for n in _VITAL_COLUMNS)
           + _area_comps(*(n + "_AC" for n in _VITAL_COLUMNS)), _TREE_NPLOTS, _TREE_OPTIONS,
           base_domain="COMPONENT == 'SURVIVOR' & DIA >= 5.0 & PREVDIA > 0"),
    Family("dwm", _DWM_EVALS, "COND_DWM_CALC", _dwm_values,
           _area_comps("VOL_ACRE", "BIO_ACRE", "CARB_ACRE"),
           (("nPlots_DWM", "num"), ("nPlots_AREA", "den")), frozenset({"areaDomain", "tidy"}),
           family_group=GroupCol("FUEL_TYPE", "tree", "family", categorical=FUEL_TYPES),
           byplot_ok=False, wide=True),
    Family("diversity", _VOL_EVALS, "TREE", _diversity_values,
           _area_comps("H", "S", "Eh", "_ABUND"), _TREE_NPLOTS,
           frozenset({"treeDomain", "areaDomain", "bySizeClass", "basis"}),
           base_domain=_LIVE_GE_1, hidden=("_ABUND",)),
    Family("invasive", _VOL_EVALS, "INVASIVE_SUBPLOT_SPP", _invasive_values,
           _area_comps("COVER_PCT"), (("nPlots_INV", "num"), ("nPlots_AREA", "den")),
           frozenset({"areaDomain"}), species_default=True, byplot_ok=False,
           plot_gate=("INVASIVE_SAMPLING_STATUS_CD", _invasive_sampled)),
    Family("seedling", _VOL_EVALS, "SEEDLING", _seedling_values, _area_comps("TPA"),
           _TREE_NPLOTS, frozenset({"treeDomain", "areaDomain", "bySpecies"})),
    Family("standStruct", _VOL_EVALS, None, _stand_struct_values, _area_comps("PERC_AREA"),
           (("nPlots", "den"),), frozenset({"areaDomain", "tidy"}),
           family_group=GroupCol("STAGE", "tree", "family", categorical=STAGES),
           byplot_ok=False, wide=True),
)}


# --------------------------------------------------------------------------
# Request validation and plan construction.
# --------------------------------------------------------------------------


def _validate(fam: Family, req: EstimatorRequest) -> list[str]:
    """The problems of the request's options that need no table to find."""
    problems: list[str] = []
    if req.tree_domain is not None and "treeDomain" not in fam.supports:
        problems.append(f"{fam.name} does not accept a tree domain")
    if req.area_domain is not None and "areaDomain" not in fam.supports:
        problems.append(f"{fam.name} does not accept an area domain")
    if req.by_species and "bySpecies" not in fam.supports and not fam.species_default:
        problems.append(f"{fam.name} cannot group by species")
    if req.by_size_class and "bySizeClass" not in fam.supports:
        problems.append(f"{fam.name} cannot group by size class")
    if not req.tidy and not fam.wide:
        problems.append(
            f"wide layout (tidy off) applies only to multi-class families, not {fam.name}"
        )
    if req.by_plot and not fam.byplot_ok:
        problems.append(f"{fam.name} has no per-plot form")
    if req.by_plot and req.return_spatial:
        problems.append("per-plot output cannot be joined onto polygons")
    if req.by_plot and req.variance:
        problems.append("per-plot output has no variance")
    if req.return_spatial and req.polys is None:
        problems.append("spatial output needs polys")
    method = req.method.upper()
    if method not in METHODS:
        problems.append(
            f"unknown method {req.method!r} (choose from {', '.join(METHODS)})"
        )
    elif req.by_plot and method != "TI":
        problems.append(f"per-plot output pools all panels (TI); it takes no {method} method")
    if method == "EMA" or not req.by_plot:  # run_family reads the lambdas of these
        for lam in req.lambdas:
            if not 0.0 < float(lam) < 1.0:
                problems.append(f"lambda must be strictly between 0 and 1, got {lam}")
    if req.board_feet and "boardFeet" not in fam.supports:
        problems.append(f"board-foot columns apply only to biomass, not {fam.name}")
    if req.basis != "BA" and "basis" not in fam.supports:
        problems.append(f"abundance basis applies only to diversity, not {fam.name}")
    if req.basis not in ("BA", "TPA"):
        problems.append(f"abundance basis must be BA or TPA, got {req.basis!r}")
    return problems


def _build_group_cols(
    fam: Family, req: EstimatorRequest, layer_of: Mapping[str, str]
) -> tuple[tuple[GroupCol, ...], bool]:
    """Output grouping columns in display order; second value = decorate SPCD."""
    cols: list[GroupCol] = []
    problems: list[str] = []
    if req.polys is not None:
        cols.append(GroupCol("POLY_ID", "area", "poly"))
    for name in req.grp_by:
        layer = layer_of.get(name)
        if layer is None:
            problems.append(f"unknown grouping column {name}")
            continue
        level = "tree" if layer == "record" else "area"
        cols.append(GroupCol(name, level, layer))
    if problems:
        raise UsageError(problems)
    names = {c.name for c in cols}
    species_on = req.by_species or fam.species_default
    if species_on and "SPCD" not in names:
        cols.append(GroupCol("SPCD", "tree", "species"))
    if req.by_size_class and "SIZE_CLASS" not in names:
        cols.append(GroupCol("SIZE_CLASS", "tree", "sizeclass"))
    if fam.family_group is not None and fam.family_group.name not in names:
        cols.append(fam.family_group)
    return tuple(cols), species_on


def _components_for(fam: Family, req: EstimatorRequest) -> tuple[ComponentSpec, ...]:
    comps = fam.components
    if fam.name == "biomass" and req.board_feet:
        comps = comps + (ComponentSpec("SAWVOL_BF_ACRE", "area"),)
    return comps


def _assign_plots(db: ForestDatabase, polys) -> tuple[np.ndarray, list]:
    """Each plot row's polygon id as codes (plus a null slot) and their values.

    Plots sharing a CN share the polygon of the last of them inside one.
    """
    from .spatial import plot_owners  # polygons load only for a request that has them

    view = db.columns
    owner = plot_owners(view.floats("PLOT", "LON")[:-1], view.floats("PLOT", "LAT")[:-1], polys)
    codes, cns = view.column("PLOT", "CN")
    inside = np.flatnonzero(owner >= 0)[::-1]
    last = inside[np.unique(codes[inside], return_index=True)[1]]
    by_cn = np.zeros(len(cns), dtype=np.intp)
    by_cn[codes[last]] = owner[last] + 1
    return recode(by_cn[codes[:-1]], [None, *(f.fid for f in polys)])


def emit_spatial(table: EstimateTable, polys):
    """The table joined onto its polygons (:func:`timberline.spatial.emit_spatial`)."""
    from . import spatial

    return spatial.emit_spatial(table, polys)


def _raise_together(errors: list[TimberlineError]) -> None:
    """Raise every problem found in a request at once.

    One error is raised as it is.  Several are merged: into one
    :class:`DomainBindError` if all are, else into a :class:`UsageError`
    listing each problem.
    """
    if len(errors) == 1:
        raise errors[0]
    if errors:
        bind_only = all(isinstance(e, DomainBindError) for e in errors)
        merged = DomainBindError if bind_only else UsageError
        raise merged([p for e in errors for p in getattr(e, "problems", [str(e)])])


def _build_plan(db: ForestDatabase, fam: Family, req: EstimatorRequest) -> Plan:
    kinds, layer_of = _namespace(db, fam.record_table)
    area_kinds, area_layers = _namespace(db, None)
    problems = _validate(fam, req)
    errors: list[TimberlineError] = [UsageError(problems)] if problems else []
    try:
        group_cols, species_on = _build_group_cols(fam, req, layer_of)
    except UsageError as exc:
        errors.append(exc)
    domains = []
    for expr, schema in ((fam.base_domain, kinds),  # a domain _validate refused is not bound
                         ("treeDomain" in fam.supports and req.tree_domain, kinds),
                         ("areaDomain" in fam.supports and req.area_domain, area_kinds)):
        try:
            domains.append(bind_domain(expr, schema) if expr else None)
        except (DomainSyntaxError, DomainBindError) as exc:
            errors.append(exc)
    _raise_together(errors)
    decoration = None
    if species_on:
        decoration = {
            sp.spcd: (sp.common_name, sp.scientific_name) for sp in db.species
        }
    polys = _assign_plots(db, req.polys) if req.polys is not None else None

    ctx = _Ctx(db, fam, req, group_cols, layer_of, area_layers, domains, polys)
    return Plan(
        family=fam.name,
        components=ctx.comps,
        group_cols=group_cols,
        species_decoration=decoration,
        nplots_cols=fam.nplots,
        hidden_components=fam.hidden,
        emit_variance=req.variance,
        **fam.values(ctx),
        notes=tuple(ctx.notes),  # after the values, which add them
    )


# --------------------------------------------------------------------------
# Output assembly.
# --------------------------------------------------------------------------


def _visible_components(plan: Plan) -> list[ComponentSpec]:
    return [c for c in plan.components if c.name not in plan.hidden_components]


def _output_columns(fam: Family, req: EstimatorRequest, plan: Plan) -> list[str]:
    cols: list[str] = []
    if req.method.upper() == "EMA":
        cols.append("lambda")
    cols.append("YEAR")
    cols.extend(plan.group_names)
    for comp in _visible_components(plan):
        cols.append(comp.name)
        cols.append(comp.name + "_SE")
        if req.variance:
            cols.append(comp.name + "_VAR")
    if plan.species is not None:
        cols.extend(("H_POOLED", "S_POOLED", "Eh_POOLED"))
    for label, _ in plan.nplots_cols:
        cols.append(label)
    return cols


def _wide_namer(fam: Family) -> Callable[[str, object], str]:
    if fam.name == "standStruct":
        return lambda comp, level: f"PERC_{level}"
    return lambda comp, level: f"{comp}_{level}"


def _pivot_wide(
    fam: Family, req: EstimatorRequest, plan: Plan, columns: list[str], rows: list[dict]
) -> tuple[list[str], list[dict]]:
    """One row per group with per-class value columns (dwm, standStruct)."""
    pivot = fam.family_group.name
    namer = _wide_namer(fam)
    value_cols: list[tuple[str, str]] = []  # (tidy name, per-level base)
    for comp in _visible_components(plan):
        suffixes = ["", "_SE"] + (["_VAR"] if req.variance else [])
        for sfx in suffixes:
            value_cols.append((comp.name + sfx, (comp.name, sfx)))
    per_level_counts = [label for label, kind in plan.nplots_cols if kind == "num"]
    id_cols = [
        c
        for c in columns
        if c != pivot
        and c not in per_level_counts
        and all(c != vc for vc, _ in value_cols)
    ]

    levels: list = [v for v in (fam.family_group.categorical or ())]
    for row in rows:
        if row.get(pivot) not in levels:
            levels.append(row.get(pivot))

    keyed: dict[tuple, dict] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(row.get(c) for c in id_cols)
        if key not in keyed:
            keyed[key] = dict(zip(id_cols, key))
            order.append(key)
        out = keyed[key]
        level = row.get(pivot)
        for tidy_name, (base, sfx) in value_cols:
            out[namer(base, level) + sfx] = row.get(tidy_name)

    wide_cols = list(id_cols)
    # Keep nPlots-style columns at the end, after the pivoted values.
    tail = [c for c in wide_cols if c.startswith("nPlots")]
    wide_cols = [c for c in wide_cols if c not in tail]
    for level in levels:
        for _, (base, sfx) in value_cols:
            name = namer(base, level) + sfx
            if name not in wide_cols:
                wide_cols.append(name)
    wide_cols.extend(tail)
    return wide_cols, [keyed[k] for k in order]


# --------------------------------------------------------------------------
# Per-plot output.
# --------------------------------------------------------------------------


def _by_plot_table(db: ForestDatabase, fam: Family, plan: Plan) -> EstimateTable:
    """Raw per-plot values: one row per plot visit (and group), no variance.

    A visit (plot CN, year) in several evaluation groups gives rows only in
    the first.  Groups merge by their key in ``plan.num``.  Rows sort by
    year, plot CN and the repr of the group cells; a ratio component is
    None where its denominator is not positive.
    """
    visible = [i for i, c in enumerate(plan.components) if c.name not in plan.hidden_components]
    kinds = [plan.components[c].den for c in visible]
    comp_names = list(fam.byplot_names or [plan.components[c].name for c in visible])
    codes, cns = db.columns.column("PLOT", "CN")
    seen = np.zeros(0, dtype=np.int64)  # earlier groups' visits, year * len(cns) + CN code
    parts = []  # per group and kept entry: year, CN code, key, count, component values
    for evals in select_family_evals(db, fam.type_sets, fam.name):
        sample = build_sample(db, evals)
        cn, year = codes[sample.rows], sample.year[sample.last]
        visit = year.astype(np.int64) * len(cns) + cn
        fresh, seen = ~np.isin(visit, seen), np.concatenate([seen, visit])
        bundle = make_bundle(db, plan, sample)
        num = bundle.num
        keep = np.flatnonzero(fresh[num.plot])
        key, plot, values = num.key[keep], num.plot[keep], np.take(num.values, keep, axis=1)
        dens = {}  # per denominator kind: is it missing, and the divisor
        for kind, entries, of in (("area", bundle.den_area, bundle.area_of),
                                  ("trees", bundle.den_tree, bundle.tree_of)):
            if kind in kinds:
                den = entries.at(of[key], plot)
                none = ~(den > 0)
                dens[kind] = none, np.where(none, 1.0, den)
        cols = []
        for c, kind in zip(visible, kinds):
            col = values[c]
            if kind != "none":
                none, den = dens[kind]
                col = (col / den).astype(object)
                col[none] = None
            cols.append(col)
        parts.append((year[plot], cn[plot], num.key_row[key], num.count[keep], *cols))

    year, cn, key, count, *cols = (np.concatenate(p) for p in zip(*parts))
    cn_rank = np.zeros(len(cns), dtype=np.intp)
    present = dense(cn, len(cns))[0].tolist()
    cn_rank[sorted(present, key=cns.__getitem__)] = np.arange(len(present))
    ranks = [level_ranks(column, levels, repr)
             for column, levels in zip(np.take(plan.num.codes, key, axis=0).T, plan.num.levels)]
    order = np.lexsort((*ranks[::-1], cn_rank[cn], year))
    group = plan.group_columns(np.take(plan.num.codes, key[order], axis=0))
    columns = ["YEAR", "PLT_CN", *group, *comp_names, "nStems"]
    return EstimateTable.from_columns(columns, [
        year[order].tolist(), list(map(cns.__getitem__, cn[order].tolist())), *group.values(),
        *(c[order].tolist() for c in cols), count[order].tolist(),
    ])


# --------------------------------------------------------------------------
# The shared driver.
# --------------------------------------------------------------------------


def run_family(db: ForestDatabase, fam: Family, req: EstimatorRequest):
    """Validate a request, build its plan, run the estimation, shape the output."""
    plan = _build_plan(db, fam, req)
    if req.by_plot:
        return _by_plot_table(db, fam, plan)

    lambdas = normalize_lambdas(req.lambdas)
    passes = list(method_passes(db, plan, fam.type_sets, fam.name, req.method, lambdas=lambdas))
    columns = _output_columns(fam, req, plan)
    cells = {name: [cell for p in passes for cell in p[name]]
             for name in ("lambda", "YEAR", *columns)}
    order = np.lexsort(([year or 0 for year in cells["YEAR"]],
                        [lam or 0.0 for lam in cells["lambda"]])).tolist()
    table = EstimateTable.from_columns(columns, [list(map(cells[c].__getitem__, order))
                                                 for c in columns])
    if fam.wide and not req.tidy:
        table = EstimateTable(*_pivot_wide(fam, req, plan, columns, table.rows))
    if req.return_spatial:
        return emit_spatial(table, req.polys)
    return table


def estimate(
    db: ForestDatabase,
    family: str,
    request: EstimatorRequest | None = None,
    **kw,
):
    """Run any family by name; the functions below are the usual entry points."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise UsageError(
            f"unknown attribute family {family!r} "
            f"(choose from {', '.join(sorted(FAMILIES))})"
        )
    return run_family(db, fam, _request(request, kw))


def tpa(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Live trees per acre and basal area per acre of forestland.

    Default tree domain: live stems with DIA >= 1.0 inch.
    """
    return run_family(db, FAMILIES["tpa"], _request(request, kw))


def biomass(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Volume, biomass, and carbon per acre of forestland.

    Volumes are net cubic feet; biomass and carbon are short tons.  Pass
    ``board_feet=True`` for an extra sawlog column at 12 board feet per
    cubic foot.
    """
    return run_family(db, FAMILIES["biomass"], _request(request, kw))


def area(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Total forested acres (a total, not a per-acre ratio)."""
    return run_family(db, FAMILIES["area"], _request(request, kw))


def grow_mort(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Annual recruitment, mortality, and harvest per acre (stems >= 5 inches).

    Needs a change evaluation; component expansions are divided by the plot
    remeasurement period.
    """
    return run_family(db, FAMILIES["growMort"], _request(request, kw))


def vital_rates(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Annual growth of survivor trees, per tree and per acre."""
    return run_family(db, FAMILIES["vitalRates"], _request(request, kw))


def dwm(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Down woody material volume, biomass, and carbon per acre by fuel class."""
    return run_family(db, FAMILIES["dwm"], _request(request, kw))


def diversity(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Shannon diversity, richness, and evenness of live stems.

    Stand-level columns are area-weighted means of per-plot indices; pooled
    columns recompute the indices from the estimated abundance totals.
    ``basis`` picks the abundance measure: "BA" (default) or "TPA".
    """
    return run_family(db, FAMILIES["diversity"], _request(request, kw))


def invasive(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Percent cover by invasive species over protocol-sampled forest area."""
    return run_family(db, FAMILIES["invasive"], _request(request, kw))


def seedling(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Seedlings per acre from microplot counts."""
    return run_family(db, FAMILIES["seedling"], _request(request, kw))


def stand_struct(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Percent of forested area in each structural stage.

    A condition's stage is the diameter class holding at least 67% of its
    live basal area (POLE < 11 in <= MATURE < 19 in <= LATE), else MOSAIC.
    Conditions with no live basal area have no stage and are excluded from
    both numerator and denominator, so percentages sum to 100.
    """
    return run_family(db, FAMILIES["standStruct"], _request(request, kw))
