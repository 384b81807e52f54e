"""The attribute estimator families.

Each public function here (``tpa``, ``biomass``, ``area``, ...) is a thin
configuration of the estimation core: it picks the tree/condition selectors,
the default domains, the output columns, and hands everything to the shared
post-stratified pipeline.  All families accept the same
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

import dataclasses
import logging
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .core import (
    ComponentSpec,
    EstimateTable,
    GroupCol,
    Plan,
    PlotContribution,
    area_key,
    build_sample,
    make_bundle,
    make_classes,
    method_passes,
    numerator_key,
    rows_from_totals,
    select_family_evals,
)
from .domain import bind_domain
from .errors import UsageError
from .model import (
    FOREST_STATUS,
    FUEL_TYPES,
    MICROPLOT,
    SUBPLOT,
    TABLES,
    ForestDatabase,
    record_value,
)
from .panels import METHODS, normalize_lambdas
from .spatial import emit_spatial
from .spatial import assign_plots as _assign_plots

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


def basal_area(dia: float | None) -> float:
    """Stem basal area in square feet from DBH in inches."""
    if dia is None:
        return 0.0
    return BA_FACTOR * dia * dia


# --------------------------------------------------------------------------
# Request options shared by every family.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorRequest:
    """Options accepted by every estimator family.

    ``grp_by`` names grouping columns from the relevant record, condition, or
    plot table (including passthrough CSV columns); ``tree_domain`` and
    ``area_domain`` are predicate strings.  ``method``/``lambdas`` select the
    panel combination.  ``tidy=False`` pivots the multi-row families (dwm,
    standStruct) to one row per group with per-class columns.  ``variance``
    adds ``*_VAR`` columns holding the estimator variance alongside each
    estimate (useful for comparing engines; off by default).  ``workers`` is
    only checked (at least 1): estimation runs in one process.
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
    workers: int = 1
    variance: bool = False
    board_feet: bool = False
    basis: str = "BA"


def _request(request: EstimatorRequest | None, kw: dict) -> EstimatorRequest:
    if request is None:
        request = EstimatorRequest()
    if kw:
        request = dataclasses.replace(request, **kw)
    grp = request.grp_by
    if isinstance(grp, str):
        grp = (grp,)
    grp = tuple(str(g).strip().upper() for g in grp)
    lams = request.lambdas
    if isinstance(lams, (int, float)):
        lams = (float(lams),)
    return dataclasses.replace(request, grp_by=grp, lambdas=tuple(lams))


# --------------------------------------------------------------------------
# Column namespaces.  Domains and grp_by names resolve against the typed
# table schemas plus any passthrough columns observed in the loaded data;
# when the same name exists on several tables the record wins over the
# condition, which wins over the plot.
# --------------------------------------------------------------------------


def _layer_schema(table: str, records) -> dict[str, str]:
    kinds = dict(TABLES[table].column_kinds())
    seen: set[str] = set()
    for rec in records:
        for name in rec.extras:
            seen.add(name)
    for name in seen:
        kinds.setdefault(name, "text")
    return kinds


def _namespace(
    db: ForestDatabase, record_table: str | None
) -> tuple[dict[str, str], dict[str, str]]:
    """(column kinds, column -> layer) for a family's full namespace."""
    layers: list[tuple[str, str, object]] = [
        ("plot", "PLOT", db.plots),
        ("cond", "COND", db.conds),
    ]
    if record_table is not None:
        spec = TABLES[record_table]
        layers.append(("record", record_table, getattr(db, spec.db_field)))
    kinds: dict[str, str] = {}
    layer_of: dict[str, str] = {}
    for layer, table, records in layers:  # later layers take priority
        for name, kind in _layer_schema(table, records).items():
            kinds[name] = kind
            layer_of[name] = layer
    return kinds, layer_of


def _make_reader(layer_of: Mapping[str, str]):
    def read(column: str, bundle, record, cond):
        layer = layer_of.get(column)
        if layer == "record":
            src = record
        elif layer == "cond":
            src = cond
        elif layer == "plot":
            src = bundle.plot
        else:
            src = None
        if src is None:
            return None
        return record_value(src, column)

    return read


def _holds(dom, read, bundle, record, cond) -> bool:
    if dom is None:
        return True
    return dom.indicator(lambda col: read(col, bundle, record, cond)) == 1


def _forest_conds(plan: Plan, bundle):
    """The plot's forested conditions inside the area domain."""
    for cond in bundle.conds:
        if cond.cond_status_cd == FOREST_STATUS and _holds(
            plan.area_domain, plan.read_area, bundle, None, cond
        ):
            yield cond


def _forest_records(plan: Plan, bundle, records):
    """(record, condition) for records on forest land inside every domain.

    Domains are checked base, tree, then area; one left None always holds.
    """
    for rec in records:
        cond = bundle.cond_by_id.get(rec.condid)
        if cond is None or cond.cond_status_cd != FOREST_STATUS:
            continue
        if (
            _holds(plan.base_domain, plan.read, bundle, rec, cond)
            and _holds(plan.tree_domain, plan.read, bundle, rec, cond)
            and _holds(plan.area_domain, plan.read_area, bundle, None, cond)
        ):
            yield rec, cond


# --------------------------------------------------------------------------
# Plot walkers.  Each consumes one Bundle and returns the plot's grouped
# numerators/denominators; the core stratifies and combines them.
# --------------------------------------------------------------------------


def _fill_area_den(plan: Plan, bundle, pc: PlotContribution) -> None:
    """Forested area within the area domain, the shared ratio denominator."""
    adj = bundle.stratum.adjustment(SUBPLOT)
    for cond in _forest_conds(plan, bundle):
        pc.add_den_area(area_key(plan, bundle, cond), (cond.condprop_unadj or 0.0) * adj)


def _walk_trees(plan: Plan, bundle) -> PlotContribution:
    """Generic tree walker: per-tree selector values times expansion."""
    pc = PlotContribution()
    _fill_area_den(plan, bundle, pc)
    ncomp = len(plan.components)
    stratum = bundle.stratum
    for t, cond in _forest_records(plan, bundle, bundle.trees):
        expand = (t.tpa_unadj or 0.0) * stratum.adjustment(t.sizer)
        gk = numerator_key(plan, bundle, t, cond)
        pc.count_record(gk)
        for i, sel in enumerate(plan.selectors):
            pc.add_num(gk, i, expand * sel(t), ncomp)
    return pc


def _walk_area(plan: Plan, bundle) -> PlotContribution:
    """Condition walker for total-area estimation (no ratio denominator)."""
    pc = PlotContribution()
    adj = bundle.stratum.adjustment(SUBPLOT)
    for cond in _forest_conds(plan, bundle):
        gk = numerator_key(plan, bundle, None, cond)
        pc.count_record(gk)
        pc.add_num(gk, 0, (cond.condprop_unadj or 0.0) * adj, 1)
    return pc


def _change_remper(plan: Plan, bundle) -> float | None:
    remper = bundle.plot.remper
    if remper is None or remper <= 0:
        if any(t.component for t in bundle.trees):
            log.warning(
                "plot %s has change records but no usable REMPER; skipped",
                bundle.plot.cn,
            )
        return None
    return remper


def _walk_grow_mort(plan: Plan, bundle) -> PlotContribution:
    """Annualized recruitment / mortality / harvest expansions."""
    pc = PlotContribution()
    _fill_area_den(plan, bundle, pc)
    remper = _change_remper(plan, bundle)
    if remper is None:
        return pc
    stratum = bundle.stratum
    changes = (t for t in bundle.trees if t.component in ("INGROWTH", "MORTALITY", "CUT"))
    for t, cond in _forest_records(plan, bundle, changes):
        adj = stratum.adjustment(t.sizer)
        gk = numerator_key(plan, bundle, t, cond)
        pc.count_record(gk)
        recr = (t.tpagrow_unadj or 0.0) if t.component == "INGROWTH" else 0.0
        mort = (t.tpamort_unadj or 0.0) if t.component == "MORTALITY" else 0.0
        remv = (t.tparemv_unadj or 0.0) if t.component == "CUT" else 0.0
        pc.add_num(gk, 0, recr / remper * adj, 3)
        pc.add_num(gk, 1, mort / remper * adj, 3)
        pc.add_num(gk, 2, remv / remper * adj, 3)
    return pc


def _walk_vital_rates(plan: Plan, bundle) -> PlotContribution:
    """Annual growth of survivor trees, per tree and per acre.

    Previous volume/biomass are not stored on the record, so they are
    back-scaled from the current value by the squared diameter ratio —
    the same allometric shortcut used for the per-tree fixtures.
    """
    pc = PlotContribution()
    _fill_area_den(plan, bundle, pc)
    remper = _change_remper(plan, bundle)
    if remper is None:
        return pc
    stratum = bundle.stratum
    for t, cond in _forest_records(plan, bundle, bundle.trees):
        gx = t.tpagrow_unadj if t.tpagrow_unadj is not None else t.tpa_unadj
        gx = (gx or 0.0) * stratum.adjustment(t.sizer)
        dia, prev = t.dia, t.prevdia
        shrink = (prev / dia) ** 2
        d_dia = (dia - prev) / remper
        d_ba = (basal_area(dia) - basal_area(prev)) / remper
        d_vol = (t.volcfnet or 0.0) * (1.0 - shrink) / remper
        d_bio = (t.drybio_ag or 0.0) / LB_PER_TON * (1.0 - shrink) / remper
        gk = numerator_key(plan, bundle, t, cond)
        pc.count_record(gk)
        for i, v in enumerate((d_dia, d_ba, d_vol, d_bio)):
            pc.add_num(gk, i, gx * v, 8)
            pc.add_num(gk, i + 4, gx * v, 8)
        pc.add_den_tree(gk, gx)
    return pc


def _walk_dwm(plan: Plan, bundle) -> PlotContribution:
    """Area-weighted per-acre fuel loads, one group per fuel class."""
    pc = PlotContribution()
    _fill_area_den(plan, bundle, pc)
    adj = bundle.stratum.adjustment(SUBPLOT)
    for rec, cond in _forest_records(plan, bundle, bundle.dwm):
        weight = (cond.condprop_unadj or 0.0) * adj
        gk = numerator_key(plan, bundle, rec, cond, family_value=rec.fuel_type)
        pc.count_record(gk)
        pc.add_num(gk, 0, (rec.vol_acre or 0.0) * weight, 3)
        pc.add_num(gk, 1, (rec.bio_acre or 0.0) * weight, 3)
        pc.add_num(gk, 2, (rec.carb_acre or 0.0) * weight, 3)
    return pc


def _invasive_sampled(plot) -> bool:
    """Whether the invasive protocol ran on a plot.

    Plots carrying INVASIVE_SAMPLING_STATUS_CD are counted only when it is 1;
    data without the column is assumed fully sampled.
    """
    raw = plot.extras.get("INVASIVE_SAMPLING_STATUS_CD")
    if raw in (None, ""):
        return True
    try:
        return float(raw) == 1.0
    except ValueError:
        return False


def _walk_invasive(plan: Plan, bundle) -> PlotContribution:
    """Percent cover of invasive species over protocol-sampled forest area."""
    pc = PlotContribution()
    if not _invasive_sampled(bundle.plot):
        return pc
    _fill_area_den(plan, bundle, pc)
    adj = bundle.stratum.adjustment(SUBPLOT)
    for rec, cond in _forest_records(plan, bundle, bundle.invasives):
        cover = (rec.cover_pct or 0.0) * (cond.condprop_unadj or 0.0) * adj
        gk = numerator_key(plan, bundle, rec, cond)
        pc.count_record(gk)
        pc.add_num(gk, 0, cover, 1)
    return pc


def _walk_seedling(plan: Plan, bundle) -> PlotContribution:
    """Seedling counts expanded from the microplot."""
    pc = PlotContribution()
    _fill_area_den(plan, bundle, pc)
    adj = bundle.stratum.adjustment(MICROPLOT)
    for s, cond in _forest_records(plan, bundle, bundle.seedlings):
        gk = numerator_key(plan, bundle, s, cond)
        pc.count_record(gk)
        pc.add_num(gk, 0, (s.treecount or 0) * (s.tpa_unadj or 0.0) * adj, 1)
    return pc


def _cond_stage(bundle, cond) -> str | None:
    """Structural stage of one condition from live basal-area fractions."""
    pole = mature = late = 0.0
    for t in bundle.trees:
        if t.condid != cond.condid or t.statuscd != 1:
            continue
        if t.dia is None or t.dia < 5.0:
            continue
        ba = basal_area(t.dia) * (t.tpa_unadj or 0.0)
        if t.dia < POLE_UPPER_DIA:
            pole += ba
        elif t.dia < MATURE_UPPER_DIA:
            mature += ba
        else:
            late += ba
    total = pole + mature + late
    if total <= 0.0:
        log.info(
            "plot %s condition %s has no live basal area; structural stage "
            "undefined, condition excluded",
            bundle.plot.cn,
            cond.condid,
        )
        return None
    if pole / total >= STAGE_DOMINANCE:
        return "POLE"
    if mature / total >= STAGE_DOMINANCE:
        return "MATURE"
    if late / total >= STAGE_DOMINANCE:
        return "LATE"
    return "MOSAIC"


def _walk_stand_struct(plan: Plan, bundle) -> PlotContribution:
    """Share of forested area per structural stage.

    The denominator covers only conditions with a defined stage, which is
    what makes the emitted percentages sum to exactly 100 per group.
    """
    pc = PlotContribution()
    adj = bundle.stratum.adjustment(SUBPLOT)
    for cond in _forest_conds(plan, bundle):
        stage = _cond_stage(bundle, cond)
        if stage is None:
            continue
        weight = (cond.condprop_unadj or 0.0) * adj
        gk = numerator_key(plan, bundle, None, cond, family_value=stage)
        pc.count_record(gk)
        pc.add_num(gk, 0, 100.0 * weight, 1)
        pc.add_den_area(area_key(plan, bundle, cond), weight)
    return pc


def _shannon(abundances) -> tuple[float, int, float]:
    """(H, S, Eh) from raw abundance values (zeros ignored)."""
    total = 0.0
    positive = []
    for a in abundances:
        if a > 0.0:
            positive.append(a)
            total += a
    if total <= 0.0:
        return 0.0, 0, 0.0
    h = 0.0
    for a in positive:
        p = a / total
        h -= p * math.log(p)
    s = len(positive)
    eh = h / math.log(s) if s > 1 else 0.0
    return h, s, eh


def _walk_diversity(plan: Plan, bundle) -> PlotContribution:
    """Per-plot diversity indices, weighted by the plot's forested area."""
    pc = PlotContribution()
    _fill_area_den(plan, bundle, pc)
    (abundance,) = plan.selectors
    stratum = bundle.stratum
    grouped: dict[tuple, dict[int | None, float]] = {}
    for t, cond in _forest_records(plan, bundle, bundle.trees):
        a = abundance(t) * (t.tpa_unadj or 0.0) * stratum.adjustment(t.sizer)
        gk = numerator_key(plan, bundle, t, cond)
        pc.count_record(gk)
        by_sp = grouped.setdefault(gk, {})
        by_sp[t.spcd] = by_sp.get(t.spcd, 0.0) + a
    for gk, by_sp in grouped.items():
        x = pc.den_area.get(plan.area_projection(gk), 0.0)
        h, s, eh = _shannon(by_sp.values())
        pc.add_num(gk, 0, h * x, 4)
        pc.add_num(gk, 1, s * x, 4)
        pc.add_num(gk, 2, eh * x, 4)
        pc.add_num(gk, 3, sum(by_sp.values()), 4)
    return pc


# --------------------------------------------------------------------------
# Family descriptions.
# --------------------------------------------------------------------------

_TREE_SELECTORS: dict[str, Callable] = {
    "TPA": lambda t: 1.0,
    "BAA": lambda t: basal_area(t.dia),
    "NETVOL_ACRE": lambda t: t.volcfnet or 0.0,
    "SAWVOL_ACRE": lambda t: t.volcsnet or 0.0,
    "SAWVOL_BF_ACRE": lambda t: (t.volcsnet or 0.0) * BOARD_FEET_PER_CUFT,
    "BIO_AG_ACRE": lambda t: (t.drybio_ag or 0.0) / LB_PER_TON,
    "BIO_BG_ACRE": lambda t: (t.drybio_bg or 0.0) / LB_PER_TON,
    "BIO_ACRE": lambda t: ((t.drybio_ag or 0.0) + (t.drybio_bg or 0.0)) / LB_PER_TON,
    "CARB_AG_ACRE": lambda t: (t.carbon_ag or 0.0) / LB_PER_TON,
    "CARB_BG_ACRE": lambda t: (t.carbon_bg or 0.0) / LB_PER_TON,
    "CARB_ACRE": lambda t: ((t.carbon_ag or 0.0) + (t.carbon_bg or 0.0)) / LB_PER_TON,
}


def _area_comps(*names: str) -> tuple[ComponentSpec, ...]:
    return tuple(ComponentSpec(n, "area") for n in names)


@dataclass(frozen=True)
class Family:
    """Static description of one estimator family."""

    name: str
    type_sets: tuple[frozenset[str], ...]
    record_table: str | None
    walker: Callable
    components: tuple[ComponentSpec, ...]
    nplots: tuple[tuple[str, str], ...]
    supports: frozenset[str]
    base_domain: str | None = None
    family_group: GroupCol | None = None
    species_default: bool = False
    byplot_ok: bool = True
    byplot_names: tuple[str, ...] | None = None
    wide: bool = False


_LIVE_GE_1 = "STATUSCD == 1 & DIA >= 1.0"

_TPA_FAMILY = Family(
    name="tpa",
    type_sets=_VOL_EVALS,
    record_table="TREE",
    walker=_walk_trees,
    components=_area_comps("TPA", "BAA"),
    nplots=(("nPlots_TREE", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"treeDomain", "areaDomain", "bySpecies", "bySizeClass"}),
    base_domain=_LIVE_GE_1,
)

_BIOMASS_COLUMNS = (
    "NETVOL_ACRE",
    "SAWVOL_ACRE",
    "BIO_AG_ACRE",
    "BIO_BG_ACRE",
    "BIO_ACRE",
    "CARB_AG_ACRE",
    "CARB_BG_ACRE",
    "CARB_ACRE",
)

_BIOMASS_FAMILY = Family(
    name="biomass",
    type_sets=_VOL_EVALS,
    record_table="TREE",
    walker=_walk_trees,
    components=_area_comps(*_BIOMASS_COLUMNS),
    nplots=(("nPlots_VOL", "num"), ("nPlots_AREA", "den")),
    supports=frozenset(
        {"treeDomain", "areaDomain", "bySpecies", "bySizeClass", "boardFeet"}
    ),
    base_domain=_LIVE_GE_1,
)

_AREA_FAMILY = Family(
    name="area",
    type_sets=_VOL_EVALS,
    record_table=None,
    walker=_walk_area,
    components=(ComponentSpec("AREA_TOTAL", "none"),),
    nplots=(("nPlots_AREA", "num"),),
    supports=frozenset({"areaDomain"}),
    byplot_names=("PROP_FOREST",),
)

_GROW_MORT_FAMILY = Family(
    name="growMort",
    type_sets=_GRM_EVALS,
    record_table="TREE",
    walker=_walk_grow_mort,
    components=_area_comps("RECR_TPA", "MORT_TPA", "REMV_TPA"),
    nplots=(("nPlots_TREE", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"treeDomain", "areaDomain", "bySpecies", "bySizeClass"}),
    base_domain="DIA >= 5.0",
)

_VITAL_COLUMNS = ("DIA_GROW", "BA_GROW", "NETVOL_GROW", "BIO_GROW")

_VITAL_RATES_FAMILY = Family(
    name="vitalRates",
    type_sets=_GRM_EVALS,
    record_table="TREE",
    walker=_walk_vital_rates,
    components=tuple(ComponentSpec(n, "trees") for n in _VITAL_COLUMNS)
    + _area_comps(*(n + "_AC" for n in _VITAL_COLUMNS)),
    nplots=(("nPlots_TREE", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"treeDomain", "areaDomain", "bySpecies", "bySizeClass"}),
    base_domain="COMPONENT == 'SURVIVOR' & DIA >= 5.0 & PREVDIA > 0",
)

_DWM_FAMILY = Family(
    name="dwm",
    type_sets=_DWM_EVALS,
    record_table="COND_DWM_CALC",
    walker=_walk_dwm,
    components=_area_comps("VOL_ACRE", "BIO_ACRE", "CARB_ACRE"),
    nplots=(("nPlots_DWM", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"areaDomain", "tidy"}),
    family_group=GroupCol("FUEL_TYPE", "tree", "family", categorical=FUEL_TYPES),
    byplot_ok=False,
    wide=True,
)

_DIVERSITY_FAMILY = Family(
    name="diversity",
    type_sets=_VOL_EVALS,
    record_table="TREE",
    walker=_walk_diversity,
    components=_area_comps("H", "S", "Eh") + (ComponentSpec("_ABUND", "area"),),
    nplots=(("nPlots_TREE", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"treeDomain", "areaDomain", "bySizeClass", "basis"}),
    base_domain=_LIVE_GE_1,
)

_INVASIVE_FAMILY = Family(
    name="invasive",
    type_sets=_VOL_EVALS,
    record_table="INVASIVE_SUBPLOT_SPP",
    walker=_walk_invasive,
    components=_area_comps("COVER_PCT"),
    nplots=(("nPlots_INV", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"areaDomain"}),
    species_default=True,
    byplot_ok=False,
)

_SEEDLING_FAMILY = Family(
    name="seedling",
    type_sets=_VOL_EVALS,
    record_table="SEEDLING",
    walker=_walk_seedling,
    components=_area_comps("TPA"),
    nplots=(("nPlots_TREE", "num"), ("nPlots_AREA", "den")),
    supports=frozenset({"treeDomain", "areaDomain", "bySpecies"}),
)

_STAND_STRUCT_FAMILY = Family(
    name="standStruct",
    type_sets=_VOL_EVALS,
    record_table=None,
    walker=_walk_stand_struct,
    components=_area_comps("PERC_AREA"),
    nplots=(("nPlots", "den"),),
    supports=frozenset({"areaDomain", "tidy"}),
    family_group=GroupCol("STAGE", "tree", "family", categorical=STAGES),
    byplot_ok=False,
    wide=True,
)

FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        _TPA_FAMILY,
        _BIOMASS_FAMILY,
        _AREA_FAMILY,
        _GROW_MORT_FAMILY,
        _VITAL_RATES_FAMILY,
        _DWM_FAMILY,
        _DIVERSITY_FAMILY,
        _INVASIVE_FAMILY,
        _SEEDLING_FAMILY,
        _STAND_STRUCT_FAMILY,
    )
}


# --------------------------------------------------------------------------
# Request validation and plan construction.
# --------------------------------------------------------------------------


def _validate(fam: Family, req: EstimatorRequest) -> None:
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
    if req.return_spatial and req.polys is None:
        problems.append("spatial output needs polys")
    method = req.method.upper()
    if method not in METHODS:
        problems.append(
            f"unknown method {req.method!r} (choose from {', '.join(METHODS)})"
        )
    if method == "EMA":
        for lam in req.lambdas:
            if not 0.0 < float(lam) < 1.0:
                problems.append(f"lambda must be strictly between 0 and 1, got {lam}")
    if req.workers < 1:
        problems.append(f"workers must be at least 1, got {req.workers}")
    if req.board_feet and "boardFeet" not in fam.supports:
        problems.append(f"board-foot columns apply only to biomass, not {fam.name}")
    if req.basis != "BA" and "basis" not in fam.supports:
        problems.append(f"abundance basis applies only to diversity, not {fam.name}")
    if req.basis not in ("BA", "TPA"):
        problems.append(f"abundance basis must be BA or TPA, got {req.basis!r}")
    if problems:
        raise UsageError(problems)


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


def _build_plans(
    db: ForestDatabase, fam: Family, req: EstimatorRequest
) -> list[Plan]:
    kinds, layer_of = _namespace(db, fam.record_table)
    area_kinds, area_layers = _namespace(db, None)
    group_cols, species_on = _build_group_cols(fam, req, layer_of)

    tree_dom = bind_domain(req.tree_domain, kinds) if req.tree_domain else None
    area_dom = bind_domain(req.area_domain, area_kinds) if req.area_domain else None
    base_dom = bind_domain(fam.base_domain, kinds) if fam.base_domain else None

    decoration = None
    if species_on:
        decoration = {
            sp.spcd: (sp.common_name, sp.scientific_name) for sp in db.species
        }

    poly_assign = _assign_plots(db.plots, req.polys) if req.polys is not None else None

    comps = _components_for(fam, req)
    selectors: tuple[Callable, ...] = ()
    hidden: tuple[str, ...] = ()
    if fam.walker is _walk_trees:
        selectors = tuple(_TREE_SELECTORS[c.name] for c in comps)
    if fam.name == "diversity":
        selectors = (_TREE_SELECTORS["BAA" if req.basis == "BA" else "TPA"],)
        hidden = ("_ABUND",)

    plan = Plan(
        family=fam.name,
        components=comps,
        eval_plot=fam.walker,
        group_cols=group_cols,
        tree_domain=tree_dom,
        area_domain=area_dom,
        base_domain=base_dom,
        poly_assign=poly_assign,
        species_decoration=decoration,
        nplots_cols=fam.nplots,
        read=_make_reader(layer_of),
        read_area=_make_reader(area_layers),
        selectors=selectors,
        hidden_components=hidden,
        emit_variance=req.variance,
    )
    plans = [plan]

    if fam.name == "diversity":
        # Companion pass: species abundance totals feeding the pooled indices.
        sp_cols = group_cols + (GroupCol("SPCD", "tree", "species"),)
        plans.append(
            dataclasses.replace(
                plan,
                components=(ComponentSpec("_SP_ABUND", "none"),),
                eval_plot=_walk_trees,
                group_cols=sp_cols,
                species_decoration=None,
                nplots_cols=(),
            )
        )
    return plans


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
    for gc in plan.group_cols:
        cols.append(gc.name)
        if gc.origin == "species" and plan.species_decoration is not None:
            cols.extend(("COMMON_NAME", "SCIENTIFIC_NAME"))
    for comp in _visible_components(plan):
        cols.append(comp.name)
        cols.append(comp.name + "_SE")
        if req.variance:
            cols.append(comp.name + "_VAR")
    if fam.name == "diversity":
        cols.extend(("H_POOLED", "S_POOLED", "Eh_POOLED"))
    for label, _ in plan.nplots_cols:
        cols.append(label)
    return cols


def _diversity_rows(
    plans: Sequence[Plan], totals, year: int | None, lam: float | None
) -> list[dict]:
    tot_main, tot_sp = totals
    plan = plans[0]
    pooled: dict[tuple, list[float]] = {}
    for bk in tot_sp.universe:
        outer = bk[:-1]
        t = tot_sp.comp[bk][0].total
        pooled.setdefault(outer, []).append(max(t, 0.0))
    rows = rows_from_totals(plan, tot_main, year, lam)
    for gk, row in zip(tot_main.universe, rows):
        h, s, eh = _shannon(pooled.get(gk, ()))
        row["H_POOLED"] = h
        row["S_POOLED"] = s
        row["Eh_POOLED"] = eh
    return rows


def _assemble_rows(
    fam: Family, plans: Sequence[Plan], totals, year: int | None, lam: float | None
) -> list[dict]:
    if fam.name == "diversity":
        return _diversity_rows(plans, totals, year, lam)
    return rows_from_totals(plans[0], totals[0], year, lam)


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


def _by_plot_table(
    db: ForestDatabase, fam: Family, req: EstimatorRequest, plans: Sequence[Plan]
) -> EstimateTable:
    """Raw per-plot values: one row per plot visit (and group), no variance."""
    plan = plans[0]
    comp_names = list(
        fam.byplot_names
        or [c.name for c in _visible_components(plan)]
    )
    groups = select_family_evals(db, fam.type_sets, fam.name)
    rows: list[dict] = []
    seen: set[tuple] = set()
    for evals in groups:
        sample = build_sample(db, evals)
        for i, plot in enumerate(sample.plots):
            year = sample.panel_years.get(plot.cn, plot.invyr)
            if (plot.cn, year) in seen:
                continue
            seen.add((plot.cn, year))
            bundle = make_bundle(db, plan, sample, i)
            pc = plan.eval_plot(plan, bundle)
            keys = sorted(pc.num, key=lambda gk: tuple(repr(v) for v in gk))
            for gk in keys:
                row: dict[str, object] = {"YEAR": year, "PLT_CN": plot.cn}
                for gc, v in zip(plan.group_cols, gk):
                    row[gc.name] = v
                    if gc.origin == "species" and plan.species_decoration is not None:
                        names = plan.species_decoration.get(v, (None, None))
                        row["COMMON_NAME"], row["SCIENTIFIC_NAME"] = names
                values = pc.num[gk]
                for name, comp, value in zip(
                    comp_names, _visible_components(plan), values
                ):
                    if comp.den == "area":
                        den = pc.den_area.get(plan.area_projection(gk), 0.0)
                        row[name] = value / den if den > 0 else None
                    elif comp.den == "trees":
                        den = pc.den_tree.get(gk, 0.0)
                        row[name] = value / den if den > 0 else None
                    else:
                        row[name] = value
                row["nStems"] = pc.nrec.get(gk, 0)
                rows.append(row)
    rows.sort(
        key=lambda r: (
            r["YEAR"],
            r["PLT_CN"],
            tuple(repr(r.get(c.name)) for c in plan.group_cols),
        )
    )
    cols = ["YEAR", "PLT_CN"]
    for gc in plan.group_cols:
        cols.append(gc.name)
        if gc.origin == "species" and plan.species_decoration is not None:
            cols.extend(("COMMON_NAME", "SCIENTIFIC_NAME"))
    cols.extend(comp_names)
    cols.append("nStems")
    return EstimateTable(cols, rows)


# --------------------------------------------------------------------------
# The shared driver.
# --------------------------------------------------------------------------


def run_family(db: ForestDatabase, fam: Family, req: EstimatorRequest):
    """Validate a request, build plans, run the estimation, shape the output."""
    _validate(fam, req)
    plans = _build_plans(db, fam, req)
    if req.by_plot:
        return _by_plot_table(db, fam, req, plans)

    lambdas = normalize_lambdas(req.lambdas)
    rows: list[dict] = []
    for year, lam, totals in method_passes(
        db,
        plans,
        fam.type_sets,
        fam.name,
        req.method,
        lambdas=lambdas,
    ):
        rows.extend(_assemble_rows(fam, plans, totals, year, lam))
    rows.sort(key=lambda r: (r.get("lambda") or 0.0, r.get("YEAR") or 0))

    columns = _output_columns(fam, req, plans[0])
    if fam.wide and not req.tidy:
        columns, rows = _pivot_wide(fam, req, plans[0], columns, rows)
    table = EstimateTable(columns, rows)
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
    return run_family(db, _TPA_FAMILY, _request(request, kw))


def biomass(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Volume, biomass, and carbon per acre of forestland.

    Volumes are net cubic feet; biomass and carbon are short tons.  Pass
    ``board_feet=True`` for an extra sawlog column at 12 board feet per
    cubic foot.
    """
    return run_family(db, _BIOMASS_FAMILY, _request(request, kw))


def area(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Total forested acres (a total, not a per-acre ratio)."""
    return run_family(db, _AREA_FAMILY, _request(request, kw))


def grow_mort(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Annual recruitment, mortality, and harvest per acre (stems >= 5 inches).

    Needs a change evaluation; component expansions are divided by the plot
    remeasurement period.
    """
    return run_family(db, _GROW_MORT_FAMILY, _request(request, kw))


def vital_rates(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Annual growth of survivor trees, per tree and per acre."""
    return run_family(db, _VITAL_RATES_FAMILY, _request(request, kw))


def dwm(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Down woody material volume, biomass, and carbon per acre by fuel class."""
    return run_family(db, _DWM_FAMILY, _request(request, kw))


def diversity(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Shannon diversity, richness, and evenness of live stems.

    Stand-level columns are area-weighted means of per-plot indices; pooled
    columns recompute the indices from the estimated abundance totals.
    ``basis`` picks the abundance measure: "BA" (default) or "TPA".
    """
    return run_family(db, _DIVERSITY_FAMILY, _request(request, kw))


def invasive(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Percent cover by invasive species over protocol-sampled forest area."""
    return run_family(db, _INVASIVE_FAMILY, _request(request, kw))


def seedling(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Seedlings per acre from microplot counts."""
    return run_family(db, _SEEDLING_FAMILY, _request(request, kw))


def stand_struct(db: ForestDatabase, request: EstimatorRequest | None = None, **kw):
    """Percent of forested area in each structural stage.

    A condition's stage is the diameter class holding at least 67% of its
    live basal area (POLE < 11 in <= MATURE < 19 in <= LATE), else MOSAIC.
    Conditions with no live basal area have no stage and are excluded from
    both numerator and denominator, so percentages sum to 100.
    """
    return run_family(db, _STAND_STRUCT_FAMILY, _request(request, kw))
