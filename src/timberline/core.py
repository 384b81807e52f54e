"""Design-based, post-stratified estimation over inventory samples.

The estimator follows the classic two-stage shape.  Plot-level values roll
trees (or other records) up to one number per plot; stratum means combine
into estimation-unit totals using known stratum area weights; units sum to
the population.  For an estimation unit with area A, n sampled plots, and
strata h carrying weight W_h and n_h plots with sample mean ybar_h and
sample variance s2_h:

    total    Y = A * sum_h W_h * ybar_h
    variance v = (A^2 / n) * [ sum_h W_h * n_h * s2_h / n
                               + (1/n) * sum_h (1 - W_h) * (n_h/n) * s2_h ]

With one stratum this collapses to the simple-random-sampling form
v = A^2 * s2 / n.  Per-acre attributes are ratios of two such totals, with

    v(R) = (1/X^2) * [ v(Y) + R^2 * v(X) - 2 * R * cov(Y, X) ]

where the covariance combines per-stratum sample covariances exactly like
the variances.  Grouping uses domain indicators: group membership zeroes a
plot's value out of the numerator (and, for area-level groups, out of the
denominator) but never changes n, n_h, or the strata, which keeps group
totals exactly additive.

Multi-panel designs estimate each yearly panel separately and combine the
per-panel totals with the weights from :mod:`timberline.panels`; panels are
treated as independent samples, so combined variance is sum of w_p^2 * v_p.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import BoundDomain
from .errors import EstimationError
from .model import (
    Evaluation,
    ForestDatabase,
    PlotRecord,
    Stratum,
    record_value,
)
from .panels import (
    DEFAULT_LAMBDA,
    combine_totals,
    combine_variances,
    panel_weights,
    present_weights,
)

__all__ = [
    "TotalEstimate",
    "Sample",
    "build_sample",
    "post_stratified_total",
    "post_stratified_covariance",
    "ratio_estimate",
    "sampling_error_pct",
    "make_classes",
    "Plan",
    "GroupCol",
    "ComponentSpec",
    "PlotContribution",
    "Bundle",
    "PassTotals",
    "compute_pass",
    "combine_passes",
    "rows_from_totals",
    "method_passes",
    "select_family_evals",
    "group_report_year",
    "EstimateTable",
]

log = logging.getLogger("timberline.core")


@dataclass(frozen=True)
class TotalEstimate:
    """A population total with its variance and plot bookkeeping."""

    total: float
    variance: float
    n_nonzero: int
    n_plots: int


ZERO_TOTAL = TotalEstimate(0.0, 0.0, 0, 0)


@dataclass
class UnitSlice:
    cn: str
    area: float
    strata: list[tuple[Stratum, np.ndarray]]  # (stratum, plot index array)
    n: int


class Sample:
    """The plots of one evaluation group (optionally one panel), stratified.

    Plots are held in sorted CN order; every estimator walks them in this
    order, which is what makes output independent of worker count.
    """

    def __init__(self, plots: list[PlotRecord], units: list[UnitSlice],
                 stratum_of: dict[str, Stratum], panel_years: dict[str, int]):
        self.plots = plots
        self.units = units
        self.stratum_of = stratum_of
        self.panel_years = panel_years
        self.index = {p.cn: i for i, p in enumerate(plots)}

    @property
    def n_plots(self) -> int:
        return len(self.plots)


def build_sample(
    db: ForestDatabase,
    evals: Sequence[Evaluation],
    years: Iterable[int] | None = None,
) -> Sample:
    """Assemble the stratified sample for an evaluation group.

    ``years`` restricts to specific measurement panels (assignment INVYR,
    falling back to plot INVYR).  Assignments pointing at plots missing from
    the database are a hard error: a sampled plot the estimator cannot see
    would silently bias every mean.
    """
    year_set = set(years) if years is not None else None
    plots: dict[str, PlotRecord] = {}
    stratum_of: dict[str, Stratum] = {}
    panel_years: dict[str, int] = {}
    per_unit: dict[str, dict[str, list[str]]] = {}

    for ev in evals:
        for assgn in db.assignments_by_eval.get(ev.evalid, ()):
            stratum = db.stratum_by_cn.get(assgn.stratum_cn)
            if stratum is None:
                raise EstimationError(
                    f"assignment references unknown stratum {assgn.stratum_cn}"
                )
            plot = db.plot_by_cn.get(assgn.plt_cn)
            if plot is None:
                raise EstimationError(
                    f"evaluation {ev.evalid} assigns missing plot {assgn.plt_cn}"
                )
            year = assgn.invyr if assgn.invyr is not None else plot.invyr
            if year_set is not None and year not in year_set:
                continue
            plots[plot.cn] = plot
            stratum_of[plot.cn] = stratum
            panel_years[plot.cn] = year
            per_unit.setdefault(stratum.estn_unit_cn, {}).setdefault(
                stratum.cn, []
            ).append(plot.cn)

    ordered = sorted(plots.values(), key=lambda p: p.cn)
    index = {p.cn: i for i, p in enumerate(ordered)}

    units: list[UnitSlice] = []
    for ev in evals:
        for unit in db.units_by_eval.get(ev.evalid, ()):
            stratum_map = per_unit.get(unit.cn)
            if not stratum_map:
                log.warning(
                    "estimation unit %s has no sampled plots in this selection; skipped",
                    unit.cn,
                )
                continue
            if unit.area_used is None:
                raise EstimationError(f"estimation unit {unit.cn} lacks AREA_USED")
            strata = []
            for stratum in sorted(
                db.strata_by_unit.get(unit.cn, ()), key=lambda s: s.cn
            ):
                cns = stratum_map.get(stratum.cn, [])
                idx = np.array(sorted(index[cn] for cn in cns), dtype=np.intp)
                strata.append((stratum, idx))
            n = sum(len(idx) for _, idx in strata)
            units.append(UnitSlice(unit.cn, unit.area_used, strata, n))
    return Sample(ordered, units, stratum_of, panel_years)


def _unit_terms(unit: UnitSlice) -> list[tuple[Stratum, np.ndarray, float]]:
    """Present strata with weights renormalized when some have no plots."""
    present = [(st, idx) for st, idx in unit.strata if len(idx) > 0]
    dropped = len(unit.strata) - len(present)
    weights = []
    for st, _ in present:
        if st.weight is None:
            raise EstimationError(f"stratum {st.cn} lacks STRATUM_WGT")
        weights.append(st.weight)
    wsum = sum(weights)
    if wsum <= 0:
        raise EstimationError(f"estimation unit {unit.cn} has no positive stratum weight")
    if dropped:
        log.warning(
            "unit %s: %d stratum(s) with no plots in selection; weights renormalized",
            unit.cn, dropped,
        )
    return [(st, idx, w / wsum) for (st, idx), w in zip(present, weights)]


def post_stratified_total(values: np.ndarray, sample: Sample) -> TotalEstimate:
    """Estimate the population total of per-plot ``values`` (docstring formula)."""
    total = 0.0
    variance = 0.0
    for unit in sample.units:
        terms = _unit_terms(unit)
        n = sum(len(idx) for _, idx, _ in terms)
        acc = 0.0
        for st, idx, w in terms:
            vals = values[idx]
            n_h = len(idx)
            mean = float(vals.mean())
            if n_h > 1:
                s2 = float(vals.var(ddof=1))
            else:
                s2 = 0.0
                log.debug("stratum %s has a single plot; its variance term is 0", st.cn)
            total += unit.area * w * mean
            acc += (n_h / n) * s2 * (w + (1.0 - w) / n)
        variance += (unit.area ** 2 / n) * acc
    return TotalEstimate(
        total, variance, int(np.count_nonzero(values)), len(values)
    )


def post_stratified_covariance(x: np.ndarray, y: np.ndarray, sample: Sample) -> float:
    """Covariance of two totals over the same sample, combined like variances."""
    cov = 0.0
    for unit in sample.units:
        terms = _unit_terms(unit)
        n = sum(len(idx) for _, idx, _ in terms)
        acc = 0.0
        for _, idx, w in terms:
            n_h = len(idx)
            if n_h > 1:
                xv = x[idx]
                yv = y[idx]
                s_xy = float(((xv - xv.mean()) * (yv - yv.mean())).sum() / (n_h - 1))
            else:
                s_xy = 0.0
            acc += (n_h / n) * s_xy * (w + (1.0 - w) / n)
        cov += (unit.area ** 2 / n) * acc
    return cov


def ratio_estimate(
    num: TotalEstimate, den: TotalEstimate, cov: float
) -> tuple[float | None, float | None]:
    """Per-unit ratio of two totals with its linearized variance.

    A zero denominator yields (None, None): the cell exists but carries no
    estimate.  Floating-point cancellation can push the variance a hair
    negative when numerator and denominator are nearly proportional; within
    1e-9 of the term magnitudes it clamps to zero, beyond that it is an
    internal error.
    """
    if den.total == 0:
        return None, None
    r = num.total / den.total
    raw = num.variance + r * r * den.variance - 2.0 * r * cov
    if raw < 0.0:
        scale = num.variance + r * r * den.variance + 2.0 * abs(r * cov)
        if -raw <= 1e-9 * max(scale, 1.0):
            raw = 0.0
        else:
            raise EstimationError(
                f"ratio variance went negative ({raw!r}); inputs are inconsistent"
            )
    return r, raw / (den.total ** 2)


def sampling_error_pct(
    estimate: float | None, variance: float | None, n_nonzero: int
) -> float | None:
    """Relative standard error in percent; None when undefined.

    Present only when at least two plots carry a nonzero value and the
    estimate itself is nonzero; an exactly zero variance reports 0.0.
    """
    if estimate is None or variance is None:
        return None
    if n_nonzero < 2 or estimate == 0:
        return None
    if variance == 0:
        return 0.0
    return 100.0 * math.sqrt(variance) / abs(estimate)


def _fmt_class_number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def make_classes(value: float | None, width: float = 2.0, lower: float = 1.0) -> str | None:
    """Half-open class label for a continuous value, e.g. 6.3 -> "[5, 7)"."""
    if value is None:
        return None
    if width <= 0:
        raise EstimationError(f"class width must be positive, got {width}")
    if value < lower:
        return f"< {_fmt_class_number(lower)}"
    k = math.floor((value - lower) / width)
    a = lower + k * width
    return f"[{_fmt_class_number(a)}, {_fmt_class_number(a + width)})"


# --------------------------------------------------------------------------
# Plans: everything one estimation run needs, independent of the database.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupCol:
    """One output grouping column and where its values come from.

    ``level`` decides ratio semantics: "tree" columns restrict only the
    numerator (every group shares the full-domain denominator), "area"
    columns restrict numerator and denominator alike.  ``origin`` tells the
    plot walkers where to read the value.
    """

    name: str
    level: str  # "tree" | "area"
    origin: str  # "record" | "cond" | "plot" | "poly" | "species" | "sizeclass" | "family"
    categorical: tuple | None = None


@dataclass(frozen=True)
class ComponentSpec:
    name: str
    den: str  # "area" | "trees" | "none"


@dataclass
class Plan:
    family: str
    components: tuple[ComponentSpec, ...]
    eval_plot: Callable[["Plan", "Bundle"], "PlotContribution"]
    group_cols: tuple[GroupCol, ...] = ()
    tree_domain: BoundDomain | None = None
    area_domain: BoundDomain | None = None
    base_domain: BoundDomain | None = None
    size_class_width: float = 2.0
    size_class_lower: float = 1.0
    poly_assign: dict[str, object] | None = None
    species_decoration: dict[int, tuple[str | None, str | None]] | None = None
    nplots_cols: tuple[tuple[str, str], ...] = ()  # (label, "num" | "den")
    extra: dict = field(default_factory=dict)

    @property
    def area_positions(self) -> tuple[int, ...]:
        return tuple(
            i for i, col in enumerate(self.group_cols) if col.level == "area"
        )

    def area_projection(self, gk: tuple) -> tuple:
        return tuple(gk[i] for i in self.area_positions)


class PlotContribution:
    """Per-plot grouped values: numerators, denominators, record counts."""

    __slots__ = ("num", "den_area", "den_tree", "nrec")

    def __init__(self):
        self.num: dict[tuple, list[float]] = {}
        self.den_area: dict[tuple, float] = {}
        self.den_tree: dict[tuple, float] = {}
        self.nrec: dict[tuple, int] = {}

    def add_num(self, gk: tuple, idx: int, value: float, ncomp: int) -> None:
        row = self.num.get(gk)
        if row is None:
            row = [0.0] * ncomp
            self.num[gk] = row
        row[idx] += value
        self.nrec[gk] = self.nrec.get(gk, 0)

    def count_record(self, gk: tuple) -> None:
        self.nrec[gk] = self.nrec.get(gk, 0) + 1

    def add_den_area(self, ak: tuple, value: float) -> None:
        self.den_area[ak] = self.den_area.get(ak, 0.0) + value

    def add_den_tree(self, gk: tuple, value: float) -> None:
        self.den_tree[gk] = self.den_tree.get(gk, 0.0) + value


@dataclass
class Bundle:
    """Everything a plot walker may read for one plot."""

    plot: PlotRecord
    conds: list
    trees: list
    seedlings: list
    dwm: list
    invasives: list
    stratum: Stratum
    poly_fid: object | None
    panel_year: int | None
    cond_by_id: dict[int, object] = field(default_factory=dict)


def make_bundle(db: ForestDatabase, plan: Plan, sample: Sample, i: int) -> Bundle:
    plot = sample.plots[i]
    fid = None
    if plan.poly_assign is not None:
        fid = plan.poly_assign.get(plot.cn)
    conds = sorted(db.conds_by_plot.get(plot.cn, ()), key=lambda c: c.condid)
    return Bundle(
        plot=plot,
        conds=conds,
        trees=sorted(db.trees_by_plot.get(plot.cn, ()), key=lambda t: t.cn),
        seedlings=db.seedlings_by_plot.get(plot.cn, ()),
        dwm=db.dwm_by_plot.get(plot.cn, ()),
        invasives=db.invasives_by_plot.get(plot.cn, ()),
        stratum=sample.stratum_of[plot.cn],
        poly_fid=fid,
        panel_year=sample.panel_years.get(plot.cn),
        cond_by_id={c.condid: c for c in conds},
    )


def numerator_key(plan: Plan, bundle: Bundle, record, cond, family_value=None) -> tuple:
    """Full group key for a numerator record, in display column order."""
    vals = []
    for col in plan.group_cols:
        if col.origin == "record":
            v = record_value(record, col.name)
        elif col.origin == "cond":
            v = record_value(cond, col.name) if cond is not None else None
        elif col.origin == "plot":
            v = record_value(bundle.plot, col.name)
        elif col.origin == "poly":
            v = bundle.poly_fid
        elif col.origin == "species":
            v = getattr(record, "spcd", None)
        elif col.origin == "sizeclass":
            v = make_classes(
                getattr(record, "dia", None),
                plan.size_class_width,
                plan.size_class_lower,
            )
        else:  # "family": the walker supplies its own derived value
            v = family_value
        vals.append(v)
    return tuple(vals)


def area_key(plan: Plan, bundle: Bundle, cond) -> tuple:
    """Area-level projection of the group key, for denominator bookkeeping."""
    vals = []
    for col in plan.group_cols:
        if col.level != "area":
            continue
        if col.origin == "cond":
            vals.append(record_value(cond, col.name) if cond is not None else None)
        elif col.origin == "plot":
            vals.append(record_value(bundle.plot, col.name))
        elif col.origin == "poly":
            vals.append(bundle.poly_fid)
        else:
            vals.append(None)
    return tuple(vals)


# --------------------------------------------------------------------------
# Pass computation: map plots (possibly in parallel), reduce in plot order.
# --------------------------------------------------------------------------

_FORK_STATE: tuple | None = None


def _run_chunk(bounds: tuple[int, int]) -> list[PlotContribution]:
    db, plan, sample = _FORK_STATE  # type: ignore[misc]
    lo, hi = bounds
    return [plan.eval_plot(plan, make_bundle(db, plan, sample, i)) for i in range(lo, hi)]


def _map_plots(
    db: ForestDatabase, plan: Plan, sample: Sample, workers: int
) -> list[PlotContribution]:
    n = len(sample.plots)
    if workers <= 1 or n < 2:
        return [
            plan.eval_plot(plan, make_bundle(db, plan, sample, i)) for i in range(n)
        ]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        log.warning("fork start method unavailable; computing plots serially")
        return _map_plots(db, plan, sample, 1)
    global _FORK_STATE
    chunk = max(1, math.ceil(n / (workers * 4)))
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    _FORK_STATE = (db, plan, sample)
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            parts = list(pool.map(_run_chunk, bounds))
    finally:
        _FORK_STATE = None
    out: list[PlotContribution] = []
    for part in parts:
        out.extend(part)
    return out


@dataclass
class PassTotals:
    """Stratified totals of one pass, keyed by group."""

    universe: list[tuple]
    comp: dict[tuple, list[TotalEstimate]]
    cov: dict[tuple, list[float]]
    den_area: dict[tuple, TotalEstimate]
    den_tree: dict[tuple, TotalEstimate]
    num_plots_nonzero: dict[tuple, int]
    n_plots: int


def compute_pass(
    db: ForestDatabase, plan: Plan, sample: Sample, workers: int = 1
) -> PassTotals:
    """Run one full estimation pass over a sample."""
    contribs = _map_plots(db, plan, sample, workers)
    n = sample.n_plots
    ncomp = len(plan.components)

    num_arrays: dict[tuple, np.ndarray] = {}
    den_area_arrays: dict[tuple, np.ndarray] = {}
    den_tree_arrays: dict[tuple, np.ndarray] = {}
    for i, pc in enumerate(contribs):
        for gk, values in pc.num.items():
            arr = num_arrays.get(gk)
            if arr is None:
                arr = np.zeros((ncomp, n))
                num_arrays[gk] = arr
            arr[:, i] = values
        for ak, value in pc.den_area.items():
            arr = den_area_arrays.get(ak)
            if arr is None:
                arr = np.zeros(n)
                den_area_arrays[ak] = arr
            arr[i] += value
        for gk, value in pc.den_tree.items():
            arr = den_tree_arrays.get(gk)
            if arr is None:
                arr = np.zeros(n)
                den_tree_arrays[gk] = arr
            arr[i] += value

    universe = sorted(num_arrays, key=_group_sort_key(plan))
    den_area_totals = {
        ak: post_stratified_total(arr, sample) for ak, arr in den_area_arrays.items()
    }
    den_tree_totals = {
        gk: post_stratified_total(arr, sample) for gk, arr in den_tree_arrays.items()
    }

    comp_totals: dict[tuple, list[TotalEstimate]] = {}
    covs: dict[tuple, list[float]] = {}
    nonzero_plots: dict[tuple, int] = {}
    zeros = np.zeros(n)
    for gk in universe:
        arr = num_arrays[gk]
        totals = []
        cov_row = []
        for ci, comp in enumerate(plan.components):
            values = arr[ci]
            totals.append(post_stratified_total(values, sample))
            if comp.den == "area":
                den_arr = den_area_arrays.get(plan.area_projection(gk), zeros)
                cov_row.append(post_stratified_covariance(values, den_arr, sample))
            elif comp.den == "trees":
                den_arr = den_tree_arrays.get(gk, zeros)
                cov_row.append(post_stratified_covariance(values, den_arr, sample))
            else:
                cov_row.append(0.0)
        comp_totals[gk] = totals
        covs[gk] = cov_row
        nonzero_plots[gk] = int(np.count_nonzero(arr.any(axis=0)))
    return PassTotals(
        universe=universe,
        comp=comp_totals,
        cov=covs,
        den_area=den_area_totals,
        den_tree=den_tree_totals,
        num_plots_nonzero=nonzero_plots,
        n_plots=n,
    )


def _combine_totals_list(
    totals: Sequence[TotalEstimate], weights: Sequence[float]
) -> TotalEstimate:
    return TotalEstimate(
        total=combine_totals([t.total for t in totals], weights),
        variance=combine_variances([t.variance for t in totals], weights),
        n_nonzero=sum(t.n_nonzero for t in totals),
        n_plots=sum(t.n_plots for t in totals),
    )


def combine_passes(
    plan: Plan, passes: Sequence[PassTotals], weights: Sequence[float]
) -> PassTotals:
    """Weighted combination of per-panel totals into one set of totals.

    A group absent from a panel contributes an exact zero total with zero
    variance for that panel (its plots all observed zero).
    """
    ncomp = len(plan.components)
    universe_set: set[tuple] = set()
    for pt in passes:
        universe_set.update(pt.universe)
    universe = sorted(universe_set, key=_group_sort_key(plan))

    def zero_like(pt: PassTotals) -> TotalEstimate:
        return TotalEstimate(0.0, 0.0, 0, pt.n_plots)

    comp: dict[tuple, list[TotalEstimate]] = {}
    cov: dict[tuple, list[float]] = {}
    nonzero: dict[tuple, int] = {}
    for gk in universe:
        per_comp = []
        per_cov = []
        for ci in range(ncomp):
            totals = [
                pt.comp[gk][ci] if gk in pt.comp else zero_like(pt) for pt in passes
            ]
            per_comp.append(_combine_totals_list(totals, weights))
            per_cov.append(
                combine_variances(
                    [pt.cov[gk][ci] if gk in pt.cov else 0.0 for pt in passes],
                    weights,
                )
            )
        comp[gk] = per_comp
        cov[gk] = per_cov
        nonzero[gk] = sum(pt.num_plots_nonzero.get(gk, 0) for pt in passes)

    den_keys = {k for pt in passes for k in pt.den_area}
    den_area = {
        ak: _combine_totals_list(
            [pt.den_area.get(ak, zero_like(pt)) for pt in passes], weights
        )
        for ak in den_keys
    }
    den_tree_keys = {k for pt in passes for k in pt.den_tree}
    den_tree = {
        gk: _combine_totals_list(
            [pt.den_tree.get(gk, zero_like(pt)) for pt in passes], weights
        )
        for gk in den_tree_keys
    }
    return PassTotals(
        universe=universe,
        comp=comp,
        cov=cov,
        den_area=den_area,
        den_tree=den_tree,
        num_plots_nonzero=nonzero,
        n_plots=sum(pt.n_plots for pt in passes),
    )


def _class_lower_bound(label: str) -> float | None:
    """Numeric sort key for interval labels like "[5, 7)" or "< 1"."""
    try:
        if label.startswith("[") and "," in label:
            return float(label[1 : label.index(",")])
        if label.startswith("< "):
            return -math.inf
    except ValueError:
        return None
    return None


def _group_sort_key(plan: Plan):
    cols = plan.group_cols

    def value_key(col: GroupCol, v):
        if v is None:
            return (3, 0)
        if col.categorical is not None and v in col.categorical:
            return (0, col.categorical.index(v))
        if col.origin == "sizeclass" and isinstance(v, str):
            bound = _class_lower_bound(v)
            if bound is not None:
                return (1, bound)
        if isinstance(v, bool):
            return (1, float(v))
        if isinstance(v, (int, float)):
            return (1, float(v))
        return (2, str(v))

    def key(gk: tuple):
        return tuple(value_key(col, v) for col, v in zip(cols, gk))

    return key


def rows_from_totals(
    plan: Plan, totals: PassTotals, year: int | None, lam: float | None
) -> list[dict]:
    """Render one pass (or combined pass) into output rows."""
    rows = []
    emit_var = bool(plan.extra.get("emit_variance"))
    hidden = plan.extra.get("hidden_components", ())
    for gk in totals.universe:
        row: dict[str, object] = {}
        if lam is not None:
            row["lambda"] = lam
        row["YEAR"] = year
        for col, v in zip(plan.group_cols, gk):
            row[col.name] = v
            if col.origin == "species" and plan.species_decoration is not None:
                names = plan.species_decoration.get(v, (None, None))
                row["COMMON_NAME"], row["SCIENTIFIC_NAME"] = names
        den_area = totals.den_area.get(plan.area_projection(gk), ZERO_TOTAL)
        for ci, comp in enumerate(plan.components):
            if comp.name in hidden:
                continue
            num = totals.comp[gk][ci]
            if comp.den == "none":
                est: float | None = num.total
                var: float | None = num.variance
            else:
                den = (
                    den_area
                    if comp.den == "area"
                    else totals.den_tree.get(gk, ZERO_TOTAL)
                )
                est, var = ratio_estimate(num, den, totals.cov[gk][ci])
            row[comp.name] = est
            row[comp.name + "_SE"] = sampling_error_pct(est, var, num.n_nonzero)
            if emit_var:
                row[comp.name + "_VAR"] = var
        for label, kind in plan.nplots_cols:
            if kind == "num":
                row[label] = totals.num_plots_nonzero.get(gk, 0)
            else:
                row[label] = den_area.n_nonzero
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Evaluation selection and the method-level driver.
# --------------------------------------------------------------------------


def _eval_type(ev: Evaluation) -> str:
    return ev.eval_typ if ev.eval_typ is not None else "VOL"


def select_family_evals(
    db: ForestDatabase, type_sets: Sequence[frozenset[str]], family: str
) -> list[list[Evaluation]]:
    """Evaluations usable by a family, grouped by report year.

    ``type_sets`` is tried in preference order; the first set with matches
    wins (e.g. down-woody estimates prefer a DWM evaluation but fall back to
    VOL).  Raises when nothing matches, naming the types that are present.
    """
    chosen: list[Evaluation] = []
    for types in type_sets:
        chosen = [e for e in db.evaluations if _eval_type(e) in types]
        if chosen:
            break
    if not chosen:
        present = sorted({_eval_type(e) for e in db.evaluations})
        wanted = " or ".join(sorted(set().union(*type_sets)))
        raise EstimationError(
            f"{family} needs a {wanted} evaluation; database has "
            f"{', '.join(present) if present else 'no evaluations'}"
        )
    groups: dict[int, list[Evaluation]] = {}
    for ev in sorted(chosen, key=lambda e: (e.report_year or 0, e.statecd or 0, e.evalid)):
        groups.setdefault(group_report_year([ev]), []).append(ev)
    return [groups[y] for y in sorted(groups)]


def group_report_year(evals: Sequence[Evaluation]) -> int:
    years = [e.report_year for e in evals if e.report_year is not None]
    if years:
        return max(years)
    ends = [e.end_invyr for e in evals if e.end_invyr is not None]
    if ends:
        return max(ends)
    raise EstimationError(
        f"evaluation {evals[0].evalid} has neither REPORT_YEAR nor END_INVYR"
    )


def _most_recent_groups(
    groups: list[list[Evaluation]],
) -> list[list[Evaluation]]:
    """Per state, keep only the evaluation(s) of the latest report year."""
    latest: dict[int | None, int] = {}
    for group in groups:
        year = group_report_year(group)
        for ev in group:
            st = ev.statecd
            if st not in latest or year > latest[st]:
                latest[st] = year
    kept: list[list[Evaluation]] = []
    for group in groups:
        year = group_report_year(group)
        subset = [ev for ev in group if latest.get(ev.statecd) == year]
        if subset:
            kept.append(subset)
    return kept


def _panel_years(db: ForestDatabase, evals: Sequence[Evaluation]) -> list[int]:
    """The panel-year axis of an evaluation group.

    START_INVYR..END_INVYR define the intended panels when present, so a
    panel nobody measured still shows up (and triggers weight
    renormalization); otherwise the observed assignment years stand in.
    """
    years: set[int] = set()
    observed: set[int] = set()
    for ev in evals:
        if ev.start_invyr is not None and ev.end_invyr is not None:
            years.update(range(ev.start_invyr, ev.end_invyr + 1))
        for assgn in db.assignments_by_eval.get(ev.evalid, ()):
            if assgn.invyr is not None:
                observed.add(assgn.invyr)
            else:
                plot = db.plot_by_cn.get(assgn.plt_cn)
                if plot is not None:
                    observed.add(plot.invyr)
    if not years:
        years = observed
    if not years:
        raise EstimationError(
            f"evaluation {evals[0].evalid} has no panel years (no assignments)"
        )
    return sorted(years)


def method_passes(
    db: ForestDatabase,
    plans: Sequence[Plan],
    type_sets: Sequence[frozenset[str]],
    family: str,
    method: str,
    lambdas: Sequence[float] = (DEFAULT_LAMBDA,),
    workers: int = 1,
):
    """Yield (year, lambda-or-None, [PassTotals per plan]) for output rows.

    TI pools all panels of each evaluation group into one pass.  ANNUAL
    estimates each observed panel of the most recent evaluation per state.
    The moving averages estimate every panel, then combine with the method's
    weights; EMA repeats the combination for each requested lambda.
    """
    method = method.upper()
    groups = select_family_evals(db, type_sets, family)
    if method == "TI":
        for evals in groups:
            sample = build_sample(db, evals)
            yield (
                group_report_year(evals),
                None,
                [compute_pass(db, plan, sample, workers) for plan in plans],
            )
        return
    if method == "ANNUAL":
        for evals in _most_recent_groups(groups):
            for year in _panel_years(db, evals):
                sample = build_sample(db, evals, years=[year])
                if sample.n_plots == 0:
                    continue
                yield (
                    year,
                    None,
                    [compute_pass(db, plan, sample, workers) for plan in plans],
                )
        return
    for evals in groups:
        years = _panel_years(db, evals)
        per_panel: list[list[PassTotals] | None] = []
        for year in years:
            sample = build_sample(db, evals, years=[year])
            if sample.n_plots == 0:
                per_panel.append(None)
            else:
                per_panel.append(
                    [compute_pass(db, plan, sample, workers) for plan in plans]
                )
        present = [p is not None for p in per_panel]
        report_year = group_report_year(evals)
        lam_list: Sequence[float | None]
        lam_list = list(lambdas) if method == "EMA" else [None]
        for lam in lam_list:
            weights = panel_weights(method, len(years), lam)
            assert weights is not None
            weights = present_weights(weights, present)
            combined = []
            for pi in range(len(plans)):
                passes = [p[pi] for p in per_panel if p is not None]
                kept_weights = [w for w, ok in zip(weights, present) if ok]
                combined.append(combine_passes(plans[pi], passes, kept_weights))
            yield report_year, lam, combined


# --------------------------------------------------------------------------
# Output table
# --------------------------------------------------------------------------


class EstimateTable:
    """Ordered columns plus one dict per output row (missing cells -> None)."""

    def __init__(self, columns: Sequence[str], rows: list[dict]):
        self.columns = list(columns)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def cell(self, row: int, name: str):
        return self.rows[row].get(name)
