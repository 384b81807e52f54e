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

One columnar pass per sample computes all of it.  A :class:`Plan` holds
each variable (numerator, area denominator, tree denominator) as
:class:`Records`: the rows inside every domain, over the whole database,
with their plot, group-key code, weight and value columns.  Per sample,
:func:`make_bundle` gathers the rows on the sample's plots, multiplies in
each plot's stratum adjustment factor and sums them per (group, plot) with
``np.bincount`` into :class:`Entries`.  :class:`_Strata` holds each
stratum's constants (n_h, A * W_h and the variance weight) and
:class:`_Cells` sums entries per (group, stratum) cell, so one call gets
the totals, variances and covariances of every group and component.
:func:`post_stratified_total` and :func:`post_stratified_covariance` are
one-series wrappers over the same kernel.

Multi-panel designs estimate each yearly panel separately and combine the
per-panel totals with the weights from :mod:`timberline.panels`; panels are
treated as independent samples, so combined variance is sum of w_p^2 * v_p.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EstimationError
from .model import (
    MACROPLOT,
    MICROPLOT,
    SUBPLOT,
    Evaluation,
    ForestDatabase,
    PlotRecord,
    Stratum,
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
    "Records",
    "Note",
    "Entries",
    "Bundle",
    "make_bundle",
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


@dataclass
class Sample:
    """The plots of one evaluation group (optionally one panel), stratified.

    Plots are held in sorted CN order; every estimator walks them in this
    order, which is what makes output independent of record order.
    """

    plots: list[PlotRecord]
    units: list[UnitSlice]
    stratum_of: dict[str, Stratum]
    panel_years: dict[str, int]

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
    would silently bias every mean.  So is a plot assigned more than once
    in one evaluation, which would count it twice in n and n_h.
    """
    year_set = set(years) if years is not None else None
    plots: dict[str, PlotRecord] = {}
    stratum_of: dict[str, Stratum] = {}
    panel_years: dict[str, int] = {}
    per_unit: dict[str, dict[str, list[str]]] = {}

    for ev in evals:
        assignments = db.assignments_by_eval.get(ev.evalid, ())
        assigned: set[str] = set()
        for assgn in assignments:
            if assgn.plt_cn in assigned:
                strata = [a.stratum_cn for a in assignments if a.plt_cn == assgn.plt_cn]
                raise EstimationError(
                    f"evaluation {ev.evalid} assigns plot {assgn.plt_cn} more than once "
                    f"(strata {', '.join(strata)}); a plot needs one stratum per evaluation"
                )
            assigned.add(assgn.plt_cn)
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


class _Strata:
    """A sample's strata: plot memberships and the estimator's constants.

    Strata are numbered in unit order, then in stratum order.  Stratum h
    carries n_h, its total weight A * W_h and its variance weight, which
    turns a sum of squared deviations into the stratum's share of the
    variance.  A plot sits in one stratum per evaluation; overlapping
    evaluations can put it in several, and each membership counts.
    """

    def __init__(self, sample: Sample):
        members, sizes, area_w, var_w = [], [], [], []
        for unit in sample.units:
            terms = _unit_terms(unit)
            n = sum(len(idx) for _, idx, _ in terms)
            for st, idx, w in terms:
                n_h = len(idx)
                if n_h == 1:
                    log.debug("stratum %s has a single plot; its variance term is 0", st.cn)
                members.append(idx)
                sizes.append(n_h)
                area_w.append(unit.area * w)
                var_w.append(
                    unit.area ** 2 / n * (n_h / n) * (w + (1.0 - w) / n) / (n_h - 1)
                    if n_h > 1 else 0.0
                )
        self.n_plots, self.n_strata = sample.n_plots, len(sizes)
        self.n_h = np.array(sizes, dtype=float)
        self.area_w, self.var_w = np.array(area_w), np.array(var_w)
        plot = np.concatenate(members) if members else np.zeros(0, dtype=np.intp)
        order = np.argsort(plot, kind="stable")
        self._stratum = np.repeat(np.arange(self.n_strata), sizes)[order]
        self._count = np.bincount(plot, minlength=self.n_plots)
        self._first = np.cumsum(self._count) - self._count

    def expand(self, plot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entry, stratum) pairs, one per stratum membership of each entry's plot."""
        reps = self._count[plot]
        entry = np.repeat(np.arange(len(plot)), reps)
        within = np.arange(len(entry)) - np.repeat(np.cumsum(reps) - reps, reps)
        return entry, self._stratum[self._first[plot[entry]] + within]


class _Cells:
    """One variable's entries, summed per (key, stratum) cell.

    Entries are (key, plot, row of values) with at most one per (key, plot);
    a plot without an entry holds zeros.  Cell sums take one ``np.bincount``
    per column over ``key * H + stratum``, which totals every key at once.
    """

    def __init__(self, strata: _Strata, key: np.ndarray, plot: np.ndarray,
                 values: np.ndarray, n_keys: int):
        self.strata, self.n_keys = strata, n_keys
        self.nonzero = np.column_stack(
            [np.bincount(key, col != 0, minlength=n_keys) for col in values.T]
        ).astype(int)
        self.any_nonzero = np.bincount(key, (values != 0).any(axis=1), minlength=n_keys)
        entry, self.stratum = strata.expand(plot)
        self.key, self.plot, self.x = key[entry], plot[entry], values[entry]
        self.cell = self.key * strata.n_strata + self.stratum
        n_h = np.tile(strata.n_h, n_keys)
        self.absent = n_h - np.bincount(self.cell, minlength=len(n_h))
        self.mean = self._sum(self.x) / n_h[:, None]

    def _sum(self, per_entry: np.ndarray) -> np.ndarray:
        size = self.n_keys * self.strata.n_strata
        return np.column_stack(
            [np.bincount(self.cell, col, minlength=size) for col in per_entry.T]
        )

    def _over_strata(self, per_cell: np.ndarray, weights: np.ndarray) -> np.ndarray:
        shaped = per_cell.reshape(self.n_keys, self.strata.n_strata, per_cell.shape[1])
        return (shaped * weights[:, None]).sum(axis=1)

    def estimates(self) -> list[list[TotalEstimate]]:
        """One TotalEstimate per key and column.

        Per cell, the sum of (x - xbar)^2 over all n_h plots is the sum over
        the entries plus (n_h - entries) * xbar^2 for the plots without one.
        """
        dev = self.x - self.mean[self.cell]
        squares = self._sum(dev * dev) + self.absent[:, None] * self.mean ** 2
        rows = zip(
            self._over_strata(self.mean, self.strata.area_w).tolist(),
            self._over_strata(squares, self.strata.var_w).tolist(),
            self.nonzero.tolist(),
        )
        n = self.strata.n_plots
        return [[TotalEstimate(t, v, z, n) for t, v, z in zip(*row)] for row in rows]

    def covariances(self, y: np.ndarray, y_mean: np.ndarray) -> np.ndarray:
        """Covariances with another variable's totals, keys x columns.

        ``y`` and ``y_mean`` are that variable's plot value and stratum mean
        at each expanded entry.  Per cell, the sum of (x - xbar)(y - ybar) is
        the sum of x (y - ybar) over the entries, as y's deviations sum to 0.
        """
        products = self._sum(self.x * (y - y_mean)[:, None])
        return self._over_strata(products, self.strata.var_w)

    def mean_at(self, key: np.ndarray, stratum: np.ndarray) -> np.ndarray:
        """Column-0 stratum mean at each (key, stratum); 0 for a negative key."""
        if not self.n_keys:
            return np.zeros(len(key))
        cell = np.where(key >= 0, key, 0) * self.strata.n_strata + stratum
        return np.where(key >= 0, self.mean[cell, 0], 0.0)


def _series(values: np.ndarray, strata: _Strata) -> _Cells:
    n = len(values)
    return _Cells(strata, np.zeros(n, dtype=np.intp), np.arange(n), values[:, None], 1)


def post_stratified_total(values: np.ndarray, sample: Sample) -> TotalEstimate:
    """Estimate the population total of per-plot ``values`` (docstring formula)."""
    return _series(values, _Strata(sample)).estimates()[0][0]


def post_stratified_covariance(x: np.ndarray, y: np.ndarray, sample: Sample) -> float:
    """Covariance of two totals over the same sample, combined like variances."""
    strata = _Strata(sample)
    xc, yc = _series(x, strata), _series(y, strata)
    return float(xc.covariances(y[xc.plot], yc.mean[xc.cell, 0])[0, 0])


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
# Plans: everything one estimation run needs, its rows already selected.
# --------------------------------------------------------------------------

# Size classes in the order of a row's ``Records.adjust`` code.
ADJUST_CLASSES = (SUBPLOT, MICROPLOT, MACROPLOT)


@dataclass(frozen=True)
class GroupCol:
    """One output grouping column and where its values come from.

    ``level`` decides ratio semantics: "tree" columns restrict only the
    numerator (every group shares the full-domain denominator), "area"
    columns restrict numerator and denominator alike.  ``origin`` tells the
    family's value table where to read the value.
    """

    name: str
    level: str  # "tree" | "area"
    origin: str  # "record" | "cond" | "plot" | "poly" | "species" | "sizeclass" | "family"
    categorical: tuple | None = None


@dataclass(frozen=True)
class ComponentSpec:
    name: str
    den: str  # "area" | "trees" | "none"


@dataclass(frozen=True)
class Records:
    """One variable's rows over the whole database, independent of samples.

    Rows are the records (or conditions) inside every domain, in walk
    order: plot CN, then the table's order within a plot.  Row r sits on
    ``db.plots[plot[r]]`` under the group key ``keys[key[r]]``.  In a sample
    it adds ``weight[r] * factor * values[r]``, where factor is its plot's
    stratum adjustment for size class ``ADJUST_CLASSES[adjust[r]]``.
    """

    plot: np.ndarray
    key: np.ndarray
    keys: list[tuple]
    weight: np.ndarray
    values: np.ndarray  # rows x columns
    adjust: np.ndarray


@dataclass(frozen=True)
class Note:
    """A per-pass log line counting the sample's flagged plots (or conditions)."""

    level: int
    message: str  # formatted with the count
    plots: np.ndarray  # db plot row of each flagged item


@dataclass
class Plan:
    family: str
    components: tuple[ComponentSpec, ...]
    num: Records
    group_cols: tuple[GroupCol, ...] = ()
    den_area: Records | None = None
    den_tree: Records | None = None
    reduce: Callable[["Bundle"], np.ndarray] | None = None  # per-entry values (diversity)
    notes: tuple[Note, ...] = ()
    species_decoration: dict[int, tuple[str | None, str | None]] | None = None
    nplots_cols: tuple[tuple[str, str], ...] = ()  # (label, "num" | "den")
    hidden_components: tuple[str, ...] = ()
    emit_variance: bool = False

    @property
    def area_positions(self) -> tuple[int, ...]:
        return tuple(
            i for i, col in enumerate(self.group_cols) if col.level == "area"
        )

    def area_projection(self, gk: tuple) -> tuple:
        return tuple(gk[i] for i in self.area_positions)


# --------------------------------------------------------------------------
# Pass computation: gather one sample's rows into (key, plot) entries, then
# total every group and component in one call of the stratified kernel.
# --------------------------------------------------------------------------


@dataclass
class Entries:
    """One variable's sample rows summed per (key, plot), sorted by key then plot.

    Only (key, plot) pairs with at least one row are present.  ``rows``,
    ``entry`` and ``expand`` describe the gathered rows themselves: their
    index in :class:`Records`, their entry and their weight times factor.
    """

    keys: list[tuple]  # group key of each local key
    key: np.ndarray
    plot: np.ndarray  # sample plot index
    values: np.ndarray  # entries x columns
    count: np.ndarray  # rows per entry
    n_plots: int
    rows: np.ndarray
    entry: np.ndarray
    expand: np.ndarray

    def cells(self, strata: _Strata) -> _Cells:
        return _Cells(strata, self.key, self.plot, self.values, len(self.keys))

    def at(self, key: np.ndarray, plot: np.ndarray) -> np.ndarray:
        """Column-0 value at each (key, plot); 0 for a negative key or no entry."""
        if not len(self.key):
            return np.zeros(len(key))
        code = self.key * self.n_plots + self.plot
        want = key * self.n_plots + plot
        pos = np.minimum(np.searchsorted(code, want), len(code) - 1)
        return np.where((key >= 0) & (code[pos] == want), self.values[pos, 0], 0.0)


@dataclass
class Bundle:
    """One sample's entries, and each numerator key's denominator keys (-1: none)."""

    num: Entries
    den_area: Entries
    den_tree: Entries
    area_of: np.ndarray
    tree_of: np.ndarray


def _gather(rec: Records | None, pos: np.ndarray, factors: np.ndarray, width: int) -> Entries:
    """The rows of ``rec`` on sample plots, summed per (key, plot) in row order."""
    n = len(factors)
    if rec is None:
        none = np.zeros(0, dtype=np.intp)
        return Entries([], none, none, np.zeros((0, width)), none, n, none, none, np.zeros(0))
    plot = pos[rec.plot]
    rows = np.flatnonzero(plot >= 0)
    plot = plot[rows]
    expand = rec.weight[rows] * factors[plot, rec.adjust[rows]]
    x = expand[:, None] * rec.values[rows]
    cell, entry = np.unique(rec.key[rows] * n + plot, return_inverse=True)
    present, key = np.unique(cell // n, return_inverse=True)
    values = np.column_stack(
        [np.bincount(entry, col, minlength=len(cell)) for col in x.T]
    ).reshape(len(cell), x.shape[1])
    return Entries([rec.keys[k] for k in present.tolist()], key, cell % n, values,
                   np.bincount(entry, minlength=len(cell)), n, rows, entry, expand)


def make_bundle(db: ForestDatabase, plan: Plan, sample: Sample) -> Bundle:
    """Gather one sample's rows of every variable of a plan into entries.

    Each plan note logs one line with the number of its items in the sample.
    """
    pos = np.full(len(db.plots) + 1, -1, dtype=np.intp)  # slot -1: rows without a plot
    rows = np.array([db.columns.plot_row[p.cn] for p in sample.plots], dtype=np.intp)
    pos[rows] = np.arange(sample.n_plots)
    by_stratum = {
        st.cn: [st.adjustment(c) for c in ADJUST_CLASSES] for st in sample.stratum_of.values()
    }
    factors = np.array(
        [by_stratum[sample.stratum_of[p.cn].cn] for p in sample.plots], dtype=float
    ).reshape(sample.n_plots, len(ADJUST_CLASSES))
    for note in plan.notes:
        count = int(np.count_nonzero(pos[note.plots] >= 0))
        if count:
            log.log(note.level, note.message, count)
    num = _gather(plan.num, pos, factors, len(plan.components))
    den_area = _gather(plan.den_area, pos, factors, 1)
    den_tree = _gather(plan.den_tree, pos, factors, 1)
    area_index, tree_index = ({gk: i for i, gk in enumerate(e.keys)} for e in (den_area, den_tree))
    bundle = Bundle(
        num, den_area, den_tree,
        np.array([area_index.get(plan.area_projection(gk), -1) for gk in num.keys], dtype=np.intp),
        np.array([tree_index.get(gk, -1) for gk in num.keys], dtype=np.intp),
    )
    if plan.reduce is not None:
        num.values = plan.reduce(bundle)
    return bundle


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


def compute_pass(db: ForestDatabase, plan: Plan, sample: Sample) -> PassTotals:
    """Run one full estimation pass over a sample.

    The sample's rows become entries, one per (group, plot) with rows; the
    stratified kernel then totals every group and component at once.
    """
    n = sample.n_plots
    bundle = make_bundle(db, plan, sample)
    num, den_area, den_tree = bundle.num, bundle.den_area, bundle.den_tree
    if not (num.keys or den_area.keys or den_tree.keys):
        return PassTotals([], {}, {}, {}, {}, {}, n)  # no totals, so no stratum checks

    strata = _Strata(sample)
    x = num.cells(strata)
    covs, dens = [], []
    for entries, den_of in ((den_area, bundle.area_of), (den_tree, bundle.tree_of)):
        cells, key = entries.cells(strata), den_of[x.key]
        covs.append(x.covariances(entries.at(key, x.plot), cells.mean_at(key, x.stratum)))
        dens.append(dict(zip(entries.keys, (e[0] for e in cells.estimates()))))
    den = np.array([c.den for c in plan.components])
    cov = np.where(den == "area", covs[0], np.where(den == "trees", covs[1], 0.0)).tolist()
    return PassTotals(
        universe=sorted(num.keys, key=_group_sort_key(plan)),
        comp=dict(zip(num.keys, x.estimates())),
        cov=dict(zip(num.keys, cov)),
        den_area=dens[0],
        den_tree=dens[1],
        num_plots_nonzero=dict(zip(num.keys, x.any_nonzero.astype(int).tolist())),
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
    universe = sorted({gk for pt in passes for gk in pt.universe}, key=_group_sort_key(plan))
    columns = range(len(plan.components))

    def mix(name: str, pick) -> dict:
        """One combined entry per key of the ``name`` dicts of the passes."""
        keys = {k for pt in passes for k in getattr(pt, name)}
        return {k: pick([getattr(pt, name).get(k) for pt in passes]) for k in keys}

    def total(found: list) -> TotalEstimate:
        return _combine_totals_list([
            t or TotalEstimate(0.0, 0.0, 0, pt.n_plots) for t, pt in zip(found, passes)
        ], weights)

    return PassTotals(
        universe=universe,
        comp=mix("comp", lambda found: [
            total([row and row[i] for row in found]) for i in columns
        ]),
        cov=mix("cov", lambda found: [
            combine_variances([row[i] if row else 0.0 for row in found], weights)
            for i in columns
        ]),
        den_area=mix("den_area", total),
        den_tree=mix("den_tree", total),
        num_plots_nonzero={
            gk: sum(pt.num_plots_nonzero.get(gk, 0) for pt in passes) for gk in universe
        },
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
            if comp.name in plan.hidden_components:
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
            if plan.emit_variance:
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
):
    """Yield (year, lambda-or-None, [PassTotals per plan]) for output rows.

    TI pools all panels of each evaluation group into one pass.  ANNUAL
    estimates each observed panel of the most recent evaluation per state.
    The moving averages estimate every panel, then combine with the method's
    weights; EMA repeats the combination for each requested lambda.
    """
    method = method.upper()
    groups = select_family_evals(db, type_sets, family)

    def run(evals, year=None) -> list[PassTotals] | None:
        """One pass per plan; None for a panel without plots."""
        sample = build_sample(db, evals, None if year is None else [year])
        if year is not None and sample.n_plots == 0:
            return None
        return [compute_pass(db, plan, sample) for plan in plans]

    if method == "TI":
        for evals in groups:
            yield group_report_year(evals), None, run(evals)
        return
    if method == "ANNUAL":
        for evals in _most_recent_groups(groups):
            for year in _panel_years(db, evals):
                totals = run(evals, year)
                if totals is not None:
                    yield year, None, totals
        return
    for evals in groups:
        years = _panel_years(db, evals)
        per_panel = [run(evals, year) for year in years]
        present = [p is not None for p in per_panel]
        kept = [p for p in per_panel if p is not None]
        for lam in list(lambdas) if method == "EMA" else [None]:
            weights = present_weights(panel_weights(method, len(years), lam), present)
            weights = [w for w, ok in zip(weights, present) if ok]
            yield group_report_year(evals), lam, [
                combine_passes(plan, [p[i] for p in kept], weights)
                for i, plan in enumerate(plans)
            ]


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
