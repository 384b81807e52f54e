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

These formulas live in one place.  :class:`_Strata` holds each stratum's
constants (n_h, A * W_h and the variance weight), and :class:`_Cells` sums
plot values per (group, stratum) cell with ``np.bincount``, so one pass
gets the totals, variances and covariances of every group and component at
once.  :func:`post_stratified_total` and :func:`post_stratified_covariance`
are one-series wrappers over the same kernel.

Multi-panel designs estimate each yearly panel separately and combine the
per-panel totals with the weights from :mod:`timberline.panels`; panels are
treated as independent samples, so combined variance is sum of w_p^2 * v_p.
"""

from __future__ import annotations

import logging
import math
from array import array
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
    order, which is what makes output independent of record order.
    """

    def __init__(self, plots: list[PlotRecord], units: list[UnitSlice],
                 stratum_of: dict[str, Stratum], panel_years: dict[str, int]):
        self.plots = plots
        self.units = units
        self.stratum_of = stratum_of
        self.panel_years = panel_years

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


class _Strata:
    """A sample's strata: plot memberships and the estimator's constants.

    Strata are numbered in unit order, then in stratum order.  Stratum h
    carries n_h, its total weight A * W_h and its variance weight, which
    turns a sum of squared deviations into the stratum's share of the
    variance.  A plot normally sits in one stratum; duplicate assignments or
    overlapping evaluations can put it in several, and each membership counts.
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

    def lookup(self, key: np.ndarray, plot: np.ndarray, stratum: np.ndarray):
        """Column-0 plot value and stratum mean at each (key, plot, stratum).

        A negative key, or a plot without an entry for the key, reads 0.
        """
        if not len(self.key):
            return np.zeros(len(key)), np.zeros(len(key))
        n = self.strata.n_plots
        code = self.key * n + self.plot
        order = np.argsort(code, kind="stable")
        want = key * n + plot
        pos = np.minimum(np.searchsorted(code[order], want), len(code) - 1)
        known = key >= 0
        value = np.where(known & (code[order[pos]] == want), self.x[order[pos], 0], 0.0)
        cell = np.where(known, key, 0) * self.strata.n_strata + stratum
        return value, np.where(known, self.mean[cell, 0], 0.0)


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
    read: Callable | None = None  # column reader for the base and tree domains
    read_area: Callable | None = None  # column reader for the area domain
    selectors: tuple[Callable, ...] = ()  # per-record values (diversity: abundance)
    hidden_components: tuple[str, ...] = ()
    emit_variance: bool = False

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
# Pass computation: walk every plot once, gather flat entries, then total
# every group and component in one call of the stratified kernel above.
# --------------------------------------------------------------------------


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


class _Entries:
    """Flat (key, plot, values) entries gathered from plot contributions."""

    def __init__(self, width: int):
        self.width, self.index = width, {}
        self.key, self.plot, self.values = array("q"), array("q"), array("d")

    def add(self, k: tuple, plot: int, values) -> None:
        self.key.append(self.index.setdefault(k, len(self.index)))
        self.plot.append(plot)
        self.values.extend(values)

    def cells(self, strata: _Strata) -> _Cells:
        values = np.array(self.values).reshape(-1, self.width)
        return _Cells(strata, np.array(self.key), np.array(self.plot), values, len(self.index))


def compute_pass(db: ForestDatabase, plan: Plan, sample: Sample) -> PassTotals:
    """Run one full estimation pass over a sample.

    Each plot's grouped values become flat entries, one per (group, plot);
    the stratified kernel then totals every group and component at once.
    """
    n = sample.n_plots
    num, den_area, den_tree = _Entries(len(plan.components)), _Entries(1), _Entries(1)
    for i in range(n):
        pc = plan.eval_plot(plan, make_bundle(db, plan, sample, i))
        for gk, values in pc.num.items():
            num.add(gk, i, values)
        for ak, value in pc.den_area.items():
            den_area.add(ak, i, (value,))
        for gk, value in pc.den_tree.items():
            den_tree.add(gk, i, (value,))
    if not (num.index or den_area.index or den_tree.index):
        return PassTotals([], {}, {}, {}, {}, {}, n)  # no totals, so no stratum checks

    strata = _Strata(sample)
    x, area_cells, tree_cells = num.cells(strata), den_area.cells(strata), den_tree.cells(strata)
    covs = []
    for entries, cells, project in (
        (den_area, area_cells, plan.area_projection),
        (den_tree, tree_cells, lambda gk: gk),
    ):
        den_of = np.array([entries.index.get(project(gk), -1) for gk in num.index], dtype=np.intp)
        covs.append(x.covariances(*cells.lookup(den_of[x.key], x.plot, x.stratum)))
    den = np.array([c.den for c in plan.components])
    cov = np.where(den == "area", covs[0], np.where(den == "trees", covs[1], 0.0)).tolist()
    estimates, any_nonzero = x.estimates(), x.any_nonzero.tolist()
    universe = sorted(num.index, key=_group_sort_key(plan))
    return PassTotals(
        universe=universe,
        comp={gk: estimates[num.index[gk]] for gk in universe},
        cov={gk: cov[num.index[gk]] for gk in universe},
        den_area={k: e[0] for k, e in zip(den_area.index, area_cells.estimates())},
        den_tree={k: e[0] for k, e in zip(den_tree.index, tree_cells.estimates())},
        num_plots_nonzero={gk: int(any_nonzero[num.index[gk]]) for gk in universe},
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
    if method == "TI":
        for evals in groups:
            sample = build_sample(db, evals)
            yield (
                group_report_year(evals),
                None,
                [compute_pass(db, plan, sample) for plan in plans],
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
                    [compute_pass(db, plan, sample) for plan in plans],
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
                    [compute_pass(db, plan, sample) for plan in plans]
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
