"""Design-based, post-stratified estimation over inventory samples.

The estimator follows the classic two-stage shape.  Plot-level values roll
trees (or other records) up to one number per plot; stratum means combine
into estimation-unit totals using known stratum area weights; units sum to
the population.  For an estimation unit with area A, n sampled plots, and
strata h carrying weight W_h and n_h plots with sample mean ybar_h and
sample variance s2_h:

    total    Y = A * sum_h W_h * ybar_h
    variance v = (A^2 / n) * sum_h (W_h + (1 - W_h) / n) * s2_h

(Bechtold and Patterson 2005, GTR SRS-80, with v(ybar_h) = s2_h / n_h).
With one stratum this collapses to the simple-random-sampling form
v = A^2 * s2 / n.  Per-acre attributes are ratios of two such totals, with

    v(R) = (1/X^2) * [ v(Y) + R^2 * v(X) - 2 * R * cov(Y, X) ]

where the covariance combines per-stratum sample covariances exactly like
the variances.  Grouping uses domain indicators: group membership zeroes a
plot's value out of the numerator (and, for area-level groups, out of the
denominator) but never changes n, n_h, or the strata, which keeps group
totals exactly additive.

One columnar pass per evaluation group computes all of it.  A
:class:`Sample` is the group's plots plus one (plot, stratum, panel)
membership per stratum assignment.  A :class:`Plan` holds each variable
(numerator, area denominator, tree denominator, diversity's species
abundances) as :class:`Records`: the rows inside every domain, over the
whole database, with their plot, group-key code, weight and value columns.
:func:`make_bundle` gathers the rows on the sample's plots, multiplies in
each plot's stratum adjustment factor and sums them per (group, plot) with
``np.bincount`` into :class:`Entries`.  :class:`_Strata` holds each
(panel, stratum) cell's constants (n_h, A * W_h and the variance weight)
and :class:`_Cells` sums entries per (group, cell), so one call gets the
totals, variances and covariances of every group, component and panel.
:func:`post_stratified_total` and :func:`post_stratified_covariance` are
one-series wrappers over the same kernel.

Each panel is a sample of its own: W_h renormalizes over the strata with
plots in that panel and n counts the unit's plots in it.  Panels are
independent samples, so weights w_p combine the per-panel totals Y_p and
variances v_p of one pass into sum_p w_p * Y_p with variance
sum_p w_p^2 * v_p.  TI is one panel of weight 1, SMA and LMA one row of
weights, EMA one row per lambda and ANNUAL one single-panel row per panel
with plots.  :func:`combine_passes` weights every group, component and
row of weights at once, reads each group's denominators through the
bundle's key indices, takes ratios and sampling errors elementwise over
those arrays (NaN marks an undefined cell) and builds the output columns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EstimationError
from .model import (
    MACROPLOT,
    MICROPLOT,
    SUBPLOT,
    EstimationUnit,
    Evaluation,
    ForestDatabase,
    Stratum,
)
from .panels import DEFAULT_LAMBDA, panel_weights, present_weights

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
    "PanelTotals",
    "PassTotals",
    "compute_pass",
    "combine_passes",
    "method_passes",
    "select_family_evals",
    "group_report_year",
    "EstimateTable",
]

log = logging.getLogger("timberline.core")


def dense(code: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(code, return_inverse=True)`` for ints in ``[0, size)``.

    A mask marks the codes present and its running count ranks them in
    increasing order, as a sort would; past 8 codes per row, it sorts."""
    if size > 8 * len(code):
        return np.unique(code, return_inverse=True)
    seen = np.bincount(code, minlength=size) > 0
    return np.flatnonzero(seen).astype(code.dtype), np.cumsum(seen)[code] - 1


@dataclass(frozen=True)
class TotalEstimate:
    """A population total with its variance and plot bookkeeping."""

    total: float
    variance: float
    n_nonzero: int
    n_plots: int


ASSIGNMENTS = "POP_PLOT_STRATUM_ASSGN"


@dataclass
class Sample:
    """The plots of one evaluation group, stratified along a panel axis.

    ``rows`` are the plots' rows in ``db.plots`` in CN order, which makes
    output independent of record order.  Each kept stratum assignment is a
    membership m: plot ``plot[m]`` in stratum h = ``stratum[m]`` (of unit
    ``units[unit[h]]``) during panel ``panel[m]``, measured in ``year[m]``.
    """

    rows: np.ndarray
    plot: np.ndarray
    stratum: np.ndarray
    panel: np.ndarray
    year: np.ndarray
    strata: list[Stratum]
    unit: np.ndarray
    units: list[EstimationUnit]
    n_panels: int = 1

    @property
    def n_plots(self) -> int:
        return len(self.rows)

    @property
    def last(self) -> np.ndarray:
        """Each plot's last membership, which gives its adjustment factors and YEAR."""
        last = np.zeros(self.n_plots, dtype=np.intp)
        np.maximum.at(last, self.plot, np.arange(len(self.plot)))
        return last


def _assignments(db: ForestDatabase, evals: Sequence[Evaluation]) -> tuple[np.ndarray, ...]:
    """The group's assignment rows in walk order: evaluation, then table order.

    Also each row's position in ``evals``, its year (INVYR, else its plot's)
    and whether a year is known.
    """
    view = db.columns
    codes, cns = view.column(ASSIGNMENTS, "STRATUM_CN")
    position = {ev.evalid: i for i, ev in enumerate(evals)}
    ev = np.array([position.get(db.eval_of_stratum(cn), -1) for cn in cns], dtype=np.intp)
    ev = ev[codes[:-1]]
    rows = np.flatnonzero(ev >= 0)
    rows = rows[np.argsort(ev[rows], kind="stable")]
    (own, own_years), (plot, plot_years) = (view.column(ASSIGNMENTS, "INVYR"),
                                            view.column("PLOT", "INVYR"))
    own, plot = own[rows], plot[view.plot_rows(ASSIGNMENTS)[rows]]
    years = [np.array([0 if v is None else v for v in values], dtype=np.int64)
             for values in (own_years, plot_years)]
    year = np.where(own != 0, years[0][own], years[1][plot])
    return rows, ev[rows], year, (own != 0) | (plot != 0)


def build_sample(
    db: ForestDatabase,
    evals: Sequence[Evaluation],
    years: Sequence[int] | None = None,
) -> Sample:
    """Assemble the stratified sample for an evaluation group.

    Without ``years`` the sample has one panel holding every assignment.
    With the group's sorted panel ``years``, an assignment sits in the panel
    of its year (assignment INVYR, falling back to plot INVYR) and one whose
    year is off the axis is dropped.  Assignments pointing at plots missing
    from the database are a hard error: a sampled plot the estimator cannot
    see would silently bias every mean.  So is a plot assigned more than
    once in one evaluation, which would count it twice in n and n_h.
    """
    view = db.columns
    rows, ev, year, _ = _assignments(db, evals)
    plot_row = view.plot_rows(ASSIGNMENTS)[rows]
    stratum_code, stratum_cns = view.column(ASSIGNMENTS, "STRATUM_CN")
    stratum_code = stratum_code[rows]
    visit = ev * (len(db.plots) + 1) + plot_row + 1  # all missing plots share row -1
    _, inverse = dense(visit, len(evals) * (len(db.plots) + 1))
    first = np.full(len(rows), len(rows))
    np.minimum.at(first, inverse, np.arange(len(rows)))
    bad = np.flatnonzero((first[inverse] != np.arange(len(rows))) | (plot_row < 0))
    if len(bad):  # the first missing plot is always bad before any repeat of row -1
        i = bad[0]
        codes, cns = view.column(ASSIGNMENTS, "PLT_CN")
        evalid, cn = evals[ev[i]].evalid, cns[codes[rows[i]]]
        if first[inverse[i]] != i:
            strata = [stratum_cns[c] for c in stratum_code[inverse == inverse[i]]]
            raise EstimationError(
                f"evaluation {evalid} assigns plot {cn} more than once "
                f"(strata {', '.join(strata)}); a plot needs one stratum per evaluation"
            )
        raise EstimationError(f"evaluation {evalid} assigns missing plot {cn}")

    if years is None:
        panel = np.zeros(len(rows), dtype=np.intp)
    else:
        axis = np.asarray(years, dtype=np.int64)
        panel = np.minimum(np.searchsorted(axis, year), len(axis) - 1)
        keep = axis[panel] == year
        plot_row, stratum_code, panel, year = (
            a[keep] for a in (plot_row, stratum_code, panel, year)
        )

    by_cn = view.order("PLOT", ("CN",))
    sample_rows = by_cn[np.isin(by_cn, plot_row)]
    pos = np.zeros(len(db.plots), dtype=np.intp)
    pos[sample_rows] = np.arange(len(sample_rows))

    units = [u for ev in evals for u in db.units_by_eval.get(ev.evalid, ())]
    strata = [(st, i) for i, u in enumerate(units)
              for st in sorted(db.strata_by_unit.get(u.cn, ()), key=lambda s: s.cn)]
    index = {st.cn: h for h, (st, _) in reversed(list(enumerate(strata)))}
    stratum = np.array([index.get(cn, -1) for cn in stratum_cns], dtype=np.intp)[stratum_code]
    unit = np.array([i for _, i in strata], dtype=np.intp)

    n_panels = 1 if years is None else len(years)
    cells = np.bincount(panel * len(units) + unit[stratum], minlength=n_panels * len(units))
    for u in np.flatnonzero(cells.reshape(n_panels, len(units)).any(axis=0)).tolist():
        if units[u].area_used is None:
            raise EstimationError(f"estimation unit {units[u].cn} lacks AREA_USED")
    if (cells == 0).any():
        log.warning("%d of %d (estimation unit, panel) cells have no sampled plots in this "
                    "selection; skipped", np.count_nonzero(cells == 0), len(cells))
    return Sample(sample_rows, pos[plot_row], stratum, panel, year, [st for st, _ in strata],
                  unit, units, n_panels)


class _Strata:
    """A sample's cells and the estimator's constants.

    A cell is one (panel, stratum) pair holding plots, numbered panel by
    panel, then in unit and stratum order.  Each panel is its own sample:
    cell c carries n_h, its total weight A * W_h and its variance weight,
    with W_h renormalized over the strata of its unit that hold plots in
    that panel and n the unit's plots in that panel.  A plot sits in one
    stratum per evaluation; overlapping evaluations can put it in several,
    and each membership counts.
    """

    def __init__(self, sample: Sample):
        n_panels, n_strata, n_units = sample.n_panels, len(sample.strata), len(sample.units)
        code = sample.panel * n_strata + sample.stratum
        sizes = np.bincount(code, minlength=n_panels * n_strata)
        cells = np.flatnonzero(sizes)
        self.panel, h = np.divmod(cells, n_strata)
        weight = np.array([np.nan if st.weight is None else st.weight
                           for st in sample.strata], dtype=float)[h]
        missing = np.flatnonzero(np.isnan(weight))
        if len(missing):
            raise EstimationError(f"stratum {sample.strata[h[missing[0]]].cn} lacks STRATUM_WGT")
        unit = sample.unit[h]
        cell_unit = self.panel * n_units + unit
        wsum = np.bincount(cell_unit, weight, minlength=n_panels * n_units)
        n = np.bincount(cell_unit, sizes[cells], minlength=n_panels * n_units)
        used = np.flatnonzero(n)
        bad = used[wsum[used] <= 0]
        if len(bad):
            raise EstimationError(
                f"estimation unit {sample.units[bad[0] % n_units].cn} has no positive "
                "stratum weight"
            )
        dropped = (np.bincount(sample.unit, minlength=n_units)[used % n_units]
                   - np.bincount(cell_unit, minlength=n_panels * n_units)[used])
        if dropped.any():
            log.warning("%d (stratum, panel) cells with no plots in %d (estimation unit, "
                        "panel) cells; weights renormalized", sum(dropped), sum(dropped > 0))
        self.n_h = sizes[cells].astype(float)
        if (self.n_h == 1).any():
            log.debug("%d single-plot cells; their variance terms are 0", sum(self.n_h == 1))
        w, n = weight / wsum[cell_unit], n[cell_unit]
        area = np.array([np.nan if u.area_used is None else u.area_used
                         for u in sample.units], dtype=float)[unit]
        self.area_w = area * w
        self.var_w = np.where(
            self.n_h > 1,
            area ** 2 / n * (w + (1.0 - w) / n) / np.maximum(self.n_h - 1, 1),
            0.0,
        )
        self.n_cells, self.n_panels = len(cells), n_panels
        edges = np.searchsorted(self.panel, np.arange(n_panels + 1)).tolist()
        self.bounds = list(zip(edges, edges[1:]))  # each panel's cells
        visits = dense(sample.plot * n_panels + sample.panel, sample.n_plots * n_panels)[0]
        self.n_plots = np.bincount(visits % n_panels, minlength=n_panels)
        order = np.argsort(sample.plot, kind="stable")
        self._cell = np.searchsorted(cells, code)[order]
        self._count = np.bincount(sample.plot, minlength=sample.n_plots)
        self._first = np.cumsum(self._count) - self._count

    def expand(self, plot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entry, cell) pairs, one per membership of each entry's plot."""
        reps = self._count[plot]
        entry = np.repeat(np.arange(len(plot)), reps)
        within = np.arange(len(entry)) - np.repeat(np.cumsum(reps) - reps, reps)
        return entry, self._cell[self._first[plot[entry]] + within]


@dataclass
class PanelTotals:
    """One variable's totals per (key, panel); arrays are keys x panels (x columns).

    ``nonzero`` counts each panel's plots with a non-zero value (in any
    column for ``any_nonzero``) and ``present`` marks the panels where a key
    has an entry.
    """

    keys: list[tuple]
    total: np.ndarray
    variance: np.ndarray
    nonzero: np.ndarray
    any_nonzero: np.ndarray
    present: np.ndarray


class _Cells:
    """One variable's entries, summed per (key, cell).

    Entries are (key, plot, row of values) with at most one per (key, plot);
    a plot without an entry holds zeros.  Cell sums take one ``np.bincount``
    per column over ``key * cells + cell``, which totals every key at once,
    and each panel's total is the sum over its cells.
    """

    def __init__(self, strata: _Strata, key: np.ndarray, plot: np.ndarray,
                 values: np.ndarray, n_keys: int):
        self.strata, self.n_keys = strata, n_keys
        n_panels = strata.n_panels
        entry, self.stratum = strata.expand(plot)
        self.key, self.plot, self.x = key[entry], plot[entry], values[entry]
        self.cell = self.key * strata.n_cells + self.stratum
        n_h = np.tile(strata.n_h, n_keys)
        self.absent = n_h - np.bincount(self.cell, minlength=len(n_h))
        self.mean = self._sum(self.x) / n_h[:, None]
        visit = dense(entry * n_panels + strata.panel[self.stratum], len(plot) * n_panels)[0]
        seen, panel = np.divmod(visit, n_panels)
        flags = values[seen] != 0
        counts = self._by_panel(key[seen] * n_panels + panel,
                                [*flags.T, flags.any(axis=1), np.ones(len(seen))])
        self.nonzero, self.any_nonzero = counts[..., :-2], counts[..., -2]
        self.present = counts[..., -1] > 0

    def _sum(self, per_entry: np.ndarray) -> np.ndarray:
        size = self.n_keys * self.strata.n_cells
        return np.column_stack(
            [np.bincount(self.cell, col, minlength=size) for col in per_entry.T]
        )

    def _by_panel(self, at: np.ndarray, columns) -> np.ndarray:
        """Sums over ``key * panels + panel`` positions, shaped keys x panels x columns."""
        size = self.n_keys * self.strata.n_panels
        return np.column_stack(
            [np.bincount(at, col, minlength=size) for col in columns]
        ).reshape(self.n_keys, self.strata.n_panels, len(columns))

    def _over_strata(self, per_cell: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Each panel's weighted sum over its cells, keys x panels x columns."""
        cells = self.strata.n_cells
        shaped = per_cell.reshape(self.n_keys, cells, per_cell.shape[1]) * weights[:, None]
        return np.stack([shaped[:, a:b].sum(axis=1) for a, b in self.strata.bounds], axis=1)

    def estimates(self, keys: list[tuple]) -> PanelTotals:
        """Every key's totals and variances per panel and column.

        Per cell, the sum of (x - xbar)^2 over all n_h plots is the sum over
        the entries plus (n_h - entries) * xbar^2 for the plots without one.
        """
        dev = self.x - self.mean[self.cell]
        squares = self._sum(dev * dev) + self.absent[:, None] * self.mean ** 2
        return PanelTotals(keys, self._over_strata(self.mean, self.strata.area_w),
                           self._over_strata(squares, self.strata.var_w),
                           self.nonzero.astype(int), self.any_nonzero.astype(int), self.present)

    def covariances(self, y: np.ndarray, y_mean: np.ndarray) -> np.ndarray:
        """Covariances with another variable's totals, keys x panels x columns.

        ``y`` and ``y_mean`` are that variable's plot value and cell mean at
        each expanded entry.  Per cell, the sum of (x - xbar)(y - ybar) is
        the sum of x (y - ybar) over the entries, as y's deviations sum to 0.
        """
        products = self._sum(self.x * (y - y_mean)[:, None])
        return self._over_strata(products, self.strata.var_w)

    def mean_at(self, key: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """Column-0 cell mean at each (key, cell); 0 for a negative key."""
        if not self.n_keys:
            return np.zeros(len(key))
        at = np.where(key >= 0, key, 0) * self.strata.n_cells + cell
        return np.where(key >= 0, self.mean[at, 0], 0.0)


def _combine(per_panel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """keys x panels x columns weighted by rows x panels: rows x keys x columns."""
    return (per_panel[None] * weights[:, None, :, None]).sum(axis=2)


def _series(values: np.ndarray, strata: _Strata) -> _Cells:
    n = len(values)
    return _Cells(strata, np.zeros(n, dtype=np.intp), np.arange(n), values[:, None], 1)


def post_stratified_total(
    values: np.ndarray, sample: Sample, weights: Sequence[float] = (1.0,)
) -> TotalEstimate:
    """Estimate the population total of per-plot ``values`` (docstring formula).

    Panels combine as sum_p w_p * Y_p with variance sum_p w_p^2 * v_p, where
    ``weights`` holds w_p, one per panel.
    """
    strata, w = _Strata(sample), np.array([weights], dtype=float)
    est = _series(values, strata).estimates([()])
    return TotalEstimate(float(_combine(est.total, w)[0, 0, 0]),
                         float(_combine(est.variance, w * w)[0, 0, 0]),
                         int(est.nonzero.sum()), int(strata.n_plots.sum()))


def post_stratified_covariance(
    x: np.ndarray, y: np.ndarray, sample: Sample, weights: Sequence[float] = (1.0,)
) -> float:
    """Covariance of two totals over the same sample, combined like variances."""
    strata, w = _Strata(sample), np.array([weights], dtype=float)
    xc, yc = _series(x, strata), _series(y, strata)
    return float(_combine(xc.covariances(y[xc.plot], yc.mean[xc.cell, 0]), w * w)[0, 0, 0])


def ratio_estimate(
    num_total: np.ndarray, num_var: np.ndarray, den_total: np.ndarray, den_var: np.ndarray,
    cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit ratios of totals with their linearized variances, elementwise.

    A zero denominator yields NaN for both: the cell exists but carries no
    estimate.  Floating-point cancellation can push a variance a hair
    negative when numerator and denominator are nearly proportional; within
    1e-9 of the term magnitudes it clamps to zero, beyond that it is an
    internal error.  The denominator is squared with C ``pow`` per element,
    which rounds differently from ``x * x`` on some inputs.
    """
    den_total = np.asarray(den_total, dtype=float)
    with np.errstate(all="ignore"):
        r = np.where(den_total != 0, num_total / den_total, np.nan)
        raw = num_var + r * r * den_var - 2.0 * r * cov
        low = raw < 0.0
        if low.any():
            scale = num_var + r * r * den_var + 2.0 * np.abs(r * cov)
            bad = low & (-raw > 1e-9 * np.maximum(scale, 1.0))
            if bad.any():
                raise EstimationError(f"ratio variance went negative ({float(raw[bad][0])!r}); "
                                      "inputs are inconsistent")
            raw = np.where(low, 0.0, raw)
        square = np.array([d ** 2 for d in den_total.ravel().tolist()]).reshape(den_total.shape)
        return r, raw / square


def sampling_error_pct(
    estimate: np.ndarray, variance: np.ndarray, n_nonzero: np.ndarray
) -> np.ndarray:
    """Relative standard errors in percent, elementwise; NaN where undefined.

    Defined only when at least two plots carry a nonzero value and the
    estimate is defined and nonzero; an exactly zero variance reports 0.0.
    """
    estimate, variance = np.asarray(estimate, dtype=float), np.asarray(variance, dtype=float)
    with np.errstate(all="ignore"):
        se = np.where(variance == 0, 0.0, 100.0 * np.sqrt(variance) / np.abs(estimate))
    undefined = np.isnan(estimate) | (np.asarray(n_nonzero) < 2) | (estimate == 0)
    return np.where(undefined, np.nan, se)


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
    codes: np.ndarray  # keys x group columns: each key's code per column


@dataclass(frozen=True)
class Note:
    """A log line counting the sample's flagged plots (or conditions)."""

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
    species: Records | None = None  # abundance per (group, SPCD) for pooled indices
    notes: tuple[Note, ...] = ()
    species_decoration: dict[int, tuple[str | None, str | None]] | None = None
    nplots_cols: tuple[tuple[str, str], ...] = ()  # (label, "num" | "den")
    hidden_components: tuple[str, ...] = ()
    emit_variance: bool = False

    def group_columns(self, keys: Sequence[tuple]) -> dict[str, list]:
        """The group keys' output cells by column, species names after a species column."""
        out: dict[str, list] = {}
        for i, col in enumerate(self.group_cols):
            out[col.name] = values = [gk[i] for gk in keys]
            if col.origin == "species" and self.species_decoration is not None:
                names = [self.species_decoration.get(v, (None, None)) for v in values]
                out["COMMON_NAME"] = [common for common, _ in names]
                out["SCIENTIFIC_NAME"] = [scientific for _, scientific in names]
        return out

    @property
    def group_names(self) -> list[str]:
        """The output columns of :meth:`group_columns`."""
        return list(self.group_columns(()))


def _match(codes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The row of ``targets`` equal to each row of ``codes`` (-1: none).

    The rows of ``targets`` are distinct.  Both fold into one compacted
    mixed-radix code, one column at a time, as group keys do."""
    if not len(codes) or not len(targets):
        return np.full(len(codes), -1, dtype=np.intp)
    both = np.concatenate([codes, targets])
    key, size = np.zeros(len(both), dtype=np.intp), 1
    for col in both.T:
        radix = int(col.max()) + 1
        present, key = dense(key * radix + col, size * radix)
        size = len(present)
    slot = np.full(size, -1, dtype=np.intp)
    slot[key[len(codes):]] = np.arange(len(targets))
    return slot[key[:len(codes)]]


# --------------------------------------------------------------------------
# Pass computation: gather one sample's rows into (key, plot) entries, then
# total every group, component and panel in one call of the stratified
# kernel; panel weights combine the totals into output rows.
# --------------------------------------------------------------------------


@dataclass
class Entries:
    """One variable's sample rows summed per (key, plot), sorted by key then plot.

    Only (key, plot) pairs with at least one row are present; :func:`dense`
    counts them in the order ``np.unique`` sorts them in.  ``rows``,
    ``entry`` and ``expand`` describe the gathered rows themselves: their
    index in :class:`Records`, their entry and their weight times factor.
    """

    keys: list[tuple]  # group key of each local key
    codes: np.ndarray  # each local key's Records.codes
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
    species: Entries
    area_of: np.ndarray
    tree_of: np.ndarray


def _gather(rec: Records | None, pos: np.ndarray, factors: np.ndarray, width: int) -> Entries:
    """The rows of ``rec`` on sample plots, summed per (key, plot) in row order."""
    n = len(factors)
    if rec is None:
        none = np.zeros(0, dtype=np.intp)
        return Entries([], np.zeros((0, 0), dtype=np.intp), none, none, np.zeros((0, width)),
                       none, n, none, none, np.zeros(0))
    plot = pos[rec.plot]
    rows = np.flatnonzero(plot >= 0)
    plot = plot[rows]
    expand = rec.weight[rows] * factors[plot, rec.adjust[rows]]
    x = expand[:, None] * rec.values[rows]
    cell, entry = dense(rec.key[rows] * n + plot, len(rec.keys) * n)
    present, key = dense(cell // n, len(rec.keys))
    values = np.column_stack(
        [np.bincount(entry, col, minlength=len(cell)) for col in x.T]
    ).reshape(len(cell), x.shape[1])
    return Entries([rec.keys[k] for k in present.tolist()], rec.codes[present], key, cell % n,
                   values, np.bincount(entry, minlength=len(cell)), n, rows, entry, expand)


def make_bundle(db: ForestDatabase, plan: Plan, sample: Sample) -> Bundle:
    """Gather one sample's rows of every variable of a plan into entries.

    A row takes the adjustment factors of its plot's last stratum
    assignment.  Each plan note logs one line with the number of its items
    in the sample.
    """
    pos = np.full(len(db.plots) + 1, -1, dtype=np.intp)  # slot -1: rows without a plot
    pos[sample.rows] = np.arange(sample.n_plots)
    adjust = np.array([[st.adjustment(c) for c in ADJUST_CLASSES] for st in sample.strata],
                      dtype=float).reshape(-1, len(ADJUST_CLASSES))
    factors = adjust[sample.stratum[sample.last]]
    for note in plan.notes:
        count = int(np.count_nonzero(pos[note.plots] >= 0))
        if count:
            log.log(note.level, note.message, count)
    num = _gather(plan.num, pos, factors, len(plan.components))
    den_area, den_tree, species = (_gather(rec, pos, factors, 1)
                                   for rec in (plan.den_area, plan.den_tree, plan.species))
    area = [i for i, col in enumerate(plan.group_cols) if col.level == "area"]
    bundle = Bundle(num, den_area, den_tree, species, _match(num.codes[:, area], den_area.codes),
                    _match(num.codes, den_tree.codes))
    if plan.reduce is not None:
        num.values = plan.reduce(bundle)
    return bundle


@dataclass
class PassTotals:
    """Stratified totals of one pass per (key, panel), before panel weighting.

    ``area_of`` and ``tree_of`` are the bundle's denominator key of each
    numerator key (-1: none, read as a zero total).
    """

    num: PanelTotals
    cov: np.ndarray  # numerator keys x panels x components
    den_area: PanelTotals
    den_tree: PanelTotals
    species: PanelTotals
    area_of: np.ndarray
    tree_of: np.ndarray


def compute_pass(db: ForestDatabase, plan: Plan, sample: Sample) -> PassTotals | None:
    """Run one full estimation pass over a sample; None when it has no rows.

    The sample's rows become entries, one per (group, plot) with rows; the
    stratified kernel then totals every group, component and panel at once.
    """
    bundle = make_bundle(db, plan, sample)
    num, den_area, den_tree = bundle.num, bundle.den_area, bundle.den_tree
    if not (num.keys or den_area.keys or den_tree.keys):
        return None  # no totals, so no stratum checks

    strata = _Strata(sample)
    x, den = num.cells(strata), np.array([c.den for c in plan.components])
    cov = np.zeros((x.n_keys, strata.n_panels, len(den)))
    empty = np.zeros((0, strata.n_panels, 1))
    counts = empty.astype(int)  # plot counts stay integers
    totals = [PanelTotals([], empty, empty, counts, counts[..., 0], counts[..., 0] > 0)] * 3
    variables = ((den_area, bundle.area_of), (den_tree, bundle.tree_of), (bundle.species, None))
    for i, (entries, den_of) in enumerate(variables):
        if not entries.keys:  # all zero: skip the kernel's fixed cost
            continue
        cells = entries.cells(strata)
        totals[i] = cells.estimates(entries.keys)
        if den_of is not None:
            key, kind = den_of[x.key], den == ("area", "trees")[i]
            y, y_mean = entries.at(key, x.plot), cells.mean_at(key, x.stratum)
            cov[..., kind] = x.covariances(y, y_mean)[..., kind]
    return PassTotals(x.estimates(num.keys), cov, *totals, bundle.area_of, bundle.tree_of)


def combine_passes(
    plan: Plan, totals: PassTotals, weights: np.ndarray, labels: Sequence[tuple]
) -> dict[str, list]:
    """Weighted combination of a pass's panels into output columns.

    ``weights`` is rows x panels, and ``labels`` gives each row of weights
    its (year, lambda-or-None).  Totals combine as sum_p w_p * Y_p and
    variances and covariances as sum_p w_p^2 * v_p; panels are independent
    samples.  A row of weights covers the panels it weights: its groups are
    those with an entry there, in group order, and its plot counts sum over
    them.  A group absent from a panel contributes an exact zero total with
    zero variance.  Each output column holds one cell per (row of weights,
    group); an undefined estimate is None.
    """
    weights = np.asarray(weights, dtype=float)
    used, squared = weights != 0, weights * weights
    num = totals.num
    order = _group_order(plan.group_cols, num.keys)
    keys = [num.keys[i] for i in order.tolist()]

    def mix(per_panel: np.ndarray, w: np.ndarray, of: np.ndarray | None = None) -> np.ndarray:
        """Combined rows x keys (x columns), keys in group order.

        With ``of``, each key reads column 0 of its denominator key, -1 as 0.
        """
        per_key = _combine(per_panel, w)
        if of is None:
            return per_key[:, order]
        zero = np.zeros((len(w), 1), dtype=per_key.dtype)
        return np.concatenate([per_key[..., 0], zero], axis=1)[:, of[order]]

    present = mix(num.present[..., None], used)[..., 0] > 0
    visible = [c for c, comp in enumerate(plan.components)
               if comp.name not in plan.hidden_components]
    kinds = [plan.components[c].den for c in visible]
    est, var = mix(num.total, weights)[..., visible], mix(num.variance, squared)[..., visible]
    ratio = [i for i, kind in enumerate(kinds) if kind != "none"]
    if ratio:
        den = {"area": (totals.den_area, totals.area_of), "trees": (totals.den_tree, totals.tree_of)}
        read = {kind: (mix(t.total, weights, of), mix(t.variance, squared, of))
                for kind, (t, of) in den.items() if kind in kinds}
        est[..., ratio], var[..., ratio] = ratio_estimate(
            est[..., ratio], var[..., ratio],
            *(np.stack([read[kinds[i]][j] for i in ratio], axis=-1) for j in (0, 1)),
            mix(totals.cov, squared)[..., [visible[i] for i in ratio]],
        )
    se = sampling_error_pct(est, var, mix(num.nonzero, used)[..., visible])
    row, k = np.nonzero(present)  # rows of weights, then groups in order
    rows, ks = row.tolist(), k.tolist()
    cells = np.stack([est, se, var])[:, row, k]  # (est, se, var) x cells x components
    est, se, var = np.where(np.isnan(cells), None, cells).transpose(0, 2, 1).tolist()

    out: dict[str, list] = {"lambda": [labels[r][1] for r in rows],
                            "YEAR": [labels[r][0] for r in rows]}
    for name, values in plan.group_columns(keys).items():
        out[name] = list(map(values.__getitem__, ks))
    for c, e, s, v in zip(visible, est, se, var):
        name = plan.components[c].name
        out[name], out[name + "_SE"] = e, s
        if plan.emit_variance:
            out[name + "_VAR"] = v
    counts = {"num": mix(num.any_nonzero[..., None], used)[..., 0],
              "den": mix(totals.den_area.nonzero, used, totals.area_of)}
    for label, kind in plan.nplots_cols:
        out[label] = counts[kind][row, k].tolist()
    if plan.species is not None:
        species = totals.species.keys
        species_order = _group_order(plan.group_cols + (GroupCol("SPCD", "tree", "species"),),
                                     species).tolist()
        abundance = _combine(totals.species.total, weights)[..., 0].tolist()
        pooled: list[dict[tuple, list[float]]] = [{} for _ in labels]
        for by_key, per_species in zip(pooled, abundance):
            for i in species_order:
                by_key.setdefault(species[i][:-1], []).append(max(per_species[i], 0.0))
        indices = [_shannon(pooled[r].get(keys[i], ())) for r, i in zip(rows, ks)]
        for j, name in enumerate(("H_POOLED", "S_POOLED", "Eh_POOLED")):
            out[name] = [index[j] for index in indices]
    return out


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


def _value_key(col: GroupCol, v):
    """A group cell's sort key: categorical levels, numbers, text, then None."""
    if v is None:
        return (3, 0)
    if col.categorical is not None and v in col.categorical:
        return (0, col.categorical.index(v))
    if col.origin == "sizeclass" and isinstance(v, str):
        bound = _class_lower_bound(v)
        if bound is not None:
            return (1, bound)
    if isinstance(v, (int, float)):
        return (1, float(v))
    return (2, str(v))


def _group_order(cols: Sequence[GroupCol], keys: Sequence[tuple]) -> np.ndarray:
    """The stable order of group keys by their cells' :func:`_value_key`, column by column.

    Each column's distinct values are ranked once; values with equal sort
    keys share a rank, so their keys keep their index order.
    """
    if not cols:
        return np.arange(len(keys))
    ranks = []
    for i, col in enumerate(cols):
        values = [gk[i] for gk in keys]
        distinct = list(dict.fromkeys(values))
        sort_keys = [_value_key(col, v) for v in distinct]
        slot = {sk: r for r, sk in enumerate(sorted(set(sort_keys)))}
        rank = dict(zip(distinct, map(slot.__getitem__, sort_keys)))
        ranks.append(list(map(rank.__getitem__, values)))
    return np.lexsort(ranks[::-1])


def _shannon(abundances: Sequence[float]) -> tuple[float, int, float]:
    """(H, S, Eh) from raw abundance values (zeros ignored)."""
    positive = [a for a in abundances if a > 0.0]
    total = sum(positive)
    if total <= 0.0:
        return 0.0, 0, 0.0
    h = 0.0 - sum(p * math.log(p) for p in (a / total for a in positive))  # never -0.0
    return h, len(positive), h / math.log(len(positive)) if len(positive) > 1 else 0.0


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


def _most_recent_groups(groups: list[list[Evaluation]]) -> list[list[Evaluation]]:
    """Per state, keep only the evaluation(s) of the latest report year.

    ``groups`` come in report-year order, as :func:`select_family_evals` gives them.
    """
    latest = {ev.statecd: group_report_year(group) for group in groups for ev in group}
    kept = ([ev for ev in group if latest[ev.statecd] == group_report_year(group)]
            for group in groups)
    return [subset for subset in kept if subset]


def _panel_years(db: ForestDatabase, evals: Sequence[Evaluation]) -> list[int]:
    """The panel-year axis of an evaluation group.

    START_INVYR..END_INVYR define the intended panels when present, so a
    panel nobody measured still shows up (and triggers weight
    renormalization); otherwise the observed assignment years stand in.
    """
    years: set[int] = set()
    for ev in evals:
        if ev.start_invyr is not None and ev.end_invyr is not None:
            years.update(range(ev.start_invyr, ev.end_invyr + 1))
    if not years:
        _, _, year, known = _assignments(db, evals)
        years = set(year[known].tolist())
    if not years:
        raise EstimationError(
            f"evaluation {evals[0].evalid} has no panel years (no assignments)"
        )
    return sorted(years)


def method_passes(
    db: ForestDatabase,
    plan: Plan,
    type_sets: Sequence[frozenset[str]],
    family: str,
    method: str,
    lambdas: Sequence[float] = (DEFAULT_LAMBDA,),
):
    """Yield each pass's output columns, one cell per (year, lambda-or-None, group).

    Each evaluation group is one pass.  TI pools all its panels into one.
    The other methods put every assignment on the group's panel-year axis
    and weight the panels: ANNUAL takes each panel with plots alone (for
    the most recent evaluation per state), the moving averages combine the
    panels with the method's weights, once per EMA lambda.
    """
    method = method.upper()
    groups = select_family_evals(db, type_sets, family)
    if method == "ANNUAL":
        groups = _most_recent_groups(groups)
    for evals in groups:
        years = None if method == "TI" else _panel_years(db, evals)
        sample = build_sample(db, evals, years)
        present = np.bincount(sample.panel, minlength=sample.n_panels) > 0
        if years is None:
            labels, weights = [(group_report_year(evals), None)], np.ones((1, 1))
        elif method == "ANNUAL":
            labels = [(year, None) for year, ok in zip(years, present) if ok]
            weights = np.eye(len(years))[present]
        else:
            lams = list(lambdas) if method == "EMA" else [None]
            labels = [(group_report_year(evals), lam) for lam in lams]
            weights = np.array([
                present_weights(panel_weights(method, len(years), lam), present.tolist())
                for lam in lams
            ])
            if not present.all():
                log.warning("missing panel(s): renormalizing weights over %d of %d panels",
                            present.sum(), len(years))
        totals = compute_pass(db, plan, sample)
        if totals is not None:
            yield combine_passes(plan, totals, weights, labels)


# --------------------------------------------------------------------------
# Output table
# --------------------------------------------------------------------------


class EstimateTable:
    """Ordered columns, stored as one list of cells per column.

    ``EstimateTable(columns, rows)`` reads each row dict once, a missing
    cell as None; the engine builds its tables with :meth:`from_columns`.
    A repeated column name holds one list, as a dict key holds one value.
    """

    def __init__(self, columns: Sequence[str], rows: Sequence[dict] = ()):
        self.columns = list(columns)
        self._cells = {name: [row.get(name) for row in rows] for name in self.columns}
        self._len = len(rows)

    @classmethod
    def from_columns(cls, columns: Sequence[str], cells: Sequence[list]) -> "EstimateTable":
        """A table holding these lists, one per column, as they are."""
        table = cls(columns)
        table._cells = dict(zip(table.columns, cells))
        table._len = len(cells[0]) if len(cells) else 0
        return table

    def __len__(self) -> int:
        return self._len

    @property
    def rows(self) -> list[dict]:
        """The rows as fresh dicts, built on every access."""
        if not self._cells:
            return [{} for _ in range(self._len)]
        return [dict(zip(self._cells, values)) for values in zip(*self._cells.values())]

    def column(self, name: str) -> list:
        """The stored cells of a column (None for each row of an unknown name)."""
        cells = self._cells.get(name)
        return [None] * self._len if cells is None else cells

    def cell(self, row: int, name: str):
        return self.column(name)[row]
