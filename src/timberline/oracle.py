"""Brute-force reference estimator used to cross-check the engine.

Everything here is recomputed from first principles with plain Python
loops and dictionaries: plot values, stratum means and variances, totals,
ratios, panel weights, and output gating.  It deliberately shares no code
with the estimation pipeline (only the data containers and the predicate
parser are reused), so an agreement between the two is meaningful evidence
rather than a tautology.

It is slow and holds everything in memory — intended for test databases of
at most a few hundred plots.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Mapping

from .domain import bind_domain
from .errors import EstimationError
from .model import (
    FOREST_STATUS,
    FUEL_TYPES,
    MICROPLOT,
    SUBPLOT,
    TABLES,
    ForestDatabase,
    record_value,
)

__all__ = ["OracleTable", "brute_force_estimate", "compare_tables"]

_BA = 0.005454
_TON = 2000.0
_BF = 12.0
_STAGES = ("POLE", "MATURE", "LATE", "MOSAIC")


class OracleTable:
    """Columns plus rows-of-dicts, mirroring the engine's table shape."""

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        return [row.get(name) for row in self.rows]


class _Indexes:
    """Record lookups of one database, built on first use."""

    def __init__(self, db: ForestDatabase):
        self._db = weakref.ref(db)  # a strong one would keep the cache key alive

    @property
    def db(self) -> ForestDatabase:
        return self._db()

    @functools.cached_property
    def plot_by_cn(self) -> dict:
        return {p.cn: p for p in self.db.plots}

    @functools.cached_property
    def assignments_by_eval(self) -> dict:
        """Assignments keyed by the evaluation they reach through their stratum."""
        out: dict = {}
        for a in self.db.assignments:
            stratum = self.db.stratum_by_cn.get(a.stratum_cn)
            unit = self.db.unit_by_cn.get(stratum.estn_unit_cn) if stratum else None
            if unit is not None:
                out.setdefault(unit.evalid, []).append(a)
        return out

    def _by_plot(self, records) -> dict:
        out: dict = {}
        for r in records:
            out.setdefault(r.plt_cn, []).append(r)
        return out

    conds_by_plot = functools.cached_property(lambda self: self._by_plot(self.db.conds))
    trees_by_plot = functools.cached_property(lambda self: self._by_plot(self.db.trees))
    seedlings_by_plot = functools.cached_property(lambda self: self._by_plot(self.db.seedlings))
    dwm_by_plot = functools.cached_property(lambda self: self._by_plot(self.db.dwm))
    invasives_by_plot = functools.cached_property(lambda self: self._by_plot(self.db.invasives))


_INDEXES: "weakref.WeakKeyDictionary[ForestDatabase, _Indexes]" = weakref.WeakKeyDictionary()


def _indexes(db: ForestDatabase) -> _Indexes:
    if db not in _INDEXES:
        _INDEXES[db] = _Indexes(db)
    return _INDEXES[db]


# --------------------------------------------------------------------------
# Request plumbing (duck-typed so any options object with the same field
# names works; no import of the engine's request class needed).
# --------------------------------------------------------------------------


def _opt(req, name, default):
    if req is None:
        return default
    return getattr(req, name, default)


class _Req:
    def __init__(self, request, kw):
        def pick(name, default):
            return kw.get(name, _opt(request, name, default))

        grp = pick("grp_by", ())
        if isinstance(grp, str):
            grp = (grp,)
        self.grp_by = tuple(str(g).strip().upper() for g in grp)
        self.tree_domain = pick("tree_domain", None)
        self.area_domain = pick("area_domain", None)
        self.by_species = bool(pick("by_species", False))
        self.by_size_class = bool(pick("by_size_class", False))
        self.method = str(pick("method", "TI")).upper()
        lams = pick("lambdas", (0.5,))
        if isinstance(lams, (int, float)):
            lams = (float(lams),)
        self.lambdas = sorted({float(x) for x in lams}) or [0.5]
        self.basis = pick("basis", "BA")
        self.board_feet = bool(pick("board_feet", False))
        if pick("polys", None) is not None:
            raise ValueError("the reference estimator does not take polygons")


# --------------------------------------------------------------------------
# Family tables: components, defaults, and evaluation types.
# --------------------------------------------------------------------------

_LIVE1 = "STATUSCD == 1 & DIA >= 1.0"

_FAMILY = {
    "tpa": dict(
        kind="tree",
        types=[{"VOL"}],
        record="TREE",
        base=_LIVE1,
        comps=[("TPA", "area"), ("BAA", "area")],
        nplots=[("nPlots_TREE", "num"), ("nPlots_AREA", "den")],
    ),
    "biomass": dict(
        kind="tree",
        types=[{"VOL"}],
        record="TREE",
        base=_LIVE1,
        comps=[
            ("NETVOL_ACRE", "area"),
            ("SAWVOL_ACRE", "area"),
            ("BIO_AG_ACRE", "area"),
            ("BIO_BG_ACRE", "area"),
            ("BIO_ACRE", "area"),
            ("CARB_AG_ACRE", "area"),
            ("CARB_BG_ACRE", "area"),
            ("CARB_ACRE", "area"),
        ],
        nplots=[("nPlots_VOL", "num"), ("nPlots_AREA", "den")],
    ),
    "area": dict(
        kind="area",
        types=[{"VOL"}],
        record=None,
        base=None,
        comps=[("AREA_TOTAL", "none")],
        nplots=[("nPlots_AREA", "num")],
    ),
    "growMort": dict(
        kind="growmort",
        types=[{"GRM", "CHNG"}],
        record="TREE",
        base="DIA >= 5.0",
        comps=[("RECR_TPA", "area"), ("MORT_TPA", "area"), ("REMV_TPA", "area")],
        nplots=[("nPlots_TREE", "num"), ("nPlots_AREA", "den")],
    ),
    "vitalRates": dict(
        kind="vital",
        types=[{"GRM", "CHNG"}],
        record="TREE",
        base="COMPONENT == 'SURVIVOR' & DIA >= 5.0 & PREVDIA > 0",
        comps=[
            ("DIA_GROW", "trees"),
            ("BA_GROW", "trees"),
            ("NETVOL_GROW", "trees"),
            ("BIO_GROW", "trees"),
            ("DIA_GROW_AC", "area"),
            ("BA_GROW_AC", "area"),
            ("NETVOL_GROW_AC", "area"),
            ("BIO_GROW_AC", "area"),
        ],
        nplots=[("nPlots_TREE", "num"), ("nPlots_AREA", "den")],
    ),
    "dwm": dict(
        kind="dwm",
        types=[{"DWM"}, {"VOL"}],
        record="COND_DWM_CALC",
        base=None,
        comps=[("VOL_ACRE", "area"), ("BIO_ACRE", "area"), ("CARB_ACRE", "area")],
        nplots=[("nPlots_DWM", "num"), ("nPlots_AREA", "den")],
        family_col=("FUEL_TYPE", FUEL_TYPES),
    ),
    "diversity": dict(
        kind="diversity",
        types=[{"VOL"}],
        record="TREE",
        base=_LIVE1,
        comps=[("H", "area"), ("S", "area"), ("Eh", "area")],
        nplots=[("nPlots_TREE", "num"), ("nPlots_AREA", "den")],
    ),
    "invasive": dict(
        kind="invasive",
        types=[{"VOL"}],
        record="INVASIVE_SUBPLOT_SPP",
        base=None,
        comps=[("COVER_PCT", "area")],
        nplots=[("nPlots_INV", "num"), ("nPlots_AREA", "den")],
        species_default=True,
    ),
    "seedling": dict(
        kind="seedling",
        types=[{"VOL"}],
        record="SEEDLING",
        base=None,
        comps=[("TPA", "area")],
        nplots=[("nPlots_TREE", "num"), ("nPlots_AREA", "den")],
    ),
    "standStruct": dict(
        kind="struct",
        types=[{"VOL"}],
        record=None,
        base=None,
        comps=[("PERC_AREA", "area")],
        nplots=[("nPlots", "den")],
        family_col=("STAGE", _STAGES),
    ),
}


def _ba(dia):
    return _BA * dia * dia if dia is not None else 0.0


def _classes(value, width=2.0, lower=1.0):
    if value is None:
        return None

    def num(x):
        return str(int(x)) if float(x).is_integer() else repr(float(x))

    if value < lower:
        return f"< {num(lower)}"
    k = math.floor((value - lower) / width)
    a = lower + k * width
    return f"[{num(a)}, {num(a + width)})"


# --------------------------------------------------------------------------
# Namespaces: resolve a column name to the table layer that owns it.
# --------------------------------------------------------------------------


def _layer_columns(db: ForestDatabase, table: str) -> dict[str, str]:
    kinds = dict(TABLES[table].column_kinds())
    spec = TABLES[table]
    for rec in getattr(db, spec.db_field):
        for name in rec.extras:
            kinds.setdefault(name, "text")
    return kinds


def _namespaces(db: ForestDatabase, record_table):
    kinds: dict[str, str] = {}
    layer: dict[str, str] = {}
    stack = [("plot", "PLOT"), ("cond", "COND")]
    if record_table is not None:
        stack.append(("record", record_table))
    for lname, table in stack:
        for col, kind in _layer_columns(db, table).items():
            kinds[col] = kind
            layer[col] = lname
    return kinds, layer


def _value_of(layer, col, plot, cond, rec):
    where = layer.get(col)
    src = {"record": rec, "cond": cond, "plot": plot}.get(where)
    if src is None:
        return None
    return record_value(src, col)


def _passes(dom, layer, plot, cond, rec) -> bool:
    if dom is None:
        return True
    return dom.indicator(lambda c: _value_of(layer, c, plot, cond, rec)) == 1


# --------------------------------------------------------------------------
# Evaluation selection and panels.
# --------------------------------------------------------------------------


def _eval_type(ev):
    return ev.eval_typ if ev.eval_typ is not None else "VOL"


def _report_year(evals):
    years = [e.report_year for e in evals if e.report_year is not None]
    if years:
        return max(years)
    ends = [e.end_invyr for e in evals if e.end_invyr is not None]
    if ends:
        return max(ends)
    raise EstimationError("evaluation lacks both REPORT_YEAR and END_INVYR")


def _eval_groups(db: ForestDatabase, fam, family_name):
    chosen = []
    for types in fam["types"]:
        chosen = [e for e in db.evaluations if _eval_type(e) in types]
        if chosen:
            break
    if not chosen:
        present = sorted({_eval_type(e) for e in db.evaluations})
        wanted = " or ".join(sorted(set().union(*map(set, fam["types"]))))
        raise EstimationError(
            f"{family_name} needs a {wanted} evaluation; database has "
            f"{', '.join(present) if present else 'no evaluations'}"
        )
    groups: dict[int, list] = {}
    for ev in sorted(chosen, key=lambda e: (e.report_year or 0, e.statecd or 0, e.evalid)):
        groups.setdefault(_report_year([ev]), []).append(ev)
    return [groups[y] for y in sorted(groups)]


def _most_recent(groups):
    latest: dict = {}
    for group in groups:
        year = _report_year(group)
        for ev in group:
            st = ev.statecd
            if st not in latest or year > latest[st]:
                latest[st] = year
    kept = []
    for group in groups:
        year = _report_year(group)
        subset = [ev for ev in group if latest.get(ev.statecd) == year]
        if subset:
            kept.append(subset)
    return kept


def _panel_axis(db: ForestDatabase, evals):
    years: set[int] = set()
    observed: set[int] = set()
    for ev in evals:
        if ev.start_invyr is not None and ev.end_invyr is not None:
            years.update(range(ev.start_invyr, ev.end_invyr + 1))
        for a in _indexes(db).assignments_by_eval.get(ev.evalid, ()):
            if a.invyr is not None:
                observed.add(a.invyr)
            else:
                p = _indexes(db).plot_by_cn.get(a.plt_cn)
                if p is not None:
                    observed.add(p.invyr)
    if not years:
        years = observed
    if not years:
        raise EstimationError("evaluation group has no panel years")
    return sorted(years)


def _method_weights(method, n, lam):
    if method == "SMA":
        return [1.0 / n] * n
    if method == "LMA":
        tot = n * (n + 1) / 2.0
        return [(p + 1) / tot for p in range(n)]
    if method == "EMA":
        terms = [lam ** (n - 1 - p) for p in range(n)]
        s = sum(terms)
        return [t / s for t in terms]
    raise ValueError(method)


# --------------------------------------------------------------------------
# Sample assembly (plots, strata, units) for an evaluation group.
# --------------------------------------------------------------------------


class _OSample:
    def __init__(self, plots, stratum_of, units, panel_year):
        self.plots = plots  # list of PlotRecord, sorted by cn
        self.stratum_of = stratum_of
        self.units = units  # list of (unit, [(stratum, [cn...])...])
        self.panel_year = panel_year  # cn -> panel year


def _collect_sample(db: ForestDatabase, evals, years=None) -> _OSample:
    wanted = set(years) if years is not None else None
    plots: dict[str, object] = {}
    stratum_of: dict[str, object] = {}
    panel_year: dict[str, int] = {}
    by_stratum: dict[str, list[str]] = {}
    for ev in evals:
        per_plot: dict[str, list[str]] = {}
        for a in _indexes(db).assignments_by_eval.get(ev.evalid, ()):
            per_plot.setdefault(a.plt_cn, []).append(a.stratum_cn)
        for cn, cns in per_plot.items():
            if len(cns) > 1:
                raise EstimationError(
                    f"evaluation {ev.evalid} assigns plot {cn} to strata {', '.join(cns)}"
                )
        for a in _indexes(db).assignments_by_eval.get(ev.evalid, ()):
            st = db.stratum_by_cn.get(a.stratum_cn)
            if st is None:
                raise EstimationError(f"assignment references unknown stratum {a.stratum_cn}")
            plot = _indexes(db).plot_by_cn.get(a.plt_cn)
            if plot is None:
                raise EstimationError(f"assignment references unknown plot {a.plt_cn}")
            year = a.invyr if a.invyr is not None else plot.invyr
            if wanted is not None and year not in wanted:
                continue
            plots[plot.cn] = plot
            stratum_of[plot.cn] = st
            panel_year[plot.cn] = year
            by_stratum.setdefault(st.cn, []).append(plot.cn)

    ordered = sorted(plots.values(), key=lambda p: p.cn)
    for cns in by_stratum.values():
        cns.sort()

    units = []
    for ev in evals:
        for unit in db.units_by_eval.get(ev.evalid, ()):
            strata = []
            any_plots = False
            for st in sorted(db.strata_by_unit.get(unit.cn, ()), key=lambda s: s.cn):
                cns = by_stratum.get(st.cn, [])
                strata.append((st, cns))
                if cns:
                    any_plots = True
            if not any_plots:
                continue
            if unit.area_used is None:
                raise EstimationError(f"estimation unit {unit.cn} lacks AREA_USED")
            units.append((unit, strata))
    return _OSample(ordered, stratum_of, units, panel_year)


# --------------------------------------------------------------------------
# Stratified statistics (plain loops; same conventions as documented on the
# output: single-plot strata carry zero variance, absent strata renormalize
# the remaining weights).
# --------------------------------------------------------------------------


def _stat_total(values: Mapping[str, float], sample: _OSample):
    """(total, variance, n_nonzero, n_plots) of per-plot values.

    Per unit, v = A^2/n * [sum_h W_h n_h v(ybar_h) + sum_h (1 - W_h) (n_h/n) v(ybar_h)]
    with v(ybar_h) = s2_h / n_h (Bechtold and Patterson 2005, GTR SRS-80).
    """
    total = 0.0
    variance = 0.0
    for unit, strata in sample.units:
        present = [(st, cns) for st, cns in strata if cns]
        wsum = 0.0
        for st, _ in present:
            if st.weight is None:
                raise EstimationError(f"stratum {st.cn} lacks STRATUM_WGT")
            wsum += st.weight
        if wsum <= 0:
            raise EstimationError(f"estimation unit {unit.cn} has no positive stratum weight")
        n = sum(len(cns) for _, cns in present)
        acc = 0.0
        for st, cns in present:
            w = st.weight / wsum
            vals = [values.get(cn, 0.0) for cn in cns]
            n_h = len(vals)
            mean = sum(vals) / n_h
            if n_h > 1:
                s2 = sum((v - mean) ** 2 for v in vals) / (n_h - 1)
            else:
                s2 = 0.0
            v_mean = s2 / n_h  # v(ybar_h), the variance of the stratum mean
            total += unit.area_used * w * mean
            acc += w * n_h * v_mean + (1.0 - w) * (n_h / n) * v_mean
        variance += (unit.area_used ** 2 / n) * acc
    nnz = sum(1 for p in sample.plots if values.get(p.cn, 0.0) != 0.0)
    return total, variance, nnz, len(sample.plots)


def _stat_cov(xs: Mapping[str, float], ys: Mapping[str, float], sample: _OSample):
    cov = 0.0
    for unit, strata in sample.units:
        present = [(st, cns) for st, cns in strata if cns]
        wsum = sum(st.weight for st, _ in present)
        n = sum(len(cns) for _, cns in present)
        acc = 0.0
        for st, cns in present:
            w = st.weight / wsum
            n_h = len(cns)
            xv = [xs.get(cn, 0.0) for cn in cns]
            yv = [ys.get(cn, 0.0) for cn in cns]
            if n_h > 1:
                mx = sum(xv) / n_h
                my = sum(yv) / n_h
                sxy = sum((a - mx) * (b - my) for a, b in zip(xv, yv)) / (n_h - 1)
            else:
                sxy = 0.0
            c_mean = sxy / n_h  # cov(xbar_h, ybar_h)
            acc += w * n_h * c_mean + (1.0 - w) * (n_h / n) * c_mean
        cov += (unit.area_used ** 2 / n) * acc
    return cov


def _ratio(num, num_var, den, den_var, cov):
    if den == 0:
        return None, None
    r = num / den
    raw = num_var + r * r * den_var - 2.0 * r * cov
    if raw < 0.0:
        scale = num_var + r * r * den_var + 2.0 * abs(r * cov)
        if -raw <= 1e-9 * max(scale, 1.0):
            raw = 0.0
        else:
            raise EstimationError(f"reference ratio variance went negative ({raw!r})")
    return r, raw / (den * den)


def _se_pct(est, var, nnz):
    if est is None or var is None or nnz < 2 or est == 0:
        return None
    if var == 0:
        return 0.0
    return 100.0 * math.sqrt(var) / abs(est)


# --------------------------------------------------------------------------
# Per-plot family values.
# --------------------------------------------------------------------------


class _PlotVals:
    __slots__ = ("num", "den_area", "den_tree", "species")

    def __init__(self):
        self.num: dict[tuple, list[float]] = {}
        self.den_area: dict[tuple, float] = {}
        self.den_tree: dict[tuple, float] = {}
        self.species: dict[tuple, float] = {}  # (gk..., spcd) -> abundance

    def bump(self, gk, i, v, ncomp):
        row = self.num.setdefault(gk, [0.0] * ncomp)
        row[i] += v


class _Ctx:
    """Everything fixed across plots for one request."""

    def __init__(self, db, name, fam, req):
        self.db = db
        self.name = name
        self.fam = fam
        self.req = req
        kinds, self.layer = _namespaces(db, fam["record"])
        area_kinds, self.area_layer = _namespaces(db, None)
        self.base = bind_domain(fam["base"], kinds) if fam["base"] else None
        self.tree_dom = (
            bind_domain(req.tree_domain, kinds) if req.tree_domain else None
        )
        self.area_dom = (
            bind_domain(req.area_domain, area_kinds) if req.area_domain else None
        )
        self.group_cols = self._groups()
        self.comps = list(fam["comps"])
        if name == "biomass" and req.board_feet:
            self.comps.append(("SAWVOL_BF_ACRE", "area"))
        self.species_on = req.by_species or fam.get("species_default", False)

    def _groups(self):
        cols = []  # (name, source) source in layer names + species/sizeclass/family
        for g in self.req.grp_by:
            where = self.layer.get(g)
            if where is None:
                raise EstimationError(f"unknown grouping column {g}")
            cols.append((g, where))
        names = {c for c, _ in cols}
        if (self.req.by_species or self.fam.get("species_default")) and "SPCD" not in names:
            cols.append(("SPCD", "species"))
        if self.req.by_size_class and "SIZE_CLASS" not in names:
            cols.append(("SIZE_CLASS", "sizeclass"))
        fcol = self.fam.get("family_col")
        if fcol is not None and fcol[0] not in names:
            cols.append((fcol[0], "family"))
        return cols

    def area_positions(self):
        out = []
        for i, (name, src) in enumerate(self.group_cols):
            if src in ("cond", "plot"):
                out.append(i)
        return out

    def key(self, plot, cond, rec, family_value=None):
        vals = []
        for name, src in self.group_cols:
            if src in ("record", "cond", "plot"):
                vals.append(_value_of({name: src}, name, plot, cond, rec))
            elif src == "species":
                vals.append(getattr(rec, "spcd", None))
            elif src == "sizeclass":
                vals.append(_classes(getattr(rec, "dia", None)))
            else:
                vals.append(family_value)
        return tuple(vals)

    def area_key(self, plot, cond):
        vals = []
        for name, src in self.group_cols:
            if src == "cond":
                vals.append(record_value(cond, name) if cond is not None else None)
            elif src == "plot":
                vals.append(record_value(plot, name))
        return tuple(vals)

    def project(self, gk):
        pos = self.area_positions()
        return tuple(gk[i] for i in pos)


def _forested(cond):
    return cond is not None and cond.cond_status_cd == FOREST_STATUS


def _tree_values(ctx, name, t):
    if name == "TPA":
        return 1.0
    if name == "BAA":
        return _ba(t.dia)
    if name == "NETVOL_ACRE":
        return t.volcfnet or 0.0
    if name == "SAWVOL_ACRE":
        return t.volcsnet or 0.0
    if name == "SAWVOL_BF_ACRE":
        return (t.volcsnet or 0.0) * _BF
    if name == "BIO_AG_ACRE":
        return (t.drybio_ag or 0.0) / _TON
    if name == "BIO_BG_ACRE":
        return (t.drybio_bg or 0.0) / _TON
    if name == "BIO_ACRE":
        return ((t.drybio_ag or 0.0) + (t.drybio_bg or 0.0)) / _TON
    if name == "CARB_AG_ACRE":
        return (t.carbon_ag or 0.0) / _TON
    if name == "CARB_BG_ACRE":
        return (t.carbon_bg or 0.0) / _TON
    if name == "CARB_ACRE":
        return ((t.carbon_ag or 0.0) + (t.carbon_bg or 0.0)) / _TON
    raise KeyError(name)


def _abund_value(ctx, t):
    if ctx.req.basis == "TPA":
        return 1.0
    return _ba(t.dia)


def _plot_values(ctx: _Ctx, plot, stratum) -> _PlotVals:
    db = ctx.db
    pv = _PlotVals()
    kind = ctx.fam["kind"]
    conds = sorted(_indexes(db).conds_by_plot.get(plot.cn, ()), key=lambda c: c.condid)
    cond_of = {c.condid: c for c in conds}
    adj_sub = stratum.adjustment(SUBPLOT)

    def area_ok(cond):
        return _passes(ctx.area_dom, ctx.area_layer, plot, cond, None)

    def den_fill():
        for cond in conds:
            if _forested(cond) and area_ok(cond):
                ak = ctx.area_key(plot, cond)
                pv.den_area[ak] = pv.den_area.get(ak, 0.0) + (
                    (cond.condprop_unadj or 0.0) * adj_sub
                )

    ncomp = len(ctx.comps)

    if kind == "area":
        for cond in conds:
            if _forested(cond) and area_ok(cond):
                gk = ctx.key(plot, cond, None)
                pv.bump(gk, 0, (cond.condprop_unadj or 0.0) * adj_sub, 1)
        return pv

    if kind == "struct":
        for cond in conds:
            if not (_forested(cond) and area_ok(cond)):
                continue
            pole = mature = late = 0.0
            for t in _indexes(db).trees_by_plot.get(plot.cn, ()):
                if t.condid != cond.condid or t.statuscd != 1:
                    continue
                if t.dia is None or t.dia < 5.0:
                    continue
                ba = _ba(t.dia) * (t.tpa_unadj or 0.0)
                if t.dia < 11.0:
                    pole += ba
                elif t.dia < 19.0:
                    mature += ba
                else:
                    late += ba
            total = pole + mature + late
            if total <= 0:
                continue
            if pole / total >= 0.67:
                stage = "POLE"
            elif mature / total >= 0.67:
                stage = "MATURE"
            elif late / total >= 0.67:
                stage = "LATE"
            else:
                stage = "MOSAIC"
            w = (cond.condprop_unadj or 0.0) * adj_sub
            gk = ctx.key(plot, cond, None, family_value=stage)
            pv.bump(gk, 0, 100.0 * w, 1)
            ak = ctx.area_key(plot, cond)
            pv.den_area[ak] = pv.den_area.get(ak, 0.0) + w
        return pv

    den_fill()

    if kind in ("tree", "diversity"):
        per_group: dict[tuple, dict] = {}
        for t in sorted(_indexes(db).trees_by_plot.get(plot.cn, ()), key=lambda t: t.cn):
            cond = cond_of.get(t.condid)
            if not _forested(cond):
                continue
            if not _passes(ctx.base, ctx.layer, plot, cond, t):
                continue
            if not _passes(ctx.tree_dom, ctx.layer, plot, cond, t):
                continue
            if not area_ok(cond):
                continue
            expand = (t.tpa_unadj or 0.0) * stratum.adjustment(t.sizer)
            gk = ctx.key(plot, cond, t)
            if kind == "tree":
                for i, (cname, _) in enumerate(ctx.comps):
                    pv.bump(gk, i, expand * _tree_values(ctx, cname, t), ncomp)
            else:
                a = _abund_value(ctx, t) * expand
                acc = per_group.setdefault(gk, {})
                acc[t.spcd] = acc.get(t.spcd, 0.0) + a
        if kind == "diversity":
            for gk, by_sp in per_group.items():
                x = pv.den_area.get(ctx.project(gk), 0.0)
                h, s, eh = _shannon_idx(by_sp.values())
                pv.bump(gk, 0, h * x, 4)
                pv.bump(gk, 1, s * x, 4)
                pv.bump(gk, 2, eh * x, 4)
                pv.bump(gk, 3, sum(by_sp.values()), 4)
                for sp, a in by_sp.items():
                    key = gk + (sp,)
                    pv.species[key] = pv.species.get(key, 0.0) + a
        return pv

    if kind == "growmort":
        remper = plot.remper
        if remper is None or remper <= 0:
            return pv
        for t in sorted(_indexes(db).trees_by_plot.get(plot.cn, ()), key=lambda t: t.cn):
            if t.component not in ("INGROWTH", "MORTALITY", "CUT"):
                continue
            cond = cond_of.get(t.condid)
            if not _forested(cond):
                continue
            if not _passes(ctx.base, ctx.layer, plot, cond, t):
                continue
            if not _passes(ctx.tree_dom, ctx.layer, plot, cond, t):
                continue
            if not area_ok(cond):
                continue
            adj = stratum.adjustment(t.sizer)
            gk = ctx.key(plot, cond, t)
            pv.bump(
                gk,
                0,
                ((t.tpagrow_unadj or 0.0) if t.component == "INGROWTH" else 0.0)
                / remper
                * adj,
                3,
            )
            pv.bump(
                gk,
                1,
                ((t.tpamort_unadj or 0.0) if t.component == "MORTALITY" else 0.0)
                / remper
                * adj,
                3,
            )
            pv.bump(
                gk,
                2,
                ((t.tparemv_unadj or 0.0) if t.component == "CUT" else 0.0)
                / remper
                * adj,
                3,
            )
        return pv

    if kind == "vital":
        remper = plot.remper
        if remper is None or remper <= 0:
            return pv
        for t in sorted(_indexes(db).trees_by_plot.get(plot.cn, ()), key=lambda t: t.cn):
            cond = cond_of.get(t.condid)
            if not _forested(cond):
                continue
            if not _passes(ctx.base, ctx.layer, plot, cond, t):
                continue
            if not _passes(ctx.tree_dom, ctx.layer, plot, cond, t):
                continue
            if not area_ok(cond):
                continue
            gx = t.tpagrow_unadj if t.tpagrow_unadj is not None else t.tpa_unadj
            gx = (gx or 0.0) * stratum.adjustment(t.sizer)
            shrink = (t.prevdia / t.dia) ** 2
            vals = [
                (t.dia - t.prevdia) / remper,
                (_ba(t.dia) - _ba(t.prevdia)) / remper,
                (t.volcfnet or 0.0) * (1 - shrink) / remper,
                (t.drybio_ag or 0.0) / _TON * (1 - shrink) / remper,
            ]
            gk = ctx.key(plot, cond, t)
            for i, v in enumerate(vals):
                pv.bump(gk, i, gx * v, 8)
                pv.bump(gk, i + 4, gx * v, 8)
            pv.den_tree[gk] = pv.den_tree.get(gk, 0.0) + gx
        return pv

    if kind == "dwm":
        for rec in _indexes(db).dwm_by_plot.get(plot.cn, ()):
            cond = cond_of.get(rec.condid)
            if not (_forested(cond) and area_ok(cond)):
                continue
            w = (cond.condprop_unadj or 0.0) * adj_sub
            gk = ctx.key(plot, cond, rec, family_value=rec.fuel_type)
            pv.bump(gk, 0, (rec.vol_acre or 0.0) * w, 3)
            pv.bump(gk, 1, (rec.bio_acre or 0.0) * w, 3)
            pv.bump(gk, 2, (rec.carb_acre or 0.0) * w, 3)
        return pv

    if kind == "invasive":
        raw = plot.extras.get("INVASIVE_SAMPLING_STATUS_CD")
        if raw not in (None, ""):
            try:
                sampled = float(raw) == 1.0
            except ValueError:
                sampled = False
        else:
            sampled = True
        if not sampled:
            pv.den_area.clear()
            return pv
        for rec in _indexes(db).invasives_by_plot.get(plot.cn, ()):
            cond = cond_of.get(rec.condid)
            if not (_forested(cond) and area_ok(cond)):
                continue
            if not _passes(ctx.tree_dom, ctx.layer, plot, cond, rec):
                continue
            gk = ctx.key(plot, cond, rec)
            pv.bump(gk, 0, (rec.cover_pct or 0.0) * (cond.condprop_unadj or 0.0) * adj_sub, 1)
        return pv

    if kind == "seedling":
        adj_m = stratum.adjustment(MICROPLOT)
        for s in _indexes(db).seedlings_by_plot.get(plot.cn, ()):
            cond = cond_of.get(s.condid)
            if not (_forested(cond) and area_ok(cond)):
                continue
            if not _passes(ctx.tree_dom, ctx.layer, plot, cond, s):
                continue
            gk = ctx.key(plot, cond, s)
            pv.bump(gk, 0, (s.treecount or 0) * (s.tpa_unadj or 0.0) * adj_m, 1)
        return pv

    raise AssertionError(f"unhandled family kind {kind}")


def _shannon_idx(abundances):
    total = 0.0
    positive = []
    for a in abundances:
        if a > 0:
            positive.append(a)
            total += a
    if total <= 0:
        return 0.0, 0, 0.0
    h = -sum((a / total) * math.log(a / total) for a in positive)
    s = len(positive)
    eh = h / math.log(s) if s > 1 else 0.0
    return h, s, eh


# --------------------------------------------------------------------------
# One full pass: every plot walked, every group totalled.
# --------------------------------------------------------------------------


class _PassResult:
    def __init__(self):
        self.groups: set[tuple] = set()
        self.num: dict[tuple, list] = {}  # gk -> [(tot,var,nnz)...] per comp
        self.cov: dict[tuple, list[float]] = {}
        self.den_area: dict[tuple, tuple] = {}
        self.den_tree: dict[tuple, tuple] = {}
        self.nonzero: dict[tuple, int] = {}
        self.species: dict[tuple, float] = {}
        self.n_plots = 0


def _run_pass(ctx: _Ctx, sample: _OSample) -> _PassResult:
    per_plot = {p.cn: _plot_values(ctx, p, sample.stratum_of[p.cn]) for p in sample.plots}
    out = _PassResult()
    out.n_plots = len(sample.plots)
    ncomp = len(ctx.comps)

    groups: set[tuple] = set()
    aks: set[tuple] = set()
    tks: set[tuple] = set()
    sps: set[tuple] = set()
    for pv in per_plot.values():
        groups.update(pv.num)
        aks.update(pv.den_area)
        tks.update(pv.den_tree)
        sps.update(pv.species)
    out.groups = groups

    den_series: dict[tuple, dict[str, float]] = {
        ak: {cn: per_plot[cn].den_area.get(ak, 0.0) for cn in per_plot} for ak in aks
    }
    for ak, series in den_series.items():
        out.den_area[ak] = _stat_total(series, sample)
    tree_series: dict[tuple, dict[str, float]] = {
        tk: {cn: per_plot[cn].den_tree.get(tk, 0.0) for cn in per_plot} for tk in tks
    }
    for tk, series in tree_series.items():
        out.den_tree[tk] = _stat_total(series, sample)

    ndiv = 4 if ctx.fam["kind"] == "diversity" else ncomp
    for gk in groups:
        per_comp = []
        covs = []
        any_nonzero = {cn: False for cn in per_plot}
        for ci in range(ndiv):
            series = {}
            for cn, pv in per_plot.items():
                row = pv.num.get(gk)
                v = row[ci] if row is not None else 0.0
                series[cn] = v
                if v != 0.0:
                    any_nonzero[cn] = True
            if ci < ncomp:
                per_comp.append(_stat_total(series, sample))
                den = ctx.comps[ci][1]
                if den == "area":
                    covs.append(
                        _stat_cov(series, den_series.get(ctx.project(gk), {}), sample)
                    )
                elif den == "trees":
                    covs.append(
                        _stat_cov(series, tree_series.get(gk, {}), sample)
                    )
                else:
                    covs.append(0.0)
            else:
                # hidden abundance slot: counted for non-zero plots only
                pass
        out.num[gk] = per_comp
        out.cov[gk] = covs
        out.nonzero[gk] = sum(1 for flag in any_nonzero.values() if flag)
    for key in sps:
        series = {cn: per_plot[cn].species.get(key, 0.0) for cn in per_plot}
        out.species[key] = _stat_total(series, sample)[0]
    return out


def _zero_stats(n_plots):
    return (0.0, 0.0, 0, n_plots)


def _combine(ctx: _Ctx, passes, weights) -> _PassResult:
    out = _PassResult()
    out.n_plots = sum(p.n_plots for p in passes)
    groups = set()
    for p in passes:
        groups.update(p.groups)
    out.groups = groups
    ncomp = len(ctx.comps)

    def mix(stats_list):
        tot = sum(w * s[0] for w, s in zip(weights, stats_list))
        var = sum(w * w * s[1] for w, s in zip(weights, stats_list))
        nnz = sum(s[2] for s in stats_list)
        n = sum(s[3] for s in stats_list)
        return (tot, var, nnz, n)

    for gk in groups:
        per_comp = []
        covs = []
        for ci in range(ncomp):
            stats_list = [
                p.num[gk][ci] if gk in p.num else _zero_stats(p.n_plots) for p in passes
            ]
            per_comp.append(mix(stats_list))
            covs.append(
                sum(
                    w * w * (p.cov[gk][ci] if gk in p.cov else 0.0)
                    for w, p in zip(weights, passes)
                )
            )
        out.num[gk] = per_comp
        out.cov[gk] = covs
        out.nonzero[gk] = sum(p.nonzero.get(gk, 0) for p in passes)

    aks = {k for p in passes for k in p.den_area}
    for ak in aks:
        out.den_area[ak] = mix(
            [p.den_area.get(ak, _zero_stats(p.n_plots)) for p in passes]
        )
    tks = {k for p in passes for k in p.den_tree}
    for tk in tks:
        out.den_tree[tk] = mix(
            [p.den_tree.get(tk, _zero_stats(p.n_plots)) for p in passes]
        )
    sps = {k for p in passes for k in p.species}
    for key in sps:
        out.species[key] = sum(
            w * p.species.get(key, 0.0) for w, p in zip(weights, passes)
        )
    return out


# --------------------------------------------------------------------------
# Rows and the public entry point.
# --------------------------------------------------------------------------


def _result_rows(ctx: _Ctx, result: _PassResult, year, lam):
    rows = []
    diversity = ctx.fam["kind"] == "diversity"
    for gk in sorted(result.groups, key=lambda k: tuple(repr(v) for v in k)):
        row = {}
        if lam is not None:
            row["lambda"] = lam
        row["YEAR"] = year
        for (name, _), v in zip(ctx.group_cols, gk):
            row[name] = v
        den_stats = result.den_area.get(ctx.project(gk), _zero_stats(result.n_plots))
        for ci, (cname, den_kind) in enumerate(ctx.comps):
            tot, var, nnz, _ = result.num[gk][ci]
            if den_kind == "none":
                est, pvar = tot, var
            else:
                if den_kind == "area":
                    dtot, dvar, _, _ = den_stats
                else:
                    dtot, dvar, _, _ = result.den_tree.get(
                        gk, _zero_stats(result.n_plots)
                    )
                est, pvar = _ratio(tot, var, dtot, dvar, result.cov[gk][ci])
            row[cname] = est
            row[cname + "_SE"] = _se_pct(est, pvar, nnz)
            row[cname + "_VAR"] = pvar
        if diversity:
            sp_totals = [
                max(t, 0.0)
                for key, t in result.species.items()
                if key[:-1] == gk
            ]
            h, s, eh = _shannon_idx(sp_totals)
            row["H_POOLED"] = h
            row["S_POOLED"] = s
            row["Eh_POOLED"] = eh
        for label, kind in ctx.fam["nplots"]:
            if kind == "num":
                row[label] = result.nonzero.get(gk, 0)
            else:
                row[label] = den_stats[2]
        rows.append(row)
    return rows


def brute_force_estimate(
    db: ForestDatabase, family: str, request=None, **kw
) -> OracleTable:
    """Reference computation of any family's estimates on a small database."""
    if family not in _FAMILY:
        raise KeyError(family)
    fam = _FAMILY[family]
    req = _Req(request, kw)
    ctx = _Ctx(db, family, fam, req)

    groups = _eval_groups(db, fam, family)
    rows = []
    if req.method == "TI":
        for evals in groups:
            sample = _collect_sample(db, evals)
            res = _run_pass(ctx, sample)
            rows.extend(_result_rows(ctx, res, _report_year(evals), None))
    elif req.method == "ANNUAL":
        for evals in _most_recent(groups):
            for year in _panel_axis(db, evals):
                sample = _collect_sample(db, evals, years=[year])
                if not sample.plots:
                    continue
                res = _run_pass(ctx, sample)
                rows.extend(_result_rows(ctx, res, year, None))
    else:
        for evals in groups:
            years = _panel_axis(db, evals)
            passes = []
            present = []
            for year in years:
                sample = _collect_sample(db, evals, years=[year])
                if sample.plots:
                    passes.append(_run_pass(ctx, sample))
                    present.append(True)
                else:
                    passes.append(None)
                    present.append(False)
            year_label = _report_year(evals)
            lams = req.lambdas if req.method == "EMA" else [None]
            for lam in lams:
                weights = _method_weights(
                    req.method, len(years), lam if lam is not None else 0.5
                )
                kept_w = [w for w, ok in zip(weights, present) if ok]
                if not kept_w:
                    raise EstimationError("no panels with plots in evaluation group")
                scale = sum(kept_w)
                kept_w = [w / scale for w in kept_w]
                kept_p = [p for p in passes if p is not None]
                res = _combine(ctx, kept_p, kept_w)
                rows.extend(_result_rows(ctx, res, year_label, lam))

    keys = ["YEAR"] if req.method != "EMA" else ["lambda", "YEAR"]
    keys += [name for name, _ in ctx.group_cols]
    columns = list(keys)
    for cname, _ in ctx.comps:
        columns += [cname, cname + "_SE", cname + "_VAR"]
    if fam["kind"] == "diversity":
        columns += ["H_POOLED", "S_POOLED", "Eh_POOLED"]
    columns += [label for label, _ in ctx.fam["nplots"]]
    table = OracleTable(columns, rows)
    table.key_columns = keys
    return table


# --------------------------------------------------------------------------
# Comparison helper for tests.
# --------------------------------------------------------------------------


def compare_tables(engine, reference, rel=1e-9) -> list[str]:
    """Differences between an engine table and a reference table.

    Rows are aligned on the reference's ``key_columns`` (lambda, YEAR, and
    the grouping columns); every other shared column is compared — estimates
    and variances at ``rel`` relative tolerance (with a tiny absolute floor
    so exact-zero cells match values within rounding of zero), plot counts
    and labels exactly.  Returns human-readable mismatch strings; an empty
    list means full agreement.
    """
    keys = list(getattr(reference, "key_columns", ())) or [
        c for c in ("lambda", "YEAR") if c in reference.columns
    ]
    missing = [k for k in keys if k not in engine.columns]
    if missing:
        return [f"engine output lacks key column(s) {', '.join(missing)}"]
    shared = [c for c in engine.columns if c in set(reference.columns) and c not in keys]

    def keyed(table):
        out = {}
        for row in table.rows:
            out[tuple(repr(row.get(k)) for k in keys)] = row
        return out

    a = keyed(engine)
    b = keyed(reference)
    problems = []
    for key in sorted(set(a) | set(b)):
        if key not in a:
            problems.append(f"row {key} only in reference output")
            continue
        if key not in b:
            problems.append(f"row {key} only in engine output")
            continue
        for c in shared:
            va, vb = a[key].get(c), b[key].get(c)
            if va is None and vb is None:
                continue
            if va is None or vb is None:
                problems.append(f"row {key} column {c}: engine {va!r} vs reference {vb!r}")
            elif isinstance(va, float) or isinstance(vb, float):
                if not _close(float(va), float(vb), rel):
                    problems.append(
                        f"row {key} column {c}: engine {va!r} vs reference {vb!r}"
                    )
            elif va != vb:
                problems.append(f"row {key} column {c}: engine {va!r} vs reference {vb!r}")
    return problems


def _close(a: float, b: float, rel: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), 1e-12)
