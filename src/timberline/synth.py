"""Synthetic databases for testing: tiny hand-checkable fixtures, a
randomized database generator, and Monte Carlo sampling experiments.

The named fixtures are small enough to verify with a pencil; every expected
number in the test suite traces back to arithmetic over these records.  The
randomized generator exercises the estimator against the brute-force
reference on messier shapes (multiple units, uneven strata, missing values,
mixed panels).  The Monte Carlo helpers draw repeated panel samples from a
fixed census so bias and variance of the estimators can be measured against
known truth.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

import numpy as np

from . import attributes
from .model import (
    FUEL_TYPES,
    ConditionRecord,
    DwmRecord,
    EstimationUnit,
    Evaluation,
    ForestDatabase,
    InvasiveRecord,
    PlotRecord,
    SeedlingRecord,
    SpeciesRef,
    Stratum,
    StratumAssignment,
    TreeRecord,
    derive_sizer,
)

__all__ = [
    "FIXTURE_NAMES",
    "build_fixture",
    "random_database",
    "SyntheticPopulation",
    "make_population",
    "draw_database",
    "monte_carlo_bias_variance",
    "MonteCarloSummary",
    "bootstrap_diff_ci",
]

FIXTURE_NAMES = ("SYNTH-1", "SYNTH-5PANEL", "SYNTH-GRM", "SYNTH-INV")

# Expansion factors for a standard four-subplot national-design plot.
_SUBP_TPA = 6.018046
_MICR_TPA = 74.965282

_SPECIES = (
    SpeciesRef(129, "eastern white pine", "Pinus", "Pinus strobus"),
    SpeciesRef(316, "red maple", "Acer", "Acer rubrum"),
    SpeciesRef(341, "ailanthus", "Ailanthus", "Ailanthus altissima"),
    SpeciesRef(833, "northern red oak", "Quercus", "Quercus rubra"),
)


def _population(evalid, statecd, eval_typ, report, start, end, area, strata_weights,
                adj=(1.0, 1.0)):
    """One evaluation + one estimation unit + its strata."""
    ev = Evaluation(evalid, statecd, eval_typ, report, start, end)
    unit = EstimationUnit(f"U{evalid}", evalid, area)
    strata = [
        Stratum(f"S{evalid}-{i}", unit.cn, w, adj[0], adj[1])
        for i, w in enumerate(strata_weights, start=1)
    ]
    return ev, unit, strata


def _forest_cond(plt_cn, owncd=46, fortypcd=505, prop=1.0, condid=1, stdage=60):
    return ConditionRecord(
        cn=f"C{plt_cn}-{condid}",
        plt_cn=plt_cn,
        condid=condid,
        cond_status_cd=1,
        condprop_unadj=prop,
        fortypcd=fortypcd,
        owncd=owncd,
        stdage=stdage,
    )


def _live_tree(cn, plt_cn, spcd, dia, tpa, condid=1, **kw):
    defaults = dict(
        statuscd=1,
        sizer=derive_sizer(dia),
        volcfnet=round(dia * 2.0, 4),
        volcsnet=round(dia * 1.2, 4) if dia >= 9.0 else 0.0,
        drybio_ag=round(dia * 50.0, 4),
        drybio_bg=round(dia * 10.0, 4),
        carbon_ag=round(dia * 25.0, 4),
        carbon_bg=round(dia * 5.0, 4),
    )
    defaults.update(kw)
    return TreeRecord(
        cn=cn, plt_cn=plt_cn, condid=condid, spcd=spcd, dia=dia, tpa_unadj=tpa,
        **defaults,
    )


def _synth_1() -> ForestDatabase:
    """Four fully forested plots under one stratum of weight 1.

    Live-tree sums per acre (tpa 6 each): P1 carries two 10-inch red maples,
    P2 one 20-inch white pine, P3 nothing, P4 one 6-inch red maple.  P1 and
    P2 sit on ownership 31, P3 and P4 on 46.  With a 1000-acre unit the
    per-acre tree density is (12 + 6 + 0 + 6) / 4 = 6.0.
    """
    ev, unit, strata = _population(91801, 9, "VOL", 2018, 2018, 2018, 1000.0, [1.0])
    plots = [
        PlotRecord("P1", 9, 1, 2018, 2018, 41.50, -73.00),
        PlotRecord("P2", 9, 2, 2018, 2018, 41.50, -72.90),
        PlotRecord("P3", 9, 3, 2018, 2018, 41.50, -72.60),
        PlotRecord("P4", 9, 4, 2018, 2018, 41.50, -72.50),
    ]
    conds = [
        _forest_cond("P1", owncd=31, fortypcd=505),
        _forest_cond("P2", owncd=31, fortypcd=401),
        _forest_cond("P3", owncd=46, fortypcd=505),
        _forest_cond("P4", owncd=46, fortypcd=505),
    ]
    trees = [
        _live_tree("T1", "P1", 316, 10.0, 6.0),
        _live_tree("T2", "P1", 316, 10.0, 6.0),
        _live_tree("T3", "P2", 129, 20.0, 6.0),
        _live_tree("T4", "P4", 316, 6.0, 6.0),
    ]
    assignments = [StratumAssignment(p.cn, strata[0].cn, 2018) for p in plots]
    return ForestDatabase(
        plots=plots, conds=conds, trees=trees,
        evaluations=[ev], estn_units=[unit], strata=strata,
        assignments=assignments, species=list(_SPECIES),
    )


def _synth_5panel() -> ForestDatabase:
    """Five panels of four plots each, 2014-2018, density rising by panel.

    Plot j of panel t (t = 0..4, j = 0..3) carries one red maple with
    tpa_unadj = 4 + 2t + j, so the panel-t mean density is 5.5 + 2t:
    5.5, 7.5, 9.5, 11.5, 13.5.  Every moving-average value over these five
    numbers can be checked by hand.
    """
    ev, unit, strata = _population(91851, 9, "VOL", 2018, 2014, 2018, 1000.0, [1.0])
    plots, conds, trees, assignments = [], [], [], []
    for t in range(5):
        year = 2014 + t
        for j in range(4):
            k = 4 * t + j
            cn = f"Q{k + 1:02d}"
            plots.append(
                PlotRecord(cn, 9, 100 + k, year, year, 41.40 + 0.01 * k, -72.70)
            )
            conds.append(_forest_cond(cn, owncd=46, fortypcd=505))
            trees.append(_live_tree(f"QT{k + 1:02d}", cn, 316, 10.0, float(4 + 2 * t + j)))
            assignments.append(StratumAssignment(cn, strata[0].cn, year))
    return ForestDatabase(
        plots=plots, conds=conds, trees=trees,
        evaluations=[ev], estn_units=[unit], strata=strata,
        assignments=assignments, species=list(_SPECIES),
    )


def _synth_grm() -> ForestDatabase:
    """Two remeasured plots (REMPER 5) with one record per change class.

    Annualized per-acre rates over the 1000-acre unit:
      recruitment (1.5 + 1.0)/5/2 = 0.25, mortality (2.0 + 1.0)/5/2 = 0.30,
      harvest (1.0 + 1.0)/5/2 = 0.20.  Both survivors grew exactly one inch
      over the period, so diameter growth is 0.2 in/yr on every tree.
    """
    ev, unit, strata = _population(91862, 9, "GRM", 2018, 2018, 2018, 1000.0, [1.0])
    plots = [
        PlotRecord("R1", 9, 11, 2018, 2018, 41.55, -72.95, remper=5.0),
        PlotRecord("R2", 9, 12, 2018, 2018, 41.55, -72.85, remper=5.0),
    ]
    conds = [_forest_cond("R1"), _forest_cond("R2")]
    trees = [
        _live_tree("G1", "R1", 316, 11.0, 6.0, component="SURVIVOR", prevdia=10.0),
        _live_tree("G2", "R1", 129, 8.0, 0.0, statuscd=2, component="MORTALITY",
                   tpamort_unadj=2.0),
        _live_tree("G3", "R1", 316, 5.2, 0.0, component="INGROWTH",
                   tpagrow_unadj=1.5),
        _live_tree("G4", "R1", 129, 10.0, 0.0, statuscd=2, component="CUT",
                   tparemv_unadj=1.0),
        _live_tree("G5", "R2", 316, 15.5, 6.0, component="SURVIVOR", prevdia=14.5),
        _live_tree("G6", "R2", 129, 9.0, 0.0, statuscd=2, component="MORTALITY",
                   tpamort_unadj=1.0),
        _live_tree("G7", "R2", 316, 6.0, 0.0, component="INGROWTH",
                   tpagrow_unadj=1.0),
        _live_tree("G8", "R2", 129, 12.0, 0.0, statuscd=2, component="CUT",
                   tparemv_unadj=1.0),
    ]
    assignments = [StratumAssignment(p.cn, strata[0].cn, 2018) for p in plots]
    return ForestDatabase(
        plots=plots, conds=conds, trees=trees,
        evaluations=[ev], estn_units=[unit], strata=strata,
        assignments=assignments, species=list(_SPECIES),
    )


def _synth_inv() -> ForestDatabase:
    """Two plots carrying invasive cover, seedlings, fuel loads, and stands
    of contrasting structure.

    Invasive cover averages (60 + 40)/2 = 50 percent; seedling density
    averages (74.97 + 0)/2 = 37.485 per acre; 1HR fuel volume averages
    (1.5 + 0.5)/2 = 1.0.  V1's trees are all pole-sized and V2's all large,
    so structural stages split the forested area 50/50 POLE/LATE.
    """
    ev, unit, strata = _population(91871, 9, "VOL", 2018, 2018, 2018, 1000.0, [1.0])
    plots = [
        PlotRecord("V1", 9, 21, 2018, 2018, 41.45, -72.75,
                   extras={"INVASIVE_SAMPLING_STATUS_CD": "1"}),
        PlotRecord("V2", 9, 22, 2018, 2018, 41.45, -72.65,
                   extras={"INVASIVE_SAMPLING_STATUS_CD": "1"}),
    ]
    conds = [_forest_cond("V1"), _forest_cond("V2")]
    trees = [
        _live_tree("V1T1", "V1", 316, 6.0, 100.0),
        _live_tree("V2T1", "V2", 129, 20.5, 50.0),
    ]
    seedlings = [SeedlingRecord("V1", 1, 316, 1, 74.97)]
    dwm = [
        DwmRecord("V1", 1, "1HR", 1.5, 0.8, 0.4),
        DwmRecord("V1", 1, "DUFF", 10.0, 5.0, 2.5),
        DwmRecord("V2", 1, "1HR", 0.5, 0.4, 0.2),
    ]
    invasives = [
        InvasiveRecord("V1", 1, 341, 60.0),
        InvasiveRecord("V2", 1, 341, 40.0),
    ]
    assignments = [StratumAssignment(p.cn, strata[0].cn, 2018) for p in plots]
    return ForestDatabase(
        plots=plots, conds=conds, trees=trees, seedlings=seedlings,
        dwm=dwm, invasives=invasives,
        evaluations=[ev], estn_units=[unit], strata=strata,
        assignments=assignments, species=list(_SPECIES),
    )


_BUILDERS = {
    "SYNTH-1": _synth_1,
    "SYNTH-5PANEL": _synth_5panel,
    "SYNTH-GRM": _synth_grm,
    "SYNTH-INV": _synth_inv,
}


def build_fixture(name: str) -> ForestDatabase:
    """Construct one of the named fixture databases in memory."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; choose one of {', '.join(FIXTURE_NAMES)}"
        ) from None
    return builder()


# --------------------------------------------------------------------------
# Randomized databases for engine/reference cross-checks.
# --------------------------------------------------------------------------


def _rand_weights(rng: random.Random, k: int) -> list[float]:
    cuts = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(cuts)
    weights = [c / total for c in cuts[:-1]]
    weights.append(1.0 - sum(weights))
    return weights


def _rand_tree(rng: random.Random, cn: str, plt_cn: str, condid: int) -> TreeRecord:
    dia = round(rng.uniform(1.0, 28.0), 1)
    sizer = derive_sizer(dia)
    tpa = _MICR_TPA if sizer == "MICROPLOT" else _SUBP_TPA
    statuscd = 1 if rng.random() < 0.85 else 2
    component = None
    prevdia = tpamort = tparemv = tpagrow = None
    roll = rng.random()
    if dia >= 5.0 and roll < 0.55:
        if roll < 0.30:
            component = "SURVIVOR"
            prevdia = round(max(0.1, dia - rng.uniform(0.2, 2.0)), 1)
            if rng.random() < 0.5:
                tpagrow = round(rng.uniform(3.0, 7.0), 3)
        elif roll < 0.40:
            component = "MORTALITY"
            tpamort = round(rng.uniform(0.5, 3.0), 3)
        elif roll < 0.48:
            component = "INGROWTH"
            tpagrow = round(rng.uniform(0.5, 3.0), 3)
        else:
            component = "CUT"
            tparemv = round(rng.uniform(0.5, 3.0), 3)
    return TreeRecord(
        cn=cn, plt_cn=plt_cn, condid=condid, statuscd=statuscd,
        spcd=rng.choice((129, 316, 341, 833)), dia=dia, tpa_unadj=tpa,
        sizer=sizer,
        volcfnet=round(dia * rng.uniform(1.0, 3.0), 3),
        volcsnet=round(dia * rng.uniform(0.5, 1.5), 3) if dia >= 9.0 else 0.0,
        drybio_ag=round(dia * rng.uniform(30.0, 70.0), 2),
        drybio_bg=round(dia * rng.uniform(6.0, 14.0), 2),
        carbon_ag=round(dia * rng.uniform(15.0, 35.0), 2),
        carbon_bg=round(dia * rng.uniform(3.0, 7.0), 2),
        prevdia=prevdia, component=component,
        tpamort_unadj=tpamort, tparemv_unadj=tparemv, tpagrow_unadj=tpagrow,
    )


def random_database(seed: int) -> ForestDatabase:
    """A small randomized database with VOL and GRM evaluations.

    Shapes vary with the seed: one or two states, one or two estimation
    units per evaluation (at most four strata), one to three measurement
    panels, plots with one or two conditions, sprinkled seedling / fuel /
    invasive records, occasional missing REMPER and single-plot strata.
    Never exceeds 200 plots.
    """
    rng = random.Random(seed)
    statecds = [9] if rng.random() < 0.7 else [9, 44]
    panel_years = [2016, 2017, 2018][: rng.randint(1, 3)]

    plots: list[PlotRecord] = []
    conds: list[ConditionRecord] = []
    trees: list[TreeRecord] = []
    seedlings: list[SeedlingRecord] = []
    dwm: list[DwmRecord] = []
    invasives: list[InvasiveRecord] = []
    evaluations: list[Evaluation] = []
    units: list[EstimationUnit] = []
    strata: list[Stratum] = []
    assignments: list[StratumAssignment] = []

    for statecd in statecds:
        state_plots: list[PlotRecord] = []
        n_plots = rng.randint(10, 36)
        for k in range(n_plots):
            cn = f"{statecd}-{k:03d}"
            extras = {}
            if rng.random() < 0.5:
                extras["INVASIVE_SAMPLING_STATUS_CD"] = (
                    "1" if rng.random() < 0.8 else "2"
                )
            remper = None if rng.random() < 0.12 else round(rng.uniform(4.5, 5.5), 1)
            plot = PlotRecord(
                cn, statecd, 1000 + k, rng.choice(panel_years),
                measyear=2018, lat=round(rng.uniform(41.0, 42.0), 4),
                lon=round(rng.uniform(-73.5, -71.5), 4), remper=remper,
                extras=extras,
            )
            plots.append(plot)
            state_plots.append(plot)

            n_conds = 1 if rng.random() < 0.7 else 2
            props = [1.0] if n_conds == 1 else [0.625, 0.375]
            for condid in range(1, n_conds + 1):
                status = 1 if rng.random() < 0.85 else 2
                conds.append(
                    ConditionRecord(
                        cn=f"C{cn}-{condid}", plt_cn=cn, condid=condid,
                        cond_status_cd=status, condprop_unadj=props[condid - 1],
                        fortypcd=rng.choice((161, 406, 505)),
                        owncd=rng.choice((11, 31, 46)),
                        stdage=rng.randint(10, 120),
                    )
                )
                for ti in range(rng.randint(0, 4)):
                    trees.append(_rand_tree(rng, f"T{cn}-{condid}-{ti}", cn, condid))
                if rng.random() < 0.3:
                    seedlings.append(
                        SeedlingRecord(
                            cn, condid, rng.choice((129, 316)),
                            rng.randint(1, 6), _MICR_TPA,
                        )
                    )
                if rng.random() < 0.35:
                    for fuel in rng.sample(FUEL_TYPES, rng.randint(1, 4)):
                        dwm.append(
                            DwmRecord(
                                cn, condid, fuel,
                                round(rng.uniform(0.1, 12.0), 3),
                                round(rng.uniform(0.1, 6.0), 3),
                                round(rng.uniform(0.05, 3.0), 3),
                            )
                        )
                if rng.random() < 0.3:
                    invasives.append(
                        InvasiveRecord(
                            cn, condid, rng.choice((341, 1001)),
                            round(rng.uniform(1.0, 60.0), 1),
                        )
                    )

        # One VOL and one GRM evaluation per state, same plots, separate
        # population rows.  Sometimes starts/ends are absent so the panel
        # axis falls back to the observed years.
        for eval_typ, tag in (("VOL", 1), ("GRM", 3)):
            evalid = statecd * 10000 + 1800 + tag
            explicit_range = rng.random() < 0.7
            evaluations.append(
                Evaluation(
                    evalid, statecd, eval_typ, 2018,
                    min(panel_years) if explicit_range else None,
                    max(panel_years) if explicit_range else None,
                )
            )
            n_units = 1 if rng.random() < 0.6 else 2
            unit_plots = [state_plots[i::n_units] for i in range(n_units)]
            for ui in range(n_units):
                unit_cn = f"U{evalid}-{ui}"
                units.append(
                    EstimationUnit(unit_cn, evalid, round(rng.uniform(400.0, 4000.0), 1))
                )
                n_strata = rng.randint(1, 2)
                weights = _rand_weights(rng, n_strata)
                unit_strata = []
                for si in range(n_strata):
                    scn = f"S{evalid}-{ui}-{si}"
                    strata.append(
                        Stratum(
                            scn, unit_cn, weights[si],
                            round(rng.uniform(0.9, 1.3), 4),
                            round(rng.uniform(0.9, 1.3), 4),
                        )
                    )
                    unit_strata.append(scn)
                for plot in unit_plots[ui]:
                    invyr = plot.invyr if rng.random() < 0.9 else None
                    assignments.append(
                        StratumAssignment(plot.cn, rng.choice(unit_strata), invyr)
                    )

    return ForestDatabase(
        plots=plots, conds=conds, trees=trees, seedlings=seedlings,
        dwm=dwm, invasives=invasives,
        evaluations=evaluations, estn_units=units, strata=strata,
        assignments=assignments, species=list(_SPECIES),
    )


# --------------------------------------------------------------------------
# Monte Carlo experiments.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticPopulation:
    """A finite census of stands sampled by rotating panels.

    Each stand carries a fixed per-acre density at ``start_year``; ``trend``
    shifts every stand linearly per year.  True values are exact census
    enumerations, so estimator bias can be measured without approximation.
    """

    stands: tuple[float, ...]
    start_year: int = 2014
    n_panels: int = 5
    plots_per_panel: int = 20
    trend: float = 0.0
    area: float = 1000.0

    @property
    def report_year(self) -> int:
        return self.start_year + self.n_panels - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.start_year + self.n_panels)

    def stand_value(self, index: int, year: int) -> float:
        return self.stands[index] + self.trend * (year - self.start_year)

    def true_mean(self, year: int) -> float:
        """Census mean per-acre density in ``year``."""
        return statistics.fmean(self.stands) + self.trend * (year - self.start_year)


def make_population(
    seed: int = 20180501,
    n_stands: int = 4000,
    base: float = 120.0,
    sd: float = 20.0,
    trend: float = 0.0,
    plots_per_panel: int = 20,
) -> SyntheticPopulation:
    """Build a census of normally distributed stand densities.

    Values are clamped at 25 so a declining trend cannot push sampled
    densities negative; the census truth is computed from the clamped
    values, so the clamp introduces no bias in the comparison.
    """
    rng = random.Random(seed)
    stands = tuple(max(25.0, rng.gauss(base, sd)) for _ in range(n_stands))
    return SyntheticPopulation(
        stands=stands, trend=trend, plots_per_panel=plots_per_panel
    )


def draw_database(pop: SyntheticPopulation, seed: int) -> ForestDatabase:
    """One panel-sample draw from the population as a loadable database."""
    rng = random.Random(seed)
    ev = Evaluation(99901, 9, "VOL", pop.report_year, pop.start_year, pop.report_year)
    unit = EstimationUnit("U99901", 99901, pop.area)
    stratum = Stratum("S99901", "U99901", 1.0, 1.0, 1.0)
    plots, conds, trees, assignments = [], [], [], []
    k = 0
    for year in pop.years:
        for _ in range(pop.plots_per_panel):
            k += 1
            cn = f"M{k:04d}"
            value = pop.stand_value(rng.randrange(len(pop.stands)), year)
            plots.append(PlotRecord(cn, 9, 5000 + k, year, year, 41.5, -72.7))
            conds.append(_forest_cond(cn))
            trees.append(
                TreeRecord(
                    cn=f"MT{k:04d}", plt_cn=cn, condid=1, statuscd=1, spcd=316,
                    dia=10.0, tpa_unadj=value, sizer="SUBPLOT",
                )
            )
            assignments.append(StratumAssignment(cn, "S99901", year))
    return ForestDatabase(
        plots=plots, conds=conds, trees=trees,
        evaluations=[ev], estn_units=[unit], strata=[stratum],
        assignments=assignments, species=list(_SPECIES),
    )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Replicate statistics for one estimator on one population."""

    method: str
    mean_estimate: float
    empirical_variance: float
    mean_reported_variance: float
    lag_bias: float
    estimates: tuple[float, ...]
    reported_variances: tuple[float, ...]


def _report_row(table, year) -> int:
    """The index of the table's last row of ``year``."""
    years = table.column("YEAR")
    if year not in years:
        raise LookupError(f"no output row for year {year}")
    return len(years) - 1 - years[::-1].index(year)


def monte_carlo_bias_variance(
    population: SyntheticPopulation,
    estimator_method,
    replicates: int,
    seed: int = 20180501,
    lam: float = 0.5,
) -> dict[str, MonteCarloSummary]:
    """Replicate panel draws and summarize each estimator's behavior.

    ``estimator_method`` is one method name or a sequence of them; all
    methods see exactly the same replicate databases, so their summaries
    are paired.  Replicate r draws its records from an independent stream
    seeded by (seed, r); results are keyed by method name.
    """
    methods = (
        [estimator_method] if isinstance(estimator_method, str) else list(estimator_method)
    )
    truth_now = population.true_mean(population.report_year)
    values: dict[str, list[float]] = {m: [] for m in methods}
    reported: dict[str, list[float]] = {m: [] for m in methods}
    for r in range(replicates):
        db = draw_database(population, seed * 1_000_003 + r)
        for m in methods:
            table = attributes.tpa(db, method=m, lambdas=(lam,), variance=True)
            row = _report_row(table, population.report_year)
            values[m].append(table.cell(row, "TPA"))
            reported[m].append(table.cell(row, "TPA_VAR"))
    out = {}
    for m in methods:
        est = values[m]
        mean_est = statistics.fmean(est)
        out[m] = MonteCarloSummary(
            method=m,
            mean_estimate=mean_est,
            empirical_variance=statistics.variance(est),
            mean_reported_variance=statistics.fmean(reported[m]),
            lag_bias=abs(mean_est - truth_now),
            estimates=tuple(est),
            reported_variances=tuple(reported[m]),
        )
    return out


def _randrange_draws(seed: int, n: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``random.Random(seed).randrange(n)``.

    CPython draws randrange(n) as the top n.bit_length() bits of one 32-bit
    Mersenne Twister output, rejecting values >= n.  numpy's MT19937 loaded
    with the same state gives the same outputs, so the stream is drawn in
    blocks instead of one call per index (for n below 2**32).
    """
    state = random.Random(seed).getstate()[1]
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    shift = 32 - n.bit_length()
    out = np.zeros(0, dtype=np.int64)
    while len(out) < count:
        need = count - len(out)  # each draw is accepted with probability above 1/2
        draws = (bits.random_raw(2 * need + 16) >> shift).astype(np.int64)
        out = np.concatenate([out, draws[draws < n]])
    return out[:count]


def bootstrap_diff_ci(
    x, y, stat, n_boot: int = 1000, seed: int = 7, level: float = 0.95
) -> tuple[float, float]:
    """Percentile bootstrap CI for stat(x) - stat(y), resampled pairwise.

    ``x`` and ``y`` must be replicate-aligned sequences (same draws); each
    bootstrap iteration resamples replicate indices once and applies them
    to both, so the difference reflects the estimators, not the draws.
    The resamples are those of ``rng.randrange(n)`` calls on
    ``random.Random(seed)``, drawn at once.
    """
    if len(x) != len(y):
        raise ValueError("bootstrap inputs must be the same length")
    n = len(x)
    draws = _randrange_draws(seed, n, n * n_boot).reshape(n_boot, n).tolist()
    diffs = sorted(stat(list(map(x.__getitem__, idx))) - stat(list(map(y.__getitem__, idx)))
                   for idx in draws)
    alpha = (1.0 - level) / 2.0
    lo = diffs[max(0, math.floor(alpha * n_boot))]
    hi = diffs[min(n_boot - 1, math.ceil((1.0 - alpha) * n_boot) - 1)]
    return lo, hi
