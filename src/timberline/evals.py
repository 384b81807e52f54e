"""Finding evaluations and clipping a database down to them.

An *evaluation* names a complete, internally consistent sample: a set of
plots, their stratification, and the acreage it expands to.  Everything else
in the package estimates within evaluations, so the usual first step is to
pick the ones you mean — most recent per state, a specific report year, or
explicit ids — and drop the rest of the data.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EstimationError, UsageError
from .model import ASSIGNMENTS, Evaluation, ForestDatabase, typed_equality

__all__ = ["ClipOptions", "find_evaluations", "clip"]


def find_evaluations(
    db: ForestDatabase,
    year: int | None = None,
    eval_type: str | None = None,
) -> list[int]:
    """Evaluation ids matching a report year and/or type, sorted ascending."""
    out = []
    for ev in db.evaluations:
        if year is not None and ev.report_year != year:
            continue
        if eval_type is not None and ev.eval_type != eval_type.upper():
            continue
        out.append(ev.evalid)
    return sorted(out)


@typed_equality
class ClipOptions(NamedTuple):
    """How to subset a database.

    At most one of ``most_recent``, ``evalids``, ``year`` may be active.
    ``match_eval`` keeps only report years common to every state in the
    database (it composes with ``most_recent``).  ``mask`` keeps plots whose
    center point falls inside any polygon; stratification tables stay intact,
    so estimates over a masked database still expand to the full estimation
    unit acreage.
    """

    most_recent: bool = False
    match_eval: bool = False
    evalids: tuple[int, ...] = ()
    mask: object | None = None
    year: int | None = None


def _validated(options: ClipOptions) -> ClipOptions:
    active = []
    if options.most_recent:
        active.append("mostRecent")
    if options.evalids:
        active.append("evalids")
    if options.year is not None:
        active.append("year")
    if len(active) > 1:
        raise UsageError(
            [f"choose at most one of mostRecent/evalids/year, got {', '.join(active)}"]
        )
    return options


def _select_evaluations(db: ForestDatabase, options: ClipOptions) -> list[Evaluation]:
    chosen = list(db.evaluations)
    if options.evalids:
        known = {ev.evalid: ev for ev in db.evaluations}
        missing = [e for e in options.evalids if e not in known]
        if missing:
            have = ", ".join(str(k) for k in sorted(known)) or "none"
            raise EstimationError(
                f"unknown evalid(s) {', '.join(str(m) for m in missing)}; "
                f"database has {have}"
            )
        chosen = [known[e] for e in options.evalids]
    if options.year is not None:
        chosen = [ev for ev in chosen if ev.report_year == options.year]
    if options.match_eval:
        by_state: dict[int | None, set[int | None]] = {}
        for ev in chosen:
            by_state.setdefault(ev.statecd, set()).add(ev.report_year)
        if by_state:
            common = set.intersection(*by_state.values())
            chosen = [ev for ev in chosen if ev.report_year in common]
    if options.most_recent:
        latest: dict[int | None, int] = {}
        for ev in chosen:
            y = ev.report_year if ev.report_year is not None else -1
            st = ev.statecd
            if st not in latest or y > latest[st]:
                latest[st] = y
        chosen = [
            ev
            for ev in chosen
            if (ev.report_year if ev.report_year is not None else -1) == latest[ev.statecd]
        ]
    return chosen


def _among(db: ForestDatabase, table: str, name: str, allowed: set) -> np.ndarray:
    """Which rows of a table hold one of the allowed values in a column."""
    codes, values = db.columns.column(table, name)
    return np.array([v in allowed for v in values], dtype=bool)[codes[:-1]]


def clip(db: ForestDatabase, options: ClipOptions | None = None, **kw) -> ForestDatabase:
    """A new database holding only what the selected evaluations need.

    Every output row exists in the input; nothing is fabricated or rescaled.
    With a mask, plots outside the polygons (or without coordinates) drop
    out along with their trees and assignments, while the population tables
    keep their full stratum weights and unit areas.  Rows are selected by
    masks over the columns and joins; no record is built for them.
    """
    if options is None:
        options = ClipOptions(**kw)
    elif kw:
        raise UsageError(["pass ClipOptions or keyword options, not both"])
    options = _validated(options)

    chosen = _select_evaluations(db, options)
    keep_evals = {ev.evalid for ev in chosen}
    row_of = {id(ev): i for i, ev in enumerate(db.evaluations)}
    view = db.columns

    units = _among(db, "POP_ESTN_UNIT", "EVALID", keep_evals)
    strata, assignments = (np.append(units, False)[view.unit_rows(table)]  # -1 reads False
                           for table in ("POP_STRATUM", ASSIGNMENTS))

    # Plots are kept by CN: every plot row whose CN an assignment names.
    cn_codes, cns = view.column("PLOT", "CN")
    assigned = view.plot_rows(ASSIGNMENTS)[assignments]
    keep_cn = np.zeros(len(cns), dtype=bool)
    keep_cn[cn_codes[assigned[assigned >= 0]]] = True
    if options.mask is not None:
        from .spatial import PolygonSet, plot_owners  # only a mask needs polygons

        mask = options.mask
        mask = mask if isinstance(mask, PolygonSet) else PolygonSet.from_geojson(mask)
        lon, lat = view.floats("PLOT", "LON")[:-1], view.floats("PLOT", "LAT")[:-1]
        inside = np.flatnonzero(plot_owners(lon, lat, mask) >= 0)
        in_cn = np.zeros(len(cns), dtype=bool)
        in_cn[cn_codes[inside]] = True
        keep_cn &= in_cn
    keep_plot = np.append(keep_cn[cn_codes[:-1]], False)  # join row -1 reads False
    if options.mask is not None:
        assignments &= keep_plot[view.plot_rows(ASSIGNMENTS)]

    def plot_children(table: str):
        return db.table(table).take(np.flatnonzero(keep_plot[view.plot_rows(table)]))

    return ForestDatabase(
        plots=db.plots.take(np.flatnonzero(keep_plot[:-1])),
        conds=plot_children("COND"),
        trees=plot_children("TREE"),
        seedlings=plot_children("SEEDLING"),
        dwm=plot_children("COND_DWM_CALC"),
        invasives=plot_children("INVASIVE_SUBPLOT_SPP"),
        evaluations=db.evaluations.take(np.array([row_of[id(ev)] for ev in chosen], dtype=np.intp)),
        estn_units=db.estn_units.take(np.flatnonzero(units)),
        strata=db.strata.take(np.flatnonzero(strata)),
        assignments=db.assignments.take(np.flatnonzero(assignments)),
        species=db.species,
        states=db.states,
    )
