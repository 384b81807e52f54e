"""What a loaded database keeps between estimates, and that reusing it changes nothing.

``db.columns`` keeps each evaluation group's sample with its stratum
constants and each family's base-domain mask.  Every estimate on a database
that already holds them must give the text and the log lines the same
request gives on a database that holds nothing yet.
"""

import logging

import numpy as np
import pytest

import timberline as tl
from timberline import core
from timberline.attributes import FAMILIES, estimate
from timberline.errors import EstimationError, TimberlineError
from timberline.model import ForestDatabase
from timberline.output import table_to_csv
from timberline.synth import random_database

METHODS = ("TI", "ANNUAL", "SMA", "LMA", "EMA")


def _requests():
    for family in FAMILIES:
        for method in METHODS:
            yield family, {"method": method}
        if FAMILIES[family].byplot_ok:
            yield family, {"by_plot": True}
        if "treeDomain" in FAMILIES[family].supports:
            yield family, {"tree_domain": "DIA >= 5 & STATUSCD == 1"}


def _run(db, family, kwargs, caplog) -> tuple[str, list[tuple[int, str]]]:
    """The request's CSV, or its error, and the lines it logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="timberline"):
        try:
            text = table_to_csv(estimate(db, family, **kwargs))
        except TimberlineError as exc:
            text = f"error: {exc}"
    return text, [(r.levelno, r.getMessage()) for r in caplog.records]


def _fresh(db: ForestDatabase) -> ForestDatabase:
    """The same tables under a database that has kept nothing."""
    return ForestDatabase(**{name: getattr(db, name) for name in (
        "plots", "conds", "trees", "seedlings", "dwm", "invasives", "evaluations",
        "estn_units", "strata", "assignments", "species")}, states=db.states)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_request_in_sequence_equals_it_on_a_fresh_database(seed, caplog):
    db = random_database(seed)
    for family, kwargs in _requests():
        assert _run(db, family, kwargs, caplog) == _run(_fresh(db), family, kwargs, caplog), (
            family, kwargs)


def test_missing_stratum_weight_raises_on_every_estimate(synth_panel):
    strata = (synth_panel.strata[0]._replace(weight=None), *synth_panel.strata[1:])
    db = ForestDatabase(
        plots=synth_panel.plots, conds=synth_panel.conds, trees=synth_panel.trees,
        evaluations=synth_panel.evaluations, estn_units=synth_panel.estn_units, strata=strata,
        assignments=synth_panel.assignments, species=synth_panel.species)
    assert len(tl.area(db, area_domain="STDAGE > 10000")) == 0  # no rows: no constants needed
    for _ in range(2):
        with pytest.raises(EstimationError, match="lacks STRATUM_WGT"):
            tl.tpa(db)
    assert len(tl.area(db, area_domain="STDAGE > 10000")) == 0


def test_kept_arrays_are_read_only(synth_panel):
    db = _fresh(synth_panel)
    tl.tpa(db, method="EMA")
    memo = db.columns._memo
    samples = [kept[1] for key, kept in memo.items() if key[0] == "sample"]
    masks = [mask for key, mask in memo.items() if key[0] == "base domain"]
    assert samples and masks
    for sample in samples:
        strata = sample.constants()
        arrays = [sample.rows, sample.plot, sample.stratum, sample.panel, sample.year,
                  sample.unit, sample.last, strata.n_h, strata.area_w, strata.var_w]
        for array in arrays + masks:
            assert isinstance(array, np.ndarray) and not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def test_build_sample_keeps_two_samples_per_group(synth_panel):
    db = _fresh(synth_panel)
    evals = list(db.evaluations)
    first = core.build_sample(db, evals)
    assert core.build_sample(db, evals) is first
    panels = core.build_sample(db, evals, [2014, 2015, 2016, 2017, 2018])
    assert core.build_sample(db, evals, (2014, 2015, 2016, 2017, 2018)) is panels
    other = core.build_sample(db, evals, [2016, 2017, 2018])
    assert other is not panels and other.n_panels == 3
    assert sum(key[0] == "sample" for key in db.columns._memo) == 2


def test_the_kept_state_does_not_grow_with_requests(synth_panel):
    db = _fresh(synth_panel)
    tl.tpa(db, tree_domain="DIA >= 0")
    size = len(db.columns._memo)
    for i in range(1, 50):
        tl.tpa(db, tree_domain=f"DIA >= {i / 10}")
    assert len(db.columns._memo) == size


def test_stages_and_usable_remper_are_kept_and_the_note_logged_every_time(caplog):
    db = random_database(1)  # a change plot without REMPER: growMort and vitalRates note it
    runs = [_run(db, family, {}, caplog) for family in ("growMort", "vitalRates", "standStruct")]
    kept = {key: value for key, value in db.columns._memo.items()
            if key[0] in ("stages", "remper")}
    assert len(kept) == 2
    for value in kept.values():
        assert not value[0].flags.writeable
    note = (logging.WARNING, "1 plots have change records but no usable REMPER; skipped")
    assert note in runs[0][1] and note in runs[1][1]
    again = [_run(db, family, {}, caplog) for family in ("growMort", "vitalRates", "standStruct")]
    assert again == runs
    assert all(db.columns._memo[key] is value for key, value in kept.items())
