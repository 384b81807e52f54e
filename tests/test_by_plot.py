"""Per-plot tables (``by_plot=True``) against rendered output on file.

``fixtures/by_plot_golden.json`` holds the CSV (and the SHA-256 of the
JSON) of every per-plot family on the four fixtures and on three hand-made
variants, rendered by the row-at-a-time implementation that the columnar
one replaced.  Rewrite it
with ``PYTHONPATH=src python tests/test_by_plot.py`` only when an output
change is intended.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import timberline as tl
from timberline.attributes import FAMILIES
from timberline.model import (
    EstimationUnit,
    Evaluation,
    ForestDatabase,
    SpeciesRef,
    Stratum,
    StratumAssignment,
    TreeRecord,
)
from timberline.output import table_to_csv, table_to_json
from timberline.synth import FIXTURE_NAMES

GOLDEN = Path(__file__).parent / "fixtures" / "by_plot_golden.json"

VARIANTS = {
    "plain": {},
    "species": {"by_species": True},
    "size": {"by_size_class": True},
    "species-size": {"by_species": True, "by_size_class": True},
    "owner": {"grp_by": ["OWNCD"]},
    "domains": {"tree_domain": "DIA >= 8", "area_domain": "OWNCD == 46"},
}


def overlapping_evaluations() -> ForestDatabase:
    """SYNTH-5PANEL plus a 2017 evaluation of its first four panels.

    The 2014-2017 visits sit in both evaluation groups.  The 2017 stratum
    doubles the subplot adjustment, so their per-plot forest area shows
    which group they came from: the first, by report year.
    """
    db = tl.build_fixture("SYNTH-5PANEL")
    ev = Evaluation(91751, 9, "VOL", 2017, 2014, 2017)
    unit = EstimationUnit("U91751", 91751, 800.0)
    stratum = Stratum("S91751-1", unit.cn, 1.0, 2.0, 1.0)
    visits = [StratumAssignment(p.cn, stratum.cn, p.invyr) for p in db.plots if p.invyr < 2018]
    return ForestDatabase(
        plots=db.plots, conds=db.conds, trees=db.trees,
        evaluations=db.evaluations + [ev], estn_units=db.estn_units + [unit],
        strata=db.strata + [stratum], assignments=db.assignments + visits,
        species=db.species,
    )


def text_ordered_species() -> ForestDatabase:
    """SYNTH-1 with a red spruce (SPCD 97) on plots P1 and P2.

    Per-plot rows order species codes by their text, so 129 and 316 come
    before 97.
    """
    db = tl.build_fixture("SYNTH-1")
    spruce = [
        TreeRecord(cn=f"S{p}", plt_cn=p, condid=1, spcd=97, dia=8.0, tpa_unadj=6.018046,
                   statuscd=1, sizer="SUBP", volcfnet=16.0, drybio_ag=400.0)
        for p in ("P1", "P2")
    ]
    species = db.species + [SpeciesRef(97, "red spruce", "Picea", "Picea rubens")]
    return ForestDatabase(
        plots=db.plots, conds=db.conds, trees=db.trees + spruce,
        evaluations=db.evaluations, estn_units=db.estn_units, strata=db.strata,
        assignments=db.assignments, species=species,
    )


def zero_forest_area() -> ForestDatabase:
    """SYNTH-1 with plot P2's condition covering none of the plot.

    P2's white pine has no forested area to divide by, so its per-acre
    values are null.
    """
    db = tl.build_fixture("SYNTH-1")
    conds = [c._replace(condprop_unadj=0.0) if c.plt_cn == "P2" else c
             for c in db.conds]
    return ForestDatabase(
        plots=db.plots, conds=conds, trees=db.trees,
        evaluations=db.evaluations, estn_units=db.estn_units, strata=db.strata,
        assignments=db.assignments, species=db.species,
    )


DATABASES = {name: lambda name=name: tl.build_fixture(name) for name in FIXTURE_NAMES}
DATABASES["OVERLAP"] = overlapping_evaluations
DATABASES["SPCD-TEXT"] = text_ordered_species
DATABASES["ZERO-AREA"] = zero_forest_area
PER_PLOT = [name for name, fam in FAMILIES.items() if fam.byplot_ok]


def render(db: ForestDatabase, family: str, kwargs: dict) -> dict:
    try:
        table = tl.estimate(db, family, by_plot=True, **kwargs)
    except tl.TimberlineError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    digest = hashlib.sha256(table_to_json(table).encode("utf-8")).hexdigest()
    return {"csv": table_to_csv(table), "json_sha256": digest}


def record() -> dict:
    out = {}
    for name, build in DATABASES.items():
        db = build()
        for family in PER_PLOT:
            for variant, kwargs in VARIANTS.items():
                out[f"{name}/{family}/{variant}"] = render(db, family, kwargs)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(DATABASES))
def test_per_plot_output_matches_the_golden_file(name, golden):
    db = DATABASES[name]()
    for family in PER_PLOT:
        for variant, kwargs in VARIANTS.items():
            case = f"{name}/{family}/{variant}"
            assert render(db, family, kwargs) == golden[case], case


def test_golden_file_covers_every_case(golden):
    assert len(golden) == len(DATABASES) * len(PER_PLOT) * len(VARIANTS)
    rendered = [v for k, v in golden.items() if "csv" in v and not k.startswith("SYNTH-GRM")]
    assert len(rendered) > 100


def test_a_visit_in_two_evaluation_groups_appears_once():
    db = overlapping_evaluations()
    for table in (tl.tpa(db, by_plot=True), tl.area(db, by_plot=True)):
        visits = [(r["PLT_CN"], r["YEAR"]) for r in table.rows]
        assert len(visits) == len(set(visits)) == 20
    forest = {r["PLT_CN"]: r["PROP_FOREST"] for r in table.rows}
    assert [forest[f"Q{k:02d}"] for k in (1, 16, 17, 20)] == [2.0, 2.0, 1.0, 1.0]


def test_species_codes_sort_as_text():
    table = tl.tpa(text_ordered_species(), by_plot=True, by_species=True)
    order = [(r["PLT_CN"], r["SPCD"]) for r in table.rows]
    assert order == [("P1", 316), ("P1", 97), ("P2", 129), ("P2", 97), ("P4", 316)]
    assert table.rows[1]["COMMON_NAME"] == "red spruce"


def test_per_acre_values_are_null_without_forested_area():
    rows = {r["PLT_CN"]: r for r in tl.tpa(zero_forest_area(), by_plot=True).rows}
    assert rows["P2"]["TPA"] is None and rows["P2"]["nStems"] == 1
    assert rows["P1"]["TPA"] == 12.0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
