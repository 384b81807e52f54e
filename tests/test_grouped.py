"""Grouped estimates against rendered output on file, row order included.

``oracle.compare_tables`` aligns rows by their group key, so it cannot see
a change of row order.  ``fixtures/grouped_golden.json`` holds the CSV of
every family under each of its grouping shapes (species, size class,
condition and tree columns, polygons, the wide layout, a panel method) on
the four fixtures and on ``random_database(0..3)``.  Rewrite it with
``PYTHONPATH=src python tests/test_grouped.py`` only when an output change
is intended.
"""

import json
import sys
from pathlib import Path

import pytest

import timberline as tl
from timberline.attributes import FAMILIES
from timberline.model import ForestDatabase
from timberline.output import table_to_csv
from timberline.spatial import PolygonSet
from timberline.synth import FIXTURE_NAMES, random_database

GOLDEN = Path(__file__).parent / "fixtures" / "grouped_golden.json"

DATABASES = {name: lambda name=name: tl.build_fixture(name) for name in FIXTURE_NAMES}
DATABASES.update({f"random-{seed}": lambda seed=seed: random_database(seed)
                  for seed in range(4)})


def grid(db: ForestDatabase, cells: int = 2) -> PolygonSet:
    """``cells`` x ``cells`` square polygons tiling the plots' bounding box."""
    lons = [p.lon for p in db.plots if p.lon is not None]
    lats = [p.lat for p in db.plots if p.lat is not None]
    x0, y0 = min(lons) - 0.01, min(lats) - 0.01
    dx, dy = (max(lons) + 0.01 - x0) / cells, (max(lats) + 0.01 - y0) / cells
    features = []
    for i in range(cells):
        for j in range(cells):
            a, b = x0 + i * dx, y0 + j * dy
            ring = [[a, b], [a + dx, b], [a + dx, b + dy], [a, b + dy], [a, b]]
            features.append({"type": "Feature", "id": f"G{i}{j}", "properties": {},
                             "geometry": {"type": "Polygon", "coordinates": [ring]}})
    return PolygonSet.from_geojson({"type": "FeatureCollection", "features": features})


def shapes(family: str) -> dict:
    """The grouping shapes a family accepts, by name."""
    fam = FAMILIES[family]
    out = {"plain": {}, "owner": {"grp_by": ["OWNCD"]},
           "owner-fortype": {"grp_by": ["OWNCD", "FORTYPCD"]},
           "polys": {"polys": True}, "polys-owner": {"polys": True, "grp_by": ["OWNCD"]}}
    if fam.record_table == "TREE":
        out["status"] = {"grp_by": ["STATUSCD"]}
    species = "bySpecies" in fam.supports or fam.species_default
    size = "bySizeClass" in fam.supports
    if species:
        out["species"] = {"by_species": True}
        out["species-owner-ema"] = {"by_species": True, "grp_by": ["OWNCD"], "method": "EMA"}
    if size:
        out["size"] = {"by_size_class": True}
    if species and size:
        out["species-size"] = {"by_species": True, "by_size_class": True}
        out["polys-species-size"] = {"polys": True, "by_species": True, "by_size_class": True}
    if fam.wide:
        out["wide"] = {"tidy": False}
        out["wide-owner"] = {"tidy": False, "grp_by": ["OWNCD"]}
    return out


def render(db: ForestDatabase, family: str, kwargs: dict) -> dict:
    kwargs = dict(kwargs)
    if kwargs.get("polys"):
        kwargs["polys"] = grid(db)
    try:
        table = tl.estimate(db, family, **kwargs)
    except tl.TimberlineError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"csv": table_to_csv(table)}


def record() -> dict:
    out = {}
    for name, build in DATABASES.items():
        db = build()
        for family in FAMILIES:
            for shape, kwargs in shapes(family).items():
                out[f"{name}/{family}/{shape}"] = render(db, family, kwargs)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(DATABASES))
def test_grouped_output_matches_the_golden_file(name, golden):
    db = DATABASES[name]()
    for family in FAMILIES:
        for shape, kwargs in shapes(family).items():
            case = f"{name}/{family}/{shape}"
            assert render(db, family, kwargs) == golden[case], case


def test_golden_file_covers_every_case(golden):
    cases = sum(len(shapes(family)) for family in FAMILIES)
    assert len(golden) == len(DATABASES) * cases
    rows = [v["csv"].count("\n") for v in golden.values() if "csv" in v]
    assert len(rows) > 0.8 * len(golden)
    assert sum(n > 10 for n in rows) > 60  # many multi-row groupings, so order matters


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
