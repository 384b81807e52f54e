"""The benchmark tracer's hooks against the package.

``perfbench/tracing.py`` wraps the package's stage functions at the names
their callers look up, so renaming one breaks the traced benchmark runs.
This test breaks first.
"""

import sys
from pathlib import Path

import timberline as tl
from timberline import attributes, core, spatial

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
STAGES = ("build_sample", "make_bundle", "compute_pass", "combine_passes")


def _tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing.Tracer()


def test_tracer_wraps_every_stage_and_uninstalls(synth_panel):
    originals = {name: getattr(core, name) for name in STAGES}
    tracer = _tracer()
    tracer.install()
    try:
        tl.tpa(synth_panel, method="EMA", lambdas=(0.3, 0.7))
    finally:
        tracer.uninstall()
    assert {name: getattr(core, name) for name in STAGES} == originals
    assert attributes.build_sample is core.build_sample
    assert attributes.make_bundle is core.make_bundle
    doc = tracer.document()
    seen = {s["name"] for s in doc["spans"]} | {a["name"] for a in doc["aggregates"]}
    assert {"attributes.run", "core.sample", "core.bundle", "core.pass",
            "core.combine"} <= seen


def test_tracer_times_polygon_assignment_and_uninstalls(synth1):
    polys = tl.PolygonSet.from_geojson({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "west", "properties": {}, "geometry": {
            "type": "Polygon",
            "coordinates": [[[-74, 41], [-72.75, 41], [-72.75, 42], [-74, 42], [-74, 41]]],
        }},
    ]})
    contains = spatial.PolygonFeature.__dict__["contains"]
    assign = attributes._assign_plots
    tracer = _tracer()
    tracer.install()
    try:
        table = tl.area(synth1, polys=polys)
    finally:
        tracer.uninstall()
    assert "west" in {r["POLY_ID"] for r in table.rows}
    assert spatial.PolygonFeature.__dict__["contains"] is contains
    assert attributes._assign_plots is assign
    assert "spatial.assign" in {s["name"] for s in tracer.document()["spans"]}
