"""The benchmark tracer's hooks against the package.

``perfbench/tracing.py`` wraps the package's stage functions at the names
their callers look up, so renaming one breaks the traced benchmark runs.
This test breaks first.
"""

import json
import os
import subprocess
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


# Run as ``perfbench/launcher.py`` runs a traced command: a fresh interpreter that
# imported only the CLI installs the tracer, runs ``main`` and uninstalls it.
_LAUNCHED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import timberline.cli as cli
tracer = tracing.Tracer()
tracer.install()
try:
    status = [cli.main(argv) for argv in json.loads(sys.argv[2])]
finally:
    tracer.uninstall()
doc = tracer.document()
restored = [cli.__dict__[n] is getattr(module, n) for module, names in (
    (sys.modules["timberline.io"], ("load_database", "write_database")),
    (sys.modules["timberline.evals"], ("clip",))) for n in names]
print(json.dumps([status, sorted({s["name"] for s in doc["spans"]}
                                 | {a["name"] for a in doc["aggregates"]}), restored]),
      file=sys.stderr)
"""


def test_tracer_hooks_resolve_in_a_process_that_imported_only_the_cli(tmp_path):
    fixtures = Path(__file__).parent / "fixtures"
    polys = tmp_path / "polys.geojson"
    polys.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "west", "properties": {}, "geometry": {
            "type": "Polygon",
            "coordinates": [[[-74, 41], [-72.75, 41], [-72.75, 42], [-74, 42], [-74, 41]]]}},
    ]}))
    commands = [
        ["clip", "--db", str(fixtures / "SYNTH-5PANEL"), "--most-recent",
         "--out", str(tmp_path / "clip")],
        ["tpa", "--db", str(fixtures / "SYNTH-INV"), "--most-recent", "--by-species",
         "--polys", str(polys), "--output", str(tmp_path / "tpa.csv")],
    ]
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _LAUNCHED, PERFBENCH, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    status, names, restored = json.loads(done.stderr.splitlines()[-1])
    assert status == [0, 0]
    assert {"io.load", "io.write", "evals.clip", "model.index", "domain.bind",
            "attributes.run", "core.sample", "core.bundle", "core.pass", "core.combine",
            "spatial.assign", "output.render"} <= set(names)
    assert restored == [True, True, True]
