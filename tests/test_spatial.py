"""Polygon containment, plot assignment, and spatial output."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timberline as tl
from timberline.attributes import _assign_plots
from timberline.errors import GeometryError
from timberline.model import PlotRecord
from timberline.spatial import PolygonSet, emit_spatial, plot_owners


def assign_plots(plots, polys):
    """Plot CN -> id of the first feature containing the plot, through ``plot_owners``."""
    x = np.array([p.lon for p in plots], dtype=float)  # None reads NaN
    y = np.array([p.lat for p in plots], dtype=float)
    owner = plot_owners(x, y, polys).tolist()
    return {p.cn: polys.features[k].fid for p, k in zip(plots, owner) if k >= 0}


def _fc(*features):
    return {"type": "FeatureCollection", "features": list(features)}


def _square(fid, x0, y0, x1, y1, hole=None):
    ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
    coords = [ring]
    if hole:
        hx0, hy0, hx1, hy1 = hole
        coords.append([[hx0, hy0], [hx1, hy0], [hx1, hy1], [hx0, hy1], [hx0, hy0]])
    return {
        "type": "Feature",
        "properties": {"id": fid, "name": f"square {fid}"},
        "geometry": {"type": "Polygon", "coordinates": coords},
    }


UNIT = _fc(_square("A", 0, 0, 10, 10))


def test_point_in_polygon_basics():
    polys = PolygonSet.from_geojson(UNIT)
    sq = polys.features[0]
    assert sq.contains(5, 5)
    assert not sq.contains(15, 5)
    assert not sq.contains(-1, -1)


def test_hole_subtracts():
    polys = PolygonSet.from_geojson(_fc(_square("A", 0, 0, 10, 10, hole=(4, 4, 6, 6))))
    sq = polys.features[0]
    assert sq.contains(2, 2)
    assert not sq.contains(5, 5)  # inside the hole


def test_multipolygon_supported():
    feat = {
        "type": "Feature",
        "properties": {"id": "M"},
        "geometry": {
            "type": "MultiPolygon",
            "coordinates": [
                [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]],
                [[[5, 5], [7, 5], [7, 7], [5, 7], [5, 5]]],
            ],
        },
    }
    polys = PolygonSet.from_geojson(_fc(feat))
    m = polys.features[0]
    assert m.contains(1, 1)
    assert m.contains(6, 6)
    assert not m.contains(3, 3)


def test_from_geojson_accepts_text_and_path(tmp_path):
    text = json.dumps(UNIT)
    assert len(PolygonSet.from_geojson(text)) == 1
    path = tmp_path / "unit.geojson"
    path.write_text(text)
    assert len(PolygonSet.from_geojson(path)) == 1
    assert len(PolygonSet.from_geojson(str(path))) == 1


def test_from_geojson_rejects_bad_inputs(tmp_path):
    with pytest.raises(GeometryError, match="FeatureCollection"):
        PolygonSet.from_geojson({"type": "Feature"})
    with pytest.raises(GeometryError, match="not found"):
        PolygonSet.from_geojson(tmp_path / "missing.geojson")
    with pytest.raises(GeometryError, match="unsupported geometry"):
        PolygonSet.from_geojson(_fc({
            "type": "Feature", "properties": {},
            "geometry": {"type": "Point", "coordinates": [0, 0]},
        }))
    with pytest.raises(GeometryError, match="closed"):
        PolygonSet.from_geojson(_fc({
            "type": "Feature", "properties": {},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [1, 0], [1, 1]]]},
        }))


def _with_position(pos):
    ring = [[0, 0], [1, 0], pos, [0, 1], [0, 0]]
    return _fc(_square("ok", 5, 5, 6, 6),
               {"type": "Feature", "properties": {"id": "bad"},
                "geometry": {"type": "Polygon", "coordinates": [ring]}})


@pytest.mark.parametrize("pos, problem", [
    ([1, 1, 0, 0], "not [lon, lat]"),
    ([1], "not [lon, lat]"),
    ("a", "not [lon, lat]"),
    ([1, "a"], "non-numeric"),
    ([1, 1, "a"], "non-numeric"),
    ([True, 1], "non-numeric"),
    ([1, math.nan], "non-finite"),
    ([math.inf, 1], "non-finite"),
    ([1, 1, -math.inf], "non-finite"),
    ([10**400, 1], "non-finite"),
])
def test_bad_positions_name_the_feature(pos, problem):
    with pytest.raises(GeometryError, match=rf"feature 1: .*{re.escape(problem)}"):
        PolygonSet.from_geojson(_with_position(pos))


def test_duplicate_feature_ids_rejected():
    with pytest.raises(GeometryError, match="duplicate feature id"):
        PolygonSet.from_geojson(_fc(_square("A", 0, 0, 1, 1),
                                    _square("A", 2, 2, 3, 3)))


def test_projected_crs_rejected():
    bad = dict(UNIT)
    bad["crs"] = {"type": "name", "properties": {"name": "EPSG:26918"}}
    with pytest.raises(GeometryError, match="CRS"):
        PolygonSet.from_geojson(bad)


def test_assign_plots_first_feature_wins_and_outside_drops(synth1):
    overlap = _fc(
        _square("west", -73.05, 41.0, -72.85, 42.0),
        _square("all", -74.0, 41.0, -72.0, 42.0),
    )
    polys = PolygonSet.from_geojson(overlap)
    codes, fids = _assign_plots(synth1, polys)
    got = {p.cn: fids[c] for p, c in zip(synth1.plots, codes.tolist())}
    # P1 (-73.0) and P2 (-72.9) fall in both; file order puts them in "west"
    assert got["P1"] == "west"
    assert got["P2"] == "west"
    assert got["P3"] == "all"
    assert got["P4"] == "all"


def test_assign_plots_skips_missing_coordinates(synth1):
    blank = PlotRecord(cn="NOWHERE", statecd=9, plot=99, invyr=2018,
                       lat=None, lon=None, remper=None, plot_status_cd=1,
                       designcd=1)
    polys = PolygonSet.from_geojson(UNIT)
    assert assign_plots([blank], polys) == {}


def test_estimate_grouped_by_polygon(synth1):
    split = _fc(
        _square("west", -73.05, 41.0, -72.75, 42.0),   # P1, P2
        _square("east", -72.75, 41.0, -72.0, 42.0),    # P3, P4
    )
    table = tl.tpa(synth1, polys=PolygonSet.from_geojson(split))
    by_poly = {r["POLY_ID"]: r for r in table.rows}
    assert set(by_poly) == {"west", "east"}
    # POLY_ID conditions the denominator too, so each polygon's per-acre
    # value divides by that polygon's own forest area: west (12 + 6)/2 plots
    # over half the area, east (0 + 6)/2 over the other half
    assert by_poly["west"]["TPA"] == pytest.approx(9.0)
    assert by_poly["east"]["TPA"] == pytest.approx(3.0)


def test_emit_spatial_joins_rows_and_pads_missing(synth1):
    split = _fc(
        _square("west", -73.05, 41.0, -72.75, 42.0),
        _square("east", -72.75, 41.0, -72.0, 42.0),
        _square("sea", 0.0, 0.0, 1.0, 1.0),
    )
    polys = PolygonSet.from_geojson(split)
    table = tl.tpa(synth1, polys=polys)
    fc = emit_spatial(table, polys)
    assert fc["type"] == "FeatureCollection"
    props = {f["id"]: f["properties"] for f in fc["features"]}
    assert props["west"]["TPA"] == pytest.approx(9.0)
    assert props["sea"]["TPA"] is None  # no sample, emitted with nulls
    assert props["west"]["name"] == "square west"


def test_emit_spatial_requires_poly_column(synth1):
    table = tl.tpa(synth1)
    with pytest.raises(GeometryError, match="POLY_ID"):
        emit_spatial(table, PolygonSet.from_geojson(UNIT))


def test_return_spatial_end_to_end(synth1):
    split = _fc(_square("west", -73.05, 41.0, -72.75, 42.0))
    polys = PolygonSet.from_geojson(split)
    fc = tl.tpa(synth1, polys=polys, return_spatial=True)
    assert fc["type"] == "FeatureCollection"
    assert all("TPA" in f["properties"] for f in fc["features"])


# The per-plot loop that the array kernel replaced, kept verbatim as the
# reference: ``plot_owners`` must give the same dict, bit for bit.
def _reference_contains(feature, x, y):
    inside = False
    for ring in feature.rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            if (y1 > y) != (y2 > y):
                x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
                if x < x_cross:
                    inside = not inside
    return inside


def _reference_assign(plots, polys):
    out = {}
    for p in plots:
        if p.lon is None or p.lat is None:
            continue
        for feature in polys:
            if _reference_contains(feature, p.lon, p.lat):
                out[p.cn] = feature.fid
                break
    return out


def _plot(k, lon, lat):
    return PlotRecord(cn=f"P{k}", statecd=9, plot=k, invyr=2018, lat=lat, lon=lon)


# Coordinates on a coarse grid put plots on vertices, edges and box edges
# and give horizontal and vertical edges; free floats give slanted
# crossings whose rounding matters.
_grid = st.integers(0, 8).map(lambda k: k / 4)
_point = st.tuples(*[st.one_of(_grid, st.floats(-1, 3))] * 2)
_ring = st.lists(_point, min_size=3, max_size=5).map(lambda pts: pts + pts[:1])


@st.composite
def _layout(draw):
    features, vertices = [], []
    for fid in range(draw(st.integers(0, 3))):
        # a polygon's second ring is a hole; under even-odd it may overlap
        # anything
        polys = draw(st.lists(st.lists(_ring, min_size=1, max_size=2),
                              min_size=1, max_size=2))
        vertices += [pt for poly in polys for ring in poly for pt in ring]
        geom = ({"type": "Polygon", "coordinates": polys[0]} if len(polys) == 1
                else {"type": "MultiPolygon", "coordinates": polys})
        features.append({"type": "Feature", "id": fid, "properties": {},
                         "geometry": geom})
    point = st.one_of(_point, st.sampled_from(vertices)) if vertices else _point
    blank = st.tuples(st.none(), _grid) | st.tuples(_grid, st.none())
    pts = draw(st.lists(point | blank, max_size=16))
    return _fc(*features), [_plot(k, lon, lat) for k, (lon, lat) in enumerate(pts)]


@settings(max_examples=400, deadline=None)
@given(_layout())
def test_assign_plots_matches_the_reference_loop(layout):
    fc, plots = layout
    polys = PolygonSet.from_geojson(fc)
    got = assign_plots(plots, polys)
    want = _reference_assign(plots, polys)
    assert list(got.items()) == list(want.items())


def test_rounded_crossing_past_the_box_still_counts():
    # On the edge A -> B at B's y, the rounded crossing lands 3 ulps right
    # of B, the rightmost vertex, so the two points just past the vertices'
    # box are inside.
    a = [-53.51449842726051, 38.9560110644621]
    b = [52.92395961319872, 19.66233355373852]
    c = [0.0, 40.0]
    polys = PolygonSet.from_geojson(_fc(
        {"type": "Feature", "id": "T", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [[a, b, c, a]]}}))
    x = b[0]
    plots = []
    for k in range(8):
        plots.append(_plot(k, x, b[1]))
        x = math.nextafter(x, math.inf)
    want = _reference_assign(plots, polys)
    assert set(want) == {"P0", "P1", "P2"}
    assert assign_plots(plots, polys) == want
