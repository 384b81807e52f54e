"""GeoJSON polygon handling: plot assignment and spatial result emission.

Only Polygon and MultiPolygon geometries are supported, in geographic
(longitude, latitude) coordinates; altitudes are ignored and non-finite
coordinates rejected.  Containment uses even-odd ray casting over every
ring, so holes subtract naturally: an edge counts when the point's y is in
its half-open y range and the point lies left of its crossing.  A plot on a
shared boundary goes to the first containing feature in file order.  Each
feature tests its still-unassigned plots in one numpy expression over edges
x points, after a bounding-box prefilter that never drops a plot the test
would accept.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import GeometryError

__all__ = ["PolygonFeature", "PolygonSet", "plot_owners", "emit_spatial"]

Ring = tuple[tuple[float, float], ...]

# edges x points per step of the crossing test: 8 MB per temporary array
_BLOCK = 1 << 20

_ACCEPTED_CRS = {
    "urn:ogc:def:crs:OGC:1.3:CRS84",
    "urn:ogc:def:crs:OGC::CRS84",
    "urn:ogc:def:crs:EPSG::4326",
    "EPSG:4326",
    "CRS84",
}


class PolygonFeature(NamedTuple):
    fid: object
    properties: dict
    rings: tuple[Ring, ...]
    geometry: dict | None = None  # original GeoJSON geometry, kept for emission

    def contains(self, x: float, y: float) -> bool:
        return bool(_inside(self.rings, np.array([x], float), np.array([y], float))[0])


class PolygonSet:
    """An ordered collection of polygon features with unique ids."""

    def __init__(self, features: Sequence[PolygonFeature]):
        self.features = tuple(features)
        seen = set()
        for f in self.features:
            if f.fid in seen:
                raise GeometryError(f"duplicate feature id {f.fid!r}")
            seen.add(f.fid)

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    @classmethod
    def from_geojson(cls, source: str | Path | Mapping) -> "PolygonSet":
        """Build from a FeatureCollection object, JSON text, or file path."""
        obj = _load_geojson(source)
        if obj.get("type") != "FeatureCollection":
            raise GeometryError("expected a GeoJSON FeatureCollection")
        crs = obj.get("crs")
        if crs is not None:
            name = str(crs.get("properties", {}).get("name", ""))
            if name not in _ACCEPTED_CRS:
                raise GeometryError(
                    f"unsupported CRS {name!r}; coordinates must be lon/lat (CRS84)"
                )
        features = []
        for i, feat in enumerate(obj.get("features", [])):
            geom = feat.get("geometry") or {}
            gtype = geom.get("type")
            coords = geom.get("coordinates")
            if gtype == "Polygon":
                polys = [coords]
            elif gtype == "MultiPolygon":
                polys = coords
            else:
                raise GeometryError(
                    f"feature {i}: unsupported geometry type {gtype!r} "
                    "(Polygon or MultiPolygon required)"
                )
            rings: list[Ring] = []
            for poly in polys:
                for ring in poly:
                    pts = tuple(_position(i, pos) for pos in ring)
                    if len(pts) < 4 or pts[0] != pts[-1]:
                        raise GeometryError(
                            f"feature {i}: ring must be closed with at least 4 points"
                        )
                    rings.append(pts)
            props = dict(feat.get("properties") or {})
            fid = feat.get("id", props.get("id", i))
            features.append(PolygonFeature(fid, props, tuple(rings), dict(geom)))
        return cls(features)


def _position(i: int, pos) -> tuple[float, float]:
    """The (lon, lat) of a GeoJSON position; an altitude is checked, then dropped."""
    if not isinstance(pos, (list, tuple)) or len(pos) not in (2, 3):
        raise GeometryError(
            f"feature {i}: position {pos!r} is not [lon, lat] or [lon, lat, alt]"
        )
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pos):
        raise GeometryError(f"feature {i}: position {pos!r} has a non-numeric coordinate")
    try:
        values = [float(v) for v in pos]
    except OverflowError:  # an integer too large for a float
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise GeometryError(f"feature {i}: position {pos!r} has a non-finite coordinate")
    return values[0], values[1]


def _load_geojson(source: str | Path | Mapping) -> Mapping:
    if isinstance(source, Mapping):
        return source
    text = None
    if isinstance(source, Path) or (isinstance(source, str) and "{" not in source):
        path = Path(source)
        if not path.is_file():
            raise GeometryError(f"GeoJSON file not found: {path}")
        text = path.read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GeometryError(f"invalid GeoJSON: {exc}") from exc


def plot_owners(x: np.ndarray, y: np.ndarray, polys: PolygonSet) -> np.ndarray:
    """Index of the first feature containing each point (x, y), else -1.

    A point with a NaN coordinate is in no feature.
    """
    owner = np.full(len(x), -1)
    located = np.flatnonzero(~(np.isnan(x) | np.isnan(y)))
    x, y = x[located], y[located]
    found = np.full(len(located), -1)
    for k, feature in enumerate(polys):
        free = np.flatnonzero(found < 0)
        found[free[_inside(feature.rings, x[free], y[free])]] = k
    owner[located] = found
    return owner


def _inside(rings: Sequence[Ring], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd containment of the points (x, y) in the rings."""
    inside = np.zeros(len(x), dtype=bool)
    for ring in rings:
        v = np.array(ring)
        # Points outside a ring's box cross it an even number of times.  The
        # y band is exact, but a rounded crossing can land about 7 ulps of the
        # largest |x| past the x range, so x is padded by 16 of those ulps.
        (xmin, ymin), (xmax, ymax) = v.min(axis=0), v.max(axis=0)
        pad = 16 * np.spacing(max(-xmin, xmax))
        near = np.flatnonzero((y >= ymin) & (y <= ymax) & (x >= xmin - pad) & (x <= xmax + pad))
        px, py = x[near], y[near]
        edges = np.hstack([v[:-1], v[1:]])
        step = max(1, _BLOCK // max(1, len(near)))
        for s in range(0, len(edges), step):
            x1, y1, x2, y2 = edges[s:s + step].T[..., None]
            with np.errstate(all="ignore"):  # x / 0 and overflow, as in scalar arithmetic
                cross = ((y1 > py) != (y2 > py)) & (px < (x2 - x1) * (py - y1) / (y2 - y1) + x1)
            inside[near] ^= np.logical_xor.reduce(cross, axis=0)
    return inside


def emit_spatial(table, polys: PolygonSet) -> dict:
    """Join an estimate table carrying POLY_ID back onto its polygons.

    Returns a FeatureCollection with one feature per (input feature, output
    row key); rows are matched on POLY_ID.  Features whose id never appears
    in the table are emitted once with null estimate values.  An estimate
    column that collides with an existing property name gets an ``_est``
    suffix.
    """
    if "POLY_ID" not in table.columns:
        raise GeometryError("table has no POLY_ID column; run with polys= to get one")
    value_cols = [c for c in table.columns if c != "POLY_ID"]
    cells = [table.column(c) for c in value_cols]
    rows_by_fid: dict[object, list[int]] = {}
    for i, fid in enumerate(table.column("POLY_ID")):
        rows_by_fid.setdefault(fid, []).append(i)

    out_features = []
    for feature in polys:
        for i in rows_by_fid.get(feature.fid) or [None]:
            props = dict(feature.properties)
            for col, values in zip(value_cols, cells):
                name = col if col not in props else f"{col}_est"
                props[name] = None if i is None else values[i]
            geojson_feat = {
                "type": "Feature",
                "id": feature.fid,
                "properties": props,
                "geometry": _geometry_of(feature),
            }
            out_features.append(geojson_feat)
    return {"type": "FeatureCollection", "features": out_features}


def _geometry_of(feature: PolygonFeature) -> dict:
    if feature.geometry is not None:
        return feature.geometry
    rings = [[list(pt) for pt in ring] for ring in feature.rings]
    return {"type": "Polygon", "coordinates": rings}
