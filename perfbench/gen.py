"""Deterministic synthetic DataMart state for the benchmark.

The generator writes ``CT_*.csv`` tables, ``REF_SPECIES.csv`` and a polygon
grid ``polys.geojson`` with the standard library only.  It deliberately does
not import timberline, so the bytes for a seed stay the same on every commit
whatever later changes do to the package's record types.

State shape (per seed):

* 4 estimation units x 4 strata with unequal stratum weights;
* 5 annual panels (2014-2018) under a 2018 VOL and a 2018 GRM evaluation,
  plus an older 2017 VOL evaluation that ``clip --most-recent`` drops;
* about 30% of plots with two conditions, about 10 trees per plot with
  SURVIVOR / MORTALITY / INGROWTH / CUT components;
* seedling, down woody material and invasive-species rows;
* about 5% of plots without REMPER (they make ``growmort`` warn, as real
  data does);
* plot coordinates inside a 2 x 1 degree box, covered by a 6 x 6 grid of
  41-vertex polygons.

Run ``python3 perfbench/gen.py OUT_DIR --seed N [--plots N]`` to write a
state and print the SHA-256 of its files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
from pathlib import Path

STATE = "CT"
STATECD = 9
PANELS = (2014, 2015, 2016, 2017, 2018)
N_UNITS = 4
N_STRATA = 4
LON_BOX = (-73.5, -71.5)
LAT_BOX = (41.0, 42.0)
GRID = 6
RING_SIDE_POINTS = 10  # 4 sides x 10 points + closing point = 41 vertices

SUBP_TPA = 6.018046
MICR_TPA = 74.965282

SPECIES = (
    (12, "balsam fir", "Abies", "Abies balsamea"),
    (97, "red spruce", "Picea", "Picea rubens"),
    (129, "eastern white pine", "Pinus", "Pinus strobus"),
    (261, "eastern hemlock", "Tsuga", "Tsuga canadensis"),
    (316, "red maple", "Acer", "Acer rubrum"),
    (318, "sugar maple", "Acer", "Acer saccharum"),
    (341, "ailanthus", "Ailanthus", "Ailanthus altissima"),
    (375, "paper birch", "Betula", "Betula papyrifera"),
    (531, "American beech", "Fagus", "Fagus grandifolia"),
    (833, "northern red oak", "Quercus", "Quercus rubra"),
)
TREE_SPCD = (129, 261, 316, 318, 531, 833)
TREE_SPCD_WEIGHTS = (8, 5, 12, 7, 4, 9)
SEEDLING_SPCD = (129, 316, 318, 531)
INVASIVE_SPCD = (341, 1001, 3017)
FORTYPCD = (103, 161, 401, 503, 505, 801)
OWNCD = (11, 21, 31, 46)
FUEL_TYPES = ("1HR", "10HR", "100HR", "1000HR", "DUFF", "LITTER", "PILE")

HEADERS = {
    "PLOT": ["CN", "STATECD", "PLOT", "INVYR", "MEASYEAR", "LAT", "LON", "REMPER",
             "PLOT_STATUS_CD", "DESIGNCD", "INVASIVE_SAMPLING_STATUS_CD"],
    "COND": ["CN", "PLT_CN", "CONDID", "COND_STATUS_CD", "CONDPROP_UNADJ",
             "FORTYPCD", "OWNCD", "STDAGE"],
    "TREE": ["CN", "PLT_CN", "CONDID", "STATUSCD", "SPCD", "DIA", "TPA_UNADJ",
             "SIZER", "VOLCFNET", "VOLCSNET", "DRYBIO_AG", "DRYBIO_BG",
             "CARBON_AG", "CARBON_BG", "PREVDIA", "COMPONENT", "TPAMORT_UNADJ",
             "TPAREMV_UNADJ", "TPAGROW_UNADJ"],
    "SEEDLING": ["PLT_CN", "CONDID", "SPCD", "TREECOUNT", "TPA_UNADJ"],
    "COND_DWM_CALC": ["PLT_CN", "CONDID", "FUEL_TYPE", "VOL_ACRE", "BIO_ACRE",
                      "CARB_ACRE"],
    "INVASIVE_SUBPLOT_SPP": ["PLT_CN", "CONDID", "SPCD", "COVER_PCT"],
    "POP_EVAL": ["EVALID", "STATECD", "EVAL_TYP", "REPORT_YEAR", "START_INVYR",
                 "END_INVYR"],
    "POP_ESTN_UNIT": ["CN", "EVALID", "AREA_USED"],
    "POP_STRATUM": ["CN", "ESTN_UNIT_CN", "STRATUM_WGT", "ADJ_FACTOR_SUBP",
                    "ADJ_FACTOR_MICR", "ADJ_FACTOR_MACR"],
    "POP_PLOT_STRATUM_ASSGN": ["PLT_CN", "STRATUM_CN", "INVYR"],
}

# (evalid, type, report year, panels covered)
EVALUATIONS = (
    (91701, "VOL", 2017, (2013, 2014, 2015, 2016, 2017)),
    (91801, "VOL", 2018, PANELS),
    (91803, "GRM", 2018, PANELS),
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Tables:
    def __init__(self):
        self.rows: dict[str, list[list[str]]] = {name: [] for name in HEADERS}

    def add(self, table: str, *values) -> None:
        self.rows[table].append([_cell(v) for v in values])


def _weights(rng: random.Random, k: int) -> list[float]:
    """Unequal weights summing to 1 (the last one absorbs rounding)."""
    cuts = [rng.uniform(0.3, 1.0) for _ in range(k)]
    total = sum(cuts)
    out = [round(c / total, 6) for c in cuts[:-1]]
    out.append(round(1.0 - sum(out), 12))
    return out


def _tree(rng: random.Random, t: _Tables, cn: str, plt_cn: str, condid: int) -> None:
    dia = round(min(29.9, 1.0 + rng.expovariate(1 / 6.0)), 1)
    sizer = "MICROPLOT" if dia < 5.0 else "SUBPLOT"
    tpa = MICR_TPA if sizer == "MICROPLOT" else SUBP_TPA
    statuscd = 1 if rng.random() < 0.85 else 2
    spcd = rng.choices(TREE_SPCD, TREE_SPCD_WEIGHTS)[0]
    component = prevdia = tpamort = tparemv = tpagrow = None
    roll = rng.random()
    if dia >= 5.0 and roll < 0.60:
        if roll < 0.34:
            component = "SURVIVOR"
            prevdia = round(max(0.1, dia - rng.uniform(0.2, 2.0)), 1)
            if rng.random() < 0.5:
                tpagrow = round(rng.uniform(3.0, 7.0), 3)
        elif roll < 0.44:
            component = "MORTALITY"
            tpamort = round(rng.uniform(0.5, 3.0), 3)
        elif roll < 0.52:
            component = "INGROWTH"
            tpagrow = round(rng.uniform(0.5, 3.0), 3)
        else:
            component = "CUT"
            tparemv = round(rng.uniform(0.5, 3.0), 3)
    t.add(
        "TREE", cn, plt_cn, condid, statuscd, spcd, dia, tpa, sizer,
        round(dia * rng.uniform(1.0, 3.0), 3),
        round(dia * rng.uniform(0.5, 1.5), 3) if dia >= 9.0 else 0.0,
        round(dia * rng.uniform(30.0, 70.0), 2),
        round(dia * rng.uniform(6.0, 14.0), 2),
        round(dia * rng.uniform(15.0, 35.0), 2),
        round(dia * rng.uniform(3.0, 7.0), 2),
        prevdia, component, tpamort, tparemv, tpagrow,
    )


def _plot(rng: random.Random, t: _Tables, k: int, year: int) -> str:
    cn = f"{STATECD}{k:08d}"
    remper = None if rng.random() < 0.05 else round(rng.uniform(4.5, 5.5), 1)
    sampled = 1 if rng.random() < 0.9 else 2
    t.add(
        "PLOT", cn, STATECD, 10000 + k, year, year,
        round(rng.uniform(*LAT_BOX), 5), round(rng.uniform(*LON_BOX), 5),
        remper, 1, 1, sampled,
    )
    props = [1.0] if rng.random() < 0.7 else [0.625, 0.375]
    for condid, prop in enumerate(props, start=1):
        t.add(
            "COND", f"C{cn}-{condid}", cn, condid,
            1 if rng.random() < 0.88 else 2, prop,
            rng.choice(FORTYPCD), rng.choice(OWNCD), rng.randint(10, 120),
        )
        n_trees = rng.randint(0, 18) if prop == 1.0 else rng.randint(0, 11)
        for ti in range(n_trees):
            _tree(rng, t, f"T{cn}-{condid}-{ti:02d}", cn, condid)
        if rng.random() < 0.3:
            t.add("SEEDLING", cn, condid, rng.choice(SEEDLING_SPCD),
                  rng.randint(1, 6), MICR_TPA)
        if rng.random() < 0.35:
            for fuel in rng.sample(FUEL_TYPES, rng.randint(1, 4)):
                t.add(
                    "COND_DWM_CALC", cn, condid, fuel,
                    round(rng.uniform(0.1, 12.0), 3),
                    round(rng.uniform(0.1, 6.0), 3),
                    round(rng.uniform(0.05, 3.0), 3),
                )
        if rng.random() < 0.2:
            t.add("INVASIVE_SUBPLOT_SPP", cn, condid, rng.choice(INVASIVE_SPCD),
                  round(rng.uniform(1.0, 60.0), 1))
    return cn


def _population(rng: random.Random, t: _Tables, plots: list[tuple[str, int]]) -> None:
    """Evaluations, units, strata and plot assignments.

    Every evaluation shares one unit/stratum layout per plot (unit by plot
    index, stratum drawn with unequal probabilities), as DataMart does for
    the VOL and GRM evaluations of one inventory cycle.
    """
    unit_area = [round(rng.uniform(200000.0, 900000.0), 1) for _ in range(N_UNITS)]
    layout = []
    for k, (cn, year) in enumerate(plots):
        unit = k % N_UNITS
        stratum = rng.choices(range(N_STRATA), (4, 3, 2, 1))[0]
        layout.append((cn, year, unit, stratum))
    for evalid, typ, report, panels in EVALUATIONS:
        t.add("POP_EVAL", evalid, STATECD, typ, report, panels[0], panels[-1])
        for u in range(N_UNITS):
            unit_cn = f"U{evalid}-{u}"
            t.add("POP_ESTN_UNIT", unit_cn, evalid, unit_area[u])
            for s, w in enumerate(_weights(rng, N_STRATA)):
                t.add(
                    "POP_STRATUM", f"S{evalid}-{u}-{s}", unit_cn, w,
                    round(rng.uniform(0.95, 1.25), 4),
                    round(rng.uniform(0.95, 1.25), 4),
                    round(rng.uniform(0.95, 1.25), 4),
                )
        for cn, year, unit, stratum in layout:
            if year in panels:
                t.add("POP_PLOT_STRATUM_ASSGN", cn, f"S{evalid}-{unit}-{stratum}", year)


def _ring(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    n = RING_SIDE_POINTS
    pts = []
    for i in range(n):
        pts.append([x0 + (x1 - x0) * i / n, y0])
    for i in range(n):
        pts.append([x1, y0 + (y1 - y0) * i / n])
    for i in range(n):
        pts.append([x1 - (x1 - x0) * i / n, y1])
    for i in range(n):
        pts.append([x0, y1 - (y1 - y0) * i / n])
    pts.append(list(pts[0]))
    return [[round(x, 9), round(y, 9)] for x, y in pts]


def polygon_grid() -> dict:
    """A GRID x GRID FeatureCollection of squares covering the plot box."""
    features = []
    dx = (LON_BOX[1] - LON_BOX[0]) / GRID
    dy = (LAT_BOX[1] - LAT_BOX[0]) / GRID
    for r in range(GRID):
        for c in range(GRID):
            fid = r * GRID + c + 1
            x0, y0 = LON_BOX[0] + c * dx, LAT_BOX[0] + r * dy
            features.append({
                "type": "Feature",
                "id": fid,
                "properties": {"NAME": f"cell-{r}-{c}"},
                "geometry": {"type": "Polygon",
                             "coordinates": [_ring(x0, y0, x0 + dx, y0 + dy)]},
            })
    return {"type": "FeatureCollection", "features": features}


def generate(out_dir: str | Path, seed: int, n_plots: int) -> str:
    """Write one state into ``out_dir``; return the SHA-256 of its files."""
    if n_plots < 2 * len(PANELS) * N_UNITS:
        raise ValueError(f"need at least {2 * len(PANELS) * N_UNITS} plots, got {n_plots}")
    rng = random.Random(f"timberline-bench/{seed}/{n_plots}")
    t = _Tables()
    plots = []
    for k in range(n_plots):
        year = PANELS[k % len(PANELS)]
        plots.append((_plot(rng, t, k, year), year))
    _population(rng, t, plots)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for table, header in HEADERS.items():
        name = f"{STATE}_{table}.csv"
        with open(out / name, "w", newline="", encoding="utf-8") as fp:
            writer = csv.writer(fp, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(t.rows[table])
        names.append(name)
    with open(out / "REF_SPECIES.csv", "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\r\n")
        writer.writerow(["SPCD", "COMMON_NAME", "GENUS", "SCIENTIFIC_NAME"])
        writer.writerows(SPECIES)
    names.append("REF_SPECIES.csv")
    (out / "polys.geojson").write_text(
        json.dumps(polygon_grid(), indent=1) + "\n", encoding="utf-8"
    )
    names.append("polys.geojson")
    return digest(out, names)


def digest(directory: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--plots", type=int, default=5000)
    args = parser.parse_args(argv)
    print(generate(args.out_dir, args.seed, args.plots))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
