"""Command-line interface, exercised through main() with fixture databases."""

import json
import os
import shutil
from pathlib import Path

import pytest

import timberline as tl
from timberline.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SYNTH1 = str(FIXTURES / "SYNTH-1")
SYNTH_INV = str(FIXTURES / "SYNTH-INV")
SYNTH_PANEL = str(FIXTURES / "SYNTH-5PANEL")


def test_tpa_csv_stdout(capsys):
    assert main(["tpa", "--db", SYNTH1]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("YEAR,TPA,TPA_SE,BAA")
    assert lines[1].startswith("2018,6.0,")


def test_states_inferred_from_filenames(capsys):
    # no --states: discovers CT from the CT_PLOT.csv prefix
    assert main(["area", "--db", SYNTH1]) == 0
    assert "1000.0" in capsys.readouterr().out


def test_json_format(capsys):
    assert main(["tpa", "--db", SYNTH1, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["TPA"] == 6.0


def test_pretty_format_aligns_columns(capsys):
    assert main(["tpa", "--db", SYNTH1, "--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["YEAR", "TPA", "TPA_SE", "BAA", "BAA_SE",
                                "nPlots_TREE", "nPlots_AREA"]
    assert len(lines[0]) == len(lines[1])  # underline row matches header width


def test_output_file(tmp_path, capsys):
    target = tmp_path / "tpa.csv"
    assert main(["tpa", "--db", SYNTH1, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("YEAR,TPA")


def test_usage_error_exit_2(capsys):
    rc = main(["tpa", "--db", SYNTH1, "--lambda", "1.5", "--method", "EMA"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "lambda" in err


def test_estimation_error_exit_1(capsys):
    rc = main(["growmort", "--db", SYNTH1])
    assert rc == 1
    assert "GRM" in capsys.readouterr().err


def test_cli_and_engine_problems_merge(capsys):
    # geojson without polygons (two CLI problems) + zero workers (engine problem)
    rc = main(["tpa", "--db", SYNTH1, "--format", "geojson", "--workers", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    assert "workers" in err and "--polys" in err


def test_validate_subcommand(capsys):
    assert main(["validate", "--db", SYNTH1]) == 0
    assert "ok" in capsys.readouterr().err


def test_evalids_subcommand(capsys):
    assert main(["evalids", "--db", SYNTH1]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("EVALID,")
    assert "91801" in out


def test_clip_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "clip"
    rc = main(["clip", "--db", SYNTH_INV, "--evalid", "91871",
               "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "CT_PLOT.csv").exists()
    rc = main(["invasive", "--db", str(out_dir)])
    assert rc == 0
    assert ",50.0," in capsys.readouterr().out


def test_fetch_rejects_unknown_state(capsys):
    assert main(["fetch", "XX"]) == 1
    assert "XX" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["2", "8"])
def test_workers_output_identical(workers, capsys):
    args = ["tpa", "--db", SYNTH_PANEL, "--method", "EMA",
            "--lambda", "0.3,0.7", "--variance"]
    assert main(args + ["--workers", "1"]) == 0
    base = capsys.readouterr().out
    assert main(args + ["--workers", workers]) == 0
    assert capsys.readouterr().out == base


def test_workers_start_no_process(monkeypatch, synth_panel, capsys):
    def no_fork():
        raise AssertionError("estimation started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    kw = {"method": "EMA", "lambdas": (0.3, 0.7), "variance": True}
    assert tl.tpa(synth_panel, workers=64, **kw).rows == tl.tpa(synth_panel, **kw).rows
    assert main(["tpa", "--db", SYNTH_PANEL, "--workers", "64"]) == 0


def test_non_utf8_table_is_a_load_error(tmp_path, capsys):
    db = tmp_path / "db"
    shutil.copytree(SYNTH1, db)
    tree = db / "CT_TREE.csv"
    offset = tree.stat().st_size
    with open(tree, "ab") as fp:
        fp.write(b"\xff")
    assert main(["tpa", "--db", str(db)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"CT_TREE.csv: not UTF-8 text (byte 0xff at offset {offset})" in err


def test_duplicate_assignment_exits_1_without_traceback(tmp_path, capsys):
    db = tl.build_fixture("SYNTH-1")
    first = db.assignments[0]
    twice = tl.ForestDatabase(
        plots=db.plots, conds=db.conds, trees=db.trees, evaluations=db.evaluations,
        estn_units=db.estn_units, strata=db.strata, species=db.species,
        assignments=db.assignments + (first,),
    )
    tl.write_database(twice, tmp_path)
    assert main(["tpa", "--db", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"assigns plot {first.plt_cn} more than once" in err
    assert "Traceback" not in err


def _polys_file(tmp_path, corner):
    ring = [[-74.0, 41.0], [-72.75, 41.0], corner, [-74.0, 42.0], [-74.0, 41.0]]
    path = tmp_path / "polys.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "west", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [ring]}},
    ]}))
    return str(path)


def test_polys_altitude_is_ignored(tmp_path, capsys):
    assert main(["tpa", "--db", SYNTH1, "--polys", _polys_file(tmp_path, [-72.75, 42.0])]) == 0
    flat = capsys.readouterr().out
    assert main(["tpa", "--db", SYNTH1,
                 "--polys", _polys_file(tmp_path, [-72.75, 42.0, 120.0])]) == 0
    assert capsys.readouterr().out == flat


@pytest.mark.parametrize("corner, problem", [
    ([-72.75, 42.0, 0.0, 0.0], "is not [lon, lat] or [lon, lat, alt]"),
    ([-72.75, "a"], "has a non-numeric coordinate"),
    ([-72.75, float("nan")], "has a non-finite coordinate"),
])
def test_bad_polygon_position_exits_1_without_traceback(tmp_path, capsys, corner, problem):
    assert main(["tpa", "--db", SYNTH1, "--polys", _polys_file(tmp_path, corner)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "feature 0: position" in err and problem in err


def test_clip_out_existing_file_exits_1_without_traceback(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    assert main(["clip", "--db", SYNTH1, "--most-recent", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {target}: File exists" in err
    assert "Traceback" not in err


def test_output_in_missing_directory_exits_1_without_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.csv"
    assert main(["tpa", "--db", SYNTH1, "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert f"error: cannot write {target}: No such file or directory" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_estimate_and_clip_commands_build_no_plot_records(tmp_path, monkeypatch, capsys):
    from timberline import model

    built = []
    for cls in (model.PlotRecord, model.ConditionRecord, model.TreeRecord,
                model.SeedlingRecord, model.DwmRecord, model.InvasiveRecord,
                model.StratumAssignment):
        def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            built.append(_name)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", spy)
    polys = _polys_file(tmp_path, [-72.75, 42.0])
    for command in ("area", "biomass", "seedling", "dwm", "invasive", "standstruct"):
        assert main([command, "--db", SYNTH_INV, "--most-recent"]) == 0
    assert main(["tpa", "--db", SYNTH_INV, "--most-recent", "--by-species",
                 "--by-size-class", "--polys", polys]) == 0
    assert main(["clip", "--db", SYNTH_INV, "--most-recent", "--mask", polys,
                 "--out", str(tmp_path / "clip")]) == 0
    assert main(["clip", "--db", SYNTH_INV, "--most-recent",
                 "--out", str(tmp_path / "clip2")]) == 0
    assert built == []
    assert len(tl.load_database(tmp_path / "clip2", ["CT"]).trees) > 0
    assert built == []
    list(tl.load_database(tmp_path / "clip2", ["CT"]).trees)  # the spy sees records
    assert "TreeRecord" in built
