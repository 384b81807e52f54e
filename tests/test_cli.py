"""Command-line interface, exercised through main() with fixture databases."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import timberline as tl
from timberline.cli import main
from timberline.errors import DomainBindError, DomainSyntaxError, UsageError

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


def test_trees_without_conditions_are_counted_on_stderr(tmp_path):
    db = tmp_path / "db"
    shutil.copytree(SYNTH1, db)
    cond = db / "CT_COND.csv"
    cond.write_text(cond.read_text().splitlines(keepends=True)[0])  # header only
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "timberline.cli", "tpa", "--db", str(db)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["YEAR,TPA,TPA_SE,BAA,BAA_SE,nPlots_TREE,nPlots_AREA"]
    assert done.stderr.splitlines() == [
        "WARNING timberline.core: 4 TREE rows have no COND row for their (PLT_CN, CONDID); "
        "skipped"
    ]


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
    # geojson without polygons (two CLI problems) + unknown method (engine problem)
    rc = main(["tpa", "--db", SYNTH1, "--format", "geojson", "--method", "BIENNIAL"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    assert "BIENNIAL" in err and "--polys" in err


@pytest.mark.parametrize("domain, error, problem", [
    ("NOPE > 1", DomainBindError, "unknown column NOPE"),
    ("DIA >", DomainSyntaxError,
     "expected a column name or literal, found 'end of input' (at position 5)"),
])
def test_domain_errors_exit_2_with_the_other_problems(capsys, domain, error, problem):
    rc = main(["tpa", "--db", SYNTH1, "--format", "json", "--pretty", "--tree-domain", domain])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --pretty applies to the csv format only", f"error: {problem}"]
    with pytest.raises(error, match=re.escape(problem)):  # the API keeps its error types
        tl.tpa(tl.load_database(SYNTH1, ["CT"]), tree_domain=domain)


@pytest.mark.parametrize("grouping, problems", [
    (["--grp-by", "NOPE2"], ["unknown grouping column NOPE2", "unknown column NOPE",
                             "unknown column ALSO_NOPE"]),
    ([], ["unknown column NOPE", "unknown column ALSO_NOPE"]),
])
def test_every_grouping_and_domain_problem_is_reported(capsys, grouping, problems):
    rc = main(["tpa", "--db", SYNTH1, "--tree-domain", "NOPE > 1",
               "--area-domain", "ALSO_NOPE == 2", *grouping])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {p}" for p in problems]


@pytest.mark.parametrize("args, problems", [
    (["--method", "BIENNIAL", "--tree-domain", "NOPE > 1"],
     ["unknown method 'BIENNIAL' (choose from TI, ANNUAL, SMA, LMA, EMA)",
      "unknown column NOPE"]),
    (["--by-plot", "--variance", "--grp-by", "NOPE2"],
     ["per-plot output has no variance", "unknown grouping column NOPE2"]),
])
def test_option_problems_are_reported_with_the_name_problems(capsys, args, problems):
    assert main(["tpa", "--db", SYNTH1, *args]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {p}" for p in problems]


@pytest.mark.parametrize("method", ["TI", "ANNUAL", "SMA", "LMA", "EMA"])
def test_a_lambda_out_of_range_is_reported_with_the_other_problems(capsys, method):
    # every method but a per-plot request reads the lambdas, so each checks them alike
    assert main(["tpa", "--db", SYNTH1, "--method", method, "--lambda", "0.5,2",
                 "--grp-by", "NOPE"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: lambda must be strictly between 0 and 1, got 2.0",
        "error: unknown grouping column NOPE"]
    assert main(["tpa", "--db", SYNTH1, "--by-plot", "--lambda", "2"]) == 0


@pytest.mark.parametrize("kwargs, error, message", [
    ({"grp_by": ("X", "Y")}, UsageError, "unknown grouping column X; unknown grouping column Y"),
    ({"tree_domain": "A > 1", "area_domain": "B == 2"}, DomainBindError,
     "unknown column A; unknown column B"),
    ({"tree_domain": "A >", "area_domain": "B == 2"}, UsageError,
     "expected a column name or literal, found 'end of input' (at position 3); unknown column B"),
    ({"tree_domain": "A > 1", "grp_by": ("X",)}, UsageError,
     "unknown grouping column X; unknown column A"),
    ({"method": "BIENNIAL", "tree_domain": "A > 1"}, UsageError,
     "unknown method 'BIENNIAL' (choose from TI, ANNUAL, SMA, LMA, EMA); unknown column A"),
    ({"by_plot": True, "variance": True, "grp_by": ("X",)}, UsageError,
     "per-plot output has no variance; unknown grouping column X"),
    ({"method": "BIENNIAL"}, UsageError,
     "unknown method 'BIENNIAL' (choose from TI, ANNUAL, SMA, LMA, EMA)"),
])
def test_the_api_reports_every_problem_of_a_request(synth1, kwargs, error, message):
    with pytest.raises(error) as info:
        tl.tpa(synth1, **kwargs)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("grouping", [[], ["--grp-by", "OWNCD"]])
def test_diversity_without_trees_in_the_domains_prints_the_header(capsys, grouping):
    rc = main(["diversity", "--db", SYNTH1, "--tree-domain", "DIA > 1e9", *grouping])
    assert rc == 0
    group = ["OWNCD"] if grouping else []
    assert capsys.readouterr().out.splitlines() == [",".join(
        ["YEAR", *group, "H", "H_SE", "S", "S_SE", "Eh", "Eh_SE", "H_POOLED", "S_POOLED",
         "Eh_POOLED", "nPlots_TREE", "nPlots_AREA"])]


def test_by_plot_rejects_variance_and_panel_method(capsys):
    rc = main(["tpa", "--db", SYNTH1, "--by-plot", "--variance"])
    assert rc == 2
    assert "per-plot output has no variance" in capsys.readouterr().err
    rc = main(["tpa", "--db", SYNTH_PANEL, "--by-plot", "--method", "SMA"])
    assert rc == 2
    assert "takes no SMA method" in capsys.readouterr().err


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
        def spy(record_cls, *args, _new=cls.__new__, _name=cls.__name__, **kw):
            built.append(_name)
            return _new(record_cls, *args, **kw)

        monkeypatch.setattr(cls, "__new__", spy)
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


def test_cli_import_skips_the_oracle_and_the_synthetic_databases():
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, timberline.cli; "
            "print([m for m in ('timberline.oracle', 'timberline.synth') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("tpa", "--db", SYNTH_PANEL, "--most-recent", "--by-species", "--by-size-class"),
    ("biomass", "--db", SYNTH_PANEL, "--most-recent", "--tree-domain",
     "DIA >= 10 & STATUSCD == 1", "--format", "json"),
    ("area", "--db", SYNTH_PANEL, "--most-recent", "--grp-by", "OWNCD,FORTYPCD",
     "--area-domain", "STDAGE > 40", "--pretty"),
    ("growmort", "--db", str(FIXTURES / "SYNTH-GRM"), "--most-recent", "--method", "EMA",
     "--lambda", "0.3,0.7"),
    ("clip", "--db", SYNTH_PANEL, "--most-recent", "--out"),
], ids=lambda argv: argv[0])
def test_report_commands_never_import_numpy_ma(argv, tmp_path):
    """Importing ``numpy.ma`` alone costs a command about 16 ms; no command needs
    ``dataclasses`` either."""
    status, loaded = _loaded_modules((*argv, "OUT") if argv[-1] == "--out" else argv, tmp_path)
    assert (status, "numpy.ma" in loaded, "dataclasses" in loaded) == (0, False, False)


def _loaded_modules(argv, tmp_path) -> tuple[int, set[str]]:
    """The status of ``main(argv)`` in a fresh interpreter that imported only the
    CLI, and the modules loaded by its end.  An ``OUT`` argument becomes an output
    directory and ``POLYS`` a polygon file."""
    argv = [str(tmp_path / "clip") if a == "OUT" else
            _polys_file(tmp_path, [-72.75, 42.0]) if a == "POLYS" else a for a in argv]
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; from timberline.cli import main; status = main(sys.argv[1:]); "
            "print(status, *sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True)
    status, *modules = done.stderr.splitlines()[-1].split()
    return int(status), set(modules)


SPATIAL = "timberline.spatial"
ESTIMATORS = {f"timberline.{m}" for m in ("attributes", "core", "domain", "spatial", "output")}


@pytest.mark.parametrize("argv, absent, present", [
    (("tpa", "--db", SYNTH_PANEL, "--most-recent", "--by-species", "--by-size-class"),
     {SPATIAL, "json"}, ESTIMATORS - {SPATIAL}),
    (("biomass", "--db", SYNTH_PANEL, "--most-recent", "--format", "json"), {SPATIAL}, {"json"}),
    (("area", "--db", SYNTH_PANEL, "--most-recent", "--grp-by", "OWNCD", "--pretty"),
     {SPATIAL, "json"}, set()),
    (("growmort", "--db", str(FIXTURES / "SYNTH-GRM"), "--most-recent", "--method", "EMA"),
     {SPATIAL, "json"}, set()),
    (("tpa", "--db", SYNTH_INV, "--polys", "POLYS"), set(), {SPATIAL}),
    (("clip", "--db", SYNTH_PANEL, "--most-recent", "--out", "OUT"), ESTIMATORS, set()),
    (("clip", "--db", SYNTH_INV, "--mask", "POLYS", "--out", "OUT"), ESTIMATORS - {SPATIAL},
     {SPATIAL}),
    (("evalids", "--db", SYNTH_PANEL), ESTIMATORS - {"timberline.core", "timberline.output"},
     set()),
], ids=["tpa", "biomass-json", "area-pretty", "growmort", "tpa-polys", "clip", "clip-mask",
        "evalids"])
def test_commands_import_only_what_they_reach(argv, absent, present, tmp_path):
    """A command loads the estimators, polygons and JSON only when it uses them,
    and ``dataclasses`` never."""
    status, loaded = _loaded_modules(argv, tmp_path)
    assert status == 0
    assert loaded & (absent | {"dataclasses"}) == set()
    assert present <= loaded


def test_package_import_runs_no_module():
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, timberline; print([m for m in sys.modules if '.' in m and "
            "m.startswith('timberline')]); timberline.tpa; print('timberline.attributes' in "
            "sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "True"]


def test_family_help_names_its_default_filter(capsys):
    with pytest.raises(SystemExit):
        main(["tpa", "--help"])
    assert "Default record filter: STATUSCD == 1 & DIA >= 1.0." in capsys.readouterr().out


def test_every_exported_name_resolves():
    for name in tl.__all__:
        assert getattr(tl, name) is not None, name
    assert tl.brute_force_estimate.__module__ == "timberline.oracle"
    assert tl.build_fixture.__module__ == "timberline.synth"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tl.nope  # noqa: B018


def _readme_block(readme: str, title: str, language: str) -> str:
    """The first ``language`` code block of the README section ``title``."""
    section = readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _box(fid, west, east):
    ring = [[west, 40.5], [east, 40.5], [east, 42.5], [west, 42.5], [west, 40.5]]
    return {"type": "Feature", "id": fid, "properties": {"name": fid},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


def test_readme_per_plot_examples_run_as_written(capsys, monkeypatch, tmp_path):
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    for title in ("Per-plot output", "Panel estimators"):  # each prints what it shows
        code = _readme_block(readme, title, "python")
        exec(compile(code, "README.md", "exec"), {})
        shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
        assert capsys.readouterr().out.splitlines() == shown, title

    section = readme.split("## Per-plot output", 1)[1].split("\n## ", 1)[0]

    command = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    expected = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    argv = shlex.split(command)
    assert argv[0] == "timberline"
    monkeypatch.chdir(root)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == expected

    # The quick start, clipping and polygon examples run in order, in one
    # namespace, beside the files they name: a generated Connecticut database
    # in fia/ and polygons over its plots (longitudes -73.5 to -71.5).
    monkeypatch.chdir(tmp_path)
    tl.write_database(tl.random_database(4), "fia")
    Path("watershed.geojson").write_text(json.dumps({
        "type": "FeatureCollection", "features": [_box("shed", -74.0, -72.5)]}))
    Path("counties.geojson").write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [_box("west", -74.0, -72.5), _box("east", -72.5, -71.0)]}))
    names: dict = {}
    for title in ("Quick start", "Choosing plots: evaluations and clipping", "Polygon summaries"):
        exec(compile(_readme_block(readme, title, "python"), "README.md", "exec"), names)
    assert len(names["tpa"]) and len(names["vol"]) and len(names["area"])
    assert 0 < len(names["boxed"].plots) < len(names["db"].plots)
    assert set(names["table"].column("POLY_ID")) == {"west", "east"}
    assert names["fc"]["type"] == "FeatureCollection"

    # The command-line examples, each through main(); fetch needs the
    # network, so it is the one line left out.
    commands = _readme_block(readme, "Quick start", "sh").splitlines()
    assert commands[0].startswith("timberline fetch ")
    shown = {}
    for line in commands[1:]:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "timberline" and main(argv[1:]) == 0, line
        shown[argv[1]] = capsys.readouterr()
    assert shown["validate"].err == "ok\n"
    assert shown["evalids"].out.startswith("EVALID,STATECD,EVAL_TYP,REPORT_YEAR,")
    assert json.loads(shown["tpa"].out)["columns"][:3] == ["YEAR", "SPCD", "COMMON_NAME"]
    assert shown["area"].out.split()[:2] == ["YEAR", "OWNCD"]
    assert Path("big.csv").read_text(encoding="utf-8").startswith("YEAR,NETVOL_ACRE,")


# Defects written into a copy of SYNTH-INV: (file, rows appended, {row: replacement}).
_VALIDATE_DEFECTS = {
    "CT_PLOT.csv": (["V1,9,21,2018,2018,41.45,-72.75,,,,1"],
                    {2: "V2,9,22,2018,2018,95.0,-72.65,0.0,,,1"}),
    "CT_COND.csv": (["CV1-2,V1,2,1,0.5,505,46,60", "CGHOST,GHOST,1,1,1.0,505,46,60"],
                    {2: "CV2-1,V2,1,1,1.5,505,46,60"}),
    "CT_TREE.csv": (["GT1,GHOST,1,1,316,8.0,6.0,SUBPLOT,,,,,,,,BOGUS,,,"],
                    {1: "V1T1,V1,1,1,316,3.0,100.0,SUBPLOT,12.0,0.0,300.0,60.0,150.0,30.0,,,,,",
                     2: "V2T1,V2,2,1,129,-1.0,50.0,SUBPLOT,,,,,,,,,,,"}),
    "CT_SEEDLING.csv": ([], {1: "V1,1,316,0,74.97"}),
    "CT_COND_DWM_CALC.csv": (["V1,1,1HR,1.5,0.8,0.4", "V2,1,XHR,-0.5,0.4,0.2"], {}),
    "CT_INVASIVE_SUBPLOT_SPP.csv": (["V2,3,341,120.0"], {}),
    "CT_POP_EVAL.csv": ([], {1: "91871,9,ZZZ,2018,2018,2018"}),
    "CT_POP_ESTN_UNIT.csv": ([], {1: "U91871,91871,0.0"}),
    "CT_POP_STRATUM.csv": ([], {1: "S91871-1,U91871,0.6,1.0,0.0,"}),
    "CT_POP_PLOT_STRATUM_ASSGN.csv": (["V1,S91871-1,2018", "GHOST,S91871-9,2018"], {}),
}

_VALIDATE_GOLDEN = """\
PLOT[V2]: LAT outside [-90, 90]
PLOT[V2]: REMPER not positive
PLOT[V1]: duplicate CN
COND[V2/1]: CONDPROP_UNADJ outside [0, 1]
COND[GHOST/1]: cond->plot
COND[V1]: sum CONDPROP_UNADJ > 1
COND[V2]: sum CONDPROP_UNADJ > 1
TREE[V1T1]: SIZER inconsistent with DIA
TREE[V2T1]: tree->cond
TREE[V2T1]: DIA not positive
TREE[V2T1]: SIZER inconsistent with DIA
TREE[GT1]: tree->plot
TREE[GT1]: unknown COMPONENT
SEEDLING[V1/1#0]: TREECOUNT < 1
COND_DWM_CALC[V1/1/1HR]: duplicate fuel row
COND_DWM_CALC[V2/1/XHR]: unknown FUEL_TYPE
COND_DWM_CALC[V2/1/XHR]: negative per-acre value
INVASIVE_SUBPLOT_SPP[V2/3#2]: invasive->cond
INVASIVE_SUBPLOT_SPP[V2/3#2]: COVER_PCT outside [0, 100]
POP_EVAL[91871]: unknown EVAL_TYP
POP_ESTN_UNIT[U91871]: AREA_USED not positive
POP_STRATUM[S91871-1]: adjustment factor not positive
POP_STRATUM[U91871]: sum W_h != 1
POP_PLOT_STRATUM_ASSGN[GHOST->S91871-9]: assignment->plot
POP_PLOT_STRATUM_ASSGN[GHOST->S91871-9]: assignment->stratum
POP_PLOT_STRATUM_ASSGN[91871/V1]: plot assigned to multiple strata in one evaluation
"""


def test_validate_reports_violations_and_fails(tmp_path):
    db = tmp_path / "db"
    shutil.copytree(SYNTH_INV, db)
    for name, (appended, replaced) in _VALIDATE_DEFECTS.items():
        lines = (db / name).read_text().splitlines()
        for row, line in replaced.items():
            lines[row] = line
        (db / name).write_text("\n".join(lines + appended) + "\n")
    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "timberline.cli", "validate", "--db", str(db)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == _VALIDATE_GOLDEN
    assert done.stderr == "26 integrity violation(s)\n"


def test_running_out_of_memory_is_one_error_line_and_exit_1(monkeypatch, capsys):
    from timberline import attributes

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(attributes, "estimate", exhausted)
    assert main(["tpa", "--db", SYNTH1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: tpa ran out of memory"]


def test_an_estimate_past_the_address_space_limit_exits_1_without_traceback(tmp_path):
    # Grouped by CN under EMA, the 5k-plot state has 35,777 keys x 80 cells:
    # the kernel's first per-cell sum alone asks for 43.7 MiB, which a
    # 250 MB address space does not hold.  The limit is set in the child only.
    import resource

    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import gen
    finally:
        sys.path.remove(perfbench)
    gen.generate(tmp_path, 3, 5000)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (250 << 20, 250 << 20))

    src = str(Path(tl.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "timberline.cli", "tpa", "--db", str(tmp_path), "--most-recent",
         "--grp-by", "CN", "--variance", "--method", "EMA"],
        env=env, capture_output=True, text=True, preexec_fn=limit, timeout=300)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == [
        "error: tpa ran out of memory"]
