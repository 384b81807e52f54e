"""CSV round-tripping, load diagnostics, and mirror downloads."""

import csv
import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timberline
from timberline import io as tio
from timberline import model
from timberline.cli import main
from timberline.errors import FetchError, LoadError
from timberline.io import DEFAULT_BASE_URL, fetch_state, load_database, write_database
from timberline.synth import build_fixture, random_database


@pytest.mark.parametrize("name", ["SYNTH-1", "SYNTH-GRM", "SYNTH-INV"])
def test_round_trip_preserves_contents(tmp_path, name):
    db = build_fixture(name)
    write_database(db, tmp_path)
    back = load_database(tmp_path, db.states)
    assert db.same_contents(back)


def test_round_trip_preserves_extras(tmp_path):
    db = build_fixture("SYNTH-INV")
    write_database(db, tmp_path)
    back = load_database(tmp_path, ["CT"])
    protocols = {p.cn: p.extras.get("INVASIVE_SAMPLING_STATUS_CD") for p in back.plots}
    assert protocols == {"V1": "1", "V2": "1"}


def test_species_written_once_shared(tmp_path):
    db = build_fixture("SYNTH-1")
    files = write_database(db, tmp_path)
    assert "REF_SPECIES.csv" in files
    assert not (tmp_path / "CT_REF_SPECIES.csv").exists()


def test_missing_directory():
    with pytest.raises(LoadError, match="database directory not found"):
        load_database("/nonexistent/nowhere", ["CT"])


def test_unknown_state_abbreviation(tmp_path):
    with pytest.raises(LoadError, match="unknown state abbreviation"):
        load_database(tmp_path, ["ZZ"])


def test_missing_mandatory_table(tmp_path):
    db = build_fixture("SYNTH-1")
    write_database(db, tmp_path)
    (tmp_path / "CT_POP_STRATUM.csv").unlink()
    with pytest.raises(LoadError, match="CT_POP_STRATUM.csv"):
        load_database(tmp_path, ["CT"])


def test_malformed_cell_names_file_row_and_column(tmp_path):
    db = build_fixture("SYNTH-1")
    write_database(db, tmp_path)
    path = tmp_path / "CT_TREE.csv"
    text = path.read_text()
    path.write_text(text.replace("10.0", "ten", 1))
    with pytest.raises(LoadError, match=r"CT_TREE.csv row \d+ column \w+"):
        load_database(tmp_path, ["CT"])


def test_state_spelling_normalized(tmp_path):
    db = build_fixture("SYNTH-1")
    write_database(db, tmp_path)
    for alias in ("ct", "CT", " ct "):
        back = load_database(tmp_path, [alias])
        assert tuple(back.states) == ("CT",)


def test_unsupported_design_rejected(tmp_path):
    db = build_fixture("SYNTH-1")
    write_database(db, tmp_path)
    path = tmp_path / "CT_PLOT.csv"
    header, *rows = path.read_text().splitlines()
    cols = header.split(",")
    idx = cols.index("DESIGNCD")
    cells = rows[0].split(",")
    cells[idx] = "410"
    rows[0] = ",".join(cells)
    path.write_text("\r\n".join([header, *rows]) + "\r\n")
    with pytest.raises(LoadError, match="DESIGNCD 410"):
        load_database(tmp_path, ["CT"])


def test_sizer_derived_from_diameter_when_blank(tmp_path):
    db = build_fixture("SYNTH-1")
    trees = [dataclasses.replace(t, sizer=None) for t in db.trees]
    redone = type(db)(
        plots=db.plots, conds=db.conds, trees=trees, seedlings=db.seedlings,
        dwm=db.dwm, invasives=db.invasives, evaluations=db.evaluations,
        estn_units=db.estn_units, strata=db.strata, assignments=db.assignments,
        species=db.species, states=db.states,
    )
    write_database(redone, tmp_path)
    back = load_database(tmp_path, ["CT"])
    from timberline.model import derive_sizer

    assert all(t.sizer == derive_sizer(t.dia) for t in back.trees)


def test_cli_import_does_not_load_requests():
    src = str(Path(timberline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, timberline.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _replace_cell(path, rownum, column, value):
    """Overwrite one cell of a CSV file; rows are numbered as in LoadError (header = 1)."""
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    rows[rownum - 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fp:
        csv.writer(fp, lineterminator="\r\n").writerows(rows)


@pytest.mark.parametrize("column", ["DIA", "SPCD"])
@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_cell_fails_load_through_cli(tmp_path, capsys, column, value):
    # DIA=nan on a SYNTH-1 tree once dropped the tree silently (TPA 4.5, not
    # 6.0); inf in an int column escaped as an OverflowError.
    write_database(build_fixture("SYNTH-1"), tmp_path)
    _replace_cell(tmp_path / "CT_TREE.csv", 2, column, value)
    assert main(["tpa", "--db", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert f"CT_TREE.csv row 2 column {column}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# The column-wise loader against the record-by-record loop it replaced
# ---------------------------------------------------------------------------


def _reference_read_table(path, spec):
    """The per-record loader that ``io._read_table`` replaced, kept as an oracle."""
    known = {c.name: c for c in spec.columns}
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path.name}: empty file (missing header row)") from None
        names = [h.strip().upper() for h in header]
        missing = [c.name for c in spec.columns if c.required and c.name not in names]
        if missing:
            raise LoadError(f"{path.name}: missing required column(s) {', '.join(missing)}")
        for rownum, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(names):
                raise LoadError(
                    f"{path.name} row {rownum}: expected {len(names)} fields, got {len(row)}"
                )
            kwargs: dict = {}
            extras: dict[str, str] = {}
            for name, raw in zip(names, row):
                col = known.get(name)
                if col is None:
                    cell = raw.strip()
                    if cell != "":
                        extras[name] = cell
                    continue
                where = f"{path.name} row {rownum} column {name}"
                value = tio._parse_cell(raw, col.kind, where)
                if value is None and col.required:
                    raise LoadError(f"{where}: required value is blank")
                kwargs[col.attr] = value
            kwargs["extras"] = extras
            try:
                rec = spec.record(**kwargs)
            except TypeError as exc:
                raise LoadError(f"{path.name} row {rownum}: {exc}") from None
            records.append(rec)
    if spec.table == "PLOT":
        for rec in records:
            if rec.designcd is not None and rec.designcd != 1:
                raise LoadError(
                    f"{path.name}: plot {rec.cn} uses DESIGNCD {rec.designcd}; only the "
                    "annual design (DESIGNCD 1) is supported"
                )
    if spec.table == "TREE":
        records = [
            dataclasses.replace(r, sizer=model.derive_sizer(r.dia))
            if r.sizer is None and r.dia is not None else r
            for r in records
        ]
    return records


def _outcome(read, path, spec):
    try:
        return "records", [repr(r) for r in read(path, spec)]
    except LoadError as exc:
        return "error", str(exc)


_VALID = {
    "int": st.integers(-3, 3).map(str) | st.integers(-99999, 99999).map(str),
    "float": st.floats(-1e6, 1e6, allow_nan=False).map(repr) | st.integers(0, 9).map(str),
    "str": st.text("ABCxyz01 ", min_size=1, max_size=4),
}
_ODD = st.sampled_from([
    "", " ", "3.0", "-2.0", "3.5", "ten", "1e3", "nan", "inf", "-Infinity", "1e400",
])


@st.composite
def _cells(draw, kind):
    text = draw(_ODD) if draw(st.integers(0, 15)) == 0 else draw(_VALID[kind])
    pad = st.sampled_from(["", "", " ", "\t "])
    return draw(pad) + text + draw(pad)


@st.composite
def _tables(draw):
    spec = draw(st.sampled_from(list(model.TABLES.values())))
    optional = [c for c in spec.columns if not c.required]
    present = [c for c in spec.columns if c.required]
    present += draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    kinds = {c.name: c.kind for c in present}
    # A repeated header name, known or extra, fails the load.
    repeated = draw(st.lists(st.sampled_from(present), max_size=1))
    unknown = draw(st.lists(st.sampled_from(["ECOSUBCD", "EXTRA_B"]), max_size=3))
    names = draw(st.permutations([c.name for c in present + repeated] + unknown))
    header = [n.lower() if draw(st.integers(0, 5)) == 0 else n for n in names]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.integers(0, 39))
        if shape == 0:
            lines.append("")
        elif shape == 1:
            lines.append("," * (len(names) - 1))
        elif shape == 2:
            width = draw(st.sampled_from([len(names) - 1, len(names) + 1]))
            lines.append(",".join(["1"] * width))
        else:
            lines.append(",".join(draw(_cells(kinds.get(n, "str"))) for n in names))
    return spec, "\r\n".join(lines) + "\r\n"


@settings(max_examples=300, deadline=None)
@given(table=_tables(), chunk_rows=st.sampled_from([1, 3, tio.CHUNK_ROWS]))
def test_column_loader_matches_record_loop(table, chunk_rows):
    spec, text = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"CT_{spec.table}.csv"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(tio, "CHUNK_ROWS", chunk_rows):
            got = _outcome(tio._read_table, path, spec)
        names = [h.strip().upper() for h in text.split("\r\n", 1)[0].split(",")]
        repeat = next((n for i, n in enumerate(names) if n in names[:i]), None)
        if repeat is None:
            assert got == _outcome(_reference_read_table, path, spec)
        else:
            assert got == ("error", f"{path.name}: column {repeat} appears more than once")


def test_bad_cell_past_first_chunk_reports_its_row(tmp_path):
    n = tio.CHUNK_ROWS + 500
    bad = tio.CHUNK_ROWS + 137  # 0-based data row, inside the second chunk
    path = tmp_path / "CT_TREE.csv"
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\r\n")
        writer.writerow(["CN", "PLT_CN", "CONDID", "DIA"])
        for i in range(n):
            writer.writerow([f"T{i}", "P1", "1", "ten" if i == bad else "7.5"])
    with pytest.raises(LoadError) as info:
        tio._read_table(path, model.TREE_SPEC)
    assert str(info.value) == (
        f"CT_TREE.csv row {bad + 2} column DIA: could not parse 'ten' as float"
    )


def test_unsupported_design_reported_after_whole_file_parses(tmp_path):
    path = tmp_path / "CT_PLOT.csv"
    lines = ["CN,STATECD,PLOT,INVYR,DESIGNCD", "P1,9,1,2018,1", "P2,9,2,2018,410",
             "P3,9,3,2018,", "P4,9,4,2018,1"]
    path.write_text("\r\n".join(lines) + "\r\n")
    with mock.patch.object(tio, "CHUNK_ROWS", 2):
        with pytest.raises(LoadError, match="plot P2 uses DESIGNCD 410"):
            tio._read_table(path, model.PLOT_SPEC)
        path.write_text("\r\n".join(lines[:-1] + ["P4,9,4,x,1"]) + "\r\n")
        with pytest.raises(LoadError, match="CT_PLOT.csv row 5 column INVYR"):
            tio._read_table(path, model.PLOT_SPEC)


@pytest.mark.parametrize("seed", [0, 1])
def test_column_loader_matches_record_loop_on_random_database(tmp_path, seed):
    write_database(random_database(seed), tmp_path)
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        table = path.stem if path.stem == "REF_SPECIES" else path.stem.split("_", 1)[1]
        spec = model.TABLES[table]
        got = _outcome(tio._read_table, path, spec)
        assert got[0] == "records"
        assert got == _outcome(_reference_read_table, path, spec)


# ---------------------------------------------------------------------------
# fetch_state against a canned HTTP session
# ---------------------------------------------------------------------------


class _Resp:
    def __init__(self, status, body=b"CN\r\n1\r\n", headers=None):
        self.status_code = status
        self.content = body
        self.headers = headers or {}


class _Session:
    def __init__(self, responses):
        self.responses = responses
        self.urls = []

    def get(self, url, timeout=None):
        self.urls.append(url)
        name = url.rsplit("/", 1)[1]
        return self.responses.get(name, _Resp(200))


def test_fetch_writes_files_and_skips_missing_optional(tmp_path):
    session = _Session({"CT_SEEDLING.csv": _Resp(404)})
    files = fetch_state("CT", tmp_path, base_url="http://mirror.test/csv", session=session)
    assert "CT_PLOT.csv" in files
    assert "CT_SEEDLING.csv" not in files
    assert (tmp_path / "CT_PLOT.csv").read_bytes() == b"CN\r\n1\r\n"
    assert not list(tmp_path.glob("*.part"))


def test_fetch_missing_mandatory_table_fails(tmp_path):
    session = _Session({"CT_PLOT.csv": _Resp(404)})
    with pytest.raises(FetchError, match="CT_PLOT.csv"):
        fetch_state("CT", tmp_path, base_url="http://mirror.test", session=session)


def test_fetch_server_error_is_retriable(tmp_path):
    session = _Session({"CT_PLOT.csv": _Resp(503)})
    with pytest.raises(FetchError) as info:
        fetch_state("CT", tmp_path, base_url="http://mirror.test", session=session)
    assert info.value.retriable
    assert info.value.status == 503


def test_fetch_url_precedence(tmp_path, monkeypatch):
    session = _Session({})
    monkeypatch.setenv("TIMBERLINE_DATAMART_URL", "http://env.test/data/")
    fetch_state("CT", tmp_path, session=session)
    assert session.urls[0] == "http://env.test/data/CT_PLOT.csv"

    session = _Session({})
    fetch_state("CT", tmp_path, base_url="http://arg.test", session=session)
    assert session.urls[0].startswith("http://arg.test/")

    session = _Session({})
    monkeypatch.delenv("TIMBERLINE_DATAMART_URL")
    fetch_state("CT", tmp_path, session=session)
    assert session.urls[0].startswith(DEFAULT_BASE_URL)


def test_fetch_unknown_state(tmp_path):
    with pytest.raises(FetchError, match="unknown state"):
        fetch_state("XX", tmp_path, session=_Session({}))


# ---------------------------------------------------------------------------
# The column writer against the record writer it replaced
# ---------------------------------------------------------------------------


def _reference_write_table(path, spec, rows):
    """The per-record table writer that ``io._write_table`` replaced, kept as an oracle."""
    rows = list(rows)
    extra_names = sorted({name for r in rows for name in r.extras})
    header = [c.name for c in spec.columns] + extra_names
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\r\n")
        writer.writerow(header)
        for r in rows:
            cells = [tio._format_cell(getattr(r, c.attr)) for c in spec.columns]
            cells += [r.extras.get(name, "") for name in extra_names]
            writer.writerow(cells)


def _reference_write_database(db, directory):
    """The per-record ``write_database``, grouping rows as it did."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    plot_state = {p.cn: model.FIPS_TO_ABBR[p.statecd] for p in db.plots}
    eval_state = {e.evalid: model.FIPS_TO_ABBR[e.statecd] for e in db.evaluations}

    def group(rows, state_of):
        out = {st: [] for st in db.states}
        for r in rows:
            out[state_of(r)].append(r)
        return out

    groups = {"PLOT": group(db.plots, lambda p: plot_state[p.cn])}
    for field in ("conds", "trees", "seedlings", "dwm", "invasives"):
        groups[_BY_FIELD[field].table] = group(
            getattr(db, field), lambda r: plot_state[r.plt_cn])
    groups["POP_EVAL"] = group(db.evaluations, lambda e: eval_state[e.evalid])
    groups["POP_ESTN_UNIT"] = group(db.estn_units, lambda u: eval_state[u.evalid])
    groups["POP_STRATUM"] = group(
        db.strata, lambda s: eval_state[db.unit_by_cn[s.estn_unit_cn].evalid])
    groups["POP_PLOT_STRATUM_ASSGN"] = group(
        db.assignments, lambda a: eval_state[db.eval_of_stratum(a.stratum_cn)])
    for st in db.states:
        for table, per_state in groups.items():
            spec = model.TABLES[table]
            if not per_state[st] and not spec.mandatory:
                continue
            _reference_write_table(root / f"{st}_{table}.csv", spec, per_state[st])
            written.append(f"{st}_{table}.csv")
    if db.species:
        _reference_write_table(root / "REF_SPECIES.csv", model.REF_SPECIES_SPEC, db.species)
        written.append("REF_SPECIES.csv")
    return written


_BY_FIELD = {spec.db_field: spec for spec in model.TABLES.values()}
_SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 0.1, 123456.789, None])


@st.composite
def _write_case(draw):
    db = random_database(draw(st.integers(0, 40)))
    tables = {field: list(getattr(db, field)) for field in _BY_FIELD}
    trees = tables["trees"]
    for i in draw(st.lists(st.integers(0, max(len(trees) - 1, 0)), max_size=6)):
        if trees:
            extras = {"NOTE": draw(st.sampled_from(["a", "b c", "x,y", '"q"']))}
            trees[i] = dataclasses.replace(trees[i], dia=draw(_SPECIAL_FLOATS),
                                           volcfnet=draw(_SPECIAL_FLOATS), extras=extras)
    if draw(st.booleans()):  # a plot CN twice, with a float that must keep its sign
        twin = dataclasses.replace(tables["plots"][0], remper=-0.0)
        tables["plots"].insert(draw(st.integers(0, len(tables["plots"]))), twin)
    for field in draw(st.lists(st.sampled_from(["seedlings", "dwm", "invasives"]))):
        tables[field] = []
    return model.ForestDatabase(states=db.states, **tables)


@settings(max_examples=40, deadline=None)
@given(db=_write_case(), loaded=st.booleans())
def test_column_writer_matches_record_writer(db, loaded):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if loaded:  # the same rows as loaded columns, one file per state and table
            write_database(db, root / "load")
            back = load_database(root / "load", db.states)
            assert back.same_contents(db)
            db = back
        got = write_database(db, root / "got")
        want = _reference_write_database(db, root / "want")
        assert got == want
        for name in want:
            assert (root / "got" / name).read_bytes() == (root / "want" / name).read_bytes()
