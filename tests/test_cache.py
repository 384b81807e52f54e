"""The column cache beside the table files, against a fresh parse.

``load_database`` keeps each parsed file's columns in ``.timberline-cache/``
and reads them back when the file's SHA-256 and the parser's source are
unchanged.  A warm load must give exactly the tables a cold one gives, and
anything wrong with an entry must only cost a parse.
"""

import functools
import os
import shutil
import stat
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from timberline import io as tio
from timberline import model
from timberline.cli import main
from timberline.errors import LoadError
from timberline.io import CACHE_DIR, load_database

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def _generate(directory: Path, seed: int, plots: int) -> None:
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
    finally:
        sys.path.remove(PERFBENCH)
    gen.generate(directory, seed, plots)


@pytest.fixture(scope="module")
def state_source(tmp_path_factory):
    """A generated 600-plot state: TREE, COND, PLOT and the assignments are
    cached; the population tables and REF_SPECIES are too small to be."""
    root = tmp_path_factory.mktemp("state")
    _generate(root, 1, 600)
    return root


@pytest.fixture
def state(tmp_path, state_source):
    root = tmp_path / "state"
    shutil.copytree(state_source, root)
    return root


def assert_same_tables(a, b):
    """Column order, float bits, int32 codes, value lists and their types."""
    assert a.states == b.states
    for spec in model.TABLES.values():
        x, y = a.table(spec.table), b.table(spec.table)
        assert (x.n, x.extras) == (y.n, y.extras), spec.table
        assert list(x._columns) == list(y._columns), spec.table
        for name, cx in x._columns.items():
            cy = y._columns[name]
            if isinstance(cx, np.ndarray):
                assert cx.dtype == cy.dtype and cx.tobytes() == cy.tobytes(), name
                continue
            assert cx[0].dtype == cy[0].dtype == np.int32, name
            assert np.array_equal(cx[0], cy[0]), name
            assert cx[1] == cy[1], name
            assert list(map(type, cx[1])) == list(map(type, cy[1])), name


def entries(root: Path) -> list[str]:
    cache = root / CACHE_DIR
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def parsed(root: Path):
    """The database as parsed from the CSVs, with the cache out of the way."""
    with mock.patch.object(tio, "_read_entry", lambda *a: None), \
            mock.patch.object(tio, "_write_entry", lambda *a: None):
        return load_database(root, ["CT"])


@pytest.mark.parametrize("name", ["SYNTH-1", "SYNTH-5PANEL", "SYNTH-GRM", "SYNTH-INV"])
def test_fixture_loads_the_same_cold_and_warm(tmp_path, name):
    root = tmp_path / name
    shutil.copytree(FIXTURES / name, root)
    with mock.patch.object(tio, "CHUNK_ROWS", 1):  # so that even these small files are cached
        cold = load_database(root, ["CT"])
        written = entries(root)
        warm = load_database(root, ["CT"])
    assert written and entries(root) == written
    assert_same_tables(cold, parsed(root))
    assert_same_tables(warm, cold)


def test_fixture_files_are_too_small_to_cache(tmp_path):
    root = tmp_path / "SYNTH-1"
    shutil.copytree(FIXTURES / "SYNTH-1", root)
    load_database(root, ["CT"])
    assert not (root / CACHE_DIR).exists()


def test_generated_state_loads_the_same_cold_and_warm(state):
    cold = load_database(state, ["CT"])
    assert entries(state) == [f"CT_{t}.csv.npz" for t in (
        "COND", "COND_DWM_CALC", "PLOT", "POP_PLOT_STRATUM_ASSGN", "TREE")]
    with mock.patch.object(tio, "_parse_table", wraps=tio._parse_table) as parse:
        warm = load_database(state, ["CT"])
    assert sorted(call.args[0].name for call in parse.call_args_list) == [
        "CT_INVASIVE_SUBPLOT_SPP.csv", "CT_POP_ESTN_UNIT.csv", "CT_POP_EVAL.csv",
        "CT_POP_STRATUM.csv", "CT_SEEDLING.csv", "REF_SPECIES.csv"]
    assert_same_tables(warm, cold)
    assert_same_tables(cold, parsed(state))


def test_extras_and_derived_sizer_survive_the_cache(tmp_path):
    lines = ["CN,PLT_CN,CONDID,DIA,SIZER,ECOSUBCD"]
    lines += [f"T{i},P{i % 7},1,{i % 13 * 0.7},{'' if i % 3 else 'SUBPLOT'},"
              f"{'' if i % 5 else 'M221'}" for i in range(600)]
    path = tmp_path / "CT_TREE.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    cold = tio._load_table(path, model.TREE_SPEC)
    warm = tio._load_table(path, model.TREE_SPEC)
    assert warm.extras == cold.extras == ("ECOSUBCD",)
    fresh = model.Table(model.TREE_SPEC, *tio._parse_table(path, model.TREE_SPEC))
    assert warm.records == cold.records == fresh.records


def test_an_edited_cell_misses_though_size_and_mtime_are_kept(state):
    load_database(state, ["CT"])
    path = state / "CT_TREE.csv"
    entry = state / CACHE_DIR / "CT_TREE.csv.npz"
    before = entry.read_bytes()
    stat = path.stat()
    header, first, rest = path.read_bytes().decode().split("\r\n", 2)
    cells = first.split(",")
    i = header.split(",").index("STATUSCD")
    cells[i] = "2" if cells[i] != "2" else "1"
    path.write_bytes("\r\n".join([header, ",".join(cells), rest]).encode())
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size

    edited = load_database(state, ["CT"])
    assert_same_tables(edited, parsed(state))
    assert edited.trees[0].statuscd == int(cells[i])
    assert entry.read_bytes() != before  # rewritten under the new hash


def test_a_source_change_misses(state):
    cold = load_database(state, ["CT"])
    with mock.patch.object(tio, "_source_digest", lambda: b"another parser"), \
            mock.patch.object(tio, "_parse_table", wraps=tio._parse_table) as parse:
        again = load_database(state, ["CT"])
    assert parse.call_count == 11  # every file parsed again
    assert_same_tables(again, cold)


def _truncated(data: bytes):
    for cut in (0, 1, 21, 100, len(data) // 3, len(data) // 2, len(data) - 23, len(data) - 1):
        yield f"cut at {cut}", data[:cut]
    yield "garbage", bytes(range(256)) * 10
    yield "flipped", data[:len(data) // 2] + bytes([data[len(data) // 2] ^ 0xFF]) \
        + data[len(data) // 2 + 1:]


@pytest.mark.parametrize("damage", ["truncated", "members"])
def test_a_damaged_entry_misses_and_is_rewritten(state, damage):
    cold = load_database(state, ["CT"])
    entry = state / CACHE_DIR / "CT_PLOT.csv.npz"
    good = entry.read_bytes()
    if damage == "truncated":
        cases = list(_truncated(good))
    else:
        with np.load(entry, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}

        def first_name_lowered(text):  # CN becomes cN, which is not a schema column
            text = text.copy()
            text[0] = ord(chr(text[0]).lower())
            return text

        cases = []
        for name, change in (
            ("codes", lambda a: a[:, :-1]),                  # columns one row short
            ("codes", lambda a: a.astype(np.int64)),         # codes of the wrong dtype
            ("codes", lambda a: np.hstack([a[:, :-1], a[:, :1] * 0 + 1])),  # no null at the end
            ("codes", lambda a: a * 0 + 10 ** 6),            # codes past the value lists
            ("codes", lambda a: a[1:]),                      # a coded column missing
            ("codes", lambda a: np.array([{"x": 1}])),       # a pickle
            ("counts", lambda a: a + 1),                     # more values than stored
            ("ints", lambda a: a[:-1]),                      # an int value missing
            ("ints", lambda a: a.astype(np.float64)),        # ints of the wrong kind
            ("text", lambda a: np.append(a, np.uint8(0xFF))),  # not UTF-8
            ("text", first_name_lowered),                    # a schema column missing
            ("text", lambda a: a[:a.tolist().index(0)]),     # the values missing
            ("text", lambda a: np.append(a, np.uint8(0))),   # a str value too many
            ("counts", lambda a: a - a.max() - 1),           # negative counts
            ("floats", lambda a: np.zeros_like(a)),          # float columns not ending in NaN
            ("floats", lambda a: a[1:]),                     # a float column missing
            ("floats", lambda a: np.full(a.shape, "x")),     # float columns of text
            ("floats", lambda a: a[0]),                      # one dimension, not two
            ("key", lambda a: a[::-1]),
            ("extra", lambda a: np.zeros(1)),                # a member too many
        ):
            changed = dict(members, **{name: change(members.get(name))})
            path = entry.with_suffix(".tmp.npz")
            np.savez(path, **changed)
            cases.append((name, path.read_bytes()))
            path.unlink()
        missing = {name: a for name, a in members.items() if name != "ints"}
        np.savez(path, **missing)
        cases.append(("ints missing", path.read_bytes()))
        path.unlink()
    for label, data in cases:
        entry.write_bytes(data)
        assert_same_tables(load_database(state, ["CT"]), cold)
        assert entry.read_bytes() != data, label
        with np.load(entry, allow_pickle=False) as npz:
            assert tio._entry_columns(npz, model.PLOT_SPEC) is not None, label


@pytest.mark.parametrize("umask", [0o022, 0o002])
def test_entries_get_the_umask_mode(state, monkeypatch, umask):
    monkeypatch.setattr(tio, "_new_file_mode", functools.cache(tio._new_file_mode.__wrapped__))
    old = os.umask(umask)
    try:
        load_database(state, ["CT"])
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((state / CACHE_DIR / name).stat().st_mode) for name in entries(state)}
    assert modes == {0o666 & ~umask}


def test_a_read_only_directory_loads_without_writing(state, capfd, monkeypatch):
    if os.geteuid() == 0:  # root writes anyway; refuse as the kernel would refuse others
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(tio.os, "mkdir", refuse)
        monkeypatch.setattr(tio.tempfile, "mkstemp", refuse)
    before = sorted(state.iterdir())
    state.chmod(0o555)
    try:
        with mock.patch.object(tio, "_cache_key", wraps=tio._cache_key) as key:
            cold = load_database(state, ["CT"])
            again = load_database(state, ["CT"])
    finally:
        state.chmod(0o755)
    assert sorted(state.iterdir()) == before
    assert not key.called  # nothing to look up and nowhere to write: no hash
    assert capfd.readouterr() == ("", "")
    assert_same_tables(again, cold)


def test_values_that_would_not_read_back_are_not_cached(tmp_path):
    rows = [f"P{i},9,{i},2018" for i in range(600)]
    plot = tmp_path / "CT_PLOT.csv"
    plot.write_text("\r\n".join(["CN,STATECD,PLOT,INVYR,NOTE"]
                                + [r + (",a\x00b" if i == 3 else ",b") for i, r in enumerate(rows)]))
    tree = tmp_path / "CT_TREE.csv"
    tree.write_text("\r\n".join(["CN,PLT_CN,CONDID,SPCD"]
                                + [f"T{i},P{i},1,{2 ** 70 if i == 5 else 1}" for i in range(600)]))
    for path, spec in ((plot, model.PLOT_SPEC), (tree, model.TREE_SPEC)):
        table = tio._load_table(path, spec)
        assert table.records == model.Table(spec, *tio._parse_table(path, spec)).records
    assert tio._load_table(plot, model.PLOT_SPEC)[3].extras == {"NOTE": "a\x00b"}
    assert tio._load_table(tree, model.TREE_SPEC)[5].spcd == 2 ** 70
    assert not entries(tmp_path)


@pytest.mark.parametrize("bad_row, message", [
    ("T7,P1,1,ten", "CT_TREE.csv row 9 column DIA: could not parse 'ten' as float"),
    ("T7,,1,1.0", "CT_TREE.csv row 9 column PLT_CN: required value is blank"),
])
def test_a_bad_file_fails_the_same_way_twice_and_is_not_cached(tmp_path, bad_row, message):
    rows = [f"T{i},P1,1,{i % 9}.5" for i in range(700)]
    rows[7] = bad_row
    (tmp_path / "CT_TREE.csv").write_text("\r\n".join(["CN,PLT_CN,CONDID,DIA"] + rows))
    for _ in range(2):
        with pytest.raises(LoadError) as info:
            tio._load_table(tmp_path / "CT_TREE.csv", model.TREE_SPEC)
        assert str(info.value) == message
    assert not (tmp_path / CACHE_DIR).exists()


def test_an_unsupported_design_is_not_cached(state):
    path = state / "CT_PLOT.csv"
    header, first, rest = path.read_bytes().decode().split("\r\n", 2)
    cells = first.split(",")
    cells[header.split(",").index("DESIGNCD")] = "410"
    path.write_bytes("\r\n".join([header, ",".join(cells), rest]).encode())
    for _ in range(2):
        with pytest.raises(LoadError, match="uses DESIGNCD 410"):
            load_database(state, ["CT"])
    assert "CT_PLOT.csv.npz" not in entries(state)


def test_a_deleted_cache_is_rebuilt(state):
    cold = load_database(state, ["CT"])
    written = entries(state)
    shutil.rmtree(state / CACHE_DIR)
    assert_same_tables(load_database(state, ["CT"]), cold)
    assert entries(state) == written


def test_entries_hold_no_pickled_member(state):
    load_database(state, ["CT"])
    for name in entries(state):
        with np.load(state / CACHE_DIR / name, allow_pickle=False) as npz:
            for member in npz.files:  # a pickled member raises here
                assert npz[member].dtype.kind in "iuf", (name, member)


@pytest.mark.parametrize("argv", [
    ["tpa", "--most-recent", "--by-species", "--by-size-class"],
    ["area", "--most-recent", "--grp-by", "OWNCD,FORTYPCD", "--pretty"],
    ["biomass", "--most-recent", "--format", "json", "--tree-domain", "DIA >= 10"],
])
def test_cli_output_is_byte_identical_cold_and_warm(state, capsysbinary, argv):
    outputs = []
    for _ in range(2):
        assert main([*argv, "--db", str(state)]) == 0
        outputs.append(capsysbinary.readouterr())
    assert entries(state)
    assert outputs[0].out == outputs[1].out and outputs[0].out
    assert outputs[0].err == outputs[1].err
