"""CSV loading and writing, plus mirror download of state table sets.

File contract: a database directory holds one file per state and table named
``<STATE>_<TABLE>.csv`` (RFC 4180, UTF-8, header row).  ``REF_SPECIES.csv``
may appear once without a state prefix.  Empty cells are nulls.  Unrecognized
columns are carried as extras columns (record ``extras``) and re-emitted on
write.

Loading is strict.  A cell that does not parse as its column's type, a
non-finite number (``nan``, ``inf``, or a literal such as ``1e400`` that
overflows a float), a blank required value or a row with the wrong number of
fields raises :class:`LoadError` naming the file, the row (the header is
row 1) and, for a bad cell, the column.  So does a header naming a column
twice (after trimming and upper-casing).  A file that is not UTF-8 raises
:class:`LoadError` naming the file and the offset of its first bad byte.
Blank lines are skipped; no other row is dropped.

A table loads straight into the columns of a :class:`~timberline.model.Table`:
``CHUNK_ROWS`` rows at a time, each column's cells are coded by their text,
the chunk's rows are dropped, and each distinct text is parsed once at the
end of the file.  No record is built.  A file that fails this is read again
cell by cell, which finds the first bad cell in file order and builds the
message, so the message costs nothing on a clean file.  Writing formats each
column once per distinct value and writes rows from those texts.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
import os
import tempfile
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    import requests

from . import model
from .errors import FetchError, LoadError
from .model import ForestDatabase, TableSpec
from .states import FIPS_TO_ABBR, normalize_state

__all__ = ["load_database", "write_database", "fetch_state", "DEFAULT_BASE_URL"]

log = logging.getLogger("timberline.io")

DEFAULT_BASE_URL = "https://apps.fs.usda.gov/fia/datamart/CSV"
BASE_URL_ENV = "TIMBERLINE_DATAMART_URL"

# Rows read per chunk (and written per block).
CHUNK_ROWS = 512

FETCH_TABLES = (
    "PLOT", "COND", "TREE", "SEEDLING", "COND_DWM_CALC", "INVASIVE_SUBPLOT_SPP",
    "POP_EVAL", "POP_ESTN_UNIT", "POP_STRATUM", "POP_PLOT_STRATUM_ASSGN",
)


def _parse_cell(raw: str, kind: str, where: str):
    value = raw.strip()
    if value == "":
        return None
    if kind == "str":
        return value
    try:
        if kind == "int":
            try:
                return int(value)
            except ValueError:
                f = float(value)
                if not math.isfinite(f) or f != int(f):
                    raise ValueError(value)
                return int(f)
        f = float(value)
    except ValueError:
        raise LoadError(f"{where}: could not parse {raw!r} as {kind}") from None
    if not math.isfinite(f):
        raise LoadError(f"{where}: non-finite value {raw!r}")
    return f


class _Irregular(Exception):
    """A file the column parse cannot take as it is: it is read again cell by cell."""


class _Coder(dict):
    """Cell text -> code, numbered in order of first appearance."""

    __slots__ = ()

    def __missing__(self, raw: str) -> int:
        code = self[raw] = len(self)
        return code


_NAN_IF_BLANK = {"": "nan"}


def _parse_floats(cells: tuple) -> np.ndarray:
    """A chunk of a float column, NaN for blank; nan, inf and 1e400 are irregular."""
    try:
        values = np.fromiter(map(float, map(_NAN_IF_BLANK.get, cells, cells)), np.float64,
                             len(cells))
    except ValueError:
        raise _Irregular from None
    if np.count_nonzero(~np.isfinite(values)) != cells.count(""):
        raise _Irregular
    return values


def _parse_values(raws: list, kind: str) -> list:
    """Each distinct cell text of an int or str column parsed, None for blank.

    The fast forms take the usual cells; any other (padded blanks, "3.0" in
    an int column, anything bad) goes through :func:`_parse_cell`.
    """
    try:
        if kind == "str":
            return [r.strip() or None for r in raws]
        return [int(r) if r else None for r in raws]
    except ValueError:
        pass
    try:
        return [_parse_cell(r, kind, "") for r in raws]
    except LoadError:
        raise _Irregular from None


def _finish_column(coder: _Coder, parts: list, kind: str, required: bool):
    """The stored ``(codes, values)`` of an int or str column from its text codes."""
    texts = list(coder)
    values = _parse_values(texts, kind)
    if required and None in values:
        raise _Irregular
    codes = np.concatenate([*parts, np.zeros(1, dtype=np.int32)])
    if kind == "str" and all(map(operator.is_, values, texts)):  # each text is its value
        codes[:-1] += 1
        return codes, [None, *values]
    index: dict = {None: 0}
    remap = np.fromiter((index.setdefault(v, len(index)) for v in values), np.int32,
                        len(values))
    codes[:-1] = remap[codes[:-1]]
    return codes, list(index)


def _parse_rows(chunk: list, first_rownum: int, names: list, known: dict, fname: str) -> list:
    """The chunk's non-blank rows with trimmed cells; raises :class:`LoadError`
    at its first bad cell."""
    kept = []
    for rownum, row in enumerate(chunk, start=first_rownum):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(names):
            raise LoadError(f"{fname} row {rownum}: expected {len(names)} fields, got {len(row)}")
        for name, raw in zip(names, row):
            col = known.get(name)
            if col is not None:
                where = f"{fname} row {rownum} column {name}"
                if _parse_cell(raw, col.kind, where) is None and col.required:
                    raise LoadError(f"{where}: required value is blank")
        kept.append([cell.strip() for cell in row])
    return kept


def _chunks(fp, path: Path):
    """Rows of an open table file: the header row alone, then ``CHUNK_ROWS`` at a time.

    A byte that is not UTF-8 raises :class:`LoadError`.
    """
    reader = csv.reader(fp)
    try:
        yield list(islice(reader, 1))
        while chunk := list(islice(reader, CHUNK_ROWS)):
            yield chunk
    except UnicodeDecodeError:
        try:  # decode the whole file again for the byte's offset in the file
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LoadError(f"{path.name}: not UTF-8 text (byte "
                            f"0x{exc.object[exc.start]:02x} at offset {exc.start})") from None
        raise


def _read_columns(path: Path, spec: TableSpec, checked: bool) -> tuple[int, dict, list]:
    """One table file's row count, stored columns and extras names.

    A float column is parsed chunk by chunk.  Any other column is coded by
    cell text, with each distinct text parsed once when the file is done.
    Unless ``checked``, anything irregular raises :class:`_Irregular`;
    ``checked`` sends every chunk through :func:`_parse_rows` first.
    """
    with open(path, newline="", encoding="utf-8-sig") as fp:
        chunks = _chunks(fp, path)
        header = next(chunks)
        if not header:
            raise LoadError(f"{path.name}: empty file (missing header row)")
        names = [h.strip().upper() for h in header[0]]
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise LoadError(f"{path.name}: column {name} appears more than once")
            seen.add(name)
        missing = [c.name for c in spec.columns if c.required and c.name not in names]
        if missing:
            raise LoadError(f"{path.name}: missing required column(s) {', '.join(missing)}")
        known = {c.name: c for c in spec.columns}
        kinds = [known[name].kind if name in known else "str" for name in names]
        coders = [None if kind == "float" else _Coder() for kind in kinds]
        parts: list[list] = [[] for _ in names]
        n, rownum = 0, 2
        for chunk in chunks:
            rows = chunk
            if checked:
                rows = _parse_rows(chunk, rownum, names, known, path.name)
            elif set(map(len, chunk)) != {len(names)}:
                rows = [row for row in chunk if any(cell.strip() for cell in row)]
                if set(map(len, rows)) - {len(names)}:
                    raise _Irregular
            rownum += len(chunk)
            for coder, part, cells in zip(coders, parts, zip(*rows)):
                part.append(_parse_floats(cells) if coder is None else
                            np.array(list(map(coder.__getitem__, cells)), dtype=np.int32))
            n += len(rows)

    columns: dict = {}
    for c in spec.columns:  # known columns the file lacks hold nulls
        if c.name not in names:
            columns[c.name] = (np.full(n + 1, np.nan) if c.kind == "float" else
                               (np.zeros(n + 1, dtype=np.int32), [None]))
    for i, name in enumerate(names):
        if kinds[i] == "float":
            columns[name] = np.concatenate([*parts[i], [np.nan]])
        else:
            required = name in known and known[name].required
            columns[name] = _finish_column(coders[i], parts[i], kinds[i], required)
        coders[i] = parts[i] = None
    return n, columns, [name for name in names if name not in known]


def _read_table(path: Path, spec: TableSpec) -> model.Table:
    """One table file as columns, in file order.

    Trees without SIZER get it from DIA.  A plot with a DESIGNCD other than 1
    is reported only once the whole file has parsed, so a malformed cell
    anywhere in the file takes precedence.
    """
    try:
        n, columns, extras = _read_columns(path, spec, checked=False)
    except _Irregular:
        n, columns, extras = _read_columns(path, spec, checked=True)
    if spec is model.TREE_SPEC:
        dia, (codes, values) = columns["DIA"][:-1], columns["SIZER"]
        derive = np.flatnonzero((codes[:-1] == 0) & ~np.isnan(dia))
        if len(derive):
            codes = codes[:-1].copy()
            codes[derive] = len(values) + (dia[derive] >= 5.0)  # derive_sizer
            columns["SIZER"] = model.recode(codes, [*values, model.MICROPLOT, model.SUBPLOT])
    if spec is model.PLOT_SPEC:
        codes, values = columns["DESIGNCD"]
        bad = np.flatnonzero(np.array([v not in (None, 1) for v in values])[codes[:-1]])
        if len(bad):
            cn_codes, cns = columns["CN"]
            raise LoadError(
                f"{path.name}: plot {cns[cn_codes[bad[0]]]} uses DESIGNCD "
                f"{values[codes[bad[0]]]}; only the annual design (DESIGNCD 1) is supported"
            )
    return model.Table(spec, n, columns, extras)


def _concat(spec: TableSpec, tables: list) -> model.Table:
    """One table of the rows of several, in order; a column one lacks is null there."""
    if len(tables) == 1:
        return tables[0]
    extras = list(dict.fromkeys(name for t in tables for name in t.extras))
    columns: dict = {}
    for name in [c.name for c in spec.columns] + extras:
        if spec.column_kinds().get(name) == "float":
            columns[name] = np.concatenate([*(t.column(name)[:-1] for t in tables), [np.nan]])
            continue
        index: dict = {None: 0}
        parts = []
        for t in tables:
            codes, values = t.column(name) or (np.zeros(len(t) + 1, dtype=np.int32), [None])
            remap = np.fromiter((index.setdefault(v, len(index)) for v in values), np.int32,
                                len(values))
            parts.append(remap[codes[:-1]])
        columns[name] = np.append(np.concatenate(parts), np.int32(0)), list(index)
    return model.Table(spec, sum(map(len, tables)), columns, extras)


def load_database(directory: str | os.PathLike, states: Sequence[str]) -> ForestDatabase:
    """Load ``<STATE>_<TABLE>.csv`` sets for ``states`` from one directory.

    Mandatory tables (PLOT, COND, and the four population tables) must exist
    for every requested state; optional tables are loaded when present.  No
    subdirectories are searched.  Any malformed or non-finite cell or
    missing required column aborts the load with a :class:`LoadError`
    naming file, row, and column.
    """
    root = Path(directory)
    if not root.is_dir():
        raise LoadError(f"database directory not found: {root}")
    norm = []
    for st in states:
        try:
            norm.append(normalize_state(st))
        except KeyError:
            raise LoadError(f"unknown state abbreviation: {st!r}") from None
    if not norm:
        raise LoadError("no states requested")

    files: dict[str, list] = {spec.table: [] for spec in model.TABLES.values()}
    for st in norm:
        for spec in model.TABLES.values():
            if spec.table == "REF_SPECIES":
                continue
            path = root / f"{st}_{spec.table}.csv"
            if not path.is_file():
                if spec.mandatory:
                    raise LoadError(f"missing required table file {path.name}")
                continue
            files[spec.table].append(_read_table(path, spec))
        prefixed = root / f"{st}_REF_SPECIES.csv"
        if prefixed.is_file():
            files["REF_SPECIES"].append(_read_table(prefixed, model.REF_SPECIES_SPEC))
    shared = root / "REF_SPECIES.csv"
    if shared.is_file():
        files["REF_SPECIES"].append(_read_table(shared, model.REF_SPECIES_SPEC))

    tables = {}
    for spec in model.TABLES.values():
        parts = files[spec.table]
        tables[spec.db_field] = _concat(spec, parts) if parts else model.Table(
            spec, 0, records=())
    # A shared species file plus per-state copies can repeat rows; keep one each.
    codes = tables["species"].column("SPCD")[0][:-1]
    first = np.unique(codes, return_index=True)[1]
    if len(first) < len(codes):
        tables["species"] = tables["species"].take(np.sort(first))
    return ForestDatabase(states=norm, **tables)


# --------------------------------------------------------------------------
# Writing
# --------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell_texts(col) -> tuple[np.ndarray, list[str]]:
    """A stored column as per-row codes into the texts of its cells."""
    if isinstance(col, np.ndarray):
        # one text per bit pattern, so -0.0 keeps its sign; NaN is null
        bits, codes = np.unique(col[:-1].view(np.int64), return_inverse=True)
        return codes.reshape(-1), [_format_cell(None if v != v else v)
                                   for v in bits.view(np.float64).tolist()]
    codes, values = col
    return codes[:-1], [_format_cell(v) for v in values]


def _write_table(path: Path, table: model.Table, rows: np.ndarray) -> None:
    """The given rows of a table; extras columns holding a value there follow, sorted."""
    names = [c.name for c in table.spec.columns] + sorted(
        name for name in table.extras if table.column(name)[0][rows].any())
    columns = [_cell_texts(table.column(name)) for name in names]
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\r\n")
        writer.writerow(names)
        for start in range(0, len(rows), CHUNK_ROWS):
            block = rows[start:start + CHUNK_ROWS]
            writer.writerows(zip(*(map(strings.__getitem__, codes[block].tolist())
                                   for codes, strings in columns)))


def write_database(db: ForestDatabase, directory: str | os.PathLike) -> list[str]:
    """Write the database back out as per-state CSV files; returns file names.

    Mandatory tables are always written (header-only when empty); optional
    tables only when they hold rows for the state.  Plot-child rows follow
    their plot's state; population rows follow their evaluation's state.
    Species references go to a single shared ``REF_SPECIES.csv``.  Each
    column's cell texts are formatted once per distinct value.
    """
    view = db.columns
    states = list(db.states)

    def per_value(table: str, name: str, state_of) -> np.ndarray:
        """Each row's state index (-1 for none), from its value of one column."""
        codes, values = view.column(table, name)
        found = [state_of(v) for v in values]
        return np.array([states.index(s) if s in states else -1 for s in found])[codes[:-1]]

    def first_bad(table: str, state: np.ndarray):
        bad = np.flatnonzero(state < 0)
        return db.table(table)[bad[0]] if len(bad) else None

    plot_state = per_value("PLOT", "STATECD", FIPS_TO_ABBR.get)
    if (plot := first_bad("PLOT", plot_state)) is not None:
        raise LoadError(f"plot {plot.cn} has STATECD {plot.statecd} outside database states")
    eval_state: dict[int, str] = {}
    for e in db.evaluations:
        abbr = FIPS_TO_ABBR.get(e.statecd) if e.statecd is not None else None
        if abbr is None or abbr not in states:
            raise LoadError(f"evaluation {e.evalid} has no usable STATECD")
        eval_state[e.evalid] = abbr

    def unit_evalid(cn):
        return db.unit_by_cn[cn].evalid if cn in db.unit_by_cn else -1

    groups = {"PLOT": plot_state}
    for table in ("COND", "TREE", "SEEDLING", "COND_DWM_CALC", "INVASIVE_SUBPLOT_SPP"):
        groups[table] = np.append(plot_state, -1)[view.plot_rows(table)]
        if (r := first_bad(table, groups[table])) is not None:
            raise LoadError(f"row references unknown plot: {r}")
    population = {
        "POP_EVAL": ("EVALID", lambda evalid: evalid),
        "POP_ESTN_UNIT": ("EVALID", lambda evalid: evalid),
        "POP_STRATUM": ("ESTN_UNIT_CN", unit_evalid),
        "POP_PLOT_STRATUM_ASSGN": ("STRATUM_CN", lambda cn: db.eval_of_stratum(cn) or -1),
    }
    for table, (name, evalid_of) in population.items():
        groups[table] = per_value(table, name, lambda v: eval_state.get(evalid_of(v)))
        if (r := first_bad(table, groups[table])) is not None:
            evalid = evalid_of(model.record_value(r, name))
            raise LoadError(f"row references unknown evaluation {evalid}: {r}")

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for i, st in enumerate(states):
        for table, state in groups.items():
            rows = np.flatnonzero(state == i)
            if not len(rows) and not model.TABLES[table].mandatory:
                continue
            name = f"{st}_{table}.csv"
            _write_table(root / name, db.table(table), rows)
            written.append(name)
    if len(db.species):
        _write_table(root / "REF_SPECIES.csv", db.species, np.arange(len(db.species)))
        written.append("REF_SPECIES.csv")
    return written


# --------------------------------------------------------------------------
# Mirror download
# --------------------------------------------------------------------------


def fetch_state(
    state: str,
    dest: str | os.PathLike,
    *,
    base_url: str | None = None,
    timeout: float = 60.0,
    session: requests.Session | None = None,
) -> list[str]:
    """Download one state's table files into ``dest``; returns file names.

    The mirror root comes from ``base_url``, the TIMBERLINE_DATAMART_URL
    environment variable, or the public default, in that order.  Mandatory
    tables must download; optional tables missing on the mirror (404) are
    skipped with a warning.  Files are written atomically, so a failed
    download leaves no partial file behind.
    """
    try:
        st = normalize_state(state)
    except KeyError:
        raise FetchError(f"unknown state abbreviation: {state!r}") from None
    base = (base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL).rstrip("/")
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    import requests  # deferred: only downloads need it, and it is slow to import

    http = session or requests.Session()

    fetched: list[str] = []
    targets = [(f"{st}_{t}.csv", model.TABLES[t].mandatory) for t in FETCH_TABLES]
    targets.append(("REF_SPECIES.csv", False))
    for fname, mandatory in targets:
        url = f"{base}/{fname}"
        try:
            resp = http.get(url, timeout=timeout)
        except requests.RequestException as exc:
            raise FetchError(f"download failed for {url}: {exc}", retriable=True) from exc
        if resp.status_code == 404 and not mandatory:
            log.warning("optional table %s not on mirror; skipped", fname)
            continue
        if resp.status_code != 200:
            raise FetchError(
                f"download failed for {url}: HTTP {resp.status_code}",
                status=resp.status_code,
                retriable=resp.status_code >= 500,
            )
        declared = resp.headers.get("Content-Length")
        if declared is not None and declared.isdigit() and int(declared) != len(resp.content):
            log.warning(
                "size mismatch for %s: header said %s bytes, got %d",
                fname, declared, len(resp.content),
            )
        fd, tmp = tempfile.mkstemp(dir=root, prefix=fname, suffix=".part")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(resp.content)
            os.replace(tmp, root / fname)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        fetched.append(fname)
    return fetched
