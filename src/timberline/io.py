"""CSV loading and writing, plus mirror download of state table sets.

File contract: a database directory holds one file per state and table named
``<STATE>_<TABLE>.csv`` (RFC 4180, UTF-8, header row).  ``REF_SPECIES.csv``
may appear once without a state prefix.  Empty cells are nulls.  Unrecognized
columns are carried in record ``extras`` and re-emitted on write.

Loading is strict.  A cell that does not parse as its column's type, a
non-finite number (``nan``, ``inf``, or a literal such as ``1e400`` that
overflows a float), a blank required value or a row with the wrong number of
fields raises :class:`LoadError` naming the file, the row (the header is
row 1) and, for a bad cell, the column.  A file that is not UTF-8 raises
:class:`LoadError` naming the file and the offset of its first bad byte.
Blank lines are skipped; no other row is dropped.

Tables are read ``CHUNK_ROWS`` rows at a time and parsed a column at a time.
A chunk that fails that fast path is parsed again cell by cell, which finds
the first bad cell in file order and builds the message, so the message
costs nothing on a clean file.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
import os
import tempfile
from itertools import islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import requests

from . import model
from .errors import FetchError, LoadError
from .model import ForestDatabase, TableSpec, derive_sizer
from .states import ABBR_TO_FIPS, FIPS_TO_ABBR, normalize_state

__all__ = ["load_database", "write_database", "fetch_state", "DEFAULT_BASE_URL"]

log = logging.getLogger("timberline.io")

DEFAULT_BASE_URL = "https://apps.fs.usda.gov/fia/datamart/CSV"
BASE_URL_ENV = "TIMBERLINE_DATAMART_URL"

# Rows parsed per chunk.  A chunk's rows stay alive as GC-tracked lists until
# it is parsed, so the cyclic collector promotes and rescans them: over a
# 5k-plot load and estimate its time was 2.3x the per-row loader's at 4096
# rows and 1.3x at 512.
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


def _parse_column(cells: tuple, kind: str, required: bool) -> list | None:
    """One column of a chunk, or None when some cell needs the per-row path."""
    try:
        if kind == "float":
            values = [float(c) if c else None for c in cells]
        elif kind == "int":
            values = [int(c) if c else None for c in cells]
        else:
            values = [c.strip() or None for c in cells]
    except ValueError:
        return None
    if required and None in values:
        return None
    # One nan or inf anywhere makes the sum non-finite.  A sum that merely
    # overflows also lands here; the per-row path then accepts the chunk.
    if kind == "float" and not math.isfinite(sum(filter(None, values))):
        return None
    return values


def _parse_chunk(chunk: list, width: int, columns: list, extra_names: list):
    """Columns and extras of a chunk, or None if it needs the per-row path.

    Any blank or wrong-width row, unparsable, padded-blank or non-finite
    cell, or blank required value sends the whole chunk to
    :func:`_parse_rows`.  Every table has a required column, so a blank
    row always does.
    """
    if set(map(len, chunk)) != {width}:
        return None
    cells = list(zip(*chunk))
    values: dict[str, list] = {}
    for i, col in columns:
        parsed = _parse_column(cells[i], col.kind, col.required)
        if parsed is None:
            return None
        values[col.attr] = parsed
    if extra_names:
        stripped = [[c.strip() for c in cells[i]] for i, _ in extra_names]
        names = [name for _, name in extra_names]
        extras = [{n: v for n, v in zip(names, row) if v} for row in zip(*stripped)]
    else:
        extras = [{} for _ in chunk]
    return values, extras


def _parse_rows(chunk: list, first_rownum: int, names: list, known: dict, fname: str):
    """Cell-by-cell parse of a chunk; raises :class:`LoadError` at the first bad cell."""
    values: dict[str, list] = {known[n].attr: [] for n in names if n in known}
    extras = []
    for rownum, row in enumerate(chunk, start=first_rownum):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(names):
            raise LoadError(f"{fname} row {rownum}: expected {len(names)} fields, got {len(row)}")
        parsed: dict = {}
        extra: dict[str, str] = {}
        for name, raw in zip(names, row):
            col = known.get(name)
            if col is None:
                cell = raw.strip()
                if cell != "":
                    extra[name] = cell
                continue
            where = f"{fname} row {rownum} column {name}"
            value = _parse_cell(raw, col.kind, where)
            if value is None and col.required:
                raise LoadError(f"{where}: required value is blank")
            parsed[col.attr] = value
        for attr, column in values.items():
            column.append(parsed[attr])
        extras.append(extra)
    return values, extras


def _lines(fp, path: Path):
    """Lines of an open table file; a byte that is not UTF-8 raises :class:`LoadError`."""
    try:
        yield from fp
    except UnicodeDecodeError:
        try:  # decode the whole file again for the byte's offset in the file
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LoadError(f"{path.name}: not UTF-8 text (byte "
                            f"0x{exc.object[exc.start]:02x} at offset {exc.start})") from None
        raise


def _read_table(path: Path, spec: TableSpec) -> list:
    """Records of one table file, in file order.

    Trees without SIZER get it from DIA.  A plot with a DESIGNCD other than 1
    is reported only once the whole file has parsed, so a malformed cell
    anywhere in the file takes precedence.
    """
    with open(path, newline="", encoding="utf-8-sig") as fp:
        reader = csv.reader(_lines(fp, path))
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path.name}: empty file (missing header row)") from None
        names = [h.strip().upper() for h in header]
        missing = [c.name for c in spec.columns if c.required and c.name not in names]
        if missing:
            raise LoadError(f"{path.name}: missing required column(s) {', '.join(missing)}")
        known = {c.name: c for c in spec.columns}
        columns = [(i, known[n]) for i, n in enumerate(names) if n in known]
        extra_names = [(i, n) for i, n in enumerate(names) if n not in known]
        fields = [f for f in dataclasses.fields(spec.record) if f.name != "extras"]

        records: list = []
        bad_design = None
        rownum = 2
        while chunk := list(islice(reader, CHUNK_ROWS)):
            parsed = _parse_chunk(chunk, len(names), columns, extra_names)
            if parsed is None:
                parsed = _parse_rows(chunk, rownum, names, known, path.name)
            values, extras = parsed
            rownum += len(chunk)
            if spec is model.TREE_SPEC and "dia" in values:
                values["sizer"] = [
                    derive_sizer(d) if s is None else s
                    for s, d in zip(values.get("sizer", repeat(None)), values["dia"])
                ]
            if spec is model.PLOT_SPEC and bad_design is None and "designcd" in values:
                bad_design = next(
                    ((cn, d) for cn, d in zip(values["cn"], values["designcd"])
                     if d is not None and d != 1),
                    None,
                )
            args = [values[f.name] if f.name in values else repeat(f.default) for f in fields]
            records.extend(map(spec.record, *args, extras))
    if bad_design is not None:
        cn, designcd = bad_design
        raise LoadError(
            f"{path.name}: plot {cn} uses DESIGNCD {designcd}; only the "
            "annual design (DESIGNCD 1) is supported"
        )
    return records


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

    collected: dict[str, list] = {spec.db_field: [] for spec in model.TABLES.values()}
    for st in norm:
        for spec in model.TABLES.values():
            if spec.table == "REF_SPECIES":
                continue
            path = root / f"{st}_{spec.table}.csv"
            if not path.is_file():
                if spec.mandatory:
                    raise LoadError(f"missing required table file {path.name}")
                continue
            collected[spec.db_field].extend(_read_table(path, spec))
        prefixed = root / f"{st}_REF_SPECIES.csv"
        if prefixed.is_file():
            collected["species"].extend(_read_table(prefixed, model.REF_SPECIES_SPEC))
    shared = root / "REF_SPECIES.csv"
    if shared.is_file():
        collected["species"].extend(_read_table(shared, model.REF_SPECIES_SPEC))
    # A shared species file plus per-state copies can repeat rows; keep one each.
    seen: set[int] = set()
    unique_species = []
    for sp in collected["species"]:
        if sp.spcd not in seen:
            seen.add(sp.spcd)
            unique_species.append(sp)
    collected["species"] = unique_species

    return ForestDatabase(states=norm, **collected)


# --------------------------------------------------------------------------
# Writing
# --------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path: Path, spec: TableSpec, rows: Iterable) -> None:
    rows = list(rows)
    extra_names = sorted({name for r in rows for name in r.extras})
    header = [c.name for c in spec.columns] + extra_names
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\r\n")
        writer.writerow(header)
        for r in rows:
            cells = [_format_cell(getattr(r, c.attr)) for c in spec.columns]
            cells += [r.extras.get(name, "") for name in extra_names]
            writer.writerow(cells)


def write_database(db: ForestDatabase, directory: str | os.PathLike) -> list[str]:
    """Write the database back out as per-state CSV files; returns file names.

    Mandatory tables are always written (header-only when empty); optional
    tables only when they hold rows for the state.  Plot-child rows follow
    their plot's state; population rows follow their evaluation's state.
    Species references go to a single shared ``REF_SPECIES.csv``.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    state_fips = {st: ABBR_TO_FIPS[st] for st in db.states}
    plot_state: dict[str, str] = {}
    for p in db.plots:
        abbr = FIPS_TO_ABBR.get(p.statecd)
        if abbr is None or abbr not in state_fips:
            raise LoadError(f"plot {p.cn} has STATECD {p.statecd} outside database states")
        plot_state[p.cn] = abbr
    eval_state: dict[int, str] = {}
    for e in db.evaluations:
        abbr = FIPS_TO_ABBR.get(e.statecd) if e.statecd is not None else None
        if abbr is None or abbr not in state_fips:
            raise LoadError(f"evaluation {e.evalid} has no usable STATECD")
        eval_state[e.evalid] = abbr

    def by_plot_state(rows):
        out: dict[str, list] = {st: [] for st in db.states}
        for r in rows:
            st = plot_state.get(r.plt_cn if hasattr(r, "plt_cn") else r.cn)
            if st is None:
                raise LoadError(f"row references unknown plot: {r}")
            out[st].append(r)
        return out

    def by_eval_state(rows, evalid_of):
        out: dict[str, list] = {st: [] for st in db.states}
        for r in rows:
            evalid = evalid_of(r)
            st = eval_state.get(evalid)
            if st is None:
                raise LoadError(f"row references unknown evaluation {evalid}: {r}")
            out[st].append(r)
        return out

    groups = {
        "PLOT": {st: [] for st in db.states},
        "COND": by_plot_state(db.conds),
        "TREE": by_plot_state(db.trees),
        "SEEDLING": by_plot_state(db.seedlings),
        "COND_DWM_CALC": by_plot_state(db.dwm),
        "INVASIVE_SUBPLOT_SPP": by_plot_state(db.invasives),
        "POP_EVAL": by_eval_state(db.evaluations, lambda e: e.evalid),
        "POP_ESTN_UNIT": by_eval_state(db.estn_units, lambda u: u.evalid),
        "POP_STRATUM": by_eval_state(
            db.strata,
            lambda s: db.unit_by_cn[s.estn_unit_cn].evalid
            if s.estn_unit_cn in db.unit_by_cn else -1,
        ),
        "POP_PLOT_STRATUM_ASSGN": by_eval_state(
            db.assignments,
            lambda a: db.eval_of_stratum(a.stratum_cn) or -1,
        ),
    }
    for p in db.plots:
        groups["PLOT"][plot_state[p.cn]].append(p)

    for st in db.states:
        for table, per_state in groups.items():
            spec = model.TABLES[table]
            rows = per_state[st]
            if not rows and not spec.mandatory:
                continue
            name = f"{st}_{table}.csv"
            _write_table(root / name, spec, rows)
            written.append(name)
    if db.species:
        _write_table(root / "REF_SPECIES.csv", model.REF_SPECIES_SPEC, db.species)
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
