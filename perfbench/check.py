"""Output checks: fingerprints of rendered results and the variance check.

Every op's rendered output is parsed back into rows and reduced to a
fingerprint: the column list, the row count, a hash of every cell that is
not a float (group keys, labels, plot counts, in row order) and, per float
column, three sums (of |v|, of |v| weighted by row position, and of v).
Two fingerprints agree when everything exact is equal and each sum agrees
within a relative 1e-9 of the column's |v| sum, so a change in summation
order passes and a changed estimate, key or count does not.  ``*_SE`` and
``*_VAR`` columns are left out: they are checked once per run against the
brute-force reference estimator on a small state (``variance_problems``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path

REL = 1e-9
_POSITION_MOD = 101


def _skipped(column: str) -> bool:
    return column.endswith("_SE") or column.endswith("_VAR")


def _is_float_text(cell: str) -> bool:
    if not any(ch in cell for ch in ".eEn"):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def fingerprint_rows(columns: list[str], rows: list[list[str]], exact_floats=False) -> dict:
    """Fingerprint a table given as column names and rows of cell text."""
    h = hashlib.sha256("\x1f".join(columns).encode())
    sums = {c: [0.0, 0.0, 0.0] for c in columns if not _skipped(c)}
    keep = [(i, c) for i, c in enumerate(columns) if not _skipped(c)]
    for r, row in enumerate(rows):
        weight = 1 + r % _POSITION_MOD
        parts = []
        for i, c in keep:
            cell = row[i] if i < len(row) else ""
            if not exact_floats and _is_float_text(cell):
                v = float(cell)
                s = sums[c]
                s[0] += abs(v)
                s[1] += abs(v) * weight
                s[2] += v
                parts.append("\x00f")
            else:
                parts.append(cell)
        h.update(("\x1e" + "\x1f".join(parts)).encode())
    return {
        "columns": list(columns),
        "rows": len(rows),
        "exact": h.hexdigest()[:32],
        "sums": {c: s for c, s in sums.items() if s != [0.0, 0.0, 0.0]},
    }


def _pretty_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("pretty output lacks its header")
    spans = []
    pos = 0
    for dashes in lines[1].split("  "):
        spans.append((pos, pos + len(dashes)))
        pos += len(dashes) + 2

    def cells(line: str) -> list[str]:
        return [line[a:b].strip() for a, b in spans]

    return cells(lines[0]), [cells(line) for line in lines[2:]]


def fingerprint_text(text: str, render: str) -> dict:
    """Fingerprint one rendered result (csv, json, pretty or geojson text)."""
    if render == "csv":
        table = list(csv.reader(io.StringIO(text)))
        if not table:
            raise ValueError("empty CSV output")
        return fingerprint_rows(table[0], table[1:])
    if render == "json":
        doc = json.loads(text)
        columns = doc["columns"]
        rows = [[_cell_text(row.get(c)) for c in columns] for row in doc["rows"]]
        return fingerprint_rows(columns, rows)
    if render == "pretty":
        columns, rows = _pretty_rows(text)
        return fingerprint_rows(columns, rows, exact_floats=True)
    if render == "geojson":
        doc = json.loads(text)
        features = doc["features"]
        columns = ["id", "geometry"] + sorted(
            {k for f in features for k in f["properties"]}
        )
        rows = []
        for f in features:
            geom = hashlib.sha256(
                json.dumps(f["geometry"], sort_keys=True).encode()
            ).hexdigest()[:16]
            props = f["properties"]
            rows.append([_cell_text(f.get("id")), geom]
                        + [_cell_text(props.get(c)) for c in columns[2:]])
        return fingerprint_rows(columns, rows)
    raise ValueError(f"unknown render kind {render!r}")


def fingerprint_dir(directory: str | os.PathLike) -> dict:
    """Fingerprint a written database: one CSV table fingerprint per file."""
    root = Path(directory)
    out = {}
    for path in sorted(root.iterdir()):
        table = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
        out[path.name] = fingerprint_rows(table[0], table[1:]) if table else {}
    return out


def _sums_agree(a: list[float], b: list[float]) -> bool:
    # The signed sum is judged against the |v| sum, so cancellation in it
    # cannot make the tolerance vanish.
    plain = max(abs(a[0]), abs(b[0]))
    weighted = max(abs(a[1]), abs(b[1]))
    return all(
        abs(x - y) <= REL * scale + 1e-12
        for x, y, scale in zip(a, b, (plain, weighted, plain))
    )


def table_problems(got: dict, ref: dict) -> list[str]:
    """Differences between two table fingerprints; empty means they agree."""
    problems = []
    if got.get("columns") != ref.get("columns"):
        return [f"columns {got.get('columns')} != reference {ref.get('columns')}"]
    if got.get("rows") != ref.get("rows"):
        return [f"{got.get('rows')} rows != reference {ref.get('rows')}"]
    if got.get("exact") != ref.get("exact"):
        problems.append("group keys, labels or plot counts differ from the reference")
    got_sums, ref_sums = got.get("sums", {}), ref.get("sums", {})
    for col in sorted(set(got_sums) | set(ref_sums)):
        a = got_sums.get(col, [0.0, 0.0, 0.0])
        b = ref_sums.get(col, [0.0, 0.0, 0.0])
        if not _sums_agree(a, b):
            problems.append(f"column {col}: sums {a} != reference {b}")
    return problems


def fingerprint_problems(got: dict, ref: dict | None, render: str) -> list[str]:
    """Compare an op's fingerprint with its reference (render 'dir' nests)."""
    if ref is None:
        return ["no reference recorded for this op"]
    if render != "dir":
        return table_problems(got, ref)
    if sorted(got) != sorted(ref):
        return [f"files {sorted(got)} != reference {sorted(ref)}"]
    problems = []
    for name in sorted(ref):
        problems += [f"{name}: {p}" for p in table_problems(got[name], ref[name])]
    return problems


def variance_problems(tl, db, checks) -> list[str]:
    """Compare engine SE/VAR columns with the brute-force reference.

    ``tl`` is the imported timberline package; ``checks`` is a sequence of
    (family, request keyword) pairs.  Polygon requests are not supported
    by the reference estimator and must not be listed.
    """
    problems = []
    for family, kwargs in checks:
        try:
            engine = tl.estimate(db, family, variance=True, **kwargs)
            reference = tl.brute_force_estimate(db, family, **kwargs)
            found = tl.compare_tables(engine, reference, rel=REL)[:3]
        except Exception as exc:  # a failing request is a mismatch, not a crash
            found = [f"{type(exc).__name__}: {exc}"]
        problems += [f"{family} {kwargs}: {p}" for p in found]
    return problems
