"""Table serialization: CSV and JSON files, pretty text for the console.

File formats keep full float precision (shortest round-trip repr) so results
can be compared exactly; the pretty renderer rounds to two decimals and is
for eyeballs only.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from collections.abc import Sequence

__all__ = [
    "table_to_csv",
    "table_to_json",
    "table_to_pretty",
    "geojson_to_text",
]


def table_to_csv(table) -> str:
    """Render an estimate table as CSV text (full precision).

    The csv module writes None as an empty field and a float through its
    repr, the shortest round-trip form.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.columns)
    writer.writerows([row.get(c) for c in table.columns] for row in table.rows)
    return buf.getvalue()


# ``indent`` selects the pure-Python encoder.  So the C encoder writes the
# rows with the indented layout's cell separator, and the row boundaries
# and both ends are rewritten afterwards.  With ensure_ascii no encoded
# string holds a raw newline, so "},\n      {" stands only between two rows
# as long as every cell is a scalar.  Rows are encoded in blocks: a string
# of the whole table would be copied twice more while it is rewritten.
_CELL_SEP = ",\n      "
_ROWS = json.JSONEncoder(separators=(_CELL_SEP, ": "), allow_nan=False, check_circular=False)
_COLUMNS = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False)
_NEXT_ROW = "\n    },\n    {\n      "
_BLOCK = 1024
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _check_scalars(cells) -> None:
    for kind in set(map(type, cells)) - _SCALARS:
        if not issubclass(kind, (str, int, float)):
            raise TypeError(f"table cell of type {kind.__name__} is not a scalar")


def table_to_json(table) -> str:
    """Render an estimate table as a JSON document (full precision).

    The column list is carried explicitly since JSON objects do not
    guarantee ordering to every consumer.  The bytes are those of
    ``json.dumps(doc, indent=2, allow_nan=False)`` plus a newline.
    """
    columns = list(table.columns)
    rows = table.rows
    if not all(map(tuple(columns).__eq__, map(tuple, rows))):
        rows = [dict(zip(columns, map(row.get, columns))) for row in rows]
    _check_scalars(itertools.chain.from_iterable(map(dict.values, rows)))
    head = "[]" if not columns else "[\n    " + _COLUMNS.encode(columns)[1:-1] + "\n  ]"
    head = '{\n  "columns": ' + head + ',\n  "rows": '
    if not rows:
        return head + "[]\n}\n"
    if not columns:
        return head + "[\n    " + ",\n    ".join(["{}"] * len(rows)) + "\n  ]\n}\n"
    blocks = [_ROWS.encode(rows[i:i + _BLOCK])[2:-2].replace("}" + _CELL_SEP + "{", _NEXT_ROW)
              for i in range(0, len(rows), _BLOCK)]
    blocks[0] = head + "[\n    {\n      " + blocks[0]
    blocks[-1] += "\n    }\n  ]\n}\n"
    return _NEXT_ROW.join(blocks)


def _pretty_cell(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def table_to_pretty(table) -> str:
    """Aligned two-decimal text table for terminal display."""
    header = [str(c) for c in table.columns]
    body = [[_pretty_cell(row.get(c)) for c in table.columns] for row in table.rows]
    widths = [len(h) for h in header]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))

    def fmt(line: Sequence[str]) -> str:
        return "  ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip()

    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(line) for line in body)
    return "\n".join(out) + "\n"


def geojson_to_text(collection: dict) -> str:
    """Serialize a FeatureCollection produced by the spatial join."""
    return json.dumps(collection, indent=2, allow_nan=False) + "\n"
