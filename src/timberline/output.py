"""Table serialization: CSV and JSON files, pretty text for the console.

File formats keep full float precision (shortest round-trip repr) so results
can be compared exactly; the pretty renderer rounds to two decimals and is
for eyeballs only.  The renderers read a table column by column.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
from collections.abc import Sequence
from itertools import compress, count, repeat

__all__ = [
    "table_to_csv",
    "table_to_json",
    "table_to_pretty",
    "geojson_to_text",
]


def _rows(n: int, columns: list[list]):
    """The n rows of these columns as tuples of cells."""
    return zip(*columns) if columns else [()] * n


def table_to_csv(table) -> str:
    """Render an estimate table as CSV text (full precision).

    The csv module writes None as an empty field and a float through its
    repr, the shortest round-trip form.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.columns)
    writer.writerows(_rows(len(table), [table.column(c) for c in table.columns]))
    return buf.getvalue()


# The bytes are those of ``json.dumps(doc, indent=2, allow_nan=False)``,
# whose pure-Python encoder is slow, so the rows are written column by
# column.  Each block of rows turns every column's slice into cell texts
# once: floats through ``float.__repr__``, as the encoder writes them,
# after a finiteness check; a column of only str or only int cells through
# that type's encoding; other columns of str, int, bool and None cells
# through one text per distinct (type, value), because 1 and True are one
# dict key.  The texts are interleaved with each column's key, which
# carries the separators, and joined once per block; blocks bound the
# temporaries to a block's texts, and the document is joined once.
_BLOCK = 1024
_ROW_START, _CELL_SEP, _ROW_END, _ROW_SEP = "{\n      ", ",\n      ", "\n    }", ",\n    "
_SCALARS = frozenset((str, int, float, bool, type(None)))
_FLOATS = frozenset((float, type(None)))
_MEMOISED = frozenset((str, int, bool, type(None)))


@functools.cache
def _encoders() -> tuple:
    """The column list's encoder, a cell's encoder (a scalar subclass is written as
    its base) and the encodings of a column of one kind.  They are made on the first
    JSON render, so that CSV and pretty output never import json."""
    import json
    from json.encoder import encode_basestring_ascii

    return (json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False).encode,
            json.JSONEncoder(allow_nan=False).encode,
            {str: encode_basestring_ascii, int: int.__repr__})


def _check_scalars(kinds) -> None:
    for kind in kinds - _SCALARS:
        if not issubclass(kind, (str, int, float)):
            raise TypeError(f"table cell of type {kind.__name__} is not a scalar")


def _texts(cells: list, kinds: set) -> list[str]:
    """The JSON text of each cell; ``kinds`` holds at least the cells' types."""
    _, cell_text, one_kind = _encoders()
    if kinds <= _FLOATS:
        if not all(map(math.isfinite, filter(None, cells))):
            raise ValueError("Out of range float values are not JSON compliant")
        texts = list(map(repr, cells))  # repr is float.__repr__ on exact floats
        for i in compress(count(), map(operator.is_, cells, repeat(None))):
            texts[i] = "null"
        return texts
    if len(kinds) == 1 and kinds <= one_kind.keys():
        return list(map(one_kind[next(iter(kinds))], cells))
    if kinds <= _MEMOISED:
        typed = list(zip(map(type, cells), cells))
        memo = {cell: cell_text(cell[1]) for cell in set(typed)}
        return list(map(memo.__getitem__, typed))
    return list(map(cell_text, cells))


def table_to_json(table) -> str:
    """Render an estimate table as a JSON document (full precision).

    The column list is carried explicitly since JSON objects do not
    guarantee ordering to every consumer.  The bytes are those of
    ``json.dumps(doc, indent=2, allow_nan=False)`` plus a newline.  A
    repeated column name is one key of each row object, at its first place.
    """
    names = list(dict.fromkeys(table.columns))
    columns = [table.column(name) for name in names]
    kinds = [set(map(type, cells)) for cells in columns]
    _check_scalars(set().union(*kinds))
    column_list, _, one_kind = _encoders()
    head = "[]" if not table.columns else "[\n    " + column_list(table.columns)[1:-1] + "\n  ]"
    head = '{\n  "columns": ' + head + ',\n  "rows": '
    n = len(table)
    if not n:
        return head + "[]\n}\n"
    if not names:
        return head + "[\n    " + _ROW_SEP.join(["{}"] * n) + "\n  ]\n}\n"
    keys = [one_kind[str](name) + ": " for name in names]
    first = _ROW_START + keys[0]
    keys = [_ROW_END + _ROW_SEP + first] + [_CELL_SEP + key for key in keys[1:]]
    step = 2 * len(names)
    parts = [head, "[\n    "]
    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        pieces = [""] * (step * size)  # per row: key, cell, key, cell, ...
        for c, (key, cells, k) in enumerate(zip(keys, columns, kinds)):
            pieces[2 * c::step] = [key] * size
            pieces[2 * c + 1::step] = _texts(cells[start:start + size], k)
        if not start:
            pieces[0] = first
        parts.append("".join(pieces))
    parts.append(_ROW_END + "\n  ]\n}\n")
    return "".join(parts)  # one copy of the document besides its blocks


def _pretty_cell(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def table_to_pretty(table) -> str:
    """Aligned two-decimal text table for terminal display."""
    header = [str(c) for c in table.columns]
    body = [list(map(_pretty_cell, table.column(c))) for c in table.columns]
    widths = [max([len(h), *map(len, cells)]) for h, cells in zip(header, body)]

    def fmt(line: Sequence[str]) -> str:
        return "  ".join(cell.rjust(w) for cell, w in zip(line, widths)).rstrip()

    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(line) for line in _rows(len(table), body))
    return "\n".join(out) + "\n"


def geojson_to_text(collection: dict) -> str:
    """Serialize a FeatureCollection produced by the spatial join."""
    import json

    return json.dumps(collection, indent=2, allow_nan=False) + "\n"
