"""File renderers: byte-for-byte equal to the straightforward implementations."""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline import output
from timberline.core import EstimateTable
from timberline.output import table_to_csv, table_to_json


def reference_csv(table) -> str:
    """One writerow per row with every cell formatted by hand."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell(row.get(c)) for c in table.columns])
    return buf.getvalue()


def reference_json(table) -> str:
    """The pure-Python encoder that ``indent`` selects."""
    doc = {
        "columns": list(table.columns),
        "rows": [{c: row.get(c) for c in table.columns} for row in table.rows],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


TRICKY_TEXT = ["", "},\n      {", "},\\n      {", 'say "hi"', "back\\slash", "two\nlines",
               "cr\rlf", "tab\there", "ünïcødé ✓ 𝄞", "\x00", " ", "{", "}", "[1, 2]"]
TRICKY_FLOATS = [0.0, -0.0, 1e300, -1e300, 5e-324, 2.2250738585072014e-308, 1e-310,
                 0.1 + 0.2, 1e16, 123456789.125]

texts = st.one_of(st.text(max_size=12), st.sampled_from(TRICKY_TEXT))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(TRICKY_FLOATS),
    texts,
)


@st.composite
def tables(draw):
    columns = draw(st.lists(texts, max_size=6))
    keys = st.sampled_from(columns) | texts if columns else texts
    rows = draw(st.lists(st.dictionaries(keys, scalars, max_size=8), max_size=6))
    if columns and draw(st.booleans()):  # rows holding exactly the columns, in order
        rows = [{c: draw(scalars) for c in columns} for _ in rows]
    return EstimateTable(columns, rows)


@settings(max_examples=400, deadline=None)
@given(tables())
def test_renderers_match_the_reference_byte_for_byte(table):
    assert table_to_json(table) == reference_json(table)
    assert table_to_csv(table) == reference_csv(table)


@pytest.mark.parametrize("columns, rows", [
    ([], []),
    (["A"], []),
    ([], [{}, {"A": 1}]),
    (["A", "B"], [{}, {"B": None}]),
    (["A", "A"], [{"A": 1.5}]),
    (["B", "A"], [{"A": 1, "B": 2}]),
])
def test_empty_and_partial_tables(columns, rows):
    table = EstimateTable(columns, rows)
    assert table_to_json(table) == reference_json(table)
    assert table_to_csv(table) == reference_csv(table)
    assert json.loads(table_to_json(table))["columns"] == columns


@pytest.mark.parametrize("extra", [-1, 0, 1, 1025])
def test_tables_spanning_several_encoder_blocks(extra):
    n = output._BLOCK + extra
    cells = TRICKY_TEXT + TRICKY_FLOATS + [None, True, -7, 2**70]
    rows = [{"I": i, "V": cells[i % len(cells)], "W": cells[(3 * i) % len(cells)]}
            for i in range(n)]
    table = EstimateTable(["I", "V", "W"], rows)
    assert table_to_json(table) == reference_json(table)
    assert table_to_csv(table) == reference_csv(table)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_and_infinity_raise_in_both(bad):
    table = EstimateTable(["A"], [{"A": 1.0}, {"A": bad}])
    for render in (table_to_json, reference_json):
        with pytest.raises(ValueError):
            render(table)


@pytest.mark.parametrize("cell", [[1, 2], [], {"a": 1}, (1,), {1}])
def test_non_scalar_cells_raise(cell):
    with pytest.raises(TypeError, match="not a scalar"):
        table_to_json(EstimateTable(["A", "B"], [{"A": 1, "B": cell}]))


def test_scalar_subclasses_render_like_their_base():
    class Code(int):
        def __repr__(self):
            return "Code()"

    table = EstimateTable(["A", "B"], [{"A": Code(7), "B": True}])
    assert table_to_json(table) == reference_json(table)
    assert '"A": 7' in table_to_json(table)
