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
    rows = [{"I": i, "V": cells[i % len(cells)], "W": cells[(3 * i) % len(cells)],
             "F": TRICKY_FLOATS[i % len(TRICKY_FLOATS)], "N": [None, 1.5, 0.0][i % 3]}
            for i in range(n)]
    built = EstimateTable.from_columns(list("IVWFN"), [[r[c] for r in rows] for c in "IVWFN"])
    for table in (EstimateTable(list("IVWFN"), rows), built):
        assert len(table) == n
        assert table_to_json(table) == reference_json(table)
        assert table_to_csv(table) == reference_csv(table)


@st.composite
def column_tables(draw):
    """Tables built from columns, repeated names included, with their rows."""
    columns = draw(st.lists(st.sampled_from(["A", "B", "C", "%s", "D\\"]) | texts, max_size=5))
    n = draw(st.integers(0, 8)) if columns else 0
    cells = [draw(st.lists(scalars, min_size=n, max_size=n)) for _ in columns]
    rows = [dict(zip(columns, row)) for row in zip(*cells)]
    return EstimateTable.from_columns(columns, cells), EstimateTable(columns, rows)


@settings(max_examples=300, deadline=None)
@given(column_tables())
def test_tables_built_from_columns_render_as_their_rows(tables):
    built, from_rows = tables
    assert built.rows == from_rows.rows
    for render in (table_to_json, table_to_csv, output.table_to_pretty):
        assert render(built) == render(from_rows)
    assert table_to_json(built) == reference_json(from_rows)
    assert table_to_csv(built) == reference_csv(from_rows)


class Code(int):
    def __repr__(self):
        return "Code()"


class Label(str):
    def __repr__(self):
        return "Label()"


def test_equal_cells_of_other_types_keep_their_own_text():
    memoised = [1, True, 0, False, None, "1", "true", 1, True, 0, False, None]
    mixed = [1, True, 1.0, 0.0, -0.0, Code(1), Label("1"), None, 0, False, -0.0, 0.0]
    floats = [0.0, -0.0, 1.0, None, -0.0, 0.0, 1e300, None, 5e-324, -0.0, 0.0, 1.0]
    table = EstimateTable.from_columns(["M", "X", "F"], [memoised, mixed, floats])
    text = table_to_json(table)
    assert text == reference_json(table)
    assert table_to_csv(table) == reference_csv(table)
    rows = json.loads(text)["rows"]
    assert [type(r["M"]) for r in rows[:6]] == [int, bool, int, bool, type(None), str]
    assert [repr(r["X"]) for r in rows[:7]] == ["1", "True", "1.0", "0.0", "-0.0", "1", "'1'"]
    assert [repr(r["F"]) for r in rows[:5]] == ["0.0", "-0.0", "1.0", "None", "-0.0"]


def test_repeated_names_hold_one_column_as_a_dict_holds_one_value():
    table = EstimateTable.from_columns(["A", "B", "A"], [[1, 2], [3, 4], [5, 6]])
    assert table.rows == [{"A": 5, "B": 3}, {"A": 6, "B": 4}]
    assert table.column("A") == [5, 6]
    assert table_to_json(table) == reference_json(table)
    assert json.loads(table_to_json(table))["rows"][0] == {"A": 5, "B": 3}
    assert table_to_csv(table) == reference_csv(table) == "A,B,A\r\n5,3,5\r\n6,4,6\r\n"


def test_rows_are_a_fresh_view_of_the_columns():
    table = EstimateTable(["A", "B"], [{"A": 1.5, "B": "x"}, {"A": None, "C": 2}])
    assert table.rows == [{"A": 1.5, "B": "x"}, {"A": None, "B": None}]
    assert EstimateTable(table.columns, table.rows).rows == table.rows
    assert table.column("A") == [1.5, None] and table.cell(1, "B") is None
    assert table.column("C") == [None, None]
    before = (table_to_json(table), table_to_csv(table))
    row = table.rows[0]
    row["A"] = 99.0
    row["Z"] = 1
    assert table.rows is not table.rows and table.rows[0] == {"A": 1.5, "B": "x"}
    assert (table_to_json(table), table_to_csv(table)) == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_and_infinity_raise_in_both(bad):
    table = EstimateTable(["A"], [{"A": 1.0}, {"A": bad}])
    for render in (table_to_json, reference_json):
        with pytest.raises(ValueError):
            render(table)
    mixed = EstimateTable(["A"], [{"A": 1}, {"A": "x"}, {"A": bad}])
    for render in (table_to_json, reference_json):
        with pytest.raises(ValueError):
            render(mixed)


@pytest.mark.parametrize("cell", [[1, 2], [], {"a": 1}, (1,), {1}])
def test_non_scalar_cells_raise(cell):
    with pytest.raises(TypeError, match="not a scalar"):
        table_to_json(EstimateTable(["A", "B"], [{"A": 1, "B": cell}]))


def test_scalar_subclasses_render_like_their_base():
    table = EstimateTable(["A", "B"], [{"A": Code(7), "B": True}])
    assert table_to_json(table) == reference_json(table)
    assert '"A": 7' in table_to_json(table)
