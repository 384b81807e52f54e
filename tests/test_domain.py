"""Predicate parsing, binding, and three-valued evaluation."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline.domain import (
    And,
    Comparison,
    Constant,
    Ident,
    InSet,
    Not,
    Or,
    bind_domain,
    parse_domain,
    referenced_columns,
    to_text,
)
from timberline.errors import DomainBindError, DomainSyntaxError
from timberline.model import ForestDatabase, TreeRecord, record_value

SCHEMA = {"DIA": "float", "SPCD": "int", "STATUSCD": "int", "COMPONENT": "str",
          "ECOSUBCD": "text"}


def _ind(text, **row):
    dom = bind_domain(text, SCHEMA)
    return dom.indicator(lambda name: row.get(name))


# -- parsing ---------------------------------------------------------------


def test_parse_simple_comparison():
    expr = parse_domain("DIA >= 10.0")
    assert expr == Comparison(">=", Ident("DIA"), 10.0)


def test_parse_precedence_not_over_and_over_or():
    expr = parse_domain("!DIA > 5 & SPCD == 1 | STATUSCD == 2")
    # ((!(DIA > 5)) & (SPCD == 1)) | (STATUSCD == 2)
    assert isinstance(expr, Or)
    assert isinstance(expr.lhs, And)
    assert isinstance(expr.lhs.lhs, Not)


def test_parse_parentheses_override():
    expr = parse_domain("DIA > 5 & (SPCD == 1 | SPCD == 2)")
    assert isinstance(expr, And)
    assert isinstance(expr.rhs, Or)


def test_parse_in_membership():
    expr = parse_domain("SPCD in (316, 318, 833)")
    assert expr == InSet(Ident("SPCD"), (316, 318, 833))


def test_parse_identifiers_case_folded():
    assert parse_domain("dia > 5") == Comparison(">", Ident("DIA"), 5)


def test_parse_literal_only_comparison_folds():
    assert parse_domain("1 == 1") == Constant(True)
    assert parse_domain("2 < 1") == Constant(False)


def test_parse_reversed_operands():
    expr = parse_domain("10 < DIA")
    assert expr == Comparison("<", 10, Ident("DIA"))


@pytest.mark.parametrize("bad,hint", [
    ("", "empty"),
    ("DIA >", "end of input"),
    ("DIA >> 5", "expected a column name or literal"),
    ("DIA == SPCD", "column-to-column"),
    ("5 in (1, 2)", "'in' requires a column"),
    ("DIA > 5 &", "expected a column name or literal"),
    ("SPCD in (316", "end of input"),
    ("DIA @ 5", "unexpected character"),
])
def test_parse_errors(bad, hint):
    with pytest.raises(DomainSyntaxError, match=hint):
        parse_domain(bad)


def test_syntax_error_carries_position():
    with pytest.raises(DomainSyntaxError) as info:
        parse_domain("DIA > 5 & SPCD @ 1")
    assert info.value.position == 15


def test_to_text_round_trips():
    for text in (
        "DIA >= 10.0",
        "SPCD in (316, 'oak')",
        "!(DIA > 5) & STATUSCD == 1",
        "DIA > 5 & (SPCD == 1 | SPCD == 2)",
        "COMPONENT == 'SURVIVOR'",
    ):
        expr = parse_domain(text)
        assert parse_domain(to_text(expr)) == expr


def test_referenced_columns():
    expr = parse_domain("DIA > 5 & (SPCD in (1, 2) | !(STATUSCD == 1))")
    assert referenced_columns(expr) == {"DIA", "SPCD", "STATUSCD"}


def test_readme_domain_examples_parse_verbatim():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Defining sub-populations", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    examples = [line for line in block.splitlines() if line.strip()]
    assert len(examples) == 3
    for text in examples:
        expr = parse_domain(text)
        assert parse_domain(to_text(expr)) == expr


# -- binding ---------------------------------------------------------------


def test_bind_unknown_column():
    with pytest.raises(DomainBindError, match="unknown column TREECOUNT"):
        bind_domain("TREECOUNT > 1", SCHEMA)


def test_bind_reports_all_problems_together():
    with pytest.raises(DomainBindError) as info:
        bind_domain("NOPE > 1 & DIA == 'big' & COMPONENT < 5", SCHEMA)
    message = str(info.value)
    assert "unknown column NOPE" in message
    assert "DIA is numeric but compared to string" in message
    assert "ordering comparison needs a numeric column" in message


def test_bind_string_column_accepts_equality_only():
    bind_domain("COMPONENT == 'CUT'", SCHEMA)
    with pytest.raises(DomainBindError):
        bind_domain("COMPONENT >= 'CUT'", SCHEMA)


def test_bind_passthrough_text_accepts_both_literal_types():
    bind_domain("ECOSUBCD == 'M211'", SCHEMA)
    bind_domain("ECOSUBCD == 1", SCHEMA)
    bind_domain("ECOSUBCD >= 2", SCHEMA)


def test_bound_columns_sorted():
    dom = bind_domain("SPCD == 1 | DIA > 2", SCHEMA)
    assert dom.columns == ("DIA", "SPCD")


# -- evaluation ------------------------------------------------------------


def test_indicator_basic():
    assert _ind("DIA >= 10", DIA=12.0) == 1
    assert _ind("DIA >= 10", DIA=9.9) == 0


def test_indicator_membership():
    assert _ind("SPCD in (316, 318)", SPCD=318) == 1
    assert _ind("SPCD in (316, 318)", SPCD=1) == 0


def test_null_comparison_is_unknown_not_false():
    dom = bind_domain("DIA >= 10", SCHEMA)
    assert dom.tristate(lambda n: None) is None
    assert dom.indicator(lambda n: None) == 0


def test_unknown_propagates_through_not():
    dom = bind_domain("!(DIA >= 10)", SCHEMA)
    # NOT of unknown stays unknown: a null diameter is excluded either way
    assert dom.tristate(lambda n: None) is None
    assert dom.indicator(lambda n: None) == 0


def test_unknown_short_circuits():
    # False & unknown == False; True | unknown == True
    assert _ind("DIA > 10 & SPCD == 1", DIA=5.0, SPCD=None) == 0
    assert _ind("DIA > 10 | SPCD == 1", DIA=12.0, SPCD=None) == 1
    dom = bind_domain("DIA > 10 & SPCD == 1", SCHEMA)
    assert dom.tristate(lambda n: {"DIA": 12.0}.get(n)) is None


def test_text_cell_coerced_to_number():
    assert _ind("ECOSUBCD >= 2", ECOSUBCD="3") == 1
    assert _ind("ECOSUBCD >= 2", ECOSUBCD="1") == 0
    # non-numeric text against a number literal is unknown -> excluded
    assert _ind("ECOSUBCD >= 2", ECOSUBCD="M211") == 0


def test_number_cell_against_string_literal_via_text_column():
    # typed numeric columns reject string literals at bind time; passthrough
    # text columns coerce at evaluation instead
    assert _ind("ECOSUBCD == '316'", ECOSUBCD=316) == 1
    assert _ind("ECOSUBCD == 'oak'", ECOSUBCD=316) == 0


# -- generated expressions ---------------------------------------------------

_NUMBERS = st.one_of(st.integers(-20, 20),
                     st.floats(-20, 20, allow_nan=False, allow_infinity=False))
_WORDS = st.sampled_from(["SURVIVOR", "CUT", "M211", "3", "2.5", "-1", "1e1", "oak", ""])
_LITERALS = {"SPCD": _NUMBERS, "DIA": _NUMBERS, "COMPONENT": _WORDS,
             "ECOSUBCD": st.one_of(_NUMBERS, _WORDS)}


@st.composite
def _leaf(draw):
    """A comparison or set test that binds against SCHEMA."""
    column = draw(st.sampled_from(sorted(_LITERALS)))
    literals = _LITERALS[column]
    if draw(st.booleans()):
        return InSet(Ident(column), tuple(draw(st.lists(literals, min_size=1, max_size=3))))
    ops = ["==", "!="] if SCHEMA[column] == "str" else ["==", "!=", "<", "<=", ">", ">="]
    op, literal = draw(st.sampled_from(ops)), draw(literals)
    if draw(st.booleans()):
        return Comparison(op, Ident(column), literal)
    return Comparison(op, literal, Ident(column))


_EXPRS = st.recursive(
    st.one_of(_leaf(), st.booleans().map(Constant)),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: And(*p)),
        st.tuples(kids, kids).map(lambda p: Or(*p)),
        kids.map(Not),
    ),
    max_leaves=8,
)

_ROWS = st.lists(st.tuples(
    st.none() | st.integers(-20, 20),
    st.none() | st.floats(-20, 20, allow_nan=False, allow_infinity=False),
    st.none() | st.sampled_from(["SURVIVOR", "CUT", "3"]),
    st.none() | _WORDS,  # "" in an extras cell reads as null
), min_size=1, max_size=25)


@settings(max_examples=300, deadline=None)
@given(expr=_EXPRS)
def test_generated_expressions_round_trip(expr):
    assert parse_domain(to_text(expr)) == expr


@settings(max_examples=300, deadline=None)
@given(expr=_EXPRS, rows=_ROWS)
def test_column_mask_equals_tristate_row_by_row(expr, rows):
    trees = [
        TreeRecord(cn=f"T{i}", plt_cn="P1", condid=1, spcd=spcd, dia=dia, component=comp,
                   extras={} if eco is None else {"ECOSUBCD": eco})
        for i, (spcd, dia, comp, eco) in enumerate(rows)
    ]
    view = ForestDatabase(trees=trees, states=("CT",)).columns

    def column(name):
        codes, values = view.column("TREE", name)
        return codes[:-1], values

    dom = bind_domain(expr, SCHEMA)
    known, true = dom.mask(column, len(trees))
    want = [dom.tristate(lambda name, t=t: record_value(t, name)) for t in trees]
    assert [bool(v) if k else None for k, v in zip(known, true)] == want
