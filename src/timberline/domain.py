"""Predicate language for tree- and area-domain filters.

Grammar (lowest to highest binding)::

    expr        := and_expr ('|' and_expr)*
    and_expr    := unary ('&' unary)*
    unary       := '!' unary | atom
    atom        := '(' expr ')' | comparison
    comparison  := operand ('==' | '!=' | '<' | '<=' | '>' | '>=') operand
                 | IDENT 'in' '(' literal (',' literal)* ')'
    operand     := IDENT | literal
    literal     := NUMBER | 'single or double quoted string'

No arithmetic: every comparison involves at least one literal.  A comparison
between two literals folds to a constant at parse time.  Identifiers resolve
case-insensitively against the bound row schema, trees shadowing conditions
shadowing plots.

Evaluation is three-valued: a comparison against a null cell is *unknown*,
combined by Kleene logic (``unknown & false = false``, ``unknown | true =
true``, otherwise unknown propagates).  At the root, unknown collapses to 0,
so records with missing values drop out of the domain.
:meth:`BoundDomain.mask` gives the same result for a whole column of rows
at once, evaluating each comparison once per distinct value.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import DomainBindError, DomainSyntaxError
from .model import typed_equality

__all__ = [
    "DomainExpr",
    "Comparison",
    "InSet",
    "And",
    "Or",
    "Not",
    "Constant",
    "parse_domain",
    "to_text",
    "referenced_columns",
    "bind_domain",
    "BoundDomain",
    "RowSchema",
]

_UNKNOWN = None  # alias to make tri-state returns legible


@typed_equality
class Constant(NamedTuple):
    value: bool


@typed_equality
class Comparison(NamedTuple):
    op: str  # == != < <= > >=
    lhs: object  # column name (str marked by Ident) or literal
    rhs: object


@typed_equality
class Ident(NamedTuple):
    """Marks an operand as a column reference rather than a string literal."""

    name: str


@typed_equality
class InSet(NamedTuple):
    column: Ident
    values: tuple


@typed_equality
class And(NamedTuple):
    lhs: DomainExpr
    rhs: DomainExpr


@typed_equality
class Or(NamedTuple):
    lhs: DomainExpr
    rhs: DomainExpr


@typed_equality
class Not(NamedTuple):
    operand: DomainExpr


# A parsed predicate node.
DomainExpr = Constant | Comparison | InSet | And | Or | Not


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op>==|!=|<=|>=|<|>|\(|\)|,|&|\||!)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DomainSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            yield _Token(kind, m.group(), pos)
        pos = m.end()
    yield _Token("end", "", len(text))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        if self.cur.text != text:
            raise DomainSyntaxError(
                f"expected {text!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.pos,
            )
        return self.advance()

    def parse(self) -> DomainExpr:
        expr = self.or_expr()
        if self.cur.kind != "end":
            raise DomainSyntaxError(f"unexpected {self.cur.text!r}", self.cur.pos)
        return expr

    def or_expr(self) -> DomainExpr:
        node = self.and_expr()
        while self.cur.text == "|":
            self.advance()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> DomainExpr:
        node = self.unary()
        while self.cur.text == "&":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> DomainExpr:
        if self.cur.text == "!":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> DomainExpr:
        if self.cur.text == "(":
            self.advance()
            node = self.or_expr()
            self.expect(")")
            return node
        return self.comparison()

    def operand(self):
        tok = self.cur
        if tok.kind == "ident":
            self.advance()
            return Ident(tok.text.upper())
        if tok.kind == "number":
            self.advance()
            return _number(tok.text)
        if tok.kind == "string":
            self.advance()
            return tok.text[1:-1]
        raise DomainSyntaxError(
            f"expected a column name or literal, found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def comparison(self) -> DomainExpr:
        start = self.cur
        lhs = self.operand()
        if self.cur.kind == "ident" and self.cur.text.lower() == "in":
            if not isinstance(lhs, Ident):
                raise DomainSyntaxError("'in' requires a column on the left", start.pos)
            self.advance()
            self.expect("(")
            values = [self.literal()]
            while self.cur.text == ",":
                self.advance()
                values.append(self.literal())
            self.expect(")")
            return InSet(lhs, tuple(values))
        op_tok = self.cur
        if op_tok.text not in _CMP_FUNCS:
            raise DomainSyntaxError(
                f"expected a comparison operator, found {op_tok.text or 'end of input'!r}",
                op_tok.pos,
            )
        self.advance()
        rhs = self.operand()
        if isinstance(lhs, Ident) and isinstance(rhs, Ident):
            raise DomainSyntaxError(
                "comparisons must involve a literal (no column-to-column comparison)",
                start.pos,
            )
        if not isinstance(lhs, Ident) and not isinstance(rhs, Ident):
            result = _CMP_FUNCS[op_tok.text](lhs, rhs)
            return Constant(bool(result))
        return Comparison(op_tok.text, lhs, rhs)

    def literal(self):
        tok = self.cur
        value = self.operand()
        if isinstance(value, Ident):
            raise DomainSyntaxError("expected a literal value", tok.pos)
        return value


def _number(text: str) -> float | int:
    as_float = float(text)
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return as_float


def parse_domain(text: str) -> DomainExpr:
    """Parse predicate text; raises :class:`DomainSyntaxError` with position."""
    if not text or not text.strip():
        raise DomainSyntaxError("empty domain expression", 0)
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Printing (parse(to_text(e)) reproduces e structurally)
# --------------------------------------------------------------------------

_PRECEDENCE = {Or: 1, And: 2, Not: 3}


def _literal_text(value) -> str:
    if isinstance(value, str):
        return "'" + value + "'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _operand_text(value) -> str:
    if isinstance(value, Ident):
        return value.name
    return _literal_text(value)


def to_text(expr: DomainExpr) -> str:
    """Render a parsed expression back to canonical predicate text."""
    if isinstance(expr, Constant):
        return "1 == 1" if expr.value else "1 == 0"
    if isinstance(expr, Comparison):
        return f"{_operand_text(expr.lhs)} {expr.op} {_operand_text(expr.rhs)}"
    if isinstance(expr, InSet):
        inner = ", ".join(_literal_text(v) for v in expr.values)
        return f"{expr.column.name} in ({inner})"
    if isinstance(expr, Not):
        inner = to_text(expr.operand)
        if not isinstance(expr.operand, Not):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(expr, (And, Or)):
        op = "&" if isinstance(expr, And) else "|"
        mine = _PRECEDENCE[type(expr)]
        parts = []
        # A right operand of equal precedence needs parentheses: the parser
        # associates to the left.
        for child, right in ((expr.lhs, 0), (expr.rhs, 1)):
            text = to_text(child)
            if _PRECEDENCE.get(type(child), 4) < mine + right:
                text = f"({text})"
            parts.append(text)
        return f" {op} ".join(parts)
    raise TypeError(f"not a domain expression: {expr!r}")


def referenced_columns(expr: DomainExpr) -> set[str]:
    """All column names the expression reads."""
    out: set[str] = set()

    def walk(node):
        if isinstance(node, Comparison):
            for side in (node.lhs, node.rhs):
                if isinstance(side, Ident):
                    out.add(side.name)
        elif isinstance(node, InSet):
            out.add(node.column.name)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or)):
            walk(node.lhs)
            walk(node.rhs)

    walk(expr)
    return out


# --------------------------------------------------------------------------
# Binding and evaluation
# --------------------------------------------------------------------------

_CMP_FUNCS: dict[str, Callable] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ORDERING_OPS = {"<", "<=", ">", ">="}

# ColumnGetter: column name -> (code per row, distinct values the codes index).
ColumnGetter = Callable[[str], "tuple[np.ndarray, list]"]

# RowSchema: column name -> kind ("int" | "float" | "str" | "text"), where
# "text" marks passthrough extras columns of unknown type.
RowSchema = Mapping[str, str]


class BoundDomain(NamedTuple):
    """A parsed expression checked against a row schema, ready to evaluate."""

    expr: DomainExpr
    columns: tuple[str, ...]

    def indicator(self, getter: Callable[[str], object]) -> int:
        """Collapse the three-valued result to a 0/1 domain indicator."""
        return 1 if _eval(self.expr, getter) is True else 0

    def tristate(self, getter: Callable[[str], object]) -> bool | None:
        return _eval(self.expr, getter)

    def mask(self, column: ColumnGetter, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(known, true) boolean arrays: the three-valued result over n rows.

        ``column(name)`` gives one code per row and the distinct values the
        codes index.  ``true`` is the 0/1 indicator; it implies ``known``.
        """
        return _mask(self.expr, column, n)


def bind_domain(expr: DomainExpr | str, schema: RowSchema) -> BoundDomain:
    """Type-check column references against a schema; raise on any mismatch.

    ``schema`` maps available column names to kinds.  Problems found: unknown
    columns, ordering comparisons on non-numeric typed columns, literal types
    that cannot match the column, and (in an expression not built by the
    parser) unknown comparison operators.  All problems are reported together.
    """
    if isinstance(expr, str):
        expr = parse_domain(expr)
    problems: list[str] = []

    def check_literal(column: Ident, literal, ordering: bool):
        kind = schema.get(column.name)
        if kind is None:
            problems.append(f"unknown column {column.name}")
            return
        if kind in ("int", "float"):
            if isinstance(literal, str):
                problems.append(
                    f"column {column.name} is numeric but compared to string "
                    f"{literal!r}"
                )
        elif kind == "str":
            if ordering:
                problems.append(
                    f"ordering comparison needs a numeric column, {column.name} is text"
                )
            elif not isinstance(literal, str):
                problems.append(
                    f"column {column.name} is text but compared to number {literal!r}"
                )
        # kind == "text": passthrough extras accept either literal type.

    def walk(node):
        if isinstance(node, Comparison):
            if node.op not in _CMP_FUNCS:
                problems.append(f"unknown comparison operator {node.op!r}")
            ordering = node.op in _ORDERING_OPS
            for col, lit in ((node.lhs, node.rhs), (node.rhs, node.lhs)):
                if isinstance(col, Ident):
                    check_literal(col, lit, ordering)
        elif isinstance(node, InSet):
            for v in node.values:
                check_literal(node.column, v, ordering=False)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or)):
            walk(node.lhs)
            walk(node.rhs)

    walk(expr)
    if problems:
        raise DomainBindError(problems)
    return BoundDomain(expr, tuple(sorted(referenced_columns(expr))))


def _coerce_pair(left, right):
    """Align a cell value with a literal for comparison; None means null."""
    if left is None or right is None:
        return None, None
    if isinstance(right, (int, float)) and isinstance(left, str):
        try:
            left = float(left)
        except ValueError:
            return None, None
    if isinstance(right, str) and isinstance(left, (int, float)):
        right_num = _maybe_number(right)
        if right_num is None:
            return None, None
        right = right_num
    return left, right


def _maybe_number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _eval(node: DomainExpr, getter: Callable[[str], object]) -> bool | None:
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Comparison):
        lhs, rhs = node.lhs, node.rhs
        if isinstance(lhs, Ident):
            left, right = _coerce_pair(getter(lhs.name), rhs)
        else:
            right, left = _coerce_pair(getter(rhs.name), lhs)
        if left is None or right is None:
            return _UNKNOWN
        return bool(_CMP_FUNCS[node.op](left, right))
    if isinstance(node, InSet):
        cell = getter(node.column.name)
        if cell is None:
            return _UNKNOWN
        for v in node.values:
            left, right = _coerce_pair(cell, v)
            if left is not None and left == right:
                return True
        return False
    if isinstance(node, Not):
        inner = _eval(node.operand, getter)
        return _UNKNOWN if inner is None else not inner
    if isinstance(node, And):
        left = _eval(node.lhs, getter)
        if left is False:
            return False
        right = _eval(node.rhs, getter)
        if right is False:
            return False
        if left is True and right is True:
            return True
        return _UNKNOWN
    if isinstance(node, Or):
        left = _eval(node.lhs, getter)
        if left is True:
            return True
        right = _eval(node.rhs, getter)
        if right is True:
            return True
        if left is False and right is False:
            return False
        return _UNKNOWN
    raise TypeError(f"not a domain expression: {node!r}")


def _mask(node: DomainExpr, column: ColumnGetter, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of :func:`_eval`: each leaf is evaluated once per distinct
    value of its column and gathered by codes; Kleene logic on (known, true)."""
    if isinstance(node, Constant):
        return np.ones(n, dtype=bool), np.full(n, node.value)
    if isinstance(node, (Comparison, InSet)):
        if isinstance(node, InSet):
            name = node.column.name
        else:
            name = (node.lhs if isinstance(node.lhs, Ident) else node.rhs).name
        codes, values = column(name)
        results = [_eval(node, lambda _: v) for v in values]
        known = np.array([r is not None for r in results], dtype=bool)
        return known[codes], np.array([r is True for r in results], dtype=bool)[codes]
    if isinstance(node, Not):
        known, true = _mask(node.operand, column, n)
        return known, known & ~true
    if isinstance(node, (And, Or)):
        lk, lt = _mask(node.lhs, column, n)
        rk, rt = _mask(node.rhs, column, n)
        if isinstance(node, And):
            true, false = lt & rt, (lk & ~lt) | (rk & ~rt)
        else:
            true, false = lt | rt, (lk & ~lt) & (rk & ~rt)
        return true | false, true
    raise TypeError(f"not a domain expression: {node!r}")
