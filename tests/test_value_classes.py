"""The value classes: equality, hashing, repr, immutability and signatures.

The domain expression nodes and the public option and result classes are
named tuples that behave as the frozen dataclasses they replaced: equal only
to an instance of their own class with equal fields, hashable, immutable, and
printed with their field names.
"""

import copy
import inspect
import pickle

import pytest

from timberline.attributes import EstimatorRequest
from timberline.core import TotalEstimate
from timberline.domain import (
    And,
    Comparison,
    Constant,
    DomainExpr,
    Ident,
    InSet,
    Not,
    Or,
    bind_domain,
    parse_domain,
)
from timberline.errors import DomainBindError
from timberline.evals import ClipOptions
from timberline.model import Violation

A = Comparison(">=", Ident("DIA"), 10.0)
B = InSet(Ident("SPCD"), (316, 318))


def test_nodes_equal_only_nodes_of_their_own_class():
    assert Not(A) != Constant(A)
    assert And(A, B) != Or(A, B)
    assert Or(A, B) != And(A, B)
    assert not And(A, B) == Or(A, B)
    assert Ident("DIA") != ("DIA",) and ("DIA",) != Ident("DIA")
    assert Constant(True) != (True,) and Constant(True) != True  # noqa: E712
    assert And(A, B) == And(Comparison(">=", Ident("DIA"), 10.0),
                            InSet(Ident("SPCD"), (316, 318)))
    assert parse_domain("DIA >= 10.0 & SPCD in (316, 318)") == And(A, B)
    assert len({And(A, B), Or(A, B), And(A, B), Not(A), Constant(A)}) == 4
    assert hash(And(A, B)) == hash(parse_domain("DIA >= 10.0 & SPCD in (316, 318)"))
    assert all(isinstance(node, DomainExpr) for node in (A, B, And(A, B), Not(A), Constant(1)))


def test_nodes_are_immutable_and_print_their_fields():
    with pytest.raises(AttributeError):
        A.op = "<"
    with pytest.raises(AttributeError):
        del A.op
    with pytest.raises(AttributeError):
        A.extra = 1
    assert A.op == ">="
    assert repr(And(A, Not(B))) == (
        "And(lhs=Comparison(op='>=', lhs=Ident(name='DIA'), rhs=10.0), "
        "rhs=Not(operand=InSet(column=Ident(name='SPCD'), values=(316, 318))))")


def test_nodes_copy_and_pickle_to_equal_nodes():
    node = Or(And(A, Not(B)), Constant(False))
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin == node and type(twin.lhs.rhs) is Not


def test_nodes_check_their_fields():
    with pytest.raises(DomainBindError, match="unknown comparison operator '=~'"):
        bind_domain(Comparison("=~", Ident("DIA"), 1), {"DIA": "float"})
    with pytest.raises(TypeError):
        And(A)
    with pytest.raises(TypeError):
        Not(A, B)


EMPTY = inspect.Parameter.empty
PUBLIC = [
    (EstimatorRequest, [("grp_by", ()), ("tree_domain", None), ("area_domain", None),
                        ("by_species", False), ("by_size_class", False), ("by_plot", False),
                        ("polys", None), ("return_spatial", False), ("method", "TI"),
                        ("lambdas", (0.5,)), ("tidy", True), ("variance", False),
                        ("board_feet", False), ("basis", "BA")],
     ["grp_by", ("SPCD",), "method", "EMA"]),
    (ClipOptions, [("most_recent", False), ("match_eval", False), ("evalids", ()),
                   ("mask", None), ("year", None)], ["evalids", (91801,), "year", 2018]),
    (TotalEstimate, [("total", EMPTY), ("variance", EMPTY), ("n_nonzero", EMPTY),
                     ("n_plots", EMPTY)], ["total", 1.5, "n_plots", 7]),
    (Violation, [("table", EMPTY), ("key", EMPTY), ("rule", EMPTY)],
     ["table", "PLOT", "rule", "duplicate CN"]),
]


@pytest.mark.parametrize("cls, signature, changes", PUBLIC, ids=[c[0].__name__ for c in PUBLIC])
def test_public_classes_keep_their_dataclass_behaviour(cls, signature, changes):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == signature
    values = {name: default if default is not EMPTY else 0 for name, default in signature}
    values.update(zip(changes[::2], changes[1::2]))
    one, two = cls(**values), cls(*values.values())
    assert one == two and not one != two and hash(one) == hash(two)
    assert len({one, two}) == 1
    other = cls(**{**values, changes[0]: "different"})
    assert one != other and not one == other
    assert one != tuple(values.values()) and tuple(values.values()) != one
    assert repr(one) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
    with pytest.raises(AttributeError):
        setattr(one, changes[0], "different")
    assert getattr(one, changes[0]) == values[changes[0]]


def test_violation_prints_table_key_and_rule():
    assert str(Violation("PLOT", "P1", "duplicate CN")) == "PLOT[P1]: duplicate CN"
