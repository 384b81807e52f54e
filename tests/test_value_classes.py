"""The value classes: equality, hashing, repr, immutability and signatures.

The domain expression nodes, the public option and result classes and the
table records are named tuples that behave as the frozen dataclasses they
replaced: equal only to an instance of their own class with equal fields,
immutable, and printed with their field names.  Nodes, options and results
hash; a record holds its ``extras`` dict and does not.
"""

import copy
import inspect
import pickle
from pathlib import Path

import pytest

import timberline as tl
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
from timberline.io import load_database, write_database
from timberline.model import TABLES, Evaluation, Violation
from timberline.oracle import brute_force_estimate

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


def _record(spec):
    """A record of the table with its required columns filled, the rest defaulted."""
    sample = {"int": 1, "float": 1.0, "str": "A"}
    return spec.record(**{c.attr: sample[c.kind] for c in spec.columns if c.required})


RECORDS = {spec.record: _record(spec) for spec in TABLES.values()}


def test_records_keep_their_fields_and_defaults():
    for spec in TABLES.values():
        cls = spec.record
        assert cls._fields == (*(c.attr for c in spec.columns), "extras")
        assert cls._field_defaults == {
            **{c.attr: None for c in spec.columns if not c.required}, "extras": {}}
    assert Evaluation(1).eval_type == "VOL" and Evaluation(1, eval_typ="GRM").eval_type == "GRM"


def test_records_equal_only_records_of_their_own_class():
    lookalikes = 0
    for cls, rec in RECORDS.items():
        assert rec == cls(*rec) and not rec != cls(*rec)
        assert rec != tuple(rec) and tuple(rec) != rec and not rec == tuple(rec)
        for other in RECORDS:
            if other is not cls and len(other._fields) == len(rec):
                twin = other._make(rec)  # the same values under another class
                assert rec != twin and twin != rec and not rec == twin
                lookalikes += 1
    assert lookalikes > 0


def test_records_are_immutable_and_unhashable():
    for cls, rec in RECORDS.items():
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], "changed")
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)


def test_records_copy_pickle_and_replace_to_records_of_their_class():
    for cls, rec in RECORDS.items():
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls and twin == rec and twin.extras == {}
        changed = rec._replace(extras={"X": "1"})
        assert type(changed) is cls and changed != rec
        assert changed.extras == {"X": "1"} and rec.extras == {}
        assert changed._replace(extras={}) == rec


def test_a_loaded_record_prints_its_fields():
    fixtures = Path(__file__).parent / "fixtures"
    assert repr(load_database(fixtures / "SYNTH-1", ["CT"]).strata[0]) == (
        "Stratum(cn='S91801-1', estn_unit_cn='U91801', weight=1.0, adj_subp=1.0, "
        "adj_micr=1.0, adj_macr=None, extras={})")
    assert repr(load_database(fixtures / "SYNTH-INV", ["CT"]).plots[0]) == (
        "PlotRecord(cn='V1', statecd=9, plot=21, invyr=2018, measyear=2018, lat=41.45, "
        "lon=-72.75, remper=None, plot_status_cd=None, designcd=None, "
        "extras={'INVASIVE_SAMPLING_STATUS_CD': '1'})")


def test_nothing_mutates_the_shared_empty_extras(synth_inv, tmp_path):
    """Records made without ``extras`` share their class's default dict."""
    for family in ("tpa", "area", "invasive", "seedling"):
        tl.estimate(synth_inv, family)
        brute_force_estimate(synth_inv, family)
    write_database(synth_inv, tmp_path)
    list(load_database(tmp_path, ["CT"]).trees)
    assert all(cls._field_defaults["extras"] == {} for cls in RECORDS)
