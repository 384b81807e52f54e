"""Output group order: ranks per column and one lexsort, against the sort-key order."""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline.core import GroupCol, _group_order


# The reference: the sort key ``combine_passes`` used to order group keys
# with, and its ``sorted`` call, as they were.
def _class_lower_bound(label: str) -> float | None:
    """Numeric sort key for interval labels like "[5, 7)" or "< 1"."""
    try:
        if label.startswith("[") and "," in label:
            return float(label[1 : label.index(",")])
        if label.startswith("< "):
            return -math.inf
    except ValueError:
        return None
    return None


def _group_sort_key(plan, extra=()):
    cols = plan.group_cols + extra

    def value_key(col, v):
        if v is None:
            return (3, 0)
        if col.categorical is not None and v in col.categorical:
            return (0, col.categorical.index(v))
        if col.origin == "sizeclass" and isinstance(v, str):
            bound = _class_lower_bound(v)
            if bound is not None:
                return (1, bound)
        if isinstance(v, bool):
            return (1, float(v))
        if isinstance(v, (int, float)):
            return (1, float(v))
        return (2, str(v))

    def key(gk):
        return tuple(value_key(col, v) for col, v in zip(cols, gk))

    return key


def reference_order(cols, keys):
    sort_key = _group_sort_key(SimpleNamespace(group_cols=tuple(cols)))
    return sorted(range(len(keys)), key=lambda i: sort_key(keys[i]))


def group_order(cols, keys):
    """``_group_order`` of the key tuples, each key with its own code per column."""
    codes = np.tile(np.arange(len(keys)), (len(cols), 1)).T
    return _group_order(tuple(cols), codes, [[gk[i] for gk in keys] for i in range(len(cols))])


LABELS = ["< 1", "[1, 3)", "[5, 7)", "[5, 9)", "[-2.5, 0)", "[1e300, 2)", "[0, 1)", "[-0.0, 1)",
          "<1", "[x, 7)", "[5", "[, 3)", "< ", "7", "", "MOSAIC"]
LEVELS = ["POLE", "MATURE", "LATE", "MOSAIC", 3, 1.0, "1-hr"]
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -math.inf, math.inf, 1e-300, 2.0**53, 2**53 + 1]),
    st.integers(-2**80, 2**80),
    st.floats(allow_nan=False, width=16),
    st.sampled_from(LABELS),
    st.sampled_from(LEVELS),
    st.text(max_size=3),
)
columns = st.one_of(
    st.builds(GroupCol, st.just("SIZE_CLASS"), st.just("tree"), st.just("sizeclass")),
    st.builds(GroupCol, st.just("OWNCD"), st.sampled_from(["tree", "area"]),
              st.sampled_from(["record", "cond", "plot", "poly", "species"])),
    st.builds(GroupCol, st.just("STAGE"), st.just("tree"), st.just("family"),
              st.lists(st.sampled_from(LEVELS), unique=True, max_size=5).map(tuple)),
)


@st.composite
def groups(draw):
    cols = draw(st.lists(columns, max_size=4))
    # few distinct cells per column, so keys tie and repeat
    pools = [draw(st.lists(cells, min_size=1, max_size=6)) for _ in cols]
    keys = draw(st.lists(st.tuples(*(st.sampled_from(p) for p in pools)), max_size=40))
    return cols, keys


@settings(max_examples=500, deadline=None)
@given(groups())
def test_group_order_is_the_sort_key_order_ties_included(case):
    cols, keys = case
    assert group_order(cols, keys).tolist() == reference_order(cols, keys)


def test_equal_cells_of_other_types_tie_in_index_order():
    col = GroupCol("OWNCD", "area", "cond")
    keys = [(1.0,), (True,), (None,), (1,), ("1",), (0.5,), (-0.0,), (False,), (0.0,)]
    assert group_order([col], keys).tolist() == reference_order([col], keys) \
        == [6, 7, 8, 5, 0, 1, 3, 4, 2]
    sizes = GroupCol("SIZE_CLASS", "tree", "sizeclass")
    labels = [("[5, 7)",), ("< 1",), (5,), ("[5, 9)",), ("[x, 7)",), ("[1, 3)",)]
    assert group_order([sizes], labels).tolist() == reference_order([sizes], labels) \
        == [1, 5, 0, 2, 3, 4]
