"""Counting uniques over bounded integer codes, against the sorts they replace.

``core.dense`` must return exactly what ``np.unique(code, return_inverse=True)``
returns, and ``_Ctx.keys`` exactly what the row-wise ``np.unique(..., axis=0)``
over its code columns gave, its code rows decoding to the old key tuples; the
old ``keys`` is kept here as the reference.
``_match`` must find the same denominator keys as a dict of code rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline.attributes import _Ctx
from timberline.core import GroupCol, _match, dense


def assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@st.composite
def bounded(draw):
    size = draw(st.integers(1, 3000))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    code = draw(st.lists(st.integers(0, size - 1), max_size=400))
    return np.array(code, dtype=dtype), size


@given(bounded())
@settings(max_examples=300, deadline=None)
def test_dense_matches_np_unique(case):
    code, size = case
    assert_same(dense(code, size), np.unique(code, return_inverse=True))


@given(st.integers(0, 2**40), st.sampled_from([np.int32, np.int64]))
def test_dense_of_nothing(size, dtype):
    empty = np.zeros(0, dtype=dtype)
    assert_same(dense(empty, size), np.unique(empty, return_inverse=True))


@given(st.lists(st.integers(0, 2**62), min_size=1, max_size=50))
def test_dense_falls_back_when_the_range_is_wide(code):
    # A mask over 2**62 codes cannot be allocated, so this only passes on the sort.
    code = np.array(code, dtype=np.int64)
    assert_same(dense(code, 2**62 + 1), np.unique(code, return_inverse=True))


@given(st.integers(0, 99), st.integers(1, 50))
def test_dense_of_a_single_value(value, n):
    code = np.full(n, value, dtype=np.int64)
    values, inverse = dense(code, 100)
    assert values.tolist() == [value] and not inverse.any()
    assert_same((values, inverse), np.unique(code, return_inverse=True))


def old_keys(columns, n):
    """``_Ctx.keys`` as it was: one lexicographic sort of the stacked code rows,
    which are each key's codes per column."""
    if not columns:
        return np.zeros(n, dtype=np.intp), [()], np.zeros((1, 0), dtype=np.intp)
    rows, key = np.unique(
        np.column_stack([codes for codes, _ in columns]), axis=0, return_inverse=True
    )
    names = [values for _, values in columns]
    return key.reshape(-1), [tuple(v[c] for v, c in zip(names, r)) for r in rows.tolist()], rows


class Frame:
    """The part of a frame ``_Ctx.keys`` reads for record columns."""

    def __init__(self, columns, n):
        self.columns, self.n = columns, n

    def column(self, name, layer):
        return self.columns[int(name)]


@st.composite
def frames(draw):
    n = draw(st.integers(0, 60))
    wide = draw(st.booleans())  # radices whose product passes 2**63
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        radix = draw(st.integers(1700, 2500) if wide else st.integers(1, 5))
        values = [None, *(f"v{i}" for i in range(radix - 1))]
        codes = draw(st.lists(st.one_of(st.just(0), st.integers(0, radix - 1)),
                              min_size=n, max_size=n))
        columns.append((np.array(codes, dtype=np.int32), values))
    return columns, n


@given(frames())
@settings(max_examples=200, deadline=None)
def test_keys_match_the_lexicographic_row_sort(frame):
    columns, n = frame
    cols = tuple(GroupCol(str(i), "tree", "record") for i in range(len(columns)))
    key, codes, levels = _Ctx.keys(None, Frame(columns, n), cols, None)
    want_key, want_keys, want_codes = old_keys(columns, n)
    assert key.dtype == want_key.dtype and key.tolist() == want_key.tolist()
    assert levels == [values for _, values in columns]
    assert [tuple(map(list.__getitem__, levels, row)) for row in codes.tolist()] == want_keys
    assert codes.shape == want_codes.shape and codes.tolist() == want_codes.tolist()


@st.composite
def code_rows(draw):
    width = draw(st.integers(0, 4))
    radix = draw(st.sampled_from([1, 3, 40, 3000]))
    row = st.lists(st.integers(0, radix - 1), min_size=width, max_size=width).map(tuple)
    targets = draw(st.lists(row, unique=True, max_size=30))
    codes = draw(st.lists(st.sampled_from(targets) | row if targets else row, max_size=30))
    return [np.array(rows, dtype=np.intp).reshape(len(rows), width) for rows in (codes, targets)]


@given(code_rows())
@settings(max_examples=300, deadline=None)
def test_match_finds_the_equal_target_row(case):
    codes, targets = case
    index = {tuple(t): i for i, t in enumerate(targets.tolist())}
    want = [index.get(tuple(r), -1) for r in codes.tolist()]
    got = _match(codes, targets)
    assert got.dtype == np.intp and got.tolist() == want
