"""The per-row value layout, against a per-row loop.

:class:`~timberline.core.Records` and :class:`~timberline.core.Entries` hold
their values as columns x rows.  Records with 1-9 value columns, including
as many rows as columns and no rows at all, must give the entries and the
stratified totals that a loop over single rows gives, bit for bit.

The design has two overlapping evaluations of one stratum each, so some
plots sit in two cells of a panel and no panel has more than two cells: a
sum over a panel's cells then has one order whatever numpy's reduction
does, and the loop below can take it term by term.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timberline.core import (
    ADJUST_CLASSES,
    ComponentSpec,
    GroupCol,
    Plan,
    Records,
    build_sample,
    compute_pass,
    make_bundle,
)
from timberline.model import (
    EstimationUnit,
    Evaluation,
    ForestDatabase,
    PlotRecord,
    Stratum,
    StratumAssignment,
)

N_PLOTS = 11  # P10 is in no evaluation


def _database() -> ForestDatabase:
    evals = [Evaluation(evalid=e, statecd=9, eval_typ="VOL", report_year=2018,
                        start_invyr=2017, end_invyr=2018) for e in (1, 2)]
    units = [EstimationUnit(cn="U1", evalid=1, area_used=1000.0),
             EstimationUnit(cn="U2", evalid=2, area_used=640.0)]
    strata = [Stratum(cn="S1", estn_unit_cn="U1", weight=1.0, adj_subp=1.1, adj_micr=1.3,
                      adj_macr=0.9),
              Stratum(cn="S2", estn_unit_cn="U2", weight=1.0, adj_subp=0.95, adj_micr=1.7,
                      adj_macr=1.2)]
    plots = [PlotRecord(cn=f"P{i:02d}", statecd=9, plot=i, invyr=2017 + i % 2)
             for i in range(N_PLOTS)]
    assigns = ([StratumAssignment(plt_cn=f"P{i:02d}", stratum_cn="S1") for i in range(7)]
               + [StratumAssignment(plt_cn=f"P{i:02d}", stratum_cn="S2") for i in range(3, 10)])
    return ForestDatabase(plots=plots, evaluations=evals, estn_units=units, strata=strata,
                          assignments=assigns, states=("CT",))


DB = _database()
VALUES = st.one_of(st.just(0.0), st.floats(-1e3, 1e3).filter(lambda v: abs(v) >= 1e-3))


@st.composite
def records(draw, n_cols: int, n_keys: int, group_cols: int = 1) -> Records:
    n = n_cols if draw(st.booleans()) else draw(st.integers(0, 20))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    values = [column(VALUES) for _ in range(n_cols)]
    codes = np.arange(n_keys).reshape(-1, 1)[:, :group_cols]
    return Records(np.array(column(st.integers(-1, N_PLOTS - 1)), dtype=np.intp),
                   np.array(column(st.integers(0, n_keys - 1)), dtype=np.intp),
                   [list(range(n_keys))][:group_cols], np.array(column(VALUES)),
                   np.array(values).reshape(n_cols, n),
                   np.array(column(st.integers(0, 2)), dtype=np.intp), codes)


@st.composite
def cases(draw):
    n_cols, n_keys = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["area", "trees", "none"]),
                          min_size=n_cols, max_size=n_cols))
    plan = Plan("layout", tuple(ComponentSpec(f"C{i}", k) for i, k in enumerate(kinds)),
                draw(records(n_cols, n_keys)), (GroupCol("G", "tree", "record"),),
                den_area=draw(records(1, 1, group_cols=0)),
                den_tree=draw(records(1, n_keys)))
    return plan, draw(st.sampled_from([None, [2017, 2018]]))


def _entries(sample, rec: Records) -> dict:
    """(key, plot) -> the sum of each column over its rows, in row order."""
    pos = {row: i for i, row in enumerate(sample.rows.tolist())}
    last = {p: m for m, p in enumerate(sample.plot.tolist())}
    out: dict = {}
    for r in range(len(rec.plot)):
        p = pos.get(int(rec.plot[r]))
        if p is None:
            continue
        st_ = sample.strata[sample.stratum[last[p]]]
        expand = rec.weight[r] * st_.adjustment(ADJUST_CLASSES[rec.adjust[r]])
        sums = out.setdefault((int(rec.key[r]), p), [0.0] * len(rec.values) + [0])
        for c in range(len(rec.values)):
            sums[c] += float(expand * rec.values[c, r])
        sums[-1] += 1
    return dict(sorted(out.items()))


def _cells(sample):
    """Each plot's memberships as (cell, panel); cells numbered as the kernel numbers them."""
    code = (sample.panel * len(sample.strata) + sample.stratum).tolist()
    number = {c: i for i, c in enumerate(sorted(set(code)))}
    n_h = [code.count(c) for c in sorted(set(code))]
    per_plot: dict = {}
    for m, p in sorted(enumerate(sample.plot.tolist()), key=lambda mp: mp[1]):
        per_plot.setdefault(p, []).append((number[code[m]], int(sample.panel[m])))
    return per_plot, n_h


def _moments(entries: dict, per_plot, n_h, n_cols):
    """(key, cell) -> (per-column means, entries in the cell)."""
    sums: dict = {}
    for (key, plot), values in entries.items():
        for cell, _ in per_plot[plot]:
            acc = sums.setdefault((key, cell), [0.0] * n_cols + [0])
            for c in range(n_cols):
                acc[c] += values[c]
            acc[-1] += 1
    return {kc: ([s / n_h[kc[1]] for s in acc[:-1]], acc[-1]) for kc, acc in sums.items()}


def _panel_sum(terms: dict, cells_of_panel, n_keys, n_panels, n_cols, w) -> np.ndarray:
    out = np.zeros((n_keys, n_panels, n_cols))
    for k in range(n_keys):
        for p in range(n_panels):
            for c in range(n_cols):
                total = 0.0
                for cell in cells_of_panel[p]:
                    total += terms.get((k, cell), [0.0] * n_cols)[c] * w[cell]
                out[k, p, c] = total
    return out


def _same(got: np.ndarray, want) -> bool:
    want = np.asarray(want, dtype=float).reshape(got.shape)
    return got.tobytes() == want.tobytes()


@given(cases())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_entries_and_totals_equal_a_loop_over_rows(case):
    plan, years = case
    sample = build_sample(DB, DB.evaluations, years)
    bundle = make_bundle(DB, plan, sample)
    expected = {}
    for name in ("num", "den_area", "den_tree"):
        got, want = getattr(bundle, name), _entries(sample, getattr(plan, name))
        expected[name] = want
        assert list(zip(got.key_row[got.key].tolist(), got.plot.tolist())) == list(want)
        width = len(getattr(plan, name).values)
        by_entry = np.array([v[:-1] for v in want.values()]).reshape(len(want), width)
        assert got.values.shape == (width, len(want))
        assert _same(got.values, by_entry.T)
        assert got.count.tolist() == [v[-1] for v in want.values()]

    totals = compute_pass(DB, plan, sample)
    if not any(expected.values()):
        assert totals is None
        return
    strata = sample.constants()
    per_plot, n_h = _cells(sample)
    cells_of_panel = [range(a, b) for a, b in strata.bounds]
    n_cols, n_panels = len(plan.components), sample.n_panels
    num = expected["num"]
    keys = sorted({k for k, _ in num})
    x_moments = _moments(num, per_plot, n_h, n_cols)
    local = {k: i for i, k in enumerate(keys)}

    def local_terms(terms):
        return {(local[k], cell): v for (k, cell), v in terms.items()}

    means = local_terms({kc: m for kc, (m, _) in x_moments.items()})
    squares: dict = {}
    for (key, plot), values in num.items():
        for cell, _ in per_plot[plot]:
            acc = squares.setdefault((key, cell), [0.0] * n_cols)
            for c in range(n_cols):
                d = values[c] - x_moments[key, cell][0][c]
                acc[c] += d * d
    for (key, cell), acc in squares.items():
        mean, count = x_moments[key, cell]
        for c in range(n_cols):
            acc[c] += (n_h[cell] - count) * (mean[c] * mean[c])
    assert _same(totals.num.total, _panel_sum(means, cells_of_panel, len(keys), n_panels,
                                              n_cols, strata.area_w))
    assert _same(totals.num.variance, _panel_sum(local_terms(squares), cells_of_panel,
                                                 len(keys), n_panels, n_cols, strata.var_w))

    nonzero = np.zeros((len(keys), n_panels, n_cols + 2), dtype=int)
    for (key, plot), values in num.items():
        for panel in sorted({panel for _, panel in per_plot[plot]}):
            flags = [v != 0 for v in values[:-1]]
            nonzero[local[key], panel] += [*flags, any(flags), 1]
    assert totals.num.nonzero.tolist() == nonzero[..., :-2].tolist()
    assert totals.num.any_nonzero.tolist() == nonzero[..., -2].tolist()
    assert totals.num.present.tolist() == (nonzero[..., -1] > 0).tolist()

    products: dict = {}
    for name, kind in (("den_area", "area"), ("den_tree", "trees")):
        den = expected[name]
        y_moments = _moments(den, per_plot, n_h, 1)
        for (key, plot), values in num.items():
            den_key = 0 if name == "den_area" else key
            y = den.get((den_key, plot), [0.0])[0]
            for cell, _ in per_plot[plot]:
                y_mean = y_moments.get((den_key, cell), ([0.0], 0))[0][0]
                acc = products.setdefault((local[key], cell), [0.0] * n_cols)
                for c, comp in enumerate(plan.components):
                    if comp.den == kind and den:
                        acc[c] += values[c] * (y - y_mean)
    assert _same(totals.cov, _panel_sum(products, cells_of_panel, len(keys), n_panels,
                                        n_cols, strata.var_w))
