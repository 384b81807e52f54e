"""Panel weighting schemes for annual-design estimators.

An evaluation measures its plots in N yearly panels.  Panel p = 1 is the
oldest, p = N the most recent.  The temporally-indifferent estimator (TI)
pools every panel into one sample; ANNUAL estimates each panel alone.  The
moving averages combine per-panel estimates with fixed weights:

    SMA:  w_p = 1/N
    LMA:  w_p = p / sum(1..N)
    EMA:  w_p proportional to lam**(N - p), 0 < lam < 1

EMA weight decays by a factor of ``lam`` for each panel step into the past:
as lam -> 0 all weight concentrates on the newest panel (the ANNUAL limit),
and as lam -> 1 the weights flatten to 1/N (the SMA limit).

Combined estimates treat panels as independent samples:

    total    = sum_p w_p * Y_p
    variance = sum_p w_p**2 * v_p

:func:`timberline.core.combine_passes` applies these weights to a pass's
per-panel totals, one row of weights at a time, and builds the output rows
from the combined totals.
"""

from __future__ import annotations

from typing import Sequence

from .errors import EstimationError, UsageError

__all__ = [
    "DEFAULT_LAMBDA",
    "panel_weights",
    "normalize_lambdas",
    "present_weights",
]

DEFAULT_LAMBDA = 0.5

METHODS = ("TI", "ANNUAL", "SMA", "LMA", "EMA")


def panel_weights(method: str, n_panels: int, lam: float | None = None) -> list[float] | None:
    """Weights over panels 1..N for a method; None for TI and ANNUAL.

    TI pools every panel and ANNUAL weights one panel at a time.
    """
    method = method.upper()
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; choose one of {', '.join(METHODS)}")
    if n_panels < 1:
        raise EstimationError(f"need at least one panel, got {n_panels}")
    if method in ("TI", "ANNUAL"):
        return None
    if method == "SMA":
        return [1.0 / n_panels] * n_panels
    if method == "LMA":
        total = n_panels * (n_panels + 1) / 2.0
        return [p / total for p in range(1, n_panels + 1)]
    lam = DEFAULT_LAMBDA if lam is None else lam
    if not (0.0 < lam < 1.0):
        raise UsageError(f"lambda must be inside (0, 1), got {lam}")
    terms = [lam ** (n_panels - p) for p in range(1, n_panels + 1)]
    total = sum(terms)
    return [t / total for t in terms]


def normalize_lambdas(values: Sequence[float]) -> tuple[float, ...]:
    """Sorted, de-duplicated lambda list for a sweep, the default when empty.

    The range is the request's to check: ``attributes`` lists a lambda outside
    (0, 1) with the request's other problems.
    """
    return tuple(sorted(set(float(v) for v in values))) or (DEFAULT_LAMBDA,)


def present_weights(weights: Sequence[float], present: Sequence[bool]) -> list[float]:
    """Renormalize weights over panels that actually have plots.

    A panel with no measured plots cannot contribute; its weight is spread
    over the remaining panels so the total stays 1.
    """
    if len(weights) != len(present):
        raise EstimationError("panel weight/presence length mismatch")
    kept = sum(w for w, ok in zip(weights, present) if ok)
    if kept <= 0.0:
        raise EstimationError("no panels with measured plots")
    if all(present):
        return list(weights)
    return [w / kept if ok else 0.0 for w, ok in zip(weights, present)]
