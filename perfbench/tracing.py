"""Spans around timberline's layer boundaries, installed from outside.

The tracer replaces functions at the names their callers look up (module
globals such as ``core.make_bundle`` or class attributes such as
``BoundDomain.indicator``) with wrappers that time each call.  Coarse
boundaries record one span per call: name, start, end, parent span, op id
and self time (duration minus the time of wrapped calls inside it).  Hot
boundaries, called once per plot, record or condition, are folded into one
aggregate per (name, parent span, op) so that memory stays flat.  Spans
stay in memory until ``dump`` writes them to one JSON file.
"""

from __future__ import annotations

import functools
import json
import time

_DB_TABLES = ("plots", "conds", "trees", "seedlings", "dwm", "invasives",
              "evaluations", "estn_units", "strata", "assignments", "species")


def _db_rows(db) -> int:
    return sum(len(getattr(db, name)) for name in _DB_TABLES)


class Tracer:
    def __init__(self):
        self.op: object = "setup"
        self.spans: list[dict] = []
        self.aggregates: dict[tuple, list] = {}
        self.counts: dict[tuple, int] = {}
        self._stack: list[list] = []      # [span id, child seconds]
        self._next_id = 0
        self._installed: list[tuple] = []
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, 0.0])
        return span_id, parent

    def _exit(self, duration: float) -> float:
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        return duration - child

    def coarse(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self_s = tracer._exit(end - start)
                span = {"id": span_id, "name": name, "op": tracer.op,
                        "parent": parent, "start": start - tracer.t0,
                        "end": end - tracer.t0, "self": self_s}
                tracer.spans.append(span)
            if measure is not None:
                span.update(measure(result, args))
            return result

        return wrapper

    def hot(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                if stack:
                    stack[-1][1] += duration
                key = (name, parent, tracer.op)
                agg = tracer.aggregates.get(key)
                if agg is None:
                    tracer.aggregates[key] = [1, duration, start - tracer.t0]
                else:
                    agg[0] += 1
                    agg[1] += duration

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, tracer.op)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (for work done before any wrapper)."""
        span_id, parent = self._enter()
        self._exit(end - start)
        self.spans.append({"id": span_id, "name": name, "op": self.op,
                           "parent": parent, "start": start - self.t0,
                           "end": end - self.t0, "self": end - start})

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary of the imported timberline package."""
        from timberline import attributes, cli, core, domain, evals, io, model
        from timberline import output, spatial

        load = self.coarse("io.load", io.load_database,
                           lambda db, args: {"rows": _db_rows(db)})
        write = self.coarse("io.write", io.write_database,
                            lambda _, args: {"rows": _db_rows(args[0])})
        clip = self.coarse("evals.clip", evals.clip,
                           lambda db, args: {"rows": len(db.plots)})
        for owner in (io, cli):
            self._patch(owner, "load_database", load)
            self._patch(owner, "write_database", write)
        for owner in (evals, cli):
            self._patch(owner, "clip", clip)
        self._patch(model.ForestDatabase, "__init__",
                    self.coarse("model.index", model.ForestDatabase.__init__))

        self._patch(attributes, "bind_domain",
                    self.coarse("domain.bind", domain.bind_domain))
        for method in ("indicator", "tristate"):
            self._patch(domain.BoundDomain, method,
                        self.hot("domain.eval", getattr(domain.BoundDomain, method)))

        sample = self.coarse("core.sample", core.build_sample)
        bundle = self.hot("core.bundle", core.make_bundle)
        for owner in (core, attributes):
            self._patch(owner, "build_sample", sample)
            self._patch(owner, "make_bundle", bundle)
        self._patch(core, "compute_pass", self.coarse("core.pass", core.compute_pass))
        for fn in ("post_stratified_total", "post_stratified_covariance"):
            self._patch(core, fn, self.hot("core.totals", getattr(core, fn)))
        self._patch(core, "combine_passes",
                    self.coarse("core.combine", core.combine_passes))

        self._patch(attributes, "run_family",
                    self.coarse("attributes.run", attributes.run_family))
        self._patch(attributes, "_assign_plots",
                    self.coarse("spatial.assign", attributes._assign_plots))
        self._patch(spatial.PolygonFeature, "contains",
                    self.counter("spatial.point_test", spatial.PolygonFeature.contains))
        self._patch(attributes, "emit_spatial",
                    self.coarse("spatial.emit", attributes.emit_spatial))

        for fn in ("table_to_csv", "table_to_json", "table_to_pretty", "geojson_to_text"):
            self._patch(output, fn, self.coarse(
                "output.render", getattr(output, fn),
                lambda text, args: {"bytes": len(text)}))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def document(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": n, "parent": p, "op": op, "calls": a[0], "self": a[1],
                 "start": a[2]}
                for (n, p, op), a in self.aggregates.items()
            ],
            "counts": [
                {"name": n, "op": op, "calls": c} for (n, op), c in self.counts.items()
            ],
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.document(), fp)


# --------------------------------------------------------------------------
# Summaries.  ``docs`` is a list of tracer documents (one per process).
# --------------------------------------------------------------------------

def per_op_totals(docs: list[dict], ops: set) -> dict[str, dict[str, float]]:
    """Self seconds, calls and measured quantities per layer over ``ops``."""
    out: dict[str, dict[str, float]] = {}

    def bucket(name):
        return out.setdefault(name, {"self": 0.0, "calls": 0, "rows": 0, "bytes": 0})

    for doc in docs:
        for s in doc["spans"]:
            if s["op"] in ops:
                b = bucket(s["name"])
                b["self"] += s["self"]
                b["calls"] += 1
                b["rows"] += s.get("rows", 0)
                b["bytes"] += s.get("bytes", 0)
        for a in doc["aggregates"]:
            if a["op"] in ops:
                b = bucket(a["name"])
                b["self"] += a["self"]
                b["calls"] += a["calls"]
        for c in doc["counts"]:
            if c["op"] in ops:
                bucket(c["name"])["calls"] += c["calls"]
    return out
