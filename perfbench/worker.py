"""In-process workload worker: one fresh interpreter per benchmark run.

The parent (``run.py``) starts this script with a pinned environment and
reads its result file.  Set-up loads and clips the generated database
(``workloads.SETUPS`` times, keeping the last copy); then one untimed
warm-up op; then whole rotations of the workload's ops for about
``--seconds`` of op time (``workloads.rotate``).  Output checks run
between ops and are not timed.

With ``--trace 1`` set-up runs once under the tracer, an untraced loop runs
for half the time, and a traced loop repeats the same number of rotations;
the difference between the two loops is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import check
import tracing
import workloads


class _LineCounter:
    """Forwards writes to a stream and counts the lines written."""

    def __init__(self, stream):
        self.stream = stream
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return self.stream.write(text)

    def flush(self):
        self.stream.flush()


class Session:
    def __init__(self, args):
        from timberline import attributes, evals, io, output, spatial

        self.args = args
        self.attributes, self.evals, self.io = attributes, evals, io
        self.output, self.spatial = output, spatial
        self.ops = workloads.WORKLOADS[args.workload]
        self.refs = args.refs_for_seed
        self.db = None
        self.polys = None
        self.deadline = time.monotonic() + args.budget
        self.stderr = _LineCounter(sys.stderr)
        sys.stderr = self.stderr

    def setup(self) -> float:
        self.db = self.polys = None
        gc.collect()
        start = time.perf_counter()
        db = self.io.load_database(self.args.db, ["CT"])
        db = self.evals.clip(db, self.evals.ClipOptions(most_recent=True))
        polys = None
        if any(op.kwargs.get("polys") for op in self.ops):
            polys = self.spatial.PolygonSet.from_geojson(self.args.polys)
        elapsed = time.perf_counter() - start
        self.db, self.polys = db, polys
        return elapsed

    def _render(self, op, result) -> str:
        if op.render == "geojson":
            return self.output.geojson_to_text(result)
        if op.render == "json":
            return self.output.table_to_json(result)
        return self.output.table_to_csv(result)

    def execute(self, op) -> str:
        """One op: the estimator call plus rendering its result."""
        kwargs = dict(op.kwargs)
        if kwargs.get("polys"):
            kwargs["polys"] = self.polys
        return self._render(op, self.attributes.estimate(self.db, op.family, **kwargs))

    def run_op(self, op) -> dict:
        lines_before = self.stderr.lines
        start = time.perf_counter()
        try:
            text = self.execute(op)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                got = check.fingerprint_text(text, op.render)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc}"]
            else:
                problems = check.fingerprint_problems(got, self.refs.get(op.name), op.render)
        return {"op": op.name, "seconds": elapsed, "ok": not problems,
                "problems": problems[:3],
                "stderr_lines": self.stderr.lines - lines_before}

    def loop(self, seconds: float, rotations: int | None, tracer=None) -> dict:
        def run_op(op, op_id):
            if tracer is not None:
                tracer.op = op_id
            return self.run_op(op)

        return workloads.rotate(self.ops, run_op, seconds, rotations, self.deadline)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--db", required=True)
    p.add_argument("--polys", required=True)
    p.add_argument("--refs", default=None, help="JSON file: op name -> fingerprint")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--budget", type=float, default=150.0)
    p.add_argument("--record", action="store_true",
                   help="run each op once and write fingerprints to --result")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    args.refs_for_seed = {}
    if args.refs:
        with open(args.refs, encoding="utf-8") as fp:
            args.refs_for_seed = json.load(fp)

    s = Session(args)
    result: dict = {}
    if args.record:
        s.setup()
        result["fingerprints"] = {
            op.name: check.fingerprint_text(s.execute(op), op.render) for op in s.ops
        }
    elif not args.trace:
        result["setup_s"] = [s.setup() for _ in range(workloads.SETUPS)]
        result["warmup"] = s.run_op(s.ops[workloads.WARMUP[args.workload]])
        result["loop"] = s.loop(args.seconds, None)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        result["setup_s"] = [s.setup()]
        tracer.uninstall()
        result["warmup"] = s.run_op(s.ops[workloads.WARMUP[args.workload]])
        plain = s.loop(args.seconds / 2, None)
        tracer.install()
        traced = s.loop(0.0, plain["rotations"], tracer)
        tracer.uninstall()
        result["loop"] = plain
        result["traced_loop"] = traced
        tracer.dump(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
