"""Record the reference fingerprints every benchmark run checks against.

    python3 perfbench/record_refs.py [--plots N] [--seeds K]

Run from a checkout root on the commit whose outputs are the reference.
For each state seed 0..K-1 it generates the state, runs every op of every
workload once (CLI ops as subprocesses, in-process ops in a worker) and
stores the output fingerprints under ``states[<plots>][<seed>]`` in
``perfbench/refs.json``, keeping the entries for other sizes.  Seeds are
recorded in parallel, one thread per CPU this process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
import gen
import workloads


def record_seed(root: Path, plots: int, seed: int) -> dict:
    work = root / run.WORK / f"record-{plots}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        db = work / "state"
        gen.generate(db, seed, plots)
        env = run._child_env(root)
        deadline = run.Deadline(1800.0)
        out: dict = {}
        cli = run.CliReport(work, db, {}, env, deadline)
        out["cli-report"] = {}
        for op in workloads.CLI_REPORT:
            got, problems, _, _ = cli.execute(op)
            if problems:
                raise SystemExit(f"seed {seed} {op.name}: {problems}")
            out["cli-report"][op.name] = got
        for workload in ("session-families", "wide-groups"):
            result_file = work / f"{workload}.json"
            subprocess.run(
                [sys.executable, str(run.HERE / "worker.py"), "--workload", workload,
                 "--db", str(db), "--polys", str(db / "polys.geojson"),
                 "--seconds", "0", "--record", "--result", str(result_file)],
                env=env, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=1800,
            )
            out[workload] = json.loads(result_file.read_text())["fingerprints"]
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_refs(refs: dict) -> None:
    """Write ``refs.json`` with one line per (size, state seed) entry."""
    sizes = []
    for size, by_seed in sorted(refs["states"].items(), key=lambda kv: int(kv[0])):
        seeds = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
            for seed, entry in sorted(by_seed.items(), key=lambda kv: int(kv[0]))
        )
        sizes.append(f"  {json.dumps(size)}: {{\n{seeds}\n  }}")
    text = (
        "{\n"
        f' "recorded_with": {json.dumps(refs["recorded_with"], sort_keys=True)},\n'
        ' "states": {\n' + ",\n".join(sizes) + "\n }\n}\n"
    )
    run.REFS.write_text(text)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--plots", type=int, default=run.DEFAULT_PLOTS)
    p.add_argument("--seeds", type=int, default=32)
    args = p.parse_args(argv)
    root = Path.cwd()
    run._import_timberline(root)
    refs = json.loads(run.REFS.read_text()) if run.REFS.exists() else {"states": {}}
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        per_seed = list(pool.map(lambda s: record_seed(root, args.plots, s),
                                 range(args.seeds)))
    refs["states"][str(args.plots)] = {str(s): r for s, r in enumerate(per_seed)}
    refs["recorded_with"] = {"source": run._source_digest(root), "commit": run._commit(root)}
    write_refs(refs)
    try:
        (root / run.WORK).rmdir()
    except OSError:
        pass
    print(f"recorded {args.seeds} seeds at {args.plots} plots into {run.REFS}")
    return 0


if __name__ == "__main__":
    os.environ.update(run.PINNED_ENV)
    raise SystemExit(main())
