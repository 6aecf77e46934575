"""Run one workload for a fixed time and write what it measured as JSON.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S
        --trace 0|1 --scale full|tiny --src DIR --work DIR --refs JSON --result PATH

run.py starts this in a fresh interpreter, so its peak resident memory is
the workload's own and nothing computed for the reference checks is
cached here. The workload runs in a fixed number of passes through
``frontwave.cli.main``: ``--seconds`` over the workload's nominal pass
time, so the operations attempted depend on the flags alone. Each
operation is timed while a ``speed.Sampler`` measures the machine, and
the outputs are checked after the clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback

from speed import Sampler
from tracer import Tracer, install, layer_metrics
from workloads import WORKLOADS


def _call(cli, argv: tuple):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crashing command is a failed operation; the run goes on
        traceback.print_exc()
        return "crash"


def _outputs(ops: list) -> dict:
    """SHA-256 and size of every file the pass wrote, keyed by relative path."""
    files = {}
    for i, op in enumerate(ops):
        if op.outdir is None or not os.path.isdir(op.outdir):
            continue
        for name in sorted(os.listdir(op.outdir)):
            with open(os.path.join(op.outdir, name), "rb") as fh:
                blob = fh.read()
            files[f"{i}/{name}"] = {"sha256": hashlib.sha256(blob).hexdigest(),
                                    "bytes": len(blob)}
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--scale", "--src", "--work", "--refs", "--result"):
        ap.add_argument(flag, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    from frontwave import cli

    workload = WORKLOADS[args.workload]
    refs = json.loads(args.refs)
    os.makedirs(args.work, exist_ok=True)
    sampler = Sampler(args.work, workload.workers)
    tracer = None
    if args.trace:
        tracer = Tracer(args.work, sampler.clock)
        install(tracer)

    passes = workload.passes(args.seconds, args.scale)
    walls, slowdowns, checks, outputs = [], [], [], {}
    sampler.start()
    try:
        for index in range(passes):
            pass_dir = os.path.join(args.work, f"pass{index}")
            os.makedirs(pass_dir)
            ops = workload.build(args.seed, index, args.scale, pass_dir)
            if tracer is not None:
                tracer.pass_index = index
            rcs, wall, first = [], 0.0, sampler.mark()
            for op in ops:
                start = sampler.clock()
                rcs.append(_call(cli, op.argv))
                wall += sampler.clock() - start
            slowdown, hidden = sampler.window(first, sampler.mark())
            walls.append(wall - hidden)
            slowdowns.append(slowdown)
            checks.append(workload.check(ops, rcs, refs))
            if index == 0:
                outputs = _outputs(ops)
            shutil.rmtree(pass_dir)
    finally:
        sampler.stop()

    accuracy = {}  # pass 0's figures, or the first pass that has one
    for c in checks:
        for key, value in c.accuracy.items():
            accuracy.setdefault(key, value)
    result = {
        # each pass in reference seconds; the median discounts a pass whose
        # inputs happened to cost more, or that a slow spell hit unevenly
        "wall_s": statistics.median(w / s for w, s in zip(walls, slowdowns)),
        "walls": walls,
        "slowdowns": slowdowns,
        "slowdown": statistics.median(slowdowns),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "wrong": sum(c.wrong for c in checks),
        "reasons": [r for c in checks for r in c.reasons],
        "accuracy": accuracy,
        "outputs": outputs,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.collect(), passes, workload.workers,
                                         1.0 / result["slowdown"])
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
