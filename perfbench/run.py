"""frontwave benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload spread --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). Workloads, metrics and their units are listed in BENCHMARK.json
and explained in perfbench/README.md. A run

1. writes pass 0's configs and times ``SETUP_REPS`` fresh interpreters
   that import frontwave.cli and build them (``setup_s``), half of them
   before the workload runs and half after, each between two runs of an
   import yardstick (perfbench/speed.py);
2. computes the reference c0 for the accuracy checks in this process, so
   nothing it computes can be reused by the timed runs;
3. runs the workload in a fresh interpreter (perfbench/measure.py) for
   about ``--seconds``, tracing the layers when ``--trace 1``;
4. prints one provenance line, then the result line.

Times are reported in reference seconds (see perfbench/speed.py); the
provenance line keeps the raw wall times and the slowdowns beside them.

``--scale tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import FULL, TINY, WORKLOADS  # noqa: E402

SETUP_REPS = {FULL: 3, TINY: 2}
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
AFTER_RESERVE_S = 15.0  # kept for the probes that follow the workload


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _setup_probes(reps: int, paths: list, deadline: float) -> list:
    """Time ``reps`` set-up probes, each between two import yardsticks."""
    samples, after = [], speed.import_time()
    for _ in range(reps):
        before, start = after, time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), SRC, *paths],
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        wall = time.perf_counter() - start
        after = speed.import_time()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        sample.update(wall_s=wall, slowdown=(before + after) / (2.0 * speed.REF_IMPORT_S))
        samples.append(sample)
    return samples


def _reference_c0(path: str, dx: float | None) -> float:
    """c0 the accuracy check compares against.

    With ``dx`` None this is find_c0 at the config's own numerics, the c0
    that the simulated c_hat should approach. With ``dx`` set it is the
    root of F(c) = mu1 phi_c'(0) + mu2 psi_c'(0) - c on [0, c*/2], found by
    brentq on profiles solved at that spacing; it shares no bracketing or
    bisection code with find_c0. That bracket holds the symmetric set
    (c0 ~ 0.47, c* = 2), the only set referenced this way.
    """
    from frontwave import config, semiwave
    from scipy.optimize import brentq

    cfg = config.RunConfig.load(path)
    nl, params = config.build_nonlinearity(cfg), config.build_params(cfg)
    numerics = config.build_semiwave_numerics(cfg)
    if dx is None:
        return semiwave.find_c0(nl, params, numerics)[0].c0
    numerics = dataclasses.replace(numerics, dx=dx)
    c_star, _ = semiwave.compute_cstar(nl, params)

    def F(c):
        prof = semiwave.solve_semiwave(c, nl, params, numerics, cstar=c_star)
        return params.mu1 * prof.slope0_phi + params.mu2 * prof.slope0_psi - c

    return brentq(F, 0.0, 0.5 * c_star, xtol=1e-11)


def _measure(args, work: str, refs: dict, deadline: float) -> dict:
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--src", SRC, "--work", work,
           "--refs", json.dumps(refs), "--result", result_path]
    # its own session, so a timeout can stop the sweep's pool workers too
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"measure.py exited {code}")
    with open(result_path) as fh:
        return json.load(fh)


def _provenance(args, outputs: dict) -> dict:
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "frontwave"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "outputs": outputs,
    }


def _terminate(signum, frame):
    # unwinds through the finally blocks that stop the workload and clean up
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=(FULL, TINY), default=FULL)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "frontwave", "cli.py")):
        print(f"perfbench: no frontwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = _spec()
    workload = WORKLOADS[args.workload]

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        setup_dir = os.path.join(work, "setup")
        os.makedirs(setup_dir)
        configs = [op.argv[2] for op in workload.build(args.seed, 0, args.scale, setup_dir)]
        # half the probes before the workload and half after, so that one
        # slow spell of the machine cannot cover them all
        reps = SETUP_REPS[args.scale]
        probes = _setup_probes(reps // 2, configs, deadline)
        refs = {"c0": _reference_c0(configs[0], workload.ref_dx)}
        run = _measure(args, os.path.join(work, "measure"), refs,
                       deadline - AFTER_RESERVE_S)
        probes += _setup_probes(reps - reps // 2, configs, deadline)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass

    def ref_median(key):
        return statistics.median(p[key] / p["slowdown"] for p in probes)

    accuracy = run["accuracy"]
    if args.trace:
        values = dict(run["layers"])
        values.update({
            "cli.import_s": ref_median("import_s"),
            "config.load_s": ref_median("load_s"),
            "analysis.profile_err": accuracy.get("profile_err", 0.0),
            "io.bytes": sum(f["bytes"] for f in run["outputs"].values()),
            "trace.wall_s": run["wall_s"],
        })
        declared = spec["per_layer"]
    else:
        rss_kb = run["rss_self_kb"] + workload.workers * run["rss_child_kb"]
        values = {
            "wall_s": run["wall_s"],
            "setup_s": ref_median("wall_s"),
            "peak_rss_mb": rss_kb / 1024.0,
            # no estimate at all counts as a 100% error
            "c_rel_err": accuracy.get("c_rel_err", 1.0),
        }
        declared = spec["end_to_end"]

    detail = {
        "provenance": _provenance(args, run["outputs"]),
        "fail_frac": run["failed"] / run["attempted"],
        "failures": run["reasons"],
        "accuracy": accuracy,
        "pass_walls_s": run["walls"],
        "pass_slowdowns": run["slowdowns"],
        "setup_walls_s": [p["wall_s"] for p in probes],
        "setup_slowdowns": [p["slowdown"] for p in probes],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run["wrong"] == 0 and "c_rel_err" in accuracy,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
