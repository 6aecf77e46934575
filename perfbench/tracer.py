"""Spans around the public calls into each frontwave layer.

``install`` replaces each traced function at the name its caller looks it
up by (a module attribute, or a global the caller imported by name) with a
wrapper that records a span: name, id, parent id, pid, pass index, start
and end, plus a few fields read off the arguments and the result. Spans
stay in memory and are collected when the run ends. Sweep workers are
forked from the traced process, so they inherit the wrappers; they exit
without running atexit, so a worker appends each span to a file as the
span closes.

Spans are timed with the sampler's clock, which leaves out the speed
samples (perfbench/speed.py). ``layer_metrics`` turns the spans into the
per-layer metrics, with seconds scaled to reference seconds.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import statistics


class Tracer:
    def __init__(self, spill_dir: str, clock):
        self.spill_dir = spill_dir
        self.clock = clock
        self.pid = os.getpid()
        self.pass_index = 0
        self._spans: list = []
        self._stack: list = []
        self._count = 0

    def wrap(self, name: str, fn, fields=None):
        """``fields(args, kwargs, result) -> dict`` adds facts to a span that closed normally."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            span = {"name": name, "id": f"{os.getpid()}:{self._count}",
                    "parent": self._stack[-1] if self._stack else None,
                    "pid": os.getpid(), "pass": self.pass_index}
            self._stack.append(span["id"])
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            else:
                if fields is not None:
                    span.update(fields(args, kwargs, result))
                return result
            finally:
                span["end"] = self.clock()
                self._stack.pop()
                self._close(span)

        return traced

    def _close(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self._spans.append(span)
            return
        path = os.path.join(self.spill_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect(self) -> list:
        spans = list(self._spans)
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def _command(args, kwargs, result) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


def _solve(args, kwargs, result) -> dict:
    # find_c0 passes the previous profile as the 7th positional argument;
    # solve_semiwave keeps it only on the same grid (size and x_max)
    guess = args[6] if len(args) > 6 else kwargs.get("initial_guess")
    same_grid = (guess is not None and guess.x_nodes.size == result.x_nodes.size
                 and abs(guess.x_max - result.x_max) < 1e-12)
    return {"offered": guess is not None, "same_grid": bool(same_grid)}


def _simulate(args, kwargs, result) -> dict:
    return {"model_t": float(result.t[-1]), "rows": int(result.t.size),
            "snapshots": len(result.snapshots)}


# (span name, module, attribute, fields): the attribute is the name the
# caller resolves at call time
TARGETS = (
    ("cli.main", "frontwave.cli", "main", _command),
    ("cli.cell", "frontwave.cli", "_sweep_cell", None),
    ("model.equilibrium", "frontwave.model", "compute_equilibrium", None),
    ("model.equilibrium", "frontwave.semiwave", "compute_equilibrium", None),
    ("model.hypotheses", "frontwave.model", "check_hypotheses", None),
    ("model.validate", "frontwave.model", "validate_initial_data", None),
    ("model.validate", "frontwave.fbsolver", "validate_initial_data", None),
    ("semiwave.find_c0", "frontwave.semiwave", "find_c0", None),
    ("semiwave.cstar", "frontwave.semiwave", "compute_cstar", None),
    ("semiwave.solve", "frontwave.semiwave", "solve_semiwave", _solve),
    ("fbsolver.simulate", "frontwave.fbsolver", "simulate", _simulate),
    ("analysis.report", "frontwave.analysis", "build_outcome_report", None),
    ("analysis.classify", "frontwave.analysis", "classify", None),
    ("analysis.profile_error", "frontwave.analysis", "profile_error", None),
    ("io.csv", "frontwave.cli", "write_csv", None),
    ("io.csv", "frontwave.fbsolver", "write_csv", None),
    ("io.csv", "frontwave.semiwave", "write_csv", None),
    ("io.json", "frontwave.cli", "json_dumps", None),
    ("io.json", "frontwave.analysis", "json_dumps", None),
    ("io.manifest", "frontwave.cli", "_write_manifest", None),
)


def install(tracer: Tracer) -> None:
    for name, module_name, attr, fields in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), fields))


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list, passes: int, workers: int, scale: float) -> dict:
    """Per-layer metrics from the spans of ``passes`` passes.

    Seconds are per pass (the median over passes of the time inside the
    layer) times ``scale``, the run's reference seconds per wall second,
    so they compare with wall_s; counts come from pass 0, whose inputs
    depend only on the seed. A layer the workload never enters reads 0.
    """
    by_id = {s["id"]: s for s in spans}

    def parent_name(s):
        parent = by_id.get(s["parent"])
        return parent["name"] if parent else ""

    def named(name, pass_index=None):
        return [s for s in spans if s["name"] == name
                and (pass_index is None or s["pass"] == pass_index)]

    def per_pass(select) -> float:
        totals = [0.0] * passes
        for s in spans:
            if select(s):
                totals[s["pass"]] += _dur(s)
        return statistics.median(totals) * scale

    def seconds(name):
        return per_pass(lambda s: s["name"] == name)

    # a solve span is an outer solve unless it is find_c0's cold fallback
    # nested inside a rejected warm start
    fallback_parents = {s["parent"] for s in named("semiwave.solve")
                        if parent_name(s) == "semiwave.solve"}

    def outer_solve(s):
        return s["name"] == "semiwave.solve" and parent_name(s) != "semiwave.solve"

    def warm_kept(s):
        return s.get("same_grid", False) and s["id"] not in fallback_parents

    solves0 = [s for s in named("semiwave.solve", 0) if outer_solve(s)]
    finds0 = len(named("semiwave.find_c0", 0))
    offered0 = sum(s.get("offered", False) for s in solves0)
    kept0 = sum(warm_kept(s) for s in solves0)

    idle = []
    for main in named("cli.main"):
        if main.get("command") == "sweep" and workers:
            busy = sum(_dur(c) for c in named("cli.cell", main["pass"]))
            idle.append(1.0 - busy / (workers * _dur(main)))

    simulate = named("fbsolver.simulate")
    model_t = sum(s.get("model_t", 0.0) for s in simulate)
    cells = [_dur(s) * scale for s in named("cli.cell")]
    return {
        "cli.cell_s": statistics.median(cells) if cells else 0.0,
        "cli.pool_idle_frac": statistics.median(idle) if idle else 0.0,
        "model.equilibrium_calls": len(named("model.equilibrium", 0)),
        "model.equilibrium_s": seconds("model.equilibrium"),
        "model.hypotheses_s": seconds("model.hypotheses"),
        "model.validate_s": seconds("model.validate"),
        "semiwave.find_c0_s": seconds("semiwave.find_c0"),
        "semiwave.cstar_s": seconds("semiwave.cstar"),
        "semiwave.profile_solves": len(solves0) / finds0 if finds0 else 0.0,
        "semiwave.cold_solves": (len(solves0) - kept0) / finds0 if finds0 else 0.0,
        "semiwave.warm_hit_ratio": kept0 / offered0 if offered0 else 0.0,
        "semiwave.cold_solve_s": per_pass(lambda s: outer_solve(s) and not warm_kept(s)),
        "semiwave.warm_solve_s": per_pass(lambda s: outer_solve(s) and warm_kept(s)),
        "fbsolver.simulate_s": seconds("fbsolver.simulate"),
        "fbsolver.s_per_model_t": (sum(map(_dur, simulate)) * scale / model_t
                                   if model_t else 0.0),
        "fbsolver.trace_rows": sum(s.get("rows", 0) for s in named("fbsolver.simulate", 0)),
        "fbsolver.snapshots": sum(s.get("snapshots", 0)
                                  for s in named("fbsolver.simulate", 0)),
        "analysis.report_s": seconds("analysis.report"),
        "analysis.classify_s": seconds("analysis.classify"),
        "analysis.profile_errors": len(named("analysis.profile_error", 0)),
        "io.write_s": per_pass(lambda s: s["name"].startswith("io.")
                               and not parent_name(s).startswith("io.")),
    }
