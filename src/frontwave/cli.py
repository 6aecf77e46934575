"""Config-driven command line: speeds, semiwave, simulate, sweep, check.

Exit codes: 0 success, 2 model-regime or configuration error, 3 solver
failure, 4 I/O failure. All numeric output uses 17 significant digits;
nothing in the package draws random numbers, so runs are bit-reproducible
and every manifest records ``"seedless": true``. ``--workers`` is a sweep flag.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import asdict

from . import analysis, fbsolver, model, semiwave
from .config import (
    ConfigError,
    RunConfig,
    build_initial_data,
    build_nonlinearity,
    build_params,
    build_semiwave_numerics,
    build_solver_numerics,
    build_stop,
    sweep_cells,
)
from .errors import FrontwaveError, ModelRegimeError, SolverError
from ._format import fmt, json_dumps, write_csv

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _outdir(cfg: RunConfig, args) -> str:
    path = args.out or cfg.get("output.dir") or "."
    os.makedirs(path, exist_ok=True)
    probe = os.path.join(path, ".write-probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)
    return path


def _file_entry(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name), "rb") as fh:
        blob = fh.read()
    return {"name": name, "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}


def _write_manifest(outdir: str, names: list, failed: bool) -> None:
    manifest = {
        "failed": failed,
        "seedless": True,
        "files": [_file_entry(outdir, n) for n in names],
    }
    _write_text(outdir, "manifest.json", json_dumps(manifest))


def _write_text(outdir: str, name: str, text: str) -> None:
    with open(os.path.join(outdir, name), "w", newline="\n") as fh:
        fh.write(text)


def _search(pair: semiwave.SpeedPair) -> dict:
    """The work of a c0 search, as speeds.json and report.json carry it."""
    return {"profile_solves": pair.profile_solves, "newton_steps": pair.newton_steps,
            "cold_solves": pair.cold_solves, "iterates": pair.iterates}


def cmd_speeds(cfg: RunConfig, outdir: str, args) -> list:
    nl = build_nonlinearity(cfg)
    params = build_params(cfg)
    num = build_semiwave_numerics(cfg)
    r0 = model.compute_R0(nl, params)
    eq = model.compute_equilibrium(nl, params)  # NoPositiveRoot when R0 <= 1
    l0 = model.compute_l0(nl, params)
    pair, _profile = semiwave.find_c0(nl, params, num, eq)
    beta0, _ = semiwave.decay_rate_theoretical(nl, params, 0.0, eq)
    beta_c0, _ = semiwave.decay_rate_theoretical(nl, params, pair.c0, eq)
    text = json_dumps({
        "R0": r0,
        "u_star": eq.u_star,
        "v_star": eq.v_star,
        "l0": l0,
        "c_star": pair.c_star,
        "lambda_star": pair.lambda_star,
        "c0": pair.c0,
        "F_residual": pair.F_residual,
        "beta": beta_c0,
        "beta0": beta0,
        **_search(pair),
    })
    _write_text(outdir, "speeds.json", text)
    sys.stdout.write(text)
    return ["speeds.json"]


def cmd_semiwave(cfg: RunConfig, outdir: str, args) -> list:
    nl = build_nonlinearity(cfg)
    params = build_params(cfg)
    num = build_semiwave_numerics(cfg)
    c = cfg.getfloat("semiwave.c")
    if c is None:
        pair, profile = semiwave.find_c0(nl, params, num)
        c = pair.c0
    else:
        profile = semiwave.solve_semiwave(c, nl, params, num)
    profile.to_csv(os.path.join(outdir, "profile.csv"))
    _write_text(outdir, "semiwave.json", json_dumps({
        "c": c,
        "slope0_phi": profile.slope0_phi,
        "slope0_psi": profile.slope0_psi,
        "residual_inf": profile.residual_inf,
        "x_max": profile.x_max,
    }))
    return ["profile.csv", "semiwave.json"]


def _outcome(cfg: RunConfig, with_c0: bool) -> tuple:
    """Simulate one config and classify it: (params, trace, report).

    ``with_c0`` adds the free-boundary speed c0 and its profile, from which
    the report gains the drift, profile-error and interior-fit estimates,
    and the work of the c0 search (``c0_search``).
    """
    nl = build_nonlinearity(cfg)
    params = build_params(cfg)
    init = build_initial_data(cfg)
    numerics = build_solver_numerics(cfg)
    stop = build_stop(cfg)
    sw_numerics = build_semiwave_numerics(cfg)
    eq, l0 = None, math.inf  # below the spreading regime the front goal is unreachable
    if model.compute_R0(nl, params) > 1.0:
        eq = model.compute_equilibrium(nl, params)
        l0 = model.compute_l0(nl, params)
    trace = fbsolver.simulate(params, nl, init, numerics, stop)
    c0 = profile = search = None
    if with_c0 and eq is not None and params.mu1 + params.mu2 > 0.0:
        pair, profile = semiwave.find_c0(nl, params, sw_numerics, eq)
        c0 = pair.c0
        search = _search(pair)
    report = analysis.build_outcome_report(trace, l0, params.boundary, c0=c0, profile=profile,
                                           eq=eq, c0_search=search)
    return params, trace, report


def cmd_simulate(cfg: RunConfig, outdir: str, args) -> list:
    _, trace, report = _outcome(cfg, with_c0=True)
    trace.to_csv(os.path.join(outdir, "trace.csv"))
    trace.snapshots_to_csv(os.path.join(outdir, "snapshots.csv"))
    text = report.to_json()
    _write_text(outdir, "report.json", text)
    sys.stdout.write(text)
    return ["trace.csv", "snapshots.csv", "report.json"]


_SWEEP_HEADER = ("index", "h0", "amplitude", "mu1", "mu2",
                 "classification", "c_hat", "c_hat_stderr", "h_final", "sup_final", "status")


def _sweep_cell(payload) -> tuple:
    index, entries, mapping = payload
    cfg = RunConfig(entries=entries).override(mapping)
    try:
        params, trace, report = _outcome(cfg, with_c0=False)
    except (FrontwaveError, ValueError) as exc:  # per-cell failures recorded; the sweep continues
        return (fmt(index), cfg.get("init.h0", ""), cfg.get("init.amplitude", ""),
                cfg.get("model.mu1", ""), cfg.get("model.mu2", ""),
                "", "", "", "", "", f"{type(exc).__name__}: {exc}")
    c_hat = "" if report.c_hat is None else fmt(report.c_hat)
    stderr = "" if report.c_hat_stderr is None else fmt(report.c_hat_stderr)
    return (fmt(index), fmt(trace.h0), cfg.get("init.amplitude", "0.5"),
            fmt(params.mu1), fmt(params.mu2), report.classification.value, c_hat, stderr,
            fmt(trace.h[-1]), fmt(trace.sup_u[-1] + trace.sup_v[-1]), "ok")


def cmd_sweep(cfg: RunConfig, outdir: str, args) -> list:
    # the axes never touch numerics or stop: reject bad ones before fanning out
    build_solver_numerics(cfg)
    build_semiwave_numerics(cfg)
    build_stop(cfg)
    payloads = [(i, cfg.entries, mapping) for i, mapping in enumerate(sweep_cells(cfg))]
    workers = max(1, args.workers)
    if workers == 1:
        rows = [_sweep_cell(p) for p in payloads]
    else:
        # multiprocessing is loaded only here, off every other command's import path
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, payloads))  # input order, not completion order
    write_csv(os.path.join(outdir, "outcomes.csv"), _SWEEP_HEADER, rows)
    return ["outcomes.csv"]


def cmd_check(cfg: RunConfig) -> int:
    """Build what the commands build, then check the hypotheses and initial data."""
    nl = build_nonlinearity(cfg)
    params = build_params(cfg)
    build_solver_numerics(cfg)
    build_semiwave_numerics(cfg)
    build_stop(cfg)
    hypotheses = model.check_hypotheses(nl, params)
    init = None
    if cfg.get("init.h0") or cfg.get("init.table"):
        init = model.validate_initial_data(build_initial_data(cfg), params)
    sys.stdout.write(json_dumps({"hypotheses": asdict(hypotheses),
                                 "initial_data": None if init is None else asdict(init)}))
    return EXIT_OK if hypotheses.passed and (init is None or init.passed) else EXIT_MODEL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frontwave",
                                     description="free-boundary spreading-front laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("speeds", cmd_speeds, "closed-form and semi-wave speed summary"),
        ("semiwave", cmd_semiwave, "export a semi-wave profile CSV"),
        ("simulate", cmd_simulate, "run the free-boundary solver and report"),
        ("sweep", cmd_sweep, "parallel parameter sweep, one CSV row per cell"),
        ("check", cmd_check, "hypothesis and initial-data validation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if func is cmd_sweep:
            p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.set_defaults(func=func)
    return parser


def _run(args) -> int:
    """Load the config; every command but check writes its files and a manifest.

    A solver failure leaves a FAILED marker and a failed manifest instead.
    """
    cfg = RunConfig.load(args.config)
    if args.func is cmd_check:
        return cmd_check(cfg)
    outdir = _outdir(cfg, args)
    try:
        names = args.func(cfg, outdir, args)
    except SolverError as exc:
        _write_text(outdir, "FAILED", f"{type(exc).__name__}: {exc}\n")
        _write_manifest(outdir, ["FAILED"], failed=True)
        raise
    _write_manifest(outdir, names, failed=False)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ModelRegimeError, ConfigError, ValueError) as exc:
        sys.stderr.write(f"frontwave: {type(exc).__name__}: {exc}\n")
        return EXIT_MODEL
    except SolverError as exc:
        sys.stderr.write(f"frontwave: solver failure: {exc}\n")
        return EXIT_SOLVER
    except OSError as exc:
        sys.stderr.write(f"frontwave: i/o failure: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
