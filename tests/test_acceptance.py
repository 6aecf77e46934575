"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to stream the lines. The
benchmark scenario is the symmetric pair H(z)=G(z)=2z/(1+z) with unit rates,
diffusivities and Stefan coefficients, whose closed forms are
R0=4, (u*,v*)=(1,1), l0 = pi (Dirichlet) / pi/2 (Neumann), c* = 2 and
tail rate beta(0) = sqrt(1/2) on the positive-eigenvector branch.
"""

import json
import math
import time

import numpy as np
import pytest

from frontwave import analysis, fbsolver, model, semiwave
from frontwave.cli import main as cli_main
from frontwave.fbsolver import SolverNumerics, StopRule, simulate
from frontwave.model import InitialData, ModelParams
from frontwave.semiwave import SemiwaveNumerics


def report(num, ok, text):
    marker = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {marker} — {text}")
    assert ok, f"criterion {num}: {text}"


SNAPS_FINE = tuple(np.arange(2.5, 60.1, 2.5))
SNAPS_COARSE = (15.0, 30.0, 45.0, 60.0)


@pytest.fixture(scope="session")
def run_neumann_h2(s1_nl, s1_neumann):
    """Canonical spreading run: Neumann, h0=2, N=400, T=60."""
    init = InitialData.cosine_bump(2.0, 0.5, 801)
    num = SolverNumerics(n=400, trace_cadence=0.1, snapshot_times=SNAPS_FINE)
    return simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=60.0))


@pytest.fixture(scope="session")
def run_neumann_h2_fine(s1_nl, s1_neumann):
    """Tightened run: N=800, T=120."""
    init = InitialData.cosine_bump(2.0, 0.5, 1601)
    num = SolverNumerics(n=800, trace_cadence=0.2)
    return simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=120.0))


@pytest.fixture(scope="session")
def run_dirichlet_h4(s1_nl, s1_dirichlet):
    init = InitialData.sine(4.0, 0.5, 801)
    num = SolverNumerics(n=400, trace_cadence=0.1, snapshot_times=SNAPS_COARSE)
    return simulate(s1_dirichlet, s1_nl, init, num, StopRule(t_end=60.0))


@pytest.fixture(scope="session")
def run_neumann_h4(s1_nl, s1_neumann):
    init = InitialData.cosine_bump(4.0, 0.5, 801)
    num = SolverNumerics(n=400, trace_cadence=0.1, snapshot_times=SNAPS_COARSE)
    return simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=60.0))


@pytest.fixture(scope="session")
def drift_runs(s1_nl, s1_neumann, s1_dirichlet):
    """Short fine-grid runs where the genuine drift transient dominates."""
    num = SolverNumerics(n=800, trace_cadence=0.05)
    neum = simulate(s1_neumann, s1_nl, InitialData.cosine_bump(2.0, 0.5, 1601),
                    num, StopRule(t_end=40.0))
    diri = simulate(s1_dirichlet, s1_nl, InitialData.sine(4.0, 0.5, 1601),
                    num, StopRule(t_end=40.0))
    return neum, diri


@pytest.fixture(scope="session")
def run_vanishing(s1_nl, s1_dirichlet):
    init = InitialData.sine(0.2, 0.01, 101)
    num = SolverNumerics(n=100, trace_cadence=0.01)
    return simulate(s1_dirichlet, s1_nl, init, num, StopRule(t_end=50.0))


def test_criterion_01_closed_forms(s1_nl, s1_neumann, s1_dirichlet):
    t0 = time.perf_counter()
    r0 = model.compute_R0(s1_nl, s1_neumann)
    eq = model.compute_equilibrium(s1_nl, s1_neumann)
    l0_d = model.compute_l0(s1_nl, s1_dirichlet)
    l0_n = model.compute_l0(s1_nl, s1_neumann)
    c_star, lam_star = semiwave.compute_cstar(s1_nl, s1_neumann)
    beta0, _ = semiwave.decay_rate_theoretical(s1_nl, s1_neumann, 0.0, eq)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(r0 - 4.0) <= 1e-12,
        abs(eq.u_star - 1.0) <= 1e-12 and abs(eq.v_star - 1.0) <= 1e-12,
        abs(l0_d - math.pi) <= 1e-12,
        abs(l0_n - math.pi / 2) <= 1e-12,
        abs(c_star - 2.0) <= 1e-6,
        # positive-eigenvector branch of (beta^2 - 1)^2 = 1/4: beta = sqrt(1/2)
        abs(beta0 - math.sqrt(0.5)) <= 1e-6 * math.sqrt(0.5),
        elapsed < 1.0,
    ]
    report(1, all(checks),
           f"R0={r0:.1f} eq=({eq.u_star:.3f},{eq.v_star:.3f}) l0=(pi, pi/2) "
           f"c*={c_star:.9f} beta0={beta0:.9f} in {elapsed * 1e3:.0f} ms")


def test_criterion_02_semiwave_quality(s1_nl, s1_neumann, s1_eq, s1_c0):
    t0 = time.perf_counter()
    pair, prof = s1_c0
    ok_res = prof.residual_inf <= 1e-8
    ok_mono = bool(np.all(np.diff(prof.phi) > 0) and np.all(np.diff(prof.psi) > 0))
    ok_root = pair.F_residual <= 1e-8 and 0.0 < pair.c0 < 2.0
    pair2, _ = semiwave.find_c0(s1_nl, s1_neumann, SemiwaveNumerics(x_max=80.0))
    ok_trunc = abs(pair2.c0 - pair.c0) < 1e-6
    elapsed = time.perf_counter() - t0
    report(2, ok_res and ok_mono and ok_root and ok_trunc and elapsed < 30.0,
           f"residual={prof.residual_inf:.2e} monotone={ok_mono} "
           f"|F(c0)|={pair.F_residual:.2e} c0={pair.c0:.9f} "
           f"x-doubling shift={abs(pair2.c0 - pair.c0):.2e} in {elapsed:.1f} s")


def test_criterion_03_spreading_speed(run_neumann_h2, run_neumann_h2_fine, s1_c0):
    c0 = s1_c0[0].c0
    fit = analysis.front_speed(run_neumann_h2)
    rel = abs(fit.c_hat - c0) / c0
    fit_fine = analysis.front_speed(run_neumann_h2_fine)
    rel_fine = abs(fit_fine.c_hat - c0) / c0
    report(3, rel <= 0.05 and rel_fine <= 0.02,
           f"N=400,T=60: |c_hat-c0|/c0={rel:.4%}; N=800,T=120: {rel_fine:.4%}")


def test_criterion_04_sharp_drift(drift_runs, s1_c0):
    c0 = s1_c0[0].c0
    results = []
    for name, trace in zip(("neumann", "dirichlet"), drift_runs):
        drift = analysis.front_drift(trace, c0)
        results.append((name, drift))
    ok = all(d.converged for _, d in results)
    detail = "; ".join(f"{n}: {d.drift_variation:.2e} vs {d.prev_variation:.2e}"
                       for n, d in results)
    report(4, ok, f"trailing-quarter variation at most half the previous ({detail})")


def _error_series(trace, profile, c0, dirichlet):
    series = {}
    for snap in trace.snapshots:
        x_lo = 0.5 * c0 * snap.t if dirichlet else 0.0
        series[snap.t] = analysis.profile_error(snap, profile, (x_lo, snap.h))
    return series


def test_criterion_05_profile_convergence(run_neumann_h2, run_dirichlet_h4, s1_c0):
    pair, prof = s1_c0
    e_n = _error_series(run_neumann_h2, prof, pair.c0, dirichlet=False)
    e_d = _error_series(run_dirichlet_h4, prof, pair.c0, dirichlet=True)
    ok = (e_n[60.0] <= 5e-2 and e_n[60.0] < e_n[30.0]
          and e_d[60.0] <= 5e-2 and e_d[60.0] < e_d[30.0])
    report(5, ok,
           f"neumann [0,h]: e(60)={e_n[60.0]:.2e} < e(30)={e_n[30.0]:.2e}; "
           f"dirichlet [c0 t/2, h]: e(60)={e_d[60.0]:.2e} < e(30)={e_d[30.0]:.2e}")


def test_criterion_06_operator_equivalence(run_dirichlet_h4, run_neumann_h4, s1_c0):
    pair, prof = s1_c0
    fit_d = analysis.front_speed(run_dirichlet_h4)
    fit_n = analysis.front_speed(run_neumann_h4)
    gap = abs(fit_d.c_hat - fit_n.c_hat)
    budget = fit_d.stderr + fit_n.stderr
    e_d = _error_series(run_dirichlet_h4, prof, pair.c0, dirichlet=True)
    e_n = _error_series(run_neumann_h4, prof, pair.c0, dirichlet=False)
    decreasing = (e_d[60.0] < e_d[30.0] < e_d[15.0]
                  and e_n[60.0] < e_n[30.0] < e_n[15.0])
    report(6, gap <= budget and decreasing,
           f"|c_D - c_N|={gap:.2e} <= combined stderr {budget:.2e}; "
           f"both error series decrease={decreasing}")


def test_criterion_07_dichotomy_and_sharp_criterion(run_vanishing, s1_nl, s1_dirichlet,
                                                    s1_eq, tmp_path):
    l0_d = model.compute_l0(s1_nl, s1_dirichlet)
    sup_final = run_vanishing.sup_u[-1] + run_vanishing.sup_v[-1]
    label = analysis.classify(run_vanishing, l0_d, s1_eq)
    ok_vanish = (label is analysis.Classification.VANISHING
                 and sup_final < 1e-4 and run_vanishing.h[-1] < l0_d)

    l0_n = math.pi / 2
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "model.boundary = neumann\n"
        "init.shape = cosine-bump\n"
        "init.amplitude = 0.5\n"
        "init.nodes = 401\n"
        "numerics.n = 200\n"
        "stop.t_end = 25.0\n"
        "output.cadence = 0.1\n"
        "output.snapshots = 25\n"
        "sweep.h0 = 1.0,1.4,1.6,2.2,3.0\n"
    )
    out = tmp_path / "sweep_out"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    lines = (out / "outcomes.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    above = {float(r["h0"]): r["classification"] for r in rows if float(r["h0"]) >= l0_n}
    ok_sweep = above and all(v == "Spreading" for v in above.values())
    report(7, ok_vanish and ok_sweep,
           f"vanishing: sup={sup_final:.1e}, h={run_vanishing.h[-1]:.3f} < l0={l0_d:.3f}; "
           f"sweep cells h0>=l0 all Spreading: {above}")


def test_criterion_08_interior_convergence(run_neumann_h2, s1_nl, s1_neumann, s1_eq, s1_c0):
    c0 = s1_c0[0].c0
    fit = analysis.interior_convergence_fit(run_neumann_h2.snapshots, s1_eq,
                                            0.25 * c0, 0.5 * c0)
    env = analysis.upper_envelope_params(s1_eq, s1_nl, s1_neumann, 0.5, 0.5)
    bound_u = s1_eq.u_star + env.M * np.exp(-env.delta * run_neumann_h2.t) + 1e-3
    bound_v = s1_eq.v_star + env.M * np.exp(-env.delta * run_neumann_h2.t) + 1e-3
    excess = max(float(np.max(run_neumann_h2.sup_u - bound_u)),
                 float(np.max(run_neumann_h2.sup_v - bound_v)))
    ok = fit.delta_hat > 0 and fit.r_squared >= 0.9 and excess <= 0.0
    report(8, ok,
           f"rays [c0 t/4, c0 t/2]: delta_hat={fit.delta_hat:.4f} R2={fit.r_squared:.4f}; "
           f"envelope excess={excess:.2e} (tolerance folded into bound)")


def test_criterion_09_decay_rate_agreement(s1_nl, s1_neumann, s1_eq, s1_c0):
    pair, prof_c0 = s1_c0
    prof_0 = semiwave.solve_semiwave(0.0, s1_nl, s1_neumann, eq=s1_eq, cstar=pair.c_star)
    rels = {}
    for label, prof, c in (("c=0", prof_0, 0.0), ("c=c0", prof_c0, pair.c0)):
        beta, _ = semiwave.decay_rate_theoretical(s1_nl, s1_neumann, c, s1_eq)
        fit = semiwave.decay_rate_empirical(prof, s1_eq)
        rels[label] = abs(fit.alpha - beta) / beta
    ok = all(r <= 0.05 for r in rels.values())
    report(9, ok, "empirical vs characteristic tail rate: "
           + ", ".join(f"{k}: {v:.3%}" for k, v in rels.items()))


def test_criterion_10_numerics_hygiene(s1_nl, s1_neumann, tmp_path):
    # comparison ordering on nested data, shared grid (mu = 0)
    p0 = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, "dirichlet")
    num = SolverNumerics(n=200, trace_cadence=0.2, snapshot_times=(1.0, 2.0, 4.0))
    stop = StopRule(t_end=4.0)
    lo = simulate(p0, s1_nl, InitialData.sine(2.0, 0.3, 401), num, stop)
    hi = simulate(p0, s1_nl, InitialData.sine(2.0, 0.5, 401), num, stop)
    viol = max(max(float(np.max(a.u - b.u)), float(np.max(a.v - b.v)))
               for a, b in zip(lo.snapshots, hi.snapshots))
    p1 = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "dirichlet")
    lo1 = simulate(p1, s1_nl, InitialData.sine(2.0, 0.3, 401), num, StopRule(t_end=4.0))
    hi1 = simulate(p1, s1_nl, InitialData.sine(2.0, 0.5, 401), num, StopRule(t_end=4.0))
    front_viol = float(np.max(lo1.h - hi1.h))
    ok_cmp = viol <= 1e-8 and front_viol <= 1e-8

    # second-order front convergence under grid refinement (common fixed dt)
    h_end = {}
    init = InitialData.cosine_bump(2.0, 0.5, 1601)
    for n in (100, 200, 400):
        numr = SolverNumerics(n=n, fixed_dt=5e-4, trace_cadence=0.5)
        h_end[n] = simulate(s1_neumann, s1_nl, init, numr, StopRule(t_end=5.0)).h[-1]
    order = math.log2(abs(h_end[100] - h_end[200]) / abs(h_end[200] - h_end[400]))
    ok_order = 1.5 <= order <= 2.5

    # sweep output independent of worker count
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "model.boundary = neumann\ninit.shape = cosine-bump\ninit.amplitude = 0.5\n"
        "init.h0 = 2.0\ninit.nodes = 201\nnumerics.n = 60\nstop.t_end = 2.0\n"
        "output.cadence = 0.02\nsweep.h0 = 1.5,2.0,2.5\n"
    )
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
        outs.append((out / "outcomes.csv").read_bytes())
    ok_sweep = outs[0] == outs[1]

    report(10, ok_cmp and ok_order and ok_sweep,
           f"ordering violation={viol:.1e}/{front_viol:.1e} <= 1e-8; "
           f"Richardson order={order:.3f}; worker-invariant={ok_sweep}")


def test_criterion_11_front_comparison_systems(s1_c0, s1_nl, s1_neumann, s1_eq):
    _, prof = s1_c0
    upper = analysis.supersolution_feasibility(prof, s1_neumann, s1_nl, s1_eq)
    lower = analysis.lowersolution_feasibility(prof, s1_neumann, s1_nl, s1_eq)
    ok = (all(s > 0 for s in upper.slacks.values())
          and all(s > 0 for s in lower.slacks.values()))
    report(11, ok,
           f"supersolution slacks min={min(upper.slacks.values()):.3g}, "
           f"lower-solution slacks min={min(lower.slacks.values()):.3g}")
