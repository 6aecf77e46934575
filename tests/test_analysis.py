import json
import math

import numpy as np
import pytest

from frontwave.analysis import (
    Classification,
    build_outcome_report,
    classify,
    front_drift,
    front_speed,
    interior_convergence_fit,
    lowersolution_feasibility,
    profile_error,
    supersolution_feasibility,
    supersolution_slacks,
    upper_envelope_params,
)
from frontwave.errors import (
    EmptyRayWindow,
    Infeasible,
    InfeasibleBracket,
    WindowOutsideDomain,
    WindowTooShort,
)
from frontwave.fbsolver import RunTrace, Snapshot, SolverNumerics, StopRule, simulate
from frontwave.model import (
    BoundaryKind,
    Equilibrium,
    InitialData,
    ModelParams,
    Nonlinearity,
    compute_l0,
)


def mk_trace(t, h, sup, snapshots=(), h0=None, stop_reason="t_end"):
    t = np.asarray(t, float)
    h = np.asarray(h, float)
    sup = np.asarray(sup, float)
    return RunTrace(t=t, h=h, hprime=np.gradient(h, t), sup_u=sup / 2, sup_v=sup / 2,
                    mass=h * sup, snapshots=list(snapshots), stop_reason=stop_reason,
                    h0=float(h0 if h0 is not None else h[0]))


def neumann_thresholds():
    """(l0, eq) of a Neumann set with unit equilibrium."""
    return math.pi / 2, Equilibrium(u_star=1.0, v_star=1.0, Hp_vstar=1.0, Gp_ustar=1.0)


def spreading_trace(n=601, t_end=60.0):
    t = np.linspace(0.0, t_end, n)
    h = 2.0 + 0.5 * t
    sup = 2.0 - np.exp(-t)
    x = np.linspace(0.0, h[-1], 201)
    u = np.where(x < 0.9 * h[-1], 0.99, 0.0)
    snap = Snapshot(t=t[-1], h=h[-1], x=x, u=u, v=u.copy())
    return mk_trace(t, h, sup, snapshots=[snap])


def vanishing_trace(n=401, t_end=20.0):
    t = np.linspace(0.0, t_end, n)
    sup = 0.02 * np.exp(-2.0 * t)
    h = np.full_like(t, 0.5)
    # a simulate run of this decay would have stopped on its vanishing rule
    return mk_trace(t, h, sup, stop_reason="vanishing")


class TestClassify:
    def test_spreading(self):
        assert classify(spreading_trace(), *neumann_thresholds()) is Classification.SPREADING

    def test_vanishing(self):
        assert classify(vanishing_trace(), *neumann_thresholds()) is Classification.VANISHING

    def test_undecided(self):
        t = np.linspace(0.0, 20.0, 201)
        trace = mk_trace(t, 2.0 + 0.1 * t, np.full_like(t, 0.5))
        assert classify(trace, *neumann_thresholds()) is Classification.UNDECIDED

    def test_short_trace_precondition(self):
        # too short to show either outcome: Undecided, whatever the sample count
        t = np.linspace(0.0, 5.0, 10)
        label = classify(mk_trace(t, 2 + t, 1 + 0 * t), *neumann_thresholds())
        assert label is Classification.UNDECIDED

    @pytest.mark.parametrize("factory", [spreading_trace, vanishing_trace])
    def test_stable_under_subsampling(self, factory):
        trace = factory()
        sub = RunTrace(t=trace.t[::2], h=trace.h[::2], hprime=trace.hprime[::2],
                       sup_u=trace.sup_u[::2], sup_v=trace.sup_v[::2],
                       mass=trace.mass[::2], snapshots=trace.snapshots,
                       stop_reason=trace.stop_reason, h0=trace.h0)
        th = neumann_thresholds()
        assert classify(sub, *th) is classify(trace, *th)


class TestFrontSpeed:
    def test_exact_line(self):
        t = np.linspace(0.0, 30.0, 301)
        fit = front_speed(mk_trace(t, 2.0 * t + 3.0, np.ones_like(t)))
        assert fit.c_hat == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr <= 1e-12

    def test_decaying_transient(self):
        c0 = 0.7
        t = np.linspace(0.0, 20.0, 401)
        fit = front_speed(mk_trace(t, c0 * t + 1.0 - np.exp(-t), np.ones_like(t)))
        assert abs(fit.c_hat - c0) <= 1e-3

    def test_window_too_short(self):
        t = np.linspace(0.0, 1.0, 12)
        with pytest.raises(WindowTooShort):
            front_speed(mk_trace(t, t, np.ones_like(t)))


class TestFrontDrift:
    def test_converging_drift(self):
        c0 = 0.7
        t = np.linspace(0.0, 20.0, 801)
        drift = front_drift(mk_trace(t, c0 * t + 5.0 + 0.1 * np.exp(-t), np.ones_like(t)), c0)
        assert drift.h_star_hat == pytest.approx(5.0, abs=1e-3)
        assert drift.converged

    def test_linear_residual_not_converged(self):
        c0 = 0.7
        t = np.linspace(0.0, 20.0, 801)
        drift = front_drift(mk_trace(t, (c0 + 0.1) * t, np.ones_like(t)), c0)
        assert not drift.converged


class TestProfileError:
    def test_manufactured_snapshot_is_exact(self, s1_c0):
        _, prof = s1_c0
        h = 20.0
        x = (h - prof.x_nodes[::-1])[prof.x_nodes[::-1] <= h]
        u = np.interp(h - x, prof.x_nodes, prof.phi)
        v = np.interp(h - x, prof.x_nodes, prof.psi)
        snap = Snapshot(t=30.0, h=h, x=x, u=u, v=v)
        assert profile_error(snap, prof, (0.0, h)) <= 1e-6

    def test_window_outside_domain(self, s1_c0):
        _, prof = s1_c0
        snap = Snapshot(t=1.0, h=2.0, x=np.linspace(0, 2, 21),
                        u=np.zeros(21), v=np.zeros(21))
        with pytest.raises(WindowOutsideDomain):
            profile_error(snap, prof, (0.0, 3.0))
        with pytest.raises(WindowOutsideDomain):
            profile_error(snap, prof, (1.5, 0.5))


class TestInteriorFit:
    @staticmethod
    def synthetic_snaps(rate=0.2, amp=0.3, t_end=40.0):
        snaps = []
        for t in np.arange(5.0, t_end + 1e-9, 2.5):
            h = 2.0 + 0.5 * t
            x = np.linspace(0.0, h, 301)
            u = np.full_like(x, 1.0 - amp * math.exp(-rate * t))
            snaps.append(Snapshot(t=t, h=h, x=x, u=u, v=u.copy()))
        return snaps

    def test_recovers_rate_and_amplitude(self):
        eq = Equilibrium(1.0, 1.0, 0.5, 0.5)
        fit = interior_convergence_fit(self.synthetic_snaps(), eq, 0.1, 0.3)
        assert fit.delta_hat == pytest.approx(0.2, abs=1e-3)
        assert fit.M_hat == pytest.approx(0.3, abs=1e-3)
        assert fit.r_squared >= 0.999

    def test_outrun_front_raises(self):
        eq = Equilibrium(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(EmptyRayWindow):
            interior_convergence_fit(self.synthetic_snaps(), eq, 0.3, 0.62)


class TestEnvelope:
    def test_benchmark_rate(self, s1_eq, s1_nl, s1_neumann):
        # ratio bracket (1/2, 2), geometric mean 1, both margins equal 1/2
        env = upper_envelope_params(s1_eq, s1_nl, s1_neumann, 0.5, 0.5)
        assert env.M1 == pytest.approx(env.M2, rel=1e-12)
        assert env.delta == pytest.approx(0.5, abs=1e-12)

    def test_covers_large_initial_data(self, s1_eq, s1_nl, s1_neumann):
        env = upper_envelope_params(s1_eq, s1_nl, s1_neumann, 2.0, 0.5)
        assert s1_eq.u_star + env.M1 >= 2.0
        assert env.delta > 0.0

    def test_below_equilibrium_needs_only_floor(self, s1_eq, s1_nl, s1_neumann):
        env = upper_envelope_params(s1_eq, s1_nl, s1_neumann, 0.5, 0.5)
        assert env.M < 1e-4

    def test_empty_bracket_raises(self, s1_nl, s1_neumann):
        broken = Equilibrium(u_star=1.0, v_star=1.0, Hp_vstar=2.0, Gp_ustar=2.0)
        with pytest.raises(InfeasibleBracket):
            upper_envelope_params(broken, s1_nl, s1_neumann, 0.5, 0.5)


class TestComparisonFunctionSystems:
    def test_supersolution_all_slacks_positive(self, s1_c0, s1_nl, s1_neumann, s1_eq):
        _, prof = s1_c0
        point = supersolution_feasibility(prof, s1_neumann, s1_nl, s1_eq)
        assert point.K == 1.0
        assert all(s > 0.0 for s in point.slacks.values())

    def test_doubling_k_loses_slack(self, s1_c0, s1_nl, s1_neumann, s1_eq):
        _, prof = s1_c0
        point = supersolution_feasibility(prof, s1_neumann, s1_nl, s1_eq)
        base = supersolution_slacks(prof, s1_neumann, s1_nl, s1_eq,
                                    1.0, point.sigma, point.delta)
        doubled = supersolution_slacks(prof, s1_neumann, s1_nl, s1_eq,
                                       2.0, point.sigma, point.delta)
        assert all(doubled[k] < base[k] for k in base)

    def test_linear_reaction_is_infeasible(self, s1_c0, s1_neumann, s1_eq):
        # hq = 0: H(z)/z is flat, so its ratio-slope bound is 0, not negative
        _, prof = s1_c0
        linear_h = Nonlinearity(hq=0.0)
        with pytest.raises(Infeasible):
            supersolution_feasibility(prof, s1_neumann, linear_h, s1_eq)
        with pytest.raises(Infeasible):
            lowersolution_feasibility(prof, s1_neumann, linear_h, s1_eq)

    def test_lowersolution_all_slacks_positive(self, s1_c0, s1_nl, s1_neumann, s1_eq):
        _, prof = s1_c0
        point = lowersolution_feasibility(prof, s1_neumann, s1_nl, s1_eq)
        assert 0.0 < point.sigma < prof.c
        assert point.epsilon > 0.0
        assert all(s > 0.0 for s in point.slacks.values())


class TestOutcomeReport:
    def test_spreading_report_fields(self, s1_nl, s1_neumann, s1_eq, s1_c0):
        pair, prof = s1_c0
        init = InitialData.cosine_bump(2.0, 0.5, 201)
        num = SolverNumerics(n=100, trace_cadence=0.1, snapshot_times=(10.0, 20.0))
        trace = simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=20.0))
        l0 = compute_l0(s1_nl, s1_neumann)
        report = build_outcome_report(trace, l0, s1_neumann.boundary, c0=pair.c0, profile=prof,
                                      eq=s1_eq)
        assert report.classification is Classification.SPREADING
        payload = json.loads(report.to_json())
        assert set(payload) == {"classification", "c_hat", "c_hat_stderr", "h_star_hat",
                                "drift_variation", "profile_sup_error", "interior_fit", "run",
                                "c0_search"}
        assert payload["c0_search"] is None  # the search's work comes from the CLI
        assert payload["classification"] == "Spreading"
        assert payload["c_hat"] > 0.0
        assert payload["c_hat_stderr"] == report.c_hat_stderr > 0.0
        assert len(payload["profile_sup_error"]) == 2

    def test_short_spreading_trace_leaves_fits_empty(self):
        # 6 samples in the trailing half: front_speed cannot fit, the report stays
        trace = spreading_trace(n=12)
        l0, eq = neumann_thresholds()
        report = build_outcome_report(trace, l0, BoundaryKind.NEUMANN, c0=0.5, eq=eq)
        assert report.classification is Classification.SPREADING
        assert report.c_hat is None and report.h_star_hat is None

    def test_vanishing_report_is_sparse(self):
        l0, eq = neumann_thresholds()
        report = build_outcome_report(vanishing_trace(), l0, BoundaryKind.NEUMANN, eq=eq)
        payload = json.loads(report.to_json())
        assert payload["classification"] == "Vanishing"
        assert payload["c_hat"] is None
