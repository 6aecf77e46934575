import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from frontwave import fbsolver
from frontwave._format import fmt, write_csv
from frontwave.errors import NegativeSpeed, NonFinite, StabilityViolation, StepSizeCollapse
from frontwave.fbsolver import SolverNumerics, StopRule, _flux, _Stepper, simulate
from frontwave.model import InitialData, ModelParams, Nonlinearity


def zero_pair():
    """H = G = 0, outside the family (hp, gp > 0): a stand-in for the stepper,
    which calls only H and G."""
    z = lambda v: 0.0 * np.asarray(v, dtype=float)
    return SimpleNamespace(H=z, G=z, dH=z, dG=z)


def euler(stepper, w, h, dt):
    """IMEX Euler: SBDF2 at omega = 0 with a zero history; returns the new
    (w, h, h', max(u + v)), h' being the front speed the step used."""
    rates = stepper.rates(w, h)
    zeros = np.zeros_like(w)
    w_new, h_new, sup = stepper.sbdf2(w, h, rates, (zeros, 0.0, (0.0, zeros)), dt, 0.0)
    return w_new, h_new, rates[0], sup


def flux(u, v, h, params):
    u, v = np.asarray(u, float), np.asarray(v, float)
    return _flux(u, v, h, 1.0 / (u.size - 1), params)


class TestStefanFlux:
    def test_zero_profile_zero_speed(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "dirichlet")
        assert flux(np.zeros(101), np.zeros(101), 2.0, p) == 0.0

    def test_exact_on_linear_data(self):
        # u(x) = h - x has u_x = -1 everywhere; mu1 = 1 gives h' = 1 exactly
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, "dirichlet")
        xi = np.linspace(0.0, 1.0, 101)
        h = 2.0
        assert flux(h * (1.0 - xi), np.zeros_like(xi), h, p) == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_zero_front_slope(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, "dirichlet")
        xi = np.linspace(0.0, 1.0, 101)
        h = 2.0
        assert abs(flux((h * (1.0 - xi)) ** 2, np.zeros_like(xi), h, p)) <= 1e-12

    def test_negative_speed_rejected(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, "dirichlet")
        xi = np.linspace(0.0, 1.0, 101)
        with pytest.raises(NegativeSpeed):
            flux(xi, np.zeros_like(xi), 1.0, p)  # increasing toward the front

    def test_matches_backward_stencil_bitwise(self):
        # the front slope is the reversed forward stencil: same bits as the
        # backward stencil (3a - 4b + c) / (2 dxi) written out directly
        rng = np.random.default_rng(7)
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 0.7, 1.3, "dirichlet")
        for _ in range(200):
            u = np.concatenate((rng.uniform(0.0, 2.0, 3), [0.0]))
            v = np.concatenate((rng.uniform(0.0, 2.0, 3), [0.0]))
            u[-2], v[-2] = u[-3] + 1.0, v[-3] + 1.0  # decreasing to the front: h' > 0
            h, dxi = rng.uniform(0.5, 5.0), 1.0 / 3.0
            du = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dxi)
            dv = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dxi)
            assert _flux(u, v, h, dxi, p) == -(p.mu1 * du + p.mu2 * dv) / h


class TestStep:
    def test_zero_data_is_fixed_point(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "dirichlet")
        stepper = _Stepper(p, Nonlinearity(), 100)
        (u, v), h, hp, sup = euler(stepper, np.zeros((2, 101)), 2.0, 1e-3)
        assert np.all(u == 0.0) and np.all(v == 0.0)
        assert h == 2.0 and hp == 0.0 and sup == 0.0

    def test_heat_kernel_decay_rate(self):
        # decoupled pure-diffusion check: frozen front, Dirichlet both ends,
        # fundamental mode decays at pi^2 d / h^2 (1e-12 stands in for zero
        # rates, which the parameter validation keeps strictly positive)
        p = ModelParams(1.0, 1.0, 1e-12, 1e-12, 0.0, 0.0, "dirichlet")
        init = InitialData.from_callables(1.0, lambda x: np.sin(np.pi * x),
                                          lambda x: np.sin(np.pi * x), 201)
        trace = simulate(p, zero_pair(), init, SolverNumerics(n=200, trace_cadence=0.05),
                         StopRule(t_end=1.0))
        rate = -(math.log(trace.sup_u[-1]) - math.log(trace.sup_u[0])) / (trace.t[-1] - trace.t[0])
        assert abs(rate - math.pi ** 2) / math.pi ** 2 <= 0.01
        assert trace.h[-1] == 1.0  # mu = 0 freezes the front

    def test_local_error_third_order(self):
        # frozen front, Dirichlet, the discrete sine mode: its exact decay gives
        # three accepted levels (unequal steps 0.8 k, 1.3 k) with no error of
        # their own, so the estimate after an SBDF2 step of k is O(k^3)
        p = ModelParams(1.0, 0.5, 1e-12, 1e-12, 0.0, 0.0, "dirichlet")
        n, h = 50, 1.0
        stepper = _Stepper(p, zero_pair(), n)
        rate = (-4.0 * np.array([[p.d1], [p.d2]]) * (n * math.sin(0.5 * math.pi / n) / h) ** 2
                - np.array([[p.a], [p.b]]))
        mode = np.sin(math.pi * stepper.xi)
        mode[-1] = 0.0
        err = []
        for k in (0.02, 0.01, 0.005):
            k0, k1 = 0.8 * k, 1.3 * k
            w0, w1, w2 = (np.exp(rate * t) * mode for t in (0.0, k0, k0 + k1))
            hist = (w2 - w1, 0.0, stepper.rates(w1, h))
            new = stepper.sbdf2(w2, h, stepper.rates(w2, h), hist, k, k / k1)
            err.append(stepper.local_error(new, w2, h, hist, (w1 - w0, 0.0, k0), k, k / k1, 1e-2))
        for coarse, fine in zip(err, err[1:]):
            assert 2.6 <= math.log2(coarse / fine) <= 3.4

    @pytest.mark.parametrize("field", [0, 1])
    @pytest.mark.parametrize("value, error", [
        (math.nan, NonFinite),
        (math.inf, NonFinite),
        (-10.0, StabilityViolation),
    ])
    def test_guards(self, s1_nl, s1_neumann, field, value, error):
        stepper = _Stepper(s1_neumann, s1_nl, 100)
        state = np.stack([np.cos(0.5 * np.pi * stepper.xi), np.cos(0.5 * np.pi * stepper.xi)])
        state[field][50] = value  # interior node, away from the front stencil
        with np.errstate(all="ignore"), pytest.raises(error):
            euler(stepper, state, 2.0, 1e-3)


def reference_advance(params, nl, n, u, v, h, dt):
    """The step written on scipy.linalg.solve_banded, with its own band matrix."""
    xi = np.linspace(0.0, 1.0, n + 1)
    dxi = 1.0 / n
    hp = _flux(u, v, h, dxi, params)
    h_new = h + dt * hp
    adv = xi * (hp / h)
    grad_u, grad_v = np.zeros_like(u), np.zeros_like(v)
    grad_u[1:-1] = (u[2:] - u[:-2]) / (2.0 * dxi)
    grad_v[1:-1] = (v[2:] - v[:-2]) / (2.0 * dxi)
    rhs_u = u + dt * (adv * grad_u - params.a * u + nl.H(v))
    rhs_v = v + dt * (adv * grad_v - params.b * v + nl.G(u))

    def solve(rhs, r):
        ab = np.zeros((3, n + 1))
        ab[1, :] = 1.0 + 2.0 * r
        ab[0, 1:] = -r
        ab[2, :-1] = -r
        ab[1, -1], ab[2, -2], rhs[-1] = 1.0, 0.0, 0.0
        if params.boundary == "dirichlet":
            ab[1, 0], ab[0, 1], rhs[0] = 1.0, 0.0, 0.0
        else:
            ab[1, 0], ab[0, 1] = 1.0 + 2.0 * r, -2.0 * r
        return solve_banded((1, 1), ab, rhs)

    scale = dt / (h_new * h_new * dxi * dxi)
    u_new = np.maximum(solve(rhs_u, params.d1 * scale), 0.0)
    v_new = np.maximum(solve(rhs_v, params.d2 * scale), 0.0)
    return u_new, v_new, h_new, hp, float(np.max(u_new + v_new))


class TestStepBitwise:
    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("n", [3, 40, 400])
    def test_matches_solve_banded_reference(self, boundary, n):
        rng = np.random.default_rng(11 + n)
        for _ in range(4):
            d1, d2, a, b = rng.uniform(0.3, 3.0, 4)
            params = ModelParams(d1, d2, a, b, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
                                 boundary)
            nl = Nonlinearity(*rng.uniform(0.5, 3.0, 4))
            stepper = _Stepper(params, nl, n)
            xi = stepper.xi
            shape = np.sin(np.pi * xi) if boundary == "dirichlet" else np.cos(0.5 * np.pi * xi)
            u, v = (rng.uniform(0.1, 3.0) * shape
                    * (1.0 + 0.3 * np.sin(2.0 * np.pi * rng.integers(1, 4) * xi + rng.uniform(0, 6)))
                    for _ in range(2))
            u[-1] = v[-1] = 0.0
            if boundary == "dirichlet":
                u[0] = v[0] = 0.0
            h = rng.uniform(0.5, 5.0)
            ref = (u.copy(), v.copy(), h)
            for _ in range(10):
                dt = rng.uniform(1e-4, 2e-3)
                (u_new, v_new), *rest = euler(stepper, np.stack((u, v)), h, dt)
                got = (u_new, v_new, *rest)
                want = reference_advance(params, nl, n, *ref, dt)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                assert got[2:] == want[2:]
                u, v, h = got[:3]
                ref = want[:3]


class TestSimulate:
    def test_zero_stefan_coefficients_freeze_front(self, s1_nl):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, "dirichlet")
        init = InitialData.sine(2.0, 0.3, 201)
        trace = simulate(p, s1_nl, init, SolverNumerics(n=100, trace_cadence=0.1),
                         StopRule(t_end=2.0))
        assert np.all(trace.h == 2.0)
        assert np.all(trace.hprime == 0.0)

    def test_monotone_front_and_positivity(self, s1_nl, s1_neumann):
        init = InitialData.cosine_bump(2.0, 0.5, 201)
        num = SolverNumerics(n=100, trace_cadence=0.1, snapshot_times=(5.0, 10.0))
        trace = simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=10.0))
        assert np.all(np.diff(trace.t) > 0)
        assert np.all(np.diff(trace.h) >= 0)
        assert np.all(trace.hprime[1:] > 0)
        assert math.isfinite(trace.hprime.max())
        for snap in trace.snapshots:
            assert snap.u.min() >= 0.0 and snap.v.min() >= 0.0

    def test_inadmissible_data_rejected(self, s1_nl, s1_dirichlet):
        init = InitialData.cosine_bump(2.0, 0.5, 201)  # wrong operator shape
        with pytest.raises(ValueError):
            simulate(s1_dirichlet, s1_nl, init, SolverNumerics(n=50), StopRule(t_end=1.0))

    def test_vanishing_below_threshold_length(self, s1_nl, s1_dirichlet):
        init = InitialData.sine(0.2, 0.01, 101)
        trace = simulate(s1_dirichlet, s1_nl, init,
                         SolverNumerics(n=100, trace_cadence=0.01), StopRule(t_end=50.0))
        assert trace.stop_reason == "vanishing"
        assert trace.sup_u[-1] + trace.sup_v[-1] < 1e-4
        assert trace.h[-1] < math.pi
        # fewer steps than IMEX Euler at dt = 1e-3 (1 050): the local error
        # of a decaying run is measured against a floor fixed from the data
        assert trace.stats.steps < 1050

    def test_comparison_ordering_shared_grid(self, s1_nl):
        # mu = 0 keeps both runs on one grid: nested data stays nested
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, "dirichlet")
        num = SolverNumerics(n=100, trace_cadence=0.2, snapshot_times=(1.0, 2.0, 4.0))
        stop = StopRule(t_end=4.0)
        lo = simulate(p, s1_nl, InitialData.sine(2.0, 0.3, 201), num, stop)
        hi = simulate(p, s1_nl, InitialData.sine(2.0, 0.5, 201), num, stop)
        for s_lo, s_hi in zip(lo.snapshots, hi.snapshots):
            assert np.max(s_lo.u - s_hi.u) <= 1e-8
            assert np.max(s_lo.v - s_hi.v) <= 1e-8

    def test_comparison_ordering_moving_front(self, s1_nl, s1_dirichlet):
        num = SolverNumerics(n=100, trace_cadence=0.2)
        stop = StopRule(t_end=4.0)
        lo = simulate(s1_dirichlet, s1_nl, InitialData.sine(2.0, 0.3, 201), num, stop)
        hi = simulate(s1_dirichlet, s1_nl, InitialData.sine(2.0, 0.5, 201), num, stop)
        assert np.max(lo.h - hi.h) <= 1e-8

    def test_grid_refinement_second_order(self, s1_nl, s1_neumann):
        # common fixed dt cancels the time-stepping error in the differences
        h_end = {}
        init = InitialData.cosine_bump(2.0, 0.5, 1601)
        for n in (100, 200, 400):
            num = SolverNumerics(n=n, fixed_dt=5e-4, trace_cadence=0.5)
            h_end[n] = simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=5.0)).h[-1]
        order = math.log2(abs(h_end[100] - h_end[200]) / abs(h_end[200] - h_end[400]))
        assert 1.5 <= order <= 2.5

    def test_output_times_exact(self, s1_nl, s1_neumann):
        # trace rows at k * cadence and snapshots at the requested times, bit
        # for bit; 0.25 lies between two trace rows
        num = SolverNumerics(n=50, trace_cadence=0.1, snapshot_times=(0.25, 0.5, 1.0))
        trace = simulate(s1_neumann, s1_nl, InitialData.cosine_bump(2.0, 0.5, 201), num,
                         StopRule(t_end=1.0))
        assert np.array_equal(trace.t, np.arange(11) * 0.1)
        assert [s.t for s in trace.snapshots] == [0.25, 0.5, 1.0]

    def test_readme_run_step_count(self, s1_nl, s1_neumann):
        # the README simulate config; dt was pinned at 1e-3 (60 000 steps)
        num = SolverNumerics(n=400, trace_cadence=0.1, snapshot_times=(15.0, 30.0, 45.0, 60.0))
        trace = simulate(s1_neumann, s1_nl, InitialData.cosine_bump(2.0, 0.5, 401), num,
                         StopRule(t_end=60.0))
        stats = trace.stats
        assert stats.steps <= 720
        assert 0 <= stats.rejected <= stats.steps
        assert 0.0 < stats.dt_min < stats.dt_max <= num.trace_cadence

    def test_vanishing_sweep_cell_step_count(self, s1_nl, s1_dirichlet):
        # the benchmark sweep's smallest cell: a linear-predictor error
        # estimate held dt near 1e-3 while sup(u + v) decayed (806 steps)
        num = SolverNumerics(n=200, trace_cadence=0.1)
        trace = simulate(s1_dirichlet, s1_nl, InitialData.sine(1.02, 0.2, 401), num,
                         StopRule(t_end=25.0))
        assert trace.stop_reason == "vanishing"
        assert trace.stats.steps <= 350

    def test_vanishing_cell_rejects_negative_step(self, s1_nl, s1_dirichlet):
        # an SBDF2 step here leaves a negative density; the controller rejects
        # it and retries smaller, and no IMEX Euler step redoes it
        num = SolverNumerics(n=200, trace_cadence=0.1)
        trace = simulate(s1_dirichlet, s1_nl, InitialData.sine(1.0, 0.2, 401), num,
                         StopRule(t_end=25.0))
        assert trace.stop_reason == "vanishing"
        assert trace.stats.rejected >= 1

    def test_fixed_dt_failed_check_raises(self, s1_nl, s1_dirichlet):
        # criterion 7's vanishing config at a step as long as the cadence:
        # SBDF2 oscillates on the fast-decaying modes and goes negative, and
        # a fixed-dt run raises rather than redo the step at another order
        init = InitialData.sine(0.2, 0.01, 101)
        num = SolverNumerics(n=100, trace_cadence=0.01, fixed_dt=0.01)
        with pytest.raises(StabilityViolation):
            simulate(s1_dirichlet, s1_nl, init, num, StopRule(t_end=50.0))

    def test_step_size_collapse(self, s1_nl, s1_neumann, monkeypatch):
        # a zero tolerance rejects every error-controlled step until dt hits the floor
        monkeypatch.setattr(fbsolver, "_LTE_TOL", 0.0)
        with pytest.raises(StepSizeCollapse):
            simulate(s1_neumann, s1_nl, InitialData.cosine_bump(2.0, 0.5, 201),
                     SolverNumerics(n=50), StopRule(t_end=1.0))

    @staticmethod
    def _time_order(params, nl, init, t_end):
        h_end = [simulate(params, nl, init, SolverNumerics(n=100, fixed_dt=dt, trace_cadence=0.5),
                          StopRule(t_end=t_end)).h[-1] for dt in (1e-3, 5e-4, 2.5e-4)]
        return math.log2(abs(h_end[0] - h_end[1]) / abs(h_end[1] - h_end[2]))

    def test_second_order_in_time(self, s1_nl, s1_dirichlet):
        # start from a state the solver has already smoothed, which meets the
        # moving-front compatibility condition that the sine start breaks
        # (see the next test)
        snap = simulate(s1_dirichlet, s1_nl, InitialData.sine(2.0, 0.5, 201),
                        SolverNumerics(n=100, snapshot_times=(1.0,)),
                        StopRule(t_end=1.0)).snapshots[0]
        init = InitialData(h0=snap.h, x=snap.x, u0=snap.u, v0=snap.v)
        assert 1.7 <= self._time_order(s1_dirichlet, s1_nl, init, 2.0) <= 2.3

    @pytest.mark.xfail(strict=True, reason=(
        "the cosine bump has u_xx = 0 at the front where the moving boundary needs "
        "d u_xx = -h' u_x, so h' starts with a t^(1/2) term; at n = 100 the order "
        "is 1.58 here and rises toward 2 only as dt falls (1.71 at 2.5e-4/1.25e-4/6.25e-5)"))
    def test_time_order_from_incompatible_data(self, s1_nl, s1_neumann):
        order = self._time_order(s1_neumann, s1_nl, InitialData.cosine_bump(2.0, 0.5, 201), 5.0)
        assert 1.7 <= order <= 2.3


class TestTraceExport:
    def test_csv_schema_and_precision(self, tmp_path, s1_nl, s1_neumann):
        init = InitialData.cosine_bump(2.0, 0.5, 201)
        num = SolverNumerics(n=50, trace_cadence=0.2, snapshot_times=(0.5, 1.0))
        trace = simulate(s1_neumann, s1_nl, init, num, StopRule(t_end=1.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,h,hprime,sup_u,sup_v,mass"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 1], trace.h)  # 17 digits round-trip exactly

        spath = tmp_path / "snapshots.csv"
        trace.snapshots_to_csv(spath)
        slines = spath.read_text().splitlines()
        assert slines[0] == "t,x,u,v"
        assert len(slines) == 1 + sum(s.x.size for s in trace.snapshots)

    def test_numeric_rows_written_as_fmt(self, tmp_path):
        # rows of numbers take one %-operation; fmt() value by value is the reference
        edge = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 3, True, np.float64(2.5), np.float32(0.1)]
        bits = np.random.default_rng(5).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        values = edge + bits.view(np.float64).tolist()
        rows = [tuple(values[i:i + 4]) for i in range(0, len(values), 4)]
        rows.append(("cell", 0.1, "", math.nan))  # strings take the value-by-value path
        path = tmp_path / "rows.csv"
        write_csv(path, ("a", "b", "c", "d"), rows)
        want = ["a,b,c,d"] + [",".join(v if isinstance(v, str) else fmt(v) for v in row)
                              for row in rows]
        assert path.read_text().splitlines() == want
