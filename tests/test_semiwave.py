import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_bvp
from scipy.optimize import brentq

from frontwave.errors import (
    NoAdmissibleRoot,
    NoConvergence,
    NoPositiveRoot,
    NoSignChange,
    NoTangency,
    SolverError,
    SpeedOutOfRange,
    TailUnderflow,
)
from frontwave import model, semiwave
from frontwave.model import (
    Equilibrium,
    ModelParams,
    Nonlinearity,
    _one_sided_slope,
    compute_equilibrium,
)
from frontwave.semiwave import (
    SemiWaveProfile,
    SemiwaveNumerics,
    compute_cstar,
    decay_rate_empirical,
    decay_rate_theoretical,
    find_c0,
    solve_semiwave,
)


def cstar_gridscan_oracle(d1, d2, a, b, k, lam_lo=0.05, lam_hi=20.0, n=4000):
    """Brute-force tangency scan: bisect P(lam, c) = 0 in c per lam, minimize.

    Independent of the closed-form branch used by the implementation: for
    each lam the admissible root is bracketed between the larger factor-zero
    speed (where P = -k < 0) and a large speed (P -> +inf).
    """
    def P(lam, c):
        return (d1 * lam * lam - c * lam - a) * (d2 * lam * lam - c * lam - b) - k

    best = (math.inf, None)
    for lam in np.geomspace(lam_lo, lam_hi, n):
        c_lo = max((d1 * lam * lam - a) / lam, (d2 * lam * lam - b) / lam)
        c_hi = c_lo + 1.0
        while P(lam, c_hi) <= 0.0:
            c_hi += 1.0
        c_root = brentq(lambda c: P(lam, c), c_lo, c_hi, xtol=1e-13)
        if c_root < best[0]:
            best = (c_root, lam)
    return best


class TestMinimalSpeed:
    def test_benchmark_tangency(self, s1_nl, s1_neumann):
        c_star, lam_star = compute_cstar(s1_nl, s1_neumann)
        # factored case: (lam^2 - c lam - 3)(lam^2 - c lam + 1) = 0 with the
        # admissible branch lam^2 - c lam + 1 = 0 tangent at c = 2, lam = 1
        assert c_star == pytest.approx(2.0, abs=1e-9)
        assert lam_star == pytest.approx(1.0, abs=1e-9)

    def test_no_growth_mode_raises(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        nl = Nonlinearity(hp=1.0, gp=1.0)  # R0 = 1
        with pytest.raises(NoTangency):
            compute_cstar(nl, p)

    def test_asymmetric_case_matches_gridscan_oracle(self):
        p = ModelParams(1.0, 2.0, 1.0, 2.0, 1.0, 1.0, "neumann")
        nl = Nonlinearity(hp=3.0, gp=2.0)  # dH(0)=3, dG(0)=2
        c_star, lam_star = compute_cstar(nl, p)
        c_ref, lam_ref = cstar_gridscan_oracle(1.0, 2.0, 1.0, 2.0, 6.0)
        assert c_star == pytest.approx(c_ref, abs=1e-6)
        assert lam_star == pytest.approx(lam_ref, rel=5e-3)

    def test_tangency_residuals_at_machine_level(self):
        p = ModelParams(1.0, 2.0, 1.0, 2.0, 1.0, 1.0, "neumann")
        nl = Nonlinearity(hp=3.0, gp=2.0)
        c, lam = compute_cstar(nl, p)
        k = 6.0
        A = p.d1 * lam * lam - c * lam - p.a
        B = p.d2 * lam * lam - c * lam - p.b
        P = A * B - k
        P_lam = (2 * p.d1 * lam - c) * B + A * (2 * p.d2 * lam - c)
        assert abs(P) <= 1e-9 and abs(P_lam) <= 1e-9
        assert A < 0 and B < 0  # positive-eigenvector branch


class TestSemiWaveProfile:
    def test_zero_speed_symmetric_profile(self, s1_nl, s1_neumann, s1_eq):
        prof = solve_semiwave(0.0, s1_nl, s1_neumann, eq=s1_eq)
        assert prof.residual_inf <= 1e-8
        # symmetry of the system forces phi == psi
        assert np.max(np.abs(prof.phi - prof.psi)) <= 1e-9
        assert prof.phi[0] == 0.0 and prof.psi[0] == 0.0
        assert np.all(np.diff(prof.phi) > 0)

    def test_zero_speed_slope_matches_energy_integral(self, s1_nl, s1_neumann, s1_eq):
        # scalar reduction w'' = w - H(w): (1/2) w'(0)^2 = int_0^1 (H(s) - s) ds
        prof = solve_semiwave(0.0, s1_nl, s1_neumann, eq=s1_eq)
        integral, err = quad(lambda s: float(s1_nl.H(s)) - s, 0.0, 1.0, epsabs=1e-14)
        slope_ref = math.sqrt(2.0 * integral)
        assert err < 1e-12
        assert prof.slope0_phi == pytest.approx(slope_ref, rel=5e-4)

    def test_zero_speed_profile_matches_bvp_oracle(self, s1_nl, s1_neumann, s1_eq):
        prof = solve_semiwave(0.0, s1_nl, s1_neumann, eq=s1_eq)

        def rhs(x, y):
            return np.vstack([y[1], y[0] - np.asarray(s1_nl.H(y[0]))])

        def bc(ya, yb):
            return np.array([ya[0], yb[0] - 1.0])

        x = np.linspace(0.0, prof.x_max, 2001)
        guess = np.vstack([np.tanh(x), 1.0 / np.cosh(x) ** 2])
        sol = solve_bvp(rhs, bc, x, guess, tol=1e-10, max_nodes=200000)
        assert sol.status == 0
        # the dx=0.02 central-difference profile carries O(dx^2) ~ 5e-6 error
        assert np.max(np.abs(prof.phi - sol.sol(prof.x_nodes)[0])) <= 1e-5

    @pytest.mark.parametrize("case", ["asymmetric", "slow_tail"])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.9, 0.99])
    def test_cold_newton_across_speed_range(self, case, frac):
        if case == "asymmetric":
            p = ModelParams(1.0, 2.0, 1.0, 1.5, 0.7, 1.3, "neumann")
            nl = Nonlinearity(hp=3.0, gq=0.5)
        else:  # 12/beta > 40: a wide grid
            p = ModelParams(1.0, 3.0, 0.5, 0.5, 0.7, 1.3, "neumann")
            nl = Nonlinearity(hp=1.5, gp=0.35)
        eq = compute_equilibrium(nl, p)
        c_star, _ = compute_cstar(nl, p)
        prof = solve_semiwave(frac * c_star, nl, p, eq=eq, cstar=c_star)
        assert prof.residual_inf <= 1e-8
        assert prof.phi[0] == 0.0 and prof.psi[0] == 0.0
        assert np.all(np.diff(prof.phi) > 0) and np.all(np.diff(prof.psi) > 0)
        if case == "slow_tail":
            assert prof.x_max > 40.0

    def test_boundary_value_pinned_for_any_speed(self, s1_nl, s1_neumann, s1_eq):
        for c in (0.3, 1.0):
            prof = solve_semiwave(c, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)
            assert prof.phi[0] == 0.0 and prof.psi[0] == 0.0

    def test_slope_decreases_along_speed_ladder(self, s1_nl, s1_neumann, s1_eq):
        slopes = [solve_semiwave(f * 2.0, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0).slope0_phi
                  for f in (0.0, 0.25, 0.5, 0.75)]
        assert all(s_next < s_prev for s_prev, s_next in zip(slopes, slopes[1:]))

    def test_speed_out_of_range(self, s1_nl, s1_neumann, s1_eq):
        with pytest.raises(SpeedOutOfRange):
            solve_semiwave(2.0, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)
        with pytest.raises(SpeedOutOfRange):
            solve_semiwave(-0.1, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)

    def test_profile_bounds(self, s1_c0, s1_eq):
        _, prof = s1_c0
        assert prof.phi.min() >= 0.0 and prof.phi.max() <= s1_eq.u_star
        assert np.all(np.diff(prof.phi) > 0)
        assert np.all(np.diff(prof.psi) > 0)

    @pytest.mark.parametrize("frac", [0.6, 1.6])
    def test_warm_start_across_grid_lengths(self, s1_nl, s1_neumann, s1_eq, frac):
        # a converged profile at 0.9 c on a grid frac times as long: extended
        # by (u*, v*) or cut and pinned again, it starts a warm solve at c
        cold = solve_semiwave(0.4, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)
        other = solve_semiwave(0.36, s1_nl, s1_neumann,
                               SemiwaveNumerics(x_max=frac * cold.x_max), s1_eq, cstar=2.0)
        warm = solve_semiwave(0.4, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0,
                              initial_guess=other)
        stop = semiwave._STOP_ROUNDING * max(s1_eq.u_star, s1_eq.v_star) / 0.02 ** 2
        assert cold.cold and not warm.cold
        assert warm.newton_steps < cold.newton_steps
        assert warm.x_max == cold.x_max and warm.residual_inf <= stop
        assert np.max(np.abs(warm.phi - cold.phi)) <= 1e-12
        assert np.max(np.abs(warm.psi - cold.psi)) <= 1e-12
        assert abs(warm.slope0_phi - cold.slope0_phi) <= 1e-12
        assert abs(warm.slope0_psi - cold.slope0_psi) <= 1e-12

    def test_doubling_truncation_barely_moves_slopes(self, s1_nl, s1_neumann, s1_eq, s1_c0):
        pair, prof = s1_c0
        beta, _ = decay_rate_theoretical(s1_nl, s1_neumann, pair.c0, s1_eq)
        prof2 = solve_semiwave(pair.c0, s1_nl, s1_neumann,
                               SemiwaveNumerics(x_max=2.0 * prof.x_max), s1_eq, cstar=2.0)
        bound = 10.0 * math.exp(-beta * prof.x_max)
        assert abs(prof2.slope0_phi - prof.slope0_phi) < bound
        assert abs(prof2.slope0_psi - prof.slope0_psi) < bound


_SPEED_SETS = {
    "symmetric": (Nonlinearity(2.0, 1.0, 2.0, 1.0),
                  ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")),
    "asymmetric": (Nonlinearity(hp=3.0, gq=0.5),
                   ModelParams(1.0, 2.0, 1.0, 1.5, 0.7, 1.3, "neumann")),
    # the longest grid of the O(1) sets: 12/beta(c) from 44 at c = 0 to 49 at c0
    "slow_tail": (Nonlinearity(hp=1.5, gp=0.35),
                  ModelParams(1.0, 3.0, 0.5, 0.5, 0.7, 1.3, "neumann")),
    "large_diffusion": (Nonlinearity(hp=2.0, gp=2.0),
                        ModelParams(200.0, 200.0, 1.0, 1.0, 1.0, 1.0, "neumann")),
    "cholera": (Nonlinearity(hp=1.5, hq=0.0, gq=0.5),
                ModelParams(1.0, 2.0, 1.0, 1.5, 0.7, 1.3, "neumann")),
    "large_mu": (Nonlinearity(2.0, 1.0, 2.0, 1.0),
                 ModelParams(1.0, 1.0, 1.0, 1.0, 5000.0, 5000.0, "neumann")),
}


def _F(p, prof):
    return p.mu1 * prof.slope0_phi + p.mu2 * prof.slope0_psi - prof.c


@pytest.mark.parametrize("case, search", [
    ("asymmetric", "cstar"), ("asymmetric", "beta0"), ("slow_tail", "cstar")])
def test_converged_root_search_stops_at_once(case, search, monkeypatch):
    # a Newton step that rounds back onto the bracket end it just moved ends
    # the search; bisecting back to that end from the other costs 20 or more
    nl, p = _SPEED_SETS[case]
    calls = []

    def counting(fdf, *args, **kwargs):
        def counted(x):
            calls.append(x)
            return fdf(x)
        return model._newton_root(counted, *args, **kwargs)

    monkeypatch.setattr(semiwave, "_newton_root", counting)
    if search == "cstar":
        compute_cstar(nl, p)
    else:
        decay_rate_theoretical(nl, p, 0.0)
    assert len(calls) <= 8


class TestFreeBoundarySpeed:
    def test_benchmark_root(self, s1_c0):
        pair, prof = s1_c0
        assert 0.0 < pair.c0 < 2.0
        assert pair.F_residual <= 1e-8
        assert pair.c_star == pytest.approx(2.0, abs=1e-9)

    def test_root_find_solve_count(self, s1_nl, s1_neumann, monkeypatch):
        calls = []
        solve = semiwave.solve_semiwave

        def counting(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(semiwave, "solve_semiwave", counting)
        pair, _ = find_c0(s1_nl, s1_neumann)
        assert len(calls) <= 7
        assert pair.F_residual <= semiwave._F_TOL

    @pytest.mark.parametrize("case", sorted(_SPEED_SETS))
    def test_truncation_at_tail_rate_barely_moves_c0(self, case):
        # the default x_max is 12/beta(c); tripling it moves c0 by <= 4e-11
        # relative, except on d = 200, whose grid has always been 12/beta:
        # 2.6e-10 there, 1.8e-11 absolute against _C_TOL = 1e-9
        nl, p = _SPEED_SETS[case]
        pair, prof = find_c0(nl, p)
        wide, _ = find_c0(nl, p, SemiwaveNumerics(x_max=3.0 * prof.x_max))
        bound = 5e-10 if case == "large_diffusion" else 2e-10
        assert abs(pair.c0 / wide.c0 - 1.0) <= bound

    def test_slow_tail_search_is_warm_after_its_first_solve(self):
        # x_max = 12/beta(c) grows with c; the warm start follows the grid
        nl, p = _SPEED_SETS["slow_tail"]
        pair, _ = find_c0(nl, p)
        assert pair.cold_solves == 1
        assert pair.newton_steps < 16  # 16 when each change of grid restarted cold
        assert len(pair.iterates) == pair.profile_solves
        assert pair.iterates[0][0] == 0.0 and pair.iterates[-1][0] == pair.c0
        assert abs(pair.iterates[-1][1]) == pair.F_residual

    def test_solve_cap_raises_no_convergence(self, s1_nl, s1_neumann, monkeypatch):
        # the symmetric set needs 5 solves; the cap ends the search loudly,
        # whatever |F| is when it is reached
        monkeypatch.setattr(semiwave, "_MAX_C0_SOLVES", 2)
        with pytest.raises(NoConvergence) as info:
            find_c0(s1_nl, s1_neumann)
        assert info.value.iterations == 2

    def test_rounding_dip_at_saturation_is_accepted(self):
        # the c = 0 profile converges (residual 5.6e-13) and phi falls by
        # 2.2e-16 next to u*: rounding, which the profile check must accept
        p = ModelParams(0.5, 0.5, 1.0, 1.03125, 1.0, 1.0, "neumann")
        nl = Nonlinearity(1.9375, 1.0, 4.65625 * 1.03125 / 1.9375, 1.05859375)
        pair, _ = find_c0(nl, p)
        assert pair.c0 == pytest.approx(0.518205035697, abs=1e-9)

    @pytest.mark.parametrize("case", ["symmetric", "asymmetric", "slow_tail", "large_diffusion"])
    def test_residual_changes_sign_across_c0(self, case):
        nl, p = _SPEED_SETS[case]
        pair, _ = find_c0(nl, p)
        eq = compute_equilibrium(nl, p)
        dc = 10.0 * semiwave._C_TOL
        below = solve_semiwave(pair.c0 - dc, nl, p, eq=eq, cstar=pair.c_star)
        above = solve_semiwave(pair.c0 + dc, nl, p, eq=eq, cstar=pair.c_star)
        assert _F(p, below) > 0.0 > _F(p, above)

    @pytest.mark.parametrize("case", ["symmetric", "slow_tail"])
    def test_sensitivity_slope_matches_centred_difference(self, case):
        nl, p = _SPEED_SETS[case]
        pair, prof = find_c0(nl, p)
        eq = compute_equilibrium(nl, p)
        num = SemiwaveNumerics(x_max=prof.x_max)  # one grid for every speed
        h = 1e-4
        # find_c0's last solve is warm; the one at c0/2 is cold
        cold = solve_semiwave(0.5 * pair.c0, nl, p, num, eq, pair.c_star)
        for c, at in ((pair.c0, prof), (cold.c, cold)):
            plus = solve_semiwave(c + h, nl, p, num, eq, pair.c_star)
            minus = solve_semiwave(c - h, nl, p, num, eq, pair.c_star)
            centred = (_F(p, plus) - _F(p, minus)) / (2.0 * h)
            sens = (p.mu1 * _one_sided_slope(at.dphi_dc, num.dx)
                    + p.mu2 * _one_sided_slope(at.dpsi_dc, num.dx) - 1.0)
            assert sens == pytest.approx(centred, rel=1e-5)

    def test_residual_at_zero_speed_positive(self, s1_nl, s1_neumann, s1_eq):
        prof = solve_semiwave(0.0, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)
        F0 = s1_neumann.mu1 * prof.slope0_phi + s1_neumann.mu2 * prof.slope0_psi
        assert F0 > 0.0

    def test_speed_shrinks_with_stefan_coefficients(self, s1_nl):
        speeds = []
        for mu in (1.0, 0.1, 0.01):
            p = ModelParams(1.0, 1.0, 1.0, 1.0, mu, mu, "neumann")
            pair, _ = find_c0(s1_nl, p)
            speeds.append(pair.c0)
        assert speeds[0] > speeds[1] > speeds[2] > 0.0

    def test_requires_positive_stefan_sum(self, s1_nl):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, "neumann")
        with pytest.raises(ValueError):
            find_c0(s1_nl, p)

    def test_subcritical_raises(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        with pytest.raises(NoTangency):
            find_c0(Nonlinearity(hp=1.0, gp=1.0), p)

    def test_grid_halving_second_order(self, s1_nl, s1_neumann):
        c0s = [find_c0(s1_nl, s1_neumann, SemiwaveNumerics(dx=dx))[0].c0
               for dx in (0.04, 0.02, 0.01)]
        order = math.log2(abs(c0s[0] - c0s[1]) / abs(c0s[1] - c0s[2]))
        assert 1.5 <= order <= 2.5


def reference_steady_residual(phi, psi, c, nl, params, dx):
    """The steady residual written component by component: the bitwise
    reference for _steady_residual, which writes it once on [phi; psi]."""
    d1, d2, a, b = params.d1, params.d2, params.a, params.b
    lap_phi = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / (dx * dx)
    lap_psi = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (dx * dx)
    adv_phi = (phi[2:] - phi[:-2]) / (2.0 * dx)
    adv_psi = (psi[2:] - psi[:-2]) / (2.0 * dx)
    r_phi = d1 * lap_phi - c * adv_phi - a * phi[1:-1] + nl.H(psi[1:-1])
    r_psi = d2 * lap_psi - c * adv_psi - b * psi[1:-1] + nl.G(phi[1:-1])
    return r_phi, r_psi


class TestNewton:
    """The hand-filled dgbsv band buffer and the work of the damped Newton."""

    @staticmethod
    def _interleaved(w, c, nl, p, dx):
        """The residual in the band solver's order (phi_1, psi_1, phi_2, ...)."""
        r, _ = semiwave._steady_residual(w, c, nl, p, dx)
        return r.T.reshape(-1)

    @pytest.fixture
    def small_system(self):
        """Asymmetric cholera set on 21 nodes, off any solution."""
        p = ModelParams(1.0, 2.0, 1.0, 1.5, 0.7, 1.3, "neumann")
        nl = Nonlinearity(hp=1.5, hq=0.0, gq=0.5)
        eq = compute_equilibrium(nl, p)
        c, dx = 0.3, 0.25
        x = np.linspace(0.0, 20 * dx, 21)
        w = np.stack((eq.u_star * np.tanh(0.8 * x), eq.v_star * np.tanh(1.3 * x) ** 2))
        m = x.size - 2
        band = semiwave._bands(m, c, p, dx)
        ab = np.empty_like(band, order="F")
        semiwave._jacobian(ab, band, w, nl)
        dense = np.zeros((2 * m, 2 * m))
        for i in range(2 * m):
            for j in range(max(0, i - 2), min(2 * m, i + 3)):
                dense[i, j] = ab[4 + i - j, j]
        return p, nl, c, dx, w, ab, dense

    @pytest.mark.parametrize("c", [0.0, 0.3, 1.5])
    def test_stacked_residual_matches_per_component_reference(self, small_system, c):
        p, nl, _, dx, w, _, _ = small_system
        r, grad = semiwave._steady_residual(w, c, nl, p, dx)
        r_phi, r_psi = reference_steady_residual(w[0].copy(), w[1].copy(), c, nl, p, dx)
        assert np.array_equal(r[0], r_phi) and np.array_equal(r[1], r_psi)
        for row, g in zip(w, grad):
            assert np.array_equal(g, (row[2:] - row[:-2]) / (2.0 * dx))

    def test_band_layout_matches_finite_difference_jacobian(self, small_system):
        p, nl, c, dx, w, _, dense = small_system
        m = w.shape[1] - 2
        fd = np.empty_like(dense)
        h = 1e-6
        for k in range(2 * m):
            node = (k % 2, 1 + k // 2)
            saved = w[node]
            w[node] = saved + h
            r_plus = self._interleaved(w, c, nl, p, dx)
            w[node] = saved - h
            r_minus = self._interleaved(w, c, nl, p, dx)
            w[node] = saved
            fd[:, k] = (r_plus - r_minus) / (2.0 * h)
        assert np.max(np.abs(dense - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_gbsv_step_matches_dense_solve(self, small_system):
        p, nl, c, dx, w, ab, dense = small_system
        r = self._interleaved(w, c, nl, p, dx)
        _, _, delta, info = semiwave.dgbsv(2, 2, ab, -r, overwrite_ab=1, overwrite_b=1)
        assert info == 0
        want = np.linalg.solve(dense, -r)
        assert np.max(np.abs(delta - want)) <= 1e-12 * np.max(np.abs(want))

    def test_decrease_beyond_saturation_tol_rejected(self):
        ok = np.array([0.0, 0.5, 1.0, 1.0 - 2e-16, 1.0])  # a rounding dip at w* = 1
        semiwave._validate_profile(np.stack((ok, ok)), 1.0, 1.0)
        bad = np.array([0.0, 0.5, 1.0, 1.0 - 1e-10, 1.0])
        with pytest.raises(SolverError, match="phi not monotone"):
            semiwave._validate_profile(np.stack((bad, ok)), 1.0, 1.0)

    def test_failed_band_solve_fails_the_profile(self, s1_nl, s1_neumann, s1_eq, monkeypatch):
        gbsv = semiwave.dgbsv

        def singular(*args, **kwargs):
            lu, piv, x, _ = gbsv(*args, **kwargs)
            return lu, piv, x, 3  # U(3, 3) exactly zero

        monkeypatch.setattr(semiwave, "dgbsv", singular)
        with pytest.raises(SolverError, match="info=3"):
            solve_semiwave(0.5, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)

    @staticmethod
    def _record_exits(monkeypatch):
        """Record each _newton call's (final residual, stopping level)."""
        exits = []
        newton = semiwave._newton

        def recording(*args):
            out = newton(*args)
            exits.append((out[1], args[-1]))
            return out

        monkeypatch.setattr(semiwave, "_newton", recording)
        return exits

    def test_find_c0_newton_work(self, s1_nl, s1_neumann, monkeypatch):
        calls = []
        gbsv = semiwave.dgbsv

        def counting(*args, **kwargs):
            calls.append(1)
            return gbsv(*args, **kwargs)

        monkeypatch.setattr(semiwave, "dgbsv", counting)
        exits = self._record_exits(monkeypatch)
        pair, _ = find_c0(s1_nl, s1_neumann)
        assert pair.newton_steps == len(calls)
        assert len(calls) <= 3.5 * pair.profile_solves
        # each solve reaches its stopping level instead of leaving through
        # a line search that finds no decrease
        assert len(exits) == pair.profile_solves
        assert all(res <= stop for res, stop in exits)

    def test_large_diffusion_reaches_its_rounding_level(self, monkeypatch):
        # d = 200 puts the stopping level at ~9e-10, 200 times the
        # symmetric set's; c0 is the value found with Newton run to 1e-13
        p = ModelParams(200.0, 200.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        nl = Nonlinearity(hp=2.0, gp=2.0)
        exits = self._record_exits(monkeypatch)
        pair, prof = find_c0(nl, p)
        assert exits and all(res <= stop for res, stop in exits)
        assert prof.residual_inf <= 1e-8
        assert pair.c0 == pytest.approx(0.06703223240070708, abs=1e-9)


class TestDecayRates:
    def test_zero_speed_closed_form(self, s1_nl, s1_neumann, s1_eq):
        # quartic (beta^2 - 1)^2 = 1/4; positive eigenvector needs the factor
        # negative: beta^2 - 1 = -1/2, i.e. beta = sqrt(1/2)
        beta, p_over_q = decay_rate_theoretical(s1_nl, s1_neumann, 0.0, s1_eq)
        assert beta == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert p_over_q == pytest.approx(1.0, abs=1e-10)

    def test_moving_speed_closed_form(self, s1_nl, s1_neumann, s1_eq, s1_c0):
        pair, _ = s1_c0
        beta, _ = decay_rate_theoretical(s1_nl, s1_neumann, pair.c0, s1_eq)
        # admissible branch beta^2 + c0 beta - 1 = -1/2
        beta_ref = (-pair.c0 + math.sqrt(pair.c0 ** 2 + 2.0)) / 2.0
        assert beta == pytest.approx(beta_ref, abs=1e-12)

    def test_unstable_equilibrium_rejected(self, s1_nl, s1_neumann):
        broken = Equilibrium(u_star=1.0, v_star=1.0, Hp_vstar=2.0, Gp_ustar=2.0)
        with pytest.raises(NoAdmissibleRoot):
            decay_rate_theoretical(s1_nl, s1_neumann, 0.0, broken)

    def test_empirical_on_exact_exponential(self):
        x = np.arange(0.0, 8.0 + 1e-9, 0.02)
        phi = 1.0 - np.exp(-2.0 * x)
        prof = SemiWaveProfile(c=0.0, x_nodes=x, phi=phi, psi=phi.copy(),
                               slope0_phi=2.0, slope0_psi=2.0,
                               residual_inf=0.0, x_max=8.0)
        eq = Equilibrium(1.0, 1.0, 0.5, 0.5)
        fit = decay_rate_empirical(prof, eq)
        assert fit.alpha == pytest.approx(2.0, abs=1e-3)
        assert fit.r_squared > 0.999

    def test_empirical_matches_theory_at_rest_and_moving(self, s1_nl, s1_neumann, s1_eq, s1_c0):
        pair, prof_c0 = s1_c0
        prof_0 = solve_semiwave(0.0, s1_nl, s1_neumann, eq=s1_eq, cstar=2.0)
        for prof, c in ((prof_0, 0.0), (prof_c0, pair.c0)):
            beta, _ = decay_rate_theoretical(s1_nl, s1_neumann, c, s1_eq)
            fit = decay_rate_empirical(prof, s1_eq)
            assert abs(fit.alpha - beta) / beta <= 0.05

    def test_constant_tail_flagged(self):
        x = np.arange(0.0, 8.0 + 1e-9, 0.02)
        phi = np.minimum(x, 0.9)  # saturates at 0.9, constant tail
        prof = SemiWaveProfile(c=0.0, x_nodes=x, phi=phi, psi=phi.copy(),
                               slope0_phi=1.0, slope0_psi=1.0,
                               residual_inf=0.0, x_max=8.0)
        eq = Equilibrium(1.0, 1.0, 0.5, 0.5)
        fit = decay_rate_empirical(prof, eq)
        assert fit.r_squared < 0.9

    def test_fully_saturated_tail_underflows(self):
        x = np.arange(0.0, 8.0 + 1e-9, 0.02)
        phi = np.ones_like(x)
        prof = SemiWaveProfile(c=0.0, x_nodes=x, phi=phi, psi=phi.copy(),
                               slope0_phi=0.0, slope0_psi=0.0,
                               residual_inf=0.0, x_max=8.0)
        with pytest.raises(TailUnderflow):
            decay_rate_empirical(prof, Equilibrium(1.0, 1.0, 0.5, 0.5))


class TestHalfLineSteady:
    """The half-line steady state is the c = 0 profile."""

    def test_saturates_at_equilibrium(self, s1_nl, s1_neumann, s1_eq):
        steady = solve_semiwave(0.0, s1_nl, s1_neumann, SemiwaveNumerics(x_max=40.0), s1_eq)
        tail = steady.x_nodes >= 35.0
        assert np.max(np.abs(steady.phi[tail] - s1_eq.u_star)) <= 1e-8
        assert np.max(np.abs(steady.psi[tail] - s1_eq.v_star)) <= 1e-8

    def test_subcritical_collapses_to_zero(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        nl = Nonlinearity(hp=0.9, gp=0.9)  # R0 < 1: only the trivial state is bounded
        with pytest.raises(NoPositiveRoot):
            solve_semiwave(0.0, nl, p)
