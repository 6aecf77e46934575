import math

import numpy as np
import pytest
from scipy.optimize import brentq

from frontwave import model
from frontwave.errors import (
    BracketingFailure,
    InvalidRegime,
    NonFinite,
    NoConvergence,
    NoPositiveRoot,
    SolverError,
)
from frontwave.model import (
    BoundaryKind,
    InitialData,
    ModelParams,
    Nonlinearity,
    check_hypotheses,
    cholera,
    compute_R0,
    compute_equilibrium,
    compute_l0,
    saturating,
    validate_initial_data,
)


def linear_pair(slope_h=1.0, slope_g=1.0):
    z0 = lambda z: 0.0 * np.asarray(z, dtype=float)
    return Nonlinearity(
        name="linear",
        H=lambda z: slope_h * np.asarray(z, dtype=float),
        G=lambda z: slope_g * np.asarray(z, dtype=float),
        dH=lambda z: slope_h + z0(z),
        dG=lambda z: slope_g + z0(z),
        d2H=z0,
        d2G=z0,
    )


class TestCheckHypotheses:
    def test_saturating_pair_passes_with_witness(self, s1_nl, s1_neumann):
        report = check_hypotheses(s1_nl, s1_neumann, z_max=10.0)
        assert report.passed
        # direct evaluation: G(H(4)/1) = G(1.6) = 3.2/2.6 < 4
        assert 2.0 * 1.6 / 2.6 < 4.0
        assert report.z_hat is not None and report.z_hat <= 4.0
        assert report.min_dH > 0 and report.min_dG > 0
        assert report.max_d2H < 0 and report.max_d2G < 0

    def test_linear_h_fails_concavity(self, s1_neumann):
        report = check_hypotheses(linear_pair(), s1_neumann, z_max=10.0)
        assert not report.passed
        assert "d2H_negative" in report.failures

    def test_decreasing_g_fails_monotonicity(self, s1_nl, s1_neumann):
        bad = Nonlinearity(
            name="bad",
            H=s1_nl.H, G=lambda z: -np.asarray(z, dtype=float),
            dH=s1_nl.dH, dG=lambda z: -np.ones_like(np.asarray(z, dtype=float)),
            d2H=s1_nl.d2H, d2G=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        )
        report = check_hypotheses(bad, s1_neumann, z_max=10.0)
        assert "dG_positive" in report.failures

    def test_cholera_variant_weak_pass(self, s1_neumann):
        report = check_hypotheses(cholera(c=1.0, gp=2.0, gq=1.0), s1_neumann, z_max=100.0)
        assert report.weak
        assert report.clauses["d2H_negative"]  # relaxed to <= 0 for the linear component
        assert report.passed


class TestR0:
    def test_benchmark_value(self, s1_nl, s1_neumann):
        assert compute_R0(s1_nl, s1_neumann) == pytest.approx(4.0, abs=1e-12)

    def test_boundary_case_is_one(self):
        p = ModelParams(1.0, 1.0, 3.0, 5.0, 1.0, 1.0, "neumann")
        nl = saturating(hp=3.0, gp=5.0)  # dH(0)=a, dG(0)=b
        assert compute_R0(nl, p) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_zero_slope(self, s1_neumann):
        z2 = Nonlinearity(
            name="z2",
            H=lambda z: np.asarray(z, dtype=float) ** 2, G=lambda z: np.asarray(z, dtype=float),
            dH=lambda z: 2.0 * np.asarray(z, dtype=float), dG=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            d2H=lambda z: 2.0 * np.ones_like(np.asarray(z, dtype=float)),
            d2G=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        )
        assert compute_R0(z2, s1_neumann) == 0.0


class TestEquilibrium:
    def test_benchmark_fixed_point(self, s1_nl, s1_neumann):
        eq = compute_equilibrium(s1_nl, s1_neumann)
        # the first doubling point is the root: f(1) = G(H(1)) - 1 = 0 exactly
        assert (eq.u_star, eq.v_star) == (1.0, 1.0)
        assert eq.Hp_vstar == pytest.approx(0.5, abs=1e-12)

    def test_subcritical_raises(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        nl = saturating(hp=math.sqrt(0.9), gp=math.sqrt(0.9))  # R0 = 0.9
        assert compute_R0(nl, p) == pytest.approx(0.9, abs=1e-12)
        with pytest.raises(NoPositiveRoot):
            compute_equilibrium(nl, p)

    def test_asymmetric_root_matches_bisection_oracle(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        nl = saturating(hp=2.0, hq=1.0, gp=3.0, gq=2.0)
        eq = compute_equilibrium(nl, p)
        # independent root of b v - G(H(v)/a) with a reference solver
        v_ref = brentq(lambda v: v - float(nl.G(float(nl.H(v)))), 1e-6, 10.0,
                       xtol=1e-15, rtol=8.9e-16)
        assert eq.v_star == pytest.approx(v_ref, abs=1e-10)
        assert abs(p.a * eq.u_star - float(nl.H(eq.v_star))) <= 1e-12 * p.a * eq.u_star
        assert abs(p.b * eq.v_star - float(nl.G(eq.u_star))) <= 1e-12 * p.b * eq.v_star

    @pytest.mark.parametrize("hp", [1.2, 1.6, 2.0, 3.0, 5.0])
    def test_supercritical_iff_root_exists(self, hp):
        # R0 > 1 exactly when the positive equilibrium exists
        p = ModelParams(1.0, 2.0, 1.0, 1.5, 1.0, 1.0, "neumann")
        nl = saturating(hp=hp, gp=1.2)
        r0 = compute_R0(nl, p)
        if r0 > 1.0:
            eq = compute_equilibrium(nl, p)
            assert eq.u_star > 0 and eq.v_star > 0
        else:
            with pytest.raises(NoPositiveRoot):
                compute_equilibrium(nl, p)

    def test_symmetric_family_is_symmetric(self, s1_nl, s1_neumann):
        eq = compute_equilibrium(s1_nl, s1_neumann)
        assert eq.u_star == pytest.approx(eq.v_star, abs=1e-13)
        assert eq.Hp_vstar == pytest.approx(eq.Gp_ustar, abs=1e-13)


class TestThresholdLength:
    def test_benchmark_dirichlet_is_pi(self, s1_nl, s1_dirichlet):
        # (a d2 + b d1 + sqrt(0 + 16)) / (2 (4 - 1)) = 1, so l0 = pi
        assert compute_l0(s1_nl, s1_dirichlet) == pytest.approx(math.pi, abs=1e-12)

    def test_benchmark_neumann_is_half_pi(self, s1_nl, s1_neumann):
        assert compute_l0(s1_nl, s1_neumann) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("d1,d2,a,b,hp,gp", [
        (1.0, 2.0, 1.0, 1.5, 3.0, 2.0),
        (0.5, 0.7, 2.0, 1.0, 4.0, 1.1),
    ])
    def test_dirichlet_is_twice_neumann(self, d1, d2, a, b, hp, gp):
        nl = saturating(hp=hp, gp=gp)
        pd = ModelParams(d1, d2, a, b, 1.0, 1.0, "dirichlet")
        pn = ModelParams(d1, d2, a, b, 1.0, 1.0, "neumann")
        assert compute_l0(nl, pd) == pytest.approx(2.0 * compute_l0(nl, pn), rel=1e-15)

    def test_zero_denominator_raises(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "dirichlet")
        nl = linear_pair(1.0, 1.0)  # dH(0) dG(0) = a b exactly
        with pytest.raises(InvalidRegime):
            compute_l0(nl, p)


class TestInitialData:
    def test_sine_is_dirichlet_admissible(self, s1_dirichlet):
        init = InitialData.sine(2.0, 0.5)
        report = validate_initial_data(init, s1_dirichlet)
        assert report.passed, report.violations

    def test_cosine_bump_is_neumann_admissible(self, s1_neumann):
        init = InitialData.cosine_bump(2.0, 0.5)
        report = validate_initial_data(init, s1_neumann)
        assert report.passed, report.violations

    def test_nonzero_front_value_fails(self, s1_dirichlet):
        x = np.linspace(0.0, 2.0, 101)
        u0 = np.sin(np.pi * x / 2.0)
        u0[-1] = 0.1
        report = validate_initial_data(InitialData(2.0, x, u0, np.sin(np.pi * x / 2.0)),
                                       s1_dirichlet)
        assert not report.passed
        assert ("u0", "value_at_h0", 100) in report.violations

    def test_cosine_fails_dirichlet(self, s1_dirichlet):
        report = validate_initial_data(InitialData.cosine_bump(2.0, 0.5), s1_dirichlet)
        assert not report.passed
        clauses = {v[1] for v in report.violations}
        assert "value_at_0" in clauses

    def test_nonfinite_node_fails(self, s1_dirichlet):
        init = InitialData.sine(2.0, 0.5, 101)
        init.v0[40] = np.nan
        report = validate_initial_data(init, s1_dirichlet)
        assert not report.passed
        assert report.violations == (("v0", "finite", 40),)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            InitialData(1.0, np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))

    def test_table_round_trip(self, tmp_path, s1_dirichlet):
        src = InitialData.sine(2.0, 0.4, 51)
        path = tmp_path / "init.csv"
        with open(path, "w") as fh:
            fh.write("x,u0,v0\n")
            for x, u, v in zip(src.x, src.u0, src.v0):
                fh.write(f"{float(x)!r},{float(u)!r},{float(v)!r}\n")
        loaded = InitialData.from_table(path)
        assert loaded.h0 == src.h0
        assert np.array_equal(loaded.u0, src.u0)
        assert validate_initial_data(loaded, s1_dirichlet).passed


class TestModelParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, "neumann")
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, -1.0, 1.0, 1.0, 1.0, "neumann")
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 1.0, 1.0, -0.5, 1.0, "neumann")

    def test_boundary_coercion(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "dirichlet")
        assert p.boundary is BoundaryKind.DIRICHLET


class TestNewtonRoot:
    """model._newton_root: Newton's method in a sign bracket, f positive below the root."""

    @pytest.mark.parametrize("fdf", [
        lambda x: (math.nan, -1.0),
        lambda x: (math.nan, -1.0) if 0.2 < x < 0.8 else (0.5 - x, -1.0),  # first step lands on 0.5
        lambda x: (math.inf, -1.0) if x > 0.0 else (1.0, -1.0),
        lambda x: (0.5 - x, -math.inf),
    ], ids=["nan-at-start", "nan-inside", "inf-value", "inf-slope"])
    def test_nonfinite_value_raises(self, fdf):
        with pytest.raises(NonFinite):
            model._newton_root(fdf, 0.0, -1.0, 2.0, 1e-12, maxiter=100)

    def test_maxiter_raises_no_convergence(self):
        fdf = lambda x: (2.0 - x ** 3, -3.0 * x * x)
        with pytest.raises(NoConvergence) as info:
            model._newton_root(fdf, 0.0, 0.0, 2.0, 1e-12, maxiter=2)
        assert info.value.iterations == 2
        root, f = model._newton_root(fdf, 0.0, 0.0, 2.0, 0.0, maxiter=100)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=4e-16) and abs(f) <= 1e-15

    def test_exact_zero_returns_at_once(self):
        calls = []

        def fdf(x):
            calls.append(x)
            return 1.0 - x, -1.0

        assert model._newton_root(fdf, 1.0, 0.0, 3.0, 0.0, maxiter=100) == (1.0, 0.0)
        assert calls == [1.0]

    @pytest.mark.parametrize("slope, most", [
        (lambda x: 0.0, 100),                                 # every step a midpoint
        (lambda x: 1.0 if x == 0.0 else -3.0 * x * x, 10),    # one midpoint, then Newton
    ], ids=["zero-everywhere", "positive-at-start"])
    def test_nonnegative_slope_bisects_and_converges(self, slope, most):
        calls = []

        def fdf(x):
            calls.append(x)
            return 2.0 - x ** 3, slope(x)

        root, _ = model._newton_root(fdf, 0.0, 0.0, 2.0, 1e-12, maxiter=100)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert calls[1] == 1.0 and len(calls) <= most

    def test_failures_are_solver_errors(self):
        # the CLI maps SolverError to exit 3
        for exc in (BracketingFailure, NonFinite, NoConvergence):
            assert issubclass(exc, SolverError)
