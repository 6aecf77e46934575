"""Invariants of the free-boundary solver over random admissible parameters."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.optimize import brentq

from frontwave.analysis import Classification, classify
from frontwave.fbsolver import SolverNumerics, StopRule, simulate
from frontwave.model import InitialData, ModelParams, Nonlinearity, compute_equilibrium, compute_l0
from frontwave import semiwave
from frontwave.semiwave import (
    SemiwaveNumerics,
    compute_cstar,
    decay_rate_theoretical,
    find_c0,
    solve_semiwave,
)

_rates = st.floats(0.5, 2.0)
# saturating sets in the spreading regime: the drawn R0 = hp gp / (a b) > 1 fixes gp
_spreading_sets = dict(
    d1=st.floats(0.5, 3.0), d2=st.floats(0.5, 3.0), a=_rates, b=_rates,
    mu1=st.floats(0.2, 2.0), mu2=st.floats(0.2, 2.0), hp=st.floats(0.5, 3.0),
    hq=_rates, gq=_rates, r0=st.floats(1.5, 8.0), dirichlet=st.booleans())

# no shrink phase: each shrink step reruns a solve, and a red run spent
# minutes shrinking; the failing example is reported as drawn
_NO_SHRINK = (Phase.explicit, Phase.generate, Phase.target)
# scipy's brentq run to its tightest tolerance: the oracle for every closed-form root
_TIGHT = dict(xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def _model(d1, d2, a, b, mu1, mu2, hp, hq, gq, r0, dirichlet):
    params = ModelParams(d1, d2, a, b, mu1, mu2, "dirichlet" if dirichlet else "neumann")
    return params, Nonlinearity(hp, hq, r0 * a * b / hp, gq)


def _cstar_ref(nl, params):
    """c* = min of c(lam) = (S + R) / (2 lam), R = sqrt(D^2 + 4 H'(0)G'(0)),
    where the numerator of dc/dlam, lam (S' + R') - (S + R), changes sign."""
    d1, d2, a, b = params.d1, params.d2, params.a, params.b
    k = float(nl.dH(0.0)) * float(nl.dG(0.0))

    def branch(lam):
        S = (d1 + d2) * lam * lam - a - b
        D = (d1 - d2) * lam * lam - a + b
        R = math.sqrt(D * D + 4.0 * k)
        return S + R, 2.0 * (d1 + d2) * lam + 2.0 * (d1 - d2) * lam * D / R

    # the numerator is -(S + R) < 0 as lam -> 0 and grows like lam^2
    lam = brentq(lambda x: x * branch(x)[1] - branch(x)[0], 1e-12, 1e12, maxiter=500, **_TIGHT)
    return branch(lam)[0] / (2.0 * lam)


@settings(max_examples=15, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(**_spreading_sets)
def test_invariants_on_random_spreading_sets(**drawn):
    params, nl = _model(**drawn)
    shape = InitialData.sine if drawn["dirichlet"] else InitialData.cosine_bump
    init = shape(3.0, 0.5, 201)
    stop = StopRule(t_end=3.0)
    trace = simulate(params, nl, init, SolverNumerics(n=50, snapshot_times=(1.0, 2.0, 3.0)), stop)
    for snap in trace.snapshots:
        assert snap.u.min() >= 0.0 and snap.v.min() >= 0.0
    assert np.all(np.diff(trace.h) >= 0.0) and np.all(trace.hprime >= 0.0)
    ref = simulate(params, nl, init, SolverNumerics(n=50, fixed_dt=1e-3, trace_cadence=1.0), stop)
    assert abs(trace.h[-1] / ref.h[-1] - 1.0) <= 2e-3


@settings(max_examples=15, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(**_spreading_sets)
def test_small_start_vanishes_on_random_spreading_sets(**drawn):
    # the vanishing side of the dichotomy: half the threshold length, a small bump
    params, nl = _model(**drawn)
    l0 = compute_l0(nl, params)
    shape = InitialData.sine if drawn["dirichlet"] else InitialData.cosine_bump
    init = shape(0.5 * l0, 0.05, 201)
    trace = simulate(params, nl, init, SolverNumerics(n=50), StopRule(t_end=60.0))
    assert trace.stop_reason == "vanishing"
    assert classify(trace, l0, compute_equilibrium(nl, params)) is Classification.VANISHING
    assert trace.h[-1] < l0


@settings(max_examples=15, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(**_spreading_sets)
def test_c0_below_cstar_on_random_spreading_sets(**drawn):
    params, nl = _model(**drawn)
    pair, _ = find_c0(nl, params)
    assert 0.0 < pair.c0 < pair.c_star
    # and F changes sign within 10 _C_TOL of c0
    eq = compute_equilibrium(nl, params)
    dc = 10.0 * semiwave._C_TOL

    def F(c):
        prof = solve_semiwave(c, nl, params, eq=eq, cstar=pair.c_star)
        return params.mu1 * prof.slope0_phi + params.mu2 * prof.slope0_psi - c

    assert F(pair.c0 - dc) > 0.0 > F(pair.c0 + dc)
    # c*, v*, beta(0) and beta(c0) against scipy's brentq run to its tightest tolerance
    assert abs(pair.c_star / _cstar_ref(nl, params) - 1.0) <= 1e-13
    a, b, d1, d2 = params.a, params.b, params.d1, params.d2
    v_ref = brentq(lambda v: b * v - float(nl.G(float(nl.H(v)) / a)),
                   0.5 * eq.v_star, 2.0 * eq.v_star, **_TIGHT)
    assert abs(eq.v_star / v_ref - 1.0) <= 1e-13
    prod = eq.Hp_vstar * eq.Gp_ustar
    for c in (0.0, pair.c0):
        bmax = min((-c + math.sqrt(c * c + 4.0 * d1 * a)) / (2.0 * d1),
                   (-c + math.sqrt(c * c + 4.0 * d2 * b)) / (2.0 * d2))
        beta_ref = brentq(lambda x: (a - d1 * x * x - c * x) * (b - d2 * x * x - c * x) - prod,
                          0.0, bmax, **_TIGHT)
        beta, _ = decay_rate_theoretical(nl, params, c, eq)
        assert abs(beta / beta_ref - 1.0) <= 1e-13


_log_uniform = st.floats(-3.0, 3.0).map(math.exp)


@settings(max_examples=300, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(a=_log_uniform, b=_log_uniform, hp=_log_uniform, hq=_log_uniform, gq=_log_uniform,
       r0=st.floats(1.0001, 8.0), linear=st.sampled_from(["", "hq", "gq"]))
def test_closed_form_equilibrium_residuals(a, b, hp, hq, gq, r0, linear):
    # one component may be linear (q = 0), not both: the pair must saturate
    nl = Nonlinearity(hp, 0.0 if linear == "hq" else hq, r0 * a * b / hp,
                      0.0 if linear == "gq" else gq)
    eq = compute_equilibrium(nl, ModelParams(1.0, 1.0, a, b, 1.0, 1.0))
    assert abs(a * eq.u_star - nl.H(eq.v_star)) <= 1e-12 * a * eq.u_star
    assert abs(b * eq.v_star - nl.G(eq.u_star)) <= 1e-12 * b * eq.v_star


@pytest.mark.parametrize("d1, d2", [(1e-7, 1e-7), (1e7, 1e7), (1e-7, 1e7)])
def test_cstar_with_tangency_outside_the_unit_scan(d1, d2):
    # lambda* is 3.2e3, 3.2e-4 and 3.7e-4 here, outside [1e-3, 1e3]
    params, nl = ModelParams(d1, d2, 1.0, 1.0, 1.0, 1.0, "neumann"), Nonlinearity()
    c_star, lam_star = compute_cstar(nl, params)
    assert not 1e-3 <= lam_star <= 1e3
    assert abs(c_star / _cstar_ref(nl, params) - 1.0) <= 1e-13


@settings(max_examples=15, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(**_spreading_sets)
def test_tail_rate_truncation_on_random_spreading_sets(**drawn):
    # the default x_max = 12/beta(c) against three times that length
    params, nl = _model(**drawn)
    pair, prof = find_c0(nl, params)
    wide, _ = find_c0(nl, params, SemiwaveNumerics(x_max=3.0 * prof.x_max))
    assert abs(pair.c0 / wide.c0 - 1.0) <= 2e-10


@settings(max_examples=12, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(**_spreading_sets)
def test_swapping_the_components_swaps_the_profile(**drawn):
    # (phi, psi) of a model is (psi, phi) of the model with the components
    # swapped, and c0 is the same; on the symmetric set phi == psi, so only
    # an asymmetric set can see a component mix-up
    params, nl = _model(**drawn)
    eq = compute_equilibrium(nl, params)
    gp = drawn["r0"] * drawn["a"] * drawn["b"] / drawn["hp"]  # as _model draws it
    swapped = ModelParams(params.d2, params.d1, params.b, params.a, params.mu2, params.mu1,
                          params.boundary)
    pair, prof = find_c0(nl, params)
    pair_s, prof_s = find_c0(Nonlinearity(gp, drawn["gq"], drawn["hp"], drawn["hq"]), swapped)
    assert abs(pair_s.c0 / pair.c0 - 1.0) <= 1e-12
    assert prof_s.x_nodes.size == prof.x_nodes.size
    assert np.max(np.abs(prof_s.phi - prof.psi)) <= 1e-12 * eq.v_star
    assert np.max(np.abs(prof_s.psi - prof.phi)) <= 1e-12 * eq.u_star
