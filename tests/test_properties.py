"""Invariants of the free-boundary solver over random admissible parameters."""

import numpy as np
from hypothesis import given, settings, strategies as st

from frontwave.fbsolver import SolverNumerics, StopRule, simulate
from frontwave.model import InitialData, ModelParams, compute_equilibrium, saturating
from frontwave.semiwave import SemiwaveNumerics, find_c0, solve_semiwave

_rates = st.floats(0.5, 2.0)
# saturating sets in the spreading regime: the drawn R0 = hp gp / (a b) > 1 fixes gp
_spreading_sets = dict(
    d1=st.floats(0.5, 3.0), d2=st.floats(0.5, 3.0), a=_rates, b=_rates,
    mu1=st.floats(0.2, 2.0), mu2=st.floats(0.2, 2.0), hp=st.floats(0.5, 3.0),
    hq=_rates, gq=_rates, r0=st.floats(1.5, 8.0), dirichlet=st.booleans())


def _model(d1, d2, a, b, mu1, mu2, hp, hq, gq, r0, dirichlet):
    params = ModelParams(d1, d2, a, b, mu1, mu2, "dirichlet" if dirichlet else "neumann")
    return params, saturating(hp, hq, r0 * a * b / hp, gq)


@settings(max_examples=15, deadline=None, derandomize=True)
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


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**_spreading_sets)
def test_c0_below_cstar_on_random_spreading_sets(**drawn):
    params, nl = _model(**drawn)
    pair, _ = find_c0(nl, params)
    assert 0.0 < pair.c0 < pair.c_star
    # and F changes sign within 10 c_tol of c0
    eq = compute_equilibrium(nl, params)
    dc = 10.0 * SemiwaveNumerics().c_tol

    def F(c):
        prof = solve_semiwave(c, nl, params, eq=eq, cstar=pair.c_star)
        return params.mu1 * prof.slope0_phi + params.mu2 * prof.slope0_psi - c

    assert F(pair.c0 - dc) > 0.0 > F(pair.c0 + dc)
