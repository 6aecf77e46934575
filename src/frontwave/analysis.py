"""Post-processing: dichotomy classification and asymptotic-claim checks.

Everything here consumes immutable traces, snapshots and profiles and is
pure. The vanishing label is the solver's own stop rule, read back from the
trace's ``stop_reason``; there is no second vanishing test here. The checks
mirror the sharp front asymptotics: h(t) = c0 t + h* + o(1) (speed fit and
trailing-window drift), convergence of (u, v) to the shifted profile
(phi(h-x), psi(h-x)) near the front, exponential interior approach to the
equilibrium on rays x in [c1 t, c2 t], the exponential upper envelope
(u, v) <= (u* + M e^{-delta t}, v* + M e^{-delta t}), and the two
comparison-function parameter systems (the front supersolution in
(K, sigma, delta) and the mirrored lower-solution system in (epsilon,
sigma)), solved by a deterministic recipe with margin 2 so every inequality
carries positive slack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import (
    EmptyRayWindow,
    Infeasible,
    InfeasibleBracket,
    WindowOutsideDomain,
    WindowTooShort,
)
from .fbsolver import RunTrace, Snapshot
from .model import BoundaryKind, Equilibrium, ModelParams, Nonlinearity, _line_fit
from .semiwave import SemiWaveProfile
from ._format import json_dumps

__all__ = [
    "Classification",
    "SpeedFit",
    "DriftFit",
    "InteriorFit",
    "EnvelopeParams",
    "SupersolutionParams",
    "LowerSolutionParams",
    "OutcomeReport",
    "classify",
    "front_speed",
    "front_drift",
    "profile_error",
    "interior_convergence_fit",
    "upper_envelope_params",
    "supersolution_slacks",
    "supersolution_feasibility",
    "lowersolution_feasibility",
    "build_outcome_report",
]


_H_STABLE_TOL = 1e-3    # front movement allowed over the last half of a vanishing run
_INTERIOR_TOL = 0.1    # spreading: interior within 10% of (u*, v*)


class Classification(str, Enum):
    SPREADING = "Spreading"
    VANISHING = "Vanishing"
    UNDECIDED = "Undecided"


def classify(trace: RunTrace, l0: float, eq: Equilibrium | None) -> Classification:
    """Spreading / Vanishing / Undecided from a run's trace.

    Vanishing is the run's own stop rule (``stop_reason == "vanishing"``,
    fbsolver's sustained sup-norm test) with a stabilized front. Spreading
    needs the front past max(2 l0, h0 + 5) with the interior near the
    equilibrium at x = h/2 (taken from the last snapshot when one exists,
    else from the sup series). Below the spreading regime l0 is infinite and
    ``eq`` is None, so the front goal is never reached. A trace that shows
    neither is Undecided.
    """
    h_mid = float(np.interp(0.5 * trace.t[-1], trace.t, trace.h))
    if trace.stop_reason == "vanishing" and abs(trace.h[-1] - h_mid) < _H_STABLE_TOL:
        return Classification.VANISHING

    if trace.h[-1] >= max(2.0 * l0, trace.h0 + 5.0):
        if trace.snapshots:
            s = trace.snapshots[-1]
            i = int(np.argmin(np.abs(s.x - 0.5 * s.h)))
            near = (abs(s.u[i] - eq.u_star) <= _INTERIOR_TOL * eq.u_star
                    and abs(s.v[i] - eq.v_star) <= _INTERIOR_TOL * eq.v_star)
        else:
            near = (trace.sup_u[-1] >= (1.0 - _INTERIOR_TOL) * eq.u_star
                    and trace.sup_v[-1] >= (1.0 - _INTERIOR_TOL) * eq.v_star)
        if near:
            return Classification.SPREADING
    return Classification.UNDECIDED


@dataclass(frozen=True)
class SpeedFit:
    c_hat: float
    stderr: float


def front_speed(trace: RunTrace) -> SpeedFit:
    """Least-squares slope of h(t) over the trailing half of the trace.

    The slope standard error carries the AR(1) effective-sample-size factor
    sqrt((1+rho)/(1-rho)) from the lag-1 residual autocorrelation: the
    residuals are a smooth decaying transient, not white noise, and the
    plain OLS stderr would be misleadingly tight.
    """
    mask = trace.t >= 0.5 * trace.t[-1]
    x = trace.t[mask]
    y = trace.h[mask]
    if x.size < 10:
        raise WindowTooShort(f"{x.size} samples in the trailing half")
    slope, _, _, resid = _line_fit(x, y)
    var = float(np.sum(resid ** 2))
    se = math.sqrt(var / (x.size - 2) / float(np.sum((x - x.mean()) ** 2)))
    if var > 0.0:
        rho = float(np.sum(resid[1:] * resid[:-1]) / var)
        rho = min(max(rho, 0.0), 0.999)
        se *= math.sqrt((1.0 + rho) / (1.0 - rho))
    return SpeedFit(c_hat=slope, stderr=se)


@dataclass(frozen=True)
class DriftFit:
    h_star_hat: float
    drift_variation: float
    prev_variation: float
    converged: bool


def front_drift(trace: RunTrace, c0: float) -> DriftFit:
    """Mean and variation of h(t) - c0 t over the trailing quarter.

    Convergence of the drift is declared when the trailing-quarter variation
    is at most half of the previous quarter's.
    """
    t_end = trace.t[-1]
    drift = trace.h - c0 * trace.t
    last = trace.t >= 0.75 * t_end
    prev = (trace.t >= 0.5 * t_end) & ~last
    if last.sum() < 5 or prev.sum() < 5:
        raise WindowTooShort("fewer than 5 samples in a drift quarter")
    var_last = float(np.ptp(drift[last]))
    var_prev = float(np.ptp(drift[prev]))
    return DriftFit(
        h_star_hat=float(np.mean(drift[last])),
        drift_variation=var_last,
        prev_variation=var_prev,
        converged=var_last <= 0.5 * var_prev,
    )


def profile_error(snapshot: Snapshot, profile: SemiWaveProfile,
                  window: tuple[float, float]) -> float:
    """sup over the window of |u - phi(h-x)| + |v - psi(h-x)|, linear interp.

    Beyond the profile truncation the saturated values (u*, v*) extend it;
    the tail is exponentially close to them.
    """
    x_lo, x_hi = window
    if x_lo < -1e-9 or x_hi > snapshot.h + 1e-9 or x_lo >= x_hi:
        raise WindowOutsideDomain(f"window [{x_lo}, {x_hi}] vs front {snapshot.h}")
    mask = (snapshot.x >= x_lo - 1e-12) & (snapshot.x <= x_hi + 1e-12)
    if not mask.any():
        raise WindowOutsideDomain("window contains no grid nodes")
    s = snapshot.h - snapshot.x[mask]
    phi = np.interp(s, profile.x_nodes, profile.phi)
    psi = np.interp(s, profile.x_nodes, profile.psi)
    return float(np.max(np.abs(snapshot.u[mask] - phi) + np.abs(snapshot.v[mask] - psi)))


@dataclass(frozen=True)
class InteriorFit:
    M_hat: float
    delta_hat: float
    r_squared: float


def interior_convergence_fit(snapshots: list[Snapshot], eq: Equilibrium,
                             c1: float, c2: float) -> InteriorFit:
    """Fit e(t) = sup_{x in [c1 t, c2 t]} max(u*-u, v*-v, 0) to M e^{-delta t}.

    The leading quarter of snapshot times is dropped (pre-asymptotic
    transient); the window must stay behind the front.
    """
    if not (0.0 < c1 < c2):
        raise ValueError("need 0 < c1 < c2")
    if not snapshots:
        raise WindowTooShort("no snapshots")
    t_last = snapshots[-1].t
    times, errors = [], []
    for s in snapshots:
        if s.t < 0.25 * t_last:
            continue
        if c2 * s.t > s.h:
            raise EmptyRayWindow(f"c2*t = {c2 * s.t:.3g} ahead of front {s.h:.3g} at t={s.t:.3g}")
        mask = (s.x >= c1 * s.t) & (s.x <= c2 * s.t)
        if not mask.any():
            raise EmptyRayWindow(f"no grid nodes in [{c1 * s.t:.3g}, {c2 * s.t:.3g}]")
        e = max(float(np.max(eq.u_star - s.u[mask])), float(np.max(eq.v_star - s.v[mask])), 0.0)
        times.append(s.t)
        errors.append(e)
    times = np.asarray(times)
    errors = np.asarray(errors)
    usable = errors > 1e-300
    if int(usable.sum()) < 3:
        raise WindowTooShort("fewer than 3 positive interior errors to fit")
    slope, intercept, r2, _ = _line_fit(times[usable], np.log(errors[usable]))
    return InteriorFit(M_hat=float(np.exp(intercept)), delta_hat=-slope, r_squared=r2)


# ---------------------------------------------------------------------------
# exponential upper envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeParams:
    M1: float
    M2: float
    delta: float

    @property
    def M(self) -> float:
        return max(self.M1, self.M2)


def upper_envelope_params(eq: Equilibrium, nl: Nonlinearity, params: ModelParams,
                          sup_u0: float, sup_v0: float) -> EnvelopeParams:
    """Amplitudes and rate of the envelope (u*+M1 e^{-dt}, v*+M2 e^{-dt}).

    The ratio M1/M2 must sit in (H'(v*)/a, b/G'(u*)); it is fixed at the
    geometric mean of the bracket, then both amplitudes scale up until the
    initial sup-norms are covered. The rate is the smaller of the two margin
    expressions (a M1 - H'(v*) M2)/M1 and (b M2 - G'(u*) M1)/M2.
    """
    lo = eq.Hp_vstar / params.a
    hi = params.b / eq.Gp_ustar
    if hi <= lo:
        raise InfeasibleBracket(f"ratio bracket ({lo:.3g}, {hi:.3g}) empty")
    ratio = math.sqrt(lo * hi)
    floor = 1e-6 * max(eq.u_star, eq.v_star)
    need1 = max(sup_u0 - eq.u_star, 0.0)
    need2 = max(sup_v0 - eq.v_star, 0.0)
    M2 = max(need2, need1 / ratio, floor)
    M1 = ratio * M2
    delta = min((params.a * M1 - eq.Hp_vstar * M2) / M1,
                (params.b * M2 - eq.Gp_ustar * M1) / M2)
    return EnvelopeParams(M1=M1, M2=M2, delta=delta)


# ---------------------------------------------------------------------------
# comparison-function parameter systems at the front
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupersolutionParams:
    K: float
    sigma: float
    delta: float
    slacks: dict


@dataclass(frozen=True)
class LowerSolutionParams:
    epsilon: float
    sigma: float
    slacks: dict


def _head_ingredients(profile: SemiWaveProfile):
    """min slopes over [0,1] and the values at 1 of both components."""
    dx = profile.x_nodes[1] - profile.x_nodes[0]
    mask = profile.x_nodes <= 1.0 + 1e-12
    if mask.sum() < 3:
        raise Infeasible("profile grid does not resolve [0, 1]")
    dphi = np.gradient(profile.phi, dx)
    dpsi = np.gradient(profile.psi, dx)
    min_phi_p = float(np.min(dphi[mask]))
    min_psi_p = float(np.min(dpsi[mask]))
    phi1 = float(np.interp(1.0, profile.x_nodes, profile.phi))
    psi1 = float(np.interp(1.0, profile.x_nodes, profile.psi))
    return min_phi_p, min_psi_p, phi1, psi1


def _ratio_slope_max(f, df, z_lo: float, z_hi: float, n: int = 2048) -> float:
    """max over [z_lo, z_hi] of d/dz (f(z)/z); negative for concave f."""
    if not (0.0 < z_lo < z_hi):
        raise Infeasible(f"degenerate bound interval [{z_lo:.3g}, {z_hi:.3g}]")
    z = np.linspace(z_lo, z_hi, n)
    vals = (z * np.asarray(df(z), dtype=float) - np.asarray(f(z), dtype=float)) / (z * z)
    return float(np.max(vals))


def supersolution_slacks(profile: SemiWaveProfile, params: ModelParams,
                         nl: Nonlinearity, eq: Equilibrium,
                         K: float, sigma: float, delta: float) -> dict:
    """Slack of each front-supersolution inequality at (K, sigma, delta).

    Positive values mean the inequality holds strictly; K appears on the
    large side of every constraint.
    """
    min_phi_p, min_psi_p, phi1, psi1 = _head_ingredients(profile)
    B_psi = _ratio_slope_max(nl.H, nl.dH, psi1, 2.0 * eq.v_star)
    B_phi = _ratio_slope_max(nl.G, nl.dG, phi1, 2.0 * eq.u_star)
    c0 = profile.c
    return {
        "front": sigma * delta - c0 * K,
        "slope_u": sigma * min_phi_p - K * eq.u_star,
        "concavity_u": (-psi1 * psi1 * B_psi) - delta * K * eq.u_star,
        "slope_v": sigma * min_psi_p - K * eq.v_star,
        "concavity_v": (-phi1 * phi1 * B_phi) - delta * K * eq.v_star,
    }


def supersolution_feasibility(profile: SemiWaveProfile, params: ModelParams,
                              nl: Nonlinearity, eq: Equilibrium,
                              K: float = 1.0) -> SupersolutionParams:
    """Deterministic feasible point of the supersolution system.

    K is fixed first, then delta from the concavity caps, then sigma from
    the slope floors and the front inequality, each with margin 2 so all
    five inequalities come out with positive slack.
    """
    min_phi_p, min_psi_p, phi1, psi1 = _head_ingredients(profile)
    if min_phi_p <= 0.0 or min_psi_p <= 0.0:
        raise Infeasible("profile slopes not positive on [0, 1]")
    B_psi = _ratio_slope_max(nl.H, nl.dH, psi1, 2.0 * eq.v_star)
    B_phi = _ratio_slope_max(nl.G, nl.dG, phi1, 2.0 * eq.u_star)
    if B_psi >= 0.0 or B_phi >= 0.0:
        raise Infeasible(f"concavity bounds not negative: {B_psi:.3g}, {B_phi:.3g}")
    delta = 0.5 * min((-psi1 * psi1 * B_psi) / (K * eq.u_star),
                      (-phi1 * phi1 * B_phi) / (K * eq.v_star))
    sigma = 2.0 * max(K * eq.u_star / min_phi_p,
                      K * eq.v_star / min_psi_p,
                      profile.c * K / delta)
    slacks = supersolution_slacks(profile, params, nl, eq, K, sigma, delta)
    if min(slacks.values()) <= 0.0:
        raise Infeasible(f"recipe produced nonpositive slack: {slacks}")
    return SupersolutionParams(K=K, sigma=sigma, delta=delta, slacks=slacks)


def lowersolution_feasibility(profile: SemiWaveProfile, params: ModelParams,
                              nl: Nonlinearity, eq: Equilibrium) -> LowerSolutionParams:
    """Mirrored lower-solution system in (epsilon, sigma).

    Uses the ratio-slope bounds over the lower intervals [psi(1)/2, v*] and
    [phi(1)/2, u*]; sigma is capped by those bounds and by c0, epsilon by
    the slope-to-value ratios and sigma/c0, again with margin 2.
    """
    min_phi_p, min_psi_p, phi1, psi1 = _head_ingredients(profile)
    if min_phi_p <= 0.0 or min_psi_p <= 0.0:
        raise Infeasible("profile slopes not positive on [0, 1]")
    C_psi = _ratio_slope_max(nl.H, nl.dH, 0.5 * psi1, eq.v_star)
    C_phi = _ratio_slope_max(nl.G, nl.dG, 0.5 * phi1, eq.u_star)
    if C_psi >= 0.0 or C_phi >= 0.0:
        raise Infeasible(f"concavity bounds not negative: {C_psi:.3g}, {C_phi:.3g}")
    c0 = profile.c
    sigma = 0.5 * min((-psi1 * psi1 * C_psi) / (2.0 * eq.v_star),
                      (-phi1 * phi1 * C_phi) / (2.0 * eq.u_star),
                      c0)
    epsilon = 0.5 * min(min_phi_p / (2.0 * phi1),
                        min_psi_p / (2.0 * psi1),
                        sigma / c0)
    slacks = {
        "sigma_concavity_u": (-psi1 * psi1 * C_psi) / (2.0 * eq.v_star) - sigma,
        "sigma_concavity_v": (-phi1 * phi1 * C_phi) / (2.0 * eq.u_star) - sigma,
        "sigma_below_c0": c0 - sigma,
        "epsilon_slope_u": min_phi_p / (2.0 * phi1) - epsilon,
        "epsilon_slope_v": min_psi_p / (2.0 * psi1) - epsilon,
        "front": sigma - c0 * epsilon,
    }
    if min(slacks.values()) <= 0.0:
        raise Infeasible(f"recipe produced nonpositive slack: {slacks}")
    return LowerSolutionParams(epsilon=epsilon, sigma=sigma, slacks=slacks)


# ---------------------------------------------------------------------------
# aggregate outcome report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomeReport:
    classification: Classification
    c_hat: float | None
    c_hat_stderr: float | None
    h_star_hat: float | None
    drift_variation: float | None
    profile_sup_error: tuple
    interior_fit: dict | None
    run: dict  # the solver's RunStats: step counts and the accepted dt range
    c0_search: dict | None  # find_c0's work and iterates, as in speeds.json; None without c0

    def to_json(self) -> str:
        return json_dumps(asdict(self))


def build_outcome_report(trace: RunTrace, l0: float, boundary: BoundaryKind,
                         c0: float | None = None,
                         profile: SemiWaveProfile | None = None,
                         eq: Equilibrium | None = None,
                         c0_search: dict | None = None) -> OutcomeReport:
    """Assemble the outcome report; estimate fields stay None off-regime.

    ``l0`` and ``eq`` feed ``classify``. Speed and drift stay None when the
    trace is too short to fit them. Front windows follow the boundary
    operator: the whole domain [0, h] for Neumann, [c0 t / 2, h] for
    Dirichlet. The interior fit takes the rays [c0 t / 4, c0 t / 2].
    ``c0_search`` is passed through to the report.
    """
    label = classify(trace, l0, eq)
    c_hat = stderr = h_star = drift_var = None
    errors: list = []
    interior = None
    if label is Classification.SPREADING:  # so eq is not None
        try:
            fit = front_speed(trace)
            c_hat, stderr = fit.c_hat, fit.stderr
            if c0 is not None:
                drift = front_drift(trace, c0)
                h_star, drift_var = drift.h_star_hat, drift.drift_variation
        except WindowTooShort:
            pass  # too few trailing samples: the estimates stay None
        if c0 is not None and profile is not None:
            for s in trace.snapshots:
                x_lo = 0.0 if boundary is BoundaryKind.NEUMANN else 0.5 * c0 * s.t
                if x_lo >= s.h:
                    continue
                errors.append((s.t, profile_error(s, profile, (x_lo, s.h))))
        if c0 is not None and trace.snapshots:
            try:
                ifit = interior_convergence_fit(trace.snapshots, eq, 0.25 * c0, 0.5 * c0)
                interior = {"M_hat": ifit.M_hat, "delta_hat": ifit.delta_hat,
                            "r2": ifit.r_squared}
            except (EmptyRayWindow, WindowTooShort):
                pass  # no usable ray window: the fit stays None
    return OutcomeReport(
        classification=label,
        c_hat=c_hat,
        c_hat_stderr=stderr,
        h_star_hat=h_star,
        drift_variation=drift_var,
        profile_sup_error=tuple(errors),
        interior_fit=interior,
        run=asdict(trace.stats),
        c0_search=c0_search,
    )
