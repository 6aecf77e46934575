"""Semi-wave profiles, minimal speed, and the free-boundary speed c0.

The travelling ansatz on the half line gives the two-point problem

    d1*phi'' - c*phi' - a*phi + H(psi) = 0,   x > 0,
    d2*psi'' - c*psi' - b*psi + G(phi) = 0,   x > 0,
    phi(0) = psi(0) = 0,   (phi, psi)(inf) = (u*, v*),

which has a unique strictly increasing solution for every speed c in
[0, c*). Three speeds matter:

* c*: smallest c for which P(lam, c) = (d1 lam^2 - c lam - a)
  (d2 lam^2 - c lam - b) - H'(0)G'(0) has a positive double root with a
  positive eigenvector. On the admissible branch (both factors negative)

      c(lam) = (S + sqrt(D^2 + 4 H'(0)G'(0))) / (2 lam),
      S = (d1 lam^2 - a) + (d2 lam^2 - b),  D = (d1 lam^2 - a) - (d2 lam^2 - b),

  and c* = min over lam > 0 = c(lambda*), where dP/dlam = 0 along the
  branch. A scan of c(lam) brackets lambda*, and the package's scalar
  root-finder (model._newton_root) solves dP/dlam(lam, c(lam)) = 0 in lam.

* c0: the unique root in (0, c*) of F(c) = mu1*phi_c'(0) + mu2*psi_c'(0) - c.
  F(0) > 0 since the slopes are positive. Each profile solve also returns
  the speed sensitivity s = d(phi, psi)/dc from the Jacobian it already
  factors, which gives F'(c) and a tangent predictor for the next solve;
  Newton's method on F in a sign bracket (model._newton_root) finds c0.

* beta(c): the tail rate in (u* - phi, v* - psi) ~ e^{-beta x} (p, q).
  Linearizing at (u*, v*) gives (d1 b^2 + c b - a)(d2 b^2 + c b - b) =
  H'(v*) G'(u*); a positive eigenvector (p, q) forces both factors
  negative, i.e. the smaller positive root; the same root-finder finds it.

The BVP is discretized by second-order central differences with a hard
pin to (u*, v*) at the truncation point X_max = 12/beta(c). The discrete
system is solved on one (2, n+1) array w = [phi; psi], the stepper's
layout; the interleaved unknowns (phi_1, psi_1, phi_2, ...) are the band
solver's order only. A damped Newton iteration starts cold from the guess
(u* tanh x, v* tanh x) or warm from a neighbouring speed's predicted
profile, whose grid may be shorter or longer than the new one. Newton
stops at the rounding level of the discrete residual, 8 eps max(d1 u*,
d2 v*) / dx^2; a profile is accepted at a residual of 1e-8. The half-line
steady state (the bounded positive solution at rest) is the c = 0 profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NoAdmissibleRoot,
    NoConvergence,
    NoSignChange,
    NoTangency,
    SolverError,
    SpeedOutOfRange,
    TailUnderflow,
)
from .model import (
    Equilibrium,
    ModelParams,
    Nonlinearity,
    _line_fit,
    _newton_root,
    _one_sided_slope,
    compute_equilibrium,
)
from ._format import write_csv
from ._lapack import dgbsv

__all__ = [
    "SemiwaveNumerics",
    "SemiWaveProfile",
    "SpeedPair",
    "DecayFit",
    "compute_cstar",
    "solve_semiwave",
    "find_c0",
    "decay_rate_theoretical",
    "decay_rate_empirical",
]

# profile values this close to saturation are below double-precision
# resolution of u* - phi; strictness checks skip them
_SATURATION_TOL = 1e-12
_RESIDUAL_TOL = 1e-8            # sup steady residual a profile must reach
# Newton stops at _STOP_ROUNDING * max(d1 u*, d2 v*) / dx^2. Run until no
# step decreases it, the residual ends at <= 1.9 eps max(d1 u*, d2 v*) / dx^2
# (2 026 solves on 144 parameter sets), so 8 eps stays above that floor; a
# stop at 64 eps moved c0 by up to 5e-11. With d1 = d2 from 200 to 12 000 the
# last step still lands on the floor, below _RESIDUAL_TOL, and c0 moves by at
# most 2.1e-12 against a stop at 1e-10
_STOP_ROUNDING = 8.0 * float(np.finfo(float).eps)
# cold solves take 4 steps at c = 0 and 22-23 at 0.99 c* on the test sets;
# at 0.999 c* some of them need more than 40
_MAX_NEWTON = 40
_C_MAX_FRAC = 0.999             # top of the c0 bracket until F(c) <= 0 is seen, over c*
_C_TOL = 1e-9                   # bound on the last Newton step of the c0 search
_F_TOL = 1e-8                   # bound on |F(c0)|
# profile solves per c0 search before NoConvergence: bisection alone needs
# ~30 to shrink the bracket from c* to _C_TOL; Newton takes 3-11 on the test sets
_MAX_C0_SOLVES = 50


@dataclass(frozen=True)
class SemiwaveNumerics:
    dx: float = 0.02
    x_max: float | None = None      # None: 12/beta(c), rounded to the grid

    def __post_init__(self):
        # written as not (...) so that NaN fails too
        if not (0 < self.dx < math.inf and (self.x_max is None or 0 < self.x_max < math.inf)):
            raise ValueError("semi-wave numerics need positive finite dx and x_max (or None)")


@dataclass(frozen=True)
class SemiWaveProfile:
    """Monotone half-line profile at speed c, pinned to (u*, v*) at x_max."""

    c: float
    x_nodes: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    slope0_phi: float
    slope0_psi: float
    residual_inf: float
    x_max: float
    newton_steps: int = 0           # band solves, a failed warm start's included
    cold: bool = True               # Newton started from the tanh guess
    dphi_dc: np.ndarray | None = None   # speed sensitivity on the same grid
    dpsi_dc: np.ndarray | None = None

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "phi", "psi"),
                  zip(self.x_nodes.tolist(), self.phi.tolist(), self.psi.tolist()))


@dataclass(frozen=True)
class SpeedPair:
    c_star: float
    c0: float
    lambda_star: float
    F_residual: float
    profile_solves: int             # solve_semiwave calls made by find_c0
    newton_steps: int               # band solves (dgbsv calls) over those calls
    cold_solves: int                # those calls that started from the tanh guess
    iterates: tuple                 # the search's (c, F(c)), in order


@dataclass(frozen=True)
class DecayFit:
    alpha: float
    r_squared: float


# ---------------------------------------------------------------------------
# minimal speed: tangency of the characteristic polynomial
# ---------------------------------------------------------------------------

def compute_cstar(nl: Nonlinearity, params: ModelParams) -> tuple[float, float]:
    """Minimal wave speed and its tangency root (c*, lambda*).

    Along the admissible branch c(lam), where P_c = -lam (A + B) > 0, the
    slope c'(lam) = -P_lam / P_c, so f(lam) = P_lam(lam, c(lam)) is positive
    below lambda* and negative above it, with f' = P_ll - P_lc P_lam / P_c.
    A scan of c(lam) over six decades centred on (sqrt(H'(0)G'(0)) /
    max(d1, d2))^(1/2) brackets lambda* by its minimum's two neighbours, and
    model._newton_root finds the root of f to the last bit; c* = c(lambda*).
    A minimum at an end of the scan raises NoTangency.
    """
    k = float(nl.dH(0.0)) * float(nl.dG(0.0))
    d1, d2, a, b = params.d1, params.d2, params.a, params.b
    if k <= a * b:
        raise NoTangency("reproduction number at or below 1: no positive growth mode")

    def c_branch(lam):
        fa = d1 * lam * lam - a
        fb = d2 * lam * lam - b
        return (fa + fb + np.sqrt((fa - fb) ** 2 + 4.0 * k)) / (2.0 * lam)

    def fdf(lam: float) -> tuple[float, float]:
        c = c_branch(lam)
        A = d1 * lam * lam - c * lam - a
        B = d2 * lam * lam - c * lam - b
        A_l, B_l = 2.0 * d1 * lam - c, 2.0 * d2 * lam - c
        P_l = A_l * B + A * B_l
        P_c = -lam * (A + B)
        P_ll = 2.0 * d1 * B + 2.0 * A_l * B_l + 2.0 * d2 * A
        P_lc = -(A + B) - lam * (A_l + B_l)
        return P_l, P_ll - P_lc * P_l / P_c

    lam_grid = math.sqrt(math.sqrt(k) / max(d1, d2)) * np.geomspace(1e-3, 1e3, 4001)
    i0 = int(np.argmin(c_branch(lam_grid)))
    if not 0 < i0 < lam_grid.size - 1:
        raise NoTangency(f"c(lambda) has no minimum inside the scan "
                         f"[{lam_grid[0]:.3g}, {lam_grid[-1]:.3g}]")
    lam, _ = _newton_root(fdf, float(lam_grid[i0]), float(lam_grid[i0 - 1]),
                          float(lam_grid[i0 + 1]), 0.0, maxiter=100)
    return float(c_branch(lam)), float(lam)


# ---------------------------------------------------------------------------
# tail decay rate at the saturated end
# ---------------------------------------------------------------------------

def decay_rate_theoretical(nl: Nonlinearity, params: ModelParams, c: float,
                           eq: Equilibrium | None = None) -> tuple[float, float]:
    """Tail rate beta and amplitude ratio p/q of the approach to (u*, v*).

    beta is the unique positive root of
        (a - d1 b^2 - c b)(b - d2 b^2 - c b) = H'(v*) G'(u*)
    with both factors positive (the eigenvector (p, q) is then positive);
    that is the smaller of the two positive roots of the quartic, found by
    Newton's method from 0 in [0, bmax], bmax the first zero of a factor.
    """
    eq = eq or compute_equilibrium(nl, params)
    prod = eq.Hp_vstar * eq.Gp_ustar
    a, b, d1, d2 = params.a, params.b, params.d1, params.d2
    if a * b <= prod:
        raise NoAdmissibleRoot("H'(v*)G'(u*) >= a*b: equilibrium not linearly stable")

    beta_a = (-c + math.sqrt(c * c + 4.0 * d1 * a)) / (2.0 * d1)
    beta_b = (-c + math.sqrt(c * c + 4.0 * d2 * b)) / (2.0 * d2)
    bmax = min(beta_a, beta_b)

    def fdf(beta: float) -> tuple[float, float]:
        fa = a - d1 * beta * beta - c * beta
        fb = b - d2 * beta * beta - c * beta
        return fa * fb - prod, -(2.0 * d1 * beta + c) * fb - (2.0 * d2 * beta + c) * fa

    beta, _ = _newton_root(fdf, 0.0, 0.0, bmax, 0.0, maxiter=100)
    p_over_q = eq.Hp_vstar / (a - d1 * beta * beta - c * beta)
    return float(beta), float(p_over_q)


# ---------------------------------------------------------------------------
# BVP solve: damped Newton on the discrete steady system
# ---------------------------------------------------------------------------

def _steady_residual(w, c, nl, params, dx):
    """Interior residual of the discretized steady system on w = [phi; psi],
    and the central gradient of w, which is -dr/dc."""
    mid = w[:, 1:-1]
    grad = (w[:, 2:] - w[:, :-2]) / (2.0 * dx)
    r = np.array([[params.d1], [params.d2]]) * ((w[:, :-2] - 2.0 * mid + w[:, 2:]) / (dx * dx))
    r -= c * grad
    r -= np.array([[params.a], [params.b]]) * mid
    r[0] += nl.H(mid[1])
    r[1] += nl.G(mid[0])
    return r, grad


def _bands(m, c, params, dx):
    """The Jacobian's constant bands in dgbsv's (7, 2m) layout.

    dgbsv's unknowns are interleaved (phi_1, psi_1, phi_2, ...); entry
    (i, j) of the pentadiagonal matrix sits at row 4 + i - j, column j.
    One node's (2, 7) block is written once and tiled over the m nodes;
    the transpose of the (2m, 7) result is Fortran-ordered, the layout
    dgbsv factors in place. Rows 0-1 hold the LU fill-in and need no values.
    """
    kap = np.array([params.d1, params.d2]) / (dx * dx)
    gam = c / (2.0 * dx)
    node = np.zeros((2, 7))
    node[:, 2] = kap - gam                               # w_{i+1}
    node[:, 4] = -2.0 * kap - (params.a, params.b)       # diagonal
    node[:, 6] = kap + gam                               # w_{i-1}
    band = np.tile(node, (m, 1))
    band[:2, 2] = band[-2:, 6] = 0.0                     # outside the matrix
    return band.T


def _jacobian(ab, band, w, nl):
    """Refill ``ab`` with the Newton matrix at w; dgbsv overwrites it."""
    np.copyto(ab, band)
    ab[3, 1::2] = nl.dH(w[1, 1:-1])                      # phi-row coupling to psi_i
    ab[5, 0::2] = nl.dG(w[0, 1:-1])                      # psi-row coupling to phi_i


def _newton(w, c, nl, params, dx, stop):
    """Damped Newton on w = [phi; psi] until the sup residual is at most ``stop``.

    Each band solve carries a second right-hand side, -dr/dc: the central
    gradient of w that _steady_residual returns with the residual. The last
    solve so gives the speed sensitivity s = dw/dc at interior nodes, with
    the Jacobian of the last step; a start already at ``stop`` makes one
    solve for s alone. The interleaved order (phi_1, psi_1, ...) is the
    band solver's only: its right-hand sides and solutions are seen as
    (2, m) through transposed views. Returns (w, sup residual, s, band
    solves). A step whose line search finds no decrease ends the iteration
    with the residual reached so far.
    """
    m = w.shape[1] - 2  # interior nodes
    band = _bands(m, c, params, dx)
    ab = np.empty_like(band, order="F")
    rhs = np.empty((2 * m, 2), order="F")
    r, grad = _steady_residual(w, c, nl, params, dx)
    res = float(np.max(np.abs(r)))
    steps = 0
    while True:
        _jacobian(ab, band, w, nl)
        np.negative(r, out=rhs[:, 0].reshape(m, 2).T)
        np.copyto(rhs[:, 1].reshape(m, 2).T, grad)
        _, _, sol, info = dgbsv(2, 2, ab, rhs, overwrite_ab=1, overwrite_b=1)
        steps += 1
        if info != 0:
            raise SolverError(f"Newton matrix solve failed (gbsv info={info})")
        delta, sens = sol[:, 0].reshape(m, 2).T, sol[:, 1].reshape(m, 2).T
        if res <= stop:
            break
        step = 1.0
        for _ in range(8):
            w_try = w.copy()
            w_try[:, 1:-1] += step * delta
            r_try, grad_try = _steady_residual(w_try, c, nl, params, dx)
            res_try = float(np.max(np.abs(r_try)))
            if res_try < res:
                w, r, grad, res = w_try, r_try, grad_try, res_try
                break
            step *= 0.5
        else:
            break  # no improving step: stagnated above the stopping level
        if res <= stop or steps >= _MAX_NEWTON:
            break
    return w, res, sens, steps


def _validate_profile(w, u_star, v_star):
    for row, w_star, name in zip(w, (u_star, v_star), ("phi", "psi")):
        if not np.all(np.isfinite(row)):
            raise SolverError(f"{name} contains non-finite values")
        if row[0] != 0.0:
            raise SolverError(f"{name}(0) not pinned to zero")
        if row.min() < 0.0 or row.max() > w_star:
            raise SolverError(f"{name} outside [0, {name}*]")
        # a decrease below the saturation tolerance is rounding next to w*
        tol = _SATURATION_TOL * max(w_star, 1.0)
        d = np.diff(row)
        if np.any(d < -tol):
            raise SolverError(f"{name} not monotone")
        unsaturated = (w_star - row[:-1]) > tol
        if np.any(d[unsaturated] <= 0.0):
            raise SolverError(f"{name} not strictly increasing away from saturation")


def solve_semiwave(c: float, nl: Nonlinearity, params: ModelParams,
                   numerics: SemiwaveNumerics | None = None,
                   eq: Equilibrium | None = None,
                   cstar: float | None = None,
                   initial_guess: SemiWaveProfile | None = None) -> SemiWaveProfile:
    """Solve the half-line profile at speed c in [0, c*).

    Damped Newton drives the discrete residual to its rounding level (see
    the module docstring), starting from ``initial_guess`` when it has the
    same dx (find_c0's tangent predictor) and from (u* tanh x, v* tanh x)
    otherwise; a warm start that fails falls back to the cold guess once.
    Nodes sit at k dx, so a guess on a shorter grid is extended by (u*, v*)
    and one on a longer grid is cut, its last node pinned again. The
    profile carries its speed sensitivity d(phi, psi)/dc, zero at both
    pinned ends. At c = 0 this is the half-line steady state;
    below threshold (R0 <= 1) the equilibrium, and with it the profile,
    does not exist (NoPositiveRoot).
    """
    num = numerics or SemiwaveNumerics()
    eq = eq or compute_equilibrium(nl, params)
    if c < 0:
        raise SpeedOutOfRange("negative speeds are not admissible")
    cs = cstar if cstar is not None else compute_cstar(nl, params)[0]
    if c >= cs:
        raise SpeedOutOfRange(f"c={c} >= c*={cs}")

    beta, _ = decay_rate_theoretical(nl, params, c, eq)
    x_max = 12.0 / beta if num.x_max is None else num.x_max
    n_cells = int(math.ceil(x_max / num.dx - 1e-12))
    if n_cells < 2:  # the slope stencil and the residual need an interior node
        raise ValueError(f"numerics.dx_semiwave = {num.dx} leaves {n_cells} cell on "
                         f"[0, x_max = {x_max:.6g}]: the semi-wave grid needs dx below x_max")
    x = np.linspace(0.0, n_cells * num.dx, n_cells + 1)
    dx = num.dx
    x_max = float(x[-1])

    warm = initial_guess is not None and abs(initial_guess.x_nodes[1] - dx) <= 1e-12 * dx
    w_star = np.array([[eq.u_star], [eq.v_star]])
    if warm:  # the guess's interior nodes that fit; (u*, v*) from there to the pin
        n = min(x.size, initial_guess.x_nodes.size) - 1
        w = np.full((2, x.size), w_star)
        w[0, :n], w[1, :n] = initial_guess.phi[:n], initial_guess.psi[:n]
    else:
        w = w_star * np.tanh(x)
        w[:, 0] = 0.0
        w[:, -1] = w_star[:, 0]

    stop = _STOP_ROUNDING * max(params.d1 * eq.u_star, params.d2 * eq.v_star) / (dx * dx)
    w, res, sens, steps = _newton(w, c, nl, params, dx, stop)
    if res > _RESIDUAL_TOL:
        if warm:  # bad warm start: fall back to the cold path once
            cold = solve_semiwave(c, nl, params, num, eq, cs, None)
            return replace(cold, newton_steps=cold.newton_steps + steps)
        raise NoConvergence(_MAX_NEWTON, f"steady residual {res:.2e}")

    # roundoff guard: Newton may leave values a few ulp outside [0, w*]
    np.clip(w, 0.0, w_star, out=w)
    w[:, 0] = 0.0
    _validate_profile(w, eq.u_star, eq.v_star)
    s = np.zeros_like(w)
    s[:, 1:-1] = sens

    return SemiWaveProfile(
        c=float(c),
        x_nodes=x,
        phi=w[0],
        psi=w[1],
        slope0_phi=_one_sided_slope(w[0], dx),
        slope0_psi=_one_sided_slope(w[1], dx),
        residual_inf=float(res),
        x_max=x_max,
        newton_steps=steps,
        cold=not warm,
        dphi_dc=s[0],
        dpsi_dc=s[1],
    )


# ---------------------------------------------------------------------------
# free-boundary speed
# ---------------------------------------------------------------------------

def find_c0(nl: Nonlinearity, params: ModelParams,
            numerics: SemiwaveNumerics | None = None,
            eq: Equilibrium | None = None
            ) -> tuple[SpeedPair, SemiWaveProfile]:
    """Locate the unique c0 in (0, c*) with mu1*phi'(0) + mu2*psi'(0) = c0.

    model._newton_root on F(c) = mu1*phi'(0) + mu2*psi'(0) - c from c = 0
    (F(0) > 0: the slopes are positive), in a bracket whose top is 0.999 c*
    until F <= 0 is seen. F'(c) comes from the profile's speed sensitivity
    s through the same slope stencil, and each solve starts from the
    tangent predictor profile + dc*s. The search stops when the next step
    is at most _C_TOL and |F| at most _F_TOL, or when a step no longer moves
    c, and returns the last solved profile; |F| > _F_TOL then raises
    SolverError, and _MAX_C0_SOLVES solves raise NoConvergence. The SpeedPair counts
    the profile solves, their band solves and the cold ones among them, and
    lists the iterates (c, F(c)).
    """
    num = numerics or SemiwaveNumerics()
    mu1, mu2 = params.mu1, params.mu2
    if mu1 + mu2 <= 0.0:
        raise ValueError("free-boundary speed needs mu1 + mu2 > 0")
    c_star, lam_star = compute_cstar(nl, params)  # NoTangency when R0 <= 1
    eq = eq or compute_equilibrium(nl, params)

    profile = None  # the last solved profile
    solves = steps = cold = 0
    iterates = []

    def fdf(c: float) -> tuple[float, float]:
        nonlocal profile, solves, steps, cold
        guess = None if profile is None else replace(
            profile, phi=profile.phi + (c - profile.c) * profile.dphi_dc,
            psi=profile.psi + (c - profile.c) * profile.dpsi_dc)
        profile = solve_semiwave(c, nl, params, num, eq, c_star, guess)
        solves += 1
        steps += profile.newton_steps
        cold += profile.cold
        f = mu1 * profile.slope0_phi + mu2 * profile.slope0_psi - c
        iterates.append((c, f))
        if solves == 1 and f <= 0.0:
            raise NoSignChange(f"F(0)={f:.3e} not positive: slopes corrupt")
        df = (mu1 * _one_sided_slope(profile.dphi_dc, num.dx)
              + mu2 * _one_sided_slope(profile.dpsi_dc, num.dx) - 1.0)
        return f, df

    c0, f = _newton_root(fdf, 0.0, 0.0, _C_MAX_FRAC * c_star, _C_TOL, _F_TOL,
                         maxiter=_MAX_C0_SOLVES)
    f_res = abs(f)
    if f_res > _F_TOL:
        raise SolverError(f"|F(c0)|={f_res:.3e} exceeds tolerance {_F_TOL}")
    if not (0.0 < c0 < c_star):
        raise SolverError(f"c0={c0} outside (0, c*)")
    return SpeedPair(c_star=c_star, c0=float(c0), lambda_star=lam_star,
                     F_residual=float(f_res), profile_solves=solves,
                     newton_steps=steps, cold_solves=cold,
                     iterates=tuple(iterates)), profile


# ---------------------------------------------------------------------------
# empirical tail rate
# ---------------------------------------------------------------------------

def decay_rate_empirical(profile: SemiWaveProfile, eq: Equilibrium) -> DecayFit:
    """Least-squares log-slope of u*-phi + v*-psi over the grid tail.

    The window is [0.7, 0.85] of x_max: it stops short of the hard pin at
    x_max, whose truncation boundary layer (decaying inward at the second
    characteristic rate) would bias the fitted slope. Nodes
    indistinguishable from saturation (< 1e-13) are dropped, and fewer
    than 8 usable nodes is an underflow.
    """
    x = profile.x_nodes
    vals = (eq.u_star - profile.phi) + (eq.v_star - profile.psi)
    window = (x >= 0.7 * profile.x_max) & (x <= 0.85 * profile.x_max)
    usable = window & (vals >= 1e-13)
    if int(usable.sum()) < 8:
        raise TailUnderflow(f"only {int(usable.sum())} usable tail nodes")
    slope, _, r2, _ = _line_fit(x[usable], np.log(vals[usable]))
    return DecayFit(alpha=-slope, r_squared=r2)

