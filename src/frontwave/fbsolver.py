"""Time integration of the free-boundary system on an immobilized grid.

The moving domain (0, h(t)) maps to the fixed interval [0, 1] by
xi = x / h(t), turning the system into

    u_t = (d1/h^2) u_xixi + (xi h'/h) u_xi - a u + H(v),
    v_t = (d2/h^2) v_xixi + (xi h'/h) v_xi - b v + G(u),
    h'  = -(mu1 u_xi(1) + mu2 v_xi(1)) / h,

with u = v = 0 at xi = 1 and the configured operator at xi = 0. One step
of the kernel (_Stepper.advance): Stefan flux from the current state
(model._one_sided_slope on the reversed fields, the stencil the semi-wave
slope extraction uses, so simulated and semi-wave speeds share
discretization bias), explicit front update, explicit advection +
reaction, implicit diffusion (one tridiagonal solve per component,
evaluated on the advanced front, by LAPACK gtsv called directly on band
buffers the stepper allocates once). Neumann at xi = 0 enters by
ghost-node reflection. Time step obeys dt <= cfl * dxi * h / |h'|, capped
at dt_cap.

The solve does not check its input for NaN or infinity. The step's guards
are the only finiteness check: the minimum over both fields catches
densities below -1e-10 (StabilityViolation) and NaN (NonFinite), and the
sup of u + v, which the stop rule needs anyway, catches +inf and any NaN
the minimum missed (NonFinite).

Runs are bit-reproducible: no stochastic elements anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NegativeSpeed, NonFinite, StabilityViolation
from .model import (
    BoundaryKind,
    InitialData,
    ModelParams,
    Nonlinearity,
    _one_sided_slope,
    validate_initial_data,
)
from ._format import write_csv

__all__ = [
    "SolverNumerics",
    "StopRule",
    "Snapshot",
    "RunTrace",
    "simulate",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

# vanishing: total sup-norm u + v under VANISH_SUP for VANISH_SUSTAIN time
# units; the stop rule here and analysis.classify share these values
VANISH_SUP = 1e-6
VANISH_SUSTAIN = 1.0


@dataclass(frozen=True)
class SolverNumerics:
    n: int = 400                    # grid cells on [0, 1]
    dt_cap: float = 1e-3
    cfl: float = 0.4
    fixed_dt: float | None = None   # exact step for convergence studies
    trace_cadence: float = 0.1
    snapshot_times: tuple = ()

    def __post_init__(self):
        # written as not (...) so that NaN fails too; a zero step or cadence
        # would never advance the clock or the next trace sample
        if not (self.n >= 2 and 0 < self.dt_cap < math.inf and 0 < self.cfl < math.inf
                and 0 < self.trace_cadence < math.inf):
            raise ValueError("solver numerics need n >= 2 and positive finite "
                             "dt_cap, cfl and trace cadence")


@dataclass(frozen=True)
class StopRule:
    t_end: float
    x_budget: float = math.inf

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")


@dataclass(frozen=True)
class Snapshot:
    t: float
    h: float
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass
class RunTrace:
    t: np.ndarray
    h: np.ndarray
    hprime: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    mass: np.ndarray
    snapshots: list = field(default_factory=list)
    stop_reason: str = ""
    h0: float = 0.0

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "h", "hprime", "sup_u", "sup_v", "mass"),
                  zip(self.t, self.h, self.hprime, self.sup_u, self.sup_v, self.mass))

    def snapshots_to_csv(self, path) -> None:
        def rows():
            for s in self.snapshots:
                for x, u, v in zip(s.x, s.u, s.v):
                    yield (s.t, x, u, v)
        write_csv(path, ("t", "x", "u", "v"), rows())


def _flux(u: np.ndarray, v: np.ndarray, h: float, dxi: float, params: ModelParams) -> float:
    """Front speed h' = -(mu1 u_xi(1) + mu2 v_xi(1)) / h.

    The xi-derivative at the front is the negated left-end slope of the
    reversed field, bit for bit the backward 3-point stencil.
    """
    du = -_one_sided_slope(u[::-1], dxi)
    dv = -_one_sided_slope(v[::-1], dxi)
    hp = -(params.mu1 * du + params.mu2 * dv) / h
    if hp < -1e-12:
        raise NegativeSpeed(f"h'={hp:.3e} at the front")
    return max(hp, 0.0)  # roundoff guard keeps h nondecreasing


class _Stepper:
    """Preallocated one-step kernel; simulate() drives it."""

    def __init__(self, params: ModelParams, nl: Nonlinearity, n: int):
        self.params = params
        self.nl = nl
        self.xi = np.linspace(0.0, 1.0, n + 1)
        self.dxi = 1.0 / n
        self.dirichlet = params.boundary is BoundaryKind.DIRICHLET
        # sub-, main and super-diagonal; dgtsv overwrites them with its
        # factors, so every solve refills them
        self.dl = np.empty(n)
        self.d = np.empty(n + 1)
        self.du = np.empty(n)

    def _implicit_solve(self, rhs: np.ndarray, r: float) -> np.ndarray:
        """Implicit diffusion solve with the boundary rows; overwrites and returns rhs."""
        dl, d, du = self.dl, self.d, self.du
        d.fill(1.0 + 2.0 * r)
        du.fill(-r)
        dl.fill(-r)
        # front row: value pinned to zero
        d[-1] = 1.0
        dl[-1] = 0.0
        rhs[-1] = 0.0
        if self.dirichlet:
            d[0] = 1.0
            du[0] = 0.0
            rhs[0] = 0.0
        else:
            # ghost reflection u[-1] == u[1]: row is (1+2r) u0 - 2r u1
            du[0] = -2.0 * r
        _, _, _, x, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
        if info:
            raise NonFinite(f"tridiagonal solve failed (gtsv info={info})")
        return x

    def advance(self, u: np.ndarray, v: np.ndarray, h: float, dt: float):
        """One step from (u, v, h); returns the new (u, v, h, h', max(u + v)).

        Raises NonFinite on NaN or infinity in the new fields or front and
        StabilityViolation on a density below -1e-10.
        """
        p = self.params
        hp = _flux(u, v, h, self.dxi, p)
        h_new = h + dt * hp

        adv = self.xi * (hp / h)
        grad_u = np.empty_like(u)
        grad_v = np.empty_like(v)
        grad_u[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.dxi)
        grad_v[1:-1] = (v[2:] - v[:-2]) / (2.0 * self.dxi)
        grad_u[0] = grad_u[-1] = 0.0  # boundary rows are overwritten below
        grad_v[0] = grad_v[-1] = 0.0

        rhs_u = u + dt * (adv * grad_u - p.a * u + self.nl.H(v))
        rhs_v = v + dt * (adv * grad_v - p.b * v + self.nl.G(u))

        scale = dt / (h_new * h_new * self.dxi * self.dxi)
        u_new = self._implicit_solve(rhs_u, p.d1 * scale)
        v_new = self._implicit_solve(rhs_v, p.d2 * scale)

        # builtin min drops a NaN in its second argument; the sup catches it
        low = min(u_new.min(), v_new.min())
        if not low >= -1e-10:
            if math.isnan(low):
                raise NonFinite("state lost finiteness")
            raise StabilityViolation(f"min density {low:.3e} after step")
        np.maximum(u_new, 0.0, out=u_new)
        np.maximum(v_new, 0.0, out=v_new)
        sup = float(np.max(u_new + v_new))
        if not (sup < math.inf and math.isfinite(h_new)):
            raise NonFinite("state lost finiteness")
        return u_new, v_new, h_new, hp, sup


def _resample(init: InitialData, x_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if init.x.size == x_grid.size and np.allclose(init.x, x_grid, rtol=0.0, atol=1e-12):
        return init.u0.copy(), init.v0.copy()
    return np.interp(x_grid, init.x, init.u0), np.interp(x_grid, init.x, init.v0)


def simulate(params: ModelParams, nl: Nonlinearity, init: InitialData,
             numerics: SolverNumerics | None = None,
             stop: StopRule | None = None) -> RunTrace:
    """Run the stepper until the stop rule fires; deterministic per config.

    Stops at t_end, when the front exceeds the budget, or once the total
    sup-norm stays under the vanishing threshold for VANISH_SUSTAIN.
    Initial data must pass validate_initial_data.
    """
    num = numerics or SolverNumerics()
    stop = stop or StopRule(t_end=10.0)
    report = validate_initial_data(init, params)
    if not report.passed:
        raise ValueError(f"inadmissible initial data: {report.violations}")

    stepper = _Stepper(params, nl, num.n)
    h = float(init.h0)
    u, v = _resample(init, stepper.xi * h)
    u[-1] = v[-1] = 0.0
    if stepper.dirichlet:
        u[0] = v[0] = 0.0

    t = 0.0
    hp = _flux(u, v, h, stepper.dxi, params)
    rows = [(t, h, hp, u.max(), v.max(), h * _trapz(u + v, dx=stepper.dxi))]
    snapshots: list[Snapshot] = []
    snap_times = sorted(num.snapshot_times)
    snap_idx = 0
    next_record = num.trace_cadence
    vanish_t0 = None
    stop_reason = ""

    while True:
        if num.fixed_dt is not None:
            dt = num.fixed_dt
        else:
            dt = num.dt_cap if hp == 0.0 else min(num.dt_cap, num.cfl * stepper.dxi * h / abs(hp))
        dt = min(dt, stop.t_end - t)
        u, v, h, hp, sup_total = stepper.advance(u, v, h, dt)
        t += dt

        recorded = False
        if t >= next_record - 1e-12:
            rows.append((t, h, hp, u.max(), v.max(), h * _trapz(u + v, dx=stepper.dxi)))
            recorded = True
            while next_record <= t + 1e-12:
                next_record += num.trace_cadence
        while snap_idx < len(snap_times) and t >= snap_times[snap_idx] - 1e-12:
            snapshots.append(Snapshot(t=t, h=h, x=stepper.xi * h, u=u.copy(), v=v.copy()))
            snap_idx += 1

        if sup_total < VANISH_SUP:
            if vanish_t0 is None:
                vanish_t0 = t
            # one extra cadence so the *sampled* stretch also spans the window
            elif t - vanish_t0 >= VANISH_SUSTAIN + num.trace_cadence:
                stop_reason = "vanishing"
        else:
            vanish_t0 = None

        if not stop_reason and t >= stop.t_end - 1e-12:
            stop_reason = "t_end"
        if not stop_reason and h >= stop.x_budget:
            stop_reason = "front_budget"
        if stop_reason:
            if not recorded:
                rows.append((t, h, hp, u.max(), v.max(), h * _trapz(u + v, dx=stepper.dxi)))
            break

    cols = list(zip(*rows))
    return RunTrace(
        t=np.asarray(cols[0]), h=np.asarray(cols[1]), hprime=np.asarray(cols[2]),
        sup_u=np.asarray(cols[3]), sup_v=np.asarray(cols[4]), mass=np.asarray(cols[5]),
        snapshots=snapshots, stop_reason=stop_reason, h0=float(init.h0),
    )
