"""Time integration of the free-boundary system on an immobilized grid.

The moving domain (0, h(t)) maps to the fixed interval [0, 1] by
xi = x / h(t), turning the system into

    u_t = (d1/h^2) u_xixi + (xi h'/h) u_xi - a u + H(v),
    v_t = (d2/h^2) v_xixi + (xi h'/h) v_xi - b v + G(u),
    h'  = -(mu1 u_xi(1) + mu2 v_xi(1)) / h,

with u = v = 0 at xi = 1 and the configured operator at xi = 0. The
explicit part of a step is the Stefan flux (model._one_sided_slope on the
reversed fields, the semi-wave's slope stencil on another grid: the cell
h/n grows with the front, and the speed's O(cell^2) bias with it), the
front update, advection and reaction; the implicit part is diffusion,
evaluated on the advanced front. The stepper carries the state as one array
w = [u; v], so one tridiagonal solve covers both components: the two
systems stacked, with zero coupling at the junction, by LAPACK gtsv called
directly on band buffers the stepper allocates once. Neumann at xi = 0
enters by ghost-node reflection.

Steps are variable-step IMEX SBDF2 (Ascher, Ruuth & Wetton 1995) for u, v
and h, written in increment form (_Stepper.sbdf2); at omega = 0 with a zero
history it is IMEX Euler, which takes the first step. dt is the smaller of
twice the previous step (variable-step BDF2 is zero-stable for ratios below
1 + sqrt 2) and the error controller's choice. The controller rejects and
retries smaller a step whose local-error estimate (_Stepper.local_error)
exceeds _LTE_TOL, and a step that fails a check: the guards below, or a
negative front speed at the new state (BDF2 is not positivity preserving
once its roots turn complex, lambda dt > 1/2). The run raises
StepSizeCollapse below dt = 1e-12 max(1, t), or once more than
_MAX_REJECTED steps are rejected within one output interval. The estimate
is the new level minus the quadratic extrapolation through the last three
accepted levels, a predictor of the corrector's order as in BDF codes
(Shampine & Reichelt 1997), so it is O(dt^3) and the controller scales dt
by 0.9 (tol/err)^(1/3). The first SBDF2 step has two levels only: it
compares with the linear extrapolation, O(dt^2), and takes the square
root. No advective CFL bound is imposed: with diffusion implicit, the
stability limit of the explicit central advection scales like d / h'^2
and does not shrink with the grid. Every output interval (trace cadence,
snapshot times, t_end) is split into equal steps that land exactly on its
end, so no step is longer than the trace cadence. fixed_dt replaces the
controller, for convergence studies: a step that fails a check raises
there, so no step of another order enters the study.

The solve does not check its input for NaN or infinity. The step's guards
are the only finiteness check: the minimum over the state catches
densities below -1e-10 (StabilityViolation) and NaN (NonFinite), and the
sup of u + v, which the stop rule needs anyway, catches +inf (NonFinite).

Runs are bit-reproducible: no stochastic elements anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeSpeed, NonFinite, StabilityViolation, StepSizeCollapse
from .model import (
    BoundaryKind,
    InitialData,
    ModelParams,
    Nonlinearity,
    _one_sided_slope,
    validate_initial_data,
)
from ._format import write_csv
from ._lapack import dgtsv

__all__ = [
    "SolverNumerics",
    "StopRule",
    "Snapshot",
    "RunStats",
    "RunTrace",
    "simulate",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

# vanishing: total sup-norm u + v under VANISH_SUP for VANISH_SUSTAIN time
# units; this stop rule is the only vanishing test (analysis.classify reads
# the stop_reason it leaves)
VANISH_SUP = 1e-6
VANISH_SUSTAIN = 1.0

# local-error tolerance of the step-size controller, relative to h and to
# max(sup u, sup v, _ERR_FLOOR * the initial sup): a decaying run needs no
# accuracy relative to its own vanishing amplitude
_LTE_TOL = 1e-4
_ERR_FLOOR = 1e-2
# first step of an error-controlled run, taken by IMEX Euler without an
# error estimate (only a failed check rejects it); dt at most doubles per
# step from there
_DT_FIRST = 1e-4
# rejections allowed within one output interval before StepSizeCollapse:
# a config whose steps keep failing cannot run for minutes above the dt floor
_MAX_REJECTED = 1000


@dataclass(frozen=True)
class SolverNumerics:
    n: int = 400                    # grid cells on [0, 1]
    fixed_dt: float | None = None   # step for convergence studies; output times still split it
    trace_cadence: float = 0.1
    snapshot_times: tuple = ()

    def __post_init__(self):
        # written as not (...) so that NaN fails too; a zero step or cadence
        # would never advance the clock or the next trace sample, and a NaN
        # snapshot time would block every later one
        if not (self.n >= 2 and 0 < self.trace_cadence < math.inf
                and (self.fixed_dt is None or 0 < self.fixed_dt < math.inf)
                and all(0 <= ts < math.inf for ts in self.snapshot_times)):
            raise ValueError("solver numerics need n >= 2, positive finite "
                             "fixed_dt and trace cadence, and finite snapshot times >= 0")


@dataclass(frozen=True)
class StopRule:
    t_end: float

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
class RunStats:
    """Step counts and the range of accepted steps; deterministic per config."""
    steps: int = 0             # accepted steps
    rejected: int = 0          # steps redone smaller: error over tolerance or a failed check
    dt_min: float = math.inf
    dt_max: float = 0.0
    dt_mean: float = 0.0       # elapsed model time / accepted steps, set when the run ends

    def record(self, dt: float) -> None:
        self.steps += 1
        self.dt_min = min(self.dt_min, dt)
        self.dt_max = max(self.dt_max, dt)


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
    stats: RunStats = field(default_factory=RunStats)

    def to_csv(self, path) -> None:
        cols = (self.t, self.h, self.hprime, self.sup_u, self.sup_v, self.mass)
        write_csv(path, ("t", "h", "hprime", "sup_u", "sup_v", "mass"),
                  zip(*(c.tolist() for c in cols)))

    def snapshots_to_csv(self, path) -> None:
        def rows():
            for s in self.snapshots:
                for x, u, v in zip(s.x.tolist(), s.u.tolist(), s.v.tolist()):
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
    """Preallocated step kernels on the state w = [u; v], a C-contiguous
    (2, n + 1) array; simulate() drives them."""

    def __init__(self, params: ModelParams, nl: Nonlinearity, n: int):
        self.params = params
        self.nl = nl
        self.xi = np.linspace(0.0, 1.0, n + 1)
        self.dxi = 1.0 / n
        self.dirichlet = params.boundary is BoundaryKind.DIRICHLET
        self.decay = np.array([[params.a], [params.b]])
        # columns held at zero: the front (n), and xi = 0 under Dirichlet
        self.pinned = slice(0 if self.dirichlet else n, None, n)
        # band coefficients of (I - dt D) per unit of dt / (h dxi)^2, as the
        # sub-, main and super-diagonal of the stacked 2(n + 1) system with
        # row i of component k in column [k, i]; pinned rows are identity
        # rows, and the Neumann row at xi = 0 reflects the ghost node
        # u[-1] == u[1]: (1 + 2r) u0 - 2r u1
        diffusivity = np.array([[params.d1], [params.d2]])
        coef = np.empty((3, 2, n + 1))
        coef[0] = coef[2] = -diffusivity
        coef[1] = 2.0 * diffusivity
        coef[0, :, 0] = 0.0  # first row of a component: the junction decouples them
        coef[2, :, 0] *= 2.0
        coef[:, :, self.pinned] = 0.0
        self.coef = coef.reshape(3, -1)
        # dgtsv overwrites the bands with its factors, so every solve refills them
        self.bands = np.empty_like(self.coef)

    def _diffuse(self, rhs: np.ndarray, h_new: float, dt: float) -> np.ndarray:
        """(I - dt D(h_new))^-1 applied to both components of rhs by one gtsv
        call, with the boundary rows; overwrites and returns rhs."""
        dl, d, du = self.bands
        np.multiply(self.coef, dt / (h_new * h_new * self.dxi * self.dxi), out=self.bands)
        d += 1.0
        rhs[:, self.pinned] = 0.0
        # row-aligned bands: the solve reads the sub-diagonal from row 1 on
        # and the super-diagonal up to the last row but one
        _, _, _, x, info = dgtsv(dl[1:], d, du[:-1], rhs.reshape(-1), 1, 1, 1, 1)
        if info:
            raise NonFinite(f"tridiagonal solve failed (gtsv info={info})")
        return x.reshape(rhs.shape)

    def rates(self, w: np.ndarray, h: float) -> tuple:
        """Explicit rates at (w, h): the front speed h' and the advection +
        reaction right-hand side of [u; v]."""
        u, v = w
        hp = _flux(u, v, h, self.dxi, self.params)
        grad = np.zeros_like(w)  # boundary columns are overwritten by the solve
        grad[:, 1:-1] = (w[:, 2:] - w[:, :-2]) / (2.0 * self.dxi)
        reaction = np.stack((self.nl.H(v), self.nl.G(u)))
        return hp, self.xi * (hp / h) * grad - self.decay * w + reaction

    @staticmethod
    def _guard(w_new: np.ndarray, h_new: float) -> float:
        """Clip the new state to >= 0 and return max(u + v).

        Raises NonFinite on NaN or infinity in the state or front and
        StabilityViolation on a density below -1e-10.
        """
        low = w_new.min()
        if not low >= -1e-10:
            if math.isnan(low):
                raise NonFinite("state lost finiteness")
            raise StabilityViolation(f"min density {low:.3e} after step")
        np.maximum(w_new, 0.0, out=w_new)
        sup = float(np.max(w_new[0] + w_new[1]))
        if not (sup < math.inf and math.isfinite(h_new)):
            raise NonFinite("state lost finiteness")
        return sup

    def sbdf2(self, w: np.ndarray, h: float, rates: tuple, hist: tuple, dt: float,
              omega: float):
        """One variable-step IMEX SBDF2 step; returns the new (w, h, max(u + v)).

        ``rates`` are the explicit rates at (w, h); ``hist`` holds the
        increments (w - w_prev, h - h_prev) over the previous step and the
        rates at its start; omega = dt / dt_prev. At omega = 0 with a zero
        history, (zeros, 0.0, (0.0, zeros)), the coefficients are c1 = 0 and
        c2 = g = 1: the step is IMEX Euler. Written in increment form, so a
        frozen front and zero data stay bit-exact. Raises as _guard does.
        """
        hp, f = rates
        dw, dh, (hp_o, f_o) = hist
        c2 = 1.0 + omega
        g = (1.0 + 2.0 * omega) / c2
        c1 = omega * omega / c2
        h_new = h + (c1 * dh + dt * (c2 * hp - omega * hp_o)) / g
        w_new = self._diffuse(w + (c1 * dw + dt * (c2 * f - omega * f_o)) / g, h_new, dt / g)
        return w_new, h_new, self._guard(w_new, h_new)

    def local_error(self, new: tuple, w: np.ndarray, h: float, hist: tuple, prev: tuple | None,
                    dt: float, omega: float, floor: float) -> float:
        """Relative local-error estimate of the step from (w, h) to ``new``.

        The estimate is the new level minus the quadratic extrapolation
        through the last three accepted levels, an O(dt^3) quantity like
        SBDF2's local error, which it overestimates (no error constant is
        applied); the controller takes its cube root. ``prev`` holds the
        increments (w - w_prev, h - h_prev) over the step before ``hist``'s
        and that step's length. The first SBDF2 step has no such step
        (``prev`` is None) and uses the linear extrapolation of the last two
        levels, an O(dt^2) quantity whose square root the controller takes.
        On the fields the difference is filtered through (I - (dt/g) D)^-1,
        which damps the stiff diffusive modes that SBDF2 already resolves.
        It is measured relative to h and to max(sup u, sup v, floor).
        """
        w_new, h_new = new[:2]
        dw, dh = hist[:2]
        ew = w_new - w - omega * dw
        eh = h_new - h - omega * dh
        if prev is not None:
            dw_o, dh_o, k0 = prev
            k1 = dt / omega
            q = dt * (dt + k1) / (k0 + k1)
            ew -= q * (dw / k1 - dw_o / k0)
            eh -= q * (dh / k1 - dh_o / k0)
        g = (1.0 + 2.0 * omega) / (1.0 + omega)
        e = self._diffuse(ew, h_new, dt / g)
        return max(abs(eh) / h_new, np.abs(e).max() / max(w_new.max(), floor))


def _time_floor(t: float) -> float:
    """Output times closer than this to t count as reached, and a step
    shorter than this is a collapse."""
    return 1e-12 * max(1.0, t)


def _resample(init: InitialData, x_grid: np.ndarray) -> np.ndarray:
    """The initial [u; v] on x_grid, as a new (2, x_grid.size) array."""
    if init.x.size == x_grid.size and np.allclose(init.x, x_grid, rtol=0.0, atol=1e-12):
        return np.stack((init.u0, init.v0))
    return np.stack((np.interp(x_grid, init.x, init.u0), np.interp(x_grid, init.x, init.v0)))


def simulate(params: ModelParams, nl: Nonlinearity, init: InitialData,
             numerics: SolverNumerics | None = None,
             stop: StopRule | None = None) -> RunTrace:
    """Run the stepper until the stop rule fires; deterministic per config.

    Stops at t_end, or once the total sup-norm stays under the vanishing
    threshold for VANISH_SUSTAIN.
    Initial data must pass validate_initial_data.
    """
    num = numerics or SolverNumerics()
    stop = stop or StopRule(t_end=10.0)
    report = validate_initial_data(init, params)
    if not report.passed:
        raise ValueError(f"inadmissible initial data: {report.violations}")

    stepper = _Stepper(params, nl, num.n)
    h = float(init.h0)
    w = _resample(init, stepper.xi * h)
    w[:, -1] = 0.0
    if stepper.dirichlet:
        w[:, 0] = 0.0
    err_floor = _ERR_FLOOR * w.max()  # fixed for the run: admissible data are positive inside

    def row():
        return (t, h, rates[0], w[0].max(), w[1].max(), h * _trapz(w[0] + w[1], dx=stepper.dxi))

    def take_snapshots():
        nonlocal snap_idx
        while snap_idx < len(snap_times) and snap_times[snap_idx] <= t + _time_floor(t):
            snapshots.append(Snapshot(t=t, h=h, x=stepper.xi * h, u=w[0].copy(), v=w[1].copy()))
            snap_idx += 1

    t = 0.0
    rates = stepper.rates(w, h)
    rows = [row()]
    snapshots: list[Snapshot] = []
    snap_times = sorted(num.snapshot_times)
    snap_idx = 0
    take_snapshots()
    k_record = 1  # the next trace row is due at k_record * trace_cadence
    cadence = num.trace_cadence
    euler = (np.zeros_like(w), 0.0, (0.0, np.zeros_like(w)))  # SBDF2 at omega = 0: IMEX Euler
    hist = euler  # increments over the last step and the rates at its start
    prev = None  # increments over the step before that, and its length
    dt_prev = dt_next = num.fixed_dt or _DT_FIRST
    stats = RunStats()
    rejected_mark = 0  # stats.rejected when the last output interval ended
    vanish_t0 = None
    stop_reason = ""

    while True:
        target = min(k_record * cadence, stop.t_end,
                     snap_times[snap_idx] if snap_idx < len(snap_times) else math.inf)
        while True:  # attempts at one step; the controller may reject some
            dt = min(dt_next, 2.0 * dt_prev)  # omega <= 2 keeps variable-step SBDF2 zero-stable
            if not dt >= _time_floor(t):
                raise StepSizeCollapse(f"dt = {dt:.3e} at t = {t:.9g}")
            # split what is left of the output interval into equal steps; the
            # interval can exceed the cadence by the rounding of its ends,
            # which the clamp drops from the step (t still lands on target)
            k = max(1, math.ceil((target - t) / dt - 1e-6))
            dt = min((target - t) / k, cadence)
            omega = 0.0 if hist is euler else dt / dt_prev
            try:
                new = stepper.sbdf2(w, h, rates, hist, dt, omega)
                new_rates = stepper.rates(*new[:2])
            except (StabilityViolation, NonFinite, NegativeSpeed):
                if num.fixed_dt is not None:
                    raise
                new = None  # a failed check: rejected below
            if num.fixed_dt is not None or (new is not None and hist is euler):
                break  # the first step has no error estimate
            err = math.inf if new is None else stepper.local_error(
                new, w, h, hist, prev, dt, omega, err_floor)
            expo = 0.5 if prev is None else 1.0 / 3.0  # err is O(dt^2), then O(dt^3)
            factor = 0.9 * (_LTE_TOL / err) ** expo if err else math.inf
            if err <= _LTE_TOL:
                dt_next = dt * factor
                break
            stats.rejected += 1
            if stats.rejected > rejected_mark + _MAX_REJECTED:
                raise StepSizeCollapse(f"more than {_MAX_REJECTED} steps rejected in one "
                                       f"output interval, dt = {dt:.3e} at t = {t:.9g}")
            dt_next = dt * max(0.2, factor)

        w_new, h_new, sup_total = new
        if hist is not euler:
            prev = (hist[0], hist[1], dt_prev)
        hist = (w_new - w, h_new - h, rates)
        w, h, rates = w_new, h_new, new_rates
        t = target if k == 1 else t + dt
        if k == 1:
            rejected_mark = stats.rejected
        dt_prev = dt
        stats.record(dt)
        t_tol = _time_floor(t)

        recorded = False
        if k_record * cadence <= t + t_tol:
            rows.append(row())
            recorded = True
            while k_record * cadence <= t + t_tol:
                k_record += 1
        take_snapshots()

        if sup_total < VANISH_SUP:
            if vanish_t0 is None:
                vanish_t0 = t
            # one extra cadence so the trace rows recorded inside the stretch
            # alone span a full VANISH_SUSTAIN window under VANISH_SUP
            elif t - vanish_t0 >= VANISH_SUSTAIN + cadence:
                stop_reason = "vanishing"
        else:
            vanish_t0 = None

        if not stop_reason and t >= stop.t_end - t_tol:
            stop_reason = "t_end"
        if stop_reason:
            if not recorded:
                rows.append(row())
            break

    stats.dt_mean = t / stats.steps
    cols = list(zip(*rows))
    return RunTrace(
        t=np.asarray(cols[0]), h=np.asarray(cols[1]), hprime=np.asarray(cols[2]),
        sup_u=np.asarray(cols[3]), sup_v=np.asarray(cols[4]), mass=np.asarray(cols[5]),
        snapshots=snapshots, stop_reason=stop_reason, h0=float(init.h0), stats=stats,
    )
