"""Model data and closed-form derived quantities.

The reaction pair couples a bacteria density u and an infective density v
through u_t = d1*u_xx - a*u + H(v), v_t = d2*v_xx - b*v + G(u), with
H(z) = hp*z/(1+hq*z) and G(z) = gp*z/(1+gq*z). The structure hypotheses
on the pair (it vanishes at 0, increases, is concave and saturates:
G(H(z)/a) < b*z for some z > 0) are conditions on the four coefficients.

Closed forms implemented here:

* reproduction number  R0 = hp gp / (a b); spreading needs R0 > 1
* equilibrium (u*, v*): u* = (hp gp - a b) / (a (b gq + gp hq)), v* = G(u*)/b
* threshold habitat length
      l0 = pi * sqrt( (a d2 + b d1 + sqrt((a d2 - b d1)^2 + 4 d1 d2 hp gp))
                      / (2 (hp gp - a b)) )
  for a Dirichlet fixed boundary, and half of that for Neumann.

The one scalar root-finder, Newton's method in a sign bracket, solves for
lambda*, beta(c) and c0 in semiwave; the one least-squares line fits the
front speed and the log-linear decay rates.

All types are frozen dataclasses; operations are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidRegime, NonFinite, NoConvergence, NoPositiveRoot, SolverError

__all__ = [
    "BoundaryKind",
    "Nonlinearity",
    "ModelParams",
    "Equilibrium",
    "InitialData",
    "HypothesisReport",
    "ValidationReport",
    "check_hypotheses",
    "compute_R0",
    "compute_equilibrium",
    "compute_l0",
    "validate_initial_data",
]


class BoundaryKind(str, Enum):
    """Operator imposed at the fixed boundary x = 0."""

    DIRICHLET = "dirichlet"  # value pinned to 0
    NEUMANN = "neumann"      # one-sided slope pinned to 0


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction pair H(z) = hp*z/(1+hq*z), G(z) = gp*z/(1+gq*z).

    The one family the package runs; hq = 0 is the cholera variant, a
    linear H(v) = hp*v. hp = H'(0) and gp = G'(0) must be positive and hq,
    gq nonnegative, so every structure hypothesis is a condition on the four
    coefficients (check_hypotheses). The defaults with a = b = 1 are the
    symmetric benchmark: equilibrium (1, 1), R0 = 4. The methods take
    scalars or numpy arrays of nonnegative arguments.
    """

    hp: float = 2.0
    hq: float = 1.0
    gp: float = 2.0
    gq: float = 1.0

    def __post_init__(self):
        # written as not (...) so that NaN fails too
        if not (0 < self.hp < math.inf and 0 < self.gp < math.inf
                and 0 <= self.hq < math.inf and 0 <= self.gq < math.inf):
            raise ValueError("reaction pair needs finite hp, gp > 0 and hq, gq >= 0")

    def H(self, z):
        return self.hp * z / (1.0 + self.hq * z)

    def G(self, z):
        return self.gp * z / (1.0 + self.gq * z)

    def dH(self, z):
        return self.hp / (1.0 + self.hq * z) ** 2

    def dG(self, z):
        return self.gp / (1.0 + self.gq * z) ** 2


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters and the fixed-boundary operator.

    d1, d2 are diffusivities, a, b linear decay rates, mu1, mu2 the Stefan
    coefficients in h'(t) = -mu1*u_x(t,h) - mu2*v_x(t,h). Both mu may be zero
    together only for the degenerate fixed-domain case; the free-boundary
    speed machinery requires mu1 + mu2 > 0 and enforces it there.
    """

    d1: float
    d2: float
    a: float
    b: float
    mu1: float
    mu2: float
    boundary: BoundaryKind = BoundaryKind.NEUMANN

    def __post_init__(self):
        # written as not (...) so that NaN fails too
        for name in ("d1", "d2", "a", "b"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if not (0 <= self.mu1 < math.inf and 0 <= self.mu2 < math.inf):
            raise ValueError("Stefan coefficients must be nonnegative and finite")
        object.__setattr__(self, "boundary", BoundaryKind(self.boundary))


@dataclass(frozen=True)
class Equilibrium:
    """Positive equilibrium (u*, v*) with the derivative values used downstream."""

    u_star: float
    v_star: float
    Hp_vstar: float  # H'(v*)
    Gp_ustar: float  # G'(u*)


@dataclass(frozen=True)
class InitialData:
    """Initial densities sampled on nodes of [0, h0].

    Admissible data vanishes at h0 and is positive inside; at x = 0 it
    vanishes with positive inward slope (Dirichlet) or has zero one-sided
    slope (Neumann).
    """

    h0: float
    x: np.ndarray
    u0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        if not 0 < self.h0 < math.inf:
            raise ValueError("h0 must be positive and finite")
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 3:
            raise ValueError("initial data needs at least 3 sample nodes")
        if abs(x[0]) > 1e-14 * self.h0 or abs(x[-1] - self.h0) > 1e-12 * self.h0:
            raise ValueError("sample nodes must span [0, h0]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float))
        if self.u0.shape != x.shape or self.v0.shape != x.shape:
            raise ValueError("u0, v0 must match the sample nodes")

    @classmethod
    def from_callables(cls, h0: float, fu: Callable, fv: Callable, n: int = 401) -> "InitialData":
        x = np.linspace(0.0, h0, n)
        return cls(h0=h0, x=x, u0=fu(x), v0=fv(x))

    @classmethod
    def sine(cls, h0: float, amplitude: float = 0.5, n: int = 401) -> "InitialData":
        """A*sin(pi x / h0): Dirichlet-admissible bump."""
        return cls.from_callables(h0, lambda x: amplitude * np.sin(np.pi * x / h0),
                                  lambda x: amplitude * np.sin(np.pi * x / h0), n)

    @classmethod
    def cosine_bump(cls, h0: float, amplitude: float = 0.5, n: int = 401) -> "InitialData":
        """A*cos(pi x / (2 h0)): Neumann-admissible bump (flat at 0, zero at h0)."""
        return cls.from_callables(h0, lambda x: amplitude * np.cos(np.pi * x / (2 * h0)),
                                  lambda x: amplitude * np.cos(np.pi * x / (2 * h0)), n)

    @classmethod
    def from_table(cls, path) -> "InitialData":
        """Load columns x,u0,v0 from a CSV file with a one-line header."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float)
        if data.ndim != 2 or data.shape[1] != 3:
            raise ValueError("table file must have three columns: x,u0,v0")
        x = data[:, 0]
        return cls(h0=float(x[-1]), x=x, u0=data[:, 1], v0=data[:, 2])


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    """Per-clause verdicts of the structure hypotheses."""

    passed: bool
    clauses: dict
    weak: bool  # a linear component: concave, but not strictly


def check_hypotheses(nl: Nonlinearity, params: ModelParams) -> HypothesisReport:
    """The structure hypotheses, read off the coefficients.

    H and G vanish at 0 and increase for every pair Nonlinearity admits.
    Concavity is strict when hq, gq > 0; a linear component (q = 0) is only
    weakly concave. Saturation, G(H(z)/a) < b*z for some z > 0, holds when
    hq + gq > 0, since G(H(z)/a) is then bounded; for the linear pair
    G(H(z)/a) = R0*b*z, so it holds exactly when R0 < 1.
    """
    saturation = nl.hq + nl.gq > 0.0 or compute_R0(nl, params) < 1.0
    clauses = {"origin": True, "dH_positive": True, "dG_positive": True,
               "d2H_negative": True, "d2G_negative": True, "saturation": saturation}
    return HypothesisReport(passed=saturation, clauses=clauses,
                            weak=nl.hq == 0.0 or nl.gq == 0.0)


# ---------------------------------------------------------------------------
# the scalar root-finder (lambda*, beta, c0), the line fit and the closed forms
# ---------------------------------------------------------------------------

def _newton_root(fdf: Callable[[float], tuple[float, float]], x: float, lo: float,
                 hi: float, xtol: float, ftol: float = math.inf, *,
                 maxiter: int) -> tuple[float, float]:
    """Root of f, positive below it, by Newton's method kept in a sign bracket.

    ``fdf(x)`` returns (f(x), f'(x)). The bracket [lo, hi] follows the signs
    of f seen so far; its ends need not be evaluated. An iterate outside the
    bracket, or f' >= 0, is replaced by the bracket's midpoint, so f need not
    be monotone. So is a step longer than half the step before last
    (Numerical Recipes' rtsafe): once rounding noise in f dominates, Newton
    steps stop shrinking and would only nibble at the bracket. Returns
    (x, f(x)) at the last evaluated x once the next step is at most xtol and
    |f| at most ftol, or once a step no longer moves x. Raises NonFinite on
    a non-finite f or f', and NoConvergence after maxiter evaluations.
    """
    step = step_old = math.inf
    for _ in range(maxiter):
        f, df = fdf(x)
        if not (math.isfinite(f) and math.isfinite(df)):
            raise NonFinite(f"root-finder: f({x!r}) = {f}, f'({x!r}) = {df}")
        dx = -f / df if df < 0.0 else math.nan
        if abs(dx) <= xtol and abs(f) <= ftol:
            return x, f
        if f > 0.0:
            lo = x
        else:
            hi = x
        x_next = x + dx
        # x is a bracket end now: a step that rounds back onto it ends below
        if x_next != x and not (lo < x_next < hi and abs(dx) <= 0.5 * step_old):  # NaN included
            x_next = 0.5 * (lo + hi)
        if x_next == x:
            return x, f
        step, step_old = abs(x_next - x), step
        x = x_next
    raise NoConvergence(maxiter, f"Newton root-find, next iterate {x!r}")


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """Least-squares line through (x, y): (slope, intercept, R^2, residuals).

    Centred sums throughout; R^2 is 0 when y is constant.
    """
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    resid = y - ym - slope * (x - xm)
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return slope, float(ym - slope * xm), r2, resid


def compute_R0(nl: Nonlinearity, params: ModelParams) -> float:
    """Basic reproduction number H'(0) G'(0) / (a b)."""
    return nl.hp * nl.gp / (params.a * params.b)


def compute_equilibrium(nl: Nonlinearity, params: ModelParams) -> Equilibrium:
    """Positive root of a*u = H(v), b*v = G(u), in closed form.

    Eliminating v leaves a*b + a*(b*gq + gp*hq)*u = hp*gp, so
    u* = (hp gp - a b) / (a (b gq + gp hq)) and v* = G(u*)/b. The root is
    positive exactly when R0 > 1 and the pair saturates (hq + gq > 0);
    otherwise NoPositiveRoot. Both relative residuals must come out
    <= 1e-12, or SolverError.
    """
    a, b = params.a, params.b
    r0 = compute_R0(nl, params)
    if r0 <= 1.0:
        raise NoPositiveRoot(f"R0 = {r0} <= 1: only the trivial equilibrium exists")
    den = a * (b * nl.gq + nl.gp * nl.hq)
    if den == 0.0:  # hq = gq = 0, or an underflow
        raise NoPositiveRoot(f"R0 = {r0} > 1 and a*(b*gq + gp*hq) = 0: the growth never saturates")
    u = (nl.hp * nl.gp - a * b) / den
    v = nl.G(u) / b
    res_u = abs(a * u - nl.H(v)) / max(a * u, 1e-300)
    res_v = abs(b * v - nl.G(u)) / max(b * v, 1e-300)
    if not (u > 0.0 and v > 0.0 and res_u <= 1e-12 and res_v <= 1e-12):  # NaN included
        raise SolverError(f"equilibrium residuals too large: {res_u:.2e}, {res_v:.2e}")
    return Equilibrium(u_star=u, v_star=v, Hp_vstar=nl.dH(v), Gp_ustar=nl.dG(u))


def compute_l0(nl: Nonlinearity, params: ModelParams) -> float:
    """Threshold habitat length; spreading is guaranteed once h0 >= l0.

    Neumann value is exactly half the Dirichlet value.
    """
    k = nl.hp * nl.gp
    ab = params.a * params.b
    if k <= ab:
        raise InvalidRegime("H'(0)G'(0) <= a*b: threshold length undefined")
    core = math.sqrt(
        (params.a * params.d2 + params.b * params.d1
         + math.sqrt((params.a * params.d2 - params.b * params.d1) ** 2
                     + 4.0 * params.d1 * params.d2 * k))
        / (2.0 * (k - ab))
    )
    half = 1.0 if params.boundary is BoundaryKind.DIRICHLET else 0.5
    return half * math.pi * core


# ---------------------------------------------------------------------------
# initial-data validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple  # of (component, clause, node_index)


def _one_sided_slope(w: np.ndarray, dx: float) -> float:
    """Second-order 3-point slope at the left end of w (spacing dx there).

    The one stencil of the package: initial-data checks, semi-wave slopes
    and, on the reversed fields, the Stefan flux at the front.
    """
    return float((-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * dx))


def validate_initial_data(init: InitialData, params: ModelParams) -> ValidationReport:
    """Check the admissibility clauses for the active boundary operator.

    Report-style: never raises on bad data; violations carry the component,
    the failed clause and the offending node index. Endpoint zeros are
    checked to 1e-12 of the data scale (sampled analytic shapes leave
    roundoff-level residue at the endpoints).
    """
    violations = []
    for name, w in (("u0", init.u0), ("v0", init.v0)):
        nonfinite = np.flatnonzero(~np.isfinite(w))
        if nonfinite.size:  # every comparison below is false on NaN
            violations.append((name, "finite", int(nonfinite[0])))
            continue
        scale = float(np.max(np.abs(w))) or 1.0
        tol = 1e-12 * scale
        if abs(w[-1]) > tol:
            violations.append((name, "value_at_h0", init.x.size - 1))
        interior = slice(1, -1)
        bad = np.where(w[interior] <= 0.0)[0]
        if bad.size:
            violations.append((name, "interior_positive", int(bad[0]) + 1))
        slope0 = _one_sided_slope(w, init.x[1] - init.x[0])
        if params.boundary is BoundaryKind.DIRICHLET:
            if abs(w[0]) > tol:
                violations.append((name, "value_at_0", 0))
            if slope0 <= 0.0:
                violations.append((name, "inward_slope_positive", 0))
        else:
            if w[0] <= 0.0:
                violations.append((name, "value_at_0_positive", 0))
            if abs(slope0) > 1e-6 * scale / init.h0:
                violations.append((name, "zero_slope_at_0", 0))
    return ValidationReport(passed=not violations, violations=tuple(violations))
