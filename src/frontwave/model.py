"""Model data and closed-form derived quantities.

The reaction pair couples a bacteria density u and an infective density v
through u_t = d1*u_xx - a*u + H(v), v_t = d2*v_xx - b*v + G(u). The pair
(H, G) is strictly increasing, strictly concave, vanishes at 0, and
saturates: G(H(z)/a) < b*z for some z > 0.

Closed forms implemented here:

* reproduction number  R0 = H'(0) G'(0) / (a b); spreading needs R0 > 1
* equilibrium (u*, v*): the unique positive root of a*u = H(v), b*v = G(u)
* threshold habitat length
      l0 = pi * sqrt( (a d2 + b d1 + sqrt((a d2 - b d1)^2 + 4 d1 d2 H'(0)G'(0)))
                      / (2 (H'(0)G'(0) - a b)) )
  for a Dirichlet fixed boundary, and half of that for Neumann.

The one scalar root-finder, Newton's method in a sign bracket, solves for
v* here and for lambda*, beta(c) and c0 in semiwave; the one least-squares
line fits the front speed and the log-linear decay rates.

All types are frozen dataclasses; operations are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    BracketingFailure,
    InvalidRegime,
    NonFinite,
    NoConvergence,
    NoPositiveRoot,
)

__all__ = [
    "BoundaryKind",
    "Nonlinearity",
    "ModelParams",
    "Equilibrium",
    "InitialData",
    "HypothesisReport",
    "ValidationReport",
    "saturating",
    "cholera",
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
    """Reaction pair (H, G) with analytic first and second derivatives.

    Derivatives are required inputs rather than finite-differenced: they feed
    the minimal-speed tangency, the threshold length and the decay rates,
    where differencing noise would corrupt tangency detection. All callables
    must accept scalars or numpy arrays of nonnegative arguments.

    ``weak_h`` / ``weak_g`` admit a linear component (second derivative
    identically zero, e.g. the cholera variant H(v) = c*v); the strict
    concavity clause is then relaxed to <= 0 for that component.
    """

    name: str
    H: Callable
    G: Callable
    dH: Callable
    dG: Callable
    d2H: Callable
    d2G: Callable
    weak_h: bool = False
    weak_g: bool = False


def saturating(hp: float = 2.0, hq: float = 1.0, gp: float = 2.0, gq: float = 1.0) -> Nonlinearity:
    """Saturating pair H(z) = hp*z/(1+hq*z), G(z) = gp*z/(1+gq*z).

    The package default; hp=gp=2, hq=gq=1 with a=b=1 is the symmetric
    benchmark scenario (equilibrium at (1,1), R0=4).
    """
    if not all(0 < x < math.inf for x in (hp, hq, gp, gq)):
        raise ValueError("saturating pair needs positive finite coefficients")
    return Nonlinearity(
        name="saturating",
        H=lambda z: hp * z / (1.0 + hq * z),
        G=lambda z: gp * z / (1.0 + gq * z),
        dH=lambda z: hp / (1.0 + hq * z) ** 2,
        dG=lambda z: gp / (1.0 + gq * z) ** 2,
        d2H=lambda z: -2.0 * hp * hq / (1.0 + hq * z) ** 3,
        d2G=lambda z: -2.0 * gp * gq / (1.0 + gq * z) ** 3,
    )


def cholera(c: float = 1.0, gp: float = 2.0, gq: float = 1.0) -> Nonlinearity:
    """Cholera variant: linear H(v) = c*v with a saturating G.

    H'' is identically zero, so the pair only weakly satisfies the structure
    hypotheses; the report records this and downstream callers decide.
    """
    if not all(0 < x < math.inf for x in (c, gp, gq)):
        raise ValueError("cholera variant needs positive finite coefficients")
    return Nonlinearity(
        name="cholera",
        H=lambda z: c * np.asarray(z, dtype=float) * 1.0,
        G=lambda z: gp * z / (1.0 + gq * z),
        dH=lambda z: c * np.ones_like(np.asarray(z, dtype=float)),
        dG=lambda z: gp / (1.0 + gq * z) ** 2,
        d2H=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        d2G=lambda z: -2.0 * gp * gq / (1.0 + gq * z) ** 3,
        weak_h=True,
    )


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

_CLAUSES = ("origin", "dH_positive", "dG_positive", "d2H_negative", "d2G_negative", "saturation")


@dataclass(frozen=True)
class HypothesisReport:
    """Per-clause verdicts of the structure hypotheses on a sampled grid."""

    passed: bool
    clauses: dict
    min_dH: float
    min_dG: float
    max_d2H: float
    max_d2G: float
    z_hat: float | None
    weak: bool
    failures: tuple


def check_hypotheses(nl: Nonlinearity, params: ModelParams, z_max: float) -> HypothesisReport:
    """Verify the structure hypotheses on 512 log-spaced samples of [1e-8, z_max].

    Sampled, not symbolic: nonlinearities are supplied as callables. Records
    the extreme derivative values seen and the smallest sampled z with
    G(H(z)/a) < b*z, or marks the saturation clause failed.
    """
    if z_max <= 0:
        raise ValueError("z_max must be positive")
    z = np.geomspace(1e-8, z_max, 512)

    h0 = float(nl.H(0.0))
    g0 = float(nl.G(0.0))
    origin_ok = h0 == 0.0 and g0 == 0.0

    dh = np.asarray(nl.dH(np.concatenate(([0.0], z))), dtype=float)
    dg = np.asarray(nl.dG(np.concatenate(([0.0], z))), dtype=float)
    min_dH = float(dh.min())
    min_dG = float(dg.min())

    d2h = np.asarray(nl.d2H(z), dtype=float)
    d2g = np.asarray(nl.d2G(z), dtype=float)
    max_d2H = float(d2h.max())
    max_d2G = float(d2g.max())
    conc_h_ok = max_d2H <= 0.0 if nl.weak_h else max_d2H < 0.0
    conc_g_ok = max_d2G <= 0.0 if nl.weak_g else max_d2G < 0.0

    sat = np.asarray(nl.G(np.asarray(nl.H(z)) / params.a), dtype=float) < params.b * z
    z_hat = float(z[np.argmax(sat)]) if bool(sat.any()) else None

    clauses = {
        "origin": origin_ok,
        "dH_positive": min_dH > 0.0,
        "dG_positive": min_dG > 0.0,
        "d2H_negative": conc_h_ok,
        "d2G_negative": conc_g_ok,
        "saturation": z_hat is not None,
    }
    failures = tuple(name for name in _CLAUSES if not clauses[name])
    return HypothesisReport(
        passed=not failures,
        clauses=clauses,
        min_dH=min_dH,
        min_dG=min_dG,
        max_d2H=max_d2H,
        max_d2G=max_d2G,
        z_hat=z_hat,
        weak=nl.weak_h or nl.weak_g,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# the scalar root-finder (v*, lambda*, beta, c0), the line fit and the closed forms
# ---------------------------------------------------------------------------

def _newton_root(fdf: Callable[[float], tuple[float, float]], x: float, lo: float,
                 hi: float, xtol: float, ftol: float = math.inf, *,
                 maxiter: int) -> tuple[float, float]:
    """Root of f, positive below it, by Newton's method kept in a sign bracket.

    ``fdf(x)`` returns (f(x), f'(x)). The bracket [lo, hi] follows the signs
    of f seen so far; its ends need not be evaluated. An iterate outside the
    bracket, or f' >= 0, is replaced by the bracket's midpoint, so f need not
    be monotone. Returns (x, f(x)) at the last evaluated x once the next step
    is at most xtol and |f| at most ftol, or once a step no longer moves x.
    Raises NonFinite on a non-finite f or f', and NoConvergence after
    maxiter evaluations.
    """
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
        if not lo < x_next < hi and x_next != x:  # NaN included
            x_next = 0.5 * (lo + hi)
        if x_next == x:
            return x, f
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
    return float(nl.dH(0.0)) * float(nl.dG(0.0)) / (params.a * params.b)


def compute_equilibrium(nl: Nonlinearity, params: ModelParams) -> Equilibrium:
    """Positive root of a*u = H(v), b*v = G(u) by Newton's method.

    f(v) = G(H(v)/a) - b*v is positive near 0 when R0 > 1, negative for large
    v by the saturation clause, and concave, so Newton's method from the
    right needs no lower end. The start doubles from 1 while f > 0 (a root at
    a doubling point returns at once). Both residuals come out <= 1e-12.
    """
    a, b = params.a, params.b
    r0 = compute_R0(nl, params)
    if r0 <= 1.0:
        raise NoPositiveRoot(f"R0 = {r0} <= 1: only the trivial equilibrium exists")

    def fdf(v: float) -> tuple[float, float]:
        u = float(nl.H(v)) / a
        return float(nl.G(u)) - b * v, float(nl.dG(u)) * float(nl.dH(v)) / a - b

    hi = 1.0
    doublings = 0
    while fdf(hi)[0] > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise BracketingFailure("bracket expansion exhausted without sign change")

    v, _ = _newton_root(fdf, hi, 0.0, hi, 0.0, maxiter=100)
    u = float(nl.H(v)) / a
    res_u = abs(a * u - float(nl.H(v))) / max(abs(a * u), 1e-300)
    res_v = abs(b * v - float(nl.G(u))) / max(abs(b * v), 1e-300)
    if u <= 0 or v <= 0 or max(res_u, res_v) > 1e-12:
        raise BracketingFailure(f"equilibrium residuals too large: {res_u:.2e}, {res_v:.2e}")
    return Equilibrium(u_star=u, v_star=v,
                       Hp_vstar=float(nl.dH(v)), Gp_ustar=float(nl.dG(u)))


def compute_l0(nl: Nonlinearity, params: ModelParams) -> float:
    """Threshold habitat length; spreading is guaranteed once h0 >= l0.

    Neumann value is exactly half the Dirichlet value.
    """
    k = float(nl.dH(0.0)) * float(nl.dG(0.0))
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
