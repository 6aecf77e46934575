"""Exception hierarchy.

Three families, matching the CLI exit codes: model-regime errors (exit 2)
mean the requested quantity does not exist for these parameters, as for a
semi-wave profile asked for at a speed outside [0, c*); solver errors
(exit 3) mean the numerics failed on a well-posed problem; analysis errors
mean a post-processing window or fit is unusable.
"""

from __future__ import annotations


class FrontwaveError(Exception):
    """Base class for all package errors."""


class ModelRegimeError(FrontwaveError):
    """The model parameters put the request outside its regime of validity."""


class NoPositiveRoot(ModelRegimeError):
    """No positive equilibrium exists (reproduction number at or below 1)."""


class InvalidRegime(ModelRegimeError):
    """Threshold-length formula denominator is nonpositive."""


class NoTangency(ModelRegimeError):
    """The linearized characteristic polynomial has no positive tangency point."""


class NoAdmissibleRoot(ModelRegimeError):
    """No decay rate with a positive eigenvector (equilibrium not stable)."""


class InfeasibleBracket(ModelRegimeError):
    """Envelope amplitude ratio bracket is empty (broken nonlinearity input)."""


class Infeasible(ModelRegimeError):
    """A feasibility system has a wrong-signed ingredient (corrupt profile input)."""


class SpeedOutOfRange(ModelRegimeError):
    """Requested profile speed is not in [0, c*)."""


class SolverError(FrontwaveError):
    """Numerical machinery failed; the underlying problem is well posed."""


class BracketingFailure(SolverError):
    """Root bracket expansion never found a sign change."""


class NoConvergence(SolverError):
    def __init__(self, iterations: int, detail: str = ""):
        self.iterations = iterations
        super().__init__(f"no convergence after {iterations} iterations" + (f": {detail}" if detail else ""))


class NoSignChange(SolverError):
    """The c0 residual F(0) is not positive: the c0 search has no sign change to follow."""


class NegativeSpeed(SolverError):
    """Stefan flux came out negative beyond roundoff."""


class StabilityViolation(SolverError):
    """Time step produced significantly negative densities."""


class StepSizeCollapse(SolverError):
    """The step-size controller drove dt below its floor."""


class NonFinite(SolverError):
    """NaN or Inf appeared in the state or as a root-finder's function value."""


class TailUnderflow(SolverError):
    """Profile tail too close to machine epsilon to fit a decay rate."""


class AnalysisError(FrontwaveError):
    """Post-processing request cannot be evaluated on the given data."""


class WindowTooShort(AnalysisError):
    """Not enough trailing samples for the requested fit."""


class WindowOutsideDomain(AnalysisError):
    """Requested spatial window is not covered by the snapshot."""


class EmptyRayWindow(AnalysisError):
    """Ray window [c1*t, c2*t] has outrun the front or holds no grid nodes."""
