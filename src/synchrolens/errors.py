"""Exception hierarchy shared across the toolkit."""


class SynchroLensError(Exception):
    """Base class for all package errors."""


# --- signal / CF layer ---

class TooFewSamples(SynchroLensError):
    """Differentiation needs at least 3 uniformly spaced samples."""


# --- device layer ---

class ParamDomain(SynchroLensError):
    """Device parameters outside their physical domain."""


class VoltageTooSmall(SynchroLensError):
    """Terminal voltage magnitude below MIN_MAG."""


class SlipSingular(SynchroLensError):
    """Induction-motor slip is zero; rotor branch resistance singular."""


class InitInfeasible(SynchroLensError):
    """No steady state exists for the requested operating point."""


# --- network / solver layer ---

class SingularY(SynchroLensError):
    """Admittance matrix is singular (islanded bus with devices)."""


class NewtonDivergence(SynchroLensError):
    """Newton iteration failed to reach tolerance."""

    def __init__(self, message, residual=None, worst_equation=None):
        super().__init__(message)
        self.residual = residual
        self.worst_equation = worst_equation


class PfDivergence(SynchroLensError):
    """Power flow failed to converge."""


class UnknownElement(SynchroLensError):
    """Event references a bus/branch/device that does not exist."""


# --- scenario layer ---

class UnknownScenario(SynchroLensError):
    """Requested built-in scenario name is not in the catalogue."""


class ParseError(SynchroLensError):
    """Scenario file is syntactically malformed."""

    def __init__(self, message, line=None, column=None):
        loc = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SchemaError(SynchroLensError):
    """Scenario file is well-formed but semantically invalid."""

    def __init__(self, message, element=None):
        super().__init__(message if element is None else f"{element}: {message}")
        self.element = element


# --- analysis layer ---

class WindowTooShort(SynchroLensError):
    """Verdict window does not fit in the simulated span."""


class AxisMismatch(SynchroLensError):
    """Series to compare do not share a time axis."""


# exit 2, and a sweep stops: a run too short for the CF stencils and device
# parameters outside their physical domain are input errors like the rest
USAGE_ERRORS = (ParseError, SchemaError, UnknownScenario, TooFewSamples,
                ParamDomain, UnknownElement)
# exit 3; a sweep records them as an error row and goes on
SOLVER_ERRORS = (NewtonDivergence, PfDivergence, InitInfeasible, SingularY,
                 VoltageTooSmall, SlipSingular)
