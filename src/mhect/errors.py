"""Exception types, one per cause; cli.main maps each to its exit code
(ConfigurationError and its HorizonError 2, DivergenceError 1, InfeasibleError 3)."""


class ConfigurationError(ValueError):
    """Invalid input: bad dimensions, misaligned grids or options, missing data."""


class HorizonError(ConfigurationError):
    """Horizon too short for the certificate and sampling-gap bound."""


class DivergenceError(RuntimeError):
    """Numerical integration produced a non-finite state."""


class InfeasibleError(RuntimeError):
    """Matrix-inequality feasibility problem has no strictly feasible point."""
