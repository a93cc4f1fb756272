"""Exception types, one per cause; cli.main maps each to its exit code
(ConfigurationError and its HorizonError 2, DivergenceError 1, InfeasibleError 3)."""


class ConfigurationError(ValueError):
    """Invalid input: bad dimensions, misaligned grids or options, missing data."""


class HorizonError(ConfigurationError):
    """Horizon too short for the certificate and sampling-gap bound."""


class DivergenceError(RuntimeError):
    """Numerical integration produced a non-finite state."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class InfeasibleError(RuntimeError):
    """Matrix-inequality feasibility problem has no strictly feasible point."""

    def __init__(self, message, worst_point=None, worst_eig=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.worst_eig = worst_eig
