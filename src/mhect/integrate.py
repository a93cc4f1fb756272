"""Fixed-step RK4 integration with a piecewise-constant disturbance.

The disturbance w is held at its left-endpoint piece value for all four
stages of each step, so the discrete-time step map is exactly reproducible:
an identical w gives bit-identical trajectories.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .sysmodel import PiecewiseSignal, as_grid_index


@dataclass(frozen=True)
class Trajectory:
    """States on the uniform grid k*dt, k = 0..K; states has shape (K+1, n)."""

    dt: float
    states: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.states, dtype=float)
        if st.ndim != 2 or st.shape[0] < 1:
            raise ConfigurationError("trajectory needs a (K+1, n) state array with K >= 0")
        object.__setattr__(self, "states", st)

    @property
    def n_steps(self):
        return self.states.shape[0] - 1


def rk4_step(model, x, w, dt):
    """One classic RK4 step with w frozen across the stages."""
    f = model.f
    k1 = f(x, w)
    k2 = f(x + 0.5 * dt * k1, w)
    k3 = f(x + 0.5 * dt * k2, w)
    k4 = f(x + dt * k3, w)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_with_jacobians(model, x, w, dt):
    """RK4 step plus exact step-map Jacobians d(next x)/dx and d(next x)/dw.

    Differentiates the four stages by the chain rule using the model's
    continuous-time Jacobians, so the returned matrices are the derivatives
    of the discrete step map itself (not a discretization of the
    continuous-time linearization).  x and w may carry leading batch axes,
    one step per row: the results have shapes (..., n), (..., n, n) and
    (..., n, q).
    """
    I = np.eye(model.n)
    # stage 1 (c = 0, b = 1); D and E are the stage's sensitivities
    # d k_s/dx and d k_s/dw, and sk, sD, sE the b-weighted sums over stages
    k = model.f(x, w)
    D = model.jac_f_x(x, w)
    E = model.jac_f_w(x, w)
    sk, sD, sE = k, D, E
    for c, b in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        xs = x + c * dt * k
        k = model.f(xs, w)
        A = model.jac_f_x(xs, w)
        D = A @ (I + c * dt * D)
        E = model.jac_f_w(xs, w) + A @ (c * dt * E)
        sk = sk + b * k
        sD = sD + b * D
        sE = sE + b * E
    h = dt / 6.0
    return x + h * sk, I + h * sD, h * sE


def _resolve_signal(sig, dim, dt, steps, name):
    """Per-step signal values: row k is the piece holding k*dt."""
    if sig is None:
        return np.zeros((steps, dim))
    if sig.dim != dim:
        raise ConfigurationError(f"{name} has dimension {sig.dim}, expected {dim}")
    ratio = sig.dt / dt
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ConfigurationError(f"integration dt = {dt} must divide {name}.dt = {sig.dt}")
    if sig.n_pieces * round(ratio) < steps:
        raise ConfigurationError(f"{name} does not cover [0, {steps * dt})")
    return sig.values[np.arange(steps) // round(ratio)]


def integrate(model, chi, w, t_end, dt):
    """Integrate x' = f(x, w(t)) from chi over [0, t_end] on a fixed grid.

    dt must divide t_end and w's piece length exactly; w may be None for
    zero disturbance.  Raises DivergenceError (its message names
    the offending time) if the state leaves float range.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (model.n,):
        raise ConfigurationError(f"initial state must have shape ({model.n},)")
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    if t_end < 0:
        raise ConfigurationError("t_end must be >= 0")
    steps = as_grid_index(t_end, dt, "integration span")
    states = np.empty((steps + 1, model.n))
    states[0] = chi
    w = _resolve_signal(w, model.q, dt, steps, "w")
    x = chi
    # a non-finite component stays non-finite through RK4, so one check
    # after the loop finds the first step that left float range
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = states[k + 1] = rk4_step(model, x, w[k], dt)
    bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if bad.size:
        raise DivergenceError(
            f"integration diverged at t = {int(bad[0]) * dt + dt} (non-finite state)")
    return Trajectory(dt, states)


def output_along(model, traj, w):
    """Output samples h(x(t_k), w(t_k)) at the left node of each step.

    Returns a piecewise-constant signal with the trajectory's grid; this is
    the measurement convention used throughout (y available as grid samples).
    """
    w = _resolve_signal(w, model.q, traj.dt, traj.n_steps, "w")
    return PiecewiseSignal(traj.dt, model.h(traj.states[:-1], w))
