"""Fixed-step RK4 integration with piecewise-constant inputs.

The inputs u and w are held at their left-endpoint piece values for all four
stages of each step, so the discrete-time step map is exactly reproducible:
identical inputs give bit-identical trajectories.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .sysmodel import PiecewiseSignal, as_grid_index, write_csv


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

    @property
    def times(self):
        return self.dt * np.arange(self.states.shape[0])

    def to_csv(self, path):
        header = ["t"] + [f"x{i + 1}" for i in range(self.states.shape[1])]
        write_csv(path, header, np.column_stack([self.times, self.states]))


def rk4_step(model, x, u, w, dt):
    """One classic RK4 step with u, w frozen across the stages."""
    f = model.f
    k1 = f(x, u, w)
    k2 = f(x + 0.5 * dt * k1, u, w)
    k3 = f(x + 0.5 * dt * k2, u, w)
    k4 = f(x + dt * k3, u, w)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_with_jacobians(model, x, u, w, dt):
    """RK4 step plus exact step-map Jacobians d(next x)/dx and d(next x)/dw.

    Differentiates the four stages by the chain rule using the model's
    continuous-time Jacobians, so the returned matrices are the derivatives
    of the discrete step map itself (not a discretization of the
    continuous-time linearization).  x, u, w may carry leading batch axes,
    one step per row: the results have shapes (..., n), (..., n, n) and
    (..., n, q).
    """
    I = np.eye(model.n)
    # stage 1 (c = 0, b = 1); D and E are the stage's sensitivities
    # d k_s/dx and d k_s/dw, and sk, sD, sE the b-weighted sums over stages
    k = model.f(x, u, w)
    D = model.jac_f_x(x, u, w)
    E = model.jac_f_w(x, u, w)
    sk, sD, sE = k, D, E
    for c, b in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        xs = x + c * dt * k
        k = model.f(xs, u, w)
        A = model.jac_f_x(xs, u, w)
        D = A @ (I + c * dt * D)
        E = model.jac_f_w(xs, u, w) + A @ (c * dt * E)
        sk = sk + b * k
        sD = sD + b * D
        sE = sE + b * E
    h = dt / 6.0
    return x + h * sk, I + h * sD, h * sE


def _resolve_signal(sig, dim, dt, steps, name):
    """Per-step input values: row k is the piece holding k*dt."""
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


def integrate(model, chi, u, w, t_end, dt):
    """Integrate x' = f(x, u(t), w(t)) from chi over [0, t_end] on a fixed grid.

    dt must divide t_end and the signals' piece lengths exactly; u and w
    may be None for zero inputs.  Raises DivergenceError (with the offending
    time attached) if the state leaves float range.
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
    u = _resolve_signal(u, model.m, dt, steps, "u")
    w = _resolve_signal(w, model.q, dt, steps, "w")
    x = chi
    # a non-finite component stays non-finite through RK4, so one check
    # after the loop finds the first step that left float range
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = states[k + 1] = rk4_step(model, x, u[k], w[k], dt)
    bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if bad.size:
        tk = int(bad[0]) * dt
        raise DivergenceError(
            f"integration diverged at t = {tk + dt} (non-finite state)", t=tk + dt)
    return Trajectory(dt, states)


def output_along(model, traj, u, w):
    """Output samples h(x(t_k), u(t_k), w(t_k)) at the left node of each step.

    Returns a piecewise-constant signal with the trajectory's grid; this is
    the measurement convention used throughout (y available as grid samples).
    """
    K = traj.n_steps
    u = _resolve_signal(u, model.m, traj.dt, K, "u")
    w = _resolve_signal(w, model.q, traj.dt, K, "w")
    return PiecewiseSignal(traj.dt, model.h(traj.states[:-1], u, w))
