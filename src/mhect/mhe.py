"""Sampled moving horizon estimation with a discounted least-squares objective.

At each sampling time t_i the estimator solves, over the window of length
T_ti = min(t_i, T),

    min  2 lam^T_ti |chi - prior|^2_P2
         + int_0^T_ti lam^(T_ti - tau) (2 |w(tau)|^2_Q + |y_meas - y_est|^2_R) dtau

subject to the model dynamics, chi in X and w(tau) in W.  Disturbances are
piecewise constant on the integration grid, so the discount integral has an
exact per-interval closed form; no quadrature error enters the objective.
The solver is a projected Levenberg-Marquardt method on the condensed
(single-shooting) problem, with box projection of the decision variables and
a quadratic penalty on the interior state constraints.  Each iteration
linearizes the window stage by stage with the exact Jacobians of the RK4
step map; the gradient comes from a backward adjoint sweep, and each damped
step from a backward Riccati sweep and a forward rollout, which solve the
condensed Gauss-Newton system without forming it.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, HorizonError
from .certify import DetectabilityCertificate
from .integrate import (Trajectory, _resolve_signal, integrate, output_along, rk4_step,
                        rk4_step_with_jacobians)
from .sysmodel import PiecewiseSignal, as_grid_index, box_clip, box_contains, write_csv

# window solver settings
GRAD_TOL = 1e-8          # converged when the projected gradient norm is at most this
MAX_ITERS = 100          # Levenberg-Marquardt iterations per penalty stage
DAMPING_INIT = 1e-3      # initial Levenberg-Marquardt damping
PENALTY_WEIGHT = 1e6     # initial weight of the state-constraint penalty


def discount_weights(rate, n_pieces, dt, horizon=None):
    """Exact integrals int rate^(horizon - tau) dtau over each grid interval.

    Piece j covers [j*dt, (j+1)*dt); horizon defaults to n_pieces*dt.  Safe
    for rate arbitrarily close to (or equal to) 1, where the weights approach
    dt.
    """
    if n_pieces == 0:
        return np.zeros(0)
    if not (0.0 < rate <= 1.0):
        raise ConfigurationError("discount rate must lie in (0, 1]")
    if horizon is None:
        horizon = n_pieces * dt
    j = np.arange(n_pieces)
    a = math.log(rate)
    if a == 0.0:
        return np.full(n_pieces, dt)
    # rate^(horizon-(j+1)dt) * (1 - rate^dt) / (-ln rate), stable via expm1
    lead = np.exp(a * (horizon - (j + 1) * dt))
    return lead * (math.expm1(a * dt) / a)


# ---------------------------------------------------------------------------
# sampling sets

@dataclass(frozen=True)
class SamplingSet:
    """Strictly increasing sampling times, each an integer multiple of dt."""

    times: np.ndarray
    dt: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ConfigurationError("sampling set needs at least one time")
        ks = np.array([as_grid_index(t, self.dt, "sampling time") for t in times])
        if np.any(ks < 0) or np.any(np.diff(ks) <= 0):
            raise ConfigurationError("sampling times must be strictly increasing and >= 0")
        object.__setattr__(self, "times", ks * self.dt)
        object.__setattr__(self, "_k", ks)

    @property
    def k_indices(self):
        return self._k

    @property
    def delta_bar(self):
        """Largest gap, counting the initial gap from t = 0 to the first sample."""
        ks = self._k
        g = ks[0]
        if ks.size > 1:
            g = max(g, int(np.diff(ks).max()))
        return g * self.dt

    @property
    def last(self):
        return float(self.times[-1])


def k_of(sampling, t):
    """Smallest sampling time >= t (the sample whose window covers t)."""
    times = sampling.times
    i = int(np.searchsorted(times, t - 1e-9 * max(1.0, abs(t))))
    if i >= times.size:
        raise DomainError(f"t = {t} is beyond the last sampling time {times[-1]}")
    return float(times[i])


@dataclass(frozen=True)
class Equidistant:
    delta: float


@dataclass(frozen=True)
class Explicit:
    times: tuple


@dataclass(frozen=True)
class EventTriggered:
    """Sample when the integrated output-innovation energy crosses a threshold.

    The schedule is computed offline from one nominal (w = 0) propagation of
    the model from x0: the energy int |y_meas - y_nom|^2 dtau (Euclidean
    norm) accumulates from the previous sample and the next sample lands on
    the first grid node where it exceeds the threshold, clamped to
    [delta_min, delta_max].  threshold = inf gives spacing delta_max exactly.
    The data (model, u, y, x0) is not part of the spec: make_sampler takes
    it, and run_mhe passes its own.
    """

    threshold: float
    delta_min: float
    delta_max: float


def make_sampler(spec, t_sim, dt, horizon=None, *, model=None, u=None, y=None, x0=None):
    """Realize a sampler spec as a SamplingSet on [0, t_sim].

    Equidistant and Explicit specs need nothing else; EventTriggered needs
    the data context model, u (None without controls), measured y and
    nominal x0, which run_mhe passes as its own model, u, y and chi_hat.
    With horizon given, raises HorizonError when the realized largest gap
    delta_bar reaches or exceeds it (no admissible window).
    """
    K = as_grid_index(t_sim, dt, "t_sim")
    if isinstance(spec, Equidistant):
        kd = as_grid_index(spec.delta, dt, "sampling period")
        if kd < 1:
            raise ConfigurationError("sampling period must be at least dt")
        ks = np.arange(kd, K + 1, kd)
        if ks.size == 0:
            raise ConfigurationError("no sampling times before t_sim")
    elif isinstance(spec, Explicit):
        ks = np.array([as_grid_index(t, dt, "sampling time") for t in spec.times])
        if ks.size and ks[-1] > K:
            raise ConfigurationError("explicit sampling times exceed t_sim")
    elif isinstance(spec, EventTriggered):
        ks = _event_schedule(spec, K, dt, model, u, y, x0)
    else:
        raise ConfigurationError("unknown sampler spec")
    sampling = SamplingSet(ks * dt, dt)
    if horizon is not None:
        _check_gap(sampling, horizon)
    return sampling


def _check_gap(sampling, T):
    if sampling.delta_bar >= T - 1e-12:
        raise HorizonError(
            f"largest sampling gap delta_bar = {sampling.delta_bar} must stay "
            f"strictly below the horizon T = {T}")


def _event_schedule(spec, K, dt, model, u, y, x0):
    if model is None or y is None or x0 is None:
        raise ConfigurationError(
            "event-triggered sampling needs the data context: model, measured y and x0")
    k_min = as_grid_index(spec.delta_min, dt, "delta_min")
    k_max = as_grid_index(spec.delta_max, dt, "delta_max")
    if not 1 <= k_min <= k_max:
        raise ConfigurationError("need dt <= delta_min <= delta_max")
    nom = integrate(model, np.asarray(x0, dtype=float), u, None, 0.0, K * dt, dt)
    y_nom = output_along(model, nom, u, None)
    innov = y.values[:K] - y_nom.values[:K]
    piece_energy = np.einsum("ki,ki->k", innov, innov) * dt
    ks, prev = [], 0
    while prev + k_min <= K:
        # energy since the previous sample, summed in order as a running sum would
        energy = np.cumsum(piece_energy[prev:min(prev + k_max, K)])
        hit = np.flatnonzero(energy[k_min - 1:] > spec.threshold)
        if hit.size:
            prev += k_min + int(hit[0])
        elif prev + k_max <= K:
            prev += k_max
        else:
            break
        ks.append(prev)
    if not ks:
        raise ConfigurationError("event rule produced no sampling times before t_sim")
    return np.array(ks)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class MheConfig:
    """Estimator configuration: certificate, horizon, grid and sampling."""

    cert: DetectabilityCertificate
    T: float
    dt: float
    sampling: object  # SamplingSet or a sampler spec, realized by run_mhe
    equidistant_mode: bool = False

    def __post_init__(self):
        if not (self.T > 0 and self.dt > 0):
            raise ConfigurationError("T and dt must be positive")
        as_grid_index(self.T, self.dt, "horizon T")
        if isinstance(self.sampling, SamplingSet):
            validate_sampling(self, self.sampling)

    @property
    def n_steps_T(self):
        return as_grid_index(self.T, self.dt, "horizon T")


def validate_sampling(cfg, sampling):
    """Check a realized sampling set against the configuration."""
    if abs(sampling.dt - cfg.dt) > 1e-12 * max(1.0, cfg.dt):
        raise ConfigurationError("sampling set and configuration use different dt")
    _check_gap(sampling, cfg.T)
    if cfg.equidistant_mode:
        gaps = np.diff(np.concatenate(([0], sampling.k_indices)))
        if np.any(gaps != gaps[0]):
            raise ConfigurationError("equidistant_mode requires equal sampling gaps from t = 0")
        if cfg.n_steps_T % int(gaps[0]) != 0:
            raise ConfigurationError(
                "equidistant_mode requires T to be an integer multiple of the period "
                "(window boundaries must land on sampling times)")


# ---------------------------------------------------------------------------
# objective

def _quad(M, v):
    return float(v @ M @ v)


def mhe_objective(cfg, prior, chi, w, y_meas, y_est, T_ti):
    """Discounted window objective with exact per-interval discount weights."""
    N = as_grid_index(T_ti, cfg.dt, "window length")
    for sig, name, d in ((w, "w", cfg.cert.Q.shape[0]), (y_meas, "y_meas", cfg.cert.R.shape[0]),
                         (y_est, "y_est", cfg.cert.R.shape[0])):
        if sig.n_pieces != N:
            raise ConfigurationError(f"{name} must have exactly {N} pieces")
        if abs(sig.dt - cfg.dt) > 1e-12 * max(1.0, cfg.dt):
            raise ConfigurationError(f"{name} grid step differs from cfg.dt")
        if sig.dim != d:
            raise ConfigurationError(f"{name} has dimension {sig.dim}, expected {d}")
    cert = cfg.cert
    lam = cert.lam
    d0 = np.asarray(chi, dtype=float) - np.asarray(prior, dtype=float)
    val = 2.0 * lam ** T_ti * _quad(cert.P2, d0)
    if N:
        om = discount_weights(lam, N, cfg.dt, horizon=T_ti)
        dy = y_meas.values - y_est.values
        val += float(np.sum(om * (2.0 * np.einsum("ji,ik,jk->j", w.values, cert.Q, w.values)
                                  + np.einsum("ji,ik,jk->j", dy, cert.R, dy))))
    return val


# ---------------------------------------------------------------------------
# window solver

def _psd_sqrt(M):
    vals, vecs = np.linalg.eigh(M)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass
class SolverStats:
    iterations: int = 0
    trials: int = 0
    grad_norm: float = math.nan
    termination: str = ""
    wall_time: float = 0.0
    cost_history: list = field(default_factory=list)
    escalations: int = 0
    feasible: bool = True
    warnings: list = field(default_factory=list)


@dataclass(frozen=True)
class MheSolution:
    """One window solve: initial state, disturbance pieces, the window
    trajectory of the accepted forward pass (the same RK4 steps on the same
    inputs as integrate(), so x_star is bit-identical to what it returns)
    and the window objective at them."""

    t_i: float
    T_ti: float
    chi_star: np.ndarray
    w_star: PiecewiseSignal
    x_star: Trajectory
    cost: float
    stats: SolverStats


class _WindowProblem:
    def __init__(self, model, cfg, prior, u_seg, y_seg, T_ti):
        self.model = model
        cert = cfg.cert
        self.N = as_grid_index(T_ti, cfg.dt, "window length")
        self.dt = cfg.dt
        n, q, p = model.n, model.q, model.p
        self.n, self.q, self.p = n, q, p
        self.nv = n + self.N * q
        if y_seg.n_pieces != self.N or y_seg.dim != p:
            raise ConfigurationError("y segment does not match the window grid")
        if abs(y_seg.t0) > 1e-12:
            raise ConfigurationError("window segments must be rebased to t0 = 0")
        self.y = y_seg.values
        if model.m > 0:
            if u_seg is None or u_seg.n_pieces != self.N or u_seg.dim != model.m:
                raise ConfigurationError("u segment does not match the window grid")
            self.u = u_seg.values
        else:
            self.u = np.zeros((self.N, 0))
        self.prior = np.asarray(prior, dtype=float)

        om = discount_weights(cert.lam, self.N, self.dt, horizon=T_ti)
        self.sq_prior = math.sqrt(2.0 * cert.lam ** T_ti) * _psd_sqrt(cert.P2)
        self.sqQ = _psd_sqrt(cert.Q)
        self.sqR = _psd_sqrt(cert.R)
        self.sw = np.sqrt(2.0 * om)
        self.sy = np.sqrt(om)

        X, W = model.X, model.W
        self.lb = np.concatenate([X[:, 0], np.tile(W[:, 0], self.N)])
        self.ub = np.concatenate([X[:, 1], np.tile(W[:, 1], self.N)])
        self.x_lo, self.x_hi = X[:, 0], X[:, 1]
        self.pen = PENALTY_WEIGHT

    def project(self, z):
        return np.clip(z, self.lb, self.ub)

    def forward(self, z):
        """Window states for decision z, or None when integration diverges."""
        n, q, N = self.n, self.q, self.N
        states = np.empty((N + 1, n))
        x = z[:n]
        states[0] = x
        Wp = z[n:].reshape(N, q)
        for j in range(N):
            x = rk4_step(self.model, x, self.u[j], Wp[j], self.dt)
            if not np.all(np.isfinite(x)):
                return None
            states[j + 1] = x
        return states

    def _active_violations(self, states):
        """Arrays (node, component, signed violation) of the states outside X,
        in row-major order; residuals and jacobian share this order."""
        below = states < self.x_lo
        j, i = np.nonzero(below | (states > self.x_hi))
        v = np.where(below[j, i], states[j, i] - self.x_lo[i], states[j, i] - self.x_hi[i])
        return j, i, v

    def residuals(self, z, states):
        """Stacked residual vector r with f = |r|^2 = objective + penalty."""
        n, q, N = self.n, self.q, self.N
        Wp = z[n:].reshape(N, q)
        parts = [self.sq_prior @ (z[:n] - self.prior)]
        if N:
            parts.append((self.sw[:, None] * (Wp @ self.sqQ)).ravel())
            y_est = self.model.h(states[:-1], self.u, Wp)
            parts.append((self.sy[:, None] * ((self.y - y_est) @ self.sqR)).ravel())
        _, _, v = self._active_violations(states)
        if v.size:
            parts.append(math.sqrt(self.pen) * v)
        return np.concatenate(parts)

    def evaluate(self, z):
        """(states, r, |r|^2) at decision z, or None when integration diverges."""
        states = self.forward(z)
        if states is None:
            return None
        r = self.residuals(z, states)
        return states, r, float(r @ r)

    def linearize(self, z, states, r):
        """Stage-wise Gauss-Newton model of |r|^2 around (z, states).

        With dx_0 = dchi and dx_{j+1} = A_j dx_j + B_j dw_j, the residual
        Jacobian J gives J'J and J'r as bordered stage matrices G (N+1, m, m)
        over (dw_j, dx_j, 1), m = q + n + 1: the J'J blocks of the stage,
        J'r in the last row and column, and no dw at node N.  The
        transitions are S (N, n+1, m) with [dx_{j+1}; 1] = S_j [dw_j; dx_j; 1].
        The prior sits in node 0, state-penalty rows at their node.
        """
        n, q, N, p = self.n, self.q, self.N, self.p
        nodes = (states[:-1], self.u, z[n:].reshape(N, q))
        _, A, B = rk4_step_with_jacobians(self.model, *nodes, self.dt)
        Hx = self.model.jac_h_x(*nodes)
        Hw = self.model.jac_h_w(*nodes)
        r_p = r[:n]
        r_w = r[n:n + N * q].reshape(N, q)
        r_y = r[n + N * q:n + N * (q + p)].reshape(N, p)
        r_v = r[n + N * (q + p):]
        # output rows -sy_j sqR [Hw_j  Hx_j] with their residuals, and
        # disturbance rows sw_j sqQ
        Cw = -self.sy[:, None, None] * (self.sqR @ Hw)
        Cx = -self.sy[:, None, None] * (self.sqR @ Hx)
        Z = np.concatenate([Cw, Cx, r_y[:, :, None]], axis=2)
        G = np.zeros((N + 1, q + n + 1, q + n + 1))
        G[:N] = np.einsum("jki,jkl->jil", Z, Z)
        G[:N, :q, :q] += (self.sw ** 2)[:, None, None] * (self.sqQ.T @ self.sqQ)
        G[:N, :q, -1] += self.sw[:, None] * (r_w @ self.sqQ)
        G[0, q:-1, q:-1] += self.sq_prior.T @ self.sq_prior
        G[0, q:-1, -1] += self.sq_prior.T @ r_p
        j, i, _ = self._active_violations(states)
        np.add.at(G, (j, q + i, q + i), self.pen)
        np.add.at(G, (j, q + i, -1), math.sqrt(self.pen) * r_v)
        G[:, -1, :-1] = G[:, :-1, -1]
        S = np.zeros((N, n + 1, q + n + 1))
        S[:, :n, :q] = B
        S[:, :n, q:-1] = A
        S[:, n, -1] = 1.0
        return G, S

    def gradient(self, lin):
        """J'r by the backward adjoint sweep over the stages."""
        G, S = lin
        n, q, N = self.n, self.q, self.N
        lam = np.empty((N + 1, n))
        lam[N] = G[N, q:-1, -1]
        for j in range(N - 1, -1, -1):
            lam[j] = G[j, q:-1, -1] + S[j, :n, q:-1].T @ lam[j + 1]
        gw = G[:N, :q, -1] + np.einsum("jik,ji->jk", S[:, :n, :q], lam[1:])
        return np.concatenate([lam[0], gw.ravel()])

    def lm_step(self, lin, free, mu):
        """Damped Gauss-Newton step d with ((J'J)_ff + mu I) d_f = -(J'r)_f
        and d = 0 off the free set, by a backward Riccati sweep over the
        stages of linearize and a forward rollout.

        Pinned coordinates of w are masked, not sliced out: a zero column of
        B_j, a zero row and column with a unit diagonal in the stage matrix,
        so their step is exactly 0 and the free block is unchanged.
        """
        G, S = lin
        n, q, N = self.n, self.q, self.N
        fw = free[n:].reshape(N, q)
        H = G[:N].copy()
        H[:, :q, :q] += mu * np.eye(q)
        H[:, :q] *= fw[:, :, None]
        H[:, :, :q] *= fw[:, None, :]
        j, i = np.nonzero(~fw)
        H[j, i, i] = 1.0
        S = S.copy()
        S[:, :n, :q] *= fw[:, None, :]
        # V: bordered cost-to-go over (dx_{j+1}, 1)
        V = G[N, q:, q:].copy()
        # dw_j = -K_j [dx_j; 1]
        K = [None] * N
        for j in range(N - 1, -1, -1):
            Sj = S[j]
            Qj = Sj.T @ V @ Sj
            Qj += H[j]
            Kj = K[j] = np.linalg.solve(Qj[:q, :q], Qj[:q, q:])
            V = Qj[q:, q:]
            V -= Qj[q:, :q] @ Kj
        # chi last, on its free coordinates
        fx = free[:n]
        M = (V[:n, :n] + mu * np.eye(n)) * np.outer(fx, fx)
        M[~fx, ~fx] = 1.0
        step = np.empty(self.nv)
        v = np.empty(q + n + 1)
        v[q:-1] = step[:n] = np.linalg.solve(M, -V[:n, n] * fx)
        v[-1] = 1.0
        for j in range(N):
            v[:q] = -K[j] @ v[q:]
            step[n + j * q:n + (j + 1) * q] = v[:q]
            v[q:] = S[j] @ v
        return step


def _solve_window(model, cfg, prior, u_seg, y_seg, t_i, T_ti, warm=None):
    t_start = time.perf_counter()
    stats = SolverStats()
    prob = _WindowProblem(model, cfg, prior, u_seg, y_seg, T_ti)
    n, q, N = prob.n, prob.q, prob.N

    if not box_contains(model.X, prob.prior, tol=1e-9):
        stats.warnings.append("prior outside X, projected")
        prob.prior = box_clip(model.X, prob.prior)

    z = np.concatenate([prob.prior, np.zeros(N * q)])
    if warm is not None:
        shift = as_grid_index((t_i - T_ti) - (warm.t_i - warm.T_ti), cfg.dt, "warm-start shift")
        if shift < 0:
            raise ConfigurationError("warm start must come from an earlier window")
        N_prev = warm.w_star.n_pieces
        if shift <= N_prev:
            z[:n] = warm.x_star.states[shift]
            keep = min(N, N_prev - shift)
            if keep > 0:
                z[n:n + keep * q] = warm.w_star.values[shift:shift + keep].ravel()
    z = prob.project(z)

    states = prob.forward(z)
    if states is None:
        # fall back to the cold start; the prior is a valid model state
        z = prob.project(np.concatenate([prob.prior, np.zeros(N * q)]))
        states = prob.forward(z)
        if states is None:
            raise DivergenceError("window integration diverges even from the prior")
        stats.warnings.append("warm start diverged, cold start used")

    max_escalations = 8
    while True:
        r = prob.residuals(z, states)
        f = float(r @ r)
        stats.cost_history = [f]
        mu = DAMPING_INIT
        term = "max_iters"
        for _ in range(MAX_ITERS):
            lin = prob.linearize(z, states, r)
            g = 2.0 * prob.gradient(lin)
            pg = z - prob.project(z - g)
            stats.grad_norm = float(np.linalg.norm(pg))
            if stats.grad_norm <= GRAD_TOL:
                term = "converged"
                break
            # Coordinates pinned at a bound with the gradient pushing outward
            # stay pinned this iteration; the damped step acts on the face.
            binding = ((z <= prob.lb) & (g > 0.0)) | ((z >= prob.ub) & (g < 0.0))
            free = ~binding
            trial = None
            z_scale = 1.0 + float(np.linalg.norm(z))
            for _trial in range(60 if free.any() else 0):
                stats.trials += 1
                try:
                    step = prob.lm_step(lin, free, mu)
                except np.linalg.LinAlgError:
                    mu = max(mu, 1e-12) * 10.0
                    continue
                z_try = prob.project(z + step)
                if np.linalg.norm(z_try - z) <= 1e-15 * z_scale:
                    break
                trial = prob.evaluate(z_try)
                if trial is not None and trial[2] < f:
                    mu = max(mu * 0.3, 1e-14)
                    break
                trial = None
                mu = max(mu, 1e-14) * 4.0
                if mu > 1e15:
                    break
            if trial is None:
                # Damped steps clipped at the box can cycle without descent;
                # backtrack along the projection arc of -g, which always
                # admits an Armijo step away from a non-stationary point.
                alpha = 1.0
                for _trial in range(50):
                    stats.trials += 1
                    z_try = prob.project(z - alpha * g)
                    gdot = float(g @ (z_try - z))
                    if np.linalg.norm(z_try - z) <= 1e-15 * z_scale or gdot >= 0.0:
                        break
                    trial = prob.evaluate(z_try)
                    if trial is not None and trial[2] <= f + 1e-4 * gdot:
                        break
                    trial = None
                    alpha *= 0.5
            if trial is None:
                term = "stalled"
                break
            z = z_try
            states, r, f = trial
            stats.cost_history.append(f)
            stats.iterations += 1
        stats.termination = term
        if box_contains(model.X, states, tol=1e-9):
            stats.feasible = True
            break
        if stats.escalations >= max_escalations:
            stats.feasible = False
            stats.warnings.append("state constraints violated beyond tolerance after penalty escalation")
            break
        stats.escalations += 1
        prob.pen *= 2.0

    chi_star = z[:n].copy()
    w_star = PiecewiseSignal(0.0, cfg.dt, z[n:].reshape(N, q).copy())
    x_star = Trajectory(0.0, cfg.dt, states)
    y_star = output_along(model, x_star, u_seg, w_star)
    cost = mhe_objective(cfg, prob.prior, chi_star, w_star, y_seg, y_star, T_ti)
    stats.wall_time = time.perf_counter() - t_start
    return MheSolution(t_i, T_ti, chi_star, w_star, x_star, cost, stats)


def solve_mhe(model, cfg, prior, u_seg, y_seg, t_i, warm=None):
    """Solve the estimation window ending at t_i with horizon min(t_i, T).

    u_seg and y_seg are the window segments rebased to [0, T_ti); warm is the
    previous MheSolution (shifted internally by the inter-sample gap, new
    tail pieces of w start at zero).
    """
    T_ti = min(t_i, cfg.T)
    return _solve_window(model, cfg, prior, u_seg, y_seg, t_i, T_ti, warm)


def solve_fie(model, cfg, chi_hat, u_seg, y_seg, t_i):
    """Full-information variant: the window always spans [0, t_i] with the
    initial prior chi_hat.  Coincides with solve_mhe while t_i <= T."""
    return _solve_window(model, cfg, np.asarray(chi_hat, dtype=float), u_seg, y_seg,
                         t_i, float(t_i))


# ---------------------------------------------------------------------------
# closed-loop run over a sampling set

@dataclass(frozen=True)
class TruthRecord:
    chi: np.ndarray
    w: PiecewiseSignal
    x_true: Trajectory


@dataclass
class EstimationRun:
    """Estimate segments stitched over the sampling set.

    estimate[k] is the estimate at node k*dt for k = 0..k_last (the last
    sampling time); node_flags carries the termination flag of the solve
    that wrote each node.
    """

    cfg: MheConfig
    sampling: SamplingSet
    dt: float
    chi_hat: np.ndarray
    estimate: np.ndarray
    node_flags: list
    solutions: list
    y: PiecewiseSignal
    truth: TruthRecord | None

    @property
    def times(self):
        return self.dt * np.arange(self.estimate.shape[0])

    def estimate_csv(self, path):
        header = ["t"] + [f"xhat{i + 1}" for i in range(self.estimate.shape[1])] + ["flag"]
        write_csv(path, header, ([t, *x, flag] for t, x, flag in
                                 zip(self.times, self.estimate, self.node_flags)))

    def samples_csv(self, path):
        header = ["t_i", "cost", "iterations", "grad_norm", "wall_time"]
        write_csv(path, header, ([s.t_i, s.cost, s.stats.iterations, s.stats.grad_norm,
                                  s.stats.wall_time] for s in self.solutions))

    def truth_csv(self, path):
        if self.truth is None:
            raise ConfigurationError("run carries no ground truth")
        self.truth.x_true.to_csv(path)


def run_mhe(model, cfg, *, chi_hat, t_sim, chi=None, u=None, w=None, y=None):
    """Run the estimator over [0, t_sim].

    Either supply ground truth (chi, optional u and w) to simulate the
    measurements, or recorded measurements y directly.  Returns an
    EstimationRun with the stitched estimate, per-sample solutions and, in
    truth mode, the reference trajectory for later audits.
    """
    dt = cfg.dt
    K = as_grid_index(t_sim, dt, "t_sim")
    if K < 1:
        raise ConfigurationError("t_sim must cover at least one step")
    chi_hat = np.asarray(chi_hat, dtype=float)
    if chi_hat.shape != (model.n,):
        raise ConfigurationError(f"chi_hat must have shape ({model.n},)")
    if not box_contains(model.X, chi_hat, tol=1e-9):
        raise ConfigurationError("chi_hat must lie in X")

    truth = None
    if y is None:
        if chi is None:
            raise ConfigurationError("need ground truth chi (or recorded measurements y)")
        chi = np.asarray(chi, dtype=float)
        if not box_contains(model.X, chi, tol=1e-9):
            raise ConfigurationError("true initial state must lie in X")
        # the truth's w on the run grid, so audits slice it at sampling times
        w = PiecewiseSignal(0.0, dt, _resolve_signal(w, model.q, 0.0, t_sim, dt, K, "w"))
        x_true = integrate(model, chi, u, w, 0.0, t_sim, dt)
        y = output_along(model, x_true, u, w)
        truth = TruthRecord(chi, w, x_true)
    else:
        if y.n_pieces < K or abs(y.t0) > 1e-12:
            raise ConfigurationError("recorded y must cover [0, t_sim) from t0 = 0")

    sampling = cfg.sampling
    if not isinstance(sampling, SamplingSet):
        sampling = make_sampler(sampling, t_sim, dt, model=model, u=u, y=y, x0=chi_hat)
    validate_sampling(cfg, sampling)

    ks = sampling.k_indices
    k_last = int(ks[-1])
    n_T = cfg.n_steps_T
    estimate = np.full((k_last + 1, model.n), np.nan)
    estimate[0] = chi_hat
    node_flags = [""] * (k_last + 1)
    node_flags[0] = "prior"
    solutions = []
    prev_k = 0
    warm = None
    for k_i in ks:
        k_i = int(k_i)
        N_i = min(k_i, n_T)
        s_i = k_i - N_i
        t_i = k_i * dt
        u_seg = u.slice(s_i * dt, k_i * dt) if (u is not None and model.m > 0) else None
        y_seg = y.slice(s_i * dt, k_i * dt)
        prior = estimate[s_i]
        if not np.all(np.isfinite(prior)):
            raise ConfigurationError("window start precedes the estimated range")
        sol = solve_mhe(model, cfg, prior, u_seg, y_seg, t_i, warm=warm)
        solutions.append(sol)
        span = slice(prev_k + 1, k_i + 1)
        estimate[span] = sol.x_star.states[prev_k + 1 - s_i:k_i + 1 - s_i]
        for k in range(prev_k + 1, k_i + 1):
            node_flags[k] = sol.stats.termination
        warm = sol
        prev_k = k_i
    return EstimationRun(cfg, sampling, dt, chi_hat, estimate, node_flags, solutions, y,
                         truth)


def truth_candidate_cost(run, i):
    """Objective value of the true trajectory on window i (an upper bound for
    the solver's cost when the solve is globally optimal).

    Because the measurements were generated by the same step map, restarting
    from the stored true node state reproduces the window bit-identically and
    the output residual vanishes exactly.
    """
    if run.truth is None:
        raise ConfigurationError("run carries no ground truth")
    cfg = run.cfg
    sol = run.solutions[i]
    k_i = as_grid_index(sol.t_i, run.dt, "sample time")
    N_i = sol.w_star.n_pieces
    s_i = k_i - N_i
    prior = run.estimate[s_i]
    chi_true = run.truth.x_true.states[s_i]
    w_seg = run.truth.w.slice(s_i * run.dt, k_i * run.dt)
    y_seg = run.y.slice(s_i * run.dt, k_i * run.dt)
    return mhe_objective(cfg, prior, chi_true, w_seg, y_seg, y_seg, sol.T_ti)
