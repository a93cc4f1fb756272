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
step map.  The gradient (the adjoint recursion) and each damped step (the
Riccati recursion for the cost-to-go and the rollout of the step) solve the
condensed Gauss-Newton system without forming it, each as an associative
scan over the N stages in ceil(log2(N + 1)) levels of batched small-matrix
operations.  Each trial rolls out the same way, by Newton over the sequence
from the current states plus the step's linear rollout, and falls back to
sequential RK4 steps when that does not reach rounding level; its last
step Jacobians serve the next linearization, and the accepted trial's
states are the window's.  A warm-started window rolls out sequentially only
the steps its predecessor did not run.  A solve stops at the gradient
tolerance, or at the precision floor when, before any rejection, the model
credits the damped step d with no more than rounding (its decrease is
mu |d|^2 - g.d/2).
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, HorizonError
from .certify import DetectabilityCertificate, check_weight_sizes
from .integrate import (Trajectory, _resolve_signal, integrate, output_along, rk4_step,
                        rk4_step_with_jacobians)
from .sysmodel import PiecewiseSignal, as_grid_index, box_clip, box_contains, write_csv

# window solver settings
GRAD_TOL = 1e-8          # converged when the projected gradient norm is at most this
PRECISION_TOL = 1e-12    # converged_at_precision at a predicted decrease <= this * cost
ROLLOUT_TOL = 8 * np.finfo(float).eps   # Newton rollout: relative defect at every node
ROLLOUT_MAX_ITERS = 8    # Newton rollout iterations before the sequential fallback
MAX_ITERS = 100          # Levenberg-Marquardt iterations per penalty stage
DAMPING_INIT = 1e-3      # initial Levenberg-Marquardt damping
PENALTY_WEIGHT = 1e6     # initial weight of the state-constraint penalty
MAX_ESCALATIONS = 8      # doublings of the penalty weight before a window is infeasible

_log = logging.getLogger(__name__)


def discount_weights(rate, n_pieces, dt, horizon):
    """Exact integrals int rate^(horizon - tau) dtau over each grid interval.

    Piece j covers [j*dt, (j+1)*dt).  Safe for rate arbitrarily close to 1,
    where the weights approach dt.
    """
    if not (0.0 < rate < 1.0):
        raise ConfigurationError("discount rate must lie strictly inside (0, 1)")
    j = np.arange(n_pieces)
    a = math.log(rate)
    # rate^(horizon-(j+1)dt) * (1 - rate^dt) / (-ln rate), stable via expm1
    lead = np.exp(a * (horizon - (j + 1) * dt))
    return lead * (math.expm1(a * dt) / a)


# ---------------------------------------------------------------------------
# sampling sets

@dataclass(frozen=True)
class SamplingSet:
    """A realized schedule: strictly increasing grid indices k_i >= 0 of the
    sampling times t_i = k_i * dt.  make_sampler builds it from a spec."""

    k_indices: np.ndarray
    dt: float

    def __post_init__(self):
        ks = np.asarray(self.k_indices)
        if ks.ndim != 1 or ks.size < 1:
            raise ConfigurationError("sampling set needs at least one time")
        if ks.dtype.kind not in "iu" or np.any(ks < 0) or np.any(np.diff(ks) <= 0):
            raise ConfigurationError("sampling times must be strictly increasing and >= 0")
        object.__setattr__(self, "k_indices", ks)

    @property
    def times(self):
        return self.k_indices * self.dt

    @property
    def delta_bar(self):
        """Largest gap, counting the initial gap from t = 0 to the first sample."""
        return int(np.diff(self.k_indices, prepend=0).max()) * self.dt


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


def make_sampler(spec, t_sim, dt, horizon, *, model=None, u=None, y=None, x0=None):
    """Realize a sampler spec as a SamplingSet on [0, t_sim] and check it
    against the horizon: the one place where a schedule is built and the
    largest gap delta_bar is held strictly below T (HorizonError otherwise,
    since no window would be admissible).

    Equidistant and Explicit specs need nothing else; EventTriggered needs
    the data context model, u (None without controls), measured y and
    nominal x0, which run_mhe passes as its own model, u, y and chi_hat.
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
    sampling = SamplingSet(ks, dt)
    if sampling.delta_bar >= horizon - 1e-12:
        raise HorizonError(
            f"largest sampling gap delta_bar = {sampling.delta_bar} must stay "
            f"strictly below the horizon T = {horizon}")
    return sampling


def _event_schedule(spec, K, dt, model, u, y, x0):
    if model is None or y is None or x0 is None:
        raise ConfigurationError(
            "event-triggered sampling needs the data context: model, measured y and x0")
    if not spec.threshold >= 0.0:
        raise ConfigurationError(
            f"event threshold = {spec.threshold} must be >= 0 (Infinity for spacing delta_max)")
    k_min = as_grid_index(spec.delta_min, dt, "delta_min")
    k_max = as_grid_index(spec.delta_max, dt, "delta_max")
    if not 1 <= k_min <= k_max:
        raise ConfigurationError("need dt <= delta_min <= delta_max")
    nom = integrate(model, np.asarray(x0, dtype=float), u, None, K * dt, dt)
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
    """Estimator configuration: certificate, horizon T, grid step dt and the
    sampler spec (Equidistant, Explicit or EventTriggered), which run_mhe
    realizes on its run with make_sampler.  equidistant_mode (the tightened
    bound bookkeeping) needs an Equidistant spec whose period divides T."""

    cert: DetectabilityCertificate
    T: float
    dt: float
    sampling: object
    equidistant_mode: bool = False

    def __post_init__(self):
        if not (self.T > 0 and self.dt > 0):
            raise ConfigurationError("T and dt must be positive")
        as_grid_index(self.T, self.dt, "horizon T")
        if self.equidistant_mode:
            kd = (as_grid_index(self.sampling.delta, self.dt, "sampling period")
                  if isinstance(self.sampling, Equidistant) else 0)
            if kd < 1 or self.n_steps_T % kd:
                raise ConfigurationError(
                    "equidistant_mode requires an equidistant sampler whose period divides "
                    "T (window boundaries must land on sampling times)")

    @property
    def n_steps_T(self):
        return as_grid_index(self.T, self.dt, "horizon T")


# ---------------------------------------------------------------------------
# objective

def _quad(M, v):
    return float(v @ M @ v)


def _discounted_energy(M, rate, v, dt, horizon):
    """int_0^horizon rate^(horizon - tau) |v(tau)|^2_M dtau over the pieces v,
    row j on [j*dt, (j+1)*dt), with the exact per-piece discount weights."""
    om = discount_weights(rate, len(v), dt, horizon)
    return float(np.sum(om * np.einsum("ji,ik,jk->j", v, M, v)))


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
    escalations: int = 0
    rollout_fallbacks: int = 0   # trials whose Newton rollout gave way to forward
    feasible: bool = True


@dataclass(frozen=True)
class MheSolution:
    """One window solve: initial state, disturbance pieces, the window
    trajectory and the window objective at them.  x_star holds the states
    of the accepted trial's rollout, whose defect is at most ROLLOUT_TOL |Phi|
    at every node: they agree with integrate() from chi_star under w_star to
    within 1e-12 max|x| over the window, not bit for bit.  cost is the squared
    norm of the solver's objective rows (prior, disturbance and output rows;
    not the state-penalty rows) at chi_star, w_star and x_star."""

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
        self.n, self.q, self.p = model.n, model.q, model.p
        if y_seg.n_pieces != self.N or y_seg.dim != self.p:
            raise ConfigurationError("y segment does not match the window grid")
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
        self.rollout_fallbacks = 0

    def project(self, z):
        return np.clip(z, self.lb, self.ub)

    def forward(self, z, prefix=None):
        """Window states for decision z by sequential RK4 steps, or None when
        integration diverges.  prefix, the states of the first nodes when an
        earlier rollout of the same steps already holds them, is copied and
        only the remaining steps run."""
        n, q, N = self.n, self.q, self.N
        states = np.empty((N + 1, n))
        if prefix is None:
            prefix = z[None, :n]
        k = len(prefix) - 1
        states[:k + 1] = prefix
        x = states[k]
        Wp = z[n:].reshape(N, q)
        # a non-finite component stays non-finite through RK4, so one check
        # after the rollout finds any step that left float range
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k, N):
                x = states[j + 1] = rk4_step(self.model, x, self.u[j], Wp[j], self.dt)
        return states if np.isfinite(states).all() else None

    def rollout(self, z, guess):
        """(states, (A, B)) for decision z by Newton over the sequence from
        the guess states (DEER: Lim et al., ICLR 2024), or None when no iterate
        within ROLLOUT_MAX_ITERS is finite with every defect at rounding level.

        Each iteration linearizes the step map at the guess s with one batched
        call and solves d_{j+1} = A_j d_j + (Phi(s_j) - s_{j+1}), d_0 = 0, for
        the correction by a scan of the bordered maps [[A_j, Phi(s_j) - s_{j+1}],
        [0, 1]].  It stops once |Phi(s_j) - s_{j+1}| <= ROLLOUT_TOL |Phi(s_j)|
        componentwise at every node, so the states agree with forward's to
        rounding, though not bit for bit.  The step Jacobians (A, B) of that
        last check are the ones linearize needs at the returned states.
        """
        n, q, N = self.n, self.q, self.N
        Wp = z[n:].reshape(N, q)
        s = guess.copy()
        s[0] = z[:n]
        maps = np.zeros((N, n + 1, n + 1))
        maps[:, n, n] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(ROLLOUT_MAX_ITERS):
                phi, A, B = rk4_step_with_jacobians(self.model, s[:-1], self.u, Wp, self.dt)
                defect = phi - s[1:]
                if not (np.isfinite(defect).all() and np.isfinite(A).all()):
                    return None
                if np.all(np.abs(defect) <= ROLLOUT_TOL * np.abs(phi)):
                    return s, (A, B)
                maps[:, :n, :n] = A
                maps[:, :n, n] = defect
                d = _suffix_scan(maps[::-1], np.eye(n + 1)[n], np.matmul, _matvec)
                s += d[::-1, :n]
        return None

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

    def evaluate(self, z, guess):
        """(states, r, |r|^2, jac) at decision z, or None when integration
        diverges.  The states and their step Jacobians jac come from the
        Newton rollout from guess; when it fails the states come from forward,
        jac is None and rollout_fallbacks counts it."""
        states, jac = self.rollout(z, guess) or (None, None)
        if states is None:
            self.rollout_fallbacks += 1
            states = self.forward(z)
            if states is None:
                return None
        r = self.residuals(z, states)
        return states, r, float(r @ r), jac

    def linearize(self, z, states, r, jac=None):
        """Stage-wise Gauss-Newton model of |r|^2 around (z, states).

        With dx_0 = dchi and dx_{j+1} = A_j dx_j + B_j dw_j, the residual
        Jacobian J gives J'J and J'r as bordered stage matrices G (N+1, m, m)
        over (dw_j, dx_j, 1), m = q + n + 1: the J'J blocks of the stage,
        J'r in the last row and column, and no dw at node N.  The
        transitions are S (N, n+1, m) with [dx_{j+1}; 1] = S_j [dw_j; dx_j; 1].
        The prior sits in node 0, state-penalty rows at their node.  jac, a
        rollout's step Jacobians (A, B) at these nodes, saves their evaluation.
        """
        n, q, N, p = self.n, self.q, self.N, self.p
        nodes = (states[:-1], self.u, z[n:].reshape(N, q))
        A, B = jac or rk4_step_with_jacobians(self.model, *nodes, self.dt)[1:]
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
        """J'r by the adjoint recursion lam_j = lx_j + A_j' lam_{j+1}: a suffix
        scan of the bordered maps [[A_j', lx_j], [0, 1]] on [lam_N; 1]."""
        G, S = lin
        n, q, N = self.n, self.q, self.N
        maps = S[:, :, q:].transpose(0, 2, 1).copy()
        maps[:, :n, n] = G[:N, q:-1, -1]
        lam = _suffix_scan(maps, np.append(G[N, q:-1, -1], 1.0), np.matmul, _matvec)[:, :n]
        gw = G[:N, :q, -1] + np.einsum("jik,ji->jk", S[:, :n, :q], lam[1:])
        return np.concatenate([lam[0], gw.ravel()])

    def lm_step(self, lin, free, mu):
        """Damped Gauss-Newton step d with ((J'J)_ff + mu I) d_f = -(J'r)_f
        and d = 0 off the free set, and the linearized state changes dx
        (N + 1, n) it makes, from the stages of linearize in
        ceil(log2(N + 1)) batched levels:

        1. dw_j = u_j - E_j xt_j, xt_j = [dx_j; 1], removes each stage's
           cross term: cost u'R u + xt'L xt and xt_{j+1} = F xt + B u.
        2. The cost-to-go matrices V_j over xt_j come from a suffix scan of
           the elements (F, B R^-1 B', L) with the combination rule of
           Sarkka and Garcia-Fernandez (IEEE TAC 68(2), 2023).
        3. One batched Q_j = S_j' V_{j+1} S_j + H_j gives every gain K_j with
           dw_j = -K_j xt_j; chi is solved last from V_0.
        4. The step rolls out by prefix products of Phi_j = S_j [-K_j; I].

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
        Sw, Sx = S[:, :, :q], S[:, :, q:]
        EY = np.linalg.solve(H[:, :q, :q],
                             np.concatenate([H[:, :q, q:], Sw.transpose(0, 2, 1)], axis=2))
        E, Y = EY[:, :, :n + 1], EY[:, :, n + 1:]
        elems = np.stack([Sx - Sw @ E, Sw @ Y, H[:, q:, q:] - H[:, q:, :q] @ E], axis=1)
        V = _suffix_scan(elems, G[N, q:, q:], _riccati_combine, _riccati_apply)
        Q = S.transpose(0, 2, 1) @ V[1:] @ S + H
        K = np.linalg.solve(Q[:, :q, :q], Q[:, :q, q:])
        # chi last, on its free coordinates
        fx = free[:n]
        M = (V[0, :n, :n] + mu * np.eye(n)) * np.outer(fx, fx)
        M[~fx, ~fx] = 1.0
        xt = np.append(np.linalg.solve(M, -V[0, :n, n] * fx), 1.0)
        xt = _suffix_scan((Sx - Sw @ K)[::-1], xt, np.matmul, _matvec)[::-1]
        return np.concatenate([xt[0, :n], -_matvec(K, xt[:-1]).ravel()]), xt[:, :n]


def _matvec(M, v):
    return np.einsum("kij,kj->ki", M, v)


def _suffix_scan(elems, last, combine, apply):
    """All v_k = e_k(e_{k+1}(... e_{N-1}(last))), k = 0..N, for N maps
    stacked in elems, by recursive pairing (Blelloch, "Prefix sums and their
    applications", 1990): one batched combine and one batched apply per
    level, ceil(log2(N + 1)) levels.

    combine(a, b) stacks the maps a o b of two equal batches, apply(e, v)
    the values e(v).  Pairs are taken from the back, so an odd map out is
    e_0 and each level fills its remaining values in one apply.
    """
    N = elems.shape[0]
    out = np.empty((N + 1,) + last.shape)
    out[N] = last
    s = N % 2
    if N > 1:
        out[s::2] = _suffix_scan(combine(elems[s::2], elems[s + 1::2]), last, combine, apply)
    out[1 - s::2] = apply(elems[1 - s::2], out[2 - s::2])
    return out


def _riccati_apply(e, V):
    """Cost-to-go A'V (I + C V)^-1 A + L of the elements e = (A, C, L) over
    the next stage's cost-to-go V."""
    A, C, L = e[:, 0], e[:, 1], e[:, 2]
    X = np.linalg.solve(np.eye(A.shape[-1]) + C @ V, A)
    return A.transpose(0, 2, 1) @ V @ X + L


def _riccati_combine(a, b):
    """The element of stage a followed by stage b: with M = I + C_a L_b,
    (A_b M^-1 A_a, A_b M^-1 C_a A_b' + C_b, A_a' L_b M^-1 A_a + L_a)."""
    Aa, Ca, La = a[:, 0], a[:, 1], a[:, 2]
    Ab, Cb, Lb = b[:, 0], b[:, 1], b[:, 2]
    m = Aa.shape[-1]
    X = np.linalg.solve(np.eye(m) + Ca @ Lb, np.concatenate([Aa, Ca], axis=2))
    XA, XC = X[:, :, :m], X[:, :, m:]
    return np.stack([Ab @ XA, Ab @ XC @ Ab.transpose(0, 2, 1) + Cb,
                     Aa.transpose(0, 2, 1) @ Lb @ XA + La], axis=1)


def _lm_stage(prob, stats, z, states, jac):
    """One projected Levenberg-Marquardt stage at the current penalty weight
    from z, its window states and their step Jacobians jac (None when the
    states come from forward).  Returns the last accepted iterate as (z,
    states, r, jac) with its stop: converged, converged_at_precision,
    stalled or max_iters."""
    r = prob.residuals(z, states)
    f = float(r @ r)
    mu = DAMPING_INIT
    for _ in range(MAX_ITERS):
        lin = prob.linearize(z, states, r, jac)
        g = 2.0 * prob.gradient(lin)
        pg = z - prob.project(z - g)
        stats.grad_norm = float(np.linalg.norm(pg))
        if stats.grad_norm <= GRAD_TOL:
            return z, states, r, jac, "converged"
        # Coordinates pinned at a bound with the gradient pushing outward
        # stay pinned this iteration; the damped step acts on the face.
        free = ~(((z <= prob.lb) & (g > 0.0)) | ((z >= prob.ub) & (g < 0.0)))
        trial, term, rejected = None, "stalled", False
        for _trial in range(60):
            stats.trials += 1
            try:
                step, dx = prob.lm_step(lin, free, mu)
            except np.linalg.LinAlgError:
                mu = max(mu, 1e-12) * 10.0
                continue
            z_try = prob.project(z + step)
            # before any rejection, an unclipped step whose gain the model
            # puts at rounding of f ends the stage: no trial can tell it
            # apart (Dennis & Schnabel 1996, sec. 7.2).  That gain,
            # |J d|^2 + 2 mu |d|^2, is mu |d|^2 - g.d/2 (More 1978).
            if (not rejected and np.array_equal(z_try, z + step)
                    and mu * step @ step - 0.5 * g @ step <= PRECISION_TOL * f):
                term = "converged_at_precision"
                break
            if np.linalg.norm(z_try - z) <= 1e-15 * (1.0 + np.linalg.norm(z)):
                break
            trial = prob.evaluate(z_try, states + dx)
            if trial is not None and trial[2] < f:
                mu = max(mu * 0.3, 1e-14)
                break
            trial, rejected = None, True
            mu = max(mu, 1e-14) * 4.0
            if mu > 1e15:
                break
        if trial is None:
            return z, states, r, jac, term
        z = z_try
        states, r, f, jac = trial
        stats.iterations += 1
    return z, states, r, jac, "max_iters"


def solve_mhe(model, cfg, prior, u_seg, y_seg, t_i, warm=None):
    """Solve the estimation window ending at t_i with horizon T_ti = min(t_i, T).

    u_seg and y_seg are the window segments rebased to [0, T_ti); warm is the
    previous window's MheSolution of the same model and inputs (shifted
    internally by the inter-sample gap, new tail pieces of w start at zero;
    its states over the shared steps are reused as they are).  With
    cfg.T >= t_i the window spans [0, t_i], and a cold solve from the initial
    prior is the full-information estimate at t_i.
    """
    t_start = time.perf_counter()
    T_ti = min(t_i, cfg.T)
    stats = SolverStats()
    prob = _WindowProblem(model, cfg, prior, u_seg, y_seg, T_ti)
    n, q, N = prob.n, prob.q, prob.N

    if not box_contains(model.X, prob.prior, tol=1e-9):
        _log.warning("prior outside X, projected")
        prob.prior = box_clip(model.X, prob.prior)

    z = np.concatenate([prob.prior, np.zeros(N * q)])
    prefix = None
    if warm is not None:
        shift = as_grid_index((t_i - T_ti) - (warm.t_i - warm.T_ti), cfg.dt, "warm-start shift")
        if shift < 0:
            raise ConfigurationError("warm start must come from an earlier window")
        N_prev = warm.w_star.n_pieces
        if shift <= N_prev:
            z[:n] = warm.x_star.states[shift]
            keep = min(N, N_prev - shift)
            z[n:n + keep * q] = warm.w_star.values[shift:shift + keep].ravel()
            # the warm window already ran these steps on the same inputs
            prefix = warm.x_star.states[shift:shift + keep + 1]
    z_warm, z = z, prob.project(z)
    if not np.array_equal(z, z_warm):
        prefix = None

    states = prob.forward(z, prefix)
    if states is None:
        # fall back to the cold start; the prior is a valid model state
        z = prob.project(np.concatenate([prob.prior, np.zeros(N * q)]))
        states = prob.forward(z)
        if states is None:
            raise DivergenceError("window integration diverges even from the prior")
        _log.warning("warm start diverged, cold start used")

    jac = None   # step Jacobians of a rollout's states; None while they come from forward
    while True:
        z, states, r, jac, stats.termination = _lm_stage(prob, stats, z, states, jac)
        stats.feasible = box_contains(model.X, states, tol=1e-9)
        if stats.feasible or stats.escalations == MAX_ESCALATIONS:
            break
        stats.escalations += 1
        prob.pen *= 2.0

    chi_star = z[:n].copy()
    w_star = PiecewiseSignal(cfg.dt, z[n:].reshape(N, q).copy())
    x_star = Trajectory(cfg.dt, states)
    r = r[:n + N * (q + prob.p)]   # the objective rows
    stats.rollout_fallbacks = prob.rollout_fallbacks
    stats.wall_time = time.perf_counter() - t_start
    return MheSolution(t_i, T_ti, chi_star, w_star, x_star, float(r @ r), stats)


# ---------------------------------------------------------------------------
# closed-loop run over a sampling set

@dataclass(frozen=True)
class TruthRecord:
    w: PiecewiseSignal
    x_true: Trajectory


@dataclass
class EstimationRun:
    """Estimate segments stitched over the sampling set.

    estimate[k] is the estimate at node k*dt for k = 0..k_last (the last
    sampling time), written by the first solve whose sampling time is at
    or after it.
    """

    cfg: MheConfig
    sampling: SamplingSet
    dt: float
    estimate: np.ndarray
    solutions: list
    y: PiecewiseSignal
    truth: TruthRecord | None

    @property
    def times(self):
        return self.dt * np.arange(self.estimate.shape[0])

    def estimate_csv(self, path):
        """Each node with the termination flag of the solve that wrote it,
        penalty_infeasible if that solve ended outside X; node 0 is the prior."""
        header = ["t"] + [f"xhat{i + 1}" for i in range(self.estimate.shape[1])] + ["flag"]
        flags = ["prior", *np.repeat([s.stats.termination if s.stats.feasible
                                      else "penalty_infeasible" for s in self.solutions],
                                     np.diff(self.sampling.k_indices, prepend=0))]
        write_csv(path, header, ([t, *x, flag] for t, x, flag in
                                 zip(self.times, self.estimate, flags)))

    def samples_csv(self, path):
        header = ["t_i", "cost", "iterations", "grad_norm", "wall_time"]
        write_csv(path, header, ([s.t_i, s.cost, s.stats.iterations, s.stats.grad_norm,
                                  s.stats.wall_time] for s in self.solutions))


def _initial_state(model, v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n,):
        raise ConfigurationError(f"{name} must have shape ({model.n},)")
    if not (np.isfinite(v).all() and box_contains(model.X, v, tol=1e-9)):
        raise ConfigurationError(f"{name} must be finite and lie in X")
    return v


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
    chi_hat = _initial_state(model, chi_hat, "chi_hat")
    check_weight_sizes(model, P=cfg.cert.P1, Q=cfg.cert.Q, R=cfg.cert.R)
    # u and the truth's w on the run grid, so windows and audits slice them
    # at sampling times
    u = PiecewiseSignal(dt, _resolve_signal(u, model.m, dt, K, "u"))

    truth = None
    if y is None:
        if chi is None:
            raise ConfigurationError("need ground truth chi (or recorded measurements y)")
        chi = _initial_state(model, chi, "chi")
        w = PiecewiseSignal(dt, _resolve_signal(w, model.q, dt, K, "w"))
        x_true = integrate(model, chi, u, w, t_sim, dt)
        y = output_along(model, x_true, u, w)
        truth = TruthRecord(w, x_true)
    elif not math.isclose(y.dt, dt, rel_tol=1e-9):
        raise ConfigurationError(f"recorded y has dt = {y.dt}, not the run's dt = {dt}")
    elif y.dim != model.p:
        raise ConfigurationError(f"recorded y has {y.dim} columns, not the model's p = {model.p}")
    elif y.n_pieces < K:
        raise ConfigurationError("recorded y must cover [0, t_sim)")

    sampling = make_sampler(cfg.sampling, t_sim, dt, cfg.T, model=model, u=u, y=y, x0=chi_hat)

    ks = sampling.k_indices
    k_last = int(ks[-1])
    n_T = cfg.n_steps_T
    estimate = np.full((k_last + 1, model.n), np.nan)
    estimate[0] = chi_hat
    solutions = []
    prev_k = 0
    warm = None
    for k_i in ks:
        k_i = int(k_i)
        N_i = min(k_i, n_T)
        s_i = k_i - N_i
        t_i = k_i * dt
        u_seg = PiecewiseSignal(dt, u.values[s_i:k_i])
        y_seg = PiecewiseSignal(dt, y.values[s_i:k_i])
        # every gap is below T, so the window starts at or before prev_k,
        # a node the previous solves have written
        prior = estimate[s_i]
        sol = solve_mhe(model, cfg, prior, u_seg, y_seg, t_i, warm=warm)
        solutions.append(sol)
        span = slice(prev_k + 1, k_i + 1)
        estimate[span] = sol.x_star.states[prev_k + 1 - s_i:k_i + 1 - s_i]
        warm = sol
        prev_k = k_i
    return EstimationRun(cfg, sampling, dt, estimate, solutions, y, truth)


def truth_candidate_cost(run, i):
    """Objective value of the true trajectory on window i (an upper bound for
    the solver's cost when the solve is globally optimal).

    Because the measurements were generated by the same step map, restarting
    from the stored true node state reproduces the window bit-identically, so
    only the prior and disturbance terms remain: the output mismatch is zero.
    """
    if run.truth is None:
        raise ConfigurationError("run carries no ground truth")
    cert = run.cfg.cert
    sol = run.solutions[i]
    k_i = int(run.sampling.k_indices[i])
    s_i = k_i - sol.w_star.n_pieces
    d0 = run.truth.x_true.states[s_i] - run.estimate[s_i]
    return (2.0 * cert.lam ** sol.T_ti * _quad(cert.P2, d0)
            + 2.0 * _discounted_energy(cert.Q, cert.lam, run.truth.w.values[s_i:k_i], run.dt,
                                       sol.T_ti))
