"""Estimation error bounds and run audits.

The estimator's guarantee has three faces, all derived from the same
certificate: a window-wise bound at each sampling time (prop3_bound), a
global geometric-decay bound from the initial error and the disturbance
energy (theorem1_bound), and a sup-norm form with explicit constants
(sup_bound_constants).  The last two decay at the certificate's contraction
rate for the run's delta_bar (_bound_rate, which `mhect estimate` and
`mhect audit` also apply to refuse a horizon that is too short).  audit_run
evaluates all three numerically along a finished estimation run against the
stored ground truth.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .certify import contraction_rate, geneig_max
from .mhe import _discounted_energy, _quad
from .sysmodel import PiecewiseSignal, as_grid_index, write_csv


def theorem1_bound(cert, rho, chi, chi_hat, w, t_i, factor=8):
    """Decay-plus-energy bound on |x(t_i) - xhat(t_i)|^2_P:

        4 * rho^t_i * |chi - chi_hat|^2_P
          + factor * int_0^t_i rho^(t_i - tau) |w|^2_Q dtau

    with the leading coefficient 4 for either factor; factor = 8 for general
    sampling sets, 4 under the tightened equidistant bookkeeping.
    w must cover [0, t_i) on its own grid.
    """
    if factor not in (4, 8):
        raise ConfigurationError("factor must be 4 or 8")
    if not 0.0 < rho < 1.0:
        raise ConfigurationError("rho must lie strictly inside (0, 1)")
    N = as_grid_index(t_i, w.dt, "t_i")
    if w.n_pieces < N:
        raise ConfigurationError("w must cover [0, t_i)")
    d0 = np.asarray(chi, dtype=float) - np.asarray(chi_hat, dtype=float)
    return (4.0 * rho ** t_i * _quad(cert.P1, d0)
            + factor * _discounted_energy(cert.Q, rho, w.values[:N], w.dt, t_i))


def prop3_bound(cert, t, t_i, T_ti, U_prior, w):
    """Window-wise bound on the Lyapunov-type distance U at time t <= t_i:

        lam^(t - t_i) * (4 * lam^T_ti * U_prior
                         + 4 * int |w|^2_Q discounted over the window)

    U_prior is U at the window start, supplied by the caller; w is the
    window's disturbance segment (T_ti long on its own grid).
    """
    if t > t_i:
        raise ConfigurationError("prop3_bound is only valid for t <= t_i")
    lam = cert.lam
    # lmax is 1 for a certificate's one weight P; the call stays while
    # perfbench/tracing.py binds and counts analysis.geneig_max
    lmax = geneig_max(cert.P1, cert.P1)
    N = as_grid_index(T_ti, w.dt, "window length")
    if w.n_pieces < N:
        raise ConfigurationError("w segment shorter than the window")
    return lam ** (t - t_i) * (4.0 * lmax * lam ** T_ti * float(U_prior)
                               + 4.0 * _discounted_energy(cert.Q, lam, w.values[:N], w.dt, T_ti))


@dataclass(frozen=True)
class SupBoundConstants:
    """Constants of the sup-norm error bound
    |x - xhat|(t) <= max(C * |chi - chi_hat| * rho_s^t, gamma_coeff * ||w||_sup)."""

    C: float
    rho_s: float
    gamma_coeff: float


def sup_bound_constants(cert, rho, factor=8):
    """Convert the squared-energy bound into sup-norm form.

    C = sqrt(8 * eigmax(P) / eigmin(P)) (independent of factor),
    rho_s = sqrt(rho), gamma_coeff = sqrt(2*factor*eigmax(Q) /
    (-eigmin(P) * ln rho)).
    """
    if factor not in (4, 8):
        raise ConfigurationError("factor must be 4 or 8")
    if not 0.0 < rho < 1.0:
        raise ConfigurationError("rho must lie strictly inside (0, 1)")
    p = np.linalg.eigvalsh(cert.P1)
    p_min, p_max = float(p[0]), float(p[-1])
    q_max = float(np.linalg.eigvalsh(cert.Q)[-1])
    C = math.sqrt(8.0 * p_max / p_min)
    gamma_coeff = math.sqrt(2.0 * factor * q_max / (-p_min * math.log(rho)))
    return SupBoundConstants(C, math.sqrt(rho), gamma_coeff)


@dataclass
class BoundReport:
    """Numerical audit of the error bounds along one estimation run."""

    times: np.ndarray
    lhs: np.ndarray            # |x - xhat|^2_P at each sampling time
    rhs: np.ndarray            # theorem1_bound at each sampling time
    margin: np.ndarray         # rhs - lhs
    u_prior: np.ndarray        # window-start distance used by the prop3 records
    prop3_rhs: np.ndarray      # prop3_bound at each sampling time, against lhs
    sup_lhs: np.ndarray        # |x - xhat| (euclidean) at each sampling time
    sup_rhs: np.ndarray
    rho: float
    factor: int
    delta_bar_used: float
    constants: SupBoundConstants
    passed: bool
    prop3_passed: bool
    sup_passed: bool
    worst_margin: float

    def to_csv(self, path):
        # the window-wise records bound the same distance as the decay bound
        header = ["t_i", "lhs", "rhs", "margin", "u_prior", "prop3_lhs", "prop3_rhs",
                  "sup_lhs", "sup_rhs"]
        write_csv(path, header, np.column_stack([
            self.times, self.lhs, self.rhs, self.margin, self.u_prior, self.lhs,
            self.prop3_rhs, self.sup_lhs, self.sup_rhs]))

    def summary(self):
        return {
            "passed": bool(self.passed),
            "prop3_passed": bool(self.prop3_passed),
            "sup_passed": bool(self.sup_passed),
            "rho": self.rho,
            "factor": self.factor,
            "delta_bar_used": self.delta_bar_used,
            "worst_margin": self.worst_margin,
            "C": self.constants.C,
            "rho_s": self.constants.rho_s,
            "gamma_coeff": self.constants.gamma_coeff,
            "n_samples": int(self.times.size),
        }


REL_TOL = 1e-9   # relative slack of the decay and sup-norm checks (rounding only)


def _bound_rate(cfg, sampling):
    """(rho, factor, delta_bar) of the bounds on a run of cfg over sampling:
    delta_bar = 0 and factor 4 under the equidistant bookkeeping
    (cfg.equidistant_mode), otherwise the sampling set's delta_bar and
    factor 8.  Refuses (HorizonError) when T is not strictly above the
    admissible minimum."""
    delta_bar, factor = (0.0, 4) if cfg.equidistant_mode else (sampling.delta_bar, 8)
    return contraction_rate(cfg.cert, cfg.T, delta_bar), factor, delta_bar


def audit_run(run):
    """Check the error bounds of run.cfg.cert along a finished run against
    its ground truth, at the rate, factor and delta_bar of _bound_rate
    (HorizonError when T is too short).  The window-wise records evaluate
    U = |x - xhat|^2_P on both sides.
    """
    if run.truth is None:
        raise ConfigurationError("run carries no ground truth")
    cert = run.cfg.cert
    rho, factor, delta_bar = _bound_rate(run.cfg, run.sampling)
    consts = sup_bound_constants(cert, rho, factor)

    w = run.truth.w
    x_true = run.truth.x_true.states
    chi = x_true[0]
    est = run.estimate
    chi_hat = est[0]
    n_s = len(run.solutions)
    times = np.empty(n_s)
    lhs = np.empty(n_s)
    rhs = np.empty(n_s)
    u_prior = np.empty(n_s)
    p3_rhs = np.empty(n_s)
    sup_lhs = np.empty(n_s)
    sup_rhs = np.empty(n_s)
    s0 = float(np.linalg.norm(chi - chi_hat))
    for i, (sol, k_i) in enumerate(zip(run.solutions, run.sampling.k_indices.tolist())):
        N_i = sol.w_star.n_pieces
        s_i = k_i - N_i
        err = x_true[k_i] - est[k_i]
        times[i] = sol.t_i
        lhs[i] = _quad(cert.P1, err)
        rhs[i] = theorem1_bound(cert, rho, chi, chi_hat, w, sol.t_i, factor)
        err0 = x_true[s_i] - est[s_i]
        u_prior[i] = _quad(cert.P1, err0)
        p3_rhs[i] = prop3_bound(cert, sol.t_i, sol.t_i, sol.T_ti, u_prior[i],
                                PiecewiseSignal(w.dt, w.values[s_i:k_i]))
        sup_lhs[i] = float(np.linalg.norm(err))
        w_sup = float(np.max(np.linalg.norm(w.values[:k_i], axis=1))) if k_i else 0.0
        sup_rhs[i] = max(consts.C * s0 * consts.rho_s ** sol.t_i, consts.gamma_coeff * w_sup)
    margin = rhs - lhs
    passed = bool(np.all(margin >= -REL_TOL * np.abs(rhs)))
    prop3_passed = bool(np.all(p3_rhs - lhs >= -1e-6 * np.abs(p3_rhs)))
    sup_passed = bool(np.all(sup_rhs - sup_lhs >= -REL_TOL * np.abs(sup_rhs)))
    worst = float(np.min(margin / np.where(np.abs(rhs) > 0, np.abs(rhs), 1.0)))
    return BoundReport(times, lhs, rhs, margin, u_prior, p3_rhs, sup_lhs, sup_rhs, rho,
                       factor, delta_bar, consts, passed, prop3_passed, sup_passed, worst)
