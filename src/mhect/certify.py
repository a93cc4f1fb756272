"""Detectability certificates for nonlinear models.

A certificate is a set of quadratic weights (P1, P2, Q, R) and a decay rate
lambda in (0, 1) such that V(a, b) = |a - b|^2_P (P1 = P2 = P for
certificates produced here) decays at rate lambda between two trajectories,
up to a supply term weighted by Q and R.  Sufficiency is checked through a
pointwise matrix inequality in the model Jacobians:

    [ PA + A'P + kappa*P - C'RC   PB - C'RD  ]
    [ (PB - C'RD)'               -D'RD - Q   ]  <=  0

at every point of the certified domain, with kappa = -ln(lambda).  The
module verifies given weights on a grid, synthesizes feasible weights with a
log-det barrier interior-point method, rescales certificates against target
weights, and derives the horizon threshold and contraction rate used by the
estimator error bounds.
"""

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HorizonError, InfeasibleError
from .sysmodel import (_boolean, _float_array, _integer, _numeric, _section, as_box,
                       box_grid_axes, box_within)


def _check_sym(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > 1e-10 * scale:
        raise ConfigurationError(f"{name} must be symmetric")
    return M


def _check_sym_pd(M, name):
    M = _check_sym(M, name)
    if float(np.linalg.eigvalsh(M)[0]) <= 0.0:
        raise ConfigurationError(f"{name} must be positive definite")
    return M


def geneig_max(A, B):
    """Largest generalized eigenvalue of the pencil (A, B), B symmetric PD."""
    A = _check_sym(A, "A")
    B = _check_sym_pd(B, "B")
    L = np.linalg.cholesky(B)
    Li = np.linalg.inv(L)
    return float(np.linalg.eigvalsh(Li @ A @ Li.T)[-1])


# ---------------------------------------------------------------------------
# certificate type

@dataclass(frozen=True)
class Domain:
    """Axis-aligned boxes the certificate is claimed on."""

    X: np.ndarray
    U: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for name in ("X", "U", "W"):
            object.__setattr__(self, name, as_box(getattr(self, name), None, f"domain {name}"))

    @classmethod
    def of_model(cls, model):
        return cls(model.X, model.U, model.W)

    def to_dict(self):
        def rows(box):
            return [[None if not math.isfinite(lo) else lo,
                     None if not math.isfinite(hi) else hi] for lo, hi in box]
        return {"X": rows(self.X), "U": rows(self.U), "W": rows(self.W)}

    @classmethod
    def from_dict(cls, d):
        d = _section(d, "certificate domain")
        return cls(*(_numeric(d, k, "certificate domain",
                              lambda v, k=k: as_box(v, None, f"domain {k}"))
                     for k in ("X", "U", "W")))


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_eig: float
    worst_x: np.ndarray
    worst_u: np.ndarray
    worst_w: np.ndarray
    tol_psd: float
    n_points: int
    mode: str

    def to_dict(self):
        return {"passed": self.passed, "max_eig": self.max_eig,
                "worst_x": list(self.worst_x), "worst_u": list(self.worst_u),
                "worst_w": list(self.worst_w), "tol_psd": self.tol_psd,
                "n_points": self.n_points, "mode": self.mode}

    @classmethod
    def from_dict(cls, d):
        d = _section(d, "certificate verification")
        return cls(*(_numeric(d, k, "certificate verification", convert) for k, convert in (
            ("passed", _boolean), ("max_eig", float), ("worst_x", _float_array),
            ("worst_u", _float_array), ("worst_w", _float_array), ("tol_psd", float),
            ("n_points", _integer), ("mode", str))))


@dataclass(frozen=True)
class DetectabilityCertificate:
    """Quadratic detectability weights with decay rate lambda = exp(-kappa).

    Invariants enforced at construction: all weights symmetric positive
    definite, P1 <= P2 (as matrices), lambda in (0, 1), and kappa consistent
    with -ln(lambda) to 1e-12.
    """

    P1: np.ndarray
    P2: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    lam: float
    kappa: float
    domain: Domain
    verification: VerificationReport | None = None

    def __post_init__(self):
        for name in ("P1", "P2", "Q", "R"):
            object.__setattr__(self, name, _check_sym_pd(getattr(self, name), name))
        if self.P1.shape != self.P2.shape:
            raise ConfigurationError("P1 and P2 must have the same shape")
        if not 0.0 < self.lam < 1.0:
            raise ConfigurationError("lambda must lie strictly inside (0, 1)")
        if abs(self.kappa + math.log(self.lam)) > 1e-12:
            raise ConfigurationError("kappa must equal -ln(lambda) to 1e-12")
        gap = np.linalg.eigvalsh(self.P2 - self.P1)[0]
        if gap < -1e-9 * max(1.0, float(np.abs(self.P2).max())):
            raise ConfigurationError("P1 <= P2 violated")

    @classmethod
    def from_weights(cls, P, Q, R, lam, domain, verification=None):
        """Single-P certificate (P1 = P2 = P), kappa derived from lambda."""
        P = np.asarray(P, dtype=float)
        return cls(P, P.copy(), np.asarray(Q, dtype=float), np.asarray(R, dtype=float),
                   float(lam), -math.log(float(lam)), domain, verification)

    def to_dict(self):
        d = {"P1": self.P1.tolist(), "P2": self.P2.tolist(), "Q": self.Q.tolist(),
             "R": self.R.tolist(), "lambda": self.lam, "kappa": self.kappa,
             "domain": self.domain.to_dict(),
             "verification": self.verification.to_dict() if self.verification else None}
        return d

    @classmethod
    def from_dict(cls, d):
        d = _section(d, "certificate")
        ver = VerificationReport.from_dict(d["verification"]) if d.get("verification") else None
        return cls(*(_numeric(d, k, "certificate", convert) for k, convert in (
            ("P1", _float_array), ("P2", _float_array), ("Q", _float_array),
            ("R", _float_array), ("lambda", float), ("kappa", float),
            ("domain", Domain.from_dict))), ver)


def save_certificate(cert, path):
    with open(path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=1)


def load_certificate(path):
    with open(path) as fh:
        return DetectabilityCertificate.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# the pointwise matrix inequality

def lmi_matrix(model, P, Q, R, kappa, x, u, w):
    """The (n+q) x (n+q) detectability inequality block, symmetrized by
    averaging with its transpose.  x, u, w may carry leading batch axes;
    the result then holds one block per point, with shape (..., n+q, n+q)."""
    A = model.jac_f_x(x, u, w)
    B = model.jac_f_w(x, u, w)
    C = model.jac_h_x(x, u, w)
    D = model.jac_h_w(x, u, w)
    Ct = C.swapaxes(-1, -2)
    RC = R @ C
    RD = R @ D
    M11 = P @ A + A.swapaxes(-1, -2) @ P + kappa * P - Ct @ RC
    M12 = P @ B - Ct @ RD
    M22 = -D.swapaxes(-1, -2) @ RD - Q
    M = np.concatenate([np.concatenate([M11, M12], axis=-1),
                        np.concatenate([M12.swapaxes(-1, -2), M22], axis=-1)], axis=-2)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _max_eig(model, P, Q, R, kappa, points):
    """Largest inequality eigenvalue over the stacked points (x, u, w) and the
    first point attaining it."""
    eigs = np.linalg.eigvalsh(lmi_matrix(model, P, Q, R, kappa, *points))[:, -1]
    k = int(np.argmax(eigs))
    return float(eigs[k]), tuple(v[k] for v in points)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over a Domain.

    Per-axis counts (int applies to every axis of the block), or
    vertices_only, the grid of two points per axis.  Vertex mode is only
    honored when the caller asserts that the inequality entries are affine
    along each axis (affinity_asserted), which makes corner checking
    sufficient on the box.
    """

    x_points: object = 2
    u_points: object = 2
    w_points: object = 2
    vertices_only: bool = False
    affinity_asserted: bool = False


def grid_points(domain, grid):
    """Evaluation points of a GridSpec over a Domain, stacked as arrays
    (x (B, n), u (B, m), w (B, q)) in x-major, then u, then w order."""
    counts = (grid.x_points, grid.u_points, grid.w_points)
    if grid.vertices_only:
        if not grid.affinity_asserted:
            raise ConfigurationError(
                "vertices_only requires affinity_asserted: corner checks are only "
                "sufficient when the inequality entries are affine per axis")
        counts = (2, 2, 2)
    axes = [np.array(list(itertools.product(*box_grid_axes(box, c))), dtype=float)
            for box, c in zip((domain.X, domain.U, domain.W), counts)]
    k = np.indices([len(a) for a in axes]).reshape(3, -1)
    return tuple(a[i] for a, i in zip(axes, k)), "vertices" if grid.vertices_only else "grid"


def verify_certificate(model, cert, grid, tol_psd=1e-8):
    """Evaluate the inequality at every grid point of the certificate domain.

    Passes iff the maximum eigenvalue over all points is <= tol_psd
    (absolute).  Only defined for single-P certificates (P1 = P2); the
    rescaled variants trade the pointwise inequality for an integral one and
    cannot be re-checked this way.
    """
    for name in ("X", "U", "W"):
        if not box_within(getattr(cert.domain, name), getattr(model, name)):
            raise ConfigurationError(f"certificate domain {name} does not fit the model's {name}")
    if not np.allclose(cert.P1, cert.P2, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cert.P2).max()))):
        raise ConfigurationError("pointwise verification requires P1 = P2")
    points, mode = grid_points(cert.domain, grid)
    max_eig, worst = _max_eig(model, cert.P1, cert.Q, cert.R, cert.kappa, points)
    return VerificationReport(max_eig <= tol_psd, max_eig, *worst, tol_psd,
                              len(points[0]), mode)


# ---------------------------------------------------------------------------
# synthesis: log-det barrier interior-point feasibility

@dataclass(frozen=True)
class FixedQR:
    """Synthesis mode: supply weights fixed, solve for P only."""
    Q: np.ndarray
    R: np.ndarray


# barrier solver settings
EPS_PD = 1e-3        # P (and Q, R in joint mode) >= EPS_PD * I
MU0 = 1.0            # initial barrier weight
MU_FACTOR = 0.2      # barrier weight shrink per stage
MU_MIN = 1e-10       # give up once the barrier weight is at most this
FEAS_STOP = 1e-8     # feasible as soon as t < -FEAS_STOP
NEWTON_TOL = 1e-9    # Newton decrement threshold per stage
MAX_NEWTON_ITERS = 200  # total Newton iterations across barrier stages


@dataclass(frozen=True)
class SdpOptions:
    """Synthesis settings; the barrier settings above are constants.
    recheck_tol: callers read it to re-check a result as synthesis does."""

    recheck_tol: float = 1e-8


def _sym_basis(n):
    """Basis of symmetric n x n matrices, diagonal then upper off-diagonal:
    the (i, j) pairs and the matrices as one (len(pairs), n, n) array."""
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        mats[k, i, j] = mats[k, j, i] = 1.0
    return pairs, mats


def _vec_from_sym(M, pairs):
    return np.array([M[i, j] for i, j in pairs])


class _BarrierSDP:
    """min y[-1] subject to S_g(y) = K0_g + sum_k y_k K_gk > 0 for each group g.

    A group stacks B blocks: K0 has shape (B, s, s) and K shape (B, nvar, s, s).
    The last coordinate of y is t; its basis matrix is I in the inequality
    blocks (slack t*I - M(z)) and 0 in the positivity blocks.  Newton's
    method on t + mu * sum -log det S with exact Hessian, feasibility-preserving
    backtracking and Armijo acceptance.
    """

    def __init__(self, groups):
        self.groups = groups  # [(K0, K)]

    def _slacks(self, y):
        return [K0 + np.einsum("k,bkij->bij", y, K) for K0, K in self.groups]

    def _fval(self, y, mu):
        logdet = 0.0
        for S in self._slacks(y):
            try:
                L = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                return math.inf
            logdet += 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
        return y[-1] - mu * logdet

    def _newton_system(self, y, mu):
        """Gradient and Hessian of _fval: -tr(S^-1 K_k) and tr(S^-1 K_k S^-1 K_l)."""
        grad = np.zeros(len(y))
        grad[-1] = 1.0
        hess = np.zeros((len(y), len(y)))
        for S, (_, K) in zip(self._slacks(y), self.groups):
            W = np.linalg.inv(S)[:, None] @ K
            grad -= mu * np.einsum("bkii->k", W)
            hess += mu * np.einsum("bkij,blji->kl", W, W)
        return grad, hess

    def solve(self, y0):
        """Returns (feasible, y, iters).  feasible means t = y[-1] < -FEAS_STOP."""
        y = np.asarray(y0, dtype=float).copy()
        if math.isinf(self._fval(y, MU0)):
            raise ConfigurationError("barrier initialization is not strictly feasible")
        mu = MU0
        iters = 0
        while True:
            while iters < MAX_NEWTON_ITERS:
                if y[-1] < -FEAS_STOP:
                    return True, y, iters
                try:
                    grad, hess = self._newton_system(y, mu)
                except np.linalg.LinAlgError:
                    break  # a numerically singular slack stalls the stage; shrink mu
                try:
                    d = np.linalg.solve(hess + 1e-12 * np.eye(len(y)), -grad)
                except np.linalg.LinAlgError:
                    d = np.linalg.lstsq(hess, -grad, rcond=None)[0]
                decrement = float(-grad @ d)
                if decrement <= 2.0 * NEWTON_TOL:
                    break
                f0 = self._fval(y, mu)
                alpha = 1.0
                while alpha > 1e-14:
                    if self._fval(y + alpha * d, mu) <= f0 - 1e-4 * alpha * decrement:
                        break
                    alpha *= 0.5
                if alpha <= 1e-14:
                    break  # stage stalled; shrink mu
                y = y + alpha * d
                iters += 1
            if y[-1] < -FEAS_STOP:
                return True, y, iters
            if mu <= MU_MIN or iters >= MAX_NEWTON_ITERS:
                return False, y, iters
            mu *= MU_FACTOR


def _synthesis_problem(model, kappa, Q_fix, R_fix, points):
    """The barrier problem of synthesis, its start point and the map from y
    to the weights [P, Q, R].

    The unknown weights are P, or P, Q and R when Q_fix is None (joint
    mode); y holds their coordinates in the symmetric bases, then t.  Points
    with the same inequality block constrain the weights alike, so the
    barrier holds each distinct block once, at its first point.
    """
    n, q, p = model.n, model.q, model.p
    dims = (n,) if Q_fix is not None else (n, q, p)
    bases = [_sym_basis(d) for d in dims]
    offsets = np.cumsum([0] + [len(pairs) for pairs, _ in bases])
    nvar = offsets[-1] + 1

    def weights(y):
        W = [np.tensordot(y[o:o + len(m)], m, 1) for (_, m), o in zip(bases, offsets)]
        return W if Q_fix is None else W + [Q_fix, R_fix]

    # the inequality is affine in (P, Q, R): its value at a basis matrix of
    # one weight, the others zero, is that coordinate's block
    zeros = [np.zeros((d, d)) for d in (n, q, p)]
    units = [zeros[:i] + [E] + zeros[i + 1:] for i, (_, m) in enumerate(bases) for E in m]
    shape = (len(points[0]), n + q, n + q)
    K = np.stack([-lmi_matrix(model, *unit, kappa, *points) for unit in units]
                 + [np.broadcast_to(np.eye(n + q), shape)], axis=1)
    K0 = np.zeros(shape) if Q_fix is None else -lmi_matrix(model, zeros[0], Q_fix, R_fix,
                                                           kappa, *points)
    blocks = np.concatenate([K0.reshape(len(K0), -1), K.reshape(len(K), -1)], axis=1)
    first = np.sort(np.unique(blocks, axis=0, return_index=True)[1])
    groups = [(K0[first], K[first])]

    # positivity blocks: each unknown weight >= EPS_PD * I
    y0 = np.zeros(nvar)
    for d, (pairs, m), o in zip(dims, bases, offsets):
        Kpos = np.zeros((1, nvar, d, d))
        Kpos[0, o:o + len(m)] = m
        groups.append((-EPS_PD * np.eye(d)[None], Kpos))
        y0[o:o + len(m)] = _vec_from_sym(np.eye(d), pairs)
    y0[-1] = _max_eig(model, *weights(y0), kappa, points)[0] + 1.0
    return _BarrierSDP(groups), y0, weights


def synthesize_certificate(model, lam, mode, grid):
    """Find weights making the detectability inequality hold on the grid.

    mode is FixedQR(Q, R) (solve for P only) or the string "joint" (solve for
    P, Q, R together, all bounded below by EPS_PD * I).  The result is always
    re-checked with verify_certificate on the same grid before it is
    returned.  Raises InfeasibleError with the most violating grid point when
    no strictly feasible point is found.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigurationError("lambda must lie strictly inside (0, 1)")
    kappa = -math.log(lam)
    domain = Domain.of_model(model)
    points, _ = grid_points(domain, grid)

    if isinstance(mode, str) and mode == "joint":
        Q_fix = R_fix = None
    elif isinstance(mode, FixedQR):
        Q_fix = _check_sym_pd(mode.Q, "Q")
        R_fix = _check_sym_pd(mode.R, "R")
        if Q_fix.shape != (model.q, model.q) or R_fix.shape != (model.p, model.p):
            raise ConfigurationError("FixedQR weights have wrong dimensions")
    else:
        raise ConfigurationError("mode must be FixedQR(Q, R) or 'joint'")

    sdp, y0, weights = _synthesis_problem(model, kappa, Q_fix, R_fix, points)
    ok, y, iters = sdp.solve(y0)
    P, Q, R = weights(y)
    if not ok:
        worst_eig, worst_pt = _max_eig(model, P, Q, R, kappa, points)
        raise InfeasibleError(
            f"no strictly feasible weights found ({iters} Newton iterations); "
            f"best max eigenvalue {worst_eig:.3e} at x = {worst_pt[0]}, u = {worst_pt[1]}, "
            f"w = {worst_pt[2]}", worst_point=worst_pt, worst_eig=worst_eig)

    cert = DetectabilityCertificate.from_weights(P, Q, R, lam, domain)
    report = verify_certificate(model, cert, grid, tol_psd=SdpOptions().recheck_tol)
    if not report.passed:
        raise RuntimeError(
            "internal consistency error: synthesized weights failed re-verification "
            f"(max eigenvalue {report.max_eig:.3e})")
    return dataclasses.replace(cert, verification=report)


def scale_certificate(cert, P2_target, Q_target, R_target):
    """Rescale a certificate to fit target weights (largest valid K).

    K = 1 / max(geneig(P2, P2t), geneig(Q, Qt), geneig(R, Rt)); the scaled
    function K*V is sandwiched by K*P1 and the targets, so the returned
    certificate carries P1 <- K*P1, P2 <- P2t, Q <- Qt, R <- Rt with the same
    decay rate.  The pointwise verification record does not transfer.
    """
    P2t = _check_sym_pd(P2_target, "P2 target")
    Qt = _check_sym_pd(Q_target, "Q target")
    Rt = _check_sym_pd(R_target, "R target")
    K = 1.0 / max(geneig_max(cert.P2, P2t), geneig_max(cert.Q, Qt), geneig_max(cert.R, Rt))
    return DetectabilityCertificate(K * cert.P1, P2t, Qt, Rt, cert.lam, cert.kappa,
                                    cert.domain, verification=None)


# ---------------------------------------------------------------------------
# horizon threshold and contraction rate

def _min_horizon_formula(lmax, lam, delta_bar):
    if not 0.0 < lam < 1.0:
        raise ConfigurationError("lambda must lie strictly inside (0, 1)")
    if lmax <= 0.0 or delta_bar < 0.0:
        raise ConfigurationError("need lmax > 0 and delta_bar >= 0")
    return -math.log(4.0 * lmax) / math.log(lam) + delta_bar


def min_horizon(cert, delta_bar):
    """Smallest admissible horizon: -ln(4*lmax(P2, P1))/ln(lambda) + delta_bar."""
    return _min_horizon_formula(geneig_max(cert.P2, cert.P1), cert.lam, delta_bar)


def contraction_rate(cert, T, delta_bar):
    """Decay rate rho = (4*lmax)^(1/(T - delta_bar)) * lambda of the estimate
    error bound; requires T strictly above min_horizon."""
    lmax = geneig_max(cert.P2, cert.P1)
    bound = _min_horizon_formula(lmax, cert.lam, delta_bar)
    if not T > bound:
        raise HorizonError(
            f"horizon T = {T} must strictly exceed -ln(4*lmax)/ln(lambda) + delta_bar "
            f"= {bound} (lmax = {lmax}, lambda = {cert.lam}, delta_bar = {delta_bar})")
    rho = (4.0 * lmax) ** (1.0 / (T - delta_bar)) * cert.lam
    return rho
