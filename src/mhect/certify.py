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
from .sysmodel import as_box, box_grid_axes, box_vertices


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
        object.__setattr__(self, "X", as_box(self.X, None, "domain X") if not isinstance(self.X, np.ndarray) else self.X)
        object.__setattr__(self, "U", as_box(self.U, None, "domain U") if not isinstance(self.U, np.ndarray) else self.U)
        object.__setattr__(self, "W", as_box(self.W, None, "domain W") if not isinstance(self.W, np.ndarray) else self.W)

    @classmethod
    def of_model(cls, model):
        return cls(model.X.copy(), model.U.copy(), model.W.copy())

    def to_dict(self):
        def rows(box):
            return [[None if not math.isfinite(lo) else lo,
                     None if not math.isfinite(hi) else hi] for lo, hi in box]
        return {"X": rows(self.X), "U": rows(self.U), "W": rows(self.W)}

    @classmethod
    def from_dict(cls, d):
        return cls(as_box(d["X"], None, "X") if d["X"] else np.zeros((0, 2)),
                   as_box(d["U"], None, "U") if d["U"] else np.zeros((0, 2)),
                   as_box(d["W"], None, "W") if d["W"] else np.zeros((0, 2)))


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
        return cls(bool(d["passed"]), float(d["max_eig"]), np.array(d["worst_x"]),
                   np.array(d["worst_u"]), np.array(d["worst_w"]),
                   float(d["tol_psd"]), int(d["n_points"]), str(d["mode"]))


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
        ver = VerificationReport.from_dict(d["verification"]) if d.get("verification") else None
        return cls(np.array(d["P1"], dtype=float), np.array(d["P2"], dtype=float),
                   np.array(d["Q"], dtype=float), np.array(d["R"], dtype=float),
                   float(d["lambda"]), float(d["kappa"]), Domain.from_dict(d["domain"]), ver)


def save_certificate(cert, path):
    with open(path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=1)


def load_certificate(path):
    with open(path) as fh:
        return DetectabilityCertificate.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# the pointwise matrix inequality

def lmi_matrix(model, P, Q, R, kappa, x, u, w):
    """The (n+q) x (n+q) detectability inequality block at one point,
    symmetrized by averaging with its transpose."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    A = model.jac_f_x(x, u, w)
    B = model.jac_f_w(x, u, w)
    C = model.jac_h_x(x, u, w)
    D = model.jac_h_w(x, u, w)
    RC = R @ C
    RD = R @ D
    M11 = P @ A + A.T @ P + kappa * P - C.T @ RC
    M12 = P @ B - C.T @ RD
    M22 = -D.T @ RD - Q
    M = np.block([[M11, M12], [M12.T, M22]])
    return 0.5 * (M + M.T)


def _max_eig(model, P, Q, R, kappa, points):
    """Largest inequality eigenvalue over the points and the first point
    attaining it."""
    blocks = np.array([lmi_matrix(model, P, Q, R, kappa, x, u, w) for (x, u, w) in points])
    eigs = np.linalg.eigvalsh(blocks)[:, -1]
    k = int(np.argmax(eigs))
    return float(eigs[k]), points[k]


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over a Domain.

    Per-axis counts (int applies to every axis of the block), or
    vertices_only.  Vertex mode is only honored when the caller asserts that
    the inequality entries are affine along each axis (affinity_asserted),
    which makes corner checking sufficient on the box.
    """

    x_points: object = 2
    u_points: object = 2
    w_points: object = 2
    vertices_only: bool = False
    affinity_asserted: bool = False


def grid_points(domain, grid):
    """List of (x, u, w) evaluation points for a GridSpec over a Domain."""
    if grid.vertices_only:
        if not grid.affinity_asserted:
            raise ConfigurationError(
                "vertices_only requires affinity_asserted: corner checks are only "
                "sufficient when the inequality entries are affine per axis")
        xs = box_vertices(domain.X)
        us = box_vertices(domain.U)
        ws = box_vertices(domain.W)
        mode = "vertices"
    else:
        def pts(box, counts):
            axes = box_grid_axes(box, counts)
            if not axes:
                return [np.zeros(0)]
            return [np.array(c) for c in itertools.product(*axes)]
        xs = pts(domain.X, grid.x_points)
        us = pts(domain.U, grid.u_points)
        ws = pts(domain.W, grid.w_points)
        mode = "grid"
    points = [(x, u, w) for x in xs for u in us for w in ws]
    if not points:
        raise ConfigurationError("empty evaluation grid")
    return points, mode


def _check_domain_within(domain, model):
    for dom, box, name in ((domain.X, model.X, "X"), (domain.U, model.U, "U"),
                           (domain.W, model.W, "W")):
        if dom.shape != box.shape:
            raise ConfigurationError(f"certificate domain {name} has wrong dimension")
        if np.any(dom[:, 0] < box[:, 0] - 1e-12) or np.any(dom[:, 1] > box[:, 1] + 1e-12):
            raise ConfigurationError(f"certificate domain {name} exceeds the model's {name}")


def verify_certificate(model, cert, grid, tol_psd=1e-8):
    """Evaluate the inequality at every grid point of the certificate domain.

    Passes iff the maximum eigenvalue over all points is <= tol_psd
    (absolute).  Only defined for single-P certificates (P1 = P2); the
    rescaled variants trade the pointwise inequality for an integral one and
    cannot be re-checked this way.
    """
    _check_domain_within(cert.domain, model)
    if not np.allclose(cert.P1, cert.P2, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cert.P2).max()))):
        raise ConfigurationError("pointwise verification requires P1 = P2")
    points, mode = grid_points(cert.domain, grid)
    max_eig, worst = _max_eig(model, cert.P1, cert.Q, cert.R, cert.kappa, points)
    return VerificationReport(max_eig <= tol_psd, max_eig, worst[0], worst[1],
                              worst[2], tol_psd, len(points), mode)


# ---------------------------------------------------------------------------
# synthesis: log-det barrier interior-point feasibility

@dataclass(frozen=True)
class FixedQR:
    """Synthesis mode: supply weights fixed, solve for P only."""
    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class SdpOptions:
    eps_pd: float = 1e-3      # P (and Q, R in joint mode) >= eps_pd * I
    max_iters: int = 200      # total Newton iterations across barrier stages
    mu0: float = 1.0
    mu_factor: float = 0.2
    mu_min: float = 1e-10
    feas_stop: float = 1e-8   # stop as soon as t < -feas_stop
    newton_tol: float = 1e-9  # Newton decrement threshold per stage
    recheck_tol: float = 1e-8


def _sym_basis(n):
    """Basis of symmetric n x n matrices: diagonal then upper off-diagonal."""
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for i, j in pairs:
        E = np.zeros((n, n))
        E[i, j] = 1.0
        E[j, i] = 1.0
        mats.append(E)
    return pairs, mats


def _sym_from_vec(z, pairs, n):
    M = np.zeros((n, n))
    for val, (i, j) in zip(z, pairs):
        M[i, j] = val
        M[j, i] = val
    return M


def _vec_from_sym(M, pairs):
    return np.array([M[i, j] for i, j in pairs])


class _BarrierSDP:
    """min t subject to affine symmetric slacks S_c(z, t) > 0.

    Each block is S_c = K0 + sum_k z_k K_ck + t * tfac * I; the inequality
    blocks carry tfac = 1 (slack t*I - M(z)), the positivity blocks tfac = 0.
    Newton's method on t + mu * sum_c -log det S_c with exact Hessian,
    feasibility-preserving backtracking and Armijo acceptance.
    """

    def __init__(self, nvar):
        self.nvar = nvar
        self.blocks = []  # (K0, {k: Kk}, tfac, meta)

    def add_block(self, K0, Kmap, tfac, meta=None):
        self.blocks.append((K0, dict(Kmap), float(tfac), meta))

    def _slack(self, z, t, block):
        K0, Kmap, tfac, _ = block
        S = K0.copy()
        for k, Kk in Kmap.items():
            S = S + z[k] * Kk
        if tfac:
            S = S + t * tfac * np.eye(S.shape[0])
        return S

    def _all_pd(self, z, t):
        chols = []
        for block in self.blocks:
            S = self._slack(z, t, block)
            try:
                chols.append(np.linalg.cholesky(S))
            except np.linalg.LinAlgError:
                return None
        return chols

    def _fval(self, z, t, mu):
        chols = self._all_pd(z, t)
        if chols is None:
            return math.inf
        logdet = sum(2.0 * float(np.sum(np.log(np.diag(L)))) for L in chols)
        return t + mu * (-logdet)

    def solve(self, z0, t0, opts):
        """Returns (feasible, z, t, iters).  feasible means t < -feas_stop."""
        nv = self.nvar
        z = np.asarray(z0, dtype=float).copy()
        t = float(t0)
        if self._all_pd(z, t) is None:
            raise ConfigurationError("barrier initialization is not strictly feasible")
        mu = opts.mu0
        iters = 0
        while True:
            while iters < opts.max_iters:
                if t < -opts.feas_stop:
                    return True, z, t, iters
                grad = np.zeros(nv + 1)
                hess = np.zeros((nv + 1, nv + 1))
                grad[nv] = 1.0  # d(t)/dt
                for block in self.blocks:
                    K0, Kmap, tfac, _ = block
                    S = self._slack(z, t, block)
                    Sinv = np.linalg.inv(S)
                    ks = list(Kmap.keys())
                    Ws = {k: Sinv @ Kmap[k] for k in ks}
                    if tfac:
                        Ws[nv] = Sinv * tfac
                        ks = ks + [nv]
                    for a_i, ka in enumerate(ks):
                        Wa = Ws[ka]
                        grad[ka] += -mu * float(np.trace(Wa))
                        for kb in ks[a_i:]:
                            hval = mu * float(np.sum(Wa * Ws[kb].T))
                            hess[ka, kb] += hval
                            if kb != ka:
                                hess[kb, ka] += hval
                try:
                    d = np.linalg.solve(hess + 1e-12 * np.eye(nv + 1), -grad)
                except np.linalg.LinAlgError:
                    d = np.linalg.lstsq(hess, -grad, rcond=None)[0]
                decrement = float(-grad @ d)
                if decrement <= 2.0 * opts.newton_tol:
                    break
                f0 = self._fval(z, t, mu)
                alpha = 1.0
                gTd = float(grad @ d)
                while alpha > 1e-14:
                    z_try = z + alpha * d[:nv]
                    t_try = t + alpha * d[nv]
                    f_try = self._fval(z_try, t_try, mu)
                    if f_try <= f0 + 1e-4 * alpha * gTd:
                        break
                    alpha *= 0.5
                if alpha <= 1e-14:
                    break  # stage stalled; shrink mu
                z = z + alpha * d[:nv]
                t = t + alpha * d[nv]
                iters += 1
            if t < -opts.feas_stop:
                return True, z, t, iters
            if mu <= opts.mu_min or iters >= opts.max_iters:
                return False, z, t, iters
            mu *= opts.mu_factor


def synthesize_certificate(model, lam, mode, grid, opts=None):
    """Find weights making the detectability inequality hold on the grid.

    mode is FixedQR(Q, R) (solve for P only) or the string "joint" (solve for
    P, Q, R together, all bounded below by eps_pd * I).  The result is always
    re-checked with verify_certificate on the same grid before it is
    returned.  Raises InfeasibleError with the most violating grid point when
    no strictly feasible point is found.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigurationError("lambda must lie strictly inside (0, 1)")
    opts = opts or SdpOptions()
    kappa = -math.log(lam)
    domain = Domain.of_model(model)
    points, _ = grid_points(domain, grid)

    n, q, p = model.n, model.q, model.p
    p_pairs, p_mats = _sym_basis(n)
    joint = isinstance(mode, str) and mode == "joint"
    if joint:
        q_pairs, q_mats = _sym_basis(q)
        r_pairs, r_mats = _sym_basis(p)
        Q_fix = R_fix = None
    elif isinstance(mode, FixedQR):
        Q_fix = _check_sym_pd(mode.Q, "Q")
        R_fix = _check_sym_pd(mode.R, "R")
        if Q_fix.shape != (q, q) or R_fix.shape != (p, p):
            raise ConfigurationError("FixedQR weights have wrong dimensions")
    else:
        raise ConfigurationError("mode must be FixedQR(Q, R) or 'joint'")

    nP = len(p_mats)
    nvar = nP + (len(q_mats) + len(r_mats) if joint else 0)
    sdp = _BarrierSDP(nvar)

    # the inequality is affine in (P, Q, R): its value at a basis matrix of
    # one weight, the others zero, is that coordinate's block
    zP, zQ, zR = np.zeros((n, n)), np.zeros((q, q)), np.zeros((p, p))
    bases = [(E, zQ, zR) for E in p_mats]
    if joint:
        bases += [(zP, F, zR) for F in q_mats] + [(zP, zQ, G) for G in r_mats]
    for (x, u, w) in points:
        Kmap = {k: -lmi_matrix(model, *weights, kappa, x, u, w)
                for k, weights in enumerate(bases)}
        M0 = np.zeros((n + q, n + q)) if joint else \
            lmi_matrix(model, zP, Q_fix, R_fix, kappa, x, u, w)
        sdp.add_block(-M0, Kmap, 1.0, meta=(x, u, w))

    # positivity blocks: P >= eps*I (and Q, R in joint mode)
    sdp.add_block(-opts.eps_pd * np.eye(n), {k: E for k, E in enumerate(p_mats)}, 0.0)
    if joint:
        sdp.add_block(-opts.eps_pd * np.eye(q),
                      {nP + k: F for k, F in enumerate(q_mats)}, 0.0)
        sdp.add_block(-opts.eps_pd * np.eye(p),
                      {nP + len(q_mats) + k: G for k, G in enumerate(r_mats)}, 0.0)

    z0 = np.zeros(nvar)
    z0[:nP] = _vec_from_sym(np.eye(n), p_pairs)
    if joint:
        z0[nP:nP + len(q_mats)] = _vec_from_sym(np.eye(q), q_pairs)
        z0[nP + len(q_mats):] = _vec_from_sym(np.eye(p), r_pairs)
    P0 = np.eye(n)
    Q0 = np.eye(q) if joint else Q_fix
    R0 = np.eye(p) if joint else R_fix
    t0 = _max_eig(model, P0, Q0, R0, kappa, points)[0] + 1.0

    ok, z, t, iters = sdp.solve(z0, t0, opts)
    P = _sym_from_vec(z[:nP], p_pairs, n)
    Q = _sym_from_vec(z[nP:nP + len(q_mats)], q_pairs, q) if joint else Q_fix
    R = _sym_from_vec(z[nP + len(q_mats):], r_pairs, p) if joint else R_fix
    if not ok:
        worst_eig, worst_pt = _max_eig(model, P, Q, R, kappa, points)
        raise InfeasibleError(
            f"no strictly feasible weights found ({iters} Newton iterations); "
            f"best max eigenvalue {worst_eig:.3e} at x = {worst_pt[0]}, u = {worst_pt[1]}, "
            f"w = {worst_pt[2]}", worst_point=worst_pt, worst_eig=worst_eig)

    cert = DetectabilityCertificate.from_weights(P, Q, R, lam, domain)
    report = verify_certificate(model, cert, grid, tol_psd=opts.recheck_tol)
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
