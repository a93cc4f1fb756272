"""Detectability certificates for nonlinear models.

A certificate is a set of quadratic weights (P, Q, R) and a decay rate
lambda in (0, 1) such that V(a, b) = |a - b|^2_P decays at rate lambda
between two trajectories, up to a supply term weighted by Q and R.
Sufficiency is checked through a pointwise matrix inequality in the model
Jacobians:

    [ PA + A'P + kappa*P - C'RC   PB - C'RD  ]
    [ (PB - C'RD)'               -D'RD - Q   ]  <=  0

at every point of the model's boxes X x W, with kappa = -ln(lambda).  A
certificate holds the one weight P, as P1; its file writes it twice, under
the keys P1 and P2, and loading refuses them unequal.  The file then holds
Q, R, lambda and the verification record.  The module verifies given weights
on a grid, synthesizes feasible weights with a log-det barrier
interior-point method, and derives the horizon threshold and contraction
rate used by the estimator error bounds.  Each barrier stage centres on
t/mu - log det S, the barrier objective scaled by 1/mu, to a fixed Newton
decrement of that scaled function, and synthesis stops at the first
strictly feasible slack bound t.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HorizonError, InfeasibleError
from .sysmodel import (_boolean, _float_array, _integer, _numeric, _read_json, _section,
                       as_box, box_grid_axes)


def _check_sym(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix")
    if not np.isfinite(M).all():
        raise ConfigurationError(f"{name} has a non-finite entry")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > 1e-10 * scale:
        raise ConfigurationError(f"{name} must be symmetric")
    return M


def _check_sym_pd(M, name):
    M = _check_sym(M, name)
    if float(np.linalg.eigvalsh(M)[0]) <= 0.0:
        raise ConfigurationError(f"{name} must be positive definite")
    return M


def check_weight_sizes(model, **weights):
    """ConfigurationError unless each weight fits the model: P n x n, Q q x q, R p x p."""
    for name, M in weights.items():
        d = {"P": model.n, "Q": model.q, "R": model.p}[name]
        if M.shape != (d, d):
            raise ConfigurationError(f"weight {name} is {M.shape[0]}x{M.shape[1]}, "
                                     f"but the model needs {d}x{d}")


def _kappa_of(lam):
    """kappa = -ln(lambda) of a decay rate lambda, which must lie in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ConfigurationError("lambda must lie strictly inside (0, 1)")
    return -math.log(lam)


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
class VerificationReport:
    passed: bool
    max_eig: float
    worst_x: np.ndarray
    worst_w: np.ndarray
    tol_psd: float
    n_points: int
    mode: str

    def to_dict(self):
        return {"passed": self.passed, "max_eig": self.max_eig, "worst_x": list(self.worst_x),
                "worst_w": list(self.worst_w), "tol_psd": self.tol_psd,
                "n_points": self.n_points, "mode": self.mode}

    @classmethod
    def from_dict(cls, d):
        d = _section(d, "certificate verification")
        return cls(*(_numeric(d, k, "certificate verification", convert) for k, convert in (
            ("passed", _boolean), ("max_eig", float), ("worst_x", _float_array),
            ("worst_w", _float_array), ("tol_psd", float), ("n_points", _integer), ("mode", str))))


@dataclass(frozen=True)
class DetectabilityCertificate:
    """Quadratic detectability weights with decay rate lambda on the model's boxes.

    P1 is the one weight P of V(a, b) = |a - b|^2_P, named after its file
    key.  Invariants enforced at construction: all weights symmetric
    positive definite and lambda in (0, 1).
    """

    P1: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    lam: float
    verification: VerificationReport | None = None

    def __post_init__(self):
        for name in ("P1", "Q", "R"):
            object.__setattr__(self, name, _check_sym_pd(getattr(self, name), name))
        _kappa_of(self.lam)

    def to_dict(self):
        return {"P1": self.P1.tolist(), "P2": self.P1.tolist(), "Q": self.Q.tolist(),
                "R": self.R.tolist(), "lambda": self.lam,
                "verification": self.verification.to_dict() if self.verification else None}

    @classmethod
    def from_dict(cls, d):
        """The file's P2 must equal P1 to 1e-12 * max(1, max|P2|).  Older
        files also hold kappa, which must equal -ln(lambda) to 1e-12, and
        domain, boxes X, U, W that must be well-formed but go unused."""
        d = _section(d, "certificate")
        ver = VerificationReport.from_dict(d["verification"]) if d.get("verification") else None
        P1, P2, Q, R, lam = (_numeric(d, k, "certificate", convert) for k, convert in (
            ("P1", _float_array), ("P2", _float_array), ("Q", _float_array),
            ("R", _float_array), ("lambda", float)))
        cert = cls(P1, Q, R, lam, ver)
        if P2.shape != cert.P1.shape or not np.allclose(
                P2, cert.P1, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(P2).max()))):
            raise ConfigurationError("P2 must equal P1: the certificate has one weight P")
        if "kappa" in d and abs(_numeric(d, "kappa", "certificate") - _kappa_of(cert.lam)) > 1e-12:
            raise ConfigurationError("kappa must equal -ln(lambda) to 1e-12")
        if "domain" in d:
            dom = _section(d["domain"], "certificate domain")
            for k in ("X", "U", "W"):
                _numeric(dom, k, "certificate domain", lambda v: as_box(v, None, f"domain {k}"))
        return cert


def save_certificate(cert, path):
    with open(path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=1)


def load_certificate(path):
    return DetectabilityCertificate.from_dict(_read_json(path, "certificate"))


# ---------------------------------------------------------------------------
# the pointwise matrix inequality

def lmi_matrix(model, P, Q, R, kappa, x, w):
    """The (n+q) x (n+q) detectability inequality block, symmetrized by
    averaging with its transpose.  x and w may carry leading batch axes;
    the result then holds one block per point, with shape (..., n+q, n+q).
    P, Q and R may carry leading batch axes too, which broadcast against
    the points' axes as in matmul: (U, 1, d, d) at B points give (U, B, ...)."""
    A = model.jac_f_x(x, w)
    B = model.jac_f_w(x, w)
    C = model.jac_h_x(x, w)
    D = model.jac_h_w(x, w)
    Ct = C.swapaxes(-1, -2)
    RC = R @ C
    RD = R @ D
    M11 = P @ A + A.swapaxes(-1, -2) @ P + kappa * P - Ct @ RC
    M12 = P @ B - Ct @ RD
    M22 = -D.swapaxes(-1, -2) @ RD - Q
    M = np.concatenate([np.concatenate([M11, M12], axis=-1),
                        np.concatenate([M12.swapaxes(-1, -2), M22], axis=-1)], axis=-2)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _distinct_rows(rows):
    """Indices of the first of each distinct row of a 2-D float array, in
    row order.  Adding 0.0 turns -0.0 into 0.0, so rows equal as floats have
    equal int64 views; a stable sort of the views makes equal rows adjacent
    and puts the first one at the head of its run."""
    v = (np.asarray(rows, dtype=float) + 0.0).view(np.int64)
    order = np.lexsort(v.T)
    v = v[order]
    head = np.concatenate([[True], np.any(v[1:] != v[:-1], axis=1)])
    return np.sort(order[head])


def _distinct_points(model, points):
    """The first of the stacked points (x, w) with each distinct set of
    model Jacobians, in grid order.  lmi_matrix reads a point only through
    A, B, C, D, and a batched call gives each row the bits of a single call,
    so these points hold every inequality block of the stack."""
    jacs = [J(*points) for J in (model.jac_f_x, model.jac_f_w, model.jac_h_x, model.jac_h_w)]
    first = _distinct_rows(np.concatenate([J.reshape(len(J), -1) for J in jacs], axis=1))
    return tuple(v[first] for v in points)


def _max_eig(model, P, Q, R, kappa, points):
    """Largest inequality eigenvalue over the stacked points (x, w) and the
    first point attaining it; each distinct Jacobian point is evaluated once."""
    points = _distinct_points(model, points)
    eigs = np.linalg.eigvalsh(lmi_matrix(model, P, Q, R, kappa, *points))[:, -1]
    k = int(np.argmax(eigs))
    return float(eigs[k]), tuple(v[k] for v in points)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over the model's boxes X and W: points per axis,
    one count for every axis of the block, or vertices_only, the grid of two
    points per axis, which grid_points allows only on a model without a
    vertex_blocker.  Nothing reads affinity_asserted: the model's exponents
    decide; it stays only because the benchmark workloads still pass it."""

    x_points: int = 2
    w_points: int = 2
    vertices_only: bool = False
    affinity_asserted: bool = False


def grid_points(model, grid):
    """Evaluation points of a GridSpec over the model's boxes, stacked as
    arrays (x (B, n), w (B, q)) in x-major, then w order.
    A box with an unbounded side cannot be gridded and is refused."""
    counts = (grid.x_points, grid.w_points)
    if grid.vertices_only:
        if model.vertex_blocker:
            raise ConfigurationError(
                "vertex checks bound the box only when A and B are multi-affine and C and D "
                f"constant; not shown for this model ({model.vertex_blocker}): use a grid")
        counts = (2, 2)
    axes = [np.array(list(itertools.product(*box_grid_axes(box, c))), dtype=float)
            for box, c in zip((model.X, model.W), counts)]
    k = np.indices([len(a) for a in axes]).reshape(2, -1)
    return tuple(a[i] for a, i in zip(axes, k)), "vertices" if grid.vertices_only else "grid"


def verify_certificate(model, cert, grid, tol_psd=1e-8):
    """Evaluate the inequality at every grid point of the model's boxes.

    Passes iff the maximum eigenvalue over all points is <= tol_psd
    (absolute), which must be finite.
    """
    if not math.isfinite(tol_psd):
        raise ConfigurationError(f"verification tolerance {tol_psd} must be finite")
    check_weight_sizes(model, P=cert.P1, Q=cert.Q, R=cert.R)
    return _report(model, cert.P1, cert.Q, cert.R, _kappa_of(cert.lam),
                   *grid_points(model, grid), tol_psd)


def _report(model, P, Q, R, kappa, points, mode, tol_psd):
    """The verification report of weights at expanded grid points."""
    max_eig, worst = _max_eig(model, P, Q, R, kappa, points)
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
NEWTON_TOL = 0.1     # a stage ends at lambda^2/2 <= this for t/mu - log det S
MAX_NEWTON_ITERS = 200  # total Newton iterations across barrier stages


@dataclass(frozen=True)
class SdpOptions:
    """Synthesis settings; the barrier settings above are constants.
    recheck_tol: callers read it to re-check a result as synthesis does."""

    recheck_tol: float = 1e-8


def _sym_basis(n):
    """Basis of symmetric n x n matrices as one (n(n+1)/2, n, n) array:
    the n diagonal units first, then the upper off-diagonal pairs."""
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        mats[k, i, j] = mats[k, j, i] = 1.0
    return mats


class _BarrierSDP:
    """min y[-1] subject to S(y) = K0 + sum_k y_k K_k > 0.

    Every slack block sits in one stack, padded to a common size s: K0 has
    shape (B, s, s) and K shape (B, nvar, s, s).  A block smaller than s
    holds an identity diagonal in K0 and zeros in every basis matrix past
    its own size, so its padding adds I to the slack and nothing to the
    log-determinant or its derivatives.  The last coordinate of y is t; its
    basis matrix is I in the inequality blocks (slack t*I - M(z)) and 0 in
    the positivity blocks.  Newton's method on t + mu * sum -log det S with
    exact Hessian, feasibility-preserving backtracking and Armijo acceptance.
    A stage ends when the Newton decrement of the scaled objective
    t/mu - log det S, which is the decrement of t - mu log det S divided by
    mu, satisfies lambda^2 / 2 <= NEWTON_TOL (Boyd & Vandenberghe, Convex
    Optimization, 2004, sections 9.5 and 11.3); the centring is then the same
    at every mu.
    """

    def __init__(self, K0, K):
        self.K0, self.K = K0, K

    def _slack(self, y):
        return self.K0 + np.einsum("k,bkij->bij", y, self.K)

    def _fval(self, y, mu):
        try:
            L = np.linalg.cholesky(self._slack(y))
        except np.linalg.LinAlgError:
            return math.inf
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
        return y[-1] - mu * logdet

    def _newton_system(self, y, mu):
        """Gradient and Hessian of _fval: -tr(S^-1 K_k) and tr(S^-1 K_k S^-1 K_l)."""
        W = np.linalg.inv(self._slack(y))[:, None] @ self.K
        grad = -mu * np.einsum("bkii->k", W)
        grad[-1] += 1.0
        return grad, mu * np.einsum("bkij,blji->kl", W, W)

    def solve(self, y0):
        """Returns (feasible, y, iters).  feasible means t = y[-1] < -FEAS_STOP."""
        y = np.asarray(y0, dtype=float).copy()
        mu = MU0
        f0 = self._fval(y, mu)   # the objective at y, carried from the accepted trial
        if math.isinf(f0):
            raise ConfigurationError("barrier initialization is not strictly feasible")
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
                if decrement <= 2.0 * NEWTON_TOL * mu:
                    break
                alpha = 1.0
                while alpha > 1e-14:
                    f = self._fval(y + alpha * d, mu)
                    if f <= f0 - 1e-4 * alpha * decrement:
                        break
                    alpha *= 0.5
                if alpha <= 1e-14:
                    break  # stage stalled; shrink mu
                y, f0 = y + alpha * d, f
                iters += 1
            if y[-1] < -FEAS_STOP:
                return True, y, iters
            if mu <= MU_MIN or iters >= MAX_NEWTON_ITERS:
                return False, y, iters
            mu *= MU_FACTOR
            f0 = self._fval(y, mu)


def _synthesis_problem(model, kappa, Q_fix, R_fix, points):
    """The barrier problem of synthesis, its start point and the map from y
    to the weights [P, Q, R].

    The unknown weights are P, or P, Q and R when Q_fix is None (joint
    mode); y holds their coordinates in the symmetric bases, then t.  Points
    with the same inequality block constrain the weights alike, so the
    barrier holds each distinct block once, at its first point; blocks are
    built at the distinct Jacobian points only, which keep every first one.
    The stack holds those blocks, then one positivity block per unknown
    weight, padded to s = max(n + q, p) in joint mode and n + q otherwise.
    """
    n, q, p = model.n, model.q, model.p
    points = _distinct_points(model, points)
    dims = (n,) if Q_fix is not None else (n, q, p)
    bases = [_sym_basis(d) for d in dims]
    offsets = np.cumsum([0] + [len(m) for m in bases])
    nvar = offsets[-1] + 1
    s = max(n + q, *dims)

    def weights(y):
        W = [np.tensordot(y[o:o + len(m)], m, 1) for m, o in zip(bases, offsets)]
        return W if Q_fix is None else W + [Q_fix, R_fix]

    # the inequality is affine in (P, Q, R): its value at a basis matrix of
    # one weight, the others zero, is that coordinate's block.  One call on
    # the stacked unit weights, and in fixed mode (0, Q_fix, R_fix) last,
    # gives every block at every point
    zeros = [np.zeros((d, d)) for d in (n, q, p)]
    units = [zeros[:i] + [E] + zeros[i + 1:] for i, m in enumerate(bases) for E in m]
    fixed = [] if Q_fix is None else [[zeros[0], Q_fix, R_fix]]
    stacked = [np.stack(W)[:, None] for W in zip(*(units + fixed))]
    M = -lmi_matrix(model, *stacked, kappa, *points)
    K0 = M[-1] if fixed else np.zeros_like(M[0])
    K = M[:len(units)].swapaxes(0, 1)
    blocks = np.concatenate([K0.reshape(len(K0), -1), K.reshape(len(K), -1)], axis=1)
    first = _distinct_rows(blocks)
    nb = len(first)

    # the stack: inequality blocks t*I - M(z), then each unknown weight
    # >= EPS_PD * I; padding is I in K0 and 0 in K
    K0s = np.broadcast_to(np.eye(s), (nb + len(dims), s, s)).copy()
    Ks = np.zeros((nb + len(dims), nvar, s, s))
    K0s[:nb, :n + q, :n + q] = K0[first]
    Ks[:nb, :-1, :n + q, :n + q] = K[first]
    Ks[:nb, -1, :n + q, :n + q] = np.eye(n + q)
    # the start point sets each weight to I, the sum of its d diagonal
    # basis matrices, and t one above the largest inequality eigenvalue
    y0 = np.zeros(nvar)
    for b, (d, m, o) in enumerate(zip(dims, bases, offsets), start=nb):
        K0s[b, :d, :d] = -EPS_PD * np.eye(d)
        Ks[b, o:o + len(m), :d, :d] = m
        y0[o:o + d] = 1.0
    S0 = K0s[:nb] + np.einsum("k,bkij->bij", y0, Ks[:nb])
    y0[-1] = 1.0 - float(np.linalg.eigvalsh(S0)[:, 0].min())
    return _BarrierSDP(K0s, Ks), y0, weights


def synthesize_certificate(model, lam, mode, grid):
    """Find weights making the detectability inequality hold on the grid.

    mode is FixedQR(Q, R) (solve for P only) or the string "joint" (solve for
    P, Q, R together, all bounded below by EPS_PD * I).  The result is always
    re-checked as verify_certificate checks it, on every point of the same
    grid, at SdpOptions().recheck_tol before it is returned.  Raises
    InfeasibleError with the most violating grid point when no strictly
    feasible point is found.
    """
    kappa = _kappa_of(lam)
    points, grid_mode = grid_points(model, grid)

    if isinstance(mode, str) and mode == "joint":
        Q_fix = R_fix = None
    elif isinstance(mode, FixedQR):
        Q_fix = _check_sym_pd(mode.Q, "Q")
        R_fix = _check_sym_pd(mode.R, "R")
        check_weight_sizes(model, Q=Q_fix, R=R_fix)
    else:
        raise ConfigurationError("mode must be FixedQR(Q, R) or 'joint'")

    sdp, y0, weights = _synthesis_problem(model, kappa, Q_fix, R_fix, points)
    ok, y, iters = sdp.solve(y0)
    P, Q, R = weights(y)
    if not ok:
        worst_eig, worst_pt = _max_eig(model, P, Q, R, kappa, points)
        raise InfeasibleError(
            f"no strictly feasible weights found ({iters} Newton iterations); "
            f"best max eigenvalue {worst_eig:.3e} at x = {worst_pt[0]}, w = {worst_pt[1]}")

    report = _report(model, P, Q, R, kappa, points, grid_mode, SdpOptions().recheck_tol)
    if not report.passed:
        raise RuntimeError(
            "internal consistency error: synthesized weights failed re-verification "
            f"(max eigenvalue {report.max_eig:.3e})")
    return DetectabilityCertificate(P, Q, R, float(lam), report)


# ---------------------------------------------------------------------------
# horizon threshold and contraction rate

def min_horizon(cert, delta_bar):
    """Smallest admissible horizon: -ln(4)/ln(lambda) + delta_bar."""
    if delta_bar < 0.0:
        raise ConfigurationError("need delta_bar >= 0")
    return -math.log(4.0) / math.log(cert.lam) + delta_bar


def contraction_rate(cert, T, delta_bar):
    """Decay rate rho = 4^(1/(T - delta_bar)) * lambda of the estimate error
    bound; requires T strictly above min_horizon."""
    bound = min_horizon(cert, delta_bar)
    if not T > bound:
        raise HorizonError(
            f"horizon T = {T} must strictly exceed -ln(4)/ln(lambda) + delta_bar "
            f"= {bound} (lambda = {cert.lam}, delta_bar = {delta_bar})")
    return 4.0 ** (1.0 / (T - delta_bar)) * cert.lam
