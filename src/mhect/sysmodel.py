"""System models, box constraint sets, and piecewise-constant signals.

A model is continuous-time, x' = f(x, u, w), y = h(x, u, w), with
axis-aligned box sets for states (X), controls (U), disturbances (W) and
outputs (Y).  Controls are optional: m = 0 is fully supported and the
bundled benchmark uses it.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

GRID_TOL = 1e-9  # relative tolerance for "is an integer multiple of dt" checks


# ---------------------------------------------------------------------------
# boxes

def as_box(bounds, dim=None, name="box"):
    """Normalize to a (d, 2) float array of [lo, hi] rows.

    None entries mean unbounded on that side; bounds=None with a known dim
    gives the all-unbounded box.
    """
    if bounds is None:
        if dim is None:
            raise ConfigurationError(f"{name}: need an explicit dimension")
        box = np.empty((dim, 2))
        box[:, 0] = -np.inf
        box[:, 1] = np.inf
        return box
    rows = []
    for row in bounds:
        lo = -np.inf if row[0] is None else float(row[0])
        hi = np.inf if row[1] is None else float(row[1])
        if not lo <= hi:
            raise ConfigurationError(f"{name}: lower bound {lo} exceeds upper bound {hi}")
        rows.append((lo, hi))
    box = np.array(rows, dtype=float).reshape(len(rows), 2)
    if dim is not None and box.shape[0] != dim:
        raise ConfigurationError(f"{name}: expected {dim} rows, got {box.shape[0]}")
    return box


def box_contains(box, v, tol=0.0):
    v = np.asarray(v, dtype=float)
    return bool(np.all(v >= box[:, 0] - tol) and np.all(v <= box[:, 1] + tol))


def box_clip(box, v):
    return np.clip(np.asarray(v, dtype=float), box[:, 0], box[:, 1])


def box_is_finite(box):
    return bool(np.all(np.isfinite(box)))


def box_vertices(box):
    """All 2^d corners of a finite box; a single empty point for d = 0."""
    d = box.shape[0]
    if d == 0:
        return [np.zeros(0)]
    if not box_is_finite(box):
        raise ConfigurationError("vertex enumeration needs a bounded box")
    corners = []
    for mask in range(1 << d):
        corners.append(np.array([box[i, (mask >> i) & 1] for i in range(d)]))
    return corners


def box_grid_axes(box, counts):
    """Per-axis sample vectors: counts[i] equally spaced points on axis i."""
    d = box.shape[0]
    if d == 0:
        return []
    if np.isscalar(counts):
        counts = [int(counts)] * d
    if len(counts) != d:
        raise ConfigurationError("per-axis count list does not match box dimension")
    axes = []
    for i, c in enumerate(counts):
        c = int(c)
        if c < 1:
            raise ConfigurationError("grid needs at least one point per axis")
        lo, hi = box[i]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("cannot grid an unbounded axis")
        axes.append(np.array([0.5 * (lo + hi)]) if c == 1 else np.linspace(lo, hi, c))
    return axes


# ---------------------------------------------------------------------------
# finite differences (fallback when analytic Jacobians are not supplied)

def finite_difference_jacobian(fun, x, m_out):
    """Central differences with per-coordinate step 1e-6 * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((m_out, x.size))
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return J


class SystemModel:
    """Continuous-time model with box sets and (optionally analytic) Jacobians.

    f, h take (x, u, w) with plain 1-D numpy arrays; missing Jacobians fall
    back to central finite differences.  Instances are treated as immutable
    after construction.
    """

    def __init__(self, n, m, q, p, f, h, *, jac_f_x=None, jac_f_w=None,
                 jac_h_x=None, jac_h_w=None, X=None, U=None, W=None, Y=None,
                 output_affine=False, name=""):
        if min(n, q, p) < 1 or m < 0:
            raise ConfigurationError("dimensions must satisfy n, q, p >= 1 and m >= 0")
        self.n, self.m, self.q, self.p = int(n), int(m), int(q), int(p)
        self.f, self.h = f, h
        self.X = as_box(X, self.n, "X")
        self.U = as_box(U, self.m, "U")
        self.W = as_box(W, self.q, "W")
        self.Y = as_box(Y, self.p, "Y")
        self.output_affine = bool(output_affine)
        self.name = name
        self.jac_f_x = jac_f_x or (lambda x, u, w: finite_difference_jacobian(
            lambda xi: self.f(xi, u, w), x, self.n))
        self.jac_f_w = jac_f_w or (lambda x, u, w: finite_difference_jacobian(
            lambda wi: self.f(x, u, wi), w, self.n))
        self.jac_h_x = jac_h_x or (lambda x, u, w: finite_difference_jacobian(
            lambda xi: self.h(xi, u, w), x, self.p))
        self.jac_h_w = jac_h_w or (lambda x, u, w: finite_difference_jacobian(
            lambda wi: self.h(x, u, wi), w, self.p))


# ---------------------------------------------------------------------------
# piecewise-constant signals

@dataclass(frozen=True)
class PiecewiseSignal:
    """Right-continuous piecewise-constant signal on [t0, t0 + K*dt).

    values has shape (K, d); piece k holds on [t0 + k*dt, t0 + (k+1)*dt).
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ConfigurationError("signal values must be a (K, d) array")
        if not self.dt > 0:
            raise ConfigurationError("signal dt must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def n_pieces(self):
        return self.values.shape[0]

    @property
    def end(self):
        return self.t0 + self.dt * self.n_pieces

    def eval(self, t):
        return self.values[self.piece_index(t)]

    def piece_index(self, t):
        s = (t - self.t0) / self.dt
        k = round(s)
        idx = k if abs(s - k) <= GRID_TOL else math.floor(s)
        if idx < 0 or idx >= self.n_pieces:
            raise DomainError(f"t = {t} outside signal domain [{self.t0}, {self.end})")
        return idx

    def slice(self, t_start, t_end, rebase=True):
        """Grid-aligned sub-signal on [t_start, t_end); rebases t0 to 0."""
        k0 = as_grid_index(t_start - self.t0, self.dt, "slice start")
        k1 = as_grid_index(t_end - self.t0, self.dt, "slice end")
        if k0 < 0 or k1 > self.n_pieces or k0 > k1:
            raise DomainError("slice outside signal domain")
        t0 = 0.0 if rebase else t_start
        return PiecewiseSignal(t0, self.dt, self.values[k0:k1].copy())


def zero_signal(dim, dt, n_pieces, t0=0.0):
    return PiecewiseSignal(t0, dt, np.zeros((n_pieces, dim)))


def as_grid_index(t, dt, what="time"):
    """Integer k with t = k*dt, tolerance 1e-9 relative; error otherwise."""
    s = t / dt
    k = round(s)
    if abs(s - k) > GRID_TOL * max(1.0, abs(s)):
        raise ConfigurationError(f"{what} = {t} is not an integer multiple of dt = {dt}")
    return int(k)


def write_csv(path, header, rows):
    """Write a header line and comma-separated rows; strings are written
    as they are and numbers as %.17g, which round-trips float64 exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# bundled benchmark model: isothermal gas-phase batch reactor, 2A <-> B

def batch_reactor():
    """Two-state reversible reaction with total-pressure measurement.

    x1' = -2 k1 x1^2 + 2 k2 x2 + w1,  x2' = k1 x1^2 - k2 x2 + w2,
    y = x1 + x2 + w3, with k1 = 0.16, k2 = 0.0064, X = [0.1, 5]^2 and
    |w_i| <= 0.1.  No control input.
    """
    k1, k2 = 0.16, 0.0064

    def f(x, u, w):
        r = k1 * x[0] * x[0]
        return np.array([-2.0 * r + 2.0 * k2 * x[1] + w[0], r - k2 * x[1] + w[1]])

    def h(x, u, w):
        return np.array([x[0] + x[1] + w[2]])

    def jac_f_x(x, u, w):
        return np.array([[-4.0 * k1 * x[0], 2.0 * k2], [2.0 * k1 * x[0], -k2]])

    def jac_f_w(x, u, w):
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def jac_h_x(x, u, w):
        return np.array([[1.0, 1.0]])

    def jac_h_w(x, u, w):
        return np.array([[0.0, 0.0, 1.0]])

    return SystemModel(
        2, 0, 3, 1, f, h,
        jac_f_x=jac_f_x, jac_f_w=jac_f_w, jac_h_x=jac_h_x, jac_h_w=jac_h_w,
        X=[[0.1, 5.0], [0.1, 5.0]], U=[], W=[[-0.1, 0.1]] * 3, Y=None,
        output_affine=True, name="batch_reactor")


# ---------------------------------------------------------------------------
# polynomial models from structured files

def _poly_eval(terms, x, w):
    val = 0.0
    for c, xe, we in terms:
        t = c
        for i, e in enumerate(xe):
            if e:
                t *= x[i] ** e
        for i, e in enumerate(we):
            if e:
                t *= w[i] ** e
        val += t
    return val


def _poly_diff(terms, wrt, idx):
    """d/d(var idx) of a monomial list; wrt is 'x' or 'w'."""
    out = []
    for c, xe, we in terms:
        exps = xe if wrt == "x" else we
        e = exps[idx]
        if e == 0:
            continue
        new = list(exps)
        new[idx] = e - 1
        if wrt == "x":
            out.append((c * e, tuple(new), we))
        else:
            out.append((c * e, xe, tuple(new)))
    return out


def _poly_degree(terms):
    return max((sum(xe) + sum(we) for _, xe, we in terms), default=0)


def model_from_dict(spec):
    """Build a SystemModel from the structured dict format (see load_model)."""
    try:
        n = int(spec["state_dim"])
        q = int(spec["dist_dim"])
        p = int(spec["output_dim"])
    except KeyError as e:
        raise ConfigurationError(f"model file missing field {e}")
    m = int(spec.get("input_dim", 0))
    if m != 0:
        raise ConfigurationError("file-based models are polynomial in (x, w) only; input_dim must be 0")

    def parse_terms(entry, coord):
        terms = []
        for term in entry:
            c = float(term["coeff"])
            xe = tuple(int(e) for e in term.get("x_exp", [0] * n))
            we = tuple(int(e) for e in term.get("w_exp", [0] * q))
            if len(xe) != n or len(we) != q:
                raise ConfigurationError(f"{coord}: exponent lists must have lengths {n} and {q}")
            if any(e < 0 for e in xe + we):
                raise ConfigurationError(f"{coord}: exponents must be nonnegative")
            terms.append((c, xe, we))
        return terms

    try:
        f_terms = [parse_terms(row, f"f[{i}]") for i, row in enumerate(spec["f"])]
        h_terms = [parse_terms(row, f"h[{i}]") for i, row in enumerate(spec["h"])]
    except KeyError as e:
        raise ConfigurationError(f"model file missing field {e}")
    if len(f_terms) != n or len(h_terms) != p:
        raise ConfigurationError("f must list n coordinates and h must list p coordinates")

    output_affine = bool(spec.get("output_affine", False))
    if output_affine and any(_poly_degree(t) > 1 for t in h_terms):
        raise ConfigurationError("output_affine declared but h has degree > 1 in (x, w)")

    def f(x, u, w):
        return np.array([_poly_eval(t, x, w) for t in f_terms])

    def h(x, u, w):
        return np.array([_poly_eval(t, x, w) for t in h_terms])

    fx = [[_poly_diff(f_terms[i], "x", j) for j in range(n)] for i in range(n)]
    fw = [[_poly_diff(f_terms[i], "w", j) for j in range(q)] for i in range(n)]
    hx = [[_poly_diff(h_terms[i], "x", j) for j in range(n)] for i in range(p)]
    hw = [[_poly_diff(h_terms[i], "w", j) for j in range(q)] for i in range(p)]

    def jac(rows, nc):
        def J(x, u, w):
            out = np.zeros((len(rows), nc))
            for i, row in enumerate(rows):
                for j, terms in enumerate(row):
                    out[i, j] = _poly_eval(terms, x, w)
            return out
        return J

    return SystemModel(
        n, 0, q, p, f, h,
        jac_f_x=jac(fx, n), jac_f_w=jac(fw, q), jac_h_x=jac(hx, n), jac_h_w=jac(hw, q),
        X=spec.get("X"), U=[], W=spec.get("W"), Y=spec.get("Y"),
        output_affine=output_affine, name=spec.get("name", "file_model"))


def load_model(path):
    """Load a polynomial model from a JSON file.

    Format: state_dim/dist_dim/output_dim ints, f and h as per-coordinate
    lists of monomial terms {"coeff": c, "x_exp": [...], "w_exp": [...]},
    box sets X/W/Y as [lo, hi] rows (null = unbounded).
    """
    with open(path) as fh:
        spec = json.load(fh)
    return model_from_dict(spec)


MODEL_REGISTRY = {"batch_reactor": batch_reactor}


def get_model(name):
    """Look up a bundled model by registry name."""
    try:
        return MODEL_REGISTRY[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown model '{name}'; bundled models: {sorted(MODEL_REGISTRY)}") from None
