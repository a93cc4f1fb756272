"""System models, box constraint sets, and piecewise-constant signals.

A model is continuous-time, x' = f(x, u, w), y = h(x, u, w), with
axis-aligned box sets for states (X), controls (U) and disturbances (W).
Controls are optional: m = 0 is fully supported and the bundled benchmark
uses it.
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
    gives the all-unbounded box.  Anything but a list of [lo, hi] pairs is a
    ConfigurationError naming the box; a non-numeric bound raises
    ValueError or TypeError, which the field readers name.
    """
    if bounds is None:
        if dim is None:
            raise ConfigurationError(f"{name}: need an explicit dimension")
        box = np.empty((dim, 2))
        box[:, 0] = -np.inf
        box[:, 1] = np.inf
        return box
    pairs = list(bounds) if np.iterable(bounds) else [None]
    if not all(np.iterable(row) and len(row) == 2 for row in pairs):
        raise ConfigurationError(f"{name} must be a list of [lo, hi] rows, not {bounds!r}")
    rows = []
    for lo, hi in pairs:
        lo = -np.inf if lo is None else float(lo)
        hi = np.inf if hi is None else float(hi)
        if not lo <= hi:
            raise ConfigurationError(f"{name}: lower bound {lo} exceeds upper bound {hi}")
        rows.append((lo, hi))
    box = np.array(rows, dtype=float).reshape(len(rows), 2)
    if dim is not None and box.shape[0] != dim:
        raise ConfigurationError(f"{name}: expected {dim} rows, got {box.shape[0]}")
    return box


def box_within(inner, outer):
    """Whether box inner has outer's dimension and lies inside it, with
    1e-12 slack for bounds written out and read back."""
    return inner.shape == outer.shape and bool(
        np.all(inner[:, 0] >= outer[:, 0] - 1e-12) and np.all(inner[:, 1] <= outer[:, 1] + 1e-12))


def box_contains(box, v, tol=0.0):
    v = np.asarray(v, dtype=float)
    return bool(np.all(v >= box[:, 0] - tol) and np.all(v <= box[:, 1] + tol))


def box_clip(box, v):
    return np.clip(np.asarray(v, dtype=float), box[:, 0], box[:, 1])


def box_grid_axes(box, counts):
    """Per-axis sample vectors: counts[i] equally spaced points on axis i."""
    d = box.shape[0]
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


class SystemModel:
    """Continuous-time model with box sets and analytic Jacobians.

    Every callback takes (x, u, w) with shapes (..., n), (..., m), (..., q)
    that share their leading batch axes and evaluates all rows at once: f
    returns (..., n), h (..., p), jac_f_x (..., n, n), jac_f_w (..., n, q),
    jac_h_x (..., p, n) and jac_h_w (..., p, q).  Results may be read-only
    broadcast views.  Instances are treated as immutable after construction.
    """

    def __init__(self, n, m, q, p, f, h, *, jac_f_x, jac_f_w, jac_h_x, jac_h_w,
                 X=None, U=None, W=None, output_affine=False, name=""):
        if min(n, q, p) < 1 or m < 0:
            raise ConfigurationError("dimensions must satisfy n, q, p >= 1 and m >= 0")
        self.n, self.m, self.q, self.p = int(n), int(m), int(q), int(p)
        self.f, self.h = f, h
        self.jac_f_x, self.jac_f_w = jac_f_x, jac_f_w
        self.jac_h_x, self.jac_h_w = jac_h_x, jac_h_w
        self.X = as_box(X, self.n, "X")
        self.U = as_box(U, self.m, "U")
        self.W = as_box(W, self.q, "W")
        self.output_affine = bool(output_affine)
        self.name = name


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

    def slice(self, t_start, t_end):
        """Grid-aligned sub-signal on [t_start, t_end); rebases t0 to 0."""
        k0 = as_grid_index(t_start - self.t0, self.dt, "slice start")
        k1 = as_grid_index(t_end - self.t0, self.dt, "slice end")
        if k0 < 0 or k1 > self.n_pieces or k0 > k1:
            raise DomainError("slice outside signal domain")
        return PiecewiseSignal(0.0, self.dt, self.values[k0:k1].copy())


def zero_signal(dim, dt, n_pieces):
    return PiecewiseSignal(0.0, dt, np.zeros((n_pieces, dim)))


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

    # f and h index the transposes: x.T[i] is x[..., i] with the batch axes
    # reversed, and a numpy scalar for one row, which keeps the sequential
    # RK4 loop at scalar speed; the final .T restores the batch axes
    def f(x, u, w):
        x, w = x.T, w.T
        r = k1 * x[0] * x[0]
        return np.array([-2.0 * r + 2.0 * k2 * x[1] + w[0], r - k2 * x[1] + w[1]]).T

    def h(x, u, w):
        x, w = x.T, w.T
        return np.array([x[0] + x[1] + w[2]]).T

    def jac_f_x(x, u, w):
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = -4.0 * k1 * x[..., 0]
        J[..., 0, 1] = 2.0 * k2
        J[..., 1, 0] = 2.0 * k1 * x[..., 0]
        J[..., 1, 1] = -k2
        return J

    def constant(J):
        return lambda x, u, w: np.broadcast_to(J, x.shape[:-1] + J.shape)

    return SystemModel(
        2, 0, 3, 1, f, h, jac_f_x=jac_f_x,
        jac_f_w=constant(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
        jac_h_x=constant(np.array([[1.0, 1.0]])),
        jac_h_w=constant(np.array([[0.0, 0.0, 1.0]])),
        X=[[0.1, 5.0], [0.1, 5.0]], U=[], W=[[-0.1, 0.1]] * 3,
        output_affine=True, name="batch_reactor")


# ---------------------------------------------------------------------------
# polynomial models from structured files

def _section(value, where):
    """value, which must be a JSON object; anything else is a
    ConfigurationError naming the section."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, not {type(value).__name__}")
    return value


def _numeric(section, key, where, convert=float):
    """section[key] passed through convert, or a ConfigurationError naming
    the field: "missing field" for an absent key, "not numeric" for a value
    convert rejects or a section that is not a JSON object.  Callers need
    no KeyError handling of their own."""
    try:
        return convert(section[key])
    except KeyError:
        raise ConfigurationError(f"{where} missing field {key!r}") from None
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigurationError(f"{where} field {key!r} is not numeric: {e}")


def _integer(value):
    v = float(value)
    if not v.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(v)


def _boolean(value):
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not a JSON boolean")
    return value


def _float_array(value):
    return np.array(value, dtype=float)


def _exponents(value):
    exps = [_integer(e) for e in value]
    if min(exps, default=0) < 0:
        raise ValueError(f"exponents must be non-negative integers, got {value!r}")
    return exps


def _polynomial(c, e, shape):
    """Callback for rows r of sum_t c[r, t] * prod_i v_i^e[r, t, i] at
    v = (x, w), returned with trailing shape `shape`."""
    def poly(x, u, w):
        v = np.concatenate([x, w], axis=-1)[..., None, None, :]
        return np.sum(c * np.prod(v ** e, axis=-1), axis=-1).reshape(x.shape[:-1] + shape)
    return poly


def _derivative(c, e, cols):
    """Coefficients and exponents of d row / d v_j for j in cols, rows (r, j)
    in row-major order; terms without v_j keep coefficient 0."""
    var = np.arange(e.shape[-1])
    dc = np.stack([c * e[..., j] for j in cols], axis=1)
    de = np.stack([np.where(var == j, np.maximum(e - 1.0, 0.0), e) for j in cols], axis=1)
    return dc.reshape(-1, c.shape[1]), de.reshape(-1, *e.shape[1:])


def model_from_dict(spec):
    """Build a SystemModel from the structured dict format (see load_model)."""
    spec = _section(spec, "model")
    n, q, p = (_numeric(spec, k, "model", _integer)
               for k in ("state_dim", "dist_dim", "output_dim"))
    m = _numeric(spec, "input_dim", "model", _integer) if "input_dim" in spec else 0
    if min(n, q, p) < 1 or m != 0:
        raise ConfigurationError(
            "file-based models need state_dim, dist_dim, output_dim >= 1 and are "
            "polynomial in (x, w) only: input_dim must be 0")

    def compile_rows(name):
        """Coefficients (R, T) and exponents (R, T, n + q) of the rows of
        spec[name], padded with zero terms to the longest row."""
        rows = _numeric(spec, name, "model", lambda v: [list(row) for row in v])
        T = max([1] + [len(row) for row in rows])
        c = np.zeros((len(rows), T))
        e = np.zeros((len(rows), T, n + q))
        for r, row in enumerate(rows):
            coord = f"{name}[{r}]"
            for t, term in enumerate(row):
                c[r, t] = _numeric(term, "coeff", coord)
                xe = _numeric(term, "x_exp", coord, _exponents) if "x_exp" in term else [0] * n
                we = _numeric(term, "w_exp", coord, _exponents) if "w_exp" in term else [0] * q
                if len(xe) != n or len(we) != q:
                    raise ConfigurationError(
                        f"{coord}: exponent lists must have lengths {n} and {q}")
                e[r, t] = xe + we
        return c, e

    fc, fe = compile_rows("f")
    hc, he = compile_rows("h")
    X = _numeric(spec, "X", "model", lambda v: as_box(v, n, "X")) if "X" in spec else None
    W = _numeric(spec, "W", "model", lambda v: as_box(v, q, "W")) if "W" in spec else None
    if len(fc) != n or len(hc) != p:
        raise ConfigurationError("f must list n coordinates and h must list p coordinates")

    output_affine = (_numeric(spec, "output_affine", "model", _boolean)
                     if "output_affine" in spec else False)
    if output_affine and he.sum(axis=-1).max() > 1:
        raise ConfigurationError("output_affine declared but h has degree > 1 in (x, w)")

    xs, ws = range(n), range(n, n + q)
    return SystemModel(
        n, 0, q, p, _polynomial(fc, fe, (n,)), _polynomial(hc, he, (p,)),
        jac_f_x=_polynomial(*_derivative(fc, fe, xs), (n, n)),
        jac_f_w=_polynomial(*_derivative(fc, fe, ws), (n, q)),
        jac_h_x=_polynomial(*_derivative(hc, he, xs), (p, n)),
        jac_h_w=_polynomial(*_derivative(hc, he, ws), (p, q)),
        X=X, U=[], W=W, output_affine=output_affine, name=spec.get("name", "file_model"))


def load_model(path):
    """Load a polynomial model from a JSON file.

    Format: state_dim/dist_dim/output_dim integers, f and h as per-coordinate
    lists of monomial terms {"coeff": c, "x_exp": [...], "w_exp": [...]}
    with non-negative integer exponents (omitted lists are all zero), box
    sets X/W as [lo, hi] rows (null = unbounded).  A missing or non-numeric
    field is a ConfigurationError naming it.  The terms are compiled once
    into coefficient and exponent arrays, and f, h and the four Jacobians
    evaluate them over leading batch axes.
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
