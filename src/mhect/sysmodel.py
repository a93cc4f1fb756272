"""System models, box constraint sets, and piecewise-constant signals.

A model is continuous-time, x' = f(x, u, w), y = h(x, u, w), with
axis-aligned box sets for states (X), controls (U) and disturbances (W).
Controls are optional: m = 0 is fully supported and the bundled benchmark
uses it.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

GRID_TOL = 1e-9  # relative tolerance for "is an integer multiple of dt" checks


# ---------------------------------------------------------------------------
# boxes

def as_box(bounds, dim=None, name="box"):
    """Normalize to a (d, 2) float array of [lo, hi] rows.

    None entries mean unbounded on that side; bounds=None with a known dim
    gives the all-unbounded box.  Anything but a list of [lo, hi] pairs is a
    ConfigurationError naming the box; text or a non-numeric bound raises
    ValueError or TypeError, which the field readers name.
    """
    if isinstance(bounds, str):
        raise ValueError(f"{bounds!r} is text, not [lo, hi] rows")
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


def box_grid_axes(box, count):
    """Per-axis sample vectors: count equally spaced points on each axis."""
    if count < 1:
        raise ConfigurationError("grid needs at least one point per axis")
    axes = []
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("cannot grid an unbounded axis")
        axes.append(np.array([0.5 * (lo + hi)]) if count == 1 else np.linspace(lo, hi, count))
    return axes


class SystemModel:
    """Continuous-time model with box sets and analytic Jacobians.

    Every callback takes (x, u, w) with shapes (..., n), (..., m), (..., q)
    that share their leading batch axes and evaluates all rows at once: f
    returns (..., n), h (..., p), jac_f_x (..., n, n), jac_f_w (..., n, q),
    jac_h_x (..., p, n) and jac_h_w (..., p, q).  Results may be read-only
    broadcast views.  Instances are treated as immutable after construction.
    vertex_blocker names why box vertices may miss the inequality's maximum, or is None.
    """

    def __init__(self, n, m, q, p, f, h, *, jac_f_x, jac_f_w, jac_h_x, jac_h_w,
                 X=None, U=None, W=None):
        if min(n, q, p) < 1 or m < 0:
            raise ConfigurationError("dimensions must satisfy n, q, p >= 1 and m >= 0")
        self.n, self.m, self.q, self.p = int(n), int(m), int(q), int(p)
        self.f, self.h = f, h
        self.jac_f_x, self.jac_f_w = jac_f_x, jac_f_w
        self.jac_h_x, self.jac_h_w = jac_h_x, jac_h_w
        self.vertex_blocker = "hand-built callbacks carry no exponents"
        self.X = as_box(X, self.n, "X")
        self.U = as_box(U, self.m, "U")
        self.W = as_box(W, self.q, "W")


# ---------------------------------------------------------------------------
# piecewise-constant signals

@dataclass(frozen=True)
class PiecewiseSignal:
    """Right-continuous piecewise-constant signal on [0, K*dt).

    values has shape (K, d); piece k holds on [k*dt, (k+1)*dt).  A window
    on grid nodes [s, k) is PiecewiseSignal(dt, values[s:k]).
    """

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


def as_grid_index(t, dt, what="time"):
    """Integer k with t = k*dt, tolerance 1e-9 relative; error otherwise."""
    s = t / dt
    if not math.isfinite(s):
        raise ConfigurationError(f"{what} = {t} is not a finite multiple of dt = {dt}")
    if abs(s) > np.iinfo(np.intp).max:
        raise ConfigurationError(f"{what} = {t} over dt = {dt} exceeds the grid index range")
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
    |w_i| <= 0.1.  No control input.  One polynomial spec of model_from_dict.
    """
    k1, k2 = 0.16, 0.0064
    term = lambda c, x=(0, 0), w=(0, 0, 0): {"coeff": c, "x_exp": x, "w_exp": w}
    return model_from_dict({
        "state_dim": 2, "dist_dim": 3, "output_dim": 1,
        "f": [[term(-2.0 * k1, x=(2, 0)), term(2.0 * k2, x=(0, 1)), term(1.0, w=(1, 0, 0))],
              [term(k1, x=(2, 0)), term(-k2, x=(0, 1)), term(1.0, w=(0, 1, 0))]],
        "h": [[term(1.0, x=(1, 0)), term(1.0, x=(0, 1)), term(1.0, w=(0, 0, 1))]],
        "X": [[0.1, 5.0], [0.1, 5.0]], "W": [[-0.1, 0.1]] * 3})


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
    except (TypeError, ValueError, OverflowError) as e:
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


def _compile(name, rows, n, shape):
    """Callback `name` for rows, row-major over the trailing shape, of
    (coeff, exponents over (x, w), label) terms, compiled once into
    straight-line numpy source that indexes x.T[i] and w.T[j], so that one
    row runs on numpy scalars.  Zero terms are dropped, each distinct
    monomial is one product of integer powers by square-and-multiply, and
    each row sums its terms in order.  A callback that reads no variable
    returns one cached read-only view per batch shape."""
    body, names = [], {}

    def product(*factors):
        if len(factors) > 1 and factors not in names:
            names[factors] = f"t{len(names)}"
            body.append(f"{names[factors]} = {' * '.join(factors)}")
        return names.get(factors, factors[0])

    def power(var, e):
        acc = var
        for bit in bin(e)[3:]:
            acc = product(acc, acc, var) if bit == "1" else product(acc, acc)
        return acc

    sums = []
    for row in rows:
        terms = []
        for c, exps, label in row:
            if not math.isfinite(c):  # the source holds only finite literals
                raise ConfigurationError(f"{label} has a non-finite coefficient {c} in {name}")
            if c != 0.0:
                factors = [power(f"x[{i}]" if i < n else f"w[{i - n}]", e)
                           for i, e in enumerate(exps) if e]
                mono = product(*factors) if factors else repr(c)
                terms.append(mono if c == 1.0 or not factors else f"{c!r} * {mono}")
        sums.append(" + ".join(terms) or "0.0")
    cells = (", ".join(map(str, idx[::-1])) for idx in np.ndindex(shape))
    exec("\n    ".join([f"def {name}(x, u, w):", f"out = np.empty(x.shape[:-1] + {shape!r})",
                        "x, w, o = x.T, w.T, out.T", *body,
                        *(f"o[{c}] = {s}" for c, s in zip(cells, sums)), "return out"]),
         scope := {"np": np})
    if any(c and any(e) for row in rows for c, e, _ in row):
        return scope[name]
    J = scope[name](np.zeros(n), None, np.zeros(0))  # reads only the batch shape
    view = functools.cache(lambda batch: np.broadcast_to(J, batch + J.shape))
    return lambda x, u, w: view(x.shape[:-1])


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

    def terms(name):
        """The rows of spec[name] as lists of (coeff, exponents, label) terms."""
        rows = _numeric(spec, name, "model", lambda v: [list(row) for row in v])
        for r, row in enumerate(rows):
            coord = f"{name}[{r}]"
            for t, term in enumerate(row):
                c = _numeric(term, "coeff", coord)
                xe = _numeric(term, "x_exp", coord, _exponents) if "x_exp" in term else [0] * n
                we = _numeric(term, "w_exp", coord, _exponents) if "w_exp" in term else [0] * q
                if len(xe) != n or len(we) != q:
                    raise ConfigurationError(
                        f"{coord}: exponent lists must have lengths {n} and {q}")
                row[t] = (c, tuple(xe + we), f"{coord} term {t}")
        return rows

    def derivative(rows, cols):  # rows (r, j), row-major, of d row_r / d v_j
        return [[(c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:], label) for c, e, label in row if e[j]]
                for row in rows for j in cols]

    f, h = terms("f"), terms("h")
    X = _numeric(spec, "X", "model", lambda v: as_box(v, n, "X")) if "X" in spec else None
    W = _numeric(spec, "W", "model", lambda v: as_box(v, q, "W")) if "W" in spec else None
    if len(f) != n or len(h) != p:
        raise ConfigurationError("f must list n coordinates and h must list p coordinates")

    xs, ws = range(n), range(n, n + q)
    A, B, C, D = derivative(f, xs), derivative(f, ws), derivative(h, xs), derivative(h, ws)
    model = SystemModel(
        n, 0, q, p, _compile("f", f, n, (n,)), _compile("h", h, n, (p,)),
        jac_f_x=_compile("jac_f_x", A, n, (n, n)), jac_f_w=_compile("jac_f_w", B, n, (n, q)),
        jac_h_x=_compile("jac_h_x", C, n, (p, n)), jac_h_w=_compile("jac_h_w", D, n, (p, q)),
        X=X, U=[], W=W)
    # A, B multi-affine and C, D constant: lambda_max peaks at a vertex (Boyd et al. 1994)
    model.vertex_blocker = next((label for rows, top in ((A, 1), (B, 1), (C, 0), (D, 0))
                                 for row in rows for c, e, label in row if c and max(e) > top), None)
    return model


def load_model(path):
    """Load a polynomial model from a JSON file.

    Format: state_dim/dist_dim/output_dim integers, f and h as per-coordinate
    lists of monomial terms {"coeff": c, "x_exp": [...], "w_exp": [...]}
    with non-negative integer exponents (omitted lists are all zero), box
    sets X/W as [lo, hi] rows (null = unbounded).  A missing or non-numeric
    field, or a non-finite coefficient, is a ConfigurationError naming it.
    f, h and the four Jacobians are each compiled once into a straight-line
    callback over leading batch axes; the bundled reactor is one such spec.
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
