import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from mhect import (PiecewiseSignal, SystemModel, as_box, batch_reactor, box_clip,
                   box_contains, get_model, lmi_matrix, model_from_dict, rk4_step,
                   rk4_step_with_jacobians, zero_signal)
from mhect.errors import ConfigurationError, DomainError
from mhect.rng import SplitMix64
from mhect.sysmodel import as_grid_index, box_grid_axes, box_within
from tests.conftest import const_jac


# ---------------------------------------------------------------------------
# boxes

def test_as_box_normalization():
    b = as_box([(0.1, 5.0), (None, 2.0)])
    assert b.shape == (2, 2)
    assert b[0, 0] == 0.1 and b[0, 1] == 5.0
    assert b[1, 0] == -np.inf and b[1, 1] == 2.0

    unbounded = as_box(None, dim=3)
    assert unbounded.shape == (3, 2)
    assert np.all(np.isinf(unbounded))

    with pytest.raises(ConfigurationError):
        as_box([(1.0, 0.0)])
    with pytest.raises(ConfigurationError):
        as_box([(0.0, 1.0)], dim=2)
    with pytest.raises(ConfigurationError):
        as_box(None)


@pytest.mark.parametrize("bounds", [5, [[0.1, 5.0, 7.0]], [0.1, 5.0], [[1.0]], [[0.0, 1.0], 2]])
def test_as_box_refuses_malformed_bounds(bounds):
    # a scalar, a row of three, a flat pair, a row of one: never truncated
    with pytest.raises(ConfigurationError, match=r"X must be a list of \[lo, hi\] rows"):
        as_box(bounds, name="X")


def test_box_within():
    outer = as_box([(0.0, 1.0), (-1.0, 1.0)])
    assert box_within(outer, outer)
    assert box_within(outer + [[-1e-13, 1e-13]], outer)      # readback slack
    assert box_within(as_box([(0.2, 0.5), (-1.0, 0.0)]), outer)
    assert not box_within(as_box([(0.0, 1.0 + 1e-9), (-1.0, 1.0)]), outer)
    assert not box_within(as_box([(0.0, 1.0)]), outer)      # dimension
    assert box_within(np.zeros((0, 2)), np.zeros((0, 2)))


def test_box_membership_and_clip():
    b = as_box([(0.0, 1.0), (-1.0, 1.0)])
    assert box_contains(b, [0.5, 0.0])
    assert box_contains(b, [0.0, 1.0])
    assert not box_contains(b, [1.0 + 1e-6, 0.0])
    assert box_contains(b, [1.0 + 1e-6, 0.0], tol=1e-5)
    assert np.allclose(box_clip(b, [2.0, -3.0]), [1.0, -1.0])


def test_box_vertices_order():
    # vertices are the two-point grid: lo then hi per axis, axis 0 slowest
    b = as_box([(0.0, 1.0), (2.0, 3.0)])
    vs = list(itertools.product(*box_grid_axes(b, 2)))
    assert len(vs) == 4
    expected = [[0.0, 2.0], [0.0, 3.0], [1.0, 2.0], [1.0, 3.0]]
    for v, e in zip(vs, expected):
        assert np.array_equal(v, e)
    with pytest.raises(ConfigurationError):
        box_grid_axes(as_box([(0.0, None)]), 2)
    assert len(list(itertools.product(*box_grid_axes(np.zeros((0, 2)), 2)))) == 1  # one empty corner


def test_box_grid_axes():
    b = as_box([(0.0, 1.0), (0.0, 2.0)])
    axes = box_grid_axes(b, 3)
    assert np.allclose(axes[0], [0.0, 0.5, 1.0])
    assert np.allclose(axes[1], [0.0, 1.0, 2.0])
    axes = box_grid_axes(b, [1, 2])
    assert np.allclose(axes[0], [0.5])
    assert np.allclose(axes[1], [0.0, 2.0])
    with pytest.raises(ConfigurationError):
        box_grid_axes(b, [3])
    with pytest.raises(ConfigurationError):
        box_grid_axes(as_box([(0.0, None)]), 2)


# ---------------------------------------------------------------------------
# the bundled reactor model

def test_reactor_vector_field_values():
    m = batch_reactor()
    x = np.array([3.0, 1.0])
    w0 = np.zeros(3)
    # -2*0.16*9 + 2*0.0064*1 = -2.8672 ; 0.16*9 - 0.0064*1 = 1.4336
    assert np.allclose(m.f(x, None, w0), [-2.8672, 1.4336], atol=1e-15)
    assert np.allclose(m.h(x, None, np.array([0.0, 0.0, 0.05])), [4.05])
    assert np.allclose(m.jac_f_x(x, None, w0), [[-1.92, 0.0128], [0.96, -0.0064]])
    assert np.allclose(m.jac_f_w(x, None, w0), [[1, 0, 0], [0, 1, 0]])
    assert np.allclose(m.jac_h_x(x, None, w0), [[1.0, 1.0]])
    assert np.allclose(m.jac_h_w(x, None, w0), [[0, 0, 1]])
    assert m.output_affine
    assert (m.n, m.m, m.q, m.p) == (2, 0, 3, 1)
    assert np.array_equal(m.X, [[0.1, 5.0], [0.1, 5.0]])
    assert np.array_equal(m.W, [[-0.1, 0.1]] * 3)


def test_model_registry():
    m = get_model("batch_reactor")
    assert m.name == "batch_reactor"
    with pytest.raises(ConfigurationError):
        get_model("no_such_model")


def test_dimension_validation():
    with pytest.raises(ConfigurationError):
        SystemModel(0, 0, 1, 1, lambda x, u, w: x, lambda x, u, w: x,
                    jac_f_x=const_jac(1.0), jac_f_w=const_jac(0.0),
                    jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0))


# ---------------------------------------------------------------------------
# piecewise-constant signals

def test_signal_slice():
    sig = PiecewiseSignal(0.0, 0.01, np.arange(20.0).reshape(20, 1))
    assert sig.end == pytest.approx(0.2)
    sub = sig.slice(0.05, 0.12)
    assert sub.t0 == 0.0 and sub.n_pieces == 7
    assert sub.values[0, 0] == 5.0 and sub.values[-1, 0] == 11.0
    with pytest.raises(DomainError):
        sig.slice(0.0, 0.21)
    with pytest.raises(ConfigurationError):
        sig.slice(0.005, 0.05)


def test_signal_validation():
    with pytest.raises(ConfigurationError):
        PiecewiseSignal(0.0, 0.01, np.zeros(5))
    with pytest.raises(ConfigurationError):
        PiecewiseSignal(0.0, 0.0, np.zeros((5, 1)))
    z = zero_signal(3, 0.1, 4)
    assert z.values.shape == (4, 3) and not z.values.any()


def test_as_grid_index():
    assert as_grid_index(0.3, 0.01) == 30
    assert as_grid_index(3 * 0.1, 0.01) == 30   # 0.30000000000000004
    assert as_grid_index(0.0, 0.01) == 0
    with pytest.raises(ConfigurationError):
        as_grid_index(0.305, 0.01)


# ---------------------------------------------------------------------------
# file-based polynomial models

REACTOR_SPEC = {
    "name": "reactor_from_file",
    "state_dim": 2, "dist_dim": 3, "output_dim": 1,
    "f": [
        [{"coeff": -0.32, "x_exp": [2, 0]}, {"coeff": 0.0128, "x_exp": [0, 1]},
         {"coeff": 1.0, "w_exp": [1, 0, 0]}],
        [{"coeff": 0.16, "x_exp": [2, 0]}, {"coeff": -0.0064, "x_exp": [0, 1]},
         {"coeff": 1.0, "w_exp": [0, 1, 0]}],
    ],
    "h": [
        [{"coeff": 1.0, "x_exp": [1, 0]}, {"coeff": 1.0, "x_exp": [0, 1]},
         {"coeff": 1.0, "w_exp": [0, 0, 1]}],
    ],
    "output_affine": True,
    "X": [[0.1, 5.0], [0.1, 5.0]],
    "W": [[-0.1, 0.1], [-0.1, 0.1], [-0.1, 0.1]],
}


def test_polynomial_model_matches_builtin():
    filed = model_from_dict(REACTOR_SPEC)
    built = batch_reactor()
    rng = SplitMix64(7)
    for _ in range(25):
        x = 0.1 + 4.9 * rng.uniforms((2,))
        w = -0.1 + 0.2 * rng.uniforms((3,))
        assert np.abs(filed.f(x, None, w) - built.f(x, None, w)).max() < 1e-13
        assert np.abs(filed.h(x, None, w) - built.h(x, None, w)).max() < 1e-13
        assert np.abs(filed.jac_f_x(x, None, w) - built.jac_f_x(x, None, w)).max() < 1e-13
        assert np.abs(filed.jac_f_w(x, None, w) - built.jac_f_w(x, None, w)).max() < 1e-13
        assert np.abs(filed.jac_h_x(x, None, w) - built.jac_h_x(x, None, w)).max() < 1e-13
    assert filed.output_affine
    assert np.array_equal(filed.X, built.X)


def test_polynomial_model_round_trip(tmp_path):
    from mhect import load_model
    path = tmp_path / "reactor.json"
    path.write_text(json.dumps(REACTOR_SPEC))
    filed = load_model(str(path))
    assert filed.name == "reactor_from_file"
    x = np.array([2.0, 0.5])
    assert np.allclose(filed.f(x, None, np.zeros(3)),
                       batch_reactor().f(x, None, np.zeros(3)))


def test_polynomial_model_validation():
    bad = dict(REACTOR_SPEC)
    bad["input_dim"] = 1
    with pytest.raises(ConfigurationError):
        model_from_dict(bad)

    quadratic_output = dict(REACTOR_SPEC)
    quadratic_output["h"] = [[{"coeff": 1.0, "x_exp": [2, 0]}]]
    with pytest.raises(ConfigurationError):
        model_from_dict(quadratic_output)

    missing = {k: v for k, v in REACTOR_SPEC.items() if k != "state_dim"}
    with pytest.raises(ConfigurationError):
        model_from_dict(missing)

    neg_exp = dict(REACTOR_SPEC)
    neg_exp["f"] = [[{"coeff": 1.0, "x_exp": [-1, 0]}], [{"coeff": 1.0}]]
    with pytest.raises(ConfigurationError):
        model_from_dict(neg_exp)

    # exponents are integers: x^1.5 is refused, not truncated to x^1
    for bad in (1.5, float("inf"), float("nan")):
        frac_exp = dict(REACTOR_SPEC)
        frac_exp["f"] = [[{"coeff": 1.0, "x_exp": [bad, 0]}], [{"coeff": 1.0}]]
        with pytest.raises(ConfigurationError, match="x_exp"):
            model_from_dict(frac_exp)
    whole = dict(REACTOR_SPEC)
    whole["f"] = [[dict(t, x_exp=[float(e) for e in t.get("x_exp", [0, 0])]) for t in row]
                  for row in REACTOR_SPEC["f"]]
    x, w = np.array([4.0, 0.5]), np.zeros(3)
    assert np.array_equal(model_from_dict(whole).f(x, None, w),
                          model_from_dict(REACTOR_SPEC).f(x, None, w))



# ---------------------------------------------------------------------------
# the batched model protocol

CALLBACKS = ("f", "h", "jac_f_x", "jac_f_w", "jac_h_x", "jac_h_w")


def _poly_eval(terms, x, w):
    """Term-by-term scalar evaluation of (coeff, x_exp, w_exp) monomials; the
    oracle for the compiled evaluator of model_from_dict."""
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
        if exps[idx]:
            new = list(exps)
            new[idx] -= 1
            out.append((c * exps[idx], tuple(new), we) if wrt == "x"
                       else (c * exps[idx], xe, tuple(new)))
    return out


# values bounded away from underflow, zero included
VALUES = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))


@st.composite
def polynomial_points(draw):
    """A random polynomial model spec and 1-4 points (X, W) in its variables."""
    n, q, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    term = st.fixed_dictionaries({
        "coeff": st.one_of(VALUES, st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.01)),
        "x_exp": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        "w_exp": st.lists(st.integers(0, 3), min_size=q, max_size=q)})
    rows = lambda k: st.lists(st.lists(term, max_size=4), min_size=k, max_size=k)
    spec = {"state_dim": n, "dist_dim": q, "output_dim": p, "f": draw(rows(n)),
            "h": draw(rows(p))}
    B = draw(st.integers(1, 4))
    return spec, draw(arrays(float, (B, n), elements=VALUES)), draw(
        arrays(float, (B, q), elements=VALUES))


def _oracle(spec, x, w):
    """f, h and the four Jacobians by the scalar oracle, each with the sum of
    its terms' magnitudes, the scale of the evaluation's rounding error."""
    def evaluate(table):
        return (np.array([[_poly_eval(t, x, w) for t in row] for row in table]),
                np.array([[_poly_eval([(abs(c), xe, we) for c, xe, we in t], abs(x), abs(w))
                           for t in row] for row in table]))

    out = {}
    for key in ("f", "h"):
        rows = [[(t["coeff"], tuple(t["x_exp"]), tuple(t["w_exp"])) for t in row]
                for row in spec[key]]
        want, scale = evaluate([[row] for row in rows])
        out[key] = want[:, 0], scale[:, 0]
        for wrt, dim in (("x", spec["state_dim"]), ("w", spec["dist_dim"])):
            out[f"jac_{key}_{wrt}"] = evaluate([[_poly_diff(row, wrt, j) for j in range(dim)]
                                                for row in rows])
    return out


@given(polynomial_points())
def test_compiled_polynomial_matches_the_scalar_oracle(case):
    spec, X, W = case
    model = model_from_dict(spec)
    for x, w in zip(X, W):
        for name, (want, scale) in _oracle(spec, x, w).items():
            got = getattr(model, name)(x, np.zeros(0), w)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale)


def _assert_rows_match(fn, X, U, W):
    """Row k of the batched call equals the call on row k, bit for bit."""
    batch = fn(X, U, W)
    batch = batch if isinstance(batch, tuple) else (batch,)
    for k in range(len(X)):
        single = fn(X[k], U[k], W[k])
        single = single if isinstance(single, tuple) else (single,)
        for b, s in zip(batch, single, strict=True):
            assert b[k].shape == s.shape
            assert np.ascontiguousarray(b[k]).tobytes() == np.ascontiguousarray(s).tobytes()


def _assert_protocol(model, X, W):
    U = np.zeros((len(X), model.m))
    for name in CALLBACKS:
        _assert_rows_match(getattr(model, name), X, U, W)
    _assert_rows_match(lambda x, u, w: rk4_step_with_jacobians(model, x, u, w, 0.01), X, U, W)
    P = np.eye(model.n) + 0.1
    Q, R = np.diag(np.arange(1.0, model.q + 1)), np.eye(model.p)
    _assert_rows_match(lambda x, u, w: lmi_matrix(model, P, Q, R, 0.9, x, u, w), X, U, W)


@given(polynomial_points())
def test_polynomial_model_rows_are_single_calls(case):
    spec, X, W = case
    _assert_protocol(model_from_dict(spec), X, W)


@given(arrays(float, (5, 2), elements=st.floats(0.1, 5.0)),
       arrays(float, (5, 3), elements=st.floats(-0.1, 0.1)))
def test_reactor_rows_are_single_calls(X, W):
    model = batch_reactor()
    _assert_protocol(model, X, W)
    # and the step of each row is the sequential kernel's
    x1, _, _ = rk4_step_with_jacobians(model, X, np.zeros((5, 0)), W, 0.01)
    for k in range(5):
        assert x1[k].tobytes() == rk4_step(model, X[k], np.zeros(0), W[k], 0.01).tobytes()


@given(polynomial_points())
def test_polynomial_step_jacobians_match_finite_differences(case):
    spec, X, W = case
    model = model_from_dict(spec)
    u, dt, h = np.zeros(0), 0.01, 1e-6
    _, A, B = rk4_step_with_jacobians(model, X, np.zeros((len(X), 0)), W, dt)
    for x, w, Ak, Bk in zip(X, W, A, B):
        for J, arg, step in ((Ak, 0, np.eye(len(x))), (Bk, 1, np.eye(len(w)))):
            for j, e in enumerate(h * step):
                xw_p, xw_m = [x, w], [x, w]
                xw_p[arg], xw_m[arg] = xw_p[arg] + e, xw_m[arg] - e
                col = (rk4_step(model, xw_p[0], u, xw_p[1], dt)
                       - rk4_step(model, xw_m[0], u, xw_m[1], dt)) / (2 * h)
                assert np.abs(J[:, j] - col).max() < 1e-7 * max(1.0, np.abs(col).max())
