import math
import re

import numpy as np
import pytest

from mhect import (PiecewiseSignal, SystemModel, Trajectory, batch_reactor, integrate,
                   output_along, rk4_step, rk4_step_with_jacobians)
from mhect.errors import ConfigurationError, DivergenceError
from mhect.rng import SplitMix64
from mhect.sysmodel import write_series_csv
from tests.conftest import const_jac


def decay_model():
    # x' = -x; the disturbance channel exists but enters with coefficient 0
    return SystemModel(1, 1, 1,
                       lambda x, w: -x,
                       lambda x, w: x.copy(),
                       jac_f_x=const_jac(-1.0), jac_f_w=const_jac(0.0),
                       jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                       X=None, W=[[-1.0, 1.0]])


def test_exponential_decay_endpoint():
    traj = integrate(decay_model(), np.array([1.0]), None, 1.0, 0.01)
    assert traj.states.shape == (101, 1)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-8


def test_self_convergence_is_fourth_order():
    m = decay_model()
    errs = []
    for dt in (0.04, 0.02, 0.01):
        traj = integrate(m, np.array([1.0]), None, 1.0, dt)
        errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_zero_length_horizon():
    traj = integrate(decay_model(), np.array([2.5]), None, 0.0, 0.01)
    assert traj.states.shape == (1, 1)
    assert traj.states[0, 0] == 2.5


def test_zero_length_span_checks_its_inputs():
    # a span of no steps still refuses a w of the wrong width
    with pytest.raises(ConfigurationError, match="w has dimension 2, expected 3"):
        integrate(batch_reactor(), np.array([1.0, 1.0]),
                  PiecewiseSignal(0.01, np.zeros((0, 2))), 0.0, 0.01)


def test_bit_identical_repeat():
    m = batch_reactor()
    w = PiecewiseSignal(0.01, 0.05 * np.sin(np.arange(300)).reshape(100, 3))
    a = integrate(m, np.array([3.0, 1.0]), w, 1.0, 0.01)
    b = integrate(m, np.array([3.0, 1.0]), w, 1.0, 0.01)
    assert a.states.tobytes() == b.states.tobytes()


def test_divergence_reports_time():
    m = SystemModel(1, 1, 1,
                    lambda x, w: x * x,
                    lambda x, w: x.copy(),
                    jac_f_x=lambda x, w: 2.0 * x[..., None], jac_f_w=const_jac(0.0),
                    jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                    X=None, W=[[-1.0, 1.0]])
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
        integrate(m, np.array([2.0]), None, 1.0, 0.01)
    assert 0.0 < float(re.search(r"at t = (\S+) ", str(exc.value))[1]) <= 1.0


def test_grid_validation():
    m = decay_model()
    with pytest.raises(ConfigurationError):
        integrate(m, np.array([1.0]), None, 0.105, 0.01)
    with pytest.raises(ConfigurationError):
        integrate(m, np.array([1.0]), None, 1.0, -0.01)
    with pytest.raises(ConfigurationError):
        integrate(m, np.array([1.0]), None, -0.5, 0.01)
    with pytest.raises(ConfigurationError):
        integrate(m, np.array([1.0, 2.0]), None, 1.0, 0.01)


def test_signal_validation():
    m = batch_reactor()
    chi = np.array([3.0, 1.0])
    with pytest.raises(ConfigurationError):        # wrong dimension
        integrate(m, chi, PiecewiseSignal(0.01, np.zeros((100, 2))), 1.0, 0.01)
    with pytest.raises(ConfigurationError):        # does not cover the horizon
        integrate(m, chi, PiecewiseSignal(0.01, np.zeros((50, 3))), 1.0, 0.01)
    with pytest.raises(ConfigurationError):        # piece length not a multiple of dt
        integrate(m, chi, PiecewiseSignal(0.03, np.zeros((40, 3))), 1.0, 0.02)


def test_coarse_signal_pieces():
    # a w held for 2 integration steps must act on both of them, in the
    # dynamics and in the output
    m = decay_model()
    rich = SystemModel(1, 1, 1,
                       lambda x, w: -x + w,
                       lambda x, w: x + w,
                       jac_f_x=const_jac(-1.0), jac_f_w=const_jac(1.0),
                       jac_h_x=const_jac(1.0), jac_h_w=const_jac(1.0),
                       X=None, W=[[-1.0, 1.0]])
    w_coarse = PiecewiseSignal(0.02, np.array([[0.3], [-0.1]]))
    w_fine = PiecewiseSignal(0.01, np.array([[0.3], [0.3], [-0.1], [-0.1]]))
    a = integrate(rich, np.array([1.0]), w_coarse, 0.04, 0.01)
    b = integrate(rich, np.array([1.0]), w_fine, 0.04, 0.01)
    assert a.states.tobytes() == b.states.tobytes()
    ya = output_along(rich, a, w_coarse)
    assert ya.values.tobytes() == output_along(rich, b, w_fine).values.tobytes()
    assert np.array_equal(ya.values[:, 0], a.states[:-1, 0] + w_fine.values[:, 0])


def test_output_along_left_nodes():
    m = batch_reactor()
    rng = SplitMix64(3)
    w = PiecewiseSignal(0.01, -0.1 + 0.2 * rng.uniforms((30, 3)))
    traj = integrate(m, np.array([2.0, 2.0]), w, 0.3, 0.01)
    y = output_along(m, traj, w)
    assert y.n_pieces == 30 and y.dim == 1
    for k in (0, 7, 29):
        expect = traj.states[k, 0] + traj.states[k, 1] + w.values[k, 2]
        assert y.values[k, 0] == pytest.approx(expect, abs=1e-15)


def test_trajectory_queries_and_csv(tmp_path):
    m = batch_reactor()
    traj = integrate(m, np.array([3.0, 1.0]), None, 0.5, 0.01)
    assert traj.n_steps == 50

    path = tmp_path / "traj.csv"
    write_series_csv(str(path), traj.dt, traj.states, "x")
    assert path.read_text().partition("\n")[0] == "t,x1,x2"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert data.shape == (51, 3)
    assert np.array_equal(data[:, 0], np.arange(51) * 0.01)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(data[:, 1:], traj.states)


def test_step_jacobians_match_finite_differences():
    m = batch_reactor()
    rng = SplitMix64(11)
    dt = 0.01
    for _ in range(20):
        x = 0.1 + 4.9 * rng.uniforms((2,))
        w = -0.1 + 0.2 * rng.uniforms((3,))
        x1, A, B = rk4_step_with_jacobians(m, x, w, dt)
        assert np.allclose(x1, rk4_step(m, x, w, dt), rtol=0, atol=1e-15)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            col = (rk4_step(m, x + e, w, dt) - rk4_step(m, x - e, w, dt)) / 2e-6
            assert np.abs(A[:, j] - col).max() < 1e-7
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-6
            col = (rk4_step(m, x, w + e, dt) - rk4_step(m, x, w - e, dt)) / 2e-6
            assert np.abs(B[:, j] - col).max() < 1e-7


def test_trajectory_shape_validation():
    with pytest.raises(ConfigurationError):
        Trajectory(0.01, np.zeros(5))
    with pytest.raises(ConfigurationError):
        Trajectory(0.01, np.zeros((0, 2)))
