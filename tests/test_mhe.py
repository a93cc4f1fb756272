import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mhect import (DetectabilityCertificate, Domain, Equidistant, EventTriggered, Explicit,
                   MheConfig, PiecewiseSignal, SystemModel, batch_reactor, discount_weights,
                   integrate, k_of, make_sampler, mhe_objective, run_mhe, solve_fie, solve_mhe,
                   truth_candidate_cost, zero_signal)
from mhect.errors import ConfigurationError, DivergenceError, DomainError, HorizonError
from mhect.integrate import rk4_step_with_jacobians
from mhect.mhe import (DAMPING_INIT, GRAD_TOL, MAX_ITERS, SamplingSet, _WindowProblem,
                       validate_sampling)
from mhect.rng import SplitMix64
from tests.conftest import const_jac


# ---------------------------------------------------------------------------
# discount weights

def test_discount_weight_total():
    # sum of the per-piece integrals telescopes to (1 - rate^H) / (-ln rate)
    for rate, N, dt in ((0.4, 200, 0.01), (0.9, 17, 0.05), (0.1, 3, 0.2)):
        om = discount_weights(rate, N, dt)
        total = (1.0 - rate ** (N * dt)) / (-math.log(rate))
        assert abs(om.sum() - total) < 1e-12 * max(1.0, total)
        assert np.all(om > 0.0)
        assert np.all(np.diff(om) > 0.0)   # newer pieces are discounted less


def test_discount_weights_match_quadrature():
    rate, N, dt = 0.4, 5, 0.1
    om = discount_weights(rate, N, dt)
    sub = 20000
    for j in range(N):
        taus = (j + (np.arange(sub) + 0.5) / sub) * dt
        riemann = float(np.sum(rate ** (N * dt - taus))) * dt / sub
        assert abs(om[j] - riemann) < 1e-9


def test_discount_weights_near_one():
    om = discount_weights(1.0 - 1e-12, 10, 0.01)
    assert np.abs(om - 0.01).max() < 1e-6 * 0.01
    assert np.array_equal(discount_weights(1.0, 4, 0.02), np.full(4, 0.02))
    assert discount_weights(0.4, 0, 0.01).size == 0
    with pytest.raises(ConfigurationError):
        discount_weights(0.0, 4, 0.01)


def test_discount_weights_explicit_horizon():
    # a horizon longer than the pieces just discounts every piece further
    om_flush = discount_weights(0.4, 10, 0.01)
    om_deep = discount_weights(0.4, 10, 0.01, horizon=0.5)
    assert np.allclose(om_deep, om_flush * 0.4 ** 0.4, rtol=1e-13)


# ---------------------------------------------------------------------------
# sampling sets

def test_sampling_set_gap_statistics():
    s = SamplingSet(np.array([0.1, 0.3]), 0.01)
    assert s.delta_bar == pytest.approx(0.2)
    assert s.last == pytest.approx(0.3)
    assert np.array_equal(s.k_indices, [10, 30])

    single = SamplingSet(np.array([0.5]), 0.01)
    assert single.delta_bar == pytest.approx(0.5)

    rng = SplitMix64(5)
    for _ in range(20):
        ks = np.unique((rng.uniforms((12,)) * 400).astype(int) + 1)
        s = SamplingSet(ks * 0.01, 0.01)
        gaps = np.diff(np.concatenate(([0], ks)))
        assert s.delta_bar == pytest.approx(gaps.max() * 0.01)


def test_sampling_set_validation():
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([0.1, 0.1]), 0.01)       # not strictly increasing
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([0.105]), 0.01)          # off-grid
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([-0.1]), 0.01)
    s = SamplingSet(np.array([3 * 0.1]), 0.01)        # float dust snaps
    assert s.k_indices[0] == 30


def test_next_sample_lookup():
    s = SamplingSet(np.array([0.1, 0.3]), 0.01)
    assert k_of(s, 0.05) == pytest.approx(0.1)
    assert k_of(s, 0.1) == pytest.approx(0.1)
    assert k_of(s, 0.3) == pytest.approx(0.3)
    assert k_of(s, 0.10000000001) == pytest.approx(0.1)  # fuzz keeps t == t_i stable
    with pytest.raises(DomainError):
        k_of(s, 0.31)


def test_make_sampler_equidistant():
    s = make_sampler(Equidistant(0.1), 5.0, 0.01)
    assert s.times.size == 50
    assert s.delta_bar == pytest.approx(0.1)
    assert s.last == pytest.approx(5.0)
    with pytest.raises(ConfigurationError):
        make_sampler(Equidistant(0.004), 5.0, 0.01)   # finer than the grid
    with pytest.raises(HorizonError):
        make_sampler(Equidistant(0.5), 5.0, 0.01, horizon=0.5)


def test_make_sampler_explicit():
    gaps = [0.02] * 10 + [0.04] * 10 + [0.06] * 10 + [0.19] * 20
    times = np.cumsum(gaps)
    s = make_sampler(Explicit(tuple(times)), 5.0, 0.01)
    assert s.times.size == 50
    assert s.delta_bar == pytest.approx(0.19)
    assert s.last == pytest.approx(5.0)
    with pytest.raises(ConfigurationError):
        make_sampler(Explicit((1.0, 6.0)), 5.0, 0.01)


def test_make_sampler_event_rules():
    model = batch_reactor()
    w = zero_signal(3, 0.01, 300)
    truth = integrate(model, np.array([3.0, 1.0]), None, w, 0.0, 3.0, 0.01)
    from mhect import output_along
    y = output_along(model, truth, None, w)

    # infinite threshold: never triggers early, every gap is delta_max
    data = dict(model=model, y=y, x0=np.array([0.1, 4.5]))
    s = make_sampler(EventTriggered(math.inf, 0.05, 0.25), 3.0, 0.01, **data)
    assert np.all(np.diff(np.concatenate(([0], s.k_indices))) == 25)

    # zero threshold with a wrong nominal state: fires at delta_min every time
    s2 = make_sampler(EventTriggered(0.0, 0.05, 0.25), 3.0, 0.01, **data)
    assert np.all(np.diff(np.concatenate(([0], s2.k_indices))) == 5)

    # missing context is an error when realized directly
    with pytest.raises(ConfigurationError):
        make_sampler(EventTriggered(1.0, 0.05, 0.25), 3.0, 0.01)

    # gaps always within [delta_min, delta_max] for intermediate thresholds
    s3 = make_sampler(EventTriggered(1e-4, 0.05, 0.25), 3.0, 0.01, **data)
    g = np.diff(np.concatenate(([0], s3.k_indices)))
    assert np.all(g >= 5) and np.all(g <= 25)


def _running_sum_schedule(piece_energy, threshold, k_min, k_max, K):
    """The event rule as a scalar running sum over each stretch (the oracle)."""
    ks, prev = [], 0
    while prev + k_min <= K:
        energy, emitted = 0.0, None
        for k in range(prev + 1, min(prev + k_max, K) + 1):
            energy += piece_energy[k - 1]
            if (k - prev >= k_min and energy > threshold) or k - prev == k_max:
                emitted = k
                break
        if emitted is None:
            break
        ks.append(emitted)
        prev = emitted
    return ks


@pytest.mark.parametrize("threshold, delta_min, delta_max, t_sim", [
    (1e-4, 0.05, 0.25, 3.0), (1e-3, 0.05, 0.19, 2.97), (3e-3, 0.01, 0.4, 3.0),
    (0.0, 0.03, 0.03, 1.0), (math.inf, 0.02, 0.4, 2.95)])
def test_event_schedule_matches_the_running_sum(threshold, delta_min, delta_max, t_sim):
    model = batch_reactor()
    K = round(t_sim / 0.01)
    y = PiecewiseSignal(0.0, 0.01, 4.0 + 0.3 * SplitMix64(K).uniforms((K, 1)))
    x0 = np.array([0.1, 4.5])
    s = make_sampler(EventTriggered(threshold, delta_min, delta_max), t_sim, 0.01,
                     model=model, y=y, x0=x0)
    nom = integrate(model, x0, None, None, 0.0, t_sim, 0.01)
    innov = y.values - model.h(nom.states[:-1], np.zeros((K, 0)), np.zeros((K, 3)))
    piece_energy = np.einsum("ki,ki->k", innov, innov) * 0.01
    expect = _running_sum_schedule(piece_energy, threshold, round(delta_min / 0.01),
                                   round(delta_max / 0.01), K)
    assert s.k_indices.tolist() == expect


def test_config_validation(ref_cert):
    with pytest.raises(ConfigurationError):
        MheConfig(ref_cert, 2.005, 0.01, Equidistant(0.1))
    with pytest.raises(ConfigurationError):
        MheConfig(ref_cert, -1.0, 0.01, Equidistant(0.1))
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    assert cfg.n_steps_T == 200
    assert GRAD_TOL == 1e-8 and MAX_ITERS == 100 and DAMPING_INIT == 1e-3

    with pytest.raises(HorizonError):
        validate_sampling(cfg, SamplingSet(np.array([2.5]), 0.01))
    with pytest.raises(ConfigurationError):
        validate_sampling(cfg, SamplingSet(np.array([0.1]), 0.02))

    eq = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1), equidistant_mode=True)
    validate_sampling(eq, make_sampler(Equidistant(0.1), 4.0, 0.01))
    with pytest.raises(ConfigurationError):   # unequal gaps
        validate_sampling(eq, SamplingSet(np.array([0.1, 0.3]), 0.01))
    with pytest.raises(ConfigurationError):   # T not a multiple of the period
        validate_sampling(eq, SamplingSet(np.array([0.3, 0.6]), 0.01))


# ---------------------------------------------------------------------------
# objective

def test_objective_zero_at_perfect_data(ref_cert):
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    y = PiecewiseSignal(0.0, 0.01, np.ones((50, 1)))
    prior = np.array([3.0, 1.0])
    val = mhe_objective(cfg, prior, prior, zero_signal(3, 0.01, 50), y, y, 0.5)
    assert val == 0.0


def test_objective_hand_computed(ref_cert):
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    lam = 0.4
    T_ti = 0.02
    prior = np.array([1.0, 2.0])
    chi = np.array([1.5, 1.8])
    w = PiecewiseSignal(0.0, 0.01, np.array([[0.1, 0.0, -0.1], [0.0, 0.05, 0.0]]))
    y_meas = PiecewiseSignal(0.0, 0.01, np.array([[3.0], [3.1]]))
    y_est = PiecewiseSignal(0.0, 0.01, np.array([[2.9], [3.15]]))

    # independent evaluation straight from the definition
    d0 = chi - prior
    expect = 2.0 * lam ** T_ti * (d0 @ ref_cert.P2 @ d0)
    for j in range(2):
        om = (lam ** (T_ti - (j + 1) * 0.01) - lam ** (T_ti - j * 0.01)) / (-math.log(lam))
        wj = w.values[j]
        dyj = y_meas.values[j] - y_est.values[j]
        expect += om * (2.0 * wj @ ref_cert.Q @ wj + dyj @ ref_cert.R @ dyj)
    got = mhe_objective(cfg, prior, chi, w, y_meas, y_est, T_ti)
    assert got == pytest.approx(expect, rel=1e-13)


def test_objective_validates_segments(ref_cert):
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    y = PiecewiseSignal(0.0, 0.01, np.ones((50, 1)))
    with pytest.raises(ConfigurationError):
        mhe_objective(cfg, np.zeros(2), np.zeros(2), zero_signal(3, 0.01, 49), y, y, 0.5)
    with pytest.raises(ConfigurationError):
        mhe_objective(cfg, np.zeros(2), np.zeros(2), zero_signal(2, 0.01, 50), y, y, 0.5)


# ---------------------------------------------------------------------------
# window solver

def reactor_setup(ref_cert, t_sim=1.0, chi=(3.0, 1.0), chi_hat=(0.1, 4.5), seed=None):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    w = None
    if seed is not None:
        rng = SplitMix64(seed)
        K = int(round(t_sim / 0.01))
        w = PiecewiseSignal(0.0, 0.01, -0.1 + 0.2 * rng.uniforms((K, 3)))
    run = run_mhe(model, cfg, chi_hat=np.array(chi_hat), t_sim=t_sim,
                  chi=np.array(chi), w=w)
    return model, cfg, run


def test_noise_free_perfect_prior_is_exact(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, chi_hat=(3.0, 1.0))
    K = run.estimate.shape[0]
    assert np.abs(run.truth.x_true.states[:K] - run.estimate).max() <= 1e-12
    assert all(s.cost <= 1e-12 for s in run.solutions)
    assert all(s.stats.termination == "converged" for s in run.solutions)


def test_solver_reaches_tolerance_and_descends(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=1)
    for s in run.solutions:
        assert s.stats.termination == "converged"
        assert s.stats.grad_norm <= GRAD_TOL
        hist = np.array(s.stats.cost_history)
        assert np.all(np.diff(hist) <= 0.0)
        assert s.stats.feasible
        assert np.all(s.x_star.states >= 0.1 - 1e-9)
        assert np.all(s.x_star.states <= 5.0 + 1e-9)
        assert np.abs(s.w_star.values).max() <= 0.1 + 1e-12


def test_solution_restates_exactly(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=2)
    for s in run.solutions[-3:]:
        again = integrate(model, s.chi_star, None, s.w_star, 0.0, s.T_ti, cfg.dt)
        assert again.states.tobytes() == s.x_star.states.tobytes()


def test_solver_beats_truth_candidate(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=3)
    for i, s in enumerate(run.solutions):
        cand = truth_candidate_cost(run, i)
        assert s.cost <= cand * (1.0 + 1e-6) + 1e-12


def test_estimate_is_stitched_from_windows(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=4)
    ks = run.sampling.k_indices
    assert run.estimate.shape[0] == ks[-1] + 1
    assert np.array_equal(run.estimate[0], run.chi_hat)
    assert run.node_flags[0] == "prior"
    assert np.all(np.isfinite(run.estimate))
    # the node at each sample equals the window solution endpoint
    for k, sol in zip(ks, run.solutions):
        assert np.array_equal(run.estimate[int(k)], sol.x_star.states[-1])


def test_full_information_matches_windowed(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, t_sim=2.0, seed=5)
    for sol in run.solutions:
        fie = solve_fie(model, cfg, np.array([0.1, 4.5]), None,
                        run.y.slice(0.0, sol.t_i), sol.t_i)
        assert fie.cost == pytest.approx(sol.cost, rel=1e-12, abs=1e-15)


def test_warm_start_agrees_with_cold_start(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=6)
    ks = run.sampling.k_indices
    i = len(ks) - 1
    k_i = int(ks[i])
    s_i = k_i - min(k_i, cfg.n_steps_T)
    prior = run.estimate[s_i]
    y_seg = run.y.slice(s_i * cfg.dt, k_i * cfg.dt)
    cold = solve_mhe(model, cfg, prior, None, y_seg, k_i * cfg.dt, warm=None)
    warm = run.solutions[i]
    assert cold.cost == pytest.approx(warm.cost, rel=1e-9, abs=1e-12)
    assert np.abs(cold.chi_star - warm.chi_star).max() < 1e-5


def test_prior_outside_domain_is_projected(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    truth = integrate(model, np.array([3.0, 1.0]), None, None, 0.0, 0.5, 0.01)
    from mhect import output_along
    y = output_along(model, truth, None, None)
    sol = solve_mhe(model, cfg, np.array([0.0, 6.0]), None, y.slice(0.0, 0.1), 0.1)
    assert any("projected" in msg for msg in sol.stats.warnings)
    assert np.all(sol.chi_star >= 0.1) and np.all(sol.chi_star <= 5.0)


def test_window_divergence_from_the_prior():
    # x' = x^2 + w escapes at t = 1/x0: from 20 every candidate blows up
    # inside the 0.1 window, from 0.1 the window solves normally
    model = SystemModel(1, 0, 1, 1,
                        lambda x, u, w: x * x + w,
                        lambda x, u, w: x.copy(),
                        jac_f_x=lambda x, u, w: 2.0 * x[..., None],
                        jac_f_w=const_jac(1.0), jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                        X=None, U=[], W=[[-0.1, 0.1]], name="escape")
    cert = DetectabilityCertificate.from_weights(np.eye(1), np.eye(1), np.eye(1), 0.5,
                                                 Domain.of_model(model))
    cfg = MheConfig(cert, 0.5, 0.01, Equidistant(0.1))
    y_seg = PiecewiseSignal(0.0, 0.01, np.full((10, 1), 0.1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            solve_mhe(model, cfg, np.array([20.0]), None, y_seg, 0.1)
    sol = solve_mhe(model, cfg, np.array([0.1]), None, y_seg, 0.1)
    assert np.all(np.isfinite(sol.x_star.states))


def _dense_jacobian(prob, z, states):
    """Residual Jacobian of a window, assembled densely from the forward RK4
    sensitivities G_j = dx_j/dz; the reference for the stage-wise solver."""
    n, q, N, p, nv = prob.n, prob.q, prob.N, prob.p, prob.nv
    Wp = z[n:].reshape(N, q)
    G = np.zeros((N + 1, n, nv))
    G[0, :, :n] = np.eye(n)
    Jw = np.zeros((N * q, nv))
    Jy = np.zeros((N * p, nv))
    for j in range(N):
        wj = slice(n + j * q, n + (j + 1) * q)
        _, A, B = rk4_step_with_jacobians(prob.model, states[j], prob.u[j], Wp[j], prob.dt)
        G[j + 1] = A @ G[j]
        G[j + 1][:, wj] += B
        Jw[j * q:(j + 1) * q, wj] = prob.sw[j] * prob.sqQ
        blk = prob.model.jac_h_x(states[j], prob.u[j], Wp[j]) @ G[j]
        blk[:, wj] += prob.model.jac_h_w(states[j], prob.u[j], Wp[j])
        Jy[j * p:(j + 1) * p] = -prob.sy[j] * (prob.sqR @ blk)
    Jp = np.zeros((n, nv))
    Jp[:, :n] = prob.sq_prior
    j, i, _ = prob._active_violations(states)
    return np.vstack([Jp, Jw, Jy, math.sqrt(prob.pen) * G[j, i]])


def test_window_jacobian_matches_finite_differences(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    rng = SplitMix64(13)
    N = 5
    y_seg = PiecewiseSignal(0.0, 0.01, 3.9 + 0.1 * rng.uniforms((N, 1)))
    prob = _WindowProblem(model, cfg, np.array([3.0, 1.0]), None, y_seg, N * 0.01)

    def full_residual(z):
        states = prob.forward(z)
        return prob.residuals(z, states)

    for z0 in (np.concatenate([[3.0, 1.0], 0.05 * (rng.uniforms((N * 3,)) - 0.5)]),
               np.concatenate([[0.12, 4.9], 0.09 * (rng.uniforms((N * 3,)) - 0.5)])):
        states = prob.forward(z0)
        J = _dense_jacobian(prob, z0, states)
        r0 = full_residual(z0)
        assert J.shape == (r0.size, z0.size)
        for idx in range(z0.size):
            e = np.zeros(z0.size)
            e[idx] = 1e-7
            col = (full_residual(z0 + e) - full_residual(z0 - e)) / 2e-7
            assert np.abs(J[:, idx] - col).max() < 2e-5 * max(1.0, np.abs(col).max())


def _window_with_violations(ref_cert, N):
    """A window of N pieces at a point whose trajectory leaves a shrunken X,
    at the terminal node N among others, so penalty rows are active."""
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 8.0, 0.01, Equidistant(0.1))
    rng = SplitMix64(100 + N)
    y_seg = PiecewiseSignal(0.0, 0.01, 3.9 + 0.2 * rng.uniforms((N, 1)))
    prob = _WindowProblem(model, cfg, np.array([3.0, 1.0]), None, y_seg, N * 0.01)
    z = np.concatenate([[2.9, 1.1], 0.18 * (rng.uniforms((N * 3,)) - 0.5)])
    states = prob.forward(z)
    prob.x_hi = states[N] - 1e-3 * np.abs(states[N])
    assert prob._active_violations(states)[0][-1] == N
    return prob, z, states


@pytest.mark.parametrize("N", [1, 5, 40, 200])
def test_riccati_step_matches_the_dense_solve(ref_cert, N):
    prob, z, states = _window_with_violations(ref_cert, N)
    n, q = prob.n, prob.q
    r = prob.residuals(z, states)
    J = _dense_jacobian(prob, z, states)
    lin = prob.linearize(z, states, r)
    Jtr = J.T @ r
    g = prob.gradient(lin)
    assert np.linalg.norm(g - Jtr) <= 1e-10 * np.linalg.norm(Jtr)

    rng = SplitMix64(7 * N)
    some = rng.uniforms((prob.nv,)) < 0.8
    some[n + (N // 2) * q:n + (N // 2 + 1) * q] = False   # one stage with w all pinned
    no_chi = some.copy()
    no_chi[:n] = False
    JTJ = J.T @ J
    for free in (np.ones(prob.nv, bool), some, no_chi):
        nf = int(free.sum())
        for mu in (1e-3, 1.0, 1e4):
            dense = np.zeros(prob.nv)
            dense[free] = np.linalg.solve(JTJ[np.ix_(free, free)] + mu * np.eye(nf), -Jtr[free])
            step = prob.lm_step(lin, free, mu)
            assert np.all(step[~free] == 0.0)
            assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


@settings(max_examples=60)
@given(N=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1), log_mu=st.floats(-6.0, 4.0),
       penalized=st.booleans(), data=st.data())
def test_stage_sweeps_match_the_dense_model(ref_cert, N, seed, log_mu, penalized, data):
    # a random window, decision point, free mask and damping: the adjoint sweep
    # gives J'r and the Riccati sweep the dense masked damped solve
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 8.0, 0.01, Equidistant(0.1))
    rng = SplitMix64(seed)
    y_seg = PiecewiseSignal(0.0, 0.01, 0.2 + 9.8 * rng.uniforms((N, 1)))
    prob = _WindowProblem(model, cfg, rng.uniforms((2,), 0.1, 5.0), None, y_seg, N * 0.01)
    z = np.concatenate([rng.uniforms((2,), 0.1, 5.0), rng.uniforms((N * 3,), -0.1, 0.1)])
    states = prob.forward(z)
    if penalized:
        prob.x_hi = states[N] - 1e-3 * np.abs(states[N])
    free = np.array(data.draw(st.lists(st.booleans(), min_size=prob.nv, max_size=prob.nv)))
    assume(free.any())
    mu = 10.0 ** log_mu
    r = prob.residuals(z, states)
    J = _dense_jacobian(prob, z, states)
    lin = prob.linearize(z, states, r)
    Jtr = J.T @ r
    assert np.linalg.norm(prob.gradient(lin) - Jtr) <= 1e-10 * np.linalg.norm(Jtr)
    dense = np.zeros(prob.nv)
    dense[free] = np.linalg.solve((J.T @ J)[np.ix_(free, free)] + mu * np.eye(free.sum()),
                                  -Jtr[free])
    step = prob.lm_step(lin, free, mu)
    assert np.all(step[~free] == 0.0)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)


def test_window_step_memory_is_linear_in_the_window(ref_cert):
    # at N = 800 (nv = 2402) a dense sensitivity tensor or J'J alone would
    # take tens of MB; the stage-wise arrays stay well below 4 MB
    prob, z, states = _window_with_violations(ref_cert, 800)
    r = prob.residuals(z, states)
    free = np.ones(prob.nv, bool)
    tracemalloc.start()
    try:
        lin = prob.linearize(z, states, r)
        prob.gradient(lin)
        prob.lm_step(lin, free, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_active_violations_match_the_scalar_scan(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    y_seg = PiecewiseSignal(0.0, 0.01, np.ones((3, 1)))
    prob = _WindowProblem(model, cfg, np.array([3.0, 1.0]), None, y_seg, 0.03)
    states = np.array([[3.0, 1.0], [0.05, 6.0], [5.5, 0.09], [0.1, 5.0]])
    expect = [(j, i, states[j, i] - lo if states[j, i] < lo else states[j, i] - hi)
              for j in range(4) for i, (lo, hi) in enumerate(model.X)
              if not lo <= states[j, i] <= hi]
    j, i, v = prob._active_violations(states)
    assert list(zip(j.tolist(), i.tolist(), v.tolist())) == expect
    assert prob._active_violations(states[[0, 3]])[2].size == 0


def test_run_requires_truth_or_measurements(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    with pytest.raises(ConfigurationError):
        run_mhe(model, cfg, chi_hat=np.array([3.0, 1.0]), t_sim=1.0)
    with pytest.raises(ConfigurationError):
        run_mhe(model, cfg, chi_hat=np.array([9.0, 1.0]), t_sim=1.0,
                chi=np.array([3.0, 1.0]))
    with pytest.raises(ConfigurationError):
        run_mhe(model, cfg, chi_hat=np.array([3.0, 1.0]), t_sim=1.0,
                chi=np.array([9.0, 1.0]))


def test_run_from_recorded_measurements(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=8)
    replay = run_mhe(model, cfg, chi_hat=np.array([0.1, 4.5]), t_sim=1.0, y=run.y)
    assert replay.truth is None
    assert np.array_equal(replay.estimate, run.estimate)
    with pytest.raises(ConfigurationError):
        truth_candidate_cost(replay, 0)
