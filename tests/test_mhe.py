import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mhect.mhe
from mhect import (DetectabilityCertificate, Equidistant, EventTriggered, Explicit,
                   MheConfig, PiecewiseSignal, SystemModel, Trajectory, batch_reactor,
                   discount_weights, audit_run, integrate, make_sampler, model_from_dict,
                   output_along, run_mhe, solve_mhe, truth_candidate_cost)
from mhect.cli import bench_run
from mhect.errors import ConfigurationError, DivergenceError, HorizonError
from mhect.integrate import rk4_step_with_jacobians
from mhect.mhe import (DAMPING_INIT, GRAD_TOL, MAX_ITERS, PENALTY_WEIGHT, PRECISION_TOL,
                       ROLLOUT_TOL, SamplingSet, _WindowProblem)
from mhect.rng import SplitMix64
from tests.conftest import const_jac
from tests.test_sysmodel import polynomial_points


# ---------------------------------------------------------------------------
# discount weights

def test_discount_weight_total():
    # sum of the per-piece integrals telescopes to (1 - rate^H) / (-ln rate)
    for rate, N, dt in ((0.4, 200, 0.01), (0.9, 17, 0.05), (0.1, 3, 0.2)):
        om = discount_weights(rate, N, dt, N * dt)
        total = (1.0 - rate ** (N * dt)) / (-math.log(rate))
        assert abs(om.sum() - total) < 1e-12 * max(1.0, total)
        assert np.all(om > 0.0)
        assert np.all(np.diff(om) > 0.0)   # newer pieces are discounted less


def test_discount_weights_match_quadrature():
    rate, N, dt = 0.4, 5, 0.1
    om = discount_weights(rate, N, dt, N * dt)
    sub = 20000
    for j in range(N):
        taus = (j + (np.arange(sub) + 0.5) / sub) * dt
        riemann = float(np.sum(rate ** (N * dt - taus))) * dt / sub
        assert abs(om[j] - riemann) < 1e-9


def test_discount_weights_near_one():
    om = discount_weights(1.0 - 1e-12, 10, 0.01, 0.1)
    assert np.abs(om - 0.01).max() < 1e-6 * 0.01
    assert discount_weights(0.4, 0, 0.01, 0.0).size == 0
    for rate in (0.0, 1.0):   # a discount rate is strictly inside (0, 1)
        with pytest.raises(ConfigurationError):
            discount_weights(rate, 4, 0.01, 0.04)


def test_discount_weights_explicit_horizon():
    # a horizon longer than the pieces just discounts every piece further
    om_flush = discount_weights(0.4, 10, 0.01, 0.1)
    om_deep = discount_weights(0.4, 10, 0.01, 0.5)
    assert np.allclose(om_deep, om_flush * 0.4 ** 0.4, rtol=1e-13)


# ---------------------------------------------------------------------------
# sampling sets

def test_sampling_set_gap_statistics():
    s = SamplingSet(np.array([10, 30]), 0.01)
    assert s.delta_bar == pytest.approx(0.2)
    assert s.times[-1] == pytest.approx(0.3)
    assert np.array_equal(s.k_indices, [10, 30])

    single = SamplingSet(np.array([50]), 0.01)
    assert single.delta_bar == pytest.approx(0.5)

    rng = SplitMix64(5)
    for _ in range(20):
        ks = np.unique((rng.uniforms((12,)) * 400).astype(int) + 1)
        s = SamplingSet(ks, 0.01)
        gaps = np.diff(np.concatenate(([0], ks)))
        assert s.delta_bar == pytest.approx(gaps.max() * 0.01)


def test_sampling_set_validation():
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([10, 10]), 0.01)         # not strictly increasing
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([10.5]), 0.01)           # not a grid index
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([-10]), 0.01)
    with pytest.raises(ConfigurationError):
        SamplingSet(np.array([], dtype=int), 0.01)


def test_make_sampler_equidistant():
    s = make_sampler(Equidistant(0.1), 5.0, 0.01, 2.0)
    assert s.times.size == 50
    assert s.delta_bar == pytest.approx(0.1)
    assert s.times[-1] == pytest.approx(5.0)
    with pytest.raises(ConfigurationError):
        make_sampler(Equidistant(0.004), 5.0, 0.01, 2.0)   # finer than the grid
    with pytest.raises(HorizonError):
        make_sampler(Equidistant(0.5), 5.0, 0.01, horizon=0.5)


def test_make_sampler_explicit():
    gaps = [0.02] * 10 + [0.04] * 10 + [0.06] * 10 + [0.19] * 20
    times = np.cumsum(gaps)
    s = make_sampler(Explicit(tuple(times)), 5.0, 0.01, 2.0)
    assert s.times.size == 50
    assert s.delta_bar == pytest.approx(0.19)
    assert s.times[-1] == pytest.approx(5.0)
    with pytest.raises(ConfigurationError):
        make_sampler(Explicit((1.0, 6.0)), 5.0, 0.01, 2.0)
    for bad in ((0.1, 0.1), (0.105,), (-0.1,), ()):   # repeated, off-grid, negative, empty
        with pytest.raises(ConfigurationError):
            make_sampler(Explicit(bad), 5.0, 0.01, 2.0)
    # float dust snaps to the grid
    assert make_sampler(Explicit((3 * 0.1,)), 5.0, 0.01, 2.0).k_indices.tolist() == [30]
    # bare times are not a spec
    with pytest.raises(ConfigurationError, match="unknown sampler spec"):
        make_sampler(tuple(times), 5.0, 0.01, 2.0)


@settings(max_examples=200)
@given(dt=st.sampled_from([0.01, 0.1, 0.001, 0.05, 0.3]), K=st.integers(1, 2000),
       equidistant=st.booleans(), dust=st.sampled_from(["product", "cumsum", "jitter"]),
       jitter=st.floats(-1e-12, 1e-12), data=st.data())
def test_realized_schedules(dt, K, equidistant, dust, jitter, data):
    """Random Equidistant and Explicit specs, their times given as grid
    multiples with float dust, realize the intended grid indices."""
    def on_grid(ks):
        if dust == "cumsum":
            return np.cumsum(np.diff(ks, prepend=0) * dt)
        return ks * dt * (1.0 + (jitter if dust == "jitter" else 0.0))

    if equidistant:
        kd = data.draw(st.integers(1, K))
        expect = np.arange(kd, K + 1, kd)
        spec = Equidistant(float(on_grid(np.array([kd]))[0]))
    else:
        expect = np.array(sorted(data.draw(st.lists(st.integers(0, K), min_size=1,
                                                    max_size=60, unique=True))))
        spec = Explicit(tuple(on_grid(expect).tolist()))
    s = make_sampler(spec, K * dt, dt, math.inf)
    ks = s.k_indices
    assert ks.tolist() == expect.tolist()
    assert np.all(np.diff(ks) > 0) and 0 <= ks[0] and ks[-1] <= K
    assert s.times.tobytes() == (ks * dt).tobytes()
    delta_bar = int(np.diff(expect, prepend=0).max()) * dt
    assert s.delta_bar == delta_bar

    horizon = data.draw(st.one_of(st.floats(1e-3, 2.0 * K * dt),
                                  st.integers(1, K + 1).map(lambda k: k * dt)))
    try:
        make_sampler(spec, K * dt, dt, horizon)
        refused = False
    except HorizonError:
        refused = True
    assert refused == (delta_bar >= horizon - 1e-12)


def test_make_sampler_event_rules():
    model = batch_reactor()
    w = PiecewiseSignal(0.01, np.zeros((300, 3)))
    truth = integrate(model, np.array([3.0, 1.0]), None, w, 3.0, 0.01)
    from mhect import output_along
    y = output_along(model, truth, None, w)

    # infinite threshold: never triggers early, every gap is delta_max
    data = dict(model=model, y=y, x0=np.array([0.1, 4.5]))
    s = make_sampler(EventTriggered(math.inf, 0.05, 0.25), 3.0, 0.01, 2.0, **data)
    assert np.all(np.diff(np.concatenate(([0], s.k_indices))) == 25)

    # zero threshold with a wrong nominal state: fires at delta_min every time
    s2 = make_sampler(EventTriggered(0.0, 0.05, 0.25), 3.0, 0.01, 2.0, **data)
    assert np.all(np.diff(np.concatenate(([0], s2.k_indices))) == 5)

    # missing context is an error when realized directly
    with pytest.raises(ConfigurationError):
        make_sampler(EventTriggered(1.0, 0.05, 0.25), 3.0, 0.01, 2.0)

    # the shortest gap may not exceed the longest
    with pytest.raises(ConfigurationError, match="need dt <= delta_min <= delta_max"):
        make_sampler(EventTriggered(1e-4, 0.25, 0.05), 3.0, 0.01, 2.0, **data)

    # a NaN threshold would never fire, a negative one always
    for threshold in (math.nan, -1e-3):
        with pytest.raises(ConfigurationError, match="threshold"):
            make_sampler(EventTriggered(threshold, 0.05, 0.25), 3.0, 0.01, 2.0, **data)

    # gaps always within [delta_min, delta_max] for intermediate thresholds
    s3 = make_sampler(EventTriggered(1e-4, 0.05, 0.25), 3.0, 0.01, 2.0, **data)
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
    y = PiecewiseSignal(0.01, 4.0 + 0.3 * SplitMix64(K).uniforms((K, 1)))
    x0 = np.array([0.1, 4.5])
    s = make_sampler(EventTriggered(threshold, delta_min, delta_max), t_sim, 0.01, 2.0,
                     model=model, y=y, x0=x0)
    nom = integrate(model, x0, None, None, t_sim, 0.01)
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
    assert GRAD_TOL == 1e-8 and PRECISION_TOL == 1e-12
    assert MAX_ITERS == 100 and DAMPING_INIT == 1e-3

    # the gap check runs where run_mhe realizes the spec
    model = batch_reactor()
    with pytest.raises(HorizonError, match="delta_bar = 2.5"):
        run_mhe(model, MheConfig(ref_cert, 2.0, 0.01, Explicit((2.5,))),
                chi_hat=np.array([3.0, 1.0]), t_sim=3.0, chi=np.array([3.0, 1.0]))

    # equidistant_mode is a property of the spec, checked with the configuration
    eq = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1), equidistant_mode=True)
    assert make_sampler(eq.sampling, 4.0, eq.dt, eq.T).k_indices.size == 40
    for spec in (Explicit((0.1, 0.3)), Explicit((0.1, 0.2)), Equidistant(0.3),
                 Equidistant(0.0), EventTriggered(math.inf, 0.1, 0.1)):
        with pytest.raises(ConfigurationError, match="equidistant_mode"):
            MheConfig(ref_cert, 2.0, 0.01, spec, equidistant_mode=True)


# ---------------------------------------------------------------------------
# objective

def _objective_by_definition(model, cert, prior, y, T, w, x):
    """The objective of the window [0, T] with outputs y (pieces of length
    0.01) at disturbance pieces w and node states x, straight from its
    definition: 2 lam^T |x_0 - prior|^2_P2 plus, on each piece j, the
    integral om_j of lam^(T - tau) times 2 |w_j|^2_Q + |y_j - h(x_j, w_j)|^2_R."""
    lam, dt = cert.lam, 0.01
    d0 = x[0] - prior
    expect = 2.0 * lam ** T * (d0 @ cert.P2 @ d0)
    for j, wj in enumerate(w):
        om = (lam ** (T - (j + 1) * dt) - lam ** (T - j * dt)) / (-math.log(lam))
        dyj = y[j] - model.h(x[j], np.zeros(model.m), wj)
        expect += om * (2.0 * wj @ cert.Q @ wj + dyj @ cert.R @ dyj)
    return expect


def _cost_by_definition(model, cert, prior, y_seg, sol):
    return _objective_by_definition(model, cert, prior, y_seg.values, sol.T_ti,
                                    sol.w_star.values, sol.x_star.states)


def _reactor_window(ref_cert, chi, prior, t_i, seed=None):
    """Solve the reactor window [0, t_i] on outputs of the truth from chi,
    driven by a seeded disturbance when seed is given."""
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    K = int(round(t_i / 0.01))
    w = None
    if seed is not None:
        w = PiecewiseSignal(0.01, -0.1 + 0.2 * SplitMix64(seed).uniforms((K, 3)))
    y_seg = output_along(model, integrate(model, np.array(chi), None, w, t_i, 0.01), None, w)
    prior = np.array(prior)
    return model, prior, y_seg, solve_mhe(model, cfg, prior, None, y_seg, t_i)


def test_objective_zero_at_perfect_data(ref_cert):
    # noise-free outputs and the true state as prior: the prior itself costs 0
    model, prior, y_seg, sol = _reactor_window(ref_cert, (3.0, 1.0), (3.0, 1.0), 0.5)
    assert sol.cost == 0.0
    assert _cost_by_definition(model, ref_cert, prior, y_seg, sol) == 0.0


def test_objective_hand_computed(ref_cert):
    # sol.cost is the squared norm of the solver's objective rows; it must
    # equal the objective written out from its definition
    model, prior, y_seg, sol = _reactor_window(ref_cert, (3.0, 1.0), (2.5, 1.6), 0.05, seed=8)
    expect = _cost_by_definition(model, ref_cert, prior, y_seg, sol)
    assert expect > 1e-3
    assert sol.cost == pytest.approx(expect, rel=1e-12)
    # the escalation window ends with states just outside X, so the solver's
    # residual carries penalty rows; they are not part of the objective
    model, cert, y_seg, sol = _escalation_window()
    expect = _cost_by_definition(model, cert, np.array([0.0]), y_seg, sol)
    assert sol.cost == pytest.approx(expect, rel=1e-12)
    # at the weight the escalations left (doubled each time) those rows would
    # move the cost well past the tolerance
    violation = np.clip(np.abs(sol.x_star.states) - 1.0, 0.0, None)
    weight = PENALTY_WEIGHT * 2.0 ** sol.stats.escalations
    assert weight * float(np.sum(violation ** 2)) > 1e-11 * expect


def test_objective_validates_segments(ref_cert):
    # the window solver refuses output and control segments off its grid
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    for shape in ((49, 1), (50, 2)):   # too few pieces, wrong dimension
        y_seg = PiecewiseSignal(0.01, np.ones(shape))
        with pytest.raises(ConfigurationError, match="y segment does not match"):
            solve_mhe(model, cfg, np.array([3.0, 1.0]), None, y_seg, 0.5)
    model, cfg = _controlled_scalar_model()
    y_seg = PiecewiseSignal(0.01, np.zeros((50, 1)))
    for u_seg in (None, PiecewiseSignal(0.01, np.zeros((49, 1))),
                  PiecewiseSignal(0.01, np.zeros((50, 2)))):
        with pytest.raises(ConfigurationError, match="u segment does not match"):
            solve_mhe(model, cfg, np.array([0.0]), u_seg, y_seg, 0.5)


# ---------------------------------------------------------------------------
# window solver

def reactor_setup(ref_cert, t_sim=1.0, chi=(3.0, 1.0), chi_hat=(0.1, 4.5), seed=None,
                  sampling=Equidistant(0.1)):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, sampling)
    w = None
    if seed is not None:
        rng = SplitMix64(seed)
        K = int(round(t_sim / 0.01))
        w = PiecewiseSignal(0.01, -0.1 + 0.2 * rng.uniforms((K, 3)))
    run = run_mhe(model, cfg, chi_hat=np.array(chi_hat), t_sim=t_sim,
                  chi=np.array(chi), w=w)
    return model, cfg, run


def test_noise_free_perfect_prior_is_exact(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, chi_hat=(3.0, 1.0))
    K = run.estimate.shape[0]
    assert np.abs(run.truth.x_true.states[:K] - run.estimate).max() <= 1e-12
    assert all(s.cost <= 1e-12 for s in run.solutions)
    assert all(s.stats.termination == "converged" for s in run.solutions)


def _stage_costs(mp):
    """Spy on _WindowProblem.linearize through the monkeypatch mp: the costs
    it is called at, one list per window and penalty stage.  Each LM
    iteration linearizes at the accepted iterate, so a stage's list is its
    accepted-cost sequence."""
    stages, linearize = {}, _WindowProblem.linearize

    def spy(self, z, states, r, jac):
        stages.setdefault((self, self.pen), []).append(float(r @ r))
        return linearize(self, z, states, r, jac)
    mp.setattr(_WindowProblem, "linearize", spy)
    return stages


def test_solver_reaches_tolerance_and_descends(ref_cert, monkeypatch):
    # every window stops at the gradient tolerance or at the precision
    # floor, none stalls, and the cost never rises on the way
    stages = _stage_costs(monkeypatch)
    model, cfg, run = reactor_setup(ref_cert, seed=1)
    assert len(stages) >= len(run.solutions)
    for costs in stages.values():
        assert np.all(np.diff(costs) <= 0.0)
    for s in run.solutions:
        assert s.stats.termination in ("converged", "converged_at_precision")
        if s.stats.termination == "converged":
            assert s.stats.grad_norm <= GRAD_TOL
        assert s.stats.feasible
        assert np.all(s.x_star.states >= 0.1 - 1e-9)
        assert np.all(s.x_star.states <= 5.0 + 1e-9)
        assert np.abs(s.w_star.values).max() <= 0.1 + 1e-12


def test_precision_stops_leave_no_decrease_to_an_oracle(ref_cert):
    """From each precision stop of the seed-1 windows, a bounded trust-region
    least-squares solver (scipy, a development-only dependency) on the same
    window problem lowers the cost by at most 2e-12 relative."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    model, cfg, run = reactor_setup(ref_cert, seed=1)
    stops = 0
    for sol, k in zip(run.solutions, run.sampling.k_indices.tolist()):
        if sol.stats.termination != "converged_at_precision":
            continue
        stops += 1
        s_i = k - sol.w_star.n_pieces
        y_seg = PiecewiseSignal(cfg.dt, run.y.values[s_i:k])
        prob = _WindowProblem(model, cfg, run.estimate[s_i], None, y_seg, sol.T_ti)
        n, m = prob.n, prob.n + prob.N * (prob.q + prob.p)

        def place(z, fn):
            # the penalty rows at every node and component, so the residual
            # keeps one size wherever the trajectory leaves X
            states = prob.forward(z)
            rows = fn(z, states)
            j, i, _ = prob._active_violations(states)
            out = np.zeros((m + states.size,) + rows.shape[1:])
            out[:m] = rows[:m]
            out[m + j * n + i] = rows[m:]
            return out

        z0 = np.concatenate([sol.chi_star, sol.w_star.values.ravel()])
        r0 = place(z0, prob.residuals)
        f0 = float(r0 @ r0)
        assert f0 == pytest.approx(sol.cost, rel=1e-12)
        res = least_squares(lambda z: place(z, prob.residuals), z0,
                            jac=lambda z: place(z, lambda z, x: _dense_jacobian(prob, z, x)),
                            bounds=(prob.lb, prob.ub), ftol=1e-15, xtol=1e-15, gtol=1e-15,
                            max_nfev=100)
        assert 2.0 * res.cost >= f0 * (1.0 - 2e-12)
    assert stops >= 3


FACES = st.tuples(*[st.sampled_from([0.1, 0.1001, 4.999, 5.0])] * 2)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(5, 40), gap=st.floats(0.25, 1.0),
       chi=FACES, chi_hat=FACES, amp=st.floats(0.3, 1.0), offset=st.floats(-6.0, 6.0))
def test_box_active_windows_stop_at_tolerance_or_precision(ref_cert, seed, K, gap, chi, chi_hat,
                                                           amp, offset):
    """Windows that press on the boxes: reactor outputs of a disturbance at
    the corners of W from states on or next to the faces of X, shifted by up
    to 6 and alternating by up to 1 each step, which no w in W follows, so
    estimated disturbances sit on their bounds and states on or past the
    faces of X.  Clipped damped steps there never cycle with descent left:
    every stop is converged or converged_at_precision, and no stage's cost
    rises."""
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(max(1, round(gap * K)) * 0.01))
    w = PiecewiseSignal(0.01, np.where(SplitMix64(seed).uniforms((K, 3)) < 0.5, -0.1, 0.1))
    x = integrate(model, np.array(chi), None, w, K * 0.01, 0.01)
    y = output_along(model, x, None, w).values + offset + amp * (-1.0) ** np.arange(K)[:, None]
    with pytest.MonkeyPatch.context() as mp:
        stages = _stage_costs(mp)
        run = run_mhe(model, cfg, chi_hat=np.array(chi_hat), t_sim=K * 0.01,
                      y=PiecewiseSignal(0.01, y))
    assert any(np.any(np.abs(s.w_star.values) == 0.1) for s in run.solutions)
    for s in run.solutions:
        assert s.stats.termination in ("converged", "converged_at_precision")
    assert len(stages) >= len(run.solutions)
    for costs in stages.values():
        assert np.all(np.diff(costs) <= 0.0)


def test_solution_restates_to_rounding(ref_cert):
    # x_star is the accepted trial's Newton rollout, so integrate() restates
    # it to rounding, not bit for bit
    model, cfg, run = reactor_setup(ref_cert, seed=2)
    for s in run.solutions:
        again = integrate(model, s.chi_star, None, s.w_star, s.T_ti, cfg.dt).states
        assert np.abs(s.x_star.states - again).max() <= 1e-12 * np.abs(again).max()


def test_solver_beats_truth_candidate(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=3)
    for i, s in enumerate(run.solutions):
        cand = truth_candidate_cost(run, i)
        assert s.cost <= cand * (1.0 + 1e-6) + 1e-12


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 100), equidistant=st.booleans(),
       chi_hat=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)), data=st.data())
def test_solver_never_loses_to_the_truth_candidate(ref_cert, seed, K, equidistant, chi_hat,
                                                    data):
    """On small random reactor runs, each window's cost (the squared norm of
    the solver's objective rows) stays at or below the objective of the true
    trajectory, which truth_candidate_cost evaluates from its quadratic forms
    and which is checked against the objective's definition."""
    if equidistant:
        sampling = Equidistant(data.draw(st.integers(max(1, K // 10), K)) * 0.01)
    else:
        ks = data.draw(st.lists(st.integers(0, K), min_size=1, max_size=8, unique=True))
        sampling = Explicit(tuple(k * 0.01 for k in sorted(ks)))
    model, _, run = reactor_setup(ref_cert, t_sim=K * 0.01, chi_hat=chi_hat, seed=seed,
                                  sampling=sampling)
    x_true, w_true = run.truth.x_true.states, run.truth.w.values
    for i, (s, k) in enumerate(zip(run.solutions, run.sampling.k_indices)):
        cand = truth_candidate_cost(run, i)
        j = k - s.w_star.n_pieces
        assert cand == pytest.approx(_objective_by_definition(
            model, ref_cert, run.estimate[j], run.y.values[j:k], s.T_ti, w_true[j:k],
            x_true[j:k + 1]), rel=1e-12)
        assert s.cost <= cand * (1.0 + 1e-6) + 1e-12


def test_estimate_is_stitched_from_windows(ref_cert, tmp_path):
    model, cfg, run = reactor_setup(ref_cert, seed=4)
    ks = run.sampling.k_indices
    assert run.estimate.shape[0] == ks[-1] + 1
    assert np.all(np.isfinite(run.estimate))
    path = tmp_path / "estimate.csv"
    run.estimate_csv(str(path))
    flags = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    assert len(flags) == ks[-1] + 1 and flags[0] == "prior"
    # the node at each sample equals the window solution endpoint, and the
    # nodes since the previous sample carry that solve's flag
    prev = 0
    for k, sol in zip(ks, run.solutions):
        assert np.array_equal(run.estimate[int(k)], sol.x_star.states[-1])
        assert set(flags[prev + 1:k + 1]) == {sol.stats.termination}
        prev = k


def _controlled_scalar_model():
    """x' = -x + u + w, y = x with a control input, and a configuration for it."""
    model = SystemModel(1, 1, 1, 1,
                        lambda x, u, w: -x + u + w,
                        lambda x, u, w: x.copy(),
                        jac_f_x=const_jac(-1.0), jac_f_w=const_jac(1.0),
                        jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                        X=None, U=[[-1.0, 1.0]], W=[[-0.1, 0.1]])
    cert = DetectabilityCertificate.from_weights(np.eye(1), np.eye(1), np.eye(1), 0.2)
    return model, MheConfig(cert, 1.0, 0.01, Equidistant(0.1))


def test_control_input_coarser_than_dt():
    # x' = -x + u + w, y = x, with u held for 0.1 at dt = 0.01: windows read
    # u on the run grid, so the run equals one with u repeated onto dt pieces
    model, cfg = _controlled_scalar_model()
    u_coarse = np.sin(np.arange(10.0))[:, None]
    w = PiecewiseSignal(0.01, -0.1 + 0.2 * SplitMix64(5).uniforms((100, 1)))
    runs = [run_mhe(model, cfg, chi_hat=np.array([0.0]), t_sim=1.0, chi=np.array([0.5]),
                    u=u, w=w)
            for u in (PiecewiseSignal(0.1, u_coarse),
                      PiecewiseSignal(0.01, np.repeat(u_coarse, 10, axis=0)))]
    assert runs[0].estimate.tobytes() == runs[1].estimate.tobytes()
    report = audit_run(runs[0])
    assert report.passed and report.prop3_passed and report.sup_passed


def test_full_information_matches_windowed(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, t_sim=2.0, seed=5)
    for sol, k_i in zip(run.solutions, run.sampling.k_indices):
        # cold, from the initial prior: T >= t_i makes this the full-information estimate
        fie = solve_mhe(model, cfg, np.array([0.1, 4.5]), None,
                        PiecewiseSignal(cfg.dt, run.y.values[:k_i]), sol.t_i)
        assert fie.cost == pytest.approx(sol.cost, rel=1e-12, abs=1e-15)


def test_warm_start_agrees_with_cold_start(ref_cert):
    model, cfg, run = reactor_setup(ref_cert, seed=6)
    ks = run.sampling.k_indices
    i = len(ks) - 1
    k_i = int(ks[i])
    s_i = k_i - min(k_i, cfg.n_steps_T)
    prior = run.estimate[s_i]
    y_seg = PiecewiseSignal(cfg.dt, run.y.values[s_i:k_i])
    cold = solve_mhe(model, cfg, prior, None, y_seg, k_i * cfg.dt, warm=None)
    warm = run.solutions[i]
    assert cold.cost == pytest.approx(warm.cost, rel=1e-9, abs=1e-12)
    assert np.abs(cold.chi_star - warm.chi_star).max() < 1e-5
    # a window that starts later cannot warm-start one that starts earlier
    later = dataclasses.replace(warm, t_i=warm.t_i + 0.1)
    with pytest.raises(ConfigurationError, match="warm start must come from an earlier window"):
        solve_mhe(model, cfg, prior, None, y_seg, k_i * cfg.dt, warm=later)


def test_prior_outside_domain_is_projected(ref_cert, caplog):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    truth = integrate(model, np.array([3.0, 1.0]), None, None, 0.5, 0.01)
    from mhect import output_along
    y = output_along(model, truth, None, None)
    sol = solve_mhe(model, cfg, np.array([0.0, 6.0]), None,
                    PiecewiseSignal(0.01, y.values[:10]), 0.1)
    assert "prior outside X, projected" in caplog.messages
    assert np.all(sol.chi_star >= 0.1) and np.all(sol.chi_star <= 5.0)


def _escape_window():
    """x' = x^2 + w, which escapes at t = 1/x0, with a 0.1 window of outputs."""
    model = SystemModel(1, 0, 1, 1,
                        lambda x, u, w: x * x + w,
                        lambda x, u, w: x.copy(),
                        jac_f_x=lambda x, u, w: 2.0 * x[..., None],
                        jac_f_w=const_jac(1.0), jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                        X=None, U=[], W=[[-0.1, 0.1]])
    cert = DetectabilityCertificate.from_weights(np.eye(1), np.eye(1), np.eye(1), 0.5)
    cfg = MheConfig(cert, 0.5, 0.01, Equidistant(0.1))
    return model, cfg, PiecewiseSignal(0.01, np.full((10, 1), 0.1))


def test_window_divergence_from_the_prior():
    # from 20 every candidate blows up inside the 0.1 window, from 0.1 the
    # window solves normally
    model, cfg, y_seg = _escape_window()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            solve_mhe(model, cfg, np.array([20.0]), None, y_seg, 0.1)
    sol = solve_mhe(model, cfg, np.array([0.1]), None, y_seg, 0.1)
    assert np.all(np.isfinite(sol.x_star.states))


def test_divergence_raises_no_overflow_warning():
    # RuntimeWarning is an error in this suite: rollouts that leave float
    # range end in DivergenceError, not in a numpy overflow warning
    model, cfg, y_seg = _escape_window()
    with pytest.raises(DivergenceError):
        solve_mhe(model, cfg, np.array([20.0]), None, y_seg, 0.1)
    with pytest.raises(DivergenceError) as exc:
        integrate(model, np.array([20.0]), None, None, 0.1, 0.01)
    assert 0.05 <= exc.value.t <= 0.1


def test_diverging_warm_start_falls_back_to_the_cold_start(caplog):
    # a warm start whose states sit at 20 escapes inside the window, so the
    # solve drops it and returns exactly what the cold solve returns
    model, cfg, y_seg = _escape_window()
    first = solve_mhe(model, cfg, np.array([0.1]), None, y_seg, 0.1)
    states = np.full_like(first.x_star.states, 20.0)
    warm = dataclasses.replace(first, x_star=Trajectory(cfg.dt, states))
    y20 = PiecewiseSignal(0.01, np.full((20, 1), 0.1))
    cold = solve_mhe(model, cfg, np.array([0.1]), None, y20, 0.2)
    assert "warm start diverged, cold start used" not in caplog.messages
    again = solve_mhe(model, cfg, np.array([0.1]), None, y20, 0.2, warm=warm)
    assert "warm start diverged, cold start used" in caplog.messages
    assert again.x_star.states.tobytes() == cold.x_star.states.tobytes()
    assert again.cost == cold.cost


# ---------------------------------------------------------------------------
# trial rollouts

def _rollout_window(model, N):
    """A window of N pieces of the model with unit weights and zero outputs."""
    n, q, p = model.n, model.q, model.p
    cert = DetectabilityCertificate.from_weights(np.eye(n), np.eye(q), np.eye(p), 0.5)
    cfg = MheConfig(cert, 8.0, 0.01, Equidistant(0.1))
    return _WindowProblem(model, cfg, np.zeros(n), None,
                          PiecewiseSignal(0.01, np.zeros((N, p))), N * 0.01)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["reactor", "polynomial", "escape"]), case=polynomial_points(),
       N=st.one_of(st.integers(1, 400), st.integers(300, 400)),
       seed=st.integers(0, 2 ** 32 - 1), log_eps=st.floats(-10.0, -1.0), flat=st.booleans())
def test_newton_rollout_matches_the_sequential_rollout(kind, case, N, seed, log_eps, flat):
    # the reactor, random polynomial models and x' = x^2 + w started to
    # escape between half the window and just past its end; the guess is the
    # rollout of a perturbed decision or the initial state held at every node
    rng = SplitMix64(seed)
    if kind == "reactor":
        model = batch_reactor()
        z = np.concatenate([rng.uniforms((2,), 0.1, 5.0), rng.uniforms((N * 3,), -0.1, 0.1)])
    elif kind == "polynomial":
        spec, X, _ = case
        model = model_from_dict(spec)
        z = np.concatenate([X[0], rng.uniforms((N * model.q,), -1.0, 1.0)])
    else:
        model = _escape_window()[0]
        z = np.concatenate([rng.uniforms((1,), 0.9, 2.0) / (N * 0.01),
                            rng.uniforms((N,), -0.1, 0.1)])
    prob = _rollout_window(model, N)
    seq = prob.forward(z)
    guess = None if flat else prob.forward(z * (1.0 + 10.0 ** log_eps * rng.uniforms(z.shape)))
    if guess is None:
        guess = np.tile(z[:model.n], (N + 1, 1))
    newton = (prob.rollout(z, guess) or (None,))[0]
    if seq is None:
        assert newton is None
    elif newton is not None and kind != "escape":
        assert newton[0].tobytes() == z[:model.n].tobytes()
        assert np.abs(newton - seq).max() <= 1e-12 * np.abs(seq).max()
    elif newton is not None:
        # near the escape the steps amplify any rounding: bound the gap by
        # the accepted defects, ROLLOUT_TOL |Phi| plus one rounding of the
        # sequential step, carried along the linearized steps
        phi, A, _ = rk4_step_with_jacobians(model, seq[:-1], prob.u, z[1:, None], 0.01)
        bound = np.zeros(N + 1)
        for j in range(N):
            bound[j + 1] = abs(A[j, 0, 0]) * bound[j] + (ROLLOUT_TOL + 1e-16) * abs(phi[j, 0])
        assert np.all(np.abs(newton - seq)[:, 0] <= 2.0 * bound)
    if kind == "reactor" and not flat:
        assert newton is not None


def test_rollout_jacobians_are_those_of_its_states():
    # linearize at a rollout's states with the step Jacobians the rollout
    # returned is bit for bit the linearization that evaluates them afresh
    model = batch_reactor()
    rng = SplitMix64(5)
    N = 60
    prob = _rollout_window(model, N)
    z = np.concatenate([rng.uniforms((2,), 0.5, 4.5), rng.uniforms((N * 3,), -0.1, 0.1)])
    guess = prob.forward(z * (1.0 + 1e-4 * rng.uniforms(z.shape)))
    states, jac = prob.rollout(z, guess)
    r = prob.residuals(z, states)
    for reused, fresh in zip(prob.linearize(z, states, r, jac), prob.linearize(z, states, r)):
        assert reused.tobytes() == fresh.tobytes()


def test_diverging_trial_falls_back_and_is_rejected(monkeypatch):
    # outputs of 1e3 pull chi towards the escape, so trials diverge: each
    # falls back to the sequential rollout and is rejected as it always was
    model, cfg, _ = _escape_window()
    y_seg = PiecewiseSignal(0.01, np.full((10, 1), 1e3))
    prob = _WindowProblem(model, cfg, np.array([1.0]), None, y_seg, 0.1)
    z = np.concatenate([[20.0], np.zeros(10)])
    assert prob.forward(z) is None and prob.rollout(z, np.ones((11, 1))) is None
    assert prob.evaluate(z, np.ones((11, 1))) is None
    assert prob.rollout_fallbacks == 1

    stages = _stage_costs(monkeypatch)
    sol = solve_mhe(model, cfg, np.array([1.0]), None, y_seg, 0.1)
    costs = [c for stage in stages.values() for c in stage]
    stages.clear()
    monkeypatch.setattr(_WindowProblem, "rollout", lambda self, z, guess: None)
    seq = solve_mhe(model, cfg, np.array([1.0]), None, y_seg, 0.1)
    assert 0 < sol.stats.rollout_fallbacks < seq.stats.rollout_fallbacks
    for key in ("trials", "iterations", "termination"):
        assert getattr(sol.stats, key) == getattr(seq.stats, key)
    assert costs == pytest.approx([c for stage in stages.values() for c in stage], rel=1e-14)
    x_seq = seq.x_star.states
    assert np.abs(sol.x_star.states - x_seq).max() <= 1e-12 * np.abs(x_seq).max()


def test_bench_windows_roll_out_sequentially_once_per_step(monkeypatch):
    # the sequential kernel runs only for the cold first window and the new
    # tail of each warm start, so at most once per grid step of the run,
    # and no trial's Newton rollout falls back
    calls = []
    step = mhect.mhe.rk4_step
    monkeypatch.setattr(mhect.mhe, "rk4_step", lambda *args: calls.append(1) or step(*args))
    for seed in (1, 2, 3):
        calls.clear()
        run, _ = bench_run(seed)
        assert len(calls) <= run.sampling.k_indices[-1]
        assert all(s.stats.rollout_fallbacks == 0 for s in run.solutions)


def _record_forward(monkeypatch, check):
    """Wrap _WindowProblem.forward to pass each call's problem, decision,
    prefix and states to check."""
    forward = _WindowProblem.forward

    def recorded(self, z, prefix=None):
        states = forward(self, z, prefix)
        check(self, z, prefix, states)
        return states
    monkeypatch.setattr(_WindowProblem, "forward", recorded)
    return forward


def test_warm_start_prefix_is_the_full_rollout(ref_cert, monkeypatch):
    reused = []

    def check(prob, z, prefix, states):
        if prefix is not None:
            reused.append(len(prefix))
            full = forward(prob, z)
            assert np.abs(states - full).max() <= 1e-12 * np.abs(full).max()
    forward = _record_forward(monkeypatch, check)
    _, _, run = reactor_setup(ref_cert, seed=2)
    assert len(reused) == len(run.solutions) - 1 and min(reused) > 1


def test_warm_start_moved_by_the_projection_rolls_out_in_full(ref_cert, monkeypatch):
    model, cfg, run = reactor_setup(ref_cert, t_sim=2.5, seed=2)
    i = len(run.solutions) - 1
    prev, sol = run.solutions[i - 1], run.solutions[i]
    k_i = int(run.sampling.k_indices[i])
    s_i = k_i - sol.w_star.n_pieces
    shift = s_i - (int(run.sampling.k_indices[i - 1]) - prev.w_star.n_pieces)
    assert shift > 0
    states = prev.x_star.states.copy()
    states[shift, 0] = model.X[0, 1] + 0.5     # the warm chi leaves X
    warm = dataclasses.replace(prev, x_star=Trajectory(cfg.dt, states))
    prefixes = []
    _record_forward(monkeypatch, lambda prob, z, prefix, states: prefixes.append(prefix))
    y_seg = PiecewiseSignal(cfg.dt, run.y.values[s_i:k_i])
    again = solve_mhe(model, cfg, run.estimate[s_i], None, y_seg, sol.t_i, warm=warm)
    assert prefixes[0] is None
    assert again.cost == pytest.approx(sol.cost, rel=1e-9, abs=1e-12)


def _escalation_window():
    """x' = w, y = x with X = [-1, 1]: outputs of 5 pull every state out of X,
    and only a heavier penalty brings the window back inside."""
    model = SystemModel(1, 0, 1, 1, lambda x, u, w: w.copy(), lambda x, u, w: x.copy(),
                        jac_f_x=const_jac(0.0), jac_f_w=const_jac(1.0),
                        jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                        X=[[-1.0, 1.0]], U=[], W=[[-10.0, 10.0]])
    cert = DetectabilityCertificate.from_weights(np.eye(1), np.eye(1), np.eye(1), 0.5)
    cfg = MheConfig(cert, 0.5, 0.01, Equidistant(0.1))
    y_seg = PiecewiseSignal(0.01, np.full((50, 1), 5.0))
    return model, cert, y_seg, solve_mhe(model, cfg, np.array([0.0]), None, y_seg, 0.5)


def test_penalty_escalation_restores_the_state_constraints():
    _, _, _, sol = _escalation_window()
    assert sol.stats.escalations >= 1
    assert sol.stats.feasible
    # the last stage stops at the precision floor instead of stalling
    assert sol.stats.termination == "converged_at_precision"
    assert sol.stats.trials <= 100
    assert np.all(np.abs(sol.x_star.states) <= 1.0 + 1e-9)


def _flags(run, tmp_path):
    """The flag column of the run's estimate.csv."""
    path = tmp_path / "estimate.csv"
    run.estimate_csv(str(path))
    return [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]


def test_window_left_outside_x_is_flagged_penalty_infeasible(tmp_path):
    """x' = 1, y = x with X = [-0.01, 0.01]: over a window of 0.1 no state in
    X explains the outputs, so the last escalation still ends outside X."""
    model = SystemModel(1, 0, 1, 1, lambda x, u, w: np.ones_like(x), lambda x, u, w: x.copy(),
                        jac_f_x=const_jac(0.0), jac_f_w=const_jac(0.0),
                        jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                        X=[[-0.01, 0.01]], U=[], W=[[-1.0, 1.0]])
    cert = DetectabilityCertificate.from_weights(np.eye(1), np.eye(1), np.eye(1), 0.5)
    run = run_mhe(model, MheConfig(cert, 0.5, 0.01, Equidistant(0.1)), chi_hat=[0.0],
                  t_sim=0.1, chi=[0.0])
    (sol,) = run.solutions
    assert not sol.stats.feasible and sol.stats.escalations == 8
    assert sol.stats.termination in ("converged", "converged_at_precision")
    assert _flags(run, tmp_path) == ["prior"] + ["penalty_infeasible"] * 10


def test_a_stage_out_of_iterations_is_flagged_max_iters(ref_cert, monkeypatch, tmp_path):
    monkeypatch.setattr(mhect.mhe, "MAX_ITERS", 1)
    _, _, run = reactor_setup(ref_cert, t_sim=0.3)
    assert [s.stats.iterations for s in run.solutions] == [1, 1, 1]
    assert _flags(run, tmp_path) == ["prior"] + ["max_iters"] * 30


@pytest.mark.parametrize("cause, trials", [("damping", 30), ("clipped", 1), ("singular", 60)])
def test_a_stage_no_trial_improves_is_flagged_stalled(ref_cert, monkeypatch, tmp_path, cause,
                                                      trials):
    """The three ways a stage stalls, on the first reactor window, whose
    prior x1 = 0.1 lies on the lower face of X.  damping: every trial
    diverges and is rejected, so the damping grows fourfold from 1e-3 until
    it passes 1e15; the steps shrink with it, but the precision floor is
    tested only before the first rejection, so the window does not read as
    converged.  clipped: a step that the box clips to nothing ends the
    stage.  singular: a step system singular at every damping uses all 60
    trials."""
    def step(self, lin, free, mu):
        if cause == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        s = np.zeros(free.size)
        s[0] = -1.0
        return s, np.zeros((self.N + 1, self.n))
    if cause != "damping":
        monkeypatch.setattr(_WindowProblem, "lm_step", step)
    monkeypatch.setattr(_WindowProblem, "evaluate", lambda self, z, guess: None)
    stages = _stage_costs(monkeypatch)
    _, _, run = reactor_setup(ref_cert, t_sim=0.1)
    (sol,) = run.solutions
    assert sol.stats.termination == "stalled" and sol.stats.trials == trials
    assert sol.stats.iterations == 0 and [len(c) for c in stages.values()] == [1]
    assert _flags(run, tmp_path) == ["prior"] + ["stalled"] * 10


def _dense_jacobian(prob, z, states):
    """Residual Jacobian of a window, assembled densely from the forward RK4
    sensitivities G_j = dx_j/dz; the reference for the stage-wise solver."""
    n, q, N, p = prob.n, prob.q, prob.N, prob.p
    nv = n + N * q
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


def _sequential_gradient(prob, lin):
    """J'r by the backward adjoint sweep, one stage at a time; the reference
    for the solver's suffix scan."""
    G, S = lin
    n, q, N = prob.n, prob.q, prob.N
    lam = np.empty((N + 1, n))
    lam[N] = G[N, q:-1, -1]
    for j in range(N - 1, -1, -1):
        lam[j] = G[j, q:-1, -1] + S[j, :n, q:-1].T @ lam[j + 1]
    gw = G[:N, :q, -1] + np.einsum("jik,ji->jk", S[:, :n, :q], lam[1:])
    return np.concatenate([lam[0], gw.ravel()])


def _sequential_step(prob, lin, free, mu):
    """The masked damped step and its state changes dx by a backward Riccati
    sweep and a forward rollout, one stage at a time; the reference for the
    solver's scans."""
    G, S = lin
    n, q, N = prob.n, prob.q, prob.N
    fw = free[n:].reshape(N, q)
    H = G[:N].copy()
    H[:, :q, :q] += mu * np.eye(q)
    H[:, :q] *= fw[:, :, None]
    H[:, :, :q] *= fw[:, None, :]
    j, i = np.nonzero(~fw)
    H[j, i, i] = 1.0
    S = S.copy()
    S[:, :n, :q] *= fw[:, None, :]
    V = G[N, q:, q:].copy()     # bordered cost-to-go over (dx_{j+1}, 1)
    K = [None] * N              # dw_j = -K_j [dx_j; 1]
    for j in range(N - 1, -1, -1):
        Qj = S[j].T @ V @ S[j] + H[j]
        K[j] = np.linalg.solve(Qj[:q, :q], Qj[:q, q:])
        V = Qj[q:, q:] - Qj[q:, :q] @ K[j]
    fx = free[:n]
    M = (V[:n, :n] + mu * np.eye(n)) * np.outer(fx, fx)
    M[~fx, ~fx] = 1.0
    step = np.empty(n + N * q)
    dx = np.empty((N + 1, n))
    v = np.empty(q + n + 1)
    v[q:-1] = step[:n] = np.linalg.solve(M, -V[:n, n] * fx)
    v[-1] = 1.0
    for j in range(N):
        dx[j] = v[q:-1]
        v[:q] = -K[j] @ v[q:]
        step[n + j * q:n + (j + 1) * q] = v[:q]
        v[q:] = S[j] @ v
    dx[N] = v[q:-1]
    return step, dx


def test_window_jacobian_matches_finite_differences(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    rng = SplitMix64(13)
    N = 5
    y_seg = PiecewiseSignal(0.01, 3.9 + 0.1 * rng.uniforms((N, 1)))
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
    y_seg = PiecewiseSignal(0.01, 3.9 + 0.2 * rng.uniforms((N, 1)))
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
    nv = n + prob.N * q
    r = prob.residuals(z, states)
    J = _dense_jacobian(prob, z, states)
    lin = prob.linearize(z, states, r)
    Jtr = J.T @ r
    g = prob.gradient(lin)
    assert np.linalg.norm(g - Jtr) <= 1e-10 * np.linalg.norm(Jtr)

    rng = SplitMix64(7 * N)
    some = rng.uniforms((nv,)) < 0.8
    some[n + (N // 2) * q:n + (N // 2 + 1) * q] = False   # one stage with w all pinned
    no_chi = some.copy()
    no_chi[:n] = False
    JTJ = J.T @ J
    for free in (np.ones(nv, bool), some, no_chi):
        nf = int(free.sum())
        for mu in (1e-3, 1.0, 1e4):
            dense = np.zeros(nv)
            dense[free] = np.linalg.solve(JTJ[np.ix_(free, free)] + mu * np.eye(nf), -Jtr[free])
            step, _ = prob.lm_step(lin, free, mu)
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
    y_seg = PiecewiseSignal(0.01, 0.2 + 9.8 * rng.uniforms((N, 1)))
    prob = _WindowProblem(model, cfg, rng.uniforms((2,), 0.1, 5.0), None, y_seg, N * 0.01)
    z = np.concatenate([rng.uniforms((2,), 0.1, 5.0), rng.uniforms((N * 3,), -0.1, 0.1)])
    states = prob.forward(z)
    if penalized:
        prob.x_hi = states[N] - 1e-3 * np.abs(states[N])
    nv = prob.n + prob.N * prob.q
    free = np.array(data.draw(st.lists(st.booleans(), min_size=nv, max_size=nv)))
    assume(free.any())
    mu = 10.0 ** log_mu
    r = prob.residuals(z, states)
    J = _dense_jacobian(prob, z, states)
    lin = prob.linearize(z, states, r)
    Jtr = J.T @ r
    assert np.linalg.norm(prob.gradient(lin) - Jtr) <= 1e-10 * np.linalg.norm(Jtr)
    dense = np.zeros(nv)
    dense[free] = np.linalg.solve((J.T @ J)[np.ix_(free, free)] + mu * np.eye(free.sum()),
                                  -Jtr[free])
    step, _ = prob.lm_step(lin, free, mu)
    assert np.all(step[~free] == 0.0)
    assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)
    # the precision stop reads the model decrease |r|^2 - |r + J d|^2 off
    # the damped equations
    g, Jd = 2.0 * prob.gradient(lin), J @ step
    assert mu * step @ step - 0.5 * g @ step == pytest.approx(-(2.0 * r + Jd) @ Jd, rel=1e-10)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(N=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1), log_mu=st.floats(-14.0, 4.0),
       penalized=st.booleans(), pinned=st.floats(0.0, 0.9), pin_chi=st.booleans(),
       data=st.data())
def test_stage_scans_match_the_sequential_sweeps(ref_cert, N, seed, log_mu, penalized, pinned,
                                                 pin_chi, data):
    # long windows, random masks with one stage of w all pinned, chi pinned or
    # not, penalty rows at node N and damping down to 1e-14: the scans agree
    # with the stage-by-stage sweeps
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 8.0, 0.01, Equidistant(0.1))
    rng = SplitMix64(seed)
    y_seg = PiecewiseSignal(0.01, 3.9 + 0.2 * rng.uniforms((N, 1)))
    prob = _WindowProblem(model, cfg, rng.uniforms((2,), 0.1, 5.0), None, y_seg, N * 0.01)
    z = np.concatenate([rng.uniforms((2,), 0.1, 5.0), rng.uniforms((N * 3,), -0.1, 0.1)])
    states = prob.forward(z)
    if penalized:
        prob.x_hi = states[N] - 1e-3 * np.abs(states[N])
    free = rng.uniforms((prob.n + prob.N * prob.q,)) >= pinned
    stage = data.draw(st.integers(0, N - 1))
    free[2 + 3 * stage:2 + 3 * (stage + 1)] = False
    if pin_chi:
        free[:2] = False
    assume(free.any())
    mu = 10.0 ** log_mu
    r = prob.residuals(z, states)
    lin = prob.linearize(z, states, r)
    g = _sequential_gradient(prob, lin)
    assert np.linalg.norm(prob.gradient(lin) - g) <= 1e-10 * np.linalg.norm(g)
    seq, seq_dx = _sequential_step(prob, lin, free, mu)
    step, dx = prob.lm_step(lin, free, mu)
    assert np.all(step[~free] == 0.0)
    assert np.linalg.norm(step - seq) <= 1e-10 * np.linalg.norm(seq)
    assert np.linalg.norm(dx - seq_dx) <= 1e-10 * np.linalg.norm(seq_dx)


def test_window_step_solves_in_logarithmic_levels(ref_cert, monkeypatch):
    # the scans factor in batches, a constant number per level; a loop over
    # the stages would factor N = 200 times
    N = 200
    prob, z, states = _window_with_violations(ref_cert, N)
    lin = prob.linearize(z, states, prob.residuals(z, states))
    calls = []
    for name in ("solve", "inv"):
        def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    prob.gradient(lin)
    prob.lm_step(lin, np.ones(prob.n + prob.N * prob.q, bool), 1.0)
    assert 0 < len(calls) <= 4 * math.ceil(math.log2(N + 1)) + 4


def test_window_step_memory_is_linear_in_the_window(ref_cert):
    # at N = 800 (nv = 2402) a dense sensitivity tensor or J'J alone would
    # take tens of MB; the stage-wise arrays stay well below 4 MB
    prob, z, states = _window_with_violations(ref_cert, 800)
    r = prob.residuals(z, states)
    free = np.ones(prob.n + prob.N * prob.q, bool)
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
    y_seg = PiecewiseSignal(0.01, np.ones((3, 1)))
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
    with pytest.raises(ConfigurationError, match="recorded y must cover"):
        run_mhe(model, cfg, chi_hat=np.array([0.1, 4.5]), t_sim=1.0,
                y=PiecewiseSignal(0.01, run.y.values[:50]))


@pytest.mark.parametrize("sampling", [Equidistant(0.1), EventTriggered(1e-3, 0.05, 0.19)],
                         ids=["equidistant", "event"])
@pytest.mark.parametrize("y_dt", [0.02, 0.005])
def test_recorded_measurements_on_another_grid_are_refused(ref_cert, monkeypatch, y_dt,
                                                           sampling):
    # a y that covers [0, t_sim) on a coarser or finer grid than cfg.dt is
    # refused before the schedule or any window reads it
    def unreachable(*args, **kwargs):
        raise AssertionError("the sampler read y")
    monkeypatch.setattr(mhect.mhe, "make_sampler", unreachable)
    cfg = MheConfig(ref_cert, 2.0, 0.01, sampling)
    y = PiecewiseSignal(y_dt, np.full((round(1.0 / y_dt), 1), 4.0))
    with pytest.raises(ConfigurationError, match=f"recorded y has dt = {y_dt}, not the run's "
                                                 f"dt = 0.01"):
        run_mhe(batch_reactor(), cfg, chi_hat=np.array([0.1, 4.5]), t_sim=1.0, y=y)


@pytest.mark.parametrize("sampling", [Equidistant(0.1), EventTriggered(1e-3, 0.05, 0.19)],
                         ids=["equidistant", "event"])
def test_recorded_measurements_of_another_width_are_refused(ref_cert, monkeypatch, sampling):
    # the reactor has p = 1: a y of two columns is refused by its width
    # before the sampler (an event schedule would broadcast it) reads it
    def unreachable(*args, **kwargs):
        raise AssertionError("the sampler read y")
    monkeypatch.setattr(mhect.mhe, "make_sampler", unreachable)
    cfg = MheConfig(ref_cert, 2.0, 0.01, sampling)
    y = PiecewiseSignal(0.01, np.full((100, 2), 4.0))
    with pytest.raises(ConfigurationError, match="recorded y has 2 columns, not the model's p = 1"):
        run_mhe(batch_reactor(), cfg, chi_hat=np.array([0.1, 4.5]), t_sim=1.0, y=y)
