import math

import numpy as np
import pytest

from mhect import (DetectabilityCertificate, Domain, FixedQR, GridSpec, SystemModel,
                   batch_reactor, contraction_rate, geneig_max, integrate, lmi_matrix,
                   load_certificate, min_horizon, save_certificate, scale_certificate,
                   synthesize_certificate, verify_certificate)
from mhect.certify import (_min_horizon_formula, _sym_basis, _synthesis_problem,
                           _vec_from_sym, grid_points)
from mhect.errors import ConfigurationError, HorizonError, InfeasibleError
from mhect.rng import SplitMix64
from tests.conftest import Q_BENCH, R_BENCH, VERTS, const_jac

GOLDEN = (-3.0 + math.sqrt(5.0)) / 2.0  # max eig of [[-2, 1], [1, -1]]


def scalar_model():
    # x' = -x + w, y = x: A = -1, B = 1, C = 1, D = 0
    return SystemModel(1, 0, 1, 1,
                       lambda x, u, w: -x + w,
                       lambda x, u, w: x.copy(),
                       jac_f_x=const_jac(-1.0), jac_f_w=const_jac(1.0),
                       jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                       X=[[-1.0, 1.0]], U=[], W=[[-1.0, 1.0]], output_affine=True)


# ---------------------------------------------------------------------------
# the pointwise inequality

def test_inequality_block_scalar_example():
    m = scalar_model()
    x, u, w = np.zeros(1), np.zeros(0), np.zeros(1)
    M = lmi_matrix(m, np.eye(1), np.eye(1), np.eye(1), 1.0, x, u, w)
    assert np.allclose(M, [[-2.0, 1.0], [1.0, -1.0]])
    assert np.linalg.eigvalsh(M)[-1] == pytest.approx(GOLDEN, abs=1e-14)

    # a faster required decay flips the sign: kappa = 3 makes the block indefinite
    M3 = lmi_matrix(m, np.eye(1), np.eye(1), np.eye(1), 3.0, x, u, w)
    assert np.allclose(M3, [[0.0, 1.0], [1.0, -1.0]])
    assert np.linalg.eigvalsh(M3)[-1] == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)


def test_inequality_monotone_in_decay_rate():
    m = scalar_model()
    x, u, w = np.zeros(1), np.zeros(0), np.zeros(1)
    eigs = [np.linalg.eigvalsh(lmi_matrix(m, np.eye(1), np.eye(1), np.eye(1),
                                          kappa, x, u, w))[-1]
            for kappa in (0.5, 1.0, 2.0, 3.0)]
    assert all(a < b for a, b in zip(eigs, eigs[1:]))


def test_inequality_is_affine_in_the_weights(reactor):
    # synthesis builds its blocks from lmi_matrix at unit weights, which is
    # exact because the block is linear in each of P, Q and R
    rng = SplitMix64(21)
    kappa = -math.log(0.4)

    def rand_sym(d):
        A = rng.uniforms((d, d), -2.0, 2.0)
        return A + A.T

    for _ in range(10):
        x = rng.uniforms((2,), 0.1, 5.0)
        u = np.zeros(0)
        w = rng.uniforms((3,), -0.1, 0.1)
        W = {"P": rand_sym(2), "Q": rand_sym(3), "R": rand_sym(1)}
        full = lmi_matrix(reactor, W["P"], W["Q"], W["R"], kappa, x, u, w)
        scale = np.abs(full).max()
        for name in ("P", "Q", "R"):
            d = W[name].shape[0]
            pairs, mats = _sym_basis(d)
            z = _vec_from_sym(W[name], pairs)
            rest = dict(W, **{name: np.zeros((d, d))})
            total = lmi_matrix(reactor, rest["P"], rest["Q"], rest["R"], kappa, x, u, w)
            for zk, E in zip(z, mats):
                unit = {k: np.zeros_like(v) for k, v in W.items()}
                unit[name] = E
                total = total + zk * lmi_matrix(reactor, unit["P"], unit["Q"], unit["R"],
                                                kappa, x, u, w)
            assert np.abs(total - full).max() <= 1e-12 * scale


def test_verify_scalar_certificate():
    m = scalar_model()
    cert = DetectabilityCertificate.from_weights(
        np.eye(1), np.eye(1), np.eye(1), math.exp(-1.0), Domain.of_model(m))
    rep = verify_certificate(m, cert, VERTS)
    assert rep.passed and rep.mode == "vertices" and rep.n_points == 4
    assert rep.max_eig == pytest.approx(GOLDEN, abs=1e-12)

    tight = DetectabilityCertificate.from_weights(
        np.eye(1), np.eye(1), np.eye(1), math.exp(-3.0), Domain.of_model(m))
    rep3 = verify_certificate(m, tight, VERTS)
    assert not rep3.passed
    assert rep3.max_eig == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_verify_reference_weights(reactor, ref_cert):
    """The published 4-significant-digit weights sit a hair on the wrong side
    of the inequality: the worst vertex eigenvalue is ~6.1e-5, positive."""
    rep = verify_certificate(reactor, ref_cert, VERTS)
    assert rep.n_points == 32
    assert rep.max_eig == pytest.approx(6.0880638968054e-05, abs=1e-10)
    assert not rep.passed                     # default tolerance 1e-8
    assert verify_certificate(reactor, ref_cert, VERTS, tol_psd=1e-4).passed
    assert rep.worst_x[0] == pytest.approx(0.1)


def test_verify_requires_matching_domain(reactor, ref_cert):
    import dataclasses
    big = dataclasses.replace(ref_cert, domain=Domain([[0.1, 6.0]] * 2, [], [[-0.1, 0.1]] * 3))
    with pytest.raises(ConfigurationError):
        verify_certificate(reactor, big, VERTS)


def test_grid_points_modes(reactor):
    dom = Domain.of_model(reactor)
    pts, mode = grid_points(dom, GridSpec(x_points=3, w_points=3))
    assert mode == "grid" and [v.shape for v in pts] == [(9 * 27, 2), (9 * 27, 0), (9 * 27, 3)]
    pts, mode = grid_points(dom, VERTS)
    assert mode == "vertices" and [v.shape for v in pts] == [(32, 2), (32, 0), (32, 3)]
    # vertex mode is the two-point grid: every corner once, an empty U as one point
    assert sorted(map(tuple, pts[0][::8])) == [(0.1, 0.1), (0.1, 5.0), (5.0, 0.1), (5.0, 5.0)]
    assert len(np.unique(pts[2], axis=0)) == 8 and np.all(np.abs(pts[2]) == 0.1)
    with pytest.raises(ConfigurationError):
        grid_points(dom, GridSpec(vertices_only=True))
    with pytest.raises(ConfigurationError):
        grid_points(Domain([[0.0, None]], [], [[-1.0, 1.0]]), VERTS)


def test_generalized_eigenvalue_examples():
    assert geneig_max(np.diag([2.0, 1.0]), np.eye(2)) == pytest.approx(2.0)
    assert geneig_max(np.diag([2.0, 1.0]), np.diag([4.0, 1.0])) == pytest.approx(1.0)
    A = np.array([[1.0, 0.3], [0.3, 2.0]])
    B = np.array([[2.0, 0.1], [0.1, 1.0]])
    lam = geneig_max(A, B)
    # residual check: det(A - lam B) = 0 and A - lam B <= 0
    assert abs(np.linalg.det(A - lam * B)) < 1e-12
    assert np.linalg.eigvalsh(A - lam * B)[-1] < 1e-12
    with pytest.raises(ConfigurationError):
        geneig_max(np.eye(2), -np.eye(2))
    with pytest.raises(ConfigurationError):
        geneig_max(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


# ---------------------------------------------------------------------------
# certificate construction and serialization

def test_certificate_invariants(reactor):
    dom = Domain.of_model(reactor)
    P = np.eye(2)
    with pytest.raises(ConfigurationError):
        DetectabilityCertificate(2 * P, P, np.eye(3), np.eye(1), 0.4,
                                 -math.log(0.4), dom)      # P1 > P2
    with pytest.raises(ConfigurationError):
        DetectabilityCertificate.from_weights(P, np.eye(3), np.eye(1), 1.2, dom)
    with pytest.raises(ConfigurationError):
        DetectabilityCertificate(P, P, np.eye(3), np.eye(1), 0.4, 0.5, dom)
    with pytest.raises(ConfigurationError):
        DetectabilityCertificate.from_weights(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                              np.eye(3), np.eye(1), 0.4, dom)
    c = DetectabilityCertificate.from_weights(P, np.eye(3), np.eye(1), 0.4, dom)
    assert c.kappa == pytest.approx(-math.log(0.4), abs=1e-15)
    assert np.array_equal(c.P1, c.P2)


def test_certificate_json_round_trip(tmp_path, reactor, synth_cert):
    path = tmp_path / "cert.json"
    save_certificate(synth_cert, str(path))
    back = load_certificate(str(path))
    assert np.array_equal(back.P1, synth_cert.P1)
    assert np.array_equal(back.P2, synth_cert.P2)
    assert np.array_equal(back.Q, synth_cert.Q)
    assert np.array_equal(back.R, synth_cert.R)
    assert back.lam == synth_cert.lam and back.kappa == synth_cert.kappa
    assert np.array_equal(back.domain.X, synth_cert.domain.X)
    assert back.verification is not None
    assert back.verification.max_eig == synth_cert.verification.max_eig
    # the reloaded certificate still verifies
    assert verify_certificate(reactor, back, VERTS, tol_psd=1e-8).passed


def test_domain_serialization_with_unbounded_axes():
    dom = Domain([[0.0, None]], [], [[-1.0, 1.0]])
    back = Domain.from_dict(dom.to_dict())
    assert back.X[0, 0] == 0.0 and back.X[0, 1] == np.inf
    assert back.U.shape == (0, 2)
    assert np.array_equal(back.W, [[-1.0, 1.0]])


# ---------------------------------------------------------------------------
# synthesis

def test_synthesis_fixed_weights(reactor, synth_cert):
    rep = synth_cert.verification
    assert rep is not None and rep.passed
    assert rep.max_eig < -1e-6            # strictly feasible, not boundary-grazing
    assert np.array_equal(synth_cert.Q, Q_BENCH)
    assert np.array_equal(synth_cert.R, R_BENCH)
    assert np.array_equal(synth_cert.P1, synth_cert.P2)
    assert np.linalg.eigvalsh(synth_cert.P1)[0] > 0.0
    # independent re-check, not just the attached report
    rep2 = verify_certificate(reactor, synth_cert, VERTS, tol_psd=1e-8)
    assert rep2.passed and rep2.max_eig == pytest.approx(rep.max_eig, abs=1e-12)


def test_synthesis_fixed_weights_match_reference_digits(synth_cert):
    # the Newton steps' last bits depend on the order the barrier sums its
    # blocks in, so the pinned digits of P hold to 1e-7, not bit for bit
    P_ref = np.array([[3.7681536673338054, 3.533302950570048],
                      [3.533302950570048, 3.315451805974797]])
    assert np.abs(synth_cert.P1 - P_ref).max() <= 1e-7 * max(1.0, np.abs(P_ref).max())


@pytest.mark.parametrize("mode", ["fixed", "joint"])
@pytest.mark.parametrize("mu", [1.0, 0.01])
def test_barrier_newton_system_matches_finite_differences(reactor, mode, mu):
    points, _ = grid_points(Domain.of_model(reactor), VERTS)
    Q, R = (Q_BENCH, R_BENCH) if mode == "fixed" else (None, None)
    sdp, y0, _ = _synthesis_problem(reactor, -math.log(0.4), Q, R, points)
    # a generic interior point: the identity start with its weights perturbed
    y = y0 + np.append(SplitMix64(5).uniforms((len(y0) - 1,), -0.05, 0.05), 0.0)
    f = lambda v: sdp._fval(v, mu)
    assert math.isfinite(f(y))
    E = np.eye(len(y))

    def first(h):
        return np.array([(f(y + h * a) - f(y - h * a)) / (2 * h) for a in E])

    def second(h):
        return np.array([[(f(y + h * (a + b)) - f(y + h * (a - b)) - f(y - h * (a - b))
                           + f(y - h * (a + b))) / (4 * h * h) for b in E] for a in E])

    # one Richardson step cancels the h^2 term of both central differences
    h = 4e-3
    grad_fd = (4 * first(h / 2) - first(h)) / 3
    hess_fd = (4 * second(h / 2) - second(h)) / 3
    grad, hess = sdp._newton_system(y, mu)
    assert np.abs(grad - grad_fd).max() <= 1e-6 * np.abs(grad_fd).max()
    assert np.abs(hess - hess_fd).max() <= 1e-6 * np.abs(hess_fd).max()


def test_synthesis_joint_weights(reactor):
    cert = synthesize_certificate(reactor, 0.4, "joint", VERTS)
    assert cert.verification.passed
    assert np.linalg.eigvalsh(cert.Q)[0] > 0.0
    assert np.linalg.eigvalsh(cert.R)[0] > 0.0
    assert verify_certificate(reactor, cert, VERTS).passed


def test_synthesis_constrains_each_distinct_block_once(reactor):
    # the reactor's inequality depends on x1 only: 675 points hold 5 distinct
    # blocks, and repeating a block must not make a feasible problem fail
    grid = GridSpec(x_points=5, w_points=3)
    points, _ = grid_points(Domain.of_model(reactor), grid)
    sdp, _, _ = _synthesis_problem(reactor, -math.log(0.4), None, None, points)
    assert len(points[0]) == 675 and len(sdp.groups[0][0]) == 5
    cert = synthesize_certificate(reactor, 0.4, "joint", grid)
    assert cert.verification.n_points == 675
    assert verify_certificate(reactor, cert, grid).passed


def test_synthesis_scalar_model():
    m = scalar_model()
    cert = synthesize_certificate(m, math.exp(-1.0), FixedQR(np.eye(1), np.eye(1)), VERTS)
    assert cert.verification.passed


def test_synthesis_infeasible_model():
    # x' = x (unstable), y = w: the output carries no state information, so
    # the top-left block (2 + kappa) P stays positive for every P > 0
    m = SystemModel(1, 0, 1, 1,
                    lambda x, u, w: x.copy(),
                    lambda x, u, w: w.copy(),
                    jac_f_x=const_jac(1.0), jac_f_w=const_jac(0.0),
                    jac_h_x=const_jac(0.0), jac_h_w=const_jac(1.0),
                    X=[[-1.0, 1.0]], U=[], W=[[-1.0, 1.0]], output_affine=True)
    with pytest.raises(InfeasibleError) as exc:
        synthesize_certificate(m, 0.5, FixedQR(np.eye(1), np.eye(1)), VERTS)
    assert exc.value.worst_eig > 0.0
    assert len(exc.value.worst_point) == 3


def test_synthesis_singular_slack_is_infeasible(reactor, monkeypatch):
    # a slack that inv finds singular stalls its barrier stage like a failed
    # line search: mu shrinks to MU_MIN and synthesis reports infeasibility
    def singular(S):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(InfeasibleError):
        synthesize_certificate(reactor, 0.4, FixedQR(Q_BENCH, R_BENCH), VERTS)


def test_synthesis_rejects_bad_arguments(reactor):
    with pytest.raises(ConfigurationError):
        synthesize_certificate(reactor, 1.5, FixedQR(Q_BENCH, R_BENCH), VERTS)
    with pytest.raises(ConfigurationError):
        synthesize_certificate(reactor, 0.4, FixedQR(np.eye(2), R_BENCH), VERTS)
    with pytest.raises(ConfigurationError):
        synthesize_certificate(reactor, 0.4, "unknown", VERTS)


def test_scale_certificate(synth_cert):
    P2t = 2.0 * synth_cert.P2
    Qt = 0.5 * synth_cert.Q
    Rt = 3.0 * synth_cert.R
    scaled = scale_certificate(synth_cert, P2t, Qt, Rt)
    assert np.array_equal(scaled.P2, P2t)
    assert np.array_equal(scaled.Q, Qt)
    assert np.array_equal(scaled.R, Rt)
    assert scaled.lam == synth_cert.lam
    assert scaled.verification is None
    # K = 1/max(ratios): here Q shrinks by 2 so K = 1/2, and P1 = K * P1_old
    assert np.allclose(scaled.P1, 0.5 * synth_cert.P1, rtol=1e-10)
    # the scaled pair still satisfies the sandwich ordering
    assert np.linalg.eigvalsh(scaled.P2 - scaled.P1)[0] > -1e-12
    for ratio in (geneig_max(synth_cert.P2, P2t), geneig_max(synth_cert.Q, Qt),
                  geneig_max(synth_cert.R, Rt)):
        assert ratio * 0.5 <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# horizon design

def test_min_horizon_values(ref_cert):
    assert min_horizon(ref_cert, 0.19) == pytest.approx(1.70294159473206, abs=1e-11)
    assert min_horizon(ref_cert, 0.0) == pytest.approx(-math.log(4.0) / math.log(0.4), abs=1e-12)
    # a P2 four times smaller than P1 cancels the factor 4 entirely
    assert _min_horizon_formula(0.25, 0.5, 0.3) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ConfigurationError):
        _min_horizon_formula(0.0, 0.5, 0.1)
    with pytest.raises(ConfigurationError):
        _min_horizon_formula(1.0, 0.5, -0.1)


def test_contraction_rate_values(ref_cert):
    rho = contraction_rate(ref_cert, 2.0, 0.19)
    assert rho == pytest.approx(0.8603790379180039, abs=1e-12)
    assert abs(rho - 0.86) < 0.005
    # defining identity: rho^(T - delta_bar) = 4 * lmax * lambda^(T - delta_bar)
    lmax = geneig_max(ref_cert.P2, ref_cert.P1)
    assert rho ** (2.0 - 0.19) == pytest.approx(4.0 * lmax * 0.4 ** (2.0 - 0.19), rel=1e-12)
    # longer horizons decay closer to the certificate rate itself
    assert contraction_rate(ref_cert, 10.0, 0.19) < rho
    assert contraction_rate(ref_cert, 10.0, 0.19) > ref_cert.lam
    assert rho < 1.0


def test_contraction_rate_horizon_gate(ref_cert):
    bound = min_horizon(ref_cert, 0.19)
    with pytest.raises(HorizonError):
        contraction_rate(ref_cert, bound, 0.19)        # equality is not enough
    with pytest.raises(HorizonError):
        contraction_rate(ref_cert, bound - 0.1, 0.19)
    assert 0.0 < contraction_rate(ref_cert, bound + 1e-6, 0.19) < 1.0


# ---------------------------------------------------------------------------
# the certified decrease property along trajectory pairs

def test_certified_decrease_along_trajectory_pairs(reactor, synth_cert):
    """Along any two admissible trajectories the certified quadratic V obeys
    d/dt V <= -kappa V + |w1-w2|_Q^2 + |y1-y2|_R^2 pointwise in X."""
    P, Q, R, kappa = synth_cert.P1, synth_cert.Q, synth_cert.R, synth_cert.kappa
    rng = SplitMix64(2024)
    dt, steps = 0.01, 25
    checked = 0
    for _ in range(50):
        chi1 = 0.1 + 4.9 * rng.uniforms((2,))
        chi2 = 0.1 + 4.9 * rng.uniforms((2,))
        w1 = -0.1 + 0.2 * rng.uniforms((steps, 3))
        w2 = -0.1 + 0.2 * rng.uniforms((steps, 3))
        from mhect import PiecewiseSignal
        t1 = integrate(reactor, chi1, None, PiecewiseSignal(0.0, dt, w1), 0.0, steps * dt, dt)
        t2 = integrate(reactor, chi2, None, PiecewiseSignal(0.0, dt, w2), 0.0, steps * dt, dt)
        for k in range(steps):
            x1, x2 = t1.states[k], t2.states[k]
            if not (np.all(x1 >= 0.1) and np.all(x1 <= 5.0)
                    and np.all(x2 >= 0.1) and np.all(x2 <= 5.0)):
                continue
            dx = x1 - x2
            dw = w1[k] - w2[k]
            dy = reactor.h(x1, None, w1[k]) - reactor.h(x2, None, w2[k])
            dv = 2.0 * dx @ P @ (reactor.f(x1, None, w1[k]) - reactor.f(x2, None, w2[k]))
            rhs = -kappa * (dx @ P @ dx) + dw @ Q @ dw + dy @ R @ dy
            assert dv <= rhs + 1e-6 * max(1.0, abs(rhs))
            checked += 1
    assert checked > 1000
