import math

import numpy as np
import pytest

from mhect import (Equidistant, MheConfig, PiecewiseSignal, audit_run, batch_reactor,
                   contraction_rate, geneig_max, prop3_bound, run_mhe,
                   sup_bound_constants, theorem1_bound)
from mhect.errors import ConfigurationError, HorizonError
from mhect.rng import SplitMix64


@pytest.fixture(scope="module")
def noisy_run(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    rng = SplitMix64(77)
    w = PiecewiseSignal(0.01, -0.1 + 0.2 * rng.uniforms((200, 3)))
    return run_mhe(model, cfg, chi_hat=np.array([0.1, 4.5]), t_sim=2.0,
                   chi=np.array([3.0, 1.0]), w=w)


@pytest.fixture(scope="module")
def clean_run(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    return run_mhe(model, cfg, chi_hat=np.array([3.0, 1.0]), t_sim=1.0,
                   chi=np.array([3.0, 1.0]))


# ---------------------------------------------------------------------------
# closed-form bound values

def test_theorem1_bound_no_noise(ref_cert):
    chi = np.array([3.0, 1.0])
    chi_hat = np.array([0.1, 4.5])
    w = PiecewiseSignal(0.01, np.zeros((100, 3)))
    d0 = chi - chi_hat
    for rho in (0.86, 0.5):
        got = theorem1_bound(ref_cert, rho, chi, chi_hat, w, 1.0, factor=8)
        assert got == pytest.approx(4.0 * rho * float(d0 @ ref_cert.P1 @ d0), rel=1e-13)


def test_theorem1_bound_constant_noise(ref_cert):
    # constant w makes the discounted energy integral elementary
    chi = np.array([3.0, 1.0])
    wbar = np.array([0.05, -0.02, 0.07])
    w = PiecewiseSignal(0.01, np.tile(wbar, (150, 1)))
    rho, t_i = 0.86, 1.5
    energy = float(wbar @ ref_cert.Q @ wbar) * (1.0 - rho ** t_i) / (-math.log(rho))
    for factor in (4, 8):
        got = theorem1_bound(ref_cert, rho, chi, chi, w, t_i, factor=factor)
        assert got == pytest.approx(factor * energy, rel=1e-11)


def test_theorem1_bound_validation(ref_cert):
    chi = np.array([3.0, 1.0])
    w = PiecewiseSignal(0.01, np.zeros((100, 3)))
    with pytest.raises(ConfigurationError):
        theorem1_bound(ref_cert, 0.86, chi, chi, w, 1.0, factor=6)
    with pytest.raises(ConfigurationError):
        theorem1_bound(ref_cert, 1.2, chi, chi, w, 1.0)
    with pytest.raises(ConfigurationError):
        theorem1_bound(ref_cert, 0.86, chi, chi, w, 1.5)   # w too short


def test_prop3_bound_values(ref_cert):
    # single-P certificate: lmax = 1, so the prior term is 4*lam^T * U
    w0 = PiecewiseSignal(0.01, np.zeros((200, 3)))
    got = prop3_bound(ref_cert, 2.0, 2.0, 2.0, 1.0, w0)
    assert got == pytest.approx(4.0 * 0.4 ** 2, rel=1e-13)   # 0.64

    # evaluating earlier inside the window inflates by lam^(t - t_i)
    early = prop3_bound(ref_cert, 1.0, 2.0, 2.0, 1.0, w0)
    assert early == pytest.approx(0.64 / 0.4, rel=1e-13)

    wbar = np.array([0.1, 0.0, -0.1])
    w = PiecewiseSignal(0.01, np.tile(wbar, (200, 1)))
    energy = float(wbar @ ref_cert.Q @ wbar) * (1.0 - 0.4 ** 2) / (-math.log(0.4))
    got = prop3_bound(ref_cert, 2.0, 2.0, 2.0, 0.0, w)
    assert got == pytest.approx(4.0 * energy, rel=1e-11)

    with pytest.raises(ConfigurationError, match="only valid for t <= t_i"):
        prop3_bound(ref_cert, 2.1, 2.0, 2.0, 1.0, w0)
    with pytest.raises(ConfigurationError):
        prop3_bound(ref_cert, 1.0, 1.0, 3.0, 1.0, w0)


def test_sup_bound_constants(ref_cert):
    rho = contraction_rate(ref_cert, 2.0, 0.19)
    c = sup_bound_constants(ref_cert, rho)
    p1 = np.linalg.eigvalsh(ref_cert.P1)
    q = np.linalg.eigvalsh(ref_cert.Q)
    assert c.C == pytest.approx(math.sqrt(8.0 * p1[-1] / p1[0]), rel=1e-13)
    assert c.rho_s == pytest.approx(math.sqrt(rho), rel=1e-13)
    assert abs(c.rho_s - 0.9276) < 1e-4
    assert c.gamma_coeff == pytest.approx(
        math.sqrt(16.0 * q[-1] / (-p1[0] * math.log(rho))), rel=1e-13)

    four = sup_bound_constants(ref_cert, rho, factor=4)
    assert four.C == c.C
    assert four.gamma_coeff == pytest.approx(c.gamma_coeff / math.sqrt(2.0), rel=1e-13)
    with pytest.raises(ConfigurationError):
        sup_bound_constants(ref_cert, rho, factor=2)
    with pytest.raises(ConfigurationError):
        sup_bound_constants(ref_cert, 0.0)


# ---------------------------------------------------------------------------
# run audits

def test_audit_clean_run(clean_run):
    rep = audit_run(clean_run)
    assert rep.passed and rep.prop3_passed and rep.sup_passed
    assert np.abs(rep.lhs).max() <= 1e-10
    assert np.all(rep.rhs >= 0.0)
    assert np.all(rep.margin >= 0.0)


def test_audit_noisy_run(noisy_run):
    rep = audit_run(noisy_run)
    assert rep.passed and rep.prop3_passed and rep.sup_passed
    assert rep.factor == 8
    assert rep.delta_bar_used == pytest.approx(0.1)
    assert rep.times.size == len(noisy_run.solutions)
    assert np.all(rep.margin >= -1e-9 * np.abs(rep.rhs))
    assert rep.worst_margin > 0.0
    # the audit's rate is the certificate's at T = 2 and delta_bar = 0.1
    assert rep.rho == contraction_rate(noisy_run.cfg.cert, 2.0, 0.1)
    # lhs recomputes from the stored trajectories
    P1 = noisy_run.cfg.cert.P1
    for i, t_i in enumerate(rep.times):
        k = int(round(t_i / 0.01))
        err = noisy_run.truth.x_true.states[k] - noisy_run.estimate[k]
        assert rep.lhs[i] == pytest.approx(float(err @ P1 @ err), rel=1e-12)
        assert rep.sup_lhs[i] == pytest.approx(float(np.linalg.norm(err)), rel=1e-12)


def test_audit_equidistant_bookkeeping(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1), equidistant_mode=True)
    rng = SplitMix64(78)
    w = PiecewiseSignal(0.01, -0.1 + 0.2 * rng.uniforms((200, 3)))
    run = run_mhe(model, cfg, chi_hat=np.array([0.1, 4.5]), t_sim=2.0,
                  chi=np.array([3.0, 1.0]), w=w)
    rep = audit_run(run)
    assert rep.factor == 4
    assert rep.delta_bar_used == 0.0
    assert rep.passed and rep.prop3_passed and rep.sup_passed
    # the tightened rate is strictly faster than the general-sampling one
    assert rep.rho < contraction_rate(ref_cert, 2.0, 0.1)


def test_audit_refuses_short_horizon(ref_cert):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 1.5, 0.01, Equidistant(0.1))
    run = run_mhe(model, cfg, chi_hat=np.array([3.0, 1.0]), t_sim=0.5,
                  chi=np.array([3.0, 1.0]))
    with pytest.raises(HorizonError):
        audit_run(run)


def test_audit_needs_ground_truth(ref_cert, clean_run):
    model = batch_reactor()
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    replay = run_mhe(model, cfg, chi_hat=np.array([3.0, 1.0]), t_sim=0.5,
                     y=PiecewiseSignal(0.01, clean_run.y.values[:50]))
    with pytest.raises(ConfigurationError, match="run carries no ground truth"):
        audit_run(replay)


def test_report_serialization(noisy_run, tmp_path):
    rep = audit_run(noisy_run)
    path = tmp_path / "bounds.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_i,lhs,rhs,margin,u_prior,prop3_lhs,prop3_rhs,sup_lhs,sup_rhs"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (rep.times.size, 9)
    assert np.array_equal(data[:, 0], rep.times)
    assert np.array_equal(data[:, 3], rep.margin)

    s = rep.summary()
    assert s["passed"] is True and s["factor"] == 8
    assert s["n_samples"] == rep.times.size
    assert s["rho"] == rep.rho and s["worst_margin"] == rep.worst_margin
    assert set(s) >= {"C", "rho_s", "gamma_coeff", "delta_bar_used",
                      "prop3_passed", "sup_passed"}
