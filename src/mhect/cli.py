"""Command line interface and the bundled batch-reactor benchmark.

Subcommands: certify (verify or synthesize detectability weights),
simulate (truth + measurements), estimate (run the estimator),
audit (estimate + error-bound audit), bench-s5 (the full benchmark with
its reference weights, sampling schedule and assertions).

Exit codes: 0 success, 2 configuration error, 3 certificate failure,
4 audit/assertion failure.  The default output directory is taken from
the MHECT_OUT environment variable when set.
"""

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import svgplot
from .analysis import _bound_rate, audit_run
from .certify import (DetectabilityCertificate, FixedQR, GridSpec, contraction_rate,
                      load_certificate, min_horizon, save_certificate,
                      synthesize_certificate, verify_certificate)
from .errors import ConfigurationError, DivergenceError, InfeasibleError
from .integrate import integrate, output_along
from .mhe import Equidistant, Explicit, MheConfig, make_sampler, run_mhe, truth_candidate_cost
from .rng import SplitMix64
from .sysmodel import (PiecewiseSignal, _boolean, _float_array, _integer, _numeric, _read_json,
                       _section, as_box, as_grid_index, batch_reactor, box_within, get_model,
                       load_model, write_series_csv)


# ---------------------------------------------------------------------------
# disturbance generation

@dataclass(frozen=True)
class DisturbanceSpec:
    """Uniform box disturbance, piecewise constant with piece length dt."""

    box: object   # (q, 2) rows [lo, hi]
    dt: float
    t_sim: float


def generate_disturbance(spec, seed, w_box=None):
    """Seeded piecewise-constant disturbance, uniform on spec.box.

    Draws are piece-major, coordinate-minor from a splitmix64 stream, so a
    given seed yields the same signal on any platform.  The spec box must be
    bounded, and with w_box given it must lie inside it.
    """
    box = as_box(spec.box, None, "disturbance box")
    if not np.all(np.isfinite(box)):
        raise ConfigurationError(f"disturbance box {box.tolist()} has an unbounded side")
    if w_box is not None and not box_within(box, w_box):
        raise ConfigurationError("disturbance box does not fit the model's W")
    K = as_grid_index(spec.t_sim, spec.dt, "disturbance t_sim")
    if K < 1:
        raise ConfigurationError("t_sim must cover at least one disturbance piece")
    u = SplitMix64(seed).uniforms((K, box.shape[0]))
    return PiecewiseSignal(spec.dt, box[:, 0] + u * (box[:, 1] - box[:, 0]))


# ---------------------------------------------------------------------------
# bundled benchmark: batch reactor, reference weights and schedule

BENCH_P = np.array([[4.009, 3.768], [3.768, 3.549]])
BENCH_Q = np.diag([1000.0, 1000.0, 100.0])
BENCH_R = np.array([[100.0]])
BENCH_LAMBDA = 0.4
BENCH_T = 2.0
BENCH_DT = 0.01
BENCH_T_SIM = 5.0
BENCH_CHI = np.array([3.0, 1.0])
BENCH_CHI_HAT = np.array([0.1, 4.5])
BENCH_W_BOUND = 0.1
# 50 samples on (0, 5]: denser early, largest gap 0.19, last sample at 5.0
BENCH_GAPS = [0.02] * 10 + [0.04] * 10 + [0.06] * 10 + [0.19] * 20
# the reference weights are quoted to 4 significant digits; at that precision
# the inequality peaks slightly above zero at one domain corner, so the
# benchmark verifies them at the print-rounding scale
# (a strictly valid P that rounds to these digits is the witness in
# tests/test_acceptance.py::test_01_reference_weights_verify_strictly)
BENCH_VERIFY_TOL = 1e-4
BENCH_RHO = 0.86
BENCH_RHO_TOL = 5e-3


def bench_times():
    return np.cumsum(BENCH_GAPS)


def bench_certificate():
    return DetectabilityCertificate(BENCH_P, BENCH_Q, BENCH_R, BENCH_LAMBDA)


def bench_run(seed=1, *, sampler_spec=None, t_sim=BENCH_T_SIM, T=BENCH_T):
    """One benchmark estimation run; returns (run, report)."""
    model = batch_reactor()
    spec = sampler_spec if sampler_spec is not None else Explicit(tuple(bench_times()))
    cfg = MheConfig(bench_certificate(), T, BENCH_DT, spec)
    w = generate_disturbance(
        DisturbanceSpec([[-BENCH_W_BOUND, BENCH_W_BOUND]] * model.q, BENCH_DT, t_sim),
        seed, w_box=model.W)
    run = run_mhe(model, cfg, chi_hat=BENCH_CHI_HAT, t_sim=t_sim, chi=BENCH_CHI, w=w)
    report = audit_run(run)
    return run, report


def _write_run_outputs(run, report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    run.estimate_csv(os.path.join(out_dir, "estimate.csv"))
    run.samples_csv(os.path.join(out_dir, "samples.csv"))
    if run.truth is not None:
        x_true = run.truth.x_true
        write_series_csv(os.path.join(out_dir, "truth.csv"), x_true.dt, x_true.states, "x")
    if report is not None:
        report.to_csv(os.path.join(out_dir, "bounds.csv"))
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(report.summary(), fh, indent=1)
    _write_run_plots(run, out_dir)


def _write_run_plots(run, out_dir):
    times = run.times
    est = run.estimate
    k_last = est.shape[0] - 1
    series_states = []
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    if run.truth is not None:
        xt = run.truth.x_true.states[:k_last + 1]
        for i in range(xt.shape[1]):
            series_states.append({"x": times, "y": xt[:, i], "label": f"x{i + 1}",
                                  "color": palette[i % 4]})
    for i in range(est.shape[1]):
        series_states.append({"x": times, "y": est[:, i], "label": f"xhat{i + 1}",
                              "color": palette[(i + 2) % 4]})
    svgplot.line_plot(os.path.join(out_dir, "states.svg"), series_states,
                      title="true and estimated states", xlabel="t", ylabel="x")
    if run.truth is not None:
        err = np.linalg.norm(run.truth.x_true.states[:k_last + 1] - est, axis=1)
        svgplot.line_plot(os.path.join(out_dir, "error.svg"),
                          [{"x": times, "y": err, "label": "|x - xhat|", "color": "#d62728"}],
                          title="estimation error", xlabel="t", ylabel="error")
        w = run.truth.w
        wt = w.dt * np.arange(w.n_pieces)
        svgplot.line_plot(os.path.join(out_dir, "disturbance.svg"),
                          [{"x": wt, "y": w.values[:, i], "label": f"w{i + 1}",
                            "color": palette[i % 4]} for i in range(w.dim)],
                          title="disturbance", xlabel="t", ylabel="w")
    st = run.sampling.times
    gaps = np.diff(np.concatenate(([0.0], st)))
    svgplot.line_plot(os.path.join(out_dir, "sampling.svg"),
                      [{"x": st, "y": gaps, "label": "gap to previous sample",
                        "color": "#1f77b4", "line": False}],
                      title="sampling times", xlabel="t_i", ylabel="gap")


def _bench_assertions(run, report):
    """The benchmark's documented checks; returns a list of failure strings."""
    fails = []
    if not report.passed:
        fails.append(f"decay bound violated (worst relative margin {report.worst_margin:.3e})")
    if not report.prop3_passed:
        fails.append("window-wise bound violated")
    if not report.sup_passed:
        fails.append("sup-norm bound violated")
    if abs(report.rho - BENCH_RHO) > BENCH_RHO_TOL:
        fails.append(f"contraction rate {report.rho:.5f} departs from {BENCH_RHO}")
    for i, sol in enumerate(run.solutions):
        ub = truth_candidate_cost(run, i)
        if sol.cost > ub * (1.0 + 1e-6) + 1e-12:
            fails.append(f"sample {i}: cost {sol.cost:.6e} exceeds the true-trajectory "
                         f"candidate {ub:.6e}")
            break
    slow = max(s.stats.wall_time for s in run.solutions)
    if slow >= 1.0:
        fails.append(f"slowest window solve took {slow:.2f} s (budget 1 s)")
    return fails


def _bench_one_seed(seed, out_dir):
    run, report = bench_run(seed=seed)
    fails = _bench_assertions(run, report)
    if out_dir:
        _write_run_outputs(run, report, out_dir)
    return {"seed": seed, "passed": not fails, "failures": fails,
            "rho": report.rho, "worst_margin": report.worst_margin,
            "n_samples": len(run.solutions)}


# ---------------------------------------------------------------------------
# scenario configs (JSON)

def _resolve_out(args):
    out = getattr(args, "out", None) or os.environ.get("MHECT_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _float_tuple(value):
    return tuple(float(v) for v in value)


def _scenario_model(cfg):
    m = cfg.get("model", "batch_reactor")
    if isinstance(m, str):
        return get_model(m)
    if isinstance(m, dict) and "file" in m:
        return load_model(m["file"])
    raise ConfigurationError("model must be a registry name or {\"file\": path}")


def _scenario_certificate(cfg):
    c = cfg.get("certificate")
    if c is None:
        raise ConfigurationError("config needs a certificate (path or inline weights)")
    if isinstance(c, str):
        return load_certificate(c)
    if isinstance(c, dict) and "P" in c:
        P, Q, R = [_numeric(c, k, "certificate", _float_array) for k in ("P", "Q", "R")]
        lam = _numeric(c, "lambda", "certificate")
        return DetectabilityCertificate(P, Q, R, lam)
    raise ConfigurationError("certificate must be a file path or inline {P, Q, R, lambda}")


def _scenario_sampler(cfg):
    s = cfg.get("sampler")
    if s is None:
        raise ConfigurationError("config needs a sampler")
    kind = _section(s, "sampler").get("type")
    if kind == "equidistant":
        return Equidistant(_numeric(s, "delta", "sampler"))
    if kind == "explicit":
        return Explicit(_numeric(s, "times", "sampler", _float_tuple))
    raise ConfigurationError(f"unknown sampler type {kind!r}")


def _scenario_disturbance(cfg, model, dt, t_sim):
    d = cfg.get("disturbance")
    if d is None:
        return None, None
    if "box" in _section(d, "disturbance"):
        box = _numeric(d, "box", "disturbance", lambda v: as_box(v, model.q, "disturbance box"))
    elif "bound" in d:
        b = _numeric(d, "bound", "disturbance")
        box = [[-b, b]] * model.q
    else:
        raise ConfigurationError("disturbance needs a box or a bound")
    d = {"dt": dt, "seed": 1, **d}
    spec = DisturbanceSpec(box, _numeric(d, "dt", "disturbance"), t_sim)
    return spec, _numeric(d, "seed", "disturbance", _integer)


def _assemble_scenario(path):
    cfg = _section(_read_json(path, "config"), "config")
    model = _scenario_model(cfg)
    cert = _scenario_certificate(cfg)
    T, dt, t_sim = (_numeric(cfg, k, "config") for k in ("T", "dt", "t_sim"))
    chi_hat = _numeric(cfg, "chi_hat", "config", _float_array)
    sampler = _scenario_sampler(cfg)
    eq_mode = (_numeric(cfg, "equidistant_mode", "config", _boolean)
               if "equidistant_mode" in cfg else False)
    mhe_cfg = MheConfig(cert, T, dt, sampler, equidistant_mode=eq_mode)
    chi = _numeric(cfg, "chi", "config", _float_array) if "chi" in cfg else None
    spec, seed = _scenario_disturbance(cfg, model, dt, t_sim)
    w = generate_disturbance(spec, seed, w_box=model.W) if spec else None
    return model, mhe_cfg, chi, chi_hat, w, t_sim


# ---------------------------------------------------------------------------
# subcommands

def _parse_diag(text, what, dim=None):
    if text is None:
        return np.eye(dim)
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"{what} must be comma-separated numbers")
    return np.diag(vals)


def cmd_certify(args):
    model = load_model(args.model_file) if args.model_file else get_model(args.model)
    grid = GridSpec(args.grid, args.grid, vertices_only=args.vertices)
    if args.check:
        cert = load_certificate(args.check)
        report = verify_certificate(model, cert, grid, tol_psd=args.tol)
        _print_report(report)
        print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else 3
    if args.lam is None:
        raise ConfigurationError("synthesis needs --lambda")
    mode = "joint" if args.joint else FixedQR(_parse_diag(args.Q, "--Q", model.q),
                                              _parse_diag(args.R, "--R", model.p))
    cert = synthesize_certificate(model, args.lam, mode, grid)
    path = os.path.join(_resolve_out(args), args.cert_name)
    save_certificate(cert, path)
    print(f"synthesized certificate -> {path}")
    _print_report(cert.verification)
    return 0


def _print_report(report):
    print(f"max inequality eigenvalue {report.max_eig:.6e} over {report.n_points} "
          f"points ({report.mode}); tolerance {report.tol_psd:g}")
    if not report.passed:
        print(f"worst point x = {report.worst_x}, w = {report.worst_w}")


def cmd_simulate(args):
    model, cfg, chi, chi_hat, w, t_sim = _assemble_scenario(args.config)
    if chi is None:
        raise ConfigurationError("simulate needs the true initial state chi")
    if w is None:
        raise ConfigurationError("simulate needs a disturbance spec")
    out = _resolve_out(args)
    truth = integrate(model, chi, w, t_sim, cfg.dt)
    y = output_along(model, truth, w)
    write_series_csv(os.path.join(out, "truth.csv"), truth.dt, truth.states, "x")
    write_series_csv(os.path.join(out, "y.csv"), y.dt, y.values, "y")
    write_series_csv(os.path.join(out, "w.csv"), w.dt, w.values, "w")
    print(f"simulated {t_sim} time units -> {out}")
    return 0


def _run_from_config(args):
    """The scenario's model and estimation run, refused (HorizonError) before
    any window when T is at or below the minimal horizon."""
    model, cfg, chi, chi_hat, w, t_sim = _assemble_scenario(args.config)
    if chi is None:
        raise ConfigurationError("estimation from config needs ground truth chi")
    _bound_rate(cfg, make_sampler(cfg.sampling, t_sim, cfg.dt, cfg.T))
    return model, run_mhe(model, cfg, chi_hat=chi_hat, t_sim=t_sim, chi=chi, w=w)


def cmd_estimate(args):
    _, run = _run_from_config(args)
    out = _resolve_out(args)
    _write_run_outputs(run, None, out)
    worst = max((s.stats.wall_time for s in run.solutions), default=0.0)
    print(f"{len(run.solutions)} window solves, slowest {worst * 1e3:.1f} ms -> {out}")
    return 0


def cmd_audit(args):
    model, run = _run_from_config(args)
    report = audit_run(run)
    out = _resolve_out(args)
    _write_run_outputs(run, report, out)
    x, X = run.truth.x_true.states, model.X
    outside = np.argwhere((x < X[:, 0] - 1e-9) | (x > X[:, 1] + 1e-9))
    if outside.size:
        k, i = outside[0]
        print(f"truth leaves X at t = {k * run.dt:g} (x{i + 1} = {x[k, i]:.6g}), where the "
              "certificate does not hold: the bounds guarantee nothing", file=sys.stderr)
        return 3
    print(f"decay bound {'holds' if report.passed else 'VIOLATED'}; "
          f"worst relative margin {report.worst_margin:.4e}; rho = {report.rho:.5f}")
    return 0 if (report.passed and report.prop3_passed and report.sup_passed) else 4


def cmd_bench(args):
    if args.seeds < 1:
        raise ConfigurationError("--seeds must be at least 1")
    if args.jobs < 1:
        raise ConfigurationError("--jobs must be at least 1")
    out = _resolve_out(args)
    model = batch_reactor()
    cert = bench_certificate()
    grid = GridSpec(vertices_only=True)
    report = verify_certificate(model, cert, grid, tol_psd=BENCH_VERIFY_TOL)
    print(f"reference weights: max inequality eigenvalue {report.max_eig:.3e} "
          f"on {report.n_points} vertices (tolerance {BENCH_VERIFY_TOL:g}, "
          f"print-rounding scale)")
    if not report.passed:
        print("reference weights failed verification", file=sys.stderr)
        return 3
    sampling = make_sampler(Explicit(tuple(bench_times())), BENCH_T_SIM, BENCH_DT,
                            horizon=BENCH_T)
    mh = min_horizon(cert, sampling.delta_bar)
    rho = contraction_rate(cert, BENCH_T, sampling.delta_bar)
    print(f"delta_bar = {sampling.delta_bar:.2f}, minimal horizon {mh:.5f}, "
          f"T = {BENCH_T}, rho = {rho:.5f}")
    seeds = list(range(args.seed, args.seed + args.seeds))
    dirs = [os.path.join(out, f"seed_{s}") if args.seeds > 1 else out for s in seeds]
    if args.jobs > 1 and len(seeds) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_bench_one_seed, seeds, dirs))
    else:
        results = list(map(_bench_one_seed, seeds, dirs))
    all_ok = True
    for res in results:
        status = "pass" if res["passed"] else "FAIL"
        print(f"seed {res['seed']}: {status} ({res['n_samples']} samples, "
              f"worst relative margin {res['worst_margin']:.3e})")
        for f in res["failures"]:
            print(f"  {f}", file=sys.stderr)
        all_ok = all_ok and res["passed"]
    with open(os.path.join(out, "bench_summary.json"), "w") as fh:
        json.dump({"rho": rho, "min_horizon": mh, "delta_bar": sampling.delta_bar,
                   "verify_max_eig": report.max_eig, "seeds": results}, fh, indent=1)
    return 0 if all_ok else 4


def build_parser():
    p = argparse.ArgumentParser(prog="mhect",
                                description="sampled moving horizon estimation with "
                                            "certified error bounds")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("certify", help="verify or synthesize detectability weights")
    pc.add_argument("--model", default="batch_reactor")
    pc.add_argument("--model-file")
    pc.add_argument("--check", help="verify this certificate JSON instead of synthesizing")
    pc.add_argument("--lambda", dest="lam", type=float, help="decay rate in (0, 1)")
    pc.add_argument("--joint", action="store_true", help="optimize Q and R too")
    pc.add_argument("--Q", help="diagonal of Q (fixed mode; default identity)")
    pc.add_argument("--R", help="diagonal of R (fixed mode; default identity)")
    pc.add_argument("--grid", type=int, default=5, help="points per axis")
    pc.add_argument("--vertices", action="store_true", help="evaluate at box vertices only")
    pc.add_argument("--tol", type=float, default=1e-8, help="verification tolerance")
    pc.add_argument("--cert-name", default="certificate.json")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_certify)

    for name, fn, hlp in (("simulate", cmd_simulate, "integrate truth and write measurements"),
                          ("estimate", cmd_estimate, "run the estimator on a scenario config"),
                          ("audit", cmd_audit, "estimate and audit the error bounds")):
        ps = sub.add_parser(name, help=hlp)
        ps.add_argument("--config", required=True, help="scenario JSON")
        ps.add_argument("--out")
        ps.set_defaults(func=fn)

    pb = sub.add_parser("bench-s5", help="run the bundled batch-reactor benchmark")
    pb.add_argument("--seed", type=int, default=1)
    pb.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    pb.add_argument("--jobs", type=int, default=1, help="parallel workers across seeds")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as e:   # OSError: writing the outputs
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"integration failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
