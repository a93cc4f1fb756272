"""One workload process: set up, run the passes, print the result as JSON.

Started by run.py, which pins BLAS to one thread in its environment and puts
the package on PYTHONPATH; the last line of its standard output is its
result.  Set-up time counts from the first statement below, so it covers
importing numpy and the package.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LEAST_REPEATS = 2      # repeats of every operation in a timed run, time allowing
MOST_REPEATS = 30      # and the most of any one
HD_GRID = 200_000      # grid points of the Beta density in quantile()

# solver counts the traced pass must reproduce
COUNT_KEYS = ("mhe.solve_calls", "mhe.lm_iterations", "mhe.lm_trials", "mhe.escalations",
              "mhe.unconverged", "mhe.nv_max")
def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy before 1.25 prints its configuration only
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def check_repeats(passes):
    """Compare every repeat of a key with its first pass; one operation per repeat."""
    first, attempted, failures = {}, 0, []
    for p in passes:
        if not p.fingerprint:       # the pass failed before producing outputs
            continue
        ref = first.setdefault(p.key, p)
        if ref is p:
            continue
        attempted += 1
        diff = [k for k in COUNT_KEYS if ref.counts.get(k) != p.counts.get(k)]
        if p.fingerprint != ref.fingerprint:
            diff.insert(0, "output fingerprint")
        if diff:
            failures.append(f"key {p.key} repeat differs: " + ", ".join(diff))
    return attempted, failures


def plan_repeats(costs, budget, least=LEAST_REPEATS, most=MOST_REPEATS):
    """How often to repeat each operation, given the cost of one run of each.

    Every operation gets least repeats; the rest of the budget is shared
    so that each operation gets the same time, spent on as many repeats as
    fit, at most most.  A run of a cheap operation meets a narrower slice
    of the host's load than a run of a costly one, so it needs more runs
    for a steady median.
    """
    def counts(share):
        return [max(least, min(most, int(share // c))) for c in costs]

    lo, hi = 0.0, max(budget, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sum(n * c for n, c in zip(counts(mid), costs)) <= budget:
            lo = mid
        else:
            hi = mid
    return counts(lo)


def repeat_ops(ops, deadline, speed):
    """Run the operations again until the deadline; return (attempted, failures).

    The repeats of each operation are spread evenly over the time left, and
    the host's speed is measured between them; a repeat that would end past
    the deadline is skipped.  Every repeat must reproduce the digest of the
    operation's first result; it is one operation, failed if it does not.
    """
    attempted, failures = 0, []
    while True:     # plan again when a plan ends early
        costs = [max(statistics.median(op.walls), 1e-6) for op in ops]
        counts = plan_repeats(costs, deadline - time.perf_counter())
        schedule = sorted(((j + 0.5) / n, i) for i, n in enumerate(counts) for j in range(n))
        started = attempted
        for _, i in schedule:
            op = ops[i]
            if time.perf_counter() + min(op.walls) > deadline:
                continue
            speed.measure_if_due()
            attempted += 1
            try:
                digest = op.run()
            except Exception as e:  # a repeat that raises is a failed operation
                failures.append(f"operation {op.key} repeat raised {e!r}")
                continue
            if digest != op.digest:
                failures.append(f"operation {op.key} repeat differs from its first result")
        if attempted == started:
            return attempted, failures


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of values.

    It weighs every order statistic by a Beta((n+1)q, (n+1)(1-q)) density,
    so the noise of the one or two operations nearest the quantile does not
    decide it alone.
    """
    if not values:
        return 0.0
    x = np.sort(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    t = (np.arange(HD_GRID) + 0.5) / HD_GRID
    logpdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(HD_GRID + 1) / HD_GRID, cdf))
    return float(weights @ x)


def summarize(wl, passes, speed, rep_attempted, rep_failures):
    """End-to-end metrics of a timed run.

    Every time is scaled to the reference host (see hostspeed).  An
    operation's latency is the median of its scaled runs, and a pass's time
    is the sum of its operations' latencies plus its scaled time outside
    them.
    """
    ops = [op for p in passes for op in p.ops]
    scales = {op.key: [speed.scale(t + 0.5 * w) for t, w in zip(op.starts, op.walls)]
              for op in ops}

    def latency(op, which):
        samples = op.cpus if which else op.walls
        return statistics.median(t * f[which] for t, f in zip(samples, scales[op.key]))

    def pass_time(p, which):
        total = p.cpu if which else p.wall
        outside = total - sum((op.cpus if which else op.walls)[0] for op in p.ops)
        return (outside * speed.scale(p.start + 0.5 * p.wall)[which]
                + sum(latency(op, which) for op in p.ops))

    walls = {op.key: latency(op, 0) for op in ops}
    lat_ms = [v * 1e3 for v in walls.values()]
    attempted = wl.setup.attempted + rep_attempted + sum(p.attempted for p in passes)
    failures = wl.setup.failures + [f for p in passes for f in p.failures] + rep_failures
    metrics = {
        "wall_s": statistics.fmean(pass_time(p, 0) for p in passes),
        "cpu_s": statistics.fmean(pass_time(p, 1) for p in passes),
        "op_p50_ms": quantile(lat_ms, 0.5),
        "op_p90_ms": quantile(lat_ms, 0.9),
    }
    extra = {"n_ops": len(lat_ms), "n_repeats": rep_attempted, "keys": [p.key for p in passes],
             "reference_ms": 1e3 * statistics.median(speed.walls),
             **wl.report(passes, walls),
             "passes": [{"key": p.key, "start": p.start, "wall": p.wall, "cpu": p.cpu}
                        for p in passes],
             "ops": [[str(op.key), op.walls, op.cpus, op.starts] for op in ops],
             "reference": [speed.times, speed.walls, speed.cpus]}
    return metrics, extra, attempted, failures


def timed_run(wl, seconds, out_dir):
    """One pass per key, then repeats of its operations until seconds have passed."""
    deadline = time.perf_counter() + seconds
    speed = hostspeed.HostSpeed()
    passes = []
    for key in wl.keys:
        speed.measure()
        passes.append(wl.run_pass(key, out_dir))
    rep_attempted, rep_failures = repeat_ops([op for p in passes for op in p.ops], deadline,
                                             speed)
    speed.measure()
    return summarize(wl, passes, speed, rep_attempted, rep_failures)


def layer_metrics(tr, p):
    """Per-layer metrics of one traced pass p, from its tracer tr."""
    def calls(*names):
        return sum(tr.totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(tr.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_secs(*names):
        return sum(tr.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    val = tr.values.get
    cnt = p.counts.get
    model = ("sysmodel.f", "sysmodel.h", "sysmodel.jac")
    integ = ("integrate.rk4_step", "integrate.rk4_jac", "integrate.integrate",
             "integrate.output_along")
    cert = ("certify.verify", "certify.synthesize", "certify.lmi_matrix",
            "certify.geneig_max")
    trials = cnt("mhe.lm_trials", 0)
    return {
        "sysmodel.f_calls": calls("sysmodel.f"),
        "sysmodel.h_calls": calls("sysmodel.h"),
        "sysmodel.jac_calls": calls("sysmodel.jac"),
        "sysmodel.eval_s": secs(*model),
        "integrate.rk4_step_calls": calls("integrate.rk4_step"),
        "integrate.rk4_step_s": secs("integrate.rk4_step"),
        "integrate.rk4_jac_calls": calls("integrate.rk4_jac"),
        "integrate.rk4_jac_s": secs("integrate.rk4_jac"),
        "integrate.integrate_calls": calls("integrate.integrate"),
        "integrate.integrate_s": secs("integrate.integrate"),
        "integrate.output_along_s": secs("integrate.output_along"),
        "integrate.self_s": self_secs(*integ),
        "mhe.solve_calls": calls("mhe.solve"),
        "mhe.solve_s": secs("mhe.solve"),
        "mhe.self_s": self_secs("mhe.solve"),
        "mhe.lm_iterations": cnt("mhe.lm_iterations", 0),
        "mhe.lm_trials": trials,
        "mhe.accept_ratio": cnt("mhe.lm_iterations", 0) / trials if trials else 0.0,
        "mhe.escalations": cnt("mhe.escalations", 0),
        "mhe.unconverged": cnt("mhe.unconverged", 0),
        "mhe.nv_max": cnt("mhe.nv_max", 0),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": secs("linalg.solve"),
        "linalg.solve_n_max": val("linalg.solve_n_max", 0),
        "certify.verify_calls": calls("certify.verify"),
        "certify.verify_s": secs("certify.verify"),
        "certify.verify_points": val("certify.verify_points", 0),
        "certify.lmi_matrix_calls": calls("certify.lmi_matrix"),
        "certify.lmi_matrix_s": secs("certify.lmi_matrix"),
        "certify.eigvalsh_calls": calls("linalg.eigvalsh"),
        "certify.synth_fixed_vertices_s": val("certify.synth_fixed_vertices_s", 0.0),
        "certify.synth_joint_vertices_s": val("certify.synth_joint_vertices_s", 0.0),
        "certify.synth_fixed_grid_s": val("certify.synth_fixed_grid_s", 0.0),
        "certify.cholesky_calls": calls("linalg.cholesky"),
        "certify.inv_calls": calls("linalg.inv"),
        "certify.geneig_calls": calls("certify.geneig_max"),
        "certify.self_s": self_secs(*cert),
        "analysis.audit_s": secs("analysis.audit"),
        "analysis.theorem1_calls": calls("analysis.theorem1"),
        "analysis.prop3_calls": calls("analysis.prop3"),
        "analysis.self_s": self_secs("analysis.audit", "analysis.theorem1", "analysis.prop3"),
        "cli.disturbance_s": secs("cli.disturbance"),
        "cli.draws": val("cli.draws", 0),
        "cli.write_s": secs("cli.write"),
        "cli.bytes_written": val("cli.bytes_written", 0),
        "svgplot.line_plot_calls": calls("svgplot.line_plot"),
        "svgplot.line_plot_s": secs("svgplot.line_plot"),
    }


def traced_run(wl, out_dir, trace_path):
    """An untraced and a traced pass of the first key.

    Outputs and solver counts of the two must agree.  trace.overhead_s is
    the traced pass's wall time minus the untraced one's.
    """
    key = wl.keys[0]
    untraced = wl.run_pass(key, out_dir)
    tr = tracing.Tracer()
    tr.install(models=[wl.model])
    try:
        traced = tr.wrap("bench.pass", wl.run_pass)(key, out_dir)
    finally:
        tr.uninstall()
    with open(trace_path, "w") as fh:   # spans stay in memory until here
        json.dump({"workload": wl.name, "key": key, "passes": [tr.to_dict()]}, fh)
    passes = [untraced, traced]
    attempted, failures = check_repeats(passes)
    attempted += wl.setup.attempted + sum(p.attempted for p in passes)
    failures = wl.setup.failures + failures + [f for p in passes for f in p.failures]
    metrics = layer_metrics(tr, traced)
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    return metrics, {"n_passes": len(passes), "keys": [key]}, attempted, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for outputs and traces")
    ap.add_argument("--setup-only", action="store_true", help="report set-up time and stop")
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for self-tests")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    setup_s = time.perf_counter() - _T0
    # scaled to the reference host like every other time (see hostspeed)
    speed = hostspeed.HostSpeed()
    for _ in range(hostspeed.NEAREST):
        speed.measure()
    setup_s *= speed.scale(speed.times[0])[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out_dir = os.path.join(args.out, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        trace_path = os.path.join(args.out, f"{args.workload}_seed{args.seed}_trace.json")
        metrics, extra, attempted, failures = traced_run(wl, out_dir, trace_path)
    else:
        metrics, extra, attempted, failures = timed_run(wl, args.seconds, out_dir)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": metrics, "extra": extra, "attempted": attempted, "failures": failures,
        "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
