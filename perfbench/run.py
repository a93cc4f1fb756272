"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reactor_s5 --seed 1 --seconds 55 --trace 0

Workloads: reactor_s5, long_window, certify (see perfbench/README.md;
BENCHMARK.json leaves long_window out).  Every workload process runs with
BLAS pinned to one thread.  Set-up time is the median over several fresh
processes.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, its times scaled to a reference host speed (see
hostspeed.py); with --trace 1 a separate traced run reports its per-layer
metrics.  BENCHMARK.json names the metrics and
their units.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Outputs and
traces go to .perfbench_out/ in the repository root.  Exits with 2 when the
package sources are missing and 1 when a workload process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6          # fresh set-up-only processes besides the measuring one
DEADLINE_S = 170.0        # the whole command stays under three minutes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the metrics each workload reports under its own names (printed, not gated)
REPORT = {
    "estimation": (("solve_p50_ms", "ms", "op_p50_ms"), ("solve_p90_ms", "ms", "op_p90_ms"),
                   ("est_err_rms", "state", None), ("audit_margin_min", "1", None),
                   ("cost_excess_max", "1", None)),
    "certify": (("verify_ms", "ms", None), ("synth_s", "s", None)),
}


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, deadline):
    """Run worker.py to completion (killed at the deadline); return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=("reactor_s5", "long_window", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time a timed run measures: one pass per key, then repeats of "
                         "its operations (the passes run to the end even past it)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for self-tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "mhect" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(OUT)]
    if args.tiny:
        common.append("--tiny")
    try:
        probes = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_worker(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    failures = res["failures"]
    attempted = res["attempted"]
    extra = res["extra"]
    env = res["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"keys {extra['keys']}")
    values = dict(res["metrics"], setup_s=statistics.median(probes + [res["setup_s"]]),
                  peak_rss_mb=res["peak_rss_mb"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        kind = "certify" if args.workload == "certify" else "estimation"
        for name, unit, alias in REPORT[kind]:
            value = values[alias] if alias else extra[name]
            print(f"  {name:<22} {value:.6g} {unit}")
        print(f"  latency over {extra['n_ops']} operations, each the median of its scaled runs "
              f"({extra['n_repeats']} repeats)")
    print(f"  {'failed_frac':<22} {len(failures) / attempted:.6g} 1 "
          f"({len(failures)} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "env": env, "metrics": metrics,
                                  "extra": extra, "failures": failures,
                                  "setup_probes_s": probes}, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0



if __name__ == "__main__":
    sys.exit(main())
