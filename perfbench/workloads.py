"""The benchmark's workloads: what one pass runs and how its outputs are checked.

A workload has a tuple of keys (disturbance seeds, or decay rates for
certify).  One pass runs the workload for one key.  Each pass records its
wall and CPU time, the operations it attempted and which of them failed, a
fingerprint of its outputs, and every timed operation (a window solve, or a
verification or synthesis call) as an Op: its first latency, a digest of
its result and a call that runs it again with the same arguments, so the
timed run can repeat it.

The package is driven only through its public entry points (cli.bench_run,
solve_mhe via run_mhe, audit_run, verify_certificate,
synthesize_certificate) and the writer `mhect audit` uses for its CSV and
SVG outputs.  Names are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

import hashlib
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import mhect.certify as certify
import mhect.cli as cli
import mhect.mhe as mhe

COST_REL_TOL = 1e-6        # a window may not cost more than its truth candidate
REACTOR_SEEDS = 6          # disturbance seeds in one reactor_s5 run
VERTICES = certify.GridSpec(vertices_only=True, affinity_asserted=True)


@dataclass
class Op:
    """One timed operation of a pass, which can be run again.

    call() runs the operation with the pass's arguments and returns the
    digest of its result; a repeat must reproduce digest.  walls and cpus
    hold the wall and CPU time of every run of it, the pass's first, and
    starts the perf_counter() reading at its start.
    """
    key: object
    call: Callable
    digest: str
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    starts: list = field(default_factory=list)

    def run(self):
        t0, c0 = time.perf_counter(), time.process_time()
        self.starts.append(t0)
        try:
            return self.call()
        finally:
            self.walls.append(time.perf_counter() - t0)
            self.cpus.append(time.process_time() - c0)


@dataclass
class Pass:
    key: object
    wall: float = 0.0
    cpu: float = 0.0
    start: float = 0.0                            # perf_counter() at its start
    ops: list = field(default_factory=list)      # Op, in call order
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    fingerprint: str = ""
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def check(self, problems, what):
        """Count one operation; it failed when problems is non-empty."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _solution_digest(sol):
    s = sol.stats
    return _digest(sol.chi_star, sol.w_star.values, sol.x_star.states, [sol.cost],
                   [s.iterations, s.trials, s.escalations, s.feasible]) + s.termination


def _report_digest(report):
    return _digest([report.max_eig, report.passed, report.n_points])


def _cert_digest(cert):
    return _digest(cert.P1, cert.Q, cert.R)


def _op_call(fn, args, kwargs, digest):
    return lambda: digest(fn(*args, **kwargs))


# ---------------------------------------------------------------------------
# estimation workloads: reactor_s5 and long_window

class Estimation:
    """cli.bench_run over a set of disturbance seeds, audited and written."""

    def __init__(self, name, seed, *, keys, sampler_spec, t_sim, T, rho):
        self.name = name
        self.keys = keys
        self.kwargs = {"t_sim": t_sim, "T": T}
        if sampler_spec is not None:
            self.kwargs["sampler_spec"] = sampler_spec
        self.rho = rho
        # the set-up `mhect bench-s5` does before its runs
        self.model = cli.batch_reactor()
        cert = cli.bench_certificate()
        report = certify.verify_certificate(self.model, cert, VERTICES,
                                            tol_psd=cli.BENCH_VERIFY_TOL)
        self.setup = Pass("setup")
        self.setup.check([] if report.passed else [
            f"reference weights reach {report.max_eig:.3e} on the vertices"],
            "reference verification")
        box = [[-cli.BENCH_W_BOUND, cli.BENCH_W_BOUND]] * self.model.q
        for s in keys:
            cli.generate_disturbance(cli.DisturbanceSpec(box, cli.BENCH_DT, t_sim), s,
                                     w_box=self.model.W)
        spec = sampler_spec or mhe.Explicit(tuple(cli.bench_times()))
        mhe.make_sampler(spec, t_sim, cli.BENCH_DT, horizon=T)

    def run_pass(self, seed, out_dir):
        p = Pass(seed, start=time.perf_counter())
        solve = mhe.solve_mhe

        def recorded_solve(*args, **kwargs):
            # the prior is a view into the run's estimate; the repeats get a copy
            args = tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args)
            t0, c0 = time.perf_counter(), time.process_time()
            sol = solve(*args, **kwargs)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            p.ops.append(Op((seed, len(p.ops)), _op_call(solve, args, kwargs, _solution_digest),
                            _solution_digest(sol), [wall], [cpu], [t0]))
            return sol

        mhe.solve_mhe = recorded_solve
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            run, report = cli.bench_run(seed, **self.kwargs)
            cli._write_run_outputs(run, report, out_dir)
        except Exception as e:  # a failed pass is counted; the run goes on
            p.attempted += max(len(p.ops), 1)
            p.failures.append(f"seed {seed} raised {e!r}")
            p.ops = []
            return p
        finally:
            p.wall, p.cpu = time.perf_counter() - t0, time.process_time() - c0
            mhe.solve_mhe = solve
        self._check(p, run, report)
        return p

    def _check(self, p, run, report):
        excess_max = -math.inf
        sq_err, nv_max = [], 0
        x_true = run.truth.x_true.states
        for i, sol in enumerate(run.solutions):
            ub = mhe.truth_candidate_cost(run, i)
            excess = (sol.cost - ub) / ub if ub > 0 else sol.cost - ub
            excess_max = max(excess_max, excess)
            problems = []
            if not sol.stats.feasible:
                problems.append("infeasible")
            if sol.cost > ub * (1.0 + COST_REL_TOL) + 1e-12:
                problems.append(f"cost {sol.cost:.6e} exceeds the truth candidate {ub:.6e}")
            p.check(problems, f"seed {p.key} window t = {sol.t_i:.2f}")
            k = int(round(sol.t_i / run.dt))
            sq_err.append(float(np.sum((x_true[k] - run.estimate[k]) ** 2)))
            nv_max = max(nv_max, sol.chi_star.size + sol.w_star.values.size)
        problems = [name for name, ok in (("decay bound", report.passed),
                                          ("window-wise bound", report.prop3_passed),
                                          ("sup-norm bound", report.sup_passed)) if not ok]
        if self.rho is not None and abs(report.rho - self.rho) > cli.BENCH_RHO_TOL:
            problems.append(f"rho {report.rho:.5f} departs from {self.rho}")
        p.check(problems, f"seed {p.key} audit")
        stats = [s.stats for s in run.solutions]
        p.counts = {
            "mhe.solve_calls": len(stats),
            "mhe.lm_iterations": sum(s.iterations for s in stats),
            "mhe.lm_trials": sum(s.trials for s in stats),
            "mhe.escalations": sum(s.escalations for s in stats),
            "mhe.unconverged": sum(s.termination != "converged" for s in stats),
            "mhe.nv_max": nv_max,
        }
        p.fingerprint = hashlib.sha256(run.estimate.tobytes()).hexdigest()
        p.quality = {"sq_err": sq_err, "audit_margin": report.worst_margin,
                     "cost_excess": excess_max}

    @staticmethod
    def report(passes, latency):
        """Estimate quality over the pass of every seed."""
        done = [p.quality for p in passes if p.quality]
        sq = [e for q in done for e in q["sq_err"]]
        nan = float("nan")
        return {"est_err_rms": float(np.sqrt(np.mean(sq))) if sq else nan,
                "audit_margin_min": min((q["audit_margin"] for q in done), default=nan),
                "cost_excess_max": max((q["cost_excess"] for q in done), default=nan)}


def reactor_s5(seed, tiny=False):
    """The paper's benchmark exactly as bench_run(seed) builds it."""
    if tiny:
        times = tuple(cli.bench_times()[:10])
        return Estimation("reactor_s5", seed, keys=(seed,), sampler_spec=mhe.Explicit(times),
                          t_sim=times[-1], T=cli.BENCH_T, rho=None)
    # one disturbance seed's pass costs from 0.85 to 1.15 times another's, so
    # a run averages REACTOR_SEEDS of them
    return Estimation("reactor_s5", seed, keys=tuple(range(seed, seed + REACTOR_SEEDS)),
                      sampler_spec=None, t_sim=cli.BENCH_T_SIM, T=cli.BENCH_T,
                      rho=cli.BENCH_RHO)


def long_window(seed, tiny=False):
    """Equidistant 0.2 sampling over 8 time units with T = 4: 20 windows at N = 400."""
    return Estimation("long_window", seed, keys=(seed,), sampler_spec=mhe.Equidistant(0.2),
                      t_sim=1.0 if tiny else 8.0, T=4.0, rho=None)


# ---------------------------------------------------------------------------
# certify: verification and synthesis, no estimation

LAMBDAS = (0.3, 0.4, 0.5)


class Certify:
    """Verify the reference weights and synthesize weights at one decay rate per pass."""

    name = "certify"

    def __init__(self, seed, tiny=False):
        # every run covers all three decay rates, the seed picks their order:
        # synthesis at 0.3 takes a third longer, so one rate per run would make
        # the run time depend on the seed
        first = seed % len(LAMBDAS)
        self.keys = LAMBDAS[first:] + LAMBDAS[:first]
        if tiny:
            self.keys = self.keys[:1]
        self.model = cli.batch_reactor()
        self.reference = cli.bench_certificate()
        self.verify_grid = certify.GridSpec(x_points=4 if tiny else 20, w_points=2)
        self.synth_grid = certify.GridSpec(x_points=3, w_points=2)
        self.setup = Pass("setup")

    @staticmethod
    def _timed(p, op, digest, fn, *args, **kwargs):
        """Run fn once as operation op of pass p: (result, None) or (None, error)."""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # counted as a failed operation
            return None, f"raised {e!r}"
        p.ops.append(Op((p.key, op), _op_call(fn, args, kwargs, digest), digest(result),
                        [time.perf_counter() - t0], [time.process_time() - c0], [t0]))
        return result, None

    def run_pass(self, lam, out_dir):
        p = Pass(lam, start=time.perf_counter())
        model, ref = self.model, self.reference
        results = []
        t0, c0 = time.perf_counter(), time.process_time()
        vert, err = self._timed(p, "verify_vertices", _report_digest,
                                certify.verify_certificate, model, ref,
                                VERTICES, tol_psd=cli.BENCH_VERIFY_TOL)
        p.check([err] if err else [] if vert.passed else [
            f"reference weights reach {vert.max_eig:.3e} on the vertices"], "verify vertices")
        grid, err = self._timed(p, "verify_grid", _report_digest,
                                certify.verify_certificate, model, ref,
                                self.verify_grid, tol_psd=cli.BENCH_VERIFY_TOL)
        problems = [err] if err else []
        # the grid holds the vertices and the inequality is affine in x for
        # this model, so the grid maximum is the vertex maximum
        if grid is not None and vert is not None and abs(grid.max_eig - vert.max_eig) > 1e-8:
            problems.append(f"grid maximum {grid.max_eig:.6e} differs from the vertex "
                            f"maximum {vert.max_eig:.6e}")
        p.check(problems, "verify grid")
        results += [r.max_eig for r in (vert, grid) if r is not None]
        fixed = certify.FixedQR(cli.BENCH_Q, cli.BENCH_R)
        for op, mode, where in (("synth_fixed_vertices", fixed, VERTICES),
                                ("synth_joint_vertices", "joint", VERTICES),
                                ("synth_fixed_grid", fixed, self.synth_grid)):
            cert, err = self._timed(p, op, _cert_digest, certify.synthesize_certificate,
                                    model, lam, mode, where)
            problems = [err] if err else []
            if cert is not None:
                try:
                    recheck = certify.verify_certificate(
                        model, cert, where, tol_psd=certify.SdpOptions().recheck_tol)
                except Exception as e:  # counted with the synthesis it checks
                    problems.append(f"re-verification raised {e!r}")
                else:
                    if not recheck.passed:
                        problems.append(f"re-verification reaches {recheck.max_eig:.3e}")
                results += [cert.P1, cert.Q, cert.R]
            p.check(problems, f"lambda {lam} {op}")
        p.wall, p.cpu = time.perf_counter() - t0, time.process_time() - c0
        p.fingerprint = _digest(*[np.ravel(r) for r in results])
        return p

    @staticmethod
    def report(passes, latency):
        """The 3200-point verification, and the three syntheses at one rate,
        averaged over the rates, from the operations' latencies."""
        verify = [v for (_, op), v in latency.items() if op == "verify_grid"]
        synth = {}
        for (lam, op), v in latency.items():
            if op.startswith("synth"):
                synth[lam] = synth.get(lam, 0.0) + v
        return {"verify_ms": 1e3 * float(np.median(verify)) if verify else float("nan"),
                "synth_s": float(np.mean(list(synth.values()))) if synth else float("nan")}


WORKLOADS = {"reactor_s5": reactor_s5, "long_window": long_window, "certify": Certify}
