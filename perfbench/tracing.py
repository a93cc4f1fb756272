"""Spans and counters for the traced run, recorded from outside the package.

The tracer rebinds public names where the package looks them up, times
every call, and restores the originals when it is uninstalled.  Spans carry
(id, name, start, end, parent id, window id); every span under one
solve_mhe call carries that call's span id as its window id.  The hottest
callables (the model's f, h and Jacobians, the two RK4 step kernels, and
numpy's eigvalsh, cholesky and inv) are called up to hundreds of thousands
of times per pass, so they are not stored one by one: each is aggregated
per (enclosing recorded span, caller, name) into a call count and a
duration, and their time is still charged to the enclosing span's
children, so self times stay exact.  Everything is kept in memory until the
run writes it out at its end.
"""

import os
import time
from importlib import import_module

import numpy as np

# the package re-exports the function integrate under the submodule's name,
# so the modules are taken from the import system, not as attributes
analysis, certify, cli, integrate, mhe, svgplot = (
    import_module(f"mhect.{name}")
    for name in ("analysis", "certify", "cli", "integrate", "mhe", "svgplot"))

MODEL_CALLABLES = ("f", "h", "jac_f_x", "jac_f_w", "jac_h_x", "jac_h_w")


class Tracer:
    """Records spans of one traced pass; install() and uninstall() bracket it."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, window id)
        self.leaves = {}       # (parent span id, caller, name) -> [calls, seconds]
        self.totals = {}       # name -> [calls, seconds, self seconds]
        self.values = {}       # observed quantities: points, draws, bytes, sizes
        self._stack = [[0.0, None, None, "root"]]   # child seconds, span id, window id, name
        self._next_id = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def maximum(self, key, amount):
        self.values[key] = max(self.values.get(key, amount), amount)

    def wrap(self, name, fn, *, observe=None, window=False, hot=False):
        """Return fn wrapped to record a span (or a leaf aggregate when hot).

        observe(args, kwargs, result, seconds) runs after a call that
        returned; window=True makes the span the window id of its subtree.
        """
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1], parent[2], name]
            else:
                sid = tracer._next_id
                tracer._next_id += 1
                frame = [0.0, sid, sid if window else parent[2], name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[0]
                if hot:
                    agg = leaves.setdefault((parent[1], parent[3], name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                else:
                    spans.append((frame[1], name, t0, t1, parent[1], frame[2]))
            if observe is not None:
                observe(args, kwargs, result, dur)
            return result

        return traced

    # -- installing wrappers -----------------------------------------------

    def _patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self, models=()):
        """Rebind every traced name where the package looks it up.

        mhect.mhe imports the integrator functions and solve_mhe by name,
        mhect.integrate calls rk4_step as a module global, certify calls
        lmi_matrix, verify_certificate and geneig_max as module globals,
        analysis and cli hold their own bindings of what they import, and
        the package calls numpy.linalg functions through the module.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(mhe, "solve_mhe", "mhe.solve", window=True)
        for owner in (mhe, integrate):
            self._patch(owner, "rk4_step", "integrate.rk4_step", hot=True)
        self._patch(mhe, "rk4_step_with_jacobians", "integrate.rk4_jac", hot=True)
        self._patch(mhe, "integrate", "integrate.integrate")
        self._patch(mhe, "output_along", "integrate.output_along")
        self._patch(np.linalg, "solve", "linalg.solve", observe=self._observe_solve)
        for fn in ("eigvalsh", "cholesky", "inv"):
            self._patch(np.linalg, fn, f"linalg.{fn}", hot=True)
        self._patch(certify, "lmi_matrix", "certify.lmi_matrix")
        self._patch(certify, "verify_certificate", "certify.verify",
                    observe=self._observe_verify)
        self._patch(certify, "synthesize_certificate", "certify.synthesize",
                    observe=self._observe_synth)
        for owner in (certify, analysis):
            self._patch(owner, "geneig_max", "certify.geneig_max")
        self._patch(cli, "audit_run", "analysis.audit")
        self._patch(analysis, "theorem1_bound", "analysis.theorem1")
        self._patch(analysis, "prop3_bound", "analysis.prop3")
        self._patch(cli, "generate_disturbance", "cli.disturbance",
                    observe=self._observe_disturbance)
        self._patch(cli, "_write_run_outputs", "cli.write", observe=self._observe_write)
        self._patch(svgplot, "line_plot", "svgplot.line_plot")
        factory = cli.batch_reactor
        self._patches.append((cli, "batch_reactor", factory))
        cli.batch_reactor = lambda: self._wrap_model(factory())
        for model in models:
            self._wrap_model(model)

    def _wrap_model(self, model):
        for attr in MODEL_CALLABLES:
            name = "sysmodel.jac" if attr.startswith("jac") else f"sysmodel.{attr}"
            self._patch(model, attr, name, hot=True)
        return model

    def uninstall(self):
        """Restore every rebound name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers -----------------------------------------------------------

    def _observe_solve(self, args, kwargs, result, dur):
        self.maximum("linalg.solve_n_max", int(np.shape(args[0])[-1]))

    def _observe_verify(self, args, kwargs, result, dur):
        self.add("certify.verify_points", result.n_points)

    def _observe_synth(self, args, kwargs, result, dur):
        mode, grid = args[2], args[3]
        kind = "joint" if isinstance(mode, str) else "fixed"
        where = "vertices" if grid.vertices_only else "grid"
        self.add(f"certify.synth_{kind}_{where}_s", dur)

    def _observe_disturbance(self, args, kwargs, result, dur):
        # one uniform draw per piece and coordinate
        self.add("cli.draws", result.values.size)

    def _observe_write(self, args, kwargs, result, dur):
        out_dir = args[2]
        self.add("cli.bytes_written", sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)))

    # -- output ----------------------------------------------------------------

    def to_dict(self):
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "window"],
            "spans": self.spans,
            "leaf_fields": ["parent", "caller", "name", "calls", "seconds"],
            "leaves": [[p, c, n, v[0], v[1]] for (p, c, n), v in self.leaves.items()],
            "totals": {k: {"calls": v[0], "seconds": v[1], "self_seconds": v[2]}
                       for k, v in self.totals.items()},
            "values": self.values,
        }
