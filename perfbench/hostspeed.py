"""Host speed, measured by a fixed reference computation between operations.

On a shared host, other processes slow the benchmark by a factor that
changes over seconds to minutes; on the two-core host this was built on, a
fixed computation took anything from 1.0 to 2.2 times its best time, and
whole minutes ran at either end.  No statistic of one operation's own runs
removes that.  So the timed run also times a fixed reference computation
every half second, between operations, and scales each operation time by
REFERENCE_S / (median of the NEAREST reference times nearest to it): a
scaled time reads as it would on a host where the reference takes
REFERENCE_S.  Other processes only ever add time, so a time measured
while the reference ran faster than REFERENCE_S is left as it is; on that
host the reference sometimes ran at 21 ms while the package's operations
ran no faster than at 30 ms.

The reference does work like the package's (RK4 steps on a small state in
a Python loop, small symmetric eigenvalue problems, a dense
normal-equations solve) and calls none of its code, so a change to the
package cannot move it.  Of several such computations tried, this mix
tracked the package's operations best.
"""

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.030     # the reference's wall and CPU time on that host when quiet
EVERY_S = 0.5           # least time between two reference runs
NEAREST = 5             # reference runs, nearest in time, whose median scales a time


class HostSpeed:
    """Reference runs of one timed run, and the scale they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1200, 6))
        self._sym = [np.eye(6) + 0.01 * np.outer(r, r) for r in v]
        self._J = rng.standard_normal((600, 400))
        self._r = rng.standard_normal(600)
        self.times, self.walls, self.cpus = [], [], []    # midpoint, wall and CPU time
        self._last = -math.inf
        self._result = None

    @staticmethod
    def _rhs(x):
        return np.array([-2.0 * x[0] * x[0] + x[1], x[0] * x[0] - x[1]])

    @staticmethod
    def _jac(x):
        return np.array([[-4.0 * x[0], 1.0], [2.0 * x[0], -1.0]])

    def _reference(self):
        # RK4 steps with a sensitivity matrix, as in a window's integration
        x, G, dt = np.array([1.0, 0.5]), np.eye(2), 1e-3
        for _ in range(700):
            k1 = self._rhs(x)
            k2 = self._rhs(x + 0.5 * dt * k1)
            k3 = self._rhs(x + 0.5 * dt * k2)
            k4 = self._rhs(x + dt * k3)
            G = G + dt * (self._jac(x) @ G)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # small symmetric eigenvalue problems, as in a certificate check
        top = sum(np.linalg.eigvalsh(M)[-1] for M in self._sym)
        # a dense normal-equations solve, as in a Levenberg-Marquardt step
        J = self._J
        step = np.linalg.solve(J.T @ J + np.eye(J.shape[1]), J.T @ self._r)
        return float(step @ step) + float(x @ x) + float(G.sum()) + float(top)

    def measure(self):
        """Time one reference run; its result must never change."""
        t0, c0 = time.perf_counter(), time.process_time()
        result = self._reference()
        self._last = time.perf_counter()
        self.times.append(0.5 * (t0 + self._last))
        self.walls.append(self._last - t0)
        self.cpus.append(time.process_time() - c0)
        if self._result is None:
            self._result = result
        elif result != self._result:
            raise RuntimeError("the reference computation changed its result")

    def measure_if_due(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    def scale(self, t):
        """(wall, CPU) factors that turn times measured around t into
        reference-host times."""
        near = np.argsort(np.abs(np.asarray(self.times) - t), kind="stable")[:NEAREST]
        return (min(1.0, REFERENCE_S / float(np.median(np.asarray(self.walls)[near]))),
                min(1.0, REFERENCE_S / float(np.median(np.asarray(self.cpus)[near]))))
