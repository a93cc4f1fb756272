import numpy as np
import pytest
from hypothesis import settings

from mhect import FixedQR, GridSpec, batch_reactor, synthesize_certificate
from mhect.cli import bench_certificate

Q_BENCH = np.diag([1000.0, 1000.0, 100.0])
R_BENCH = np.array([[100.0]])
VERTS = GridSpec(vertices_only=True)
# x' = -0.1 x - 3 x^3 + w1, y = w2: the Jacobian -0.1 - 9 x^2 peaks inside
# X, so its vertices miss the inequality's maximum and vertex mode is refused
CUBIC = {"state_dim": 1, "dist_dim": 2, "output_dim": 1,
         "f": [[{"coeff": -0.1, "x_exp": [1], "w_exp": [0, 0]},
                {"coeff": -3.0, "x_exp": [3], "w_exp": [0, 0]},
                {"coeff": 1.0, "x_exp": [0], "w_exp": [1, 0]}]],
         "h": [[{"coeff": 1.0, "x_exp": [0], "w_exp": [0, 1]}]],
         "X": [[-1.0, 1.0]], "W": [[-0.1, 0.1]] * 2}

# the same examples on every run, and no replay of a local example database
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def older_certificate_file(**domain):
    """The reference weights as a certificate file of the earlier format,
    which also stored kappa = -ln(lambda) and, as domain, the boxes it was
    checked on; keyword boxes replace the reactor's."""
    return {"P1": [[4.009, 3.768], [3.768, 3.549]], "P2": [[4.009, 3.768], [3.768, 3.549]],
            "Q": [[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0], [0.0, 0.0, 100.0]], "R": [[100.0]],
            "lambda": 0.4, "kappa": 0.916290731874155,
            "domain": {"X": [[0.1, 5.0], [0.1, 5.0]], "U": [], "W": [[-0.1, 0.1]] * 3, **domain},
            "verification": None}


def const_jac(value):
    """Constant Jacobian callback of a model with n = q = p = 1, shaped
    (..., 1, 1) for states of shape (..., 1)."""
    return lambda x, w: np.full(x.shape + (1,), value)


@pytest.fixture(scope="session")
def reactor():
    return batch_reactor()


@pytest.fixture(scope="session")
def ref_cert():
    """The published reference weights for the reactor benchmark."""
    return bench_certificate()


@pytest.fixture(scope="session")
def synth_cert(reactor):
    """A certificate synthesized from scratch; shared because the solve is
    the slowest fixture in the suite."""
    return synthesize_certificate(reactor, 0.4, FixedQR(Q_BENCH, R_BENCH), VERTS)
