import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import mhect.certify
from mhect import (DetectabilityCertificate, FixedQR, GridSpec, SdpOptions, SystemModel,
                   batch_reactor, contraction_rate, geneig_max, integrate, lmi_matrix,
                   load_certificate, min_horizon, model_from_dict, save_certificate,
                   synthesize_certificate, verify_certificate)
from mhect.certify import (MU0, _BarrierSDP, _check_sym_pd, _distinct_points, _distinct_rows,
                           _sym_basis, _synthesis_problem, grid_points)
from mhect.cli import bench_certificate
from mhect.errors import ConfigurationError, HorizonError, InfeasibleError
from mhect.rng import SplitMix64
from tests.conftest import CUBIC, Q_BENCH, R_BENCH, VERTS, const_jac, older_certificate_file

GOLDEN = (-3.0 + math.sqrt(5.0)) / 2.0  # max eig of [[-2, 1], [1, -1]]


def _term(coeff, x_exp, w_exp):
    return {"coeff": coeff, "x_exp": x_exp, "w_exp": w_exp}


def _scalar_spec(f, h, X=((-1.0, 1.0),)):
    """A file-built model with n = q = p = 1 on X and W = [-1, 1]."""
    return model_from_dict({"state_dim": 1, "dist_dim": 1, "output_dim": 1, "f": [f], "h": [h],
                            "X": X, "W": [[-1.0, 1.0]]})


def scalar_model(X=((-1.0, 1.0),)):
    # x' = -x + w, y = x: A = -1, B = 1, C = 1, D = 0
    return _scalar_spec([_term(-1.0, [1], [0]), _term(1.0, [0], [1])], [_term(1.0, [1], [0])], X)


# ---------------------------------------------------------------------------
# the pointwise inequality

def test_inequality_block_scalar_example():
    m = scalar_model()
    x, w = np.zeros(1), np.zeros(1)
    M = lmi_matrix(m, np.eye(1), np.eye(1), np.eye(1), 1.0, x, w)
    assert np.allclose(M, [[-2.0, 1.0], [1.0, -1.0]])
    assert np.linalg.eigvalsh(M)[-1] == pytest.approx(GOLDEN, abs=1e-14)

    # a faster required decay flips the sign: kappa = 3 makes the block indefinite
    M3 = lmi_matrix(m, np.eye(1), np.eye(1), np.eye(1), 3.0, x, w)
    assert np.allclose(M3, [[0.0, 1.0], [1.0, -1.0]])
    assert np.linalg.eigvalsh(M3)[-1] == pytest.approx((-1.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)


def test_inequality_monotone_in_decay_rate():
    m = scalar_model()
    x, w = np.zeros(1), np.zeros(1)
    eigs = [np.linalg.eigvalsh(lmi_matrix(m, np.eye(1), np.eye(1), np.eye(1), kappa, x, w))[-1]
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
        w = rng.uniforms((3,), -0.1, 0.1)
        W = {"P": rand_sym(2), "Q": rand_sym(3), "R": rand_sym(1)}
        full = lmi_matrix(reactor, W["P"], W["Q"], W["R"], kappa, x, w)
        scale = np.abs(full).max()
        for name in ("P", "Q", "R"):
            d = W[name].shape[0]
            mats = _sym_basis(d)
            # coordinates: the diagonal, then the upper off-diagonal entries
            z = np.concatenate([np.diag(W[name]), W[name][np.triu_indices(d, 1)]])
            rest = dict(W, **{name: np.zeros((d, d))})
            total = lmi_matrix(reactor, rest["P"], rest["Q"], rest["R"], kappa, x, w)
            for zk, E in zip(z, mats):
                unit = {k: np.zeros_like(v) for k, v in W.items()}
                unit[name] = E
                total = total + zk * lmi_matrix(reactor, unit["P"], unit["Q"], unit["R"],
                                                kappa, x, w)
            assert np.abs(total - full).max() <= 1e-12 * scale


def test_verify_scalar_certificate():
    m = scalar_model()
    cert = DetectabilityCertificate(
        np.eye(1), np.eye(1), np.eye(1), math.exp(-1.0))
    rep = verify_certificate(m, cert, VERTS)
    assert rep.passed and rep.mode == "vertices" and rep.n_points == 4
    assert rep.max_eig == pytest.approx(GOLDEN, abs=1e-12)

    tight = DetectabilityCertificate(
        np.eye(1), np.eye(1), np.eye(1), math.exp(-3.0))
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


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_verify_refuses_a_tolerance_that_is_not_finite(reactor, tol):
    # unit weights peak at +1.248 on the vertices: an infinite tolerance
    # would pass them, and a nan one fail them as if they were checked
    cert = DetectabilityCertificate(np.eye(2), np.eye(3), np.eye(1), 0.4)
    with pytest.raises(ConfigurationError, match=f"verification tolerance {tol} must be finite"):
        verify_certificate(reactor, cert, VERTS, tol_psd=tol)


@pytest.mark.parametrize("X", [[[0.6, 5.0]] * 2, [[0.1, 6.0]] * 2], ids=["inside-X", "past-X"])
def test_verify_runs_on_the_models_boxes_whatever_domain_a_file_stored(tmp_path, reactor, X):
    # an older file's domain is not used, whether it lies inside X and leaves
    # out the failing corner x = (0.1, 0.1) or reaches past X: the check runs on X
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(older_certificate_file(X=X)))
    rep = verify_certificate(reactor, load_certificate(str(path)), VERTS, tol_psd=1e-6)
    assert not rep.passed and rep.max_eig == pytest.approx(6.0880638968054e-05, abs=1e-10)
    assert rep.worst_x.tolist() == [0.1, 0.1]


def test_grid_points_modes(reactor):
    pts, mode = grid_points(reactor, GridSpec(x_points=3, w_points=3))
    assert mode == "grid" and [v.shape for v in pts] == [(9 * 27, 2), (9 * 27, 3)]
    assert reactor.vertex_blocker is None  # A, B affine in x1; C, D constant
    pts, mode = grid_points(reactor, VERTS)
    assert mode == "vertices" and [v.shape for v in pts] == [(32, 2), (32, 3)]
    # vertex mode is the two-point grid: every corner once
    assert sorted(map(tuple, pts[0][::8])) == [(0.1, 0.1), (0.1, 5.0), (5.0, 0.1), (5.0, 5.0)]
    assert len(np.unique(pts[1], axis=0)) == 8 and np.all(np.abs(pts[1]) == 0.1)
    with pytest.raises(ConfigurationError, match="cannot grid an unbounded axis"):
        grid_points(scalar_model(X=[[0.0, None]]), VERTS)
    # the model's exponents decide, whatever affinity_asserted says: the cubic
    # term is refused, the same spec with its coefficient zeroed is not, and a
    # hand-built model carries no exponents to decide by
    hand_built = SystemModel(1, 1, 1, lambda x, w: -x, lambda x, w: x.copy(),
                             jac_f_x=const_jac(-1.0), jac_f_w=const_jac(0.0),
                             jac_h_x=const_jac(1.0), jac_h_w=const_jac(0.0),
                             X=[[-1.0, 1.0]], W=[[-1.0, 1.0]])
    for grid in (VERTS, GridSpec(vertices_only=True, affinity_asserted=True)):
        with pytest.raises(ConfigurationError, match=re.escape("(f[0] term 1)")):
            grid_points(model_from_dict(CUBIC), grid)
        with pytest.raises(ConfigurationError, match="hand-built callbacks carry no exponents"):
            grid_points(hand_built, grid)
    zeroed = copy.deepcopy(CUBIC)
    zeroed["f"][0][1]["coeff"] = 0.0
    assert grid_points(model_from_dict(zeroed), VERTS)[1] == "vertices"


@st.composite
def _vertex_case(draw):
    """A small polynomial spec (n <= 3, q, p <= 2, degree <= 3) on drawn
    boxes, with positive definite weights and a decay rate.  One degree cap
    for f and one for h keep accepted and refused specs both common; zero
    coefficients are common too."""
    n, q, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    coeff = st.floats(-3.0, 3.0).map(lambda c: 0.0 if abs(c) < 0.5 else c)

    def rows(count, degree):
        def term():
            var = st.integers(0, n + q - 1)
            size = draw(st.integers(0, degree))
            e = np.bincount(draw(st.lists(var, min_size=size, max_size=size)),
                            minlength=n + q).tolist()
            return _term(draw(coeff), e[:n], e[n:])
        return [[term() for _ in range(draw(st.integers(1, 3)))] for _ in range(count)]

    def box(d):
        lo = draw(arrays(float, d, elements=st.floats(-2.0, 1.5)))
        return np.column_stack([lo, lo + draw(arrays(float, d, elements=st.floats(0.1, 2.0)))])

    def pd(d):
        G = draw(arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
        return G @ G.T + 0.1 * np.eye(d)

    spec = {"state_dim": n, "dist_dim": q, "output_dim": p,
            "f": rows(n, draw(st.integers(1, 3))), "h": rows(p, draw(st.integers(1, 2))),
            "X": box(n).tolist(), "W": box(q).tolist()}
    return spec, pd(n), pd(q), pd(p), draw(st.floats(0.05, 0.95))


def _partials(term, z):
    """The monomial term's partial derivatives at z, by the power rule."""
    c, e = term["coeff"], np.array(term["x_exp"] + term["w_exp"])
    return np.array([c * e[j] * np.prod(z ** np.maximum(e - (np.arange(len(e)) == j), 0))
                     for j in range(len(e))])


@given(_vertex_case())
@example((CUBIC, np.eye(1), np.eye(2), np.eye(1), 0.3))
def test_vertex_checks_are_sufficient_where_the_exponents_allow(case):
    # accepted: the vertex maximum bounds the maximum at 10^4 uniform interior
    # points; refused: the named term's partial derivatives really are
    # non-affine in some variable (f) or non-constant (h), checked by finite
    # differences on the integer lattice.  The cubic model, whose unit weights
    # peak at x = 0 above every vertex, is one fixed case.
    spec, P, Q, R, lam = case
    model = model_from_dict(spec)
    cert = DetectabilityCertificate(P, Q, R, lam)
    try:
        rep = verify_certificate(model, cert, VERTS)
    except ConfigurationError as e:
        kind, r, t = re.search(r"\((f|h)\[(\d+)\] term (\d+)\)", str(e)).groups()
        term = spec[kind][int(r)][int(t)]
        z, unit = np.ones(model.n + model.q), np.eye(model.n + model.q)
        if kind == "f":
            diffs = [_partials(term, z + 2 * u) - 2 * _partials(term, z + u) + _partials(term, z)
                     for u in unit]
        else:
            diffs = [_partials(term, z + u) - _partials(term, z) for u in unit]
        assert np.any(diffs)
        return
    rng = np.random.default_rng(0)
    X, W = model.X, model.W
    x = X[:, 0] + (X[:, 1] - X[:, 0]) * rng.random((10_000, model.n))
    w = W[:, 0] + (W[:, 1] - W[:, 0]) * rng.random((10_000, model.q))
    blocks = lmi_matrix(model, P, Q, R, -math.log(lam), x, w)
    scale = max(1.0, np.abs(blocks).max())
    assert rep.max_eig >= np.linalg.eigvalsh(blocks)[:, -1].max() - 1e-9 * scale


def _polynomial_model(f, h):
    """A file-built model with n = 2, q = 1, p = 1 on X = [-1, 1]^2, W = [-1, 1]."""
    return model_from_dict({"state_dim": 2, "dist_dim": 1, "output_dim": 1, "f": f, "h": h,
                            "X": [[-1.0, 1.0]] * 2, "W": [[-1.0, 1.0]]})


def _oracle_case(name):
    """(model, certificate, grid) of an oracle case for verify_certificate."""
    if name == "reactor":
        return batch_reactor(), bench_certificate(), GridSpec(x_points=20, w_points=2)
    if name == "all_distinct":
        # every Jacobian entry group moves with its own coordinate: no point repeats
        model = _polynomial_model(
            [[_term(-1.0, [1, 0], [0]), _term(0.3, [2, 0], [0]), _term(0.2, [0, 1], [1])],
             [_term(-1.0, [0, 1], [0]), _term(0.1, [1, 1], [0]), _term(1.0, [0, 0], [2])]],
            [[_term(1.0, [1, 0], [0]), _term(0.5, [0, 1], [1])]])
        grid = GridSpec(x_points=4, w_points=3)
    else:
        # f = (x1^2 / 2, w - x2), y = x1 + x2: the block grows with x1 alone, so
        # the maximum is reached at all 9 points with x1 = 1, none of them first
        model = _polynomial_model([[_term(0.5, [2, 0], [0])],
                                   [_term(-1.0, [0, 1], [0]), _term(1.0, [0, 0], [1])]],
                                  [[_term(1.0, [1, 0], [0]), _term(1.0, [0, 1], [0])]])
        grid = GridSpec(x_points=3, w_points=3)
    return model, DetectabilityCertificate(
        np.eye(model.n), np.eye(model.q), np.eye(model.p), 0.5), grid


@pytest.mark.parametrize("name", ["reactor", "all_distinct", "ties"])
def test_verify_matches_every_point_by_brute_force(name):
    model, cert, grid = _oracle_case(name)
    points, mode = grid_points(model, grid)
    eigs = np.linalg.eigvalsh(lmi_matrix(model, cert.P1, cert.Q, cert.R, -math.log(cert.lam),
                                         *points))[:, -1]
    k = int(np.argmax(eigs))
    rep = verify_certificate(model, cert, grid, tol_psd=1e-4)
    assert rep.max_eig.hex() == float(eigs[k]).hex()
    assert rep.passed == (eigs[k] <= 1e-4) and rep.n_points == len(eigs) and rep.mode == mode
    for got, want in zip((rep.worst_x, rep.worst_w), points):
        assert got.tobytes() == want[k].tobytes()
    distinct = len(_distinct_points(model, points)[0])
    if name == "reactor":
        assert distinct == 20           # the inequality depends on x1 only
    elif name == "all_distinct":
        assert distinct == len(eigs) == 48
    else:
        assert np.count_nonzero(eigs == eigs[k]) == 9 and k == 18


def test_reactor_grid_verification_evaluates_distinct_points_only(reactor, ref_cert,
                                                                   monkeypatch):
    # a work count in place of a timing gate: 3200 grid points, 20 distinct x1
    evaluated = []
    block = mhect.certify.lmi_matrix

    def counted(model, P, Q, R, kappa, x, w):
        evaluated.append(len(x))
        return block(model, P, Q, R, kappa, x, w)

    monkeypatch.setattr(mhect.certify, "lmi_matrix", counted)
    rep = verify_certificate(reactor, ref_cert, GridSpec(x_points=20, w_points=2))
    assert rep.n_points == 3200 and sum(evaluated) <= 20


@given(st.data())
def test_distinct_rows_match_numpy_unique(data):
    # a small value pool plants duplicates; -0.0 and 0.0 are one value, as
    # in np.unique, which compares rows as floats
    ncols = data.draw(st.integers(1, 4))
    pool = st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324, 3e300])
    base = data.draw(arrays(float, (data.draw(st.integers(1, 6)), ncols), elements=pool))
    rows = base[data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=30))]
    flip = data.draw(arrays(bool, rows.shape))
    rows = np.where(flip & (rows == 0.0), -rows, rows)
    want = np.sort(np.unique(rows, axis=0, return_index=True)[1])
    assert np.array_equal(_distinct_rows(rows), want)


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

def test_certificate_invariants():
    P = np.eye(2)
    unequal = dict(older_certificate_file(), P2=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigurationError, match="P2 must equal P1"):
        DetectabilityCertificate.from_dict(unequal)
    with pytest.raises(ConfigurationError):
        DetectabilityCertificate(P, np.eye(3), np.eye(1), 1.2)
    with pytest.raises(ConfigurationError):
        DetectabilityCertificate(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(3), np.eye(1), 0.4)
    # refused before the symmetry check, whose inf - inf would read as nan
    with pytest.raises(ConfigurationError, match="P has a non-finite entry"):
        _check_sym_pd(np.array([[1.0, np.inf], [np.inf, 1.0]]), "P")
    with pytest.raises(ConfigurationError, match="Q has a non-finite entry"):
        DetectabilityCertificate(P, np.diag([np.inf, 1.0, 1.0]), np.eye(1), 0.4)
    for lam in (0.0, -0.5, math.nan):
        with pytest.raises(ConfigurationError, match="lambda must lie strictly inside"):
            DetectabilityCertificate(P, np.eye(3), np.eye(1), lam)
    c = DetectabilityCertificate(P, np.eye(3), np.eye(1), 0.4)
    assert c.to_dict()["P1"] == c.to_dict()["P2"]
    # kappa is derived from lambda; a file that stores it must agree to 1e-12
    assert list(c.to_dict()) == ["P1", "P2", "Q", "R", "lambda", "verification"]
    older = older_certificate_file()
    assert DetectabilityCertificate.from_dict(dict(older, kappa=-math.log(0.4) + 9e-13)).lam == 0.4
    with pytest.raises(ConfigurationError, match="kappa must equal"):
        DetectabilityCertificate.from_dict(dict(older, kappa=-math.log(0.4) + 2e-12))


def test_certificate_json_round_trip(tmp_path, reactor, synth_cert):
    path = tmp_path / "cert.json"
    save_certificate(synth_cert, str(path))
    back = load_certificate(str(path))
    assert np.array_equal(back.P1, synth_cert.P1)
    assert back.to_dict()["P2"] == synth_cert.to_dict()["P2"]
    assert np.array_equal(back.Q, synth_cert.Q)
    assert np.array_equal(back.R, synth_cert.R)
    assert back.lam == synth_cert.lam
    assert back.verification is not None
    assert back.verification.max_eig == synth_cert.verification.max_eig
    # the reloaded certificate still verifies
    assert verify_certificate(reactor, back, VERTS, tol_psd=1e-8).passed


def test_older_file_with_unbounded_domain_axes_loads(tmp_path, reactor, ref_cert):
    # the earlier format wrote an unbounded side as null; such a file loads,
    # and its stored domain changes nothing
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(older_certificate_file(X=[[0.0, None]], W=[[-1.0, 1.0]])))
    back = load_certificate(str(path))
    for name in ("P1", "P2", "Q", "R"):
        assert back.to_dict()[name] == ref_cert.to_dict()[name]
    assert back.lam == ref_cert.lam and back.verification is None
    assert (verify_certificate(reactor, back, VERTS).to_dict()
            == verify_certificate(reactor, ref_cert, VERTS).to_dict())


# ---------------------------------------------------------------------------
# synthesis

def test_synthesis_fixed_weights(reactor, synth_cert):
    rep = synth_cert.verification
    assert rep is not None and rep.passed
    assert rep.max_eig < -1e-6            # strictly feasible, not boundary-grazing
    assert np.array_equal(synth_cert.Q, Q_BENCH)
    assert np.array_equal(synth_cert.R, R_BENCH)
    assert synth_cert.to_dict()["P1"] == synth_cert.to_dict()["P2"]
    assert np.linalg.eigvalsh(synth_cert.P1)[0] > 0.0
    # independent re-check, not just the attached report
    rep2 = verify_certificate(reactor, synth_cert, VERTS, tol_psd=1e-8)
    assert rep2.passed and rep2.max_eig == pytest.approx(rep.max_eig, abs=1e-12)


def test_synthesis_fixed_weights_match_reference_digits(synth_cert):
    # the Newton steps' last bits depend on the order the barrier sums its
    # blocks in, so the pinned digits of P hold to 1e-7, not bit for bit.
    # P is the first barrier iterate with t < -FEAS_STOP, so these digits
    # follow the barrier's centring rule, not the paper
    P_ref = np.array([[3.66987835203762, 3.434770814261636],
                      [3.434770814261636, 3.217300182809284]])
    assert np.abs(synth_cert.P1 - P_ref).max() <= 1e-7 * max(1.0, np.abs(P_ref).max())


@pytest.mark.parametrize("mode", ["fixed", "joint"])
@pytest.mark.parametrize("mu", [1.0, 0.01])
def test_barrier_newton_system_matches_finite_differences(reactor, mode, mu):
    points, _ = grid_points(reactor, VERTS)
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


def _per_group(sdp):
    """The stacked barrier split back into its groups, each block cut to its
    own size: the inequality blocks (nonzero t basis matrix) as one group,
    then each positivity block alone.  Checks that every padded block holds
    I in K0 and 0 in K past its size."""
    K0, K = sdp.K0, sdp.K
    s = K0.shape[-1]
    ineq = np.flatnonzero(np.any(K[:, -1] != 0.0, axis=(1, 2)))
    groups = []
    for g in [ineq] + [[b] for b in range(len(K0)) if b not in ineq]:
        d = 1 + int(np.flatnonzero(np.any(K[g] != 0.0, axis=(0, 1, 3)))[-1])
        assert all(np.array_equal(K0[b, d:, d:], np.eye(s - d)) for b in g)
        assert not (K0[g][:, :d, d:].any() or K0[g][:, d:, :d].any())
        assert not (K[g][..., :d, d:].any() or K[g][..., d:, :].any())
        groups.append((K0[g][:, :d, :d], K[g][..., :d, :d]))
    return groups


class _PerGroupBarrier(_BarrierSDP):
    """The barrier before the stack: one Cholesky and one inverse per group
    of equally sized blocks, the group terms summed in order."""

    def __init__(self, K0, K):
        super().__init__(K0, K)
        self.groups = _per_group(self)

    def _slacks(self, y):
        return [K0 + np.einsum("k,bkij->bij", y, K) for K0, K in self.groups]

    def _fval(self, y, mu):
        logdet = 0.0
        for S in self._slacks(y):
            try:
                L = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                return math.inf
            logdet += 2.0 * float(np.sum(np.log(np.diagonal(L, axis1=1, axis2=2))))
        return y[-1] - mu * logdet

    def _newton_system(self, y, mu):
        grad = np.zeros(len(y))
        grad[-1] = 1.0
        hess = np.zeros((len(y), len(y)))
        for S, (_, K) in zip(self._slacks(y), self.groups):
            W = np.linalg.inv(S)[:, None] @ K
            grad -= mu * np.einsum("bkii->k", W)
            hess += mu * np.einsum("bkij,blji->kl", W, W)
        return grad, hess


@pytest.mark.parametrize("mode", ["fixed", "joint"])
@pytest.mark.parametrize("mu", [1.0, 0.01])
def test_stacked_barrier_matches_the_per_group_barrier(reactor, mode, mu):
    points, _ = grid_points(reactor, GridSpec(x_points=3, w_points=2))
    Q, R = (Q_BENCH, R_BENCH) if mode == "fixed" else (None, None)
    sdp, y0, _ = _synthesis_problem(reactor, -math.log(0.4), Q, R, points)
    ref = _PerGroupBarrier(sdp.K0, sdp.K)
    assert len(ref.groups) == (2 if mode == "fixed" else 4)
    rng = SplitMix64(17)
    for _ in range(5):
        y = y0 + np.append(rng.uniforms((len(y0) - 1,), -0.05, 0.05), 0.0)
        f, f_ref = sdp._fval(y, mu), ref._fval(y, mu)
        assert math.isfinite(f_ref) and abs(f - f_ref) <= 1e-12 * abs(f_ref)
        for got, want in zip(sdp._newton_system(y, mu), ref._newton_system(y, mu)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _synthesize_counting(monkeypatch, barrier, model, lam, mode, grid):
    """A synthesis with the given barrier class, and the number of Newton
    systems it formed."""
    calls = []

    class Counted(barrier):
        def _newton_system(self, y, mu):
            calls.append(mu)
            return super()._newton_system(y, mu)

    monkeypatch.setattr(mhect.certify, "_BarrierSDP", Counted)
    return synthesize_certificate(model, lam, mode, grid), len(calls)


# Newton systems formed by the per-group barrier in the benchmark's three
# syntheses: FixedQR on the vertices, joint on the vertices, FixedQR on the
# 3 x 2 grid
NEWTON_SYSTEMS = {0.3: (25, 17, 25), 0.4: (22, 16, 23), 0.5: (18, 16, 19)}


@pytest.mark.parametrize("lam", sorted(NEWTON_SYSTEMS))
def test_stacked_synthesis_takes_the_per_group_path(reactor, monkeypatch, lam):
    fixed = FixedQR(Q_BENCH, R_BENCH)
    cases = ((fixed, VERTS), ("joint", VERTS), (fixed, GridSpec(x_points=3, w_points=2)))
    for (mode, grid), count in zip(cases, NEWTON_SYSTEMS[lam]):
        cert, n = _synthesize_counting(monkeypatch, _BarrierSDP, reactor, lam, mode, grid)
        ref, n_ref = _synthesize_counting(monkeypatch, _PerGroupBarrier, reactor, lam, mode, grid)
        assert n == n_ref == count
        for a, b in ((cert.P1, ref.P1), (cert.Q, ref.Q), (cert.R, ref.R)):
            assert np.abs(a - b).max() <= 1e-8 * np.abs(b).max()


@pytest.mark.parametrize("lam", [0.3, 0.4, 0.5])
def test_synthesized_weights_keep_a_margin(reactor, lam):
    # synthesis stops at the first t < -FEAS_STOP, so the weights' margin is
    # where the centring left the barrier path: the benchmark's three
    # syntheses and joint synthesis on the 5 x 2 grid stay below -1e-4
    fixed = FixedQR(Q_BENCH, R_BENCH)
    for mode, grid in ((fixed, VERTS), ("joint", VERTS), (fixed, GridSpec(x_points=3, w_points=2)),
                       ("joint", GridSpec(x_points=5, w_points=2))):
        cert = synthesize_certificate(reactor, lam, mode, grid)
        rep = verify_certificate(reactor, cert, grid, tol_psd=SdpOptions().recheck_tol)
        assert rep.passed and rep.max_eig <= -1e-4


def test_synthesis_expands_the_grid_and_builds_the_certificate_once(reactor, monkeypatch):
    # a work count: the re-check runs on the points synthesis already expanded,
    # and the certificate is validated once, with its report attached
    grid = GridSpec(x_points=3, w_points=2)
    points, _ = grid_points(reactor, grid)
    calls = {"grid_points": 0, "__post_init__": 0}
    expand, post_init = mhect.certify.grid_points, DetectabilityCertificate.__post_init__

    def counted_grid(*args):
        calls["grid_points"] += 1
        return expand(*args)

    def counted_post_init(self):
        calls["__post_init__"] += 1
        post_init(self)

    monkeypatch.setattr(mhect.certify, "grid_points", counted_grid)
    monkeypatch.setattr(DetectabilityCertificate, "__post_init__", counted_post_init)
    cert = synthesize_certificate(reactor, 0.4, FixedQR(Q_BENCH, R_BENCH), grid)
    assert calls == {"grid_points": 1, "__post_init__": 1}
    assert cert.verification.passed and cert.verification.n_points == len(points[0]) == 72
    assert cert.verification.mode == "grid"


def test_synthesis_pads_the_stack_to_the_output_weight():
    # n = 1, q = 1, p = 3: R's positivity block (3 x 3) is larger than the
    # inequality blocks (2 x 2), so every block is padded to 3 x 3
    model = model_from_dict({
        "state_dim": 1, "dist_dim": 1, "output_dim": 3,
        "f": [[_term(-1.0, [1], [0]), _term(0.2, [2], [0]), _term(1.0, [0], [1])]],
        "h": [[_term(1.0, [1], [0])], [_term(1.0, [1], [0]), _term(1.0, [0], [1])],
              [_term(0.5, [2], [0])]],
        "X": [[-1.0, 1.0]], "W": [[-1.0, 1.0]]})
    grid = GridSpec(x_points=3, w_points=2)
    points, _ = grid_points(model, grid)
    sdp, _, _ = _synthesis_problem(model, -math.log(0.5), None, None, points)
    assert sdp.K0.shape[1:] == (3, 3)
    assert [K0.shape[-1] for K0, _ in _PerGroupBarrier(sdp.K0, sdp.K).groups] == [2, 1, 1, 3]
    cert = synthesize_certificate(model, 0.5, "joint", grid)
    assert cert.R.shape == (3, 3) and np.linalg.eigvalsh(cert.R)[0] > 0.0
    assert verify_certificate(model, cert, grid).passed


@pytest.mark.parametrize("mode", ["fixed", "joint"])
def test_synthesis_factors_the_stack_once_per_evaluation(reactor, monkeypatch, mode):
    # a work count in place of a timing gate: one Cholesky per objective
    # value, one inverse per Newton system, one inequality evaluation per problem
    calls = {"cholesky": 0, "inv": 0, "lmi_matrix": 0}
    per_call = {"_fval": [], "_newton_system": [], "_synthesis_problem": []}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    def measure(owner, name, inner):
        fn = getattr(owner, name)

        def measured(*args):
            before = calls[inner]
            try:
                return fn(*args)
            finally:
                per_call[name].append(calls[inner] - before)
        monkeypatch.setattr(owner, name, measured)

    for owner, name in ((np.linalg, "cholesky"), (np.linalg, "inv"),
                        (mhect.certify, "lmi_matrix")):
        count(owner, name)
    for owner, name, inner in ((_BarrierSDP, "_fval", "cholesky"),
                               (_BarrierSDP, "_newton_system", "inv"),
                               (mhect.certify, "_synthesis_problem", "lmi_matrix")):
        measure(owner, name, inner)
    mode = FixedQR(Q_BENCH, R_BENCH) if mode == "fixed" else mode
    synthesize_certificate(reactor, 0.4, mode, GridSpec(x_points=3, w_points=2))
    assert per_call["_synthesis_problem"] == [1]
    assert len(per_call["_fval"]) > 10 and set(per_call["_fval"]) == {1}
    assert len(per_call["_newton_system"]) > 10 and set(per_call["_newton_system"]) == {1}


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
    points, _ = grid_points(reactor, grid)
    sdp, _, _ = _synthesis_problem(reactor, -math.log(0.4), None, None, points)
    # inequality blocks are those whose t basis matrix is nonzero; one
    # positivity block each for P, Q and R follows them
    ineq = np.any(sdp.K[:, -1] != 0.0, axis=(1, 2))
    assert len(points[0]) == 675 and ineq.sum() == 5 and len(sdp.K0) == 5 + 3
    cert = synthesize_certificate(reactor, 0.4, "joint", grid)
    assert cert.verification.n_points == 675
    assert verify_certificate(reactor, cert, grid).passed


@pytest.mark.parametrize("mode", ["fixed", "joint"])
@pytest.mark.parametrize("grid", [VERTS, GridSpec(x_points=3, w_points=3)],
                         ids=["vertices", "grid3"])
def test_synthesis_on_distinct_points_is_bit_identical(reactor, monkeypatch, mode, grid):
    """Certificates equal those built with every grid point kept, and the
    barrier evaluates its objective once per trial and once per stage start."""
    mode = FixedQR(Q_BENCH, R_BENCH) if mode == "fixed" else mode
    calls = []
    fval = _BarrierSDP._fval

    def counted(self, y, mu):
        calls.append((y.tobytes(), mu))
        return fval(self, y, mu)

    monkeypatch.setattr(_BarrierSDP, "_fval", counted)
    cert = synthesize_certificate(reactor, 0.4, mode, grid)
    # no point is evaluated twice at one barrier weight: the accepted trial's
    # value is carried, and each stage after the first starts where the
    # previous one accepted its last trial
    assert len(set(calls)) == len(calls) and calls[0][1] == MU0
    for (_, mu_prev), (y, mu) in zip(calls, calls[1:]):
        if mu != mu_prev:
            assert (y, mu_prev) in calls

    monkeypatch.setattr(mhect.certify, "_distinct_points", lambda model, points: points)
    every = synthesize_certificate(reactor, 0.4, mode, grid)
    for a, b in ((cert.P1, every.P1), (cert.Q, every.Q), (cert.R, every.R)):
        assert a.tobytes() == b.tobytes()
    assert cert.verification.to_dict() == every.verification.to_dict()


@pytest.mark.parametrize("lam", [0.3, 0.4, 0.5])
def test_synthesis_joint_on_the_five_point_grid(reactor, lam):
    grid = GridSpec(x_points=5, w_points=2)
    cert = synthesize_certificate(reactor, lam, "joint", grid)
    assert cert.verification.passed and cert.verification.n_points == 200
    assert verify_certificate(reactor, cert, grid).passed


def test_synthesis_scalar_model():
    m = scalar_model()
    cert = synthesize_certificate(m, math.exp(-1.0), FixedQR(np.eye(1), np.eye(1)), VERTS)
    assert cert.verification.passed


def test_synthesis_infeasible_model():
    # x' = x (unstable), y = w: the output carries no state information, so
    # the top-left block (2 + kappa) P stays positive for every P > 0
    m = _scalar_spec([_term(1.0, [1], [0])], [_term(1.0, [0], [1])])
    with pytest.raises(InfeasibleError) as exc:
        synthesize_certificate(m, 0.5, FixedQR(np.eye(1), np.eye(1)), VERTS)
    # the message names the worst eigenvalue and its point (x, w)
    found = re.search(r"eigenvalue (\S+) at x = (.+), w = (.+)$", str(exc.value))
    assert float(found[1]) > 0.0
    assert all(part.startswith("[") for part in found.groups()[1:])


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


# ---------------------------------------------------------------------------
# horizon design

def test_min_horizon_values(ref_cert):
    assert min_horizon(ref_cert, 0.19) == pytest.approx(1.70294159473206, abs=1e-11)
    assert min_horizon(ref_cert, 0.0) == pytest.approx(-math.log(4.0) / math.log(0.4), abs=1e-12)
    with pytest.raises(ConfigurationError):
        min_horizon(ref_cert, -0.1)


def test_contraction_rate_values(ref_cert):
    rho = contraction_rate(ref_cert, 2.0, 0.19)
    assert rho == pytest.approx(0.8603790379180039, abs=1e-12)
    assert abs(rho - 0.86) < 0.005
    # defining identity: rho^(T - delta_bar) = 4 * lambda^(T - delta_bar)
    assert rho ** (2.0 - 0.19) == pytest.approx(4.0 * 0.4 ** (2.0 - 0.19), rel=1e-12)
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
    P, Q, R, kappa = synth_cert.P1, synth_cert.Q, synth_cert.R, -math.log(synth_cert.lam)
    rng = SplitMix64(2024)
    dt, steps = 0.01, 25
    checked = 0
    for _ in range(50):
        chi1 = 0.1 + 4.9 * rng.uniforms((2,))
        chi2 = 0.1 + 4.9 * rng.uniforms((2,))
        w1 = -0.1 + 0.2 * rng.uniforms((steps, 3))
        w2 = -0.1 + 0.2 * rng.uniforms((steps, 3))
        from mhect import PiecewiseSignal
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
            assert dv <= rhs + 1e-6 * max(1.0, abs(rhs))
            checked += 1
    assert checked > 1000
