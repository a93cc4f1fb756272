import copy
import json
import math
import pathlib
import re
import shlex
from types import SimpleNamespace

import numpy as np
import pytest

import mhect.mhe
from mhect import cli
from mhect.cli import (DisturbanceSpec, _parse_diag, bench_certificate, bench_times,
                       generate_disturbance, main)
from mhect import errors
from mhect.errors import (ConfigurationError, DivergenceError, HorizonError,
                          InfeasibleError)
from mhect.certify import (DetectabilityCertificate, contraction_rate, load_certificate,
                           save_certificate)
from mhect.rng import SplitMix64
from tests.conftest import CUBIC, older_certificate_file


DROP = object()   # an override that removes the field


def scenario(tmp_path, **overrides):
    cfg = {
        "model": "batch_reactor",
        "certificate": {"P": [[4.009, 3.768], [3.768, 3.549]],
                        "Q": [[1000.0, 0, 0], [0, 1000.0, 0], [0, 0, 100.0]],
                        "R": [[100.0]], "lambda": 0.4},
        "T": 2.0,
        "dt": 0.01,
        "t_sim": 1.0,
        "chi": [3.0, 1.0],
        "chi_hat": [0.1, 4.5],
        "sampler": {"type": "equidistant", "delta": 0.1},
        "disturbance": {"bound": 0.05, "seed": 3},
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not DROP}))
    return str(path)


# ---------------------------------------------------------------------------
# disturbance generation

def test_disturbance_is_seeded_and_bounded():
    spec = DisturbanceSpec([[-0.1, 0.1]] * 3, 0.01, 5.0)
    w1 = generate_disturbance(spec, seed=1)
    w2 = generate_disturbance(spec, seed=1)
    w3 = generate_disturbance(spec, seed=2)
    assert w1.values.shape == (500, 3)
    assert w1.values.tobytes() == w2.values.tobytes()
    assert w1.values.tobytes() != w3.values.tobytes()
    assert np.abs(w1.values).max() <= 0.1
    assert np.abs(w1.values).max() > 0.09   # actually exercises the box

    lop = generate_disturbance(DisturbanceSpec([[0.0, 0.2], [-0.3, -0.1]], 0.1, 1.0), 4)
    assert np.all(lop.values[:, 0] >= 0.0) and np.all(lop.values[:, 0] <= 0.2)
    assert np.all(lop.values[:, 1] >= -0.3) and np.all(lop.values[:, 1] <= -0.1)


def test_disturbance_matches_scalar_stream():
    # piece-major, coordinate-minor: one splitmix64 draw per (piece, coordinate)
    box = [[0.0, 0.2], [-0.3, -0.1], [-1.0, 3.0]]
    w = generate_disturbance(DisturbanceSpec(box, 0.1, 2.0), 7)
    rng = SplitMix64(7)
    expect = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(20)])
    assert w.values.shape == (20, 3)
    assert w.values.tobytes() == expect.tobytes()


def test_disturbance_validation():
    W = np.array([[-0.1, 0.1]] * 3)
    with pytest.raises(ConfigurationError):
        generate_disturbance(DisturbanceSpec([[-0.2, 0.2]] * 3, 0.01, 1.0), 1, w_box=W)
    with pytest.raises(ConfigurationError):
        generate_disturbance(DisturbanceSpec([[0.1, -0.1]], 0.01, 1.0), 1)
    with pytest.raises(ConfigurationError):
        generate_disturbance(DisturbanceSpec([[-0.1, 0.1]], 0.03, 1.0), 1)
    with pytest.raises(ConfigurationError):
        generate_disturbance(DisturbanceSpec([-0.1, 0.1], 0.01, 1.0), 1)
    # a null side reads as unbounded, and uniform draws on it would be NaN
    for box in ([[None, 0.1]], [[-0.1, None]], [[-np.inf, np.inf]]):
        with pytest.raises(ConfigurationError, match="disturbance box .* unbounded side"):
            generate_disturbance(DisturbanceSpec(box, 0.1, 0.3), 1,
                                 w_box=np.array([[-np.inf, np.inf]]))


def test_parse_diag():
    assert np.array_equal(_parse_diag("1000,1000,100", "--Q"),
                          np.diag([1000.0, 1000.0, 100.0]))
    assert np.array_equal(_parse_diag("5", "--R"), np.array([[5.0]]))
    with pytest.raises(ConfigurationError):
        _parse_diag("a,b", "--Q")


def test_bench_schedule():
    times = bench_times()
    assert times.size == 50
    assert times[-1] == pytest.approx(5.0)
    assert np.diff(times).max() == pytest.approx(0.19)


# ---------------------------------------------------------------------------
# certify subcommand

def test_certify_synthesize_then_check(tmp_path, capsys):
    rc = main(["certify", "--lambda", "0.4", "--Q", "1000,1000,100", "--R", "100",
               "--vertices", "--out", str(tmp_path)])
    assert rc == 0
    cert_path = tmp_path / "certificate.json"
    assert cert_path.exists()
    out = capsys.readouterr().out
    assert "synthesized certificate" in out

    # a check writes nothing, so it makes no output directory
    rc = main(["certify", "--check", str(cert_path), "--vertices",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


def test_certify_check_reference_weights(tmp_path, capsys):
    path = tmp_path / "ref.json"
    save_certificate(bench_certificate(), str(path))
    # strict tolerance rejects the rounded reference weights
    rc = main(["certify", "--check", str(path), "--vertices"])
    assert rc == 3
    # a failed check names its worst point, as a failed synthesis does
    out = capsys.readouterr().out
    assert "\nworst point x = [0.1 0.1], w = [-0.1 -0.1 -0.1]\nFAIL\n" in out
    # the print-rounding scale accepts them; the reactor's exponents make
    # its vertex check sufficient, so --vertices needs no other flag
    rc = main(["certify", "--check", str(path), "--vertices", "--tol", "1e-4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "over 32 points (vertices)" in out and "PASS" in out


# a verification record as files from before the control input was dropped wrote it
VERIFICATION = {"passed": True, "max_eig": -1.0, "worst_x": [], "worst_u": [], "worst_w": [],
                "tol_psd": 1e-8, "n_points": 1, "mode": "vertices"}


@pytest.mark.parametrize("X, tol, code, says", [
    # the file as the earlier format wrote it passes at the print-rounding scale
    ([[0.1, 5.0]] * 2, "1e-4", 0, "PASS"),
    # a stored domain inside X that leaves out the failing corner x = (0.1, 0.1)
    # is not used: the strict check fails there
    ([[0.6, 5.0]] * 2, "1e-6", 3, "max inequality eigenvalue 6.088064e-05 over 32 points"),
], ids=["as-written", "domain-inside-X"])
def test_certify_check_reads_an_older_file_on_the_models_boxes(tmp_path, capsys, X, tol, code,
                                                                 says):
    path = tmp_path / "older.json"
    path.write_text(json.dumps(dict(older_certificate_file(X=X), verification=VERIFICATION)))
    assert main(["certify", "--check", str(path), "--vertices", "--tol", tol]) == code
    assert says in capsys.readouterr().out
    # its record loads with worst_u ignored, and a re-saved file drops the key
    resaved = tmp_path / "resaved.json"
    save_certificate(load_certificate(str(path)), str(resaved))
    assert set(json.loads(resaved.read_text())["verification"]) == set(VERIFICATION) - {"worst_u"}


@pytest.mark.parametrize("mode", [["--Q", "1000,1000,100", "--R", "100"], ["--joint"]])
def test_certify_synthesizes_on_the_default_grid(tmp_path, capsys, mode):
    # 5 points per axis: 3125 points, of which the reactor has 5 distinct blocks
    assert main(["certify", "--lambda", "0.4", *mode, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "over 3125 points" in out
    # the line names the grid mode and the re-check tolerance, as --check does
    assert re.search(r"eigenvalue -\S+ over 3125 points \(grid\); tolerance 1e-08\n", out)
    assert main(["certify", "--check", str(tmp_path / "certificate.json")]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("weight, value", [("P", np.eye(3)), ("Q", np.eye(2)), ("R", np.eye(2))])
def test_certify_check_refuses_mis_sized_weights(tmp_path, capsys, weight, value):
    ref = bench_certificate()
    weights = {"P": ref.P1, "Q": ref.Q, "R": ref.R, weight: value}
    path = tmp_path / "cert.json"
    save_certificate(DetectabilityCertificate(
        weights["P"], weights["Q"], weights["R"], ref.lam), str(path))
    assert main(["certify", "--check", str(path), "--vertices"]) == 2
    d = len(value)
    assert f"weight {weight} is {d}x{d}" in capsys.readouterr().err


def test_certify_error_paths(tmp_path, capsys):
    assert main(["certify", "--check", "/nonexistent/cert.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", "--check", str(bad)]) == 2
    assert main(["certify"]) == 2   # synthesis without --lambda
    assert main(["certify", "--lambda", "1.5", "--vertices"]) == 2
    # the model decides whether vertices suffice: no flag asserts it
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--check", str(bad), "--vertices", "--affine"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --affine" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scenario subcommands

def test_simulate_writes_signals(tmp_path, capsys):
    cfg = scenario(tmp_path)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    truth = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1)
    assert truth.shape == (101, 3)
    y = np.loadtxt(out / "y.csv", delimiter=",", skiprows=1)
    assert y.shape == (100, 2)
    w = np.loadtxt(out / "w.csv", delimiter=",", skiprows=1)
    assert w.shape == (100, 4)
    assert np.abs(w[:, 1:]).max() <= 0.05
    capsys.readouterr()


def test_estimate_outputs_and_determinism(tmp_path, capsys):
    cfg = scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["estimate", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()

    assert (out1 / "estimate.csv").read_bytes() == (out2 / "estimate.csv").read_bytes()
    assert (out1 / "truth.csv").read_bytes() == (out2 / "truth.csv").read_bytes()
    # samples.csv matches except for wall-clock timings in the last column
    strip = lambda p: ["," .join(l.split(",")[:-1])
                       for l in (p / "samples.csv").read_text().splitlines()]
    assert strip(out1) == strip(out2)
    head = (out1 / "samples.csv").read_text().splitlines()[0]
    assert head == "t_i,cost,iterations,grad_norm,wall_time"

    for svg in ("states.svg", "error.svg", "disturbance.svg", "sampling.svg"):
        body = (out1 / svg).read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")

    est = np.loadtxt(out1 / "estimate.csv", delimiter=",", skiprows=1,
                     usecols=(0, 1, 2))
    assert est.shape == (101, 3)
    assert np.array_equal(est[0, 1:], [0.1, 4.5])


def test_audit_passes_and_writes_report(tmp_path, capsys):
    cfg = scenario(tmp_path)
    out = tmp_path / "audit"
    rc = main(["audit", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "decay bound holds" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["factor"] == 8
    assert summary["n_samples"] == 10
    data = np.loadtxt(out / "bounds.csv", delimiter=",", skiprows=1)
    assert data.shape == (10, 9)
    assert np.all(data[:, 3] >= 0.0)


@pytest.mark.parametrize("source", ["certify", "older"])
def test_audit_reads_the_certificate_from_a_file(tmp_path, capsys, source):
    # "certificate": "<path>"; the older file holds the inline weights of the
    # default scenario, so it audits exactly as they do
    path = tmp_path / "cert.json"
    if source == "certify":
        assert main(["certify", "--lambda", "0.4", "--Q", "1000,1000,100", "--R", "100",
                     "--vertices", "--out", str(tmp_path), "--cert-name",
                     "cert.json"]) == 0
    else:
        path.write_text(json.dumps(older_certificate_file()))
    out = tmp_path / "file"
    assert main(["audit", "--config", scenario(tmp_path, certificate=str(path)),
                 "--out", str(out)]) == 0
    assert "decay bound holds" in capsys.readouterr().out
    rho = json.loads((out / "summary.json").read_text())["rho"]
    assert rho == contraction_rate(load_certificate(str(path)), 2.0, 0.1)
    if source == "older":
        inline = tmp_path / "inline"
        assert main(["audit", "--config", scenario(tmp_path), "--out", str(inline)]) == 0
        for name in ("estimate.csv", "bounds.csv", "summary.json"):
            assert (out / name).read_bytes() == (inline / name).read_bytes()


def test_audit_of_a_truth_that_leaves_x_exits_3(tmp_path, capsys):
    # a disturbance that drains both species pushes x1 below X's 0.1 at
    # t = 0.21; the bounds still compute, but the certificate holds only on
    # X, so the audit names the first exit instead of printing "holds"
    cfg = scenario(tmp_path, t_sim=0.3, chi=[0.12, 0.12], chi_hat=[0.2, 0.2],
                   disturbance={"box": [[-0.1, -0.09], [-0.1, -0.09], [-0.05, 0.05]],
                                "seed": 3})
    out = tmp_path / "o"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "holds" not in captured.out
    assert "truth leaves X at t = 0.21 (x1 = 0.0995575)" in captured.err
    truth = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1)
    assert truth[21, 1] < 0.1 <= truth[:21, 1:].min()
    assert json.loads((out / "summary.json").read_text())["passed"] is True


def test_scenario_error_exit_codes(tmp_path, capsys):
    assert main(["estimate", "--config", "/nonexistent.json"]) == 2
    assert main(["estimate", "--config", scenario(tmp_path, T="nope")]) == 2
    miss = dict(json.loads((tmp_path / "scenario.json").read_text()))
    del miss["certificate"]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(miss))
    assert main(["estimate", "--config", str(p)]) == 2
    assert main(["estimate", "--config",
                 scenario(tmp_path, sampler={"type": "sobol"})]) == 2
    assert main(["estimate", "--config", scenario(tmp_path, chi=[9.0, 1.0])]) == 2
    assert main(["audit", "--config", scenario(tmp_path, T=1.5, t_sim=0.5)]) == 2
    assert main(["simulate", "--config", scenario(tmp_path, disturbance=None)]) == 2
    capsys.readouterr()


def test_estimate_refuses_mis_sized_weights(tmp_path, capsys):
    cert = {"P": np.eye(3).tolist(), "Q": np.eye(3).tolist(), "R": [[1.0]], "lambda": 0.4}
    assert main(["estimate", "--config", scenario(tmp_path, certificate=cert)]) == 2
    assert "weight P is 3x3, but the model needs 2x2" in capsys.readouterr().err


def test_estimate_refuses_chi_of_the_wrong_length(tmp_path, capsys):
    assert main(["estimate", "--config", scenario(tmp_path, chi=[3.0, 1.0, 2.0])]) == 2
    assert "chi must have shape (2,)" in capsys.readouterr().err


# x' = x^2 + w, y = x
ESCAPE_MODEL = {"state_dim": 1, "dist_dim": 1, "output_dim": 1,
                "f": [[{"coeff": 1.0, "x_exp": [2], "w_exp": [0]},
                       {"coeff": 1.0, "x_exp": [0], "w_exp": [1]}]],
                "h": [[{"coeff": 1.0, "x_exp": [1], "w_exp": [0]}]],
                "X": [[None, None]], "W": [[-0.1, 0.1]]}
SCALAR_CERT = {"P": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "lambda": 0.5}


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("overrides", [
    {"sampler": {"type": "equidistant"}},
    {"sampler": {"type": "explicit"}},
    {"certificate": without(SCALAR_CERT, "Q")},
    {"certificate": without(SCALAR_CERT, "R")},
    {"certificate": without(SCALAR_CERT, "lambda")},
    {"model": without(ESCAPE_MODEL, "f")},
    {"model": without(ESCAPE_MODEL, "h")},
    {"model": dict(ESCAPE_MODEL, h=[[{"x_exp": [1], "w_exp": [0]}]])},
])
def test_missing_scenario_field_exit_code(tmp_path, capsys, overrides):
    if "model" in overrides:
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(overrides["model"]))
        overrides = {"model": {"file": str(mpath)}, "certificate": SCALAR_CERT,
                     "chi": [0.1], "chi_hat": [0.1]}
    assert main(["estimate", "--config", scenario(tmp_path, **overrides)]) == 2
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["sampler", "disturbance", "config", "model"])
def test_non_object_scenario_section_exit_code(tmp_path, capsys, section):
    # a section of the scenario, the scenario file itself or the model file it
    # names holds a string, a number or a list instead of an object
    mpath = tmp_path / "model.json"
    mpath.write_text("[1, 2]")
    overrides = {"sampler": {"sampler": "equidistant"}, "disturbance": {"disturbance": 5},
                 "model": {"model": {"file": str(mpath)}}}.get(section, {})
    path = scenario(tmp_path, **overrides)
    if section == "config":
        (tmp_path / "scenario.json").write_text("[1, 2]")
    assert main(["estimate", "--config", path]) == 2
    assert f"{section} must be a JSON object" in capsys.readouterr().err


EXPLICIT = {"type": "explicit", "times": [0.1, 0.2]}
BOX = {"box": [[-0.05, 0.05]] * 3}


@pytest.mark.parametrize("key, base, field", [
    ("sampler", None, "delta"), ("sampler", EXPLICIT, "times"),
    ("certificate", None, "P"), ("certificate", None, "Q"), ("certificate", None, "R"),
    ("certificate", None, "lambda"),
    ("disturbance", None, "bound"), ("disturbance", None, "dt"),
    ("disturbance", None, "seed"), ("disturbance", BOX, "box"),
    (None, None, "T"), (None, None, "dt"), (None, None, "t_sim"), (None, None, "chi_hat"),
    (None, None, "chi"), (None, None, "equidistant_mode"),
])
def test_non_numeric_scenario_field_exit_code(tmp_path, capsys, key, base, field):
    # base None: the field of the default scenario's own section
    cfg = json.loads(open(scenario(tmp_path)).read())
    if key is None:
        cfg[field] = "abc"
    else:
        cfg[key] = dict(base or cfg[key], **{field: "abc"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["estimate", "--config", str(path)]) == 2
    assert f"field {field!r} is not numeric" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("state_dim",), "one"), (("dist_dim",), "one"), (("output_dim",), [1]),
    (("input_dim",), "zero"), (("f", 0, 0, "coeff"), "abc"), (("h", 0, 0, "coeff"), None),
    (("f", 0, 0, "x_exp"), ["a"]), (("f", 0, 1, "w_exp"), 1), (("h", 0, 0, "x_exp"), [1.5]),
    (("f", 0, 1, "w_exp"), [0.5]), (("X",), [["a", 1.0]]), (("W",), [[-0.1, "b"]]),
    (("f",), None), (("h",), [5]),
])
def test_non_numeric_model_field_exit_code(tmp_path, capsys, path, value):
    # dims, coefficients, exponents (non-negative integers), box rows and
    # the term lists themselves
    spec = copy.deepcopy(ESCAPE_MODEL)
    *outer, key = path
    section = spec
    for k in outer:
        section = section[k]
    section[key] = value
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(spec))
    assert main(["certify", "--model-file", str(mpath), "--lambda", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    assert f"field {key!r} is not numeric" in capsys.readouterr().err


@pytest.mark.parametrize("drop", ["P1", "lambda", "domain.X", "verification.mode"])
def test_missing_certificate_field_exit_code(tmp_path, capsys, drop):
    path = tmp_path / "cert.json"
    d = older_certificate_file()
    d["verification"] = dict(VERIFICATION)
    outer, _, inner = drop.partition(".")
    if inner:
        del d[outer][inner]
    else:
        del d[outer]
    path.write_text(json.dumps(d))
    assert main(["certify", "--check", str(path), "--vertices"]) == 2
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    ("P1", "abc", "field 'P1'"), ("lambda", "x", "field 'lambda'"),
    ("verification.max_eig", "z", "field 'max_eig'"),
    ("verification.passed", "yes", "field 'passed'"),
    ("domain.X", 5, "domain X"), ("domain.W", [[-0.1, 0.1, 0.2]] * 3, "domain W"),
    ("kappa", "abc", "field 'kappa'"),
])
def test_non_numeric_certificate_field_exit_code(tmp_path, capsys, field, value, named):
    # a field that is present but malformed, down to a box row of three entries;
    # an older file's kappa and domain are refused when malformed, though unused
    path = tmp_path / "cert.json"
    d = older_certificate_file()
    d["verification"] = dict(VERIFICATION)
    outer, _, inner = field.partition(".")
    if inner:
        d[outer][inner] = value
    else:
        d[outer] = value
    path.write_text(json.dumps(d))
    assert main(["certify", "--check", str(path), "--vertices"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, field, value", [
    ("disturbance", "seed", 1.7), (None, "equidistant_mode", "false"),
    (None, "equidistant_mode", 1),
])
def test_mistyped_scenario_field_exit_code(tmp_path, capsys, key, field, value):
    # numbers and strings where an integer seed or a JSON boolean belongs
    cfg = json.loads(open(scenario(tmp_path)).read())
    (cfg[key] if key else cfg)[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["audit", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("box, value", [("X", [[0.1, 5.0, 7.0]]), ("W", [[-0.1, 0.1, 0.2]]),
                                        ("X", 5)])
def test_malformed_model_box_exit_code(tmp_path, capsys, box, value):
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(dict(ESCAPE_MODEL, **{box: value})))
    assert main(["certify", "--model-file", str(mpath), "--lambda", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{box} must be a list of [lo, hi] rows" in capsys.readouterr().err


def test_audit_with_disturbance_coarser_than_samples(tmp_path, capsys):
    # w pieces of 0.02 against samples every 0.05: the audit slices the truth's
    # w on the run grid, as estimation does
    cfg = scenario(tmp_path, sampler={"type": "equidistant", "delta": 0.05},
                   disturbance={"bound": 0.1, "seed": 1, "dt": 0.02})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert "decay bound holds" in capsys.readouterr().out
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["n_samples"] == 20


@pytest.mark.parametrize("section", ["certificate", "domain", "verification"])
def test_non_object_certificate_section_exit_code(tmp_path, capsys, section):
    path = tmp_path / "cert.json"
    save_certificate(bench_certificate(), path)
    d = json.loads(path.read_text())
    if section == "certificate":
        d = [1, 2]
    else:
        d[section] = [1, 2]
    path.write_text(json.dumps(d))
    assert main(["certify", "--check", str(path), "--vertices"]) == 2
    err = capsys.readouterr().err
    assert f"{section} must be a JSON object" in err


@pytest.mark.parametrize("disturbance", [{"bound": np.inf}, {"box": [[-np.inf, 0.1]]}])
def test_unbounded_disturbance_box_exit_code(tmp_path, capsys, disturbance):
    # the model file leaves W unbounded, so only the draw itself can refuse it
    mpath = tmp_path / "escape.json"
    mpath.write_text(json.dumps(without(ESCAPE_MODEL, "W")))
    cfg = scenario(tmp_path, model={"file": str(mpath)}, certificate=SCALAR_CERT, T=0.5,
                   t_sim=0.3, chi=[0.1], chi_hat=[0.1], disturbance=disturbance)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "disturbance box" in capsys.readouterr().err


def test_null_disturbance_box_side_is_unbounded(tmp_path, capsys):
    # null in a box means an unbounded side, here as in every other box
    box = [[None, 0.05], [-0.05, 0.05], [-0.05, 0.05]]
    cfg = scenario(tmp_path, disturbance={"box": box})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "disturbance box [[-inf, 0.05]" in err and "unbounded side" in err
    assert "nan" not in err


def test_programming_key_error_propagates(tmp_path, monkeypatch):
    # only missing fields of user JSON are configuration errors
    def broken(*args, **kwargs):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "run_mhe", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["estimate", "--config", scenario(tmp_path), "--out", str(tmp_path / "o")])


EXIT_CODES = {ConfigurationError: 2, HorizonError: 2, DivergenceError: 1, InfeasibleError: 3}


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda e: e.__name__)
def test_each_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch, error):
    # main alone maps exceptions to exit codes, whichever subcommand raises them
    assert set(EXIT_CODES) == {c for c in vars(errors).values() if isinstance(c, type)}
    def failing(*args, **kwargs):
        raise error("made to fail")
    monkeypatch.setattr(cli, "run_mhe", failing)
    argv = ["estimate", "--config", scenario(tmp_path), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CODES[error]
    assert "made to fail" in capsys.readouterr().err


def test_window_divergence_exit_code(tmp_path, capsys):
    # x' = x^2 + w escapes in finite time: the truth from 0.1 stays finite, but
    # every window candidate from the prior 20 blows up within 0.05
    mpath = tmp_path / "escape.json"
    mpath.write_text(json.dumps(ESCAPE_MODEL))
    cfg = scenario(tmp_path, model={"file": str(mpath)}, certificate=SCALAR_CERT, T=3.0,
                   t_sim=0.3, chi=[0.1], chi_hat=[20.0], disturbance=None)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "integration failure" in capsys.readouterr().err


def _scenario_argv(command, **overrides):
    return lambda tmp_path: [command, "--config", scenario(tmp_path, **overrides),
                             "--out", str(tmp_path / "o")]


def _text_scenario_argv(text):
    def argv(tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        return ["estimate", "--config", str(path)]
    return argv


def _model_file_argv(**changes):
    def argv(tmp_path):
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(dict(ESCAPE_MODEL, **changes)))
        return _scenario_argv("estimate", model={"file": str(mpath)})(tmp_path)
    return argv


def _inline_certificate_argv(**fields):
    cert = {"P": cli.BENCH_P.tolist(), "Q": cli.BENCH_Q.tolist(), "R": cli.BENCH_R.tolist(),
            "lambda": cli.BENCH_LAMBDA, **fields}
    return _scenario_argv("estimate", certificate=cert)


def _certificate_file(tmp_path, **fields):
    path = tmp_path / "cert.json"
    save_certificate(bench_certificate(), path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **fields)))
    return str(path)


def _certificate_check_argv(*options, **fields):
    return lambda tmp_path: ["certify", "--check", _certificate_file(tmp_path, **fields),
                             "--vertices", *options, "--out", str(tmp_path / "o")]


def _cubic_vertices_argv(tmp_path):
    mpath = tmp_path / "cubic.json"
    mpath.write_text(json.dumps(CUBIC))
    return ["certify", "--model-file", str(mpath), "--lambda", "0.3", "--vertices",
            "--out", str(tmp_path / "o")]


def _certificate_file_scenario_argv(command, T, **fields):
    return lambda tmp_path: _scenario_argv(
        command, T=T, certificate=_certificate_file(tmp_path, **fields))(tmp_path)


UNIT_WEIGHTS = {"P1": np.eye(2).tolist(), "P2": np.eye(2).tolist(), "Q": np.eye(3).tolist(),
                "R": [[1.0]], "lambda": 0.4}   # the inequality peaks at +1.248
TWICE_P = (2.0 * cli.BENCH_P).tolist()


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(_text_scenario_argv("{not json"), 2, "config is not valid JSON", id="not-json"),
    pytest.param(_scenario_argv("estimate", model=5), 2, "model must be a registry name",
                 id="model-number"),
    pytest.param(_scenario_argv("estimate", model={"path": "m.json"}), 2,
                 "model must be a registry name", id="model-without-file"),
    pytest.param(_scenario_argv("estimate", model={"file": 0}), 2,
                 "model path 0 is not a file name", id="model-file-number"),
    pytest.param(_scenario_argv("estimate", certificate=DROP), 2,
                 "config needs a certificate", id="no-certificate"),
    pytest.param(_scenario_argv("estimate", certificate={"weights": 1}), 2,
                 "certificate must be a file path or inline", id="certificate-without-P"),
    pytest.param(_scenario_argv("estimate", certificate=5), 2,
                 "certificate must be a file path or inline", id="certificate-number"),
    pytest.param(_scenario_argv("estimate", sampler=DROP), 2, "config needs a sampler",
                 id="no-sampler"),
    pytest.param(_scenario_argv("estimate", disturbance={"seed": 2}), 2,
                 "disturbance needs a box or a bound", id="disturbance-without-box"),
    pytest.param(_scenario_argv("estimate", chi=DROP), 2,
                 "estimation from config needs ground truth chi", id="estimate-without-chi"),
    pytest.param(_scenario_argv("simulate", chi=DROP), 2,
                 "simulate needs the true initial state chi", id="simulate-without-chi"),
    pytest.param(_scenario_argv("simulate", disturbance=DROP), 2,
                 "simulate needs a disturbance spec", id="simulate-without-disturbance"),
    pytest.param(_scenario_argv("estimate", sampler={"type": "explicit", "times": []}), 2,
                 "sampling set needs at least one time", id="no-explicit-times"),
    pytest.param(_scenario_argv("estimate", sampler={"type": "equidistant", "delta": 0}), 2,
                 "sampling period must be at least dt", id="zero-period"),
    pytest.param(_scenario_argv("estimate", sampler={"type": "equidistant", "delta": 2.0}), 2,
                 "no sampling times before t_sim", id="period-past-t_sim"),
    pytest.param(_scenario_argv("estimate", sampler={"type": "event", "threshold": 0.1,
                                                     "delta_min": 0.01, "delta_max": 0.2}),
                 2, "unknown sampler type 'event'", id="event-sampler"),
    pytest.param(_scenario_argv("estimate", sampler=EXPLICIT, equidistant_mode=True), 2,
                 "equidistant_mode requires an equidistant sampler", id="equidistant-mode-explicit"),
    pytest.param(_scenario_argv("estimate", dt=1e-300), 2,
                 "horizon T = 2.0 over dt = 1e-300 exceeds the grid index range",
                 id="dt-past-index-range"),
    pytest.param(_scenario_argv("estimate", disturbance={"bound": 0.05, "dt": 1e-300}), 2,
                 "disturbance t_sim = 1.0 over dt = 1e-300 exceeds the grid index range",
                 id="disturbance-dt-past-index-range"),
    pytest.param(_scenario_argv("estimate", t_sim=0, disturbance=DROP), 2,
                 "t_sim must cover at least one step", id="zero-t_sim"),
    pytest.param(_scenario_argv("estimate", t_sim=0), 2,
                 "t_sim must cover at least one disturbance piece", id="zero-t_sim-disturbance"),
    pytest.param(_scenario_argv("estimate", T=1.0, t_sim=3.0, disturbance={"bound": 0.1}), 2,
                 "horizon T = 1.0 must strictly exceed", id="estimate-short-horizon"),
    pytest.param(_model_file_argv(f=[[{"coeff": 1.0, "x_exp": [2, 0]}]]), 2,
                 "f[0]: exponent lists must have lengths 1 and 1", id="exponent-list-length"),
    pytest.param(_model_file_argv(h=[]), 2, "h must list p coordinates", id="no-h-rows"),
    pytest.param(_certificate_check_argv(P2=TWICE_P), 2,
                 "P2 must equal P1", id="P1-not-P2"),
    pytest.param(_certificate_file_scenario_argv("estimate", 2.0, P2=TWICE_P),
                 2, "P2 must equal P1", id="estimate-P1-not-P2"),
    pytest.param(_certificate_file_scenario_argv("audit", 3.0, P2=TWICE_P),
                 2, "P2 must equal P1", id="audit-P1-not-P2"),
    pytest.param(_certificate_check_argv(P1=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 2,
                 "P1 must be a square matrix", id="non-square-P"),
    pytest.param(_certificate_check_argv(P2=np.diag([10.0] * 3).tolist()), 2,
                 "P2 must equal P1", id="P1-P2-sizes"),
    pytest.param(_certificate_check_argv("--tol", "inf", **UNIT_WEIGHTS), 2,
                 "verification tolerance inf must be finite", id="infinite-tol"),
    pytest.param(_certificate_check_argv("--tol", "nan", **UNIT_WEIGHTS), 2,
                 "verification tolerance nan must be finite", id="nan-tol"),
    pytest.param(_certificate_check_argv(kappa=0.9), 2,
                 "kappa must equal -ln(lambda) to 1e-12", id="kappa-not-of-lambda"),
    pytest.param(lambda tmp_path: ["certify", "--lambda", "0.01", "--Q", "1,1,1", "--R", "1",
                                   "--vertices", "--out", str(tmp_path / "o")],
                 3, "infeasible:", id="infeasible-synthesis"),
    # omitted --Q and --R are the identity of the model's sizes, which is
    # infeasible for the reactor at this rate on the default grid
    pytest.param(lambda tmp_path: ["certify", "--lambda", "0.4", "--out", str(tmp_path / "o")],
                 3, "infeasible:", id="identity-weights-infeasible"),
    pytest.param(lambda tmp_path: ["certify", "--lambda", "0.4", "--Q", "inf,1,1", "--R", "1",
                                   "--vertices", "--out", str(tmp_path / "o")],
                 2, "Q has a non-finite entry", id="infinite-Q"),
    pytest.param(_cubic_vertices_argv, 2, "(f[0] term 1)", id="cubic-vertices"),
    pytest.param(lambda tmp_path: ["bench-s5", "--jobs", "0", "--out", str(tmp_path / "o")],
                 2, "--jobs must be at least 1", id="zero-jobs"),
    pytest.param(lambda tmp_path: ["bench-s5", "--jobs", "-1", "--out", str(tmp_path / "o")],
                 2, "--jobs must be at least 1", id="negative-jobs"),
    pytest.param(_inline_certificate_argv(R=[[math.inf]]), 2, "R has a non-finite entry",
                 id="inline-infinite-R"),
    pytest.param(_inline_certificate_argv(**{"lambda": 0}), 2,
                 "lambda must lie strictly inside (0, 1)", id="inline-zero-lambda"),
    pytest.param(_inline_certificate_argv(**{"lambda": -0.5}), 2,
                 "lambda must lie strictly inside (0, 1)", id="inline-negative-lambda"),
])
def test_refusal_exit_codes(tmp_path, capsys, argv, code, message):
    # a refused command leaves no output directory behind
    assert main(argv(tmp_path)) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, field", [
    pytest.param(_scenario_argv("estimate", t_sim=True), "t_sim", id="t_sim"),
    pytest.param(_scenario_argv("estimate", disturbance={"bound": 0.05, "seed": True}), "seed",
                 id="seed"),
    pytest.param(_scenario_argv("estimate", disturbance={"bound": False}), "bound", id="bound"),
    pytest.param(_scenario_argv("estimate", chi=[True, 1.0]), "chi", id="chi-element"),
    pytest.param(_model_file_argv(state_dim=True), "state_dim", id="state_dim"),
    pytest.param(_model_file_argv(f=[[{"coeff": True, "x_exp": [2], "w_exp": [0]}]]), "coeff",
                 id="coeff"),
    pytest.param(_inline_certificate_argv(**{"lambda": True}), "lambda", id="inline-lambda"),
    pytest.param(_certificate_check_argv(**{"lambda": True}), "lambda", id="file-lambda"),
])
def test_json_boolean_field_exit_code(tmp_path, capsys, argv, field):
    # true and false are not read as 1 and 0 where a number belongs
    assert main(argv(tmp_path)) == 2
    assert f"field {field!r} is not numeric: it holds a JSON boolean" in capsys.readouterr().err


UNREADABLE_FILE_ARGV = {
    "config": lambda tmp_path, path: ["estimate", "--config", path],
    "model-file": lambda tmp_path, path: ["certify", "--model-file", path, "--lambda", "0.5"],
    "scenario-model": lambda tmp_path, path: _scenario_argv(
        "estimate", model={"file": path})(tmp_path),
    "scenario-certificate": lambda tmp_path, path: _scenario_argv(
        "estimate", certificate=path)(tmp_path),
    "check": lambda tmp_path, path: ["certify", "--check", path, "--vertices"],
}


@pytest.mark.parametrize("entry", UNREADABLE_FILE_ARGV)
@pytest.mark.parametrize("text, message", [(None, "cannot read"),
                                           ("{not json", "is not valid JSON")],
                         ids=["missing", "malformed"])
def test_unreadable_json_file_is_named(tmp_path, capsys, entry, text, message):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert main(UNREADABLE_FILE_ARGV[entry](tmp_path, str(path))) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err


def test_unwritable_output_directory_is_named(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "o"
    assert main(["estimate", "--config", scenario(tmp_path), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "audit"])
def test_short_horizon_is_refused_before_any_window(tmp_path, capsys, monkeypatch, command):
    # T = 1.0 is at or below the minimal horizon at delta_bar = 0.1, so the
    # command solves no window, writes nothing and exits 2
    calls = []
    solve = mhect.mhe.solve_mhe
    monkeypatch.setattr(mhect.mhe, "solve_mhe", lambda *a, **k: calls.append(1) or solve(*a, **k))
    cfg = scenario(tmp_path, T=1.0, t_sim=3.0, disturbance={"bound": 0.1})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "horizon T = 1.0 must strictly exceed" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"T": math.inf}, "horizon T = inf is not a finite multiple"),
    ({"t_sim": math.inf}, "t_sim = inf is not a finite multiple"),
    ({"sampler": {"type": "equidistant", "delta": math.inf}},
     "sampling period = inf is not a finite multiple"),
    ({"sampler": {"type": "explicit", "times": [math.nan]}},
     "sampling time = nan is not a finite multiple"),
    ({"chi_hat": [math.inf]}, "chi_hat must be finite"),
    ({"chi": [math.inf]}, "chi must be finite"),
    ({"chi": [math.nan]}, "chi must be finite"),
])
def test_non_finite_scenario_number_exit_code(tmp_path, capsys, overrides, message):
    # JSON readers accept Infinity and NaN; the model file leaves X unbounded,
    # so only the finiteness check can refuse an infinite initial state
    mpath = tmp_path / "escape.json"
    mpath.write_text(json.dumps(ESCAPE_MODEL))
    cfg = scenario(tmp_path, **{"model": {"file": str(mpath)}, "certificate": SCALAR_CERT,
                                "T": 3.0, "t_sim": 0.3, "chi": [0.1], "chi_hat": [0.1],
                                "sampler": {"type": "equidistant", "delta": 0.1},
                                **overrides})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    cfg = scenario(tmp_path)
    dest = tmp_path / "from_env"
    monkeypatch.setenv("MHECT_OUT", str(dest))
    assert main(["simulate", "--config", cfg]) == 0
    assert (dest / "truth.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_bench_refuses_an_empty_seed_range(tmp_path, capsys, seeds):
    # a run of no seeds checks nothing, so it must not report success
    assert main(["bench-s5", "--seeds", seeds, "--out", str(tmp_path)]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "bench_summary.json").exists()


def test_bench_jobs_match_one_process(tmp_path, capsys):
    # two worker processes write what one process writes, up to wall times
    for jobs in ("1", "2"):
        assert main(["bench-s5", "--seed", "3", "--seeds", "2", "--jobs", jobs,
                     "--out", str(tmp_path / jobs)]) == 0
    capsys.readouterr()
    files = [sorted(p.relative_to(tmp_path / jobs) for p in (tmp_path / jobs).rglob("*")
                    if p.is_file()) for jobs in ("1", "2")]
    assert files[0] == files[1] and len(files[0]) == 1 + 2 * 9
    for f in files[0]:
        one, two = ((tmp_path / jobs / f).read_text() for jobs in ("1", "2"))
        if f.name == "samples.csv":
            # drop the wall_time column
            one, two = ([line.rsplit(",", 1)[0] for line in t.splitlines()] for t in (one, two))
        assert one == two, f


def test_bench_subcommand(tmp_path, capsys):
    rc = main(["bench-s5", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reference weights" in out
    assert "seed 1: pass" in out
    summary = json.loads((tmp_path / "bench_summary.json").read_text())
    assert abs(summary["rho"] - 0.86) < 5e-3
    assert summary["delta_bar"] == pytest.approx(0.19)
    assert summary["min_horizon"] == pytest.approx(1.70294159473206, abs=1e-9)
    assert summary["seeds"][0]["passed"] is True
    assert (tmp_path / "bounds.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_bench_assertions_name_each_failure(monkeypatch):
    slow = SimpleNamespace(cost=2.0, stats=SimpleNamespace(wall_time=1.5))
    run = SimpleNamespace(solutions=[slow, slow])
    report = SimpleNamespace(passed=False, worst_margin=-0.25, prop3_passed=False,
                             sup_passed=False, rho=0.9)
    monkeypatch.setattr(cli, "truth_candidate_cost", lambda run, i: 1.0)
    # the cost check stops at the first sample that loses to the truth
    assert cli._bench_assertions(run, report) == [
        "decay bound violated (worst relative margin -2.500e-01)",
        "window-wise bound violated",
        "sup-norm bound violated",
        "contraction rate 0.90000 departs from 0.86",
        "sample 0: cost 2.000000e+00 exceeds the true-trajectory candidate 1.000000e+00",
        "slowest window solve took 1.50 s (budget 1 s)",
    ]


def test_bench_failure_exits_4_with_the_failures_on_stderr(tmp_path, capsys, monkeypatch):
    # a contraction rate that the reference weights do not give fails the seed
    monkeypatch.setattr(cli, "BENCH_RHO", 0.5)
    assert main(["bench-s5", "--seed", "1", "--out", str(tmp_path)]) == 4
    out, err = capsys.readouterr()
    assert "seed 1: FAIL" in out
    assert err == "  contraction rate 0.86038 departs from 0.5\n"
    summary = json.loads((tmp_path / "bench_summary.json").read_text())
    assert summary["seeds"][0]["failures"] == ["contraction rate 0.86038 departs from 0.5"]
    assert summary["seeds"][0]["passed"] is False


def test_bench_stops_when_the_reference_weights_fail_verification(tmp_path, capsys,
                                                                   monkeypatch):
    # at the strict tolerance the quoted weights fail (README "Reference weights")
    monkeypatch.setattr(cli, "BENCH_VERIFY_TOL", 1e-6)
    assert main(["bench-s5", "--seed", "1", "--out", str(tmp_path)]) == 3
    assert "reference weights failed verification" in capsys.readouterr().err
    assert not (tmp_path / "bench_summary.json").exists()


# ---------------------------------------------------------------------------
# the README's documented commands

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_run(tmp_path, capsys):
    """The README's scenario block audits with exit 0, and its two certify
    lines synthesize a certificate and then check it."""
    text = README.read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "scenario.json"
    cfg.write_text(blocks[0])
    assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "audit")]) == 0
    lines = re.findall(r"^mhect (certify .*)$", text, re.M)
    assert len(lines) == 2 and "--check" in lines[1]
    for line in lines:
        argv = [str(tmp_path / a[len("out/"):]) if a.startswith("out/") else a
                for a in shlex.split(line)]
        assert main(argv) == 0
    assert "PASS" in capsys.readouterr().out
