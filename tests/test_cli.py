"""Scenario files, the verification runner, and its exit codes."""

import contextlib
import hashlib
import inspect
import io
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

import mdf
from mdf import (
    QuadratureNotConverged,
    SchemaError,
    SuperOperator,
    cli,
    dirichlet,
    kernels,
    lindblad,
)
from mdf.cli import (
    MAX_JSON_DEPTH,
    SUITES,
    Scenario,
    ScenarioContext,
    corpus_paths,
    generate_scenario,
    main,
    matrix_from_json,
    matrix_to_json,
    parse_scenario,
    run_scenario,
    run_scenario_object,
)
from mdf.linalg import dagger, ginibre


def _minimal(**overrides):
    base = {
        "name": "minimal",
        "dim": 2,
        "state": "tracial",
        "coefficients": [matrix_to_json(np.diag([1.0, -1.0]))],
        "kernel": "f0",
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# codecs and schema
# ---------------------------------------------------------------------------

def test_matrix_roundtrip(rng):
    A = ginibre(3, rng)
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(A), "m", 3), A, atol=0)


def test_matrix_errors_carry_the_path():
    with pytest.raises(SchemaError, match=r"m\[0\]\[1\]"):
        matrix_from_json([[[1, 0], [2]], [[0, 0], [0, 0]]], "m", 2)
    with pytest.raises(SchemaError, match="rows"):
        matrix_from_json([[[1, 0]]], "m", 2)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "huge"]
)
def test_matrix_rejects_non_finite_entries(bad):
    m = [[[1, 0], [0, 0]], [[0, bad], [1, 0]]]
    with pytest.raises(SchemaError, match=r"m\[1\]\[0\]\[1\]: expected a finite number"):
        matrix_from_json(m, "m", 2)


def test_run_exits_two_on_nan_coupling_entry(tmp_path, capsys):
    coupling = matrix_to_json(np.diag([1.0, -1.0]))
    coupling[0][1][0] = float("nan")
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(_minimal(coefficients=[coupling])))
    assert "NaN" in p.read_text()
    assert main(["run", str(p)]) == 2
    assert "coefficients[0][0][1][0]" in capsys.readouterr().err


def test_parse_accepts_the_minimal_scenario():
    s = parse_scenario(_minimal())
    assert isinstance(s, Scenario)
    assert s.suites == (
        "standard_form",
        "modular",
        "dirichlet",
        "lindblad",
        "semigroup",
        "proof_regression",
    )


@pytest.mark.parametrize(
    "patch, key",
    [
        ({"name": ""}, "name"),
        ({"dim": 1}, "dim"),
        ({"state": {"gibbs": {}}}, "state.gibbs"),
        ({"coefficients": []}, "coefficients"),
        ({"coefficients": {"random": {"kind": "magic"}}}, "coefficients.random.kind"),
        ({"kernel": {"sinc": {}}}, "kernel"),
        ({"suites": ["dirichlet", "nonsense"]}, "suites"),
        ({"tolerances": {"algebraic": 1}}, "tolerances"),
        ({"negative_control": 1}, "negative_control"),
        ({"unexpected": 1}, "unexpected"),
        ({"coefficients": {"random": {"kind": "hermitian", "count": 0}}},
         "coefficients.random.count"),
        ({"state": {"density": matrix_to_json(np.eye(3) / 3)}}, "state.density"),
        ({"kernel": {"cauchy": {"scale": "abc"}}}, "kernel.cauchy.scale"),
        ({"kernel": {"cauchy": 5}}, "kernel.cauchy"),
        (
            {"kernel": {"signed_f0": {"alpha": "x"}}, "negative_control": True},
            "kernel.signed_f0.alpha",
        ),
        ({"kernel": {"cauchy": {"scale": True}}}, "kernel.cauchy.scale"),
        ({"kernel": {"cauchy": {"scale": 1, "foo": 2}}}, "kernel.cauchy.foo"),
        ({"kernel": {"cauchy": {"scale": float("inf")}}}, "kernel.cauchy.scale"),
        (
            {"state": {"gibbs": {"hamiltonian": matrix_to_json(np.diag([0.0, 1.0])),
                                 "beta": float("inf")}}},
            "state.gibbs.beta",
        ),
    ],
)
def test_parse_rejections_point_at_the_key(patch, key, tmp_path, capsys):
    pattern = key.replace(".", r"\.").replace("[", r"\[")
    with pytest.raises(SchemaError, match=pattern):
        parse_scenario(_minimal(**patch))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_minimal(**patch)))
    assert main(["run", str(p)]) == 2
    assert re.search(pattern, capsys.readouterr().err)


def test_signed_kernel_requires_the_control_flag(tmp_path, capsys, monkeypatch):
    signed = _minimal(kernel={"signed_f0": {"alpha": 6.0}})
    certified = []
    cls = type(kernels.kernel_from_descriptor(signed["kernel"]))
    certify = cls.certificate
    monkeypatch.setattr(cls, "certificate", lambda self: (certified.append(self), certify(self))[1])
    with pytest.raises(SchemaError, match="positivity.* failed; .*negative_control: true"):
        parse_scenario(signed)
    assert len(certified) == 1  # the rejection reads one certificate
    p = tmp_path / "signed.json"
    p.write_text(json.dumps(signed))
    assert main(["run", str(p)]) == 2
    assert "positivity" in capsys.readouterr().err
    s = parse_scenario(
        _minimal(kernel={"signed_f0": {"alpha": 6.0}}, negative_control=True)
    )
    assert s.negative_control


def test_parsing_never_samples_a_certificate(tmp_path, capsys, monkeypatch):
    def sampled(f):
        raise AssertionError(f"{f.name} was certified by sampling")

    monkeypatch.setattr(kernels, "check_admissible", sampled)
    p = tmp_path / "signed.json"
    p.write_text(json.dumps(_minimal(kernel={"signed_f0": {"alpha": 6}})))
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: signed.json: kernel: weight 'signed_f0' is not admissible: positivity, "
        "boundary combination failed; signed weights require negative_control: true\n")
    paths = corpus_paths()
    assert len(paths) == 6
    for path in paths:
        with open(path) as fh:
            parse_scenario(json.load(fh))


def test_an_unknown_kernel_is_echoed_abridged(tmp_path, capsys):
    # as deep as a scenario file may nest, and 5,000 numbers wide at the bottom
    depth = MAX_JSON_DEPTH - 1
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(_minimal(kernel="K")).replace(
        '"K"', "[" * depth + ", ".join(["0"] * 5000) + "]" * depth))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: deep.json: kernel: unknown kernel descriptor: [[[")
    assert len(err.splitlines()) == 1 and len(err) < 100


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH - 1, MAX_JSON_DEPTH, 980])
def test_json_nesting_is_judged_alike_in_process_and_on_the_console(tmp_path, capsys, depth):
    # the kernel array sits one level inside the scenario object
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(_minimal(kernel="K")).replace('"K"', "[" * depth + "]" * depth))
    code = main(["run", str(p)])
    err = capsys.readouterr().err
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "mdf.cli", "run", str(p)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (code, err) == (proc.returncode, proc.stderr)
    assert code == 2
    if depth < MAX_JSON_DEPTH:
        assert "unknown kernel descriptor" in err
    else:
        assert err == f"error: {p} is not valid JSON: nested deeper than {MAX_JSON_DEPTH} levels\n"


def test_wide_cauchy_scenario_runs(tmp_path):
    # the sampled decay fit refused every Cauchy scale above about 25.7 as signed
    with open(os.path.join(os.path.dirname(corpus_paths()[0]), "balanced_pair_cauchy.json")) as fh:
        obj = json.load(fh)
    obj["kernel"] = {"cauchy": {"scale": 50.0}}
    p = tmp_path / "wide_cauchy.json"
    p.write_text(json.dumps(obj))
    assert main(["run", str(p)]) == 0


def test_dim_cap_env_override(monkeypatch):
    """The documented ceiling n <= 32 is pinned: MDF_MAX_DIM no longer lifts it."""
    monkeypatch.setenv("MDF_MAX_DIM", "64")
    big = _minimal(dim=33, coefficients={"random": {"kind": "hermitian", "count": 1, "seed": 0}})
    with pytest.raises(SchemaError, match="dim: 33 exceeds the maximum 32"):
        parse_scenario(big)
    with pytest.raises(SchemaError, match="dim: 33 exceeds the maximum 32"):
        generate_scenario(1, 33, "hermitian")
    with pytest.raises(SchemaError, match="dim: expected an integer >= 2"):
        generate_scenario(1, 1, "hermitian")


@pytest.mark.parametrize("patch, flags, key", [
    ({"seed": -1}, [], "seed"),
    ({"coefficients": {"random": {"kind": "hermitian", "seed": -5}}}, [],
     "coefficients.random.seed"),
    ({}, ["--seed", "-3"], "--seed"),
    (None, ["--seed", "-1"], "seed"),
], ids=["seed_key", "random_seed_key", "run_flag", "generate_flag"])
def test_a_negative_seed_exits_two_naming_the_key(tmp_path, capsys, patch, flags, key):
    p = tmp_path / "s.json"
    if patch is None:
        argv = ["generate", "--dim", "2", "--kind", "hermitian", "--out", str(p)] + flags
    else:
        p.write_text(json.dumps(_minimal(**patch)))
        argv = ["run", str(p)] + flags
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: (s\.json: )?{re.escape(key)}: expected an integer >= 0$", err), err
    assert sorted(f.name for f in tmp_path.iterdir()) == ([] if patch is None else ["s.json"])


def test_each_matrix_is_decoded_and_the_kernel_built_once(monkeypatch, tmp_path):
    decoded, built = [], []
    decode, build = cli.matrix_from_json, cli.kernel_from_descriptor
    monkeypatch.setattr(cli, "matrix_from_json", lambda obj, path, n: (
        decoded.append(path), decode(obj, path, n))[1])
    monkeypatch.setattr(cli, "kernel_from_descriptor", lambda desc: (
        built.append(desc), build(desc))[1])
    (path,) = [p for p in corpus_paths() if p.endswith("balanced_pair_cauchy.json")]
    _, code = run_scenario(path, out=str(tmp_path / "r.json"))
    assert code == 0
    assert decoded == ["state.density"]
    assert built == [{"cauchy": {"scale": 1.0}}]


def _count_certificates(monkeypatch, *classes):
    calls = []
    for cls in classes:
        certify = cls.certificate
        monkeypatch.setattr(cls, "certificate", lambda self, certify=certify: (
            calls.append(self.name), certify(self))[1])
    return calls


def test_one_run_certifies_the_kernel_once(monkeypatch, tmp_path):
    # parse_scenario certifies; the parts, the split check, the engine
    # cross-check and the general-weight embedding reuse that certificate
    calls = _count_certificates(monkeypatch, kernels.CauchyKernel)
    (path,) = [p for p in corpus_paths() if p.endswith("balanced_pair_cauchy.json")]
    _, code = run_scenario(path, out=str(tmp_path / "r.json"))
    assert code == 0
    assert calls == ["cauchy"]


def test_a_negative_control_run_certifies_nothing(monkeypatch, tmp_path):
    # each kernel class states its own certificate, so each is wrapped: the
    # control's CosineModulatedF0 and the F0Kernel it modulates among them
    calls = _count_certificates(
        monkeypatch, kernels.F0Kernel, kernels.CauchyKernel,
        kernels.CosineModulatedF0, kernels.BoundaryCombination)
    (path,) = [p for p in corpus_paths() if p.endswith("nonmarkovian_control.json")]
    report, code = run_scenario(path, out=str(tmp_path / "r.json"))
    assert code == 0 and report["scenario"]["negative_control"] is True
    assert calls == []


def test_balanced_pair_resolves_to_adjoint_pairs():
    s = parse_scenario(
        _minimal(coefficients={"random": {"kind": "balanced_pair", "count": 2, "seed": 5}})
    )
    xs = s.xs
    assert len(xs) == 4
    np.testing.assert_allclose(xs[1], dagger(xs[0]), atol=0)
    np.testing.assert_allclose(xs[3], dagger(xs[2]), atol=0)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def test_report_is_deterministic():
    s = parse_scenario(_minimal(suites=["standard_form", "dirichlet", "semigroup"]))
    r1 = run_scenario_object(s, seed=3)
    r2 = run_scenario_object(s, seed=3)
    r1.pop("wall_clock_s")
    r2.pop("wall_clock_s")
    assert r1 == r2  # equality of every printed digit


def test_report_carries_scenario_echo_and_metadata():
    s = parse_scenario(_minimal(suites=["standard_form"]))
    r = run_scenario_object(s)
    assert r["scenario"]["name"] == "minimal"
    assert r["seed"] == 0
    assert "version" in r
    assert r["passed"] is True


def test_unbalanced_family_gets_a_skip_note():
    s = parse_scenario(
        _minimal(
            dim=3,
            state={"density": matrix_to_json(np.diag([0.5, 0.3, 0.2]))},
            coefficients={"random": {"kind": "ginibre", "count": 1, "seed": 3}},
            suites=["lindblad"],
        )
    )
    r = run_scenario_object(s)
    assert r["passed"]
    notes = r["suites"]["lindblad"]["notes"]
    assert any("BalanceViolated" in n for n in notes)
    assert "dirichlet_decomposition" not in r["suites"]["lindblad"]["residuals"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_run_exits_zero_and_writes_report(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(_minimal(suites=["standard_form", "semigroup"])))
    out = tmp_path / "r.json"
    assert main(["run", str(p), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]


def test_run_default_report_path(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(_minimal(suites=["standard_form"])))
    assert main(["run", str(p)]) == 0
    assert (tmp_path / "scenario.report.json").exists()


def test_run_exits_one_on_failing_suite(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.TOLERANCES, "algebraic", 1e-300)  # jordan_split reads 1.4e-15
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(_minimal(suites=["standard_form"])))
    assert main(["run", str(p)]) == 1


def test_run_exits_two_on_schema_problems(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", str(garbled)]) == 2

    badkernel = tmp_path / "badkernel.json"
    badkernel.write_text(json.dumps(_minimal(kernel={"sinc": {}})))
    assert main(["run", str(badkernel)]) == 2
    assert "kernel" in capsys.readouterr().err


def test_run_exits_two_on_unfaithful_state(tmp_path, capsys):
    p = tmp_path / "singular.json"
    p.write_text(
        json.dumps(
            _minimal(state={"density": matrix_to_json(np.diag([1.0, 0.0]))})
        )
    )
    assert main(["run", str(p)]) == 2
    assert "singular.json" in capsys.readouterr().err


def test_run_exits_two_on_non_hermitian_hamiltonian(tmp_path, capsys):
    p = tmp_path / "skew.json"
    h = matrix_to_json(np.array([[0.0, 1.0], [0.0, 1.0]]))
    p.write_text(json.dumps(_minimal(state={"gibbs": {"hamiltonian": h, "beta": 1.0}})))
    assert main(["run", str(p)]) == 2
    assert "hamiltonian" in capsys.readouterr().err


@pytest.mark.parametrize("magnitude", [1e154, 1e200])
def test_run_exits_two_on_a_coupling_whose_operator_overflows(tmp_path, capsys, magnitude):
    coupling = matrix_to_json(np.zeros((2, 2)))
    coupling[0][1] = [magnitude, 0.0]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(_minimal(coefficients=[coupling])))
    out = str(tmp_path / "r.json")
    subsets = [c for k in range(1, len(SUITES) + 1) for c in itertools.combinations(SUITES, k)]
    for subset in subsets:
        assert main(["run", str(p), "--suites", ",".join(subset), "--out", out]) == 2, subset
        assert "coefficients[0]" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_dirichlet_suite_gates_the_conjugation_form_residual(tmp_path):
    # E(J xi, J xi) = conj(E(xi, xi)) loses every digit at a 1e150 coupling
    coupling = matrix_to_json(np.zeros((2, 2)))
    coupling[0][1] = [1e150, 0.0]
    p = tmp_path / "large.json"
    p.write_text(json.dumps(_minimal(coefficients=[coupling])))
    out = tmp_path / "r.json"
    assert main(["run", str(p), "--suites", "dirichlet", "--out", str(out)]) == 1
    res = json.loads(out.read_text())["suites"]["dirichlet"]["residuals"]
    assert res["x0_conj_form_residual"] > 1e-8
    assert res["x0_h_xi0_residual"] < 1e-8 and res["x0_selfadjoint_defect"] < 1e-8


#: generated scenarios (seed 1) by name: (dim, kind)
_GENERATED = {"generated_hermitian_n4": (4, "hermitian"),
              "generated_balanced_pair_n8": (8, "balanced_pair")}


def _scenario_source(name):
    if name in _GENERATED:
        return generate_scenario(1, *_GENERATED[name])
    (path,) = [p for p in corpus_paths() if p.endswith(f"{name}.json")]
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, factor", [("generated_hermitian_n4", 300.0),
                                          ("unbalanced_single", 1e3),
                                          ("generated_hermitian_n4", 1e4),
                                          ("generated_balanced_pair_n8", 1e5)])
def test_large_couplings_get_a_report_not_a_drift_error(tmp_path, name, factor):
    """The auto drift of large couplings is Hermitian to rounding relative to its norm, and
    so is H (at x1e4 and x1e5 ||H - H*||_HS reads 8.9e-7 and 1.3e-3, past an absolute 1e-8):
    the run writes a report and exits 1 on absolute bars; no NotSelfAdjoint escapes."""
    obj = _scenario_source(name)
    xs = parse_scenario(obj).xs
    p = tmp_path / "s.json"
    p.write_text(json.dumps({**obj, "coefficients": [matrix_to_json(factor * x) for x in xs]}))
    out = tmp_path / "r.json"
    report, code = run_scenario(str(p), out=str(out))
    assert code == 1 and not report["passed"]
    assert json.loads(out.read_text())["suites"].keys() == set(SUITES)


def test_unconverged_boundary_quadrature_is_recorded(tmp_path):
    # Cauchy poles 1e-7 outside the strip: the boundary weight's quadrature cannot converge
    with open(os.path.join(os.path.dirname(corpus_paths()[0]), "balanced_pair_cauchy.json")) as fh:
        obj = json.load(fh)
    obj["kernel"] = {"cauchy": {"scale": 0.2500001}}
    p = tmp_path / "edge.json"
    p.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert main(["run", str(p), "--out", str(out)]) == 1
    suites = json.loads(out.read_text())["suites"]
    for name in ("dirichlet", "proof_regression"):
        assert not suites[name]["passed"]
        assert suites[name]["residuals"]["boundary_shift_identity"] == float("inf")
        kinds = [v["kind"] for v in suites[name]["violations"]]
        assert kinds == ["quadrature_not_converged"]
        assert "panel refinement" in suites[name]["violations"][0]["detail"]
    assert all(suites[name]["passed"] for name in ("standard_form", "modular", "lindblad",
                                                    "semigroup"))


def _corpus_object(name):
    with open(os.path.join(os.path.dirname(corpus_paths()[0]), f"{name}.json")) as fh:
        return json.load(fh)


def _fail_pole_tails(monkeypatch):
    """Every analytic pole tail raises, as a quadrature oracle that cannot converge."""
    def failing(kappa, radius, poles):
        raise QuadratureNotConverged("forced pole tail failure")

    monkeypatch.setattr(kernels, "_pole_tail", failing)


@pytest.mark.parametrize("base, kernel, suites, failing, detail, forced", [
    # f0 cos(100 t) has a transform near e^{-25}: panel refinement cannot reach 1e-9 of it
    ("nonmarkovian_control", {"signed_f0": {"alpha": 100.0}}, ["modular"],
     {"modular": ["smear_exact_vs_quadrature"]}, "panel refinement", False),
    # a failing pole tail fails every quadrature oracle of a Cauchy scenario
    ("balanced_pair_cauchy", {"cauchy": {"scale": 1000.0}}, None,
     {"modular": ["smear_exact_vs_quadrature"],
      "dirichlet": ["boundary_shift_identity", "engine_crosscheck"],
      "proof_regression": ["boundary_shift_identity"]}, "forced pole tail failure", True),
], ids=["control_alpha_100", "cauchy_scale_1000"])
def test_a_failed_oracle_is_recorded_in_the_report(
    tmp_path, monkeypatch, base, kernel, suites, failing, detail, forced
):
    if forced:
        _fail_pole_tails(monkeypatch)
    obj = _corpus_object(base)
    obj["kernel"] = kernel
    p, out = tmp_path / "s.json", tmp_path / "r.json"
    p.write_text(json.dumps(obj))
    args = ["run", str(p), "--out", str(out)] + (["--suites", ",".join(suites)] if suites else [])
    assert main(args) == 1
    for name, data in json.loads(out.read_text())["suites"].items():
        keys = failing.get(name, [])
        assert data["passed"] == (not keys), name
        assert sorted(k for k, v in data["residuals"].items() if v == float("inf")) == sorted(keys)
        assert [v["kind"] for v in data.get("violations", [])] == (
            ["quadrature_not_converged"] * len(keys)), name
        assert all(detail in v["detail"] for v in data.get("violations", [])), name


def test_the_cauchy_file_at_scale_1000_passes_every_suite(tmp_path):
    # k s passes 700 on its frequency grid: the pole tails switch to the scaled e^w E1(w)
    obj = _corpus_object("balanced_pair_cauchy")
    obj["kernel"] = {"cauchy": {"scale": 1000.0}}
    p, out = tmp_path / "s.json", tmp_path / "r.json"
    p.write_text(json.dumps(obj))
    assert main(["run", str(p), "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["suites"]) == sorted(SUITES)


@pytest.mark.parametrize("scale, code", [(7.5e153, 0), (1e154, 2), (1e155, 2), (1e300, 2)])
def test_a_cauchy_scale_past_a_finite_density_is_refused(scale, code, tmp_path, capsys):
    # pi s^2 overflows past (max / pi)^{1/2} = 7.5645e153; from 1.35e154 the run used to
    # end in an unconverged SVD, and below that in overflow warnings
    obj = _corpus_object("balanced_pair_cauchy")
    obj["kernel"] = {"cauchy": {"scale": scale}}
    p, out = tmp_path / "s.json", tmp_path / "r.json"
    p.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(p), "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code == 2:
        assert re.search(r"kernel: Cauchy scale .* must be at most 7\.5645\d*e\+153",
                         capsys.readouterr().err)


@pytest.mark.parametrize("scale", [0.3, 1.0, 50.0, 1000.0, 7.564545572282618e153])
def test_the_cauchy_scales_in_use_are_admitted(scale):
    # the corpus and the workloads use scale 1, CI 1, 50 and 1000
    obj = _corpus_object("balanced_pair_cauchy")
    obj["kernel"] = {"cauchy": {"scale": scale}}
    assert parse_scenario(obj).kernel.scale == scale


def test_a_failed_boundary_shift_is_computed_once_per_scenario(monkeypatch):
    # dirichlet and proof_regression both gate the oracle; a failure is shared like a value
    _fail_pole_tails(monkeypatch)
    calls = []
    real = cli.verify_boundary_shift

    def counted(sf, x, kernel):
        calls.append(x)
        return real(sf, x, kernel)

    monkeypatch.setattr(cli, "verify_boundary_shift", counted)
    obj = _corpus_object("balanced_pair_cauchy")
    obj["kernel"] = {"cauchy": {"scale": 1000.0}}
    run_scenario_object(parse_scenario({**obj, "suites": ["dirichlet"]}))
    one_pass = len(calls)
    calls.clear()
    suites = run_scenario_object(parse_scenario(obj))["suites"]
    assert 1 <= len(calls) == one_pass
    for name in ("dirichlet", "proof_regression"):
        assert suites[name]["residuals"]["boundary_shift_identity"] == float("inf")


def _cauchy_scenario(seed, dim, kind):
    obj = generate_scenario(seed, dim, kind)
    obj["kernel"] = {"cauchy": {"scale": 1.0}}
    return obj


def test_each_pole_tail_is_computed_once_per_scenario(monkeypatch):
    # a Cauchy balanced pair at n = 3: the smear oracle's tail on kappa, the boundary
    # shift's on nu and the engine cross-check's on nu, one call each for both couplings
    real = kernels._pole_tail
    calls = []

    def counted(kappa, radius, poles):
        calls.append((tuple(poles), radius, _digest(np.asarray(kappa, dtype=float))))
        return real(kappa, radius, poles)

    monkeypatch.setattr(kernels, "_pole_tail", counted)
    scenario = parse_scenario(_cauchy_scenario(1, 3, "balanced_pair"))
    assert len(scenario.xs) == 2
    assert run_scenario_object(scenario)["passed"]
    assert len(calls) == len(set(calls)) == 3


def test_a_defect_in_the_shared_adjoint_half_fails_the_run(tmp_path, monkeypatch, capsys):
    """Both engines expand d* d in one helper, so the engine cross-check cannot see a defect
    there.  Scaled by 1 + 1e-6 in every build, the sandwich half in the second index order,
    -(S(B, A*) + S(A, B*)) with x*'s S(B, A*), still fails the run: the
    decomposition and H xi0 gates see it.  Its entry (j, k), (p, q) has the frequency
    kappa_jk - kappa_pq, so a quadrature build weights it by the table at those indices."""
    real = dirichlet._gram_quadratic

    def skewed(sf, x, weight=None):
        H = real(sf, x, weight)
        a = sf.to_eigenbasis(x) * np.exp(sf.kappa / 4)
        b = a * np.exp(-sf.kappa / 2)
        half = (SuperOperator.sandwich(b, dagger(a)) + SuperOperator.sandwich(a, dagger(b))).mat
        H.mat -= 1e-6 * (half if weight is None else half * weight)
        return H

    monkeypatch.setattr(dirichlet, "_gram_quadratic", skewed)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(generate_scenario(1, 4, "balanced_pair")))
    report, code = run_scenario(str(p), out=str(tmp_path / "r.json"))
    assert code == 1
    suites = report["suites"]
    assert suites["dirichlet"]["residuals"]["engine_crosscheck"] < cli.TOLERANCES["cross_engine"]
    assert suites["lindblad"]["residuals"]["dirichlet_decomposition"] > cli.TOLERANCES["decomposition"]
    out = capsys.readouterr().out
    assert "[FAIL] dirichlet  failing x0_h_xi0_residual" in out
    assert "[FAIL] lindblad  failing dirichlet_decomposition" in out


def test_the_two_level_gibbs_state_at_beta_14_passes_every_suite(tmp_path):
    # smallest eigenvalue 2.1e-7: the thinnest order interval [0, xi0] of the corpus states
    obj = _corpus_object("gibbs_two_level")
    obj["state"]["gibbs"]["beta"] = 14.0
    p, out = tmp_path / "beta14.json", tmp_path / "r.json"
    p.write_text(json.dumps(obj))
    assert main(["run", str(p), "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["suites"]) == sorted(SUITES)


@pytest.mark.parametrize("tolerance, passed", [(None, False), (1e-3, True)])
def test_the_engine_crosscheck_reads_the_scenario_bar(monkeypatch, tolerance, passed):
    """A 1e-5 engine gap is the residual either way: the pinned cross_engine bar (1e-7)
    fails it, patched to 1e-3 it passes."""
    real = dirichlet._gram_quadratic

    def skewed(sf, x, weight=None):
        # the quadrature engine's table, not the exact engine's G0
        return real(sf, x, None if weight is None else (1 + 1e-5) * weight)

    monkeypatch.setattr(dirichlet, "_gram_quadratic", skewed)  # a 1e-5 engine gap
    if tolerance is not None:
        monkeypatch.setitem(cli.TOLERANCES, "cross_engine", tolerance)
    scenario = parse_scenario(_minimal(suites=["dirichlet"]))
    suite = run_scenario_object(scenario)["suites"]["dirichlet"]
    assert suite["passed"] == passed
    assert suite["residuals"]["engine_crosscheck"] == pytest.approx(1e-5, rel=1e-3)
    assert suite["violations"] == []


@pytest.mark.parametrize("method", ["hat", "hat_quadrature"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_frequency_layout_fault_in_either_engine_fails_the_crosscheck(monkeypatch, n, method):
    """The exact engine reads f's ``hat`` at H's indices (j, k), (p, q); the quadrature
    engine reads ``hat_quadrature`` at the Gram sum's (p, j), (q, k).  Either table read
    with its first index pair swapped, (p, j) as (j, p), drives the cross-check over its
    bar.  Grids other than the n^2 x n^2 one (the smear oracle's kappa) are left alone."""
    real = getattr(kernels.F0Kernel, method)

    def swapped(self, kappa):
        grid = np.asarray(kappa, dtype=float)
        if grid.shape == (n * n, n * n):
            grid = grid.reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(n * n, n * n)
        return real(self, grid)

    monkeypatch.setattr(kernels.F0Kernel, method, swapped)
    obj = generate_scenario(1, n, "balanced_pair")
    obj["suites"] = ["dirichlet"]
    suite = run_scenario_object(parse_scenario(obj))["suites"]["dirichlet"]
    assert not suite["passed"]
    assert suite["residuals"]["engine_crosscheck"] > 1e3 * cli.TOLERANCES["cross_engine"]


def test_the_consistency_gate_reads_the_integral_bar(monkeypatch):
    # unbalanced_single: kms_symmetry 13.1, ||H - H*|| and the criterion both 33.6
    scenario = replace(_corpus_scenario("unbalanced_single"), suites=("lindblad",))
    assert run_scenario_object(scenario)["suites"]["lindblad"]["passed"]
    monkeypatch.setitem(cli.TOLERANCES, "integral", 20.0)
    suite = run_scenario_object(scenario)["suites"]["lindblad"]
    assert not suite["passed"]
    assert suite["residuals"]["kms_consistent"] is False
    assert suite["residuals"]["selfadjointness_consistent"] is True
    # the table is the only bar: no oracle of the package takes one
    bars = {"tol", "rtol", "atol"}
    for name in mdf.__all__:
        obj = getattr(mdf, name)
        if inspect.isfunction(obj):
            assert not bars & set(inspect.signature(obj).parameters), name


def test_suites_flag_filters_and_validates(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(_minimal()))
    out = tmp_path / "r.json"
    assert main(["run", str(p), "--suites", "standard_form", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report["suites"]) == ["standard_form"]
    capsys.readouterr()
    for bad in ("bogus", "modular,", ""):
        assert main(["run", str(p), "--suites", bad]) == 2, bad
        assert "--suites: unknown suite" in capsys.readouterr().err, bad


@pytest.mark.parametrize("command", ["run", "generate", "generate_onto_a_directory", "corpus"])
def test_an_unwritable_output_exits_two_naming_the_path(tmp_path, capsys, command):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_minimal(suites=["standard_form"])))
    missing = tmp_path / "missing" / "out.json"
    a_file = tmp_path / "reports"
    a_file.write_text("")
    a_dir = tmp_path / "adir"
    a_dir.mkdir()
    generate = ["generate", "--seed", "1", "--dim", "2", "--kind", "hermitian", "--out"]
    target, args = {
        "run": (missing, ["run", str(scenario), "--out", str(missing)]),
        "generate": (missing, generate + [str(missing)]),
        "generate_onto_a_directory": (a_dir, generate + [str(a_dir)]),
        "corpus": (a_file, ["corpus", "--out-dir", str(a_file)]),
    }[command]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    assert list(tmp_path.rglob("*.tmp.*")) == []


def test_a_failed_report_write_leaves_no_temporary_file(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_minimal(suites=["standard_form"])))
    target = tmp_path / "adir"
    target.mkdir()
    assert main(["run", str(scenario), "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    assert list(tmp_path.glob("adir.tmp.*")) == []


@pytest.mark.parametrize("content", [b"\xff\xfe\x00bad", b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
                         ids=["not_utf8", "nested_too_deep"])
def test_an_undecodable_scenario_exits_two_as_invalid_json(tmp_path, capsys, content):
    scenario = tmp_path / "s.json"
    scenario.write_bytes(content)
    assert main(["run", str(scenario)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario} is not valid JSON: ")


def test_generate_is_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--seed", "1", "--dim", "2", "--kind", "hermitian",
                 "--out", str(a)]) == 0
    assert main(["generate", "--seed", "1", "--dim", "2", "--kind", "hermitian",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generated_scenario_runs_green(tmp_path):
    p = tmp_path / "g.json"
    assert main(["generate", "--seed", "2", "--dim", "2", "--kind", "balanced_pair",
                 "--out", str(p)]) == 0
    assert main(["run", str(p), "--out", str(tmp_path / "g.report.json")]) == 0


def test_generate_scenario_object_shape():
    s = generate_scenario(3, 2, "ginibre")
    parsed = parse_scenario(s)
    assert parsed.sf.dim == 2
    assert len(parsed.xs) == 1


# ---------------------------------------------------------------------------
# the bundled corpus
# ---------------------------------------------------------------------------

def test_corpus_is_complete():
    names = {os.path.basename(p) for p in corpus_paths()}
    assert names == {
        "tracial_double_commutator.json",
        "gibbs_two_level.json",
        "gibbs_three_level_degenerate.json",
        "balanced_pair_cauchy.json",
        "unbalanced_single.json",
        "nonmarkovian_control.json",
    }


def test_corpus_runs_green(tmp_path, capsys):
    assert main(["corpus", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if "[ok ]" in line and "failing" in line]
    # the tracial scenario pins the spectral gap of the double commutator
    tracial = json.loads((tmp_path / "tracial_double_commutator.report.json").read_text())
    gap = tracial["suites"]["semigroup"]["residuals"]["spectral_gap"]
    assert gap == pytest.approx(4.0, abs=1e-10)
    # the control scenario must show violations yet pass as a control
    control = json.loads((tmp_path / "nonmarkovian_control.report.json").read_text())
    assert control["passed"]
    semi = control["suites"]["semigroup"]["residuals"]
    assert semi["interval_violations"] > 0
    assert semi["positivity_violations"] > 0
    assert control["suites"]["semigroup"]["violations"]


# ---------------------------------------------------------------------------
# the shared per-scenario context
# ---------------------------------------------------------------------------

def _corpus_scenario(name):
    with open(os.path.join(os.path.dirname(corpus_paths()[0]), f"{name}.json")) as fh:
        return replace(parse_scenario(json.load(fh)), suites=SUITES)


def _digest(a):
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


#: library functions that build an operator or a residual the context shares
_SHARED = (
    "dirichlet_operator",
    "spec_from_couplings",
    "lindblad_superop",
    "induced_operator",
    "induced_operator_shifted",
    "induced_adjoint_shifted",
    "check_balance_condition",
    "verify_boundary_shift",
    "general_f_embedding_residual",
)

#: residuals the context computes from its shared operators
_SHARED_RESIDUALS = ("criterion_gap", "decomposition")


def test_assembly_never_composes_dense_superoperators():
    # the embedding conjugation is four n x n contractions and G0 a sandwich
    # sum, so nothing multiplies two n^2 x n^2 operators: the class cannot
    assert not hasattr(SuperOperator, "__matmul__")


def test_full_run_builds_each_shared_operator_once(monkeypatch):
    scenario = _corpus_scenario("balanced_pair_cauchy")
    calls = []
    active = [None]

    def counted(module, name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            key = None
            if name == "dirichlet_operator":
                kernel = bound.get("kernel")
                key = (_digest(bound["spec"]), type(kernel).__name__, bound.get("engine"))
            calls.append((name, active[0], key, module.__name__))
            return fn(*args, **kwargs)

        return wrapper

    for module in (cli, lindblad):
        for name in _SHARED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(module, name, getattr(module, name)))
    for name in _SHARED_RESIDUALS:
        member = cached_property(counted(cli, name, getattr(ScenarioContext, name).func))
        member.__set_name__(ScenarioContext, name)
        monkeypatch.setattr(ScenarioContext, name, member)
    for suite, runner in list(cli._SUITE_RUNNERS.items()):
        def traced(ctx, suite=suite, runner=runner):
            active[0] = suite
            try:
                return runner(ctx)
            finally:
                active[0] = None

        monkeypatch.setitem(cli._SUITE_RUNNERS, suite, traced)

    report = run_scenario_object(scenario)
    assert report["passed"]
    xs = scenario.xs
    assert len(xs) == 2 and np.array_equal(xs[1], dagger(xs[0]))
    builds = [key for name, _, key, _ in calls if name == "dirichlet_operator"]
    for x in xs:
        # the scenario kernel for H_k, f0 for the decomposition; the split
        # check builds only the self-adjoint parts
        assert builds.count((_digest(x), "CauchyKernel", None)) == 1
        assert builds.count((_digest(x), "F0Kernel", None)) == 1
    for name in ("induced_operator", "induced_operator_shifted", "induced_adjoint_shifted"):
        assert [c for c in calls if c[0] == name] == [(name, "lindblad", None, "mdf.cli")]
    # the context builds the auto-drift spec, its balance report and its generator L
    # once; the component decomposition takes all three and builds only its
    # per-component specs, inside mdf.lindblad
    for name in ("spec_from_couplings", "check_balance_condition"):
        assert sum(c[0] == name and c[3] == "mdf.cli" for c in calls) == 1
    assert [c[3] for c in calls if c[0] == "lindblad_superop"] == ["mdf.cli"]
    # the boundary-shift oracle takes the stack of couplings: one transform table per scenario
    assert sum(c[0] == "verify_boundary_shift" for c in calls) == 1
    assert sum(c[0] == "general_f_embedding_residual" for c in calls) == len(xs)
    # lindblad computes the shared residuals; proof_regression reads them
    for name in _SHARED_RESIDUALS:
        assert [c[:2] for c in calls if c[0] == name] == [(name, "lindblad")]
    assert [c for c in calls if c[1] == "proof_regression"] == []


@pytest.mark.parametrize(
    "name", ["gibbs_two_level", "balanced_pair_cauchy", "unbalanced_single", "nonmarkovian_control"]
)
def test_shared_residuals_do_not_depend_on_the_suites_run(name):
    scenario = _corpus_scenario(name)
    full = run_scenario_object(scenario)["suites"]
    for suite in ("lindblad", "proof_regression"):
        alone = run_scenario_object(replace(scenario, suites=(suite,)))["suites"][suite]
        assert alone["residuals"] == full[suite]["residuals"]
        assert alone["notes"] == full[suite]["notes"]
    assert "form_matches_operator" not in full["dirichlet"]["residuals"]


def test_suites_leave_the_shared_operators_untouched():
    ctx = ScenarioContext(_corpus_scenario("balanced_pair_cauchy"), seed=3)
    members = ctx.parts + [ctx.H, ctx.induced, ctx.induced_shifted, ctx.induced_adjoint]
    before = [m.mat.copy() for m in members]
    for suite in SUITES:
        assert cli._SUITE_RUNNERS[suite](ctx)["passed"], suite
    for m, b in zip(members, before):
        assert np.array_equal(m.mat, b)


def test_criterion_and_balance_are_built_once(monkeypatch):
    scenario = _corpus_scenario("balanced_pair_cauchy")
    xs = scenario.xs
    calls = []

    def counted(name, fn):
        def wrapper(sf, arg, *args, **kwargs):
            if name != "spec_from_couplings" or len(arg) == len(xs):
                calls.append(name)
            return fn(sf, arg, *args, **kwargs)

        return wrapper

    for name in ("drift_criterion", "check_balance_condition", "spec_from_couplings"):
        wrapper = counted(name, getattr(lindblad, name))
        for module in (cli, lindblad):
            monkeypatch.setattr(module, name, wrapper)
    report = run_scenario_object(scenario)
    assert report["passed"]
    assert "component_decomposition" in report["suites"]["lindblad"]["residuals"]
    # the full family's spec, its balance report and its drift criterion, once each
    assert sorted(calls) == ["check_balance_condition", "drift_criterion", "spec_from_couplings"]


# ---------------------------------------------------------------------------
# gates: each residual recorded with its bound, one verdict rule
# ---------------------------------------------------------------------------

def _recorder(negative_control=False, judges_control=False):
    return cli._Gates(SimpleNamespace(negative_control=negative_control), judges_control)


@pytest.mark.parametrize(
    "op, bound, holding, failing",
    [
        ("<", 1e-8, [0.0, 9.99e-9], [1e-8, 1.01e-8, float("inf"), float("nan")]),
        (">", 0.0, [1e-300, 0.3], [0.0, -1e-300, float("nan")]),
        (">", -1e-9, [-0.99e-9, 0.0], [-1e-9, -1.01e-9]),
        ("==", 0, [0], [1, 15]),
        ("==", True, [True], [False]),
    ],
)
def test_each_gate_holds_below_its_bound_and_fails_at_it(op, bound, holding, failing):
    for value in holding + failing:
        rec = _recorder()
        rec.gate("r", value, op, bound)
        report = rec.report([])
        assert report["passed"] is (value in holding), value
        assert report["gates"] == {"r": (op, bound)}
        assert report["residuals"] == {"r": value}


def test_info_records_without_gating():
    rec = _recorder()
    rec.info("r", float("inf"))
    rec.gate("s", 0.0, "<", "algebraic")
    report = rec.report(["a note"], violations=[])
    assert report == {"passed": True, "residuals": {"r": float("inf"), "s": 0.0},
                      "gates": {"s": ("<", 1e-10)}, "notes": ["a note"], "violations": []}
    assert "violations" not in rec.report([])


def test_tolerance_key_bound_reads_the_pinned_table(monkeypatch):
    assert cli.TOLERANCES == {"algebraic": 1e-10, "integral": 1e-8, "cross_engine": 1e-7,
                              "decomposition": 1e-7, "psd": 1e-9}
    monkeypatch.setitem(cli.TOLERANCES, "integral", 3e-4)
    rec = _recorder()
    rec.gate("r", 2e-4, "<", "integral")
    assert rec.report([])["gates"] == {"r": ("<", 3e-4)} and rec.report([])["passed"]
    monkeypatch.setitem(cli.TOLERANCES, "algebraic", 2.5e-3)
    suite = run_scenario_object(parse_scenario(_minimal(suites=["standard_form"])))
    gates = suite["suites"]["standard_form"]["gates"]
    assert gates["j_fixes_xi0"] == ["<", 2.5e-3]
    assert gates["embedding_roundtrip"] == ["<", 3e-4]
    assert gates["state_min_eigenvalue"] == [">", 0.0]


@pytest.mark.parametrize("markov_holds", [True, False])
@pytest.mark.parametrize("structure_holds", [True, False])
@pytest.mark.parametrize("mode", ["normal", "dirichlet_control", "semigroup_control"])
def test_negative_control_verdicts(mode, structure_holds, markov_holds):
    rec = _recorder(negative_control=mode != "normal", judges_control=mode == "semigroup_control")
    rec.gate("structure", 0.0 if structure_holds else 1.0, "<", "integral")
    rec.gate("violations", 0 if markov_holds else 3, "==", 0, markov=True)
    report = rec.report([])
    assert report["residuals"] == {"structure": report["residuals"]["structure"],
                                   "violations": 0 if markov_holds else 3}
    if mode == "normal":
        expected = structure_holds and markov_holds
    elif mode == "dirichlet_control":  # Markovianity is informational
        expected = structure_holds
        assert "violations" not in report["gates"]
    else:  # the control must show at least one violation
        expected = structure_holds and not markov_holds
    assert report["passed"] is expected



def _control_scenario():
    (path,) = [p for p in corpus_paths() if p.endswith("nonmarkovian_control.json")]
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario({**json.load(fh), "suites": ["semigroup"]})


@pytest.mark.parametrize("field", ["xi0_invariance_max", "j_real_max"])
def test_a_control_that_breaks_structure_fails(monkeypatch, field):
    """A control whose T_t stops fixing xi0 (or commuting with J) and shows
    no sampled violation is no control: it fails, it does not pass as designed."""
    real = cli.markovianity_report

    def broken(sf, H, seed):
        rep = real(sf, H, seed)
        return replace(rep, interval_violations=0, extreme_violations=0,
                       positivity_violations=0, form_violations=0, witnesses=(),
                       **{field: 1e-3})

    monkeypatch.setattr(cli, "markovianity_report", broken)
    suite = run_scenario_object(_control_scenario())["suites"]["semigroup"]
    assert not suite["passed"]
    assert suite["notes"] == ["negative control FAILED to produce any violation"]


def test_the_shipped_control_passes_with_violations():
    suite = run_scenario_object(_control_scenario())["suites"]["semigroup"]
    assert suite["passed"]
    assert suite["notes"] == ["negative control produced violations as designed"]
    assert suite["gates"]["xi0_invariance"] == ["<", 1e-8]
    assert suite["residuals"]["xi0_invariance"] < 1e-12 and suite["residuals"]["j_real"] < 1e-12


def _signed_control(n):
    """The generated n-level balanced pair under the signed weight at alpha = 6, as a control."""
    signed = {"kernel": {"signed_f0": {"alpha": 6.0}}, "negative_control": True}
    return parse_scenario({**generate_scenario(1, n, "balanced_pair"), **signed})


@pytest.mark.parametrize("n", [6, 8, 12, pytest.param(16, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 5: semigroup_factor_error reads 4.5e-6 against 1e-9, "
    "an absolute bound on a T_t of norm e^{1.2 |min w|}"))])
def test_generated_signed_controls_pass_every_suite(n):
    """xi0 and J are measured relative to ||T_t||: rounding that the control's
    growing modes amplify (xi0_invariance 37.5, j_real 1.3e5 at n = 8) fails no gate."""
    report = run_scenario_object(_signed_control(n))
    failing = {name: [k for k, gate in data["gates"].items() if not cli._holds(
        data["residuals"][k], *gate)] for name, data in report["suites"].items()}
    assert report["passed"], failing
    notes = report["suites"]["semigroup"]["notes"]
    assert notes == ["negative control produced violations as designed"]


@pytest.mark.parametrize("fault", ["eigenvectors", "eigenvalue"])
def test_perturbed_spectral_factors_fail_the_factor_certificate(monkeypatch, fault):
    """V off by 1e-8 Ginibre, or one eigenvalue off by 1e-8: every T_t the
    suite reads is then that far from e^{-tH}, and the certificate says so."""
    eigh = SuperOperator.eigh

    def perturbed(self):
        w, V = eigh(self)
        if fault == "eigenvectors":
            return w, V + 1e-8 * ginibre(len(w), np.random.default_rng(0))
        return w + 1e-8 * (np.arange(len(w)) == len(w) - 1), V

    monkeypatch.setattr(SuperOperator, "eigh", perturbed)
    suites = run_scenario_object(
        replace(_corpus_scenario("balanced_pair_cauchy"), suites=("semigroup",)))["suites"]
    assert suites["semigroup"]["residuals"]["semigroup_factor_error"] > 1e-9
    (line,) = _summary(suites)
    assert line.startswith("  [FAIL] semigroup  failing semigroup_factor_error = ")


def test_a_complex_kernel_mode_fails_the_psd_gate_through_the_weyl_term(monkeypatch):
    """H_0 - c uu*, u = (a + ib)/sqrt 2 for orthonormal J-real kernel vectors a, b of
    the tracial double commutator, c = 1.5e-9: its lowest eigenvalue is -c, the real
    part of its real form reads only -c/2, and the Weyl term -d carries it past -1e-9."""
    init = ScenarioContext.__init__
    faulted = []

    def fault(self, scenario, seed):
        init(self, scenario, seed)
        w, V = self.parts[0].eigh()
        assert np.abs(w[:2]).max() < 1e-12 < w[2]  # the two-dimensional kernel
        u = (V[:, 0] + 1j * V[:, 1]) / np.sqrt(2.0)
        self.parts[0] = self.parts[0] - SuperOperator(1.5e-9 * np.outer(u, u.conj()), 2)
        faulted.append(self.parts[0])

    monkeypatch.setattr(ScenarioContext, "__init__", fault)
    suites = run_scenario_object(
        replace(_corpus_scenario("tracial_double_commutator"), suites=("dirichlet",)))["suites"]
    R, d = faulted[0].real_form()
    real_part = np.linalg.eigvalsh((R + R.T) / 2.0)[0]
    assert real_part > -1e-9  # the real part alone would pass the gate
    assert suites["dirichlet"]["residuals"]["x0_psd_min_eig"] == real_part - d < -1e-9
    (line,) = _summary(suites)
    assert line.startswith("  [FAIL] dirichlet  failing x0_psd_min_eig = ")


def test_flow_at_the_conjugate_time_fails_the_commutant_check(monkeypatch):
    """sigma_z(j(x)) = j(sigma_{conj z}(x)) pins the time the flow runs at:
    a superoperator flow at conj(z) fails it, and the summary says so."""
    flow = cli.superop_sigma
    monkeypatch.setattr(cli, "superop_sigma", lambda sf, K, z: flow(sf, K, np.conj(z)))
    suites = run_scenario_object(
        replace(_corpus_scenario("balanced_pair_cauchy"), suites=("modular",)))["suites"]
    assert suites["modular"]["residuals"]["flow_commutant_compatibility"] > 1e-10
    (line,) = _summary(suites)
    assert line.startswith("  [FAIL] modular  failing flow_commutant_compatibility = ")


@pytest.mark.parametrize("fault", [None, "xi0_invariance"])
def test_a_control_summary_names_only_a_gate_that_broke_its_verdict(monkeypatch, fault):
    """The n = 4 signed control must fail its violation counts: a passing one
    prints no failing gate, a failing one names the structure gate it lost."""
    if fault:
        real = cli.markovianity_report
        monkeypatch.setattr(cli, "markovianity_report",
                            lambda sf, H, seed: replace(real(sf, H, seed), xi0_invariance_max=1e-3))
    report = run_scenario_object(replace(_signed_control(4), suites=("semigroup",)))
    assert report["suites"]["semigroup"]["residuals"]["interval_violations"] > 0
    (line, note) = _summary(report["suites"], report["scenario"])
    if fault:
        assert line == "  [FAIL] semigroup  failing xi0_invariance = 1.000e-03 (< 1.000e-08)"
    else:
        assert line.startswith("  [ok ] semigroup  tightest ")
    assert note == "        note: negative control produced violations as designed"


def _console(args, tmp_path, stdout=subprocess.PIPE, env=None, prelude=""):
    """``mdf`` with ``args`` in a fresh interpreter after ``prelude``; stderr goes to a file."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = f"import sys\n{prelude}from mdf.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    with open(tmp_path / "stderr.txt", "w") as err:
        return subprocess.Popen([sys.executable, "-c", code, *args], stdout=stdout, stderr=err,
                                env={**(env or os.environ), "PYTHONPATH": src})


def test_a_run_needs_no_scipy(tmp_path):
    """E1 of the Cauchy pole tails is numpy's: the corpus runs with scipy unimportable."""
    proc = _console(["corpus", "--out-dir", str(tmp_path / "reports")], tmp_path,
                    stdout=subprocess.DEVNULL, prelude="sys.modules['scipy'] = None\n")
    assert proc.wait(timeout=300) == 0, (tmp_path / "stderr.txt").read_text()
    reports = sorted(os.listdir(tmp_path / "reports"))
    assert len(reports) == 6 and "balanced_pair_cauchy.report.json" in reports


@pytest.mark.parametrize("command, buffered", [("run", True), ("run", False), ("corpus", False)])
def test_a_reader_that_closes_early_is_not_a_failure(tmp_path, command, buffered):
    """``mdf run s.json | true``: no traceback, the reports written, the earned exit code."""
    (path,) = [p for p in corpus_paths() if p.endswith("gibbs_two_level.json")]
    args = (["run", path, "--out", str(tmp_path / "r.json")] if command == "run"
            else ["corpus", "--out-dir", str(tmp_path / "reports")])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:  # each summary line meets the closed pipe inside print_summary
        env["PYTHONUNBUFFERED"] = "1"
    proc = _console(args, tmp_path, env=env)
    proc.stdout.close()  # the reader is gone before the first line
    assert (proc.wait(timeout=300), (tmp_path / "stderr.txt").read_text()) == (0, "")
    if command == "run":
        assert json.loads((tmp_path / "r.json").read_text())["passed"]
    else:
        assert len(os.listdir(tmp_path / "reports")) == 6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_a_repeated_run_faults_in_almost_no_pages(tmp_path):
    """The runner keeps freed n^2 x n^2 buffers, so a second run reuses their pages."""
    path = tmp_path / "n12.json"
    obj = generate_scenario(1, 12, "balanced_pair")
    path.write_text(json.dumps({**obj, "suites": ["modular", "dirichlet", "lindblad"]}))
    code = (
        "import resource, sys\n"
        "from mdf.cli import run_scenario\n"
        "run_scenario(sys.argv[1], out=sys.argv[2])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run_scenario(sys.argv[1], out=sys.argv[2])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "r.json")],
                          check=True, env=env, capture_output=True, text=True, timeout=120)
    faults = int(proc.stdout.splitlines()[-1])
    assert faults < 300, faults  # 2,000 to 3,000 under glibc's dynamic thresholds


def test_the_allocator_policy_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert cli._keep_freed_superoperators.__wrapped__() is None


#: residuals that no gate reads, per suite
_INFORMATIONAL = {
    "lindblad": {"balance_condition", "balance_lemma", "selfadjointness_criterion",
                 "kms_symmetry"},
    "semigroup": {"worst_interval_margin", "worst_positivity_margin", "worst_form_gap",
                  "spectral_gap", "kernel_dimension"},
}


def _informational(suite, data, scenario):
    info = set(_INFORMATIONAL.get(suite, ()))
    if suite == "dirichlet" and scenario.get("negative_control"):
        info |= {"cone_form_residual", "psd_min_eig", "negativity_violations"}
    if suite == "lindblad" and any("BalanceViolated" in n for n in data["notes"]):
        info.add("selfadjointness_operator")
    return info


def test_every_corpus_residual_is_gated_or_listed_as_informational(tmp_path):
    main(["corpus", "--out-dir", str(tmp_path)])
    reports = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.report.json"))]
    assert len(reports) == 6
    for report in reports:
        for suite, data in report["suites"].items():
            res, gates = data["residuals"], data["gates"]
            assert set(gates) <= set(res), suite
            ungated = {re.sub(r"^x\d+_", "", k) for k in res if k not in gates}
            assert ungated == _informational(suite, data, report["scenario"]), (
                report["scenario"]["name"], suite)
            for key, (op, bound) in gates.items():
                assert op in ("<", ">", "=="), key


def _summary(suites, scenario=None):
    report = {"scenario": scenario or {"name": "s"}, "passed": False, "wall_clock_s": 0.0,
              "suites": suites}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.print_summary(report, "out.json")
    return buf.getvalue().splitlines()[1:]


def test_summary_names_a_failing_gate_else_the_tightest():
    residuals = {"state_min_eigenvalue": 0.3, "a": 5e-11, "b": 4e-9, "count": 0}
    gates = {"state_min_eigenvalue": [">", 0.0], "a": ["<", 1e-10], "b": ["<", 1e-8],
             "count": ["==", 0]}
    ok = {"passed": True, "residuals": residuals, "gates": gates, "notes": ["n"]}
    failing = {"passed": False, "residuals": {**residuals, "count": 2}, "gates": gates,
               "notes": []}
    assert _summary({"x": ok, "y": failing}) == [
        "  [ok ] x  tightest a = 5.000e-11 (< 1.000e-10)",
        "        note: n",
        "  [FAIL] y  failing count = 2 (== 0)",
    ]
