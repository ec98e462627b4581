"""Markovian semigroups: law, symmetry, contraction, the certificate of the
spectral factors, and the order interval."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from mdf import (
    NotSelfAdjoint,
    SemigroupProbe,
    SuperOperator,
    build_standard_form,
    cli,
    dirichlet_operator,
    evolve,
    markovianity_report,
    nonmarkovian_control,
    semigroup_operator,
    spectral_gap,
    tracial_state,
)
from mdf.linalg import dagger, ginibre, hs_inner, hs_norm, random_hermitian
from mdf.semigroup import extreme_interval_element, factor_certificate, random_interval_element


@pytest.fixture
def H3(sf3, rng):
    return dirichlet_operator(sf3, random_hermitian(3, rng))


# ---------------------------------------------------------------------------
# semigroup basics
# ---------------------------------------------------------------------------

def test_time_zero_is_identity(H3):
    assert (semigroup_operator(H3, 0.0) - SuperOperator.identity(3)).norm() < 1e-13


def test_semigroup_law(H3):
    Ts = semigroup_operator(H3, 0.4)
    Tt = semigroup_operator(H3, 1.1)
    Tst = semigroup_operator(H3, 1.5)
    assert (Ts @ Tt - Tst).norm() < 1e-12


def test_symmetry(H3, rng):
    T = semigroup_operator(H3, 0.8)
    a, b = ginibre(3, rng), ginibre(3, rng)
    assert abs(complex(hs_inner(T.apply(a), b)) - complex(hs_inner(a, T.apply(b)))) < 1e-12


def test_contraction(H3, rng):
    for t in (0.1, 1.0, 25.0):
        assert semigroup_operator(H3, t).norm() <= 1.0 + 1e-12


def test_evolve_matches_operator(H3, rng):
    T = semigroup_operator(H3, 0.7)
    for xi in (ginibre(3, rng), ginibre(3, rng, (5,))):
        np.testing.assert_allclose(evolve(H3, xi, 0.7), T.apply(xi), atol=1e-13)


def test_cyclic_vector_is_stationary(sf3, H3):
    for t in (0.5, 5.0):
        np.testing.assert_allclose(evolve(H3, sf3.xi0, t), sf3.xi0, atol=1e-12)


def test_negative_time_rejected(H3):
    with pytest.raises(ValueError):
        semigroup_operator(H3, -0.1)


def test_non_selfadjoint_generator_rejected(rng):
    K = SuperOperator.left_mult(ginibre(2, rng))
    with pytest.raises(NotSelfAdjoint):
        semigroup_operator(K, 1.0)


def test_tiny_negative_eigenvalues_are_clamped():
    # eigenvalues in (-1e-9, 0) are numerical zeros: no exponential growth;
    # entries (0, 1) and (1, 0) share a factor, so H is J-real
    base = np.diag([0.0, 1.0, 1.0, 3.0]).astype(complex)
    H = SuperOperator(base - 5e-10 * np.eye(4), 2)
    T = semigroup_operator(H, 50.0)
    assert T.norm() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# the certificate of the spectral factors
# ---------------------------------------------------------------------------

def _corpus_operator(name):
    (path,) = [p for p in cli.corpus_paths() if p.endswith(f"{name}.json")]
    with open(path, "r", encoding="utf-8") as fh:
        return cli.ScenarioContext(cli.parse_scenario(json.load(fh)), 0).H


CERTIFIED = {
    **{name: functools.partial(_corpus_operator, name) for name in (
        "tracial_double_commutator", "gibbs_two_level", "gibbs_three_level_degenerate",
        "balanced_pair_cauchy", "unbalanced_single", "nonmarkovian_control")},
    "generated_n8": lambda: cli.ScenarioContext(
        cli.parse_scenario(cli.generate_scenario(1, 8, "balanced_pair")), 0).H,
    "signed_control": lambda: nonmarkovian_control(
        build_standard_form(np.diag([0.9, 0.1])), random_hermitian(2, np.random.default_rng(0))),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_the_factor_certificate_bounds_the_computed_semigroup(name):
    H = CERTIFIED[name]()
    cert = factor_certificate(H)
    Hh = 0.5 * (H.mat + dagger(H.mat))
    for t in cli.PROBE_TIMES:
        T = semigroup_operator(H, t)
        delta, j_bound = cert.bounds(t)
        assert delta >= hs_norm(T.mat - expm(-t * Hh)), t
        assert j_bound >= T.j_real_defect(), t


def test_the_certificate_is_infinite_without_near_orthonormal_factors():
    H = SuperOperator(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), 2)
    H._eig = (np.arange(4.0), 2.0 * np.eye(4))
    cert = factor_certificate(H)
    assert cert.mu == np.inf
    assert cert.bounds(0.0) == (6.0, 12.0) and cert.orthogonality == 6.0  # ||3 I||_HS on C^4
    assert cert.bounds(1.0) == (np.inf, np.inf)


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

def test_gap_of_tracial_double_commutator():
    sf = tracial_state(2)
    H = dirichlet_operator(sf, np.diag([1.0, -1.0]))
    gap, kernel_dim = spectral_gap(H)
    assert gap == pytest.approx(4.0, abs=1e-12)
    assert kernel_dim == 2  # the commutant of x: diagonal matrices


def test_gap_of_zero_operator():
    gap, kernel_dim = spectral_gap(SuperOperator.zero(2))
    assert gap is None
    assert kernel_dim == 4


def test_generic_generator_has_positive_gap(H3):
    gap, kernel_dim = spectral_gap(H3)
    assert gap is not None and gap > 0
    assert kernel_dim >= 1


# ---------------------------------------------------------------------------
# order-interval preservation
# ---------------------------------------------------------------------------

def test_interval_samplers_land_in_the_interval(sf3, rng):
    for _ in range(20):
        eta = random_interval_element(sf3, rng)
        assert np.linalg.eigvalsh(eta)[0] > -1e-12
        assert np.linalg.eigvalsh(sf3.xi0 - eta)[0] > -1e-12
        ex = extreme_interval_element(sf3, rng)
        assert np.linalg.eigvalsh(ex)[0] > -1e-12
        assert np.linalg.eigvalsh(sf3.xi0 - ex)[0] > -1e-12


def test_markovian_semigroup_passes_probe(sf3, H3):
    probe = SemigroupProbe(H=H3, times=(0.1, 1.0, 10.0), samples=50, seed=11)
    rep = markovianity_report(sf3, probe)
    assert rep.markovian
    assert rep.interval_violations == 0
    assert rep.extreme_violations == 0
    assert rep.positivity_violations == 0
    assert rep.form_violations == 0
    assert rep.xi0_invariance_max < 1e-10
    assert rep.j_real_max < 1e-10
    assert not rep.witnesses


def test_probe_validation(H3, rng):
    with pytest.raises(ValueError):
        SemigroupProbe(H=H3, times=(-1.0,), samples=10, seed=0)
    with pytest.raises(NotSelfAdjoint):
        SemigroupProbe(H=SuperOperator.left_mult(ginibre(3, rng)), times=(1.0,),
                       samples=10, seed=0)


def test_signed_weight_control_is_detected():
    """The pinned counterexample: rho = diag(0.9, 0.1), Hermitian
    coupling, cosine-modulated weight at alpha = 6.  The induced
    operator stays self-adjoint with H xi0 = 0 (it passes every
    structural gate) but has genuinely negative eigenvalues, and the
    probe must see interval and positivity violations."""
    sf = build_standard_form(np.diag([0.9, 0.1]))
    x = random_hermitian(2, np.random.default_rng(0))
    H = nonmarkovian_control(sf, x, alpha=6.0)
    # structural gates all pass
    assert H.selfadjoint_defect() < 1e-12
    assert hs_norm(H.apply(sf.xi0)) < 1e-12
    assert H.j_real_defect() < 1e-12
    # but the spectrum dips properly negative
    w, _ = H.eigh()
    assert w[0] < -1e-3
    probe = SemigroupProbe(H=H, times=(0.1, 1.0, 10.0), samples=100, seed=5)
    rep = markovianity_report(sf, probe)
    assert not rep.markovian
    assert rep.interval_violations >= 10
    assert rep.positivity_violations >= 20
    assert rep.worst_interval_margin < -0.1
    assert rep.witnesses


def test_control_is_negative_across_coupling_seeds():
    # robustness of the counterexample: every seed produces negativity
    sf = build_standard_form(np.diag([0.9, 0.1]))
    for seed in range(6):
        x = random_hermitian(2, np.random.default_rng(seed))
        H = nonmarkovian_control(sf, x, alpha=6.0)
        w, _ = H.eigh()
        assert w[0] < -1e-4, f"seed {seed} unexpectedly positive"


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 50.0, allow_nan=False))
def test_contraction_property(t):
    sf = build_standard_form(np.diag([0.6, 0.4]))
    H = dirichlet_operator(sf, random_hermitian(2, np.random.default_rng(3)))
    rng = np.random.default_rng(4)
    eta = ginibre(2, rng)
    assert hs_norm(evolve(H, eta, t)) <= hs_norm(eta) + 1e-10
