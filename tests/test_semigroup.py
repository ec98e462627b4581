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
    CosineModulatedF0,
    NotSelfAdjoint,
    SuperOperator,
    build_standard_form,
    cli,
    dirichlet_operator,
    evolve,
    markovianity_report,
    project_order_interval,
    semigroup,
    semigroup_operator,
    spectral_gap,
    tracial_state,
)
from mdf.linalg import dagger, ginibre, hs_inner, hs_norm, min_eigenvalue, random_hermitian
from mdf.semigroup import PROBE_TIMES, _probe_draws, factor_certificate
from reference import full_form_report, left_mult


def _signed_control(sf, x):
    """The Dirichlet operator of x under the signed weight of the negative control, alpha = 6."""
    return dirichlet_operator(sf, x, CosineModulatedF0(6.0), check_kernel=False)


@pytest.fixture
def H3(sf3, rng):
    return dirichlet_operator(sf3, random_hermitian(3, rng))


# ---------------------------------------------------------------------------
# semigroup basics
# ---------------------------------------------------------------------------

def test_time_zero_is_identity(H3):
    assert (semigroup_operator(H3, 0.0) - SuperOperator(np.eye(9))).norm() < 1e-13


def test_semigroup_law(H3):
    Ts = semigroup_operator(H3, 0.4)
    Tt = semigroup_operator(H3, 1.1)
    Tst = semigroup_operator(H3, 1.5)
    assert np.linalg.norm(Ts.mat @ Tt.mat - Tst.mat, 2) < 1e-12


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
    K = left_mult(ginibre(2, rng))
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

def _corpus_context(name):
    (path,) = [p for p in cli.corpus_paths() if p.endswith(f"{name}.json")]
    with open(path, "r", encoding="utf-8") as fh:
        return cli.ScenarioContext(cli.parse_scenario(json.load(fh)), 0)


def _corpus_operator(name):
    return _corpus_context(name).H


CORPUS = ("tracial_double_commutator", "gibbs_two_level", "gibbs_three_level_degenerate",
          "balanced_pair_cauchy", "unbalanced_single", "nonmarkovian_control")

CERTIFIED = {
    **{name: functools.partial(_corpus_operator, name) for name in CORPUS},
    "generated_n8": lambda: cli.ScenarioContext(
        cli.parse_scenario(cli.generate_scenario(1, 8, "balanced_pair")), 0).H,
    "signed_control": lambda: _signed_control(
        build_standard_form(np.diag([0.9, 0.1])), random_hermitian(2, np.random.default_rng(0))),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_the_factor_certificate_bounds_the_computed_semigroup(name):
    H = CERTIFIED[name]()
    cert = factor_certificate(H)
    Hh = 0.5 * (H.mat + dagger(H.mat))
    for t in PROBE_TIMES:
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
    gap, kernel_dim = spectral_gap(SuperOperator(np.zeros((4, 4))))
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
    interval, extreme, _ = _probe_draws(sf3, rng, 20)
    for eta in (interval, extreme):
        assert min_eigenvalue(eta).min() > -1e-12
        assert min_eigenvalue(sf3.xi0 - eta).min() > -1e-12


def test_markovian_semigroup_passes_probe(sf3, H3):
    rep = markovianity_report(sf3, H3, 11)
    assert rep.interval_violations == 0
    assert rep.extreme_violations == 0
    assert rep.positivity_violations == 0
    assert rep.form_violations == 0
    assert rep.xi0_invariance_max < 1e-10
    assert rep.j_real_max < 1e-10
    assert not rep.witnesses


def test_the_probe_refuses_a_non_selfadjoint_operator(sf3, rng):
    K = left_mult(ginibre(3, rng))
    with pytest.raises(NotSelfAdjoint, match="from self-adjoint"):
        markovianity_report(sf3, K, 0)
    assert K._eig is None


def test_signed_weight_control_is_detected():
    """The pinned counterexample: rho = diag(0.9, 0.1), Hermitian
    coupling, cosine-modulated weight at alpha = 6.  The induced
    operator stays self-adjoint with H xi0 = 0 (it passes every
    structural gate) but has genuinely negative eigenvalues, and the
    probe must see interval and positivity violations."""
    sf = build_standard_form(np.diag([0.9, 0.1]))
    x = random_hermitian(2, np.random.default_rng(0))
    H = _signed_control(sf, x)
    # structural gates all pass
    assert H.selfadjoint_defect() < 1e-12
    assert hs_norm(H.apply(sf.xi0)) < 1e-12
    assert H.j_real_defect() < 1e-12
    # but the spectrum dips properly negative
    w, _ = H.eigh()
    assert w[0] < -1e-3
    rep = markovianity_report(sf, H, 5)
    assert rep.interval_violations >= 10
    assert rep.positivity_violations >= 20
    assert rep.worst_interval_margin < -0.1
    assert rep.witnesses


def test_control_is_negative_across_coupling_seeds():
    # robustness of the counterexample: every seed produces negativity
    sf = build_standard_form(np.diag([0.9, 0.1]))
    for seed in range(6):
        x = random_hermitian(2, np.random.default_rng(seed))
        H = _signed_control(sf, x)
        w, _ = H.eigh()
        assert w[0] < -1e-4, f"seed {seed} unexpectedly positive"


# ---------------------------------------------------------------------------
# the form probe freezes the samples whose gaps are settled
# ---------------------------------------------------------------------------

def _generated_context(kernel=None):
    """The generated n = 8 balanced pair (seed 1), under ``kernel`` as a negative control if given."""
    obj = cli.generate_scenario(1, 8, "balanced_pair")
    if kernel is not None:
        obj.update(kernel=kernel, negative_control=True)
    return cli.ScenarioContext(cli.parse_scenario(obj), 0)


FORM_SCENARIOS = {
    **{name: functools.partial(_corpus_context, name) for name in CORPUS},
    "generated_n8": _generated_context,
    "signed_n8": functools.partial(_generated_context, {"signed_f0": {"alpha": 6.0}}),
}


def _watching_settled(monkeypatch, seen):
    """Wrap ``_settled_gaps``: ``seen`` gets (etas, energy, settled mask, indices the hook froze)."""
    real = semigroup._settled_gaps

    def watched(H, etas, energy):
        settled, decided = real(H, etas, energy)
        rest, frozen = np.flatnonzero(~settled), set()

        def hook(index, X, delta):
            mask = decided(index, X, delta)
            frozen.update(rest[index[mask]].tolist())
            return mask

        seen.append((etas, energy, settled, frozen))
        return settled, hook

    monkeypatch.setattr(semigroup, "_settled_gaps", watched)


@pytest.mark.parametrize("name", sorted(FORM_SCENARIOS))
def test_the_form_decision_changes_nothing(name):
    ctx = FORM_SCENARIOS[name]()
    fast, full = markovianity_report(ctx.sf, ctx.H, 0), full_form_report(ctx.sf, ctx.H, 0)
    assert fast.form_violations == full.form_violations
    assert fast.worst_form_gap == full.worst_form_gap
    assert fast.witnesses == full.witnesses
    assert fast == full
    if name == "nonmarkovian_control":
        assert full.form_violations == 8
    if name == "gibbs_two_level":
        assert abs(full.worst_form_gap) < 1e-12


def test_most_form_samples_freeze_on_the_generated_n8_pair(monkeypatch):
    ctx, seen = _generated_context(), []
    _watching_settled(monkeypatch, seen)
    assert markovianity_report(ctx.sf, ctx.H, 0) == full_form_report(ctx.sf, ctx.H, 0)
    (_, _, settled, frozen), = seen
    assert not frozen & set(np.flatnonzero(settled).tolist())
    assert settled.sum() + len(frozen) >= 90


@pytest.mark.parametrize("name", sorted(FORM_SCENARIOS))
def test_every_full_tolerance_form_gap_lies_in_the_energy_range(name, monkeypatch):
    ctx, seen = FORM_SCENARIOS[name](), []
    _watching_settled(monkeypatch, seen)
    markovianity_report(ctx.sf, ctx.H, 0)
    (etas, energy, _, _), = seen
    e_lo, e_hi, _ = semigroup._energy_range(ctx.H)
    X = project_order_interval(ctx.sf, etas)
    gaps = np.real(hs_inner(X, ctx.H.apply(X))) - energy
    assert np.all(e_lo - energy <= gaps) and np.all(gaps <= e_hi - energy)
    if name == "signed_n8":
        assert ctx.H.eigh()[0].min() < -1e-3 and e_lo < -1e-3


def test_an_energy_range_below_the_spectrum_changes_a_report():
    # e_hi under max w settles samples whose gaps may be the worst or violations
    real = semigroup._energy_range

    def low_top(H):
        e_lo, e_hi, h = real(H)
        assert e_hi >= H.eigh()[0].max() > e_lo
        return e_lo, e_lo, h

    def differs(make):
        ctx = make()
        full = full_form_report(ctx.sf, ctx.H, 0)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(semigroup, "_energy_range", low_top)
            return markovianity_report(ctx.sf, ctx.H, 0) != full

    assert any(differs(FORM_SCENARIOS[name]) for name in sorted(FORM_SCENARIOS))


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 50.0, allow_nan=False))
def test_contraction_property(t):
    sf = build_standard_form(np.diag([0.6, 0.4]))
    H = dirichlet_operator(sf, random_hermitian(2, np.random.default_rng(3)))
    rng = np.random.default_rng(4)
    eta = ginibre(2, rng)
    assert hs_norm(evolve(H, eta, t)) <= hs_norm(eta) + 1e-10
