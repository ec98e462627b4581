"""Stacked sampled checks against their per-sample references.

``markovianity_report`` and ``verify_dirichlet`` draw their samples from
the seeded stream in blocks and preallocated arrays, the same numbers as
drawing them one at a time, and evaluate them as stacks.  The references
below are the per-sample loops they replaced, kept verbatim (samplers and
a dense T_t per time included), so the stacked versions must reproduce
their counts and witnesses exactly and their margins and residuals to
rounding.  Both budgets are module constants (``semigroup.SAMPLES`` and
``dirichlet.SAMPLES``); the comparisons set them to an empty and a small
budget.  ``j_real_max`` is a bound on T_t's J-defect, not a
measurement; on these operators it stays within rounding of the
reference's dense value.
"""

import numpy as np
import pytest

from mdf import (
    CosineModulatedF0,
    NotJReal,
    SuperOperator,
    build_standard_form,
    dirichlet,
    dirichlet_operator,
    jordan_decompose,
    markovianity_report,
    semigroup,
    semigroup_operator,
    symmetric_embed,
    symmetric_unembed,
    verify_dirichlet,
)
from mdf.dirichlet import NEGATIVITY_TOL
from mdf.linalg import (
    dagger,
    ginibre,
    haar_unitary,
    hs_inner,
    hs_norm,
    min_eigenvalue,
    psd_from_ginibre,
    random_hermitian,
    unitary_from_ginibre,
)
from mdf.semigroup import INTERVAL_TOL, PROBE_TIMES, _probe_draws
from mdf.standard_form import project_order_interval

ATOL = 1e-12


# ---------------------------------------------------------------------------
# per-sample references
# ---------------------------------------------------------------------------

def _reference_interval_element(sf, rng):
    n = sf.dim
    W = haar_unitary(n, rng)
    M = (W * rng.uniform(0.0, 1.0, size=n)) @ dagger(W)
    r = sf.rho_power(0.25)
    return r @ M @ r


def _reference_extreme_element(sf, rng):
    n = sf.dim
    W = haar_unitary(n, rng)
    k = int(rng.integers(1, n + 1))
    P = W[:, :k] @ dagger(W[:, :k])
    r = sf.rho_power(0.25)
    return r @ P @ r


def _reference_markovianity(sf, H, samples, seed):
    rng = np.random.default_rng(seed)
    xi0 = sf.xi0
    witnesses = []
    counts = {"interval": 0, "extreme": 0, "positivity": 0, "form": 0}
    worst_interval = np.inf
    worst_positivity = np.inf
    worst_form = -np.inf
    xi0_max = 0.0
    j_real_max = 0.0

    def note(kind, t, index, margin):
        counts[kind] += 1
        if len(witnesses) < 10:
            witnesses.append((kind, float(t), int(index), float(margin)))

    for t in PROBE_TIMES:
        Tt = semigroup_operator(H, t)
        xi0_max = max(xi0_max, hs_norm(Tt.apply(xi0) - xi0))
        j_real_max = max(j_real_max, Tt.j_real_defect())
        for i in range(samples):
            out = Tt.apply(_reference_interval_element(sf, rng))
            margin = min(min_eigenvalue(out), min_eigenvalue(xi0 - out))
            worst_interval = min(worst_interval, margin)
            if margin < -INTERVAL_TOL:
                note("interval", t, i, margin)
            out = Tt.apply(_reference_extreme_element(sf, rng))
            margin = min(min_eigenvalue(out), min_eigenvalue(xi0 - out))
            worst_interval = min(worst_interval, margin)
            if margin < -INTERVAL_TOL:
                note("extreme", t, i, margin)
            margin = min_eigenvalue(Tt.apply(psd_from_ginibre(ginibre(sf.dim, rng))))
            worst_positivity = min(worst_positivity, margin)
            if margin < -INTERVAL_TOL:
                note("positivity", t, i, margin)

    etas = [random_hermitian(sf.dim, rng) for _ in range(samples)]
    etas = np.reshape(etas, (samples, sf.dim, sf.dim))
    for i, (eta, eta_i) in enumerate(zip(etas, project_order_interval(sf, etas))):
        e_full = float(np.real(hs_inner(eta, H.apply(eta))))
        e_proj = float(np.real(hs_inner(eta_i, H.apply(eta_i))))
        gap = e_proj - e_full
        worst_form = max(worst_form, gap)
        if gap > INTERVAL_TOL:
            note("form", 0.0, i, gap)
    return {
        "counts": counts,
        "witnesses": witnesses,
        "margins": [worst_interval, worst_positivity, worst_form, xi0_max, j_real_max],
    }


def _reference_verify(sf, H, samples, seed):
    rng = np.random.default_rng(seed)
    violations = 0
    cone_max = 0.0
    conj_max = 0.0
    for _ in range(samples):
        xi = random_hermitian(sf.dim, rng)
        plus, minus = jordan_decompose(sf, xi)
        val = float(np.real(hs_inner(plus, H.apply(minus))))
        if val > NEGATIVITY_TOL:
            violations += 1
        psd = psd_from_ginibre(ginibre(sf.dim, rng))
        cone_max = max(cone_max, abs(complex(hs_inner(psd, H.apply(sf.xi0)))))
        g = ginibre(sf.dim, rng)
        e_g = complex(hs_inner(g, H.apply(g)))
        e_jg = complex(hs_inner(dagger(g), H.apply(dagger(g))))
        conj_max = max(conj_max, abs(e_jg - np.conj(e_g)))
    return violations, [cone_max, conj_max]


# ---------------------------------------------------------------------------
# operators under test
# ---------------------------------------------------------------------------

def _generic3(sf3):
    return sf3, dirichlet_operator(sf3, random_hermitian(3, np.random.default_rng(12345)))


def _control(_):
    sf = build_standard_form(np.diag([0.9, 0.1]))
    x = random_hermitian(2, np.random.default_rng(0))
    return sf, dirichlet_operator(sf, x, CosineModulatedF0(6.0), check_kernel=False)


def _one_level(_):
    sf = build_standard_form(np.eye(1))
    return sf, dirichlet_operator(sf, np.eye(1))


CASES = {"generic_n3": _generic3, "signed_control": _control, "n1": _one_level}


@pytest.mark.parametrize("samples", [0, 40])
@pytest.mark.parametrize("case", sorted(CASES))
def test_markovianity_report_matches_the_per_sample_loop(sf3, case, samples, monkeypatch):
    monkeypatch.setattr(semigroup, "SAMPLES", samples)
    sf, H = CASES[case](sf3)
    rep = markovianity_report(sf, H, 5)
    ref = _reference_markovianity(sf, H, samples, 5)
    assert {
        "interval": rep.interval_violations,
        "extreme": rep.extreme_violations,
        "positivity": rep.positivity_violations,
        "form": rep.form_violations,
    } == ref["counts"]
    assert [w[:3] for w in rep.witnesses] == [w[:3] for w in ref["witnesses"]]
    np.testing.assert_allclose(
        [w[3] for w in rep.witnesses], [w[3] for w in ref["witnesses"]], rtol=0, atol=ATOL
    )
    margins = [rep.worst_interval_margin, rep.worst_positivity_margin, rep.worst_form_gap,
               rep.xi0_invariance_max, rep.j_real_max]
    np.testing.assert_allclose(margins, ref["margins"], rtol=0, atol=ATOL)
    if case == "signed_control" and samples:
        assert len(rep.witnesses) == 10


@pytest.mark.parametrize("samples", [0, 40])
@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_dirichlet_matches_the_per_sample_loop(sf3, case, samples, monkeypatch):
    monkeypatch.setattr(dirichlet, "SAMPLES", samples)
    sf, H = CASES[case](sf3)
    rep = verify_dirichlet(sf, H, 4)
    violations, residuals = _reference_verify(sf, H, samples, 4)
    assert rep.negativity_violations == violations
    np.testing.assert_allclose(
        [rep.cone_form_residual, rep.conj_form_residual], residuals, rtol=0, atol=ATOL
    )


def test_samplers_keep_their_draws(sf3):
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for members in zip(*_probe_draws(sf3, rng, 3)):
            reference = (_reference_interval_element(sf3, ref_rng),
                         _reference_extreme_element(sf3, ref_rng),
                         psd_from_ginibre(ginibre(3, ref_rng)))
            np.testing.assert_allclose(members, reference, rtol=0, atol=ATOL)
        assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# stack-aware primitives equal per-member calls
# ---------------------------------------------------------------------------

def test_apply_on_a_stack_equals_per_member(rng):
    K = SuperOperator(ginibre(9, rng), 3)
    X = np.stack([ginibre(3, rng) for _ in range(5)])
    np.testing.assert_allclose(K.apply(X), [K.apply(x) for x in X], rtol=0, atol=ATOL)
    assert K.apply(X[:0]).shape == (0, 3, 3)


def test_jordan_decompose_on_a_stack_equals_per_member(sf3, rng):
    xi = np.stack([random_hermitian(3, rng) for _ in range(6)])
    plus, minus = jordan_decompose(sf3, xi)
    for x, p, m in zip(xi, plus, minus):
        p1, m1 = jordan_decompose(sf3, x)
        np.testing.assert_allclose(p, p1, rtol=0, atol=ATOL)
        np.testing.assert_allclose(m, m1, rtol=0, atol=ATOL)


def test_one_non_hermitian_member_rejects_the_stack(sf3, rng):
    xi = np.stack([random_hermitian(3, rng) for _ in range(4)])
    xi[2] = ginibre(3, rng)
    with pytest.raises(NotJReal):
        jordan_decompose(sf3, xi)
    jordan_decompose(sf3, np.delete(xi, 2, axis=0))


def test_min_eigenvalue_on_a_stack_equals_per_member(rng):
    A = np.stack([random_hermitian(4, rng) for _ in range(5)])
    assert isinstance(min_eigenvalue(A[0]), float)
    np.testing.assert_array_equal(min_eigenvalue(A), [min_eigenvalue(a) for a in A])


def test_stacked_qr_equals_per_member_haar_unitaries():
    rng = np.random.default_rng(3)
    G = np.stack([ginibre(4, rng) for _ in range(5)])
    rng = np.random.default_rng(3)
    np.testing.assert_allclose(
        unitary_from_ginibre(G), [haar_unitary(4, rng) for _ in range(5)], rtol=0, atol=ATOL
    )


def test_inner_product_is_the_trace_of_the_product(rng):
    X, Y = (np.stack([ginibre(4, rng) for _ in range(5)]) for _ in range(2))
    for a, b in ((X, Y), (X, Y[0]), (X[0], Y)):
        trace = np.trace(dagger(a) @ b, axis1=-2, axis2=-1)
        np.testing.assert_allclose(hs_inner(a, b), trace, rtol=1e-14)
    value = hs_inner(X[1], Y[2])
    assert type(value) is complex
    assert value == pytest.approx(complex(np.trace(dagger(X[1]) @ Y[2])), rel=1e-14)


def test_inner_product_and_embedding_on_stacks(sf3, rng):
    X = np.stack([ginibre(3, rng) for _ in range(4)])
    Y = np.stack([ginibre(3, rng) for _ in range(4)])
    np.testing.assert_allclose(hs_inner(X, Y), [hs_inner(x, y) for x, y in zip(X, Y)], atol=ATOL)
    np.testing.assert_allclose(
        symmetric_unembed(sf3, symmetric_embed(sf3, X)),
        [symmetric_unembed(sf3, symmetric_embed(sf3, x)) for x in X], rtol=0, atol=ATOL,
    )
