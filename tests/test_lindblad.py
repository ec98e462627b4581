"""Detailed-balance Lindblad generators and their embedding identities."""

import numpy as np
import pytest

from mdf import (
    BalanceViolated,
    BoundaryCombination,
    build_standard_form,
    CauchyKernel,
    CosineModulatedF0,
    F0Kernel,
    LindbladSpec,
    NotSelfAdjoint,
    build_Q,
    check_balance_condition,
    dirichlet_operator,
    drift_criterion,
    general_f_embedding_residual,
    general_f_generator,
    induced_adjoint_shifted,
    induced_operator,
    induced_operator_shifted,
    kms_symmetry_residual,
    lindblad_superop,
    selfadjoint_component_decomposition,
    sigma,
    smear,
    spec_from_couplings,
    symmetric_embed,
    tracial_state,
    y_reconstruction_residual,
)
from mdf.linalg import dagger, ginibre, hs_inner, hs_norm, random_hermitian
from reference import left_mult, lindblad_apply, verify_tracial_case


def _e(i, j, n=2):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# plain generator mechanics
# ---------------------------------------------------------------------------

def test_generator_kills_identity_and_preserves_star(rng):
    ys = tuple(ginibre(3, rng) for _ in range(2))
    q = random_hermitian(3, rng)
    spec = LindbladSpec(ys=ys, Q=q)
    assert hs_norm(lindblad_apply(spec, np.eye(3))) < 1e-13
    A = ginibre(3, rng)
    np.testing.assert_allclose(
        lindblad_apply(spec, dagger(A)), dagger(lindblad_apply(spec, A)), atol=1e-12
    )


def test_single_jump_oracle(rng):
    # energy-form convention: L(A) = y*y A - 2 y* A y + A y*y, so for
    # y = e_12 this is e_22 A - 2 e_21 A e_12 + A e_22
    spec = LindbladSpec(ys=(_e(0, 1),))
    for _ in range(5):
        A = ginibre(2, rng)
        oracle = _e(1, 1) @ A - 2.0 * (_e(1, 0) @ A @ _e(0, 1)) + A @ _e(1, 1)
        np.testing.assert_allclose(lindblad_apply(spec, A), oracle, atol=1e-13)


def test_superop_matches_apply(rng):
    spec = LindbladSpec(ys=(ginibre(2, rng),), Q=random_hermitian(2, rng))
    L = lindblad_superop(spec)
    A = ginibre(2, rng)
    np.testing.assert_allclose(L.apply(A), lindblad_apply(spec, A), atol=1e-13)


def test_spec_rejects_non_hermitian_drift(rng):
    with pytest.raises(NotSelfAdjoint):
        LindbladSpec(ys=(ginibre(2, rng),), Q=ginibre(2, rng))


def test_the_drift_bar_is_relative_to_the_drift(rng):
    ys = (ginibre(2, rng),)
    Q = 1e6 * random_hermitian(2, rng)
    skew = 1e-8 * (ginibre(2, rng) - dagger(ginibre(2, rng)))
    LindbladSpec(ys=ys, Q=Q + skew)  # an absolute defect ~1e-8, relative ~1e-14
    with pytest.raises(NotSelfAdjoint):
        LindbladSpec(ys=ys, Q=1e6 * ginibre(2, rng))


def test_couplings_roundtrip(sf3, rng):
    xs = [ginibre(3, rng)]
    spec = spec_from_couplings(sf3, xs)
    back = [sigma(sf3, y, 0.25j) for y in spec.ys]
    np.testing.assert_allclose(back[0], xs[0], atol=1e-12)


# ---------------------------------------------------------------------------
# the drift term
# ---------------------------------------------------------------------------

def test_drift_is_hermitian(sf3, rng):
    q = build_Q(sf3, [ginibre(3, rng)])
    np.testing.assert_allclose(q, dagger(q), atol=1e-12)


def test_drift_vanishes_for_hermitian_coupling_at_trace(rng):
    sf = tracial_state(3)
    q = build_Q(sf, [random_hermitian(3, rng)])
    assert hs_norm(q) < 1e-13
    # and exactly zero for any coupling at the trace
    q2 = build_Q(sf, [ginibre(3, rng)])
    assert hs_norm(q2) < 1e-13


def test_central_drift_offset_does_not_move_the_generator(sf3, rng):
    xs = [ginibre(3, rng)]
    spec_a = spec_from_couplings(sf3, xs)
    q_shift = build_Q(sf3, xs) + 2.7 * np.eye(3)
    spec_b = LindbladSpec(ys=spec_a.ys, Q=q_shift)
    La, Lb = lindblad_superop(spec_a), lindblad_superop(spec_b)
    assert (La - Lb).norm() < 1e-12


def test_drift_additivity_over_self_adjoint_split(sf3, rng):
    from mdf import split_self_adjoint

    x = ginibre(3, rng)
    x1, x2 = split_self_adjoint(x)
    lhs = build_Q(sf3, [x]) + build_Q(sf3, [dagger(x)])
    rhs = build_Q(sf3, [x1]) + build_Q(sf3, [x2])
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def test_hermitian_singleton_is_balanced(sf3, rng):
    rep = check_balance_condition(sf3, [random_hermitian(3, rng)])
    assert rep.balanced
    assert rep.equivalent


def test_adjoint_pair_is_balanced(sf3, rng):
    g = ginibre(3, rng)
    rep = check_balance_condition(sf3, [g, dagger(g)])
    assert rep.balanced
    assert rep.equivalent


def test_corner_coupling_is_unbalanced(sf2):
    # (S(x, x*) - S(x*, x)) e_22 = e_11 for x = e_12: an explicit witness
    rep = check_balance_condition(sf2, [_e(0, 1)])
    assert not rep.balanced
    assert rep.equivalent
    assert rep.condition_residual > 0.5


def test_skew_root_of_central_element_is_balanced(sf2):
    # u = [[0, 1], [-1, 0]] is non-normal-looking but u u* = u* u = I,
    # and x x* - x* x = 0 makes the family balanced despite m = 1
    u = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    rep = check_balance_condition(sf2, [u])
    assert rep.balanced


# ---------------------------------------------------------------------------
# self-adjointness of the induced operator
# ---------------------------------------------------------------------------

def test_induced_operator_selfadjoint_iff_balanced(sf3, rng):
    g = ginibre(3, rng)
    balanced = spec_from_couplings(sf3, [g, dagger(g)])
    H = induced_operator(sf3, lindblad_superop(balanced))
    assert H.selfadjoint_defect() < 1e-10
    assert drift_criterion(sf3, balanced).hs_norm() < 1e-10

    lone = spec_from_couplings(sf3, [g])
    H2 = induced_operator(sf3, lindblad_superop(lone))
    # criterion and operator agree on the verdict
    assert H2.selfadjoint_defect() > 1e-3
    assert drift_criterion(sf3, lone).hs_norm() > 1e-3


def test_criterion_tracks_adjoint_gap_exactly(sf3, rng):
    # LHS - RHS of the commutation criterion equals H - H* termwise,
    # balanced or not
    for xs in ([random_hermitian(3, rng)], [ginibre(3, rng)]):
        spec = spec_from_couplings(sf3, xs)
        H, H_adj = induced_operator_shifted(sf3, spec), induced_adjoint_shifted(sf3, spec)
        assert (drift_criterion(sf3, spec) - (H - H_adj)).hs_norm() < 1e-12


def test_perturbed_drift_breaks_selfadjointness(sf3, rng):
    x = random_hermitian(3, rng)
    spec = spec_from_couplings(sf3, [x])
    H = induced_operator(sf3, lindblad_superop(spec))
    assert H.selfadjoint_defect() < 1e-10
    bad_q = spec.Q + 0.1 * (random_hermitian(3, rng) - np.trace(random_hermitian(3, rng)) / 3 * np.eye(3))
    bad = LindbladSpec(ys=spec.ys, Q=bad_q)
    bad_H = induced_operator(sf3, lindblad_superop(bad))
    assert bad_H.selfadjoint_defect() > 1e-4


def test_hs_residuals_are_never_below_the_spectral_ones(sf3, rng):
    # an unbalanced coupling keeps every residual away from rounding, so
    # the comparison with the former spectral-norm residuals is meaningful
    x = ginibre(3, rng)
    spec = spec_from_couplings(sf3, [x])
    H = induced_operator(sf3, lindblad_superop(spec))
    criterion = drift_criterion(sf3, spec)
    assert H.selfadjoint_defect() >= (H - H.adjoint()).norm() > 1e-3
    assert criterion.hs_norm() >= criterion.norm() > 1e-3
    perturbed = induced_operator_shifted(sf3, LindbladSpec(ys=spec.ys))
    gap = H - perturbed
    assert gap.hs_norm() >= gap.norm() > 1e-3


def test_kms_symmetry_matches_selfadjointness(sf3, rng):
    g = ginibre(3, rng)
    spec = spec_from_couplings(sf3, [g, dagger(g)])
    assert kms_symmetry_residual(sf3, lindblad_superop(spec)) < 1e-10
    lone = spec_from_couplings(sf3, [g])
    assert kms_symmetry_residual(sf3, lindblad_superop(lone)) > 1e-3


# ---------------------------------------------------------------------------
# decomposition under balance
# ---------------------------------------------------------------------------

def test_balanced_generator_decomposes_into_dirichlet_operators(sf3, rng):
    g = ginibre(3, rng)
    xs = [g, dagger(g)]
    parts = [dirichlet_operator(sf3, x) for x in xs]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    H = induced_operator(sf3, lindblad_superop(spec_from_couplings(sf3, xs)))
    assert (H - total).hs_norm() < 1e-10
    assert (total - H).norm() < 1e-10


def test_decomposition_refuses_unbalanced_family(sf3, rng):
    xs = [ginibre(3, rng)]
    balance = check_balance_condition(sf3, xs)
    with pytest.raises(BalanceViolated, match="unbalanced"):
        selfadjoint_component_decomposition(
            sf3, xs, lindblad_superop(spec_from_couplings(sf3, xs)), balance
        )


def test_component_decomposition(sf3, rng):
    g = ginibre(3, rng)
    xs = [g, dagger(g)]
    components, residual = selfadjoint_component_decomposition(
        sf3, xs, lindblad_superop(spec_from_couplings(sf3, xs)),
        check_balance_condition(sf3, xs),
    )
    assert len(components) == 4
    assert residual < 1e-10
    for c in components:
        np.testing.assert_allclose(c, dagger(c), atol=1e-12)


def test_y_reconstruction(sf3, rng):
    g = ginibre(3, rng)
    assert y_reconstruction_residual(sf3, [g, dagger(g)]) < 1e-10


# ---------------------------------------------------------------------------
# embedding identity: the generator seen on the GNS space
# ---------------------------------------------------------------------------

def test_embedding_intertwines_generator_and_form_operator(sf3, rng):
    # rho^{1/4} L(a) rho^{1/4} = H rho^{1/4} a rho^{1/4}, unconditionally
    xs = [ginibre(3, rng)]
    spec = spec_from_couplings(sf3, xs)
    L = lindblad_superop(spec)
    H = induced_operator(sf3, L)
    for _ in range(10):
        a = ginibre(3, rng)
        lhs = symmetric_embed(sf3, L.apply(a))
        rhs = H.apply(symmetric_embed(sf3, a))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_hermitian_singleton_induces_its_dirichlet_operator(sf3, rng):
    x = random_hermitian(3, rng)
    spec = spec_from_couplings(sf3, [x])
    H = induced_operator(sf3, lindblad_superop(spec))
    D = dirichlet_operator(sf3, x)
    assert (H - D).norm() < 1e-10


# ---------------------------------------------------------------------------
# general admissible weights
# ---------------------------------------------------------------------------

def test_general_weight_generator_reduces_to_plain_at_f0(sf3, rng):
    x = random_hermitian(3, rng)
    L_gen = general_f_generator(sf3, x, F0Kernel())
    L_plain = lindblad_superop(spec_from_couplings(sf3, [x]))
    assert (L_gen - L_plain).norm() < 1e-12


def test_general_weight_embedding(sf3, rng):
    f = CauchyKernel(scale=1.0)
    for x in (random_hermitian(3, rng), ginibre(3, rng)):
        H = dirichlet_operator(sf3, x, f)
        assert general_f_embedding_residual(sf3, x, f, H) < 1e-10


def _wrong_generator(sf, x, f):
    """The general-weight generator with each half's left coefficient built from one symbol.

    Where the right generator flow-averages sigma_{i/4}(a) sigma_{-i/4}(b)
    against the boundary weight, (a, b) = (x*, x) and (x, x*), this variant
    uses sigma_{i/4}(a) sigma_{-i/4}(a) on the left; it is the right
    generator plus half the smeared difference as a left multiplication.
    """
    xd = dagger(x)
    diff = sum(sigma(sf, a, 0.25j) @ (sigma(sf, a, -0.25j) - sigma(sf, b, -0.25j))
               for a, b in ((xd, x), (x, xd)))
    left = 0.5 * smear(sf, diff, BoundaryCombination(f))
    return general_f_generator(sf, x, f) + left_mult(left)


def test_wrong_left_coefficient_variant_is_caught_by_embedding(sf3, rng):
    """The alternative assembly that uses the same symbol on both
    coefficients passes for Hermitian couplings but breaks the embedding
    identity for generic ones; keeping this pinned documents why the
    cross-symbol form is the correct one."""
    f = CauchyKernel(scale=1.0)
    r = _rho_power(sf3, 0.25)
    e0 = _kron_sandwich(r, r)

    def wrong_gap(x):
        L = _wrong_generator(sf3, x, f)
        return np.linalg.norm(e0 @ L.mat - dirichlet_operator(sf3, x, f).mat @ e0)

    x = ginibre(3, rng)
    assert general_f_embedding_residual(sf3, x, f, dirichlet_operator(sf3, x, f)) < 1e-10
    assert wrong_gap(x) > 1e-2
    assert wrong_gap(random_hermitian(3, rng)) < 1e-10  # invisible on Hermitian couplings


# ---------------------------------------------------------------------------
# the three operator identities are exact Hilbert-Schmidt residuals: each
# equals a dense np.kron reference, and bounds the sampled loop it replaced
# ---------------------------------------------------------------------------

def _kron_sandwich(A, B):
    """Dense matrix of X -> A X B in the row-major vec basis."""
    return np.kron(A, B.T)


def _rho_power(sf, p):
    w, U = np.linalg.eigh(sf.rho.entries)
    return (U * w**p) @ dagger(U)


FAMILY_NAMES = ("hermitian", "pair", "single")


def _family(n, name):
    """A random faithful state and a balanced ('hermitian', 'pair') or unbalanced ('single') family."""
    rng = np.random.default_rng([n, FAMILY_NAMES.index(name)])
    g = ginibre(n, rng)
    rho = g @ dagger(g) + 0.3 * np.eye(n)
    sf = build_standard_form(rho / np.trace(rho).real)
    g = ginibre(n, rng)
    xs = {"hermitian": [random_hermitian(n, rng)], "pair": [g, dagger(g)], "single": [g]}[name]
    return sf, xs


FAMILIES = pytest.mark.parametrize("name", FAMILY_NAMES)
DIMS = pytest.mark.parametrize("n", [2, 3, 4])


def _sampled_kms(sf, spec, samples=50, seed=0):
    """The former sampled KMS loop: worst |<i0(LA), i0(B)> - <i0(A), i0(LB)>| / |A||B|."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a, b = ginibre(sf.dim, rng), ginibre(sf.dim, rng)
        lhs = hs_inner(symmetric_embed(sf, lindblad_apply(spec, a)), symmetric_embed(sf, b))
        rhs = hs_inner(symmetric_embed(sf, a), symmetric_embed(sf, lindblad_apply(spec, b)))
        worst = max(worst, abs(lhs - rhs) / (hs_norm(a) * hs_norm(b)))
    return worst


def _sampled_norm(mat, n, samples=64, seed=0):
    """The former sampled loops' worst |K vec(A)| / |A| of a dense n^2 x n^2 matrix.

    The balance loop applied the dressed sandwich map, the embedding loop
    the gap e0 L - H e0; both divided by |A|.
    """
    rng = np.random.default_rng(seed)
    return max(np.linalg.norm(mat @ a.reshape(-1)) / hs_norm(a)
               for a in (ginibre(n, rng) for _ in range(samples)))


@DIMS
@FAMILIES
def test_kms_residual_is_the_exact_hs_defect(n, name):
    sf, xs = _family(n, name)
    spec = spec_from_couplings(sf, xs)
    eye = np.eye(n)
    L = 1j * (_kron_sandwich(spec.Q, eye) - _kron_sandwich(eye, spec.Q))
    for y in spec.ys:
        w = dagger(y) @ y
        L += _kron_sandwich(w, eye) + _kron_sandwich(eye, w) - 2.0 * _kron_sandwich(dagger(y), y)
    h = _rho_power(sf, 0.5)
    EL = _kron_sandwich(h, h) @ L
    reference = np.linalg.norm(EL - dagger(EL))
    exact = kms_symmetry_residual(sf, lindblad_superop(spec))
    assert abs(exact - reference) <= 1e-12 * np.linalg.norm(EL)
    if name == "single":
        assert exact >= _sampled_kms(sf, spec) > 1e-3


@DIMS
@FAMILIES
def test_balance_lemma_residual_is_the_exact_hs_norm(n, name):
    sf, xs = _family(n, name)
    r, r_inv = _rho_power(sf, 0.25), _rho_power(sf, -0.25)
    terms = [
        (_kron_sandwich(r_inv @ a @ r, r @ dagger(a) @ r_inv),
         _kron_sandwich(r_inv @ dagger(a) @ r, r @ a @ r_inv))
        for a in xs
    ]
    dressed = sum(p - q for p, q in terms)
    rep = check_balance_condition(sf, xs)
    scale = sum(np.linalg.norm(p) + np.linalg.norm(q) for p, q in terms)
    assert abs(rep.lemma_residual - np.linalg.norm(dressed)) <= 1e-12 * scale
    assert rep.equivalent
    if name == "single":
        assert rep.lemma_residual >= _sampled_norm(dressed, n) > 1e-3


@DIMS
@FAMILIES
def test_embedding_residual_is_the_exact_hs_gap(n, name):
    sf, xs = _family(n, name)
    f = CauchyKernel(scale=1.0)
    r = _rho_power(sf, 0.25)
    e0 = _kron_sandwich(r, r)
    for x in xs:
        L = general_f_generator(sf, x, f)
        # H of the same coupling under another kernel: a nonzero gap
        for H, mismatched in ((dirichlet_operator(sf, x, f), False),
                              (dirichlet_operator(sf, x, CauchyKernel(scale=0.5)), True)):
            gap = e0 @ L.mat - H.mat @ e0
            exact = general_f_embedding_residual(sf, x, f, H)
            assert abs(exact - np.linalg.norm(gap)) <= 1e-12 * np.linalg.norm(e0 @ L.mat)
            if mismatched:
                assert exact >= _sampled_norm(gap, n, samples=50) > 1e-3
        if name != "hermitian":
            wrong = e0 @ _wrong_generator(sf, x, f).mat - dirichlet_operator(sf, x, f).mat @ e0
            assert np.linalg.norm(wrong) >= _sampled_norm(wrong, n, samples=50) > 1e-3


@pytest.mark.parametrize("n", [2, 4, 8])
def test_the_controls_generator_embeds_with_its_delta_part(n):
    # the control's boundary weight is cosh(3/2) times the delta plus a signed function;
    # the generator smears with both, so it embeds onto the control's own H
    sf, xs = _family(n, "pair")
    f = CosineModulatedF0(6.0)
    r = _rho_power(sf, 0.25)
    e0 = _kron_sandwich(r, r)
    for x in xs:
        L = general_f_generator(sf, x, f, check_kernel=False)
        H = dirichlet_operator(sf, x, f, check_kernel=False)
        exact = general_f_embedding_residual(sf, x, f, H)
        assert abs(exact - np.linalg.norm(e0 @ L.mat - H.mat @ e0)) <= 1e-12 * H.hs_norm()
        assert exact <= 1e-12 * H.hs_norm()


# ---------------------------------------------------------------------------
# the trace state
# ---------------------------------------------------------------------------

def test_tracial_case_hermitian_coupling(rng):
    rep = verify_tracial_case([random_hermitian(3, rng)])
    assert rep.q_norm == 0.0
    assert rep.balance_residual < 1e-12
    assert rep.identity_residual < 1e-12
    assert rep.sym_selfadjoint_defect < 1e-12
    assert rep.plain_vs_sym < 1e-12
    assert rep.sym_vs_dirichlet < 1e-12


def test_tracial_corner_coupling_obstruction():
    """y = e_12 at the trace: no Hermitian drift can symmetrize the plain
    generator (the required commutator identity fails by a rank-one
    defect of norm one), while the symmetrized generator is exactly
    self-adjoint and exactly a sum of Dirichlet operators."""
    rep = verify_tracial_case([_e(0, 1)])
    assert rep.q_norm == 0.0
    assert rep.identity_residual == pytest.approx(1.0, abs=1e-12)
    assert rep.sym_selfadjoint_defect < 1e-14
    assert rep.sym_vs_dirichlet < 1e-14
    assert rep.plain_vs_sym == pytest.approx(2.0, abs=1e-12)
