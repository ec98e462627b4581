"""Standard-form construction, the positive cone, and superoperators."""

import json

import numpy as np
import pytest

import mdf.standard_form
from mdf import (
    DensityMatrix,
    DimMismatch,
    NoConvergence,
    NotAState,
    NotFaithful,
    NotJReal,
    SuperOperator,
    build_standard_form,
    cli,
    gibbs_state,
    jordan_decompose,
    left_act,
    project_order_interval,
    right_j_act,
    symmetric_embed,
    symmetric_unembed,
    tracial_state,
)
from mdf.linalg import (
    dagger,
    ginibre,
    hs_inner,
    hs_norm,
    psd_clip,
    random_hermitian,
    random_psd,
    unvec,
    vec,
)
from mdf.lindblad import check_balance_condition


# ---------------------------------------------------------------------------
# state validation
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(NotAState):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(NotAState):
        DensityMatrix(np.diag([0.5, 0.6]))


def test_density_matrix_rejects_singular_state():
    with pytest.raises(NotFaithful):
        DensityMatrix(np.diag([1.0, 0.0]))


def test_eigenvalues_descending_and_kappa_antisymmetric(sf3):
    w = sf3.eigenvalues
    assert np.all(np.diff(w) <= 0)
    assert np.all(w > 0)
    np.testing.assert_allclose(sf3.kappa, -sf3.kappa.T, atol=1e-14)


def test_xi0_is_square_root_of_the_state(sf3):
    np.testing.assert_allclose(sf3.xi0 @ sf3.xi0, sf3.rho.entries, atol=1e-13)
    assert abs(hs_norm(sf3.xi0) - 1.0) < 1e-13


def test_xi0_fixed_by_conjugation_and_flow(sf3):
    # J xi0 = xi0 and Delta xi0 = xi0
    np.testing.assert_allclose(dagger(sf3.xi0), sf3.xi0, atol=1e-13)
    delta = sf3.rho_power(1.0) @ sf3.xi0 @ sf3.rho_power(-1.0)
    np.testing.assert_allclose(delta, sf3.xi0, atol=1e-12)


def test_tracial_state_cyclic_vector():
    sf = tracial_state(3)
    np.testing.assert_allclose(sf.xi0, np.eye(3) / np.sqrt(3), atol=1e-14)


def test_gibbs_state_matches_direct_formula(rng):
    h = random_hermitian(3, rng)
    sf = gibbs_state(h, beta=0.7)
    from scipy.linalg import expm

    rho = expm(-0.7 * h)
    rho /= np.trace(rho).real
    np.testing.assert_allclose(sf.rho.entries, rho, atol=1e-12)


def test_gibbs_state_rejects_non_hermitian_hamiltonian():
    with pytest.raises(NotAState, match="hamiltonian"):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# the two actions
# ---------------------------------------------------------------------------

def test_left_and_right_actions_commute(sf3, rng):
    # [pi(A), j(B)] = 0 is what makes j(B) live in the commutant
    for _ in range(5):
        A, B, X = (ginibre(3, rng) for _ in range(3))
        lhs = left_act(sf3, A, right_j_act(sf3, B, X))
        rhs = right_j_act(sf3, B, left_act(sf3, A, X))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_left_action_is_multiplicative(sf3, rng):
    A, B, X = (ginibre(3, rng) for _ in range(3))
    np.testing.assert_allclose(
        left_act(sf3, A @ B, X),
        left_act(sf3, A, left_act(sf3, B, X)),
        atol=1e-12,
    )


def test_vector_state_recovers_the_state(sf3, rng):
    # <xi0, pi(A) xi0> = Tr(rho A)
    A = ginibre(3, rng)
    lhs = complex(hs_inner(sf3.xi0, left_act(sf3, A, sf3.xi0)))
    rhs = complex(np.trace(sf3.rho.entries @ A))
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# cone and order interval
# ---------------------------------------------------------------------------

def test_cone_is_self_dual_spot_check(sf3, rng):
    for _ in range(20):
        p = random_psd(3, rng)
        q = random_psd(3, rng)
        assert complex(hs_inner(p, q)).real > -1e-12


def test_jordan_decompose_roundtrip(sf3, rng):
    for _ in range(10):
        h = random_hermitian(3, rng)
        plus, minus = jordan_decompose(sf3, h)
        np.testing.assert_allclose(plus - minus, h, atol=1e-12)
        assert np.linalg.eigvalsh(plus)[0] > -1e-12
        assert np.linalg.eigvalsh(minus)[0] > -1e-12
        assert abs(complex(hs_inner(plus, minus))) < 1e-12


def test_jordan_decompose_rejects_non_hermitian(sf3, rng):
    with pytest.raises(NotJReal):
        jordan_decompose(sf3, ginibre(3, rng))


def test_projection_is_idempotent_and_lands_in_interval(sf3, rng):
    for _ in range(5):
        eta = random_hermitian(3, rng)
        p = project_order_interval(sf3, eta)
        assert np.linalg.eigvalsh(p)[0] > -1e-8
        assert np.linalg.eigvalsh(sf3.xi0 - p)[0] > -1e-8
        np.testing.assert_allclose(project_order_interval(sf3, p), p, atol=1e-7)


def test_projection_fixes_interval_elements(sf3, rng):
    # points already inside [0, xi0] must not move
    m = random_psd(3, rng)
    m /= np.linalg.eigvalsh(m)[-1] * 1.5
    eta = sf3.rho_power(0.25) @ m @ sf3.rho_power(0.25)
    w = np.linalg.eigvalsh(sf3.xi0 - eta)
    assert w[0] > 0  # strictly inside
    np.testing.assert_allclose(project_order_interval(sf3, eta), eta, atol=1e-8)


def test_projection_of_a_stack_matches_member_calls(sf3, rng):
    etas = np.stack([3.0 * random_hermitian(3, rng) for _ in range(6)])
    etas[2] = sf3.xi0 / 2  # inside the interval: frozen after one sweep
    stacked = project_order_interval(sf3, etas)
    assert stacked.shape == etas.shape
    for eta, p in zip(etas, stacked):
        np.testing.assert_allclose(p, project_order_interval(sf3, eta), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(
        project_order_interval(sf3, etas[:1])[0], project_order_interval(sf3, etas[0])
    )


def test_projection_of_a_stack_rejects_one_non_hermitian_member(sf3, rng):
    etas = np.stack([random_hermitian(3, rng) for _ in range(4)])
    etas[3] = ginibre(3, rng)
    with pytest.raises(NotJReal):
        project_order_interval(sf3, etas)


def test_projection_of_a_stack_raises_for_one_stalled_member(sf3, rng, monkeypatch):
    monkeypatch.setattr(mdf.standard_form, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(mdf.standard_form, "NEWTON_TOL", 1e-14)
    inside = sf3.xi0 / 2
    np.testing.assert_allclose(project_order_interval(sf3, inside), inside, atol=1e-14)
    far = 10.0 * random_hermitian(3, rng)
    with pytest.raises(NoConvergence, match="member 0 has KKT residual"):
        project_order_interval(sf3, far)
    with pytest.raises(NoConvergence, match="member 1 has KKT residual"):
        project_order_interval(sf3, np.stack([inside, far, inside]))


def test_psd_clip_and_dagger_act_on_each_member_of_a_stack(rng):
    hs = np.stack([random_hermitian(4, rng) for _ in range(5)])
    gs = np.stack([ginibre(4, rng) for _ in range(5)])
    np.testing.assert_array_equal(dagger(gs), np.stack([dagger(g) for g in gs]))
    np.testing.assert_allclose(
        psd_clip(hs), np.stack([psd_clip(h) for h in hs]), rtol=0, atol=1e-14
    )


def test_projection_agrees_with_convex_solver(sf2, rng):
    """The semismooth Newton projection against an independent SDP formulation of it.

    The default conic solver only locates the argmin to ~1e-5 even when
    its objective is 1e-10-accurate, so the oracle runs SCS at a tight
    eps where the solution point itself is trustworthy.
    """
    cp = pytest.importorskip("cvxpy")
    for _ in range(5):
        eta = random_hermitian(2, rng)
        X = cp.Variable((2, 2), hermitian=True)
        objective = cp.Minimize(cp.sum_squares(X - cp.Constant(eta)))
        constraints = [X >> 0, cp.Constant(sf2.xi0) - X >> 0]
        cp.Problem(objective, constraints).solve(
            solver=cp.SCS, eps=1e-11, max_iters=100000
        )
        ours = project_order_interval(sf2, eta)
        assert hs_norm(ours - X.value) < 1e-6


# ---------------------------------------------------------------------------
# symmetric embedding
# ---------------------------------------------------------------------------

def test_symmetric_embedding_roundtrip(sf3, rng):
    a = ginibre(3, rng)
    np.testing.assert_allclose(symmetric_unembed(sf3, symmetric_embed(sf3, a)), a, atol=1e-11)


def test_symmetric_embedding_maps_identity_to_xi0(sf3):
    np.testing.assert_allclose(symmetric_embed(sf3, np.eye(3)), sf3.xi0, atol=1e-13)


def test_symmetric_embedding_preserves_positivity(sf3, rng):
    p = random_psd(3, rng)
    assert np.linalg.eigvalsh(symmetric_embed(sf3, p))[0] > -1e-12


# ---------------------------------------------------------------------------
# superoperators
# ---------------------------------------------------------------------------

def test_superop_actions_match_direct_formulas(rng):
    A, B, X = (ginibre(3, rng) for _ in range(3))
    np.testing.assert_allclose(SuperOperator.left_mult(A).apply(X), A @ X, atol=1e-13)
    np.testing.assert_allclose(SuperOperator.right_mult(B).apply(X), X @ B, atol=1e-13)
    np.testing.assert_allclose(
        SuperOperator.sandwich(A, B).apply(X), A @ X @ B, atol=1e-13
    )
    np.testing.assert_allclose(
        SuperOperator.commutant_j(A).apply(X), X @ dagger(A), atol=1e-13
    )


def test_superop_adjoint_is_the_hs_adjoint(rng):
    A = ginibre(3, rng)
    B = ginibre(3, rng)
    K = SuperOperator.sandwich(A, B)
    eta, xi = ginibre(3, rng), ginibre(3, rng)
    lhs = complex(hs_inner(K.adjoint().apply(eta), xi))
    rhs = complex(hs_inner(eta, K.apply(xi)))
    assert abs(lhs - rhs) < 1e-12


def test_superop_composition_matches_matrix_product(rng):
    A, B, X = (ginibre(2, rng) for _ in range(3))
    K = SuperOperator.left_mult(A) @ SuperOperator.right_mult(B)
    np.testing.assert_allclose(K.apply(X), A @ X @ B, atol=1e-13)


def test_vec_unvec_roundtrip(rng):
    X = ginibre(4, rng)
    np.testing.assert_allclose(unvec(vec(X), 4), X, atol=0)


def _random_state(n, rng):
    g = ginibre(n, rng)
    rho = g @ dagger(g) + 0.1 * np.eye(n)
    return build_standard_form(rho / np.trace(rho).real)


def _transpose_perm(n):
    """Dense S with S @ vec(X) = vec(X.T)."""
    S = np.zeros((n * n, n * n))
    for j in range(n):
        for k in range(n):
            S[j * n + k, k * n + j] = 1.0
    return S


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_superop_multiplier_matches_dense_basis_change(n, rng):
    sf = _random_state(n, rng)
    K = SuperOperator(ginibre(n * n, rng), n)
    F = ginibre(n * n, rng)
    V = sf.superop_basis_change()
    dense = dagger(V) @ ((V @ K.mat @ dagger(V)) * F) @ V
    assert np.max(np.abs(sf.superop_multiplier(K, F).mat - dense)) <= 1e-13


@pytest.mark.parametrize("r", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stacked_sandwich_matches_the_kron_sum(n, r, rng):
    A, B = (np.stack([ginibre(n, rng) for _ in range(r)]) for _ in range(2))
    dense = sum(np.kron(a, b.T) for a, b in zip(A, B))
    assert np.max(np.abs(SuperOperator.sandwich(A, B).mat - dense)) <= 1e-13
    if r == 1:
        assert np.max(np.abs(SuperOperator.sandwich(A[0], B[0]).mat - dense)) <= 1e-13


def test_sandwich_rejects_unequal_stacks(rng):
    with pytest.raises(DimMismatch):
        SuperOperator.sandwich([ginibre(3, rng), ginibre(3, rng)], ginibre(3, rng))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sandwiched_matches_the_dense_composition(n, rng):
    K = SuperOperator(ginibre(n * n, rng), n)
    A, B, C, D = (ginibre(n, rng) for _ in range(4))
    dense = np.kron(A, B.T) @ K.mat @ np.kron(C, D.T)
    assert np.max(np.abs(K.sandwiched(A, B, C, D).mat - dense)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_j_real_defect_is_hs_distance_to_jkj(n, rng):
    K = SuperOperator(ginibre(n * n, rng), n)
    S = _transpose_perm(n)
    expected = hs_norm(K.mat - S @ K.mat.conj() @ S)
    assert abs(K.j_real_defect() - expected) <= 1e-13 * max(expected, 1.0)


def test_hs_residuals_are_never_below_the_spectral_ones(rng):
    # the Hilbert-Schmidt norm bounds the operator norm, so every gate
    # moved onto it is at least as strict as before
    n = 4
    K = SuperOperator(ginibre(n * n, rng), n)
    S = _transpose_perm(n)
    assert K.hs_norm() >= K.norm()
    assert K.selfadjoint_defect() >= np.linalg.norm(K.mat - dagger(K.mat), 2)
    assert K.j_real_defect() >= np.linalg.norm(K.mat - S @ K.mat.conj() @ S, 2)


# ---------------------------------------------------------------------------
# the real form on the J-fixed subspace H^J
# ---------------------------------------------------------------------------

def _corpus_parts():
    for path in cli.corpus_paths():
        with open(path, "r", encoding="utf-8") as fh:
            ctx = cli.ScenarioContext(cli.parse_scenario(json.load(fh)), 0)
        yield from ctx.parts


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_real_form_discards_exactly_half_the_j_defect(n, rng):
    K = SuperOperator(ginibre(n * n, rng), n)
    R, d = K.real_form()
    assert R.dtype == np.float64
    assert abs(2.0 * d - K.j_real_defect()) <= 1e-12 * K.j_real_defect()


def test_real_form_spectrum_matches_the_complex_one_on_the_corpus():
    for H in _corpus_parts():
        R, d = H.real_form()
        herm = (H.mat + dagger(H.mat)) / 2.0
        gap = np.abs(np.linalg.eigvalsh((R + R.T) / 2.0) - np.linalg.eigvalsh(herm)).max()
        assert gap <= 1e-12 * max(H.norm(), 1.0)
        assert d <= 1e-12 * max(H.norm(), 1.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_real_eigh_factors_are_unitary_and_hermitian(n, rng):
    a, b = ginibre(n, rng), ginibre(n, rng)
    H = SuperOperator.sandwich([a, b], [dagger(a), dagger(b)])  # X -> a X a* + b X b*
    H = H + H.adjoint()
    w, V = H.eigh()
    assert hs_norm(dagger(V) @ V - np.eye(n * n)) <= 1e-12
    assert hs_norm(H.mat @ V - V * w) <= 1e-12 * H.hs_norm()
    cols = V.T.reshape(-1, n, n)
    assert np.abs(cols - dagger(cols)).max() == 0.0  # each column is in H^J


def test_real_eigh_refuses_an_operator_that_is_not_j_real(rng):
    K = SuperOperator(ginibre(9, rng), 3)
    with pytest.raises(NotJReal):
        (K + K.adjoint()).eigh()


def test_real_form_balance_residual_bounds_the_complex_norm(rng):
    sf = _random_state(3, rng)
    for x in (ginibre(3, rng), random_hermitian(3, rng), np.diag([1.0, 2.0, 3.0])):
        phi = SuperOperator.sandwich([x, -dagger(x)], [dagger(x), x])
        # equal up to rounding, since phi is J-real
        assert check_balance_condition(sf, [x]).condition_residual >= phi.norm() * (1 - 1e-13)
    K = SuperOperator(ginibre(16, rng), 4)  # no J-symmetry: the d term is what makes it a bound
    R, d = K.real_form()
    assert np.linalg.norm(R, 2) < K.norm() <= np.linalg.norm(R, 2) + d
