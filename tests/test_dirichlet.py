"""Dirichlet operators and forms checked against hand-computable cases.

The oracles here are independent of the library's assembly route:

* at the trace state the flow is trivial and the operator collapses to
  a double commutator, computable in three lines;
* for a two-level state and the corner coupling e_12 every ingredient
  is a single Bohr frequency, so the whole superoperator has a closed
  form in terms of left/right/sandwich multipliers.
"""

import tracemalloc

import numpy as np
import pytest

from mdf import (
    CauchyKernel,
    CosineModulatedF0,
    DimMismatch,
    DirichletSpec,
    F0Kernel,
    NotAdmissible,
    QuadratureNotConverged,
    SuperOperator,
    build_standard_form,
    coupling_quadratic,
    crosscheck_engines,
    dirichlet_operator,
    jordan_decompose,
    sigma,
    smear_quadrature,
    split_self_adjoint,
    superop_smear,
    tracial_state,
    verify_boundary_shift,
    verify_dirichlet,
)
from mdf import dirichlet
from mdf.dirichlet import ENGINE_QUADRATURE, ENGINES
from mdf.kernels import TabulatedKernel
from mdf.linalg import dagger, ginibre, hs_inner, hs_norm, random_hermitian
from reference import form_eval, left_mult


def _e(i, j, n=2):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# oracle 1: trace state => double commutator
# ---------------------------------------------------------------------------

def test_tracial_operator_is_double_commutator(rng):
    """At rho = I/n the flow is constant, so
    H X = hat_f(0) * ([x*, [x, X]] + [x, [x*, X]]) with hat_f0(0) = 1/2."""
    sf = tracial_state(3)
    x = ginibre(3, rng)
    H = dirichlet_operator(sf, x)
    for _ in range(10):
        X = ginibre(3, rng)
        oracle = 0.5 * (
            dagger(x) @ (x @ X - X @ x)
            - (x @ X - X @ x) @ dagger(x)
            + x @ (dagger(x) @ X - X @ dagger(x))
            - (dagger(x) @ X - X @ dagger(x)) @ x
        )
        np.testing.assert_allclose(H.apply(X), oracle, atol=1e-12)


def test_tracial_hermitian_coupling_gap_is_four():
    # x = diag(1, -1): H = [x, [x, .]] has eigenvalues {0, 0, 4, 4}
    sf = tracial_state(2)
    H = dirichlet_operator(sf, np.diag([1.0, -1.0]))
    w = np.linalg.eigvalsh(H.mat)
    np.testing.assert_allclose(sorted(w), [0, 0, 4, 4], atol=1e-12)


def test_tracial_form_is_commutator_overlap(rng):
    sf = tracial_state(3)
    x = random_hermitian(3, rng)
    eta, xi = ginibre(3, rng), ginibre(3, rng)
    val = form_eval(sf, x, eta, xi)
    comm = lambda a, b: a @ b - b @ a
    oracle = complex(hs_inner(comm(x, eta), comm(x, xi)))
    assert abs(val - oracle) < 1e-12


# ---------------------------------------------------------------------------
# oracle 2: two-level corner coupling, fully explicit superoperator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.5, 0.75, 0.9])
def test_two_level_corner_coupling_closed_form(p):
    """x = e_12 has a single Bohr frequency c = log(p/(1-p)), so the
    coupling quadratic is frequency-flat and smearing only contributes
    hat_f0(0) = 1/2:

        2 H = e^{c/2} L(e_22) + e^{-c/2} R(e_11) - S(e_21, e_12) - S(e_12, e_21)
            + e^{-c/2} L(e_11) + e^{c/2} R(e_22) - S(e_12, e_21) - S(e_21, e_12)

    (first line from x, second from x*)."""
    sf = build_standard_form(np.diag([p, 1 - p]))
    c = np.log(p / (1 - p))
    L, R, S = left_mult, SuperOperator.right_mult, SuperOperator.sandwich
    e11, e12, e21, e22 = _e(0, 0), _e(0, 1), _e(1, 0), _e(1, 1)
    up = np.exp(c / 2)
    dn = np.exp(-c / 2)
    oracle = 0.5 * (
        up * L(e22) + dn * R(e11) + dn * L(e11) + up * R(e22)
        - 2.0 * S(e21, e12) - 2.0 * S(e12, e21)
    )
    H = dirichlet_operator(sf, e12)
    assert (H - oracle).norm() < 1e-13


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_derivation_kills_the_cyclic_vector(sf3, rng):
    # d(t) xi0 = sigma_{t-i/4}(x) xi0 - xi0 sigma_{t+i/4}(x) = 0 for every t
    x = ginibre(3, rng)
    for t in (0.0, 0.7, -2.3):
        d_xi0 = sigma(sf3, x, t - 0.25j) @ sf3.xi0 - sf3.xi0 @ sigma(sf3, x, t + 0.25j)
        assert hs_norm(d_xi0) < 1e-12


def dense_coupling_quadratic(sf, x):
    """G0 = d1(0)* d1(0) + d2(0)* d2(0) with each derivation formed as a dense kron matrix."""
    n = sf.dim
    eye = np.eye(n)
    G0 = np.zeros((n * n, n * n), dtype=complex)
    for y in (x, dagger(x)):
        d = np.kron(sigma(sf, y, -0.25j), eye) - np.kron(eye, sigma(sf, y, 0.25j).T)
        G0 += dagger(d) @ d
    return G0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_coupling_quadratic_matches_the_dense_composition(n, rng):
    g = ginibre(n, rng)
    rho = g @ dagger(g) + 0.2 * np.eye(n)
    sf = build_standard_form(rho / np.trace(rho).real)
    x = ginibre(n, rng)
    dense = dense_coupling_quadratic(sf, x)
    gap = np.max(np.abs(coupling_quadratic(sf, x).mat - dense))
    assert gap <= 1e-13 * max(1.0, np.max(np.abs(dense)))


def test_base_quadratic_memory_stays_bounded(rng):
    # n = 32: the 16 MiB result and the Gram sum it is written from (K - sandwich
    # and K + K* as fresh n^4 arrays peaked at 48.3 MiB)
    g = ginibre(32, rng)
    sf = build_standard_form(g @ dagger(g) / np.trace(g @ dagger(g)).real)
    x = ginibre(32, rng)
    tracemalloc.start()
    try:
        dirichlet._gram_quadratic(sf, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize(
    "kernel", [F0Kernel(), CauchyKernel(scale=1.0), CosineModulatedF0(alpha=6.0)],
    ids=["f0", "cauchy", "signed"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_engine_matches_the_working_basis_smear(n, kernel):
    # reference: G0 formed in the working basis, then smeared by the eigenbasis multiplier
    rng = np.random.default_rng(50 + n)
    g = ginibre(n, rng)
    rho = g @ dagger(g) + 0.2 * np.eye(n)
    sf = build_standard_form(rho / np.trace(rho).real)
    x = ginibre(n, rng)
    H = dirichlet_operator(sf, x, kernel, check_kernel=False)
    ref = superop_smear(sf, coupling_quadratic(sf, x), kernel)
    # at n = 1 the operator vanishes, so the scale falls back to |x|^2
    assert (H - ref).hs_norm() <= 1e-13 * max(ref.hs_norm(), hs_norm(x) ** 2)


@pytest.mark.parametrize("kernel", [F0Kernel(), CauchyKernel(scale=1.0)], ids=["f0", "cauchy"])
@pytest.mark.parametrize("engine", ENGINES)
def test_each_build_transforms_back_once(monkeypatch, sf3, rng, engine, kernel):
    # both engines assemble in eigenbasis coordinates: one O(n^5) back-transform per build
    calls = []
    sandwiched = SuperOperator.sandwiched

    def counted(self, *factors):
        calls.append(self.dim)
        return sandwiched(self, *factors)

    monkeypatch.setattr(SuperOperator, "sandwiched", counted)
    dirichlet_operator(sf3, ginibre(3, rng), kernel, engine)
    assert calls == [3]


def test_central_coupling_gives_zero_operator(sf3):
    H = dirichlet_operator(sf3, np.eye(3))
    assert H.norm() < 1e-14


def test_scalar_shift_of_coupling_is_invisible(sf3, rng):
    x = ginibre(3, rng)
    H1 = dirichlet_operator(sf3, x)
    H2 = dirichlet_operator(sf3, x + (0.8 - 0.3j) * np.eye(3))
    assert (H1 - H2).norm() < 1e-11


def test_split_into_self_adjoint_parts(sf3, rng):
    x = ginibre(3, rng)
    x1, x2 = split_self_adjoint(x)
    np.testing.assert_allclose(x1, dagger(x1), atol=1e-14)
    np.testing.assert_allclose(x2, dagger(x2), atol=1e-14)
    np.testing.assert_allclose((x1 - 1j * x2) / np.sqrt(2), x, atol=1e-14)
    H = dirichlet_operator(sf3, x)
    H1 = dirichlet_operator(sf3, x1)
    H2 = dirichlet_operator(sf3, x2)
    assert (H - 0.5 * (H1 + H2)).norm() < 1e-11


@pytest.mark.parametrize("make_kernel", [F0Kernel, lambda: CauchyKernel(scale=1.0)])
def test_operator_properties(sf3, rng, make_kernel):
    x = ginibre(3, rng)
    H = dirichlet_operator(sf3, x, make_kernel())
    assert H.selfadjoint_defect() < 1e-12
    assert H.j_real_defect() < 1e-12
    assert hs_norm(H.apply(sf3.xi0)) < 1e-12
    w, _ = H.eigh()
    assert w[0] > -1e-12


def test_form_is_conjugate_symmetric(sf3, rng):
    x = ginibre(3, rng)
    eta, xi = ginibre(3, rng), ginibre(3, rng)
    assert abs(form_eval(sf3, x, eta, xi) - np.conj(form_eval(sf3, x, xi, eta))) < 1e-12


def test_form_vanishes_against_cyclic_vector(sf3, rng):
    x = ginibre(3, rng)
    eta = ginibre(3, rng)
    assert abs(form_eval(sf3, x, eta, sf3.xi0)) < 1e-12
    assert abs(form_eval(sf3, x, sf3.xi0, eta)) < 1e-12


def test_form_is_negative_on_jordan_pairs(sf3, rng):
    # E(xi_+, xi_-) <= 0: the first Dirichlet contraction property
    x = random_hermitian(3, rng)
    for _ in range(20):
        h = random_hermitian(3, rng)
        plus, minus = jordan_decompose(sf3, h)
        val = complex(form_eval(sf3, x, plus, minus))
        assert val.real <= 1e-10
        assert abs(val.imag) < 1e-10


def test_interval_contraction_on_embedded_positives(sf3, rng):
    # E(p, xi0 - p') >= small negative for embedded order-interval pairs
    x = random_hermitian(3, rng)
    H = dirichlet_operator(sf3, x)
    w, _ = H.eigh()
    assert w[0] > -1e-11


# ---------------------------------------------------------------------------
# the two engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_kernel", [F0Kernel, lambda: CauchyKernel(scale=1.0)])
def test_engines_agree(sf2, rng, make_kernel):
    x, f = ginibre(2, rng), make_kernel()
    rel = crosscheck_engines(sf2, [dirichlet_operator(sf2, x, f)], [x], f)
    assert rel < 1e-9


def test_engines_agree_on_degenerate_spectrum(sf4, rng):
    x, f = ginibre(4, rng), CauchyKernel(scale=1.0)
    rel = crosscheck_engines(sf4, [dirichlet_operator(sf4, x, f)], [x], f)
    assert rel < 1e-8


def test_quadrature_form_route(sf2, rng):
    x = ginibre(2, rng)
    spec = DirichletSpec(x=x, kernel=CauchyKernel(scale=1.0), engine=ENGINE_QUADRATURE)
    eta, xi = ginibre(2, rng), ginibre(2, rng)
    direct = form_eval(sf2, spec, eta, xi)
    H = dirichlet_operator(sf2, x, CauchyKernel(scale=1.0))
    assert abs(direct - complex(hs_inner(eta, H.apply(xi)))) < 1e-8


def test_boundary_shift_identity(sf3, rng):
    x = ginibre(3, rng)
    assert verify_boundary_shift(sf3, [x], CauchyKernel(scale=1.0)) < 1e-8


# ---------------------------------------------------------------------------
# spec validation and reporting
# ---------------------------------------------------------------------------

def test_spec_rejects_nonsquare_coupling():
    with pytest.raises(DimMismatch):
        DirichletSpec(x=np.ones((2, 3)))


def test_spec_rejects_unknown_engine(rng):
    with pytest.raises(ValueError):
        DirichletSpec(x=ginibre(2, rng), engine="magic")


def test_spec_rejects_signed_kernel_by_default(rng):
    with pytest.raises(NotAdmissible):
        DirichletSpec(x=ginibre(2, rng), kernel=CosineModulatedF0(alpha=6.0))
    # explicit escape hatch for controls
    DirichletSpec(x=ginibre(2, rng), kernel=CosineModulatedF0(alpha=6.0),
                  check_kernel=False)


def test_admissibility_cache_does_not_share_certificates(rng):
    f0, signed = F0Kernel(), CosineModulatedF0(alpha=6.0)
    good = TabulatedKernel(f0.eval, f0.strip_eval, truncation_radius=5.0)
    bad = TabulatedKernel(signed.eval, signed.strip_eval, truncation_radius=5.0)
    DirichletSpec(x=ginibre(2, rng), kernel=good)
    # same class and name as the certified kernel, but signed
    with pytest.raises(NotAdmissible):
        DirichletSpec(x=ginibre(2, rng), kernel=bad)
    for scale in (0.5, 2.0, 0.5):
        dirichlet.ensure_admissible(CauchyKernel(scale=scale))


def test_admissibility_cache_holds_no_tabulated_kernel():
    f0 = F0Kernel()
    dirichlet.ensure_admissible(f0)
    for _ in range(50):
        fresh = TabulatedKernel(f0.eval, f0.strip_eval, truncation_radius=5.0)
        assert dirichlet.ensure_admissible(fresh).granted


def test_quadrature_routes_refuse_a_slow_kernel_without_a_radius(sf3, rng):
    # Cauchy values with no declared radius and no analytic tail: the sampled
    # certificate grants them (p ~ 2), but no panel rule up to |t| = 1024 holds their mass
    cauchy = CauchyKernel(scale=1.0)
    slow = TabulatedKernel(cauchy.eval, cauchy.strip_eval, name="tab_cauchy")
    assert slow.certificate().granted
    x = ginibre(3, rng)
    with pytest.raises(QuadratureNotConverged):
        dirichlet_operator(sf3, x, slow, ENGINE_QUADRATURE)
    with pytest.raises(QuadratureNotConverged):
        smear_quadrature(sf3, x, slow)


def test_verification_report_is_clean(sf3, rng):
    x = random_hermitian(3, rng)
    rep = verify_dirichlet(sf3, dirichlet_operator(sf3, DirichletSpec(x=x)), 4)
    for field in ("h_xi0_residual", "j_real_residual", "conj_form_residual",
                  "selfadjoint_defect", "cone_form_residual"):
        assert getattr(rep, field) < 1e-8, field
    assert rep.negativity_violations == 0
    assert rep.psd_min_eig > -1e-11


def test_verification_flags_signed_kernel(rng):
    # the pinned control configuration must be caught by the report
    sf = build_standard_form(np.diag([0.9, 0.1]))
    x = random_hermitian(2, np.random.default_rng(0))
    spec = DirichletSpec(x=x, kernel=CosineModulatedF0(alpha=6.0), check_kernel=False)
    rep = verify_dirichlet(sf, dirichlet_operator(sf, spec), 4)
    # the Markovianity fields fail their bars; the structure still holds
    assert rep.negativity_violations > 0
    assert rep.psd_min_eig < -1e-3
    for field in ("h_xi0_residual", "j_real_residual", "conj_form_residual",
                  "selfadjoint_defect", "cone_form_residual"):
        assert getattr(rep, field) < 1e-8, field
