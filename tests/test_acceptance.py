"""Acceptance gate: the package-level guarantees, one test per criterion.

Each test prints a single PASS line with its measured worst case; a
failing criterion fails its test, so this module doubles as the release
checklist.  Tolerances are pinned here on purpose — loosening them is a
release decision, not a test fix.
"""

import time

import numpy as np
import pytest

from mdf import (
    CauchyKernel,
    CosineModulatedF0,
    F0Kernel,
    LindbladSpec,
    T_MAP,
    apply_I0,
    build_Q,
    build_standard_form,
    check_balance_condition,
    crosscheck_engines,
    dirichlet_operator,
    general_f_embedding_residual,
    induced_operator,
    induced_operator_shifted,
    jordan_decompose,
    lindblad_superop,
    markovianity_report,
    modular_map,
    project_order_interval,
    spec_from_couplings,
    tracial_state,
)
from mdf.linalg import (
    dagger,
    ginibre,
    hs_inner,
    hs_norm,
    psd_from_ginibre,
    random_hermitian,
)
from mdf.semigroup import INTERVAL_TOL
from reference import tracial_symmetric_generator, verify_tracial_case


def _state(n, seed):
    rng = np.random.default_rng(seed)
    g = ginibre(n, rng)
    rho = g @ dagger(g) + 0.25 * np.eye(n)
    rho /= np.trace(rho).real
    return build_standard_form(rho)


def _couplings(n, count, rng):
    """Half Hermitian, half generic."""
    out = []
    for i in range(count):
        out.append(random_hermitian(n, rng) if i % 2 == 0 else ginibre(n, rng))
    return out


def test_fourier_identity_of_the_distinguished_kernel():
    started = time.perf_counter()
    f = F0Kernel()
    kappa = np.arange(-8.0, 9.0)
    quad = f.hat_quadrature(kappa)
    closed = 1.0 / (np.exp(kappa / 4) + np.exp(-kappa / 4))
    worst = float(np.max(np.abs(quad - closed)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 1.0
    print(f"\n[PASS] Fourier identity: worst |quad - closed| = {worst:.3e} "
          f"over kappa in -8..8 ({elapsed:.2f}s)")


def test_smearing_inverts_the_boundary_sum_map():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 6):
        sf = _state(n, seed=n)
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            A = ginibre(n, rng)
            scale = hs_norm(A)
            worst = max(
                worst,
                hs_norm(modular_map(sf, apply_I0(sf, A), T_MAP) - A) / scale,
                hs_norm(apply_I0(sf, modular_map(sf, A, T_MAP)) - A) / scale,
            )
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    print(f"\n[PASS] T/I0 inversion: worst residual {worst:.3e} over 100 "
          f"operators at each n in (2,3,4,6) ({elapsed:.2f}s)")


def test_dirichlet_operator_suite():
    started = time.perf_counter()
    kernels = (F0Kernel(), CauchyKernel(scale=1.0))
    worst = {"xi0": 0.0, "jcomm": 0.0, "jordan": -np.inf, "cone": 0.0, "psd": np.inf}
    for n in (2, 3, 4):
        sf = _state(n, seed=10 * n)
        rng = np.random.default_rng(1000 + n)
        xs = _couplings(n, 20, rng)
        for f in kernels:
            for x in xs:
                H = dirichlet_operator(sf, x, f)
                worst["xi0"] = max(worst["xi0"], hs_norm(H.apply(sf.xi0)))
                worst["jcomm"] = max(worst["jcomm"], H.j_real_defect())
                w, _ = H.eigh()
                worst["psd"] = min(worst["psd"], float(w[0]))
                for _ in range(200):
                    h = random_hermitian(n, rng)
                    plus, minus = jordan_decompose(sf, h)
                    e = complex(hs_inner(plus, H.apply(minus)))
                    worst["jordan"] = max(worst["jordan"], e.real)
                    p = psd_from_ginibre(ginibre(n, rng))
                    worst["cone"] = max(
                        worst["cone"], abs(complex(hs_inner(p, H.apply(sf.xi0))))
                    )
    elapsed = time.perf_counter() - started
    assert worst["xi0"] < 1e-8
    assert worst["jcomm"] < 1e-8
    assert worst["jordan"] <= 1e-9
    assert worst["cone"] < 1e-8
    assert worst["psd"] > -1e-9
    assert elapsed < 120.0
    print(f"\n[PASS] Dirichlet operator suite: |H xi0| {worst['xi0']:.2e}, "
          f"J-commutation {worst['jcomm']:.2e}, jordan form max {worst['jordan']:.2e}, "
          f"cone pairing {worst['cone']:.2e}, min eig {worst['psd']:.2e} ({elapsed:.1f}s)")


def test_engine_equivalence():
    started = time.perf_counter()
    worst = 0.0
    cases = [(2, 7), (3, 7), (4, 6)]  # 20 couplings across n <= 4
    for n, count in cases:
        sf = _state(n, seed=20 * n)
        rng = np.random.default_rng(2000 + n)
        xs = _couplings(n, count, rng)
        parts = [dirichlet_operator(sf, x, F0Kernel()) for x in xs]
        worst = max(worst, crosscheck_engines(sf, parts, xs, F0Kernel()))
    elapsed = time.perf_counter() - started
    assert worst < 1e-7
    print(f"\n[PASS] engine equivalence: worst relative gap {worst:.3e} "
          f"over 20 couplings, n <= 4 ({elapsed:.1f}s)")


def test_detailed_balance_and_decomposition():
    worst_sa = 0.0
    worst_dec = 0.0
    worst_reg = 0.0
    worst_control = np.inf
    for n in (2, 3):
        sf = _state(n, seed=30 * n)
        rng = np.random.default_rng(3000 + n)
        g = ginibre(n, rng)
        families = [[random_hermitian(n, rng)], [g, dagger(g)]]
        for xs in families:
            spec = spec_from_couplings(sf, xs)
            H = induced_operator(sf, lindblad_superop(spec))
            worst_sa = max(worst_sa, H.selfadjoint_defect())

            assert check_balance_condition(sf, xs).balanced
            parts = [dirichlet_operator(sf, x) for x in xs]
            total = parts[0]
            for p in parts[1:]:
                total = total + p
            worst_dec = max(worst_dec, (H - total).norm())

            # three assembly routes pairwise: termwise closed form,
            # Dirichlet sum, embedding conjugation
            shifted = induced_operator_shifted(sf, spec)
            worst_reg = max(
                worst_reg,
                (shifted - H).norm(),
                (shifted - total).norm(),
                (H - total).norm(),
            )

            # drift perturbed by a non-central Hermitian of norm 0.1
            p = random_hermitian(n, rng)
            p = p - (np.trace(p) / n) * np.eye(n)
            p = 0.1 * p / hs_norm(p)
            bad = LindbladSpec(ys=spec.ys, Q=spec.Q + p)
            worst_control = min(
                worst_control, induced_operator(sf, lindblad_superop(bad)).selfadjoint_defect()
            )
    assert worst_sa < 1e-8
    assert worst_dec < 1e-7
    assert worst_reg < 1e-8
    assert worst_control > 1e-4
    print(f"\n[PASS] detailed balance: |H - H*| {worst_sa:.2e}, decomposition "
          f"{worst_dec:.2e}, assembly regression {worst_reg:.2e}, perturbed-drift "
          f"control {worst_control:.2e}")


def test_tracial_reduction():
    sf = tracial_state(3)
    rng = np.random.default_rng(44)
    q_norm = hs_norm(build_Q(sf, [ginibre(3, rng)]))
    assert q_norm == 0.0

    g = ginibre(3, rng)
    reports = [
        verify_tracial_case([random_hermitian(3, rng)]),
        verify_tracial_case([g, dagger(g)]),
    ]
    worst_identity = max(r.identity_residual for r in reports)
    assert worst_identity < 1e-9

    for rep in reports:
        assert rep.sym_vs_dirichlet < 1e-9
        assert rep.plain_vs_sym < 1e-9

    # symmetrized generator against the Dirichlet sum, applied to 50 inputs
    xs = [g, dagger(g)]
    sym = tracial_symmetric_generator(xs)
    total = None
    for x in xs:
        Hx = dirichlet_operator(sf, x)
        total = Hx if total is None else total + Hx
    worst_apply = 0.0
    for _ in range(50):
        a = ginibre(3, rng)
        worst_apply = max(
            worst_apply, hs_norm(sym.apply(a) - total.apply(a)) / hs_norm(a)
        )
    assert worst_apply < 1e-9
    print(f"\n[PASS] tracial case: |Q| = {q_norm!r} (exact zero), commutator "
          f"identity {worst_identity:.2e}, symmetrized-vs-Dirichlet "
          f"{worst_apply:.2e} on 50 inputs")


def test_general_weight_embedding():
    worst = 0.0
    f = CauchyKernel(scale=1.0)
    for n in (2, 3):
        sf = _state(n, seed=50 * n)
        rng = np.random.default_rng(5000 + n)
        x = random_hermitian(n, rng)
        H = dirichlet_operator(sf, x, f)
        worst = max(worst, general_f_embedding_residual(sf, x, f, H))
    assert worst < 1e-7
    print(f"\n[PASS] general-weight embedding: worst residual {worst:.3e} "
          f"(exact HS norm of e0 L - H e0, Cauchy scale 1, Hermitian couplings)")


def test_markovianity_and_its_negative_control():
    started = time.perf_counter()
    total_violations = 0
    for n in (2, 3, 4):
        sf = _state(n, seed=10 * n)
        rng = np.random.default_rng(6000 + n)
        for f in (F0Kernel(), CauchyKernel(scale=1.0)):
            for x in (random_hermitian(n, rng), ginibre(n, rng)):
                H = dirichlet_operator(sf, x, f)
                rep = markovianity_report(sf, H, 9)
                total_violations += (
                    rep.interval_violations
                    + rep.extreme_violations
                    + rep.positivity_violations
                    + rep.form_violations
                )
                assert max(rep.xi0_invariance_max, rep.j_real_max) < INTERVAL_TOL
    assert total_violations == 0

    sf = build_standard_form(np.diag([0.9, 0.1]))
    x = random_hermitian(2, np.random.default_rng(0))
    H = dirichlet_operator(sf, x, CosineModulatedF0(6.0), check_kernel=False)
    rep = markovianity_report(sf, H, 5)
    control_violations = (
        rep.interval_violations
        + rep.extreme_violations
        + rep.positivity_violations
        + rep.form_violations
    )
    elapsed = time.perf_counter() - started
    assert control_violations >= 1
    print(f"\n[PASS] Markovianity: 0 violations over 12 admissible operators "
          f"(t in 0.1/1/10, 100+100 samples); control produced "
          f"{control_violations} violations ({elapsed:.1f}s)")


def test_projection_against_convex_oracle():
    cp = pytest.importorskip("cvxpy")
    sf = build_standard_form(np.diag([0.75, 0.25]))
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        eta = random_hermitian(2, rng)
        X = cp.Variable((2, 2), hermitian=True)
        problem = cp.Problem(
            cp.Minimize(cp.sum_squares(X - cp.Constant(eta))),
            [X >> 0, cp.Constant(sf.xi0) - X >> 0],
        )
        problem.solve(solver=cp.SCS, eps=1e-11, max_iters=100000)
        worst = max(worst, hs_norm(project_order_interval(sf, eta) - X.value))
    assert worst < 1e-6
    print(f"\n[PASS] interval projection: worst gap to the convex oracle "
          f"{worst:.3e} over 50 inputs at n = 2")
