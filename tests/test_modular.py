"""Kernels, Fourier identities, modular flow, and flow averages."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdf import (
    BoundaryCombination,
    CauchyKernel,
    CosineModulatedF0,
    D_MINUS_QUARTER,
    DirichletSpec,
    D_PLUS_QUARTER,
    F0Kernel,
    KernelFunction,
    NotAdmissible,
    Overflow,
    QuadratureNotConverged,
    S_MAP,
    SchemaError,
    SuperOperator,
    T_MAP,
    apply_I0,
    build_standard_form,
    check_admissible,
    ensure_admissible,
    kernel_from_descriptor,
    modular_map,
    sigma,
    smear,
    smear_quadrature,
    superop_modular_map,
    superop_sigma,
    superop_smear,
    superop_smear_quadrature,
)
from mdf.kernels import CLOSED_FORM
from mdf.linalg import dagger, ginibre, hs_norm
from reference import TabulatedKernel, left_mult


# ---------------------------------------------------------------------------
# kernels and transforms
# ---------------------------------------------------------------------------

def test_f0_values():
    f = F0Kernel()
    assert f.eval(0.0) == pytest.approx(1.0)
    t = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(f.eval(t), 1.0 / np.cosh(2 * np.pi * t), atol=1e-15)
    np.testing.assert_allclose(f.strip_eval(t, 0.0).real, f.eval(t), atol=1e-13)


def test_f0_transform_closed_vs_quadrature():
    f = F0Kernel()
    kappa = np.arange(-8.0, 8.5, 0.5)
    closed = f.hat(kappa)
    quad = f.hat_quadrature(kappa)
    np.testing.assert_allclose(quad, closed, atol=1e-10)
    assert f.hat(0.0) == pytest.approx(0.5)


@pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
def test_cauchy_transform_closed_vs_quadrature(scale):
    f = CauchyKernel(scale=scale)
    kappa = np.array([0.0, 0.2, 1.0, 3.0, -2.0, 7.0])
    np.testing.assert_allclose(f.hat_quadrature(kappa), f.hat(kappa), atol=1e-10)


def test_cauchy_has_unit_mass():
    assert CauchyKernel(scale=1.3).hat(0.0) == pytest.approx(1.0)


def test_cauchy_rejects_small_scale():
    # poles at +- i s must stay outside the strip |Im z| <= 1/4
    with pytest.raises(NotAdmissible):
        CauchyKernel(scale=0.25)


def test_signed_kernel_transform_is_shifted_average():
    f = CosineModulatedF0(alpha=6.0)
    f0 = F0Kernel()
    kappa = np.linspace(-5, 5, 11)
    expected = 0.5 * (f0.hat(kappa + 6.0) + f0.hat(kappa - 6.0))
    np.testing.assert_allclose(f.hat(kappa), expected, atol=1e-15)
    np.testing.assert_allclose(f.hat_quadrature(kappa), expected, atol=1e-10)


def test_boundary_combination_transform_identity():
    base = CauchyKernel(scale=1.0)
    w = BoundaryCombination(base)
    kappa = np.array([0.0, 0.5, 2.0, -3.0, 6.0])
    expected = (np.exp(kappa / 4) + np.exp(-kappa / 4)) * base.hat(kappa)
    np.testing.assert_allclose(w.hat(kappa), expected, atol=1e-12)
    np.testing.assert_allclose(w.hat_quadrature(kappa), expected, atol=1e-9)


def test_boundary_combination_rejects_distributional_base():
    for base in (F0Kernel(), CosineModulatedF0(0.0)):
        with pytest.raises(NotAdmissible, match="delta alone"):
            BoundaryCombination(base)


@pytest.mark.parametrize(
    "base", [CauchyKernel(0.3), CauchyKernel(1.0), CauchyKernel(50.0), CosineModulatedF0(0.5),
             CosineModulatedF0(6.0), CosineModulatedF0(-3.0), CosineModulatedF0(20.0)],
    ids=["cauchy_0.3", "cauchy_1", "cauchy_50", "signed_0.5", "signed_6", "signed_-3",
         "signed_20"],
)
def test_the_pointwise_part_is_t_times_the_transform_less_the_delta(base):
    # the declared mass is the whole gap between T hat_f and the sampled pointwise part
    w = BoundaryCombination(base)
    kappa = np.linspace(-10.0, 10.0, 401)
    np.testing.assert_allclose(w.hat(kappa), w.hat_quadrature(kappa), rtol=0, atol=1e-10)


def test_the_f0_boundary_weight_is_the_declared_delta():
    f = F0Kernel()
    assert (f.boundary_mass, f.boundary_pointwise) == (1.0, False)
    kappa = np.linspace(-40.0, 40.0, 8001)
    t_hat = (np.exp(kappa / 4) + np.exp(-kappa / 4)) * f.hat(kappa)
    np.testing.assert_allclose(t_hat - f.boundary_mass, 0.0, atol=1e-15)


def test_a_wide_controls_delta_mass_may_be_infinite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = CosineModulatedF0(1e4)
    assert f.boundary_mass == np.inf and f.boundary_pointwise


def test_a_kernel_without_a_certificate_is_refused_by_name():
    with pytest.raises(NotAdmissible, match=r"'boundary\(cauchy\)' is a diagnostic"):
        ensure_admissible(BoundaryCombination(CauchyKernel(1.0)))
    with pytest.raises(NotAdmissible, match="not certified"):
        DirichletSpec(np.eye(2), BoundaryCombination(CauchyKernel(1.0)))

    class Uncertified(KernelFunction):
        name = "uncertified"

    with pytest.raises(NotImplementedError, match="uncertified kernel states no certificate"):
        ensure_admissible(Uncertified())


def test_tabulated_kernel_runs_on_quadrature():
    f0 = F0Kernel()
    tab = TabulatedKernel(fn=f0.eval, strip_fn=f0.strip_eval, name="tab_f0",
                          truncation_radius=5.0)
    kappa = np.array([0.0, 1.0, -2.5])
    np.testing.assert_allclose(tab.hat(kappa), f0.hat(kappa), atol=1e-10)


def test_slow_kernel_without_tail_fails_quadrature():
    # no declared radius: the panel rules refuse the kernel before they sample it
    slow = TabulatedKernel(fn=lambda t: (1.0 + np.abs(t)) ** -1.2, name="slow")
    with pytest.raises(QuadratureNotConverged):
        slow.hat_quadrature(np.array([1.0]))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "desc, key",
    [
        ({"cauchy": 5}, "kernel.cauchy"),
        ({"cauchy": {"scale": True, "foo": 1}}, "kernel.cauchy.scale"),
        ({"cauchy": {"scale": 2.0, "foo": 1}}, "kernel.cauchy.foo"),
        ({"signed_f0": {"alpha": float("nan")}}, "kernel.signed_f0.alpha"),
        ({"cauchy": {"scale": 10**400}}, "kernel.cauchy.scale"),
    ],
)
def test_kernel_descriptor_rejections_name_the_key(desc, key):
    with pytest.raises(SchemaError, match="^" + key.replace(".", r"\.") + ": "):
        kernel_from_descriptor(desc)


def test_kernel_descriptors_build_their_kernels():
    assert isinstance(kernel_from_descriptor("f0"), F0Kernel)
    assert kernel_from_descriptor({"cauchy": {}}).scale == 1.0
    assert kernel_from_descriptor({"cauchy": {"scale": 2}}).scale == 2.0
    assert kernel_from_descriptor({"signed_f0": {"alpha": 3}}).alpha == 3.0
    with pytest.raises(NotAdmissible, match="unknown kernel descriptor"):
        kernel_from_descriptor({"sinc": {}})
    with pytest.raises(NotAdmissible, match="1/4"):
        kernel_from_descriptor({"cauchy": {"scale": 0.2}})


def test_f0_and_cauchy_are_admissible():
    for f in (F0Kernel(), CauchyKernel(scale=1.0), CauchyKernel(scale=0.3)):
        cert = check_admissible(f)
        assert cert.granted, (f.name, cert)
        assert cert.positivity_ok
        assert cert.decay_p > 1.0


def test_f0_boundary_is_distributional():
    cert = check_admissible(F0Kernel())
    assert cert.boundary_status == "distributional"


def test_signed_kernel_fails_positivity():
    cert = check_admissible(CosineModulatedF0(alpha=6.0))
    assert not cert.positivity_ok
    assert not cert.granted


_GAUSSIAN = TabulatedKernel(lambda t: np.exp(-(t**2)), lambda t, s: np.exp(-((t + 1j * s) ** 2)),
                            name="gaussian", truncation_radius=8.0)


def test_gaussian_fails_boundary_condition():
    # e^{-z^2} on the boundary lines: f(t+i/4) + f(t-i/4) oscillates in
    # sign, so the boundary-positivity condition cannot hold even though
    # the kernel is positive and rapidly decaying on the real axis
    cert = check_admissible(_GAUSSIAN)
    assert cert.positivity_ok
    assert cert.boundary_status == "failed"
    assert not cert.granted


@pytest.mark.parametrize(
    "f", [F0Kernel(), CauchyKernel(0.26), CauchyKernel(1.0), CauchyKernel(20.0),
          CosineModulatedF0(0.5), CosineModulatedF0(6.0), CosineModulatedF0(-3.0)],
    ids=["f0", "cauchy_0.26", "cauchy_1", "cauchy_20", "signed_0.5", "signed_6", "signed_-3"],
)
def test_closed_form_certificate_agrees_with_the_sampled_check(f):
    closed, sampled = f.certificate(), check_admissible(f)
    assert closed.grid == CLOSED_FORM != sampled.grid
    for field in ("positivity_ok", "boundary_status", "decay_ok", "granted", "failures"):
        assert getattr(closed, field) == getattr(sampled, field), field
    assert closed.granted != isinstance(f, CosineModulatedF0)
    assert closed.decay_p >= 2.0 and sampled.decay_p > 1.0


@pytest.mark.parametrize("alpha", [0.5, 6.0, -3.0])
def test_the_controls_boundary_combination_is_its_closed_form(alpha):
    f = CosineModulatedF0(alpha)
    half = np.linspace(0.01, 5.0, 2000)
    t = np.concatenate([-half[::-1], half])
    a = abs(alpha)
    closed = -2 * np.sinh(a / 4) * np.sin(a * np.abs(t)) / np.sinh(2 * np.pi * np.abs(t))
    np.testing.assert_allclose(f.strip_eval(t, 0.25) + f.strip_eval(t, -0.25), closed,
                               rtol=1e-10, atol=1e-14 * np.max(np.abs(closed)))
    assert f.certificate().failures == ["positivity", "boundary combination"]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 6.0, -3.0])
def test_the_controls_decay_bound_holds_on_the_strip(alpha):
    # f0's bound |f0(t + i s)| <= M e^{-2 pi |t|} for |t| >= 1/2, times cosh(|alpha|/4)
    f = CosineModulatedF0(alpha)
    cert = f.certificate()
    assert cert.decay_p == np.inf and cert.decay_ok and cert.kernel == "signed_f0"
    half = np.linspace(0.5, 10.0, 4001)
    t = np.concatenate([-half[::-1], half])
    strip = np.abs(f.strip_eval(t, np.linspace(-0.25, 0.25, 41)[:, None]))
    assert np.max(strip * np.exp(2 * np.pi * np.abs(t))) <= np.exp(cert.decay_log_M) * (1 + 1e-12)
    if alpha == 0.0:
        assert replace(cert, kernel="f0") == F0Kernel().certificate()


@pytest.mark.parametrize(
    "f", [F0Kernel(), CauchyKernel(2.0), CosineModulatedF0(6.0),
          BoundaryCombination(CauchyKernel(1.0)),
          TabulatedKernel(F0Kernel().eval, name="tab_f0", truncation_radius=5.0)],
    ids=["f0", "cauchy", "signed", "boundary", "tabulated"],
)
def test_every_hat_takes_a_scalar(f):
    value = f.hat(0.5)
    assert isinstance(value, float)
    assert value == pytest.approx(f.hat(np.array([0.5]))[0], rel=1e-14)


@pytest.mark.parametrize("scale", [50.0, 200.0])
def test_wide_cauchy_scales_are_granted(scale):
    cert = ensure_admissible(CauchyKernel(scale))
    assert cert.granted and cert.decay_p == 2.0
    # the sampled route fits the decay on the tail, past the flat top of width ~10 s
    c = CauchyKernel(scale)
    sampled = check_admissible(TabulatedKernel(c.eval, c.strip_eval, name="tab_cauchy"))
    assert sampled.granted and sampled.decay_p == pytest.approx(2.0, abs=0.03)


def test_sampled_decay_fit_refuses_a_wide_slow_kernel():
    # (1 + (t/50)^2)^(-0.4) decays like t^(-0.8): as wide as Cauchy(50), but p < 1
    slow = TabulatedKernel(lambda t: (1 + (t / 50) ** 2) ** -0.4,
                           lambda t, s: (1 + ((t + 1j * s) / 50) ** 2) ** -0.4, name="p08")
    cert = check_admissible(slow)
    assert cert.failures == [f"strip decay (p = {cert.decay_p:.3g})"]
    assert cert.decay_p == pytest.approx(0.8, abs=0.01)


@pytest.mark.parametrize(
    "f", [F0Kernel(), CauchyKernel(0.26), CauchyKernel(1.0), _GAUSSIAN,
          TabulatedKernel(CauchyKernel(1.0).eval, CauchyKernel(1.0).strip_eval, name="tab_cauchy")],
    ids=["f0", "cauchy_0.26", "cauchy_1", "gaussian", "tab_cauchy"],
)
def test_kernels_that_drop_by_t_10_keep_the_fixed_decay_window(f):
    # the literal fit over |t| in [10, 50] of the [-50, 50] step 0.01 grid
    t = np.arange(-50.0, 50.005, 0.01)
    tt = t[(np.abs(t) >= 10.0) & (np.abs(t) <= 50.0)]
    logs = np.log(1.0 + np.abs(tt))
    slopes = [np.polyfit(logs, np.log(np.maximum(np.abs(f.strip_eval(tt, s)), 1e-300)), 1)[0]
              for s in np.linspace(-0.25, 0.25, 9)]
    cert = check_admissible(f)
    assert cert.grid == ("t in [-50.0, 50.0] step 0.01; decay fit |t| in [10.0, 50.0], "
                         "9 strip lines")
    assert cert.decay_p == -max(slopes)


@pytest.mark.parametrize("scale", [6e102, 1e120, 7.5e153])
def test_cauchy_decay_constant_is_finite_at_wide_scales(scale):
    # s (1 + c) ~ s^3 overflows here; log M = log(s / pi) + log(1 + 1/c) does not
    log_M = CauchyKernel(scale).certificate().decay_log_M
    assert np.isfinite(log_M)
    assert log_M == pytest.approx(np.log(scale / np.pi), rel=1e-15)


@pytest.mark.parametrize("scale", [1.0, 50.0])
def test_cauchy_decay_constant_keeps_its_value(scale):
    c = scale * scale - 1.0 / 16.0
    direct = np.log(scale * (1.0 + c) / (np.pi * c))
    assert CauchyKernel(scale).certificate().decay_log_M == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("scale", [0.2501, 0.26, 1.0, 20.0, 50.0, 200.0])
def test_cauchy_decay_bound_holds_on_the_strip(scale):
    f = CauchyKernel(scale)
    M = np.exp(f.certificate().decay_log_M)
    half = np.geomspace(1e-4, 1e7, 20001)
    t = np.concatenate([-half[::-1], [0.0], half])
    strip = np.abs(f.strip_eval(t, np.linspace(-0.25, 0.25, 41)[:, None]))
    worst = float(np.max(strip * (1.0 + np.abs(t)) ** 2))
    assert worst <= M * (1 + 1e-12)
    assert worst >= 0.5 * M  # and is not loose: at least half of it is attained


# ---------------------------------------------------------------------------
# modular flow
# ---------------------------------------------------------------------------

def test_flow_group_law(sf3, rng):
    A = ginibre(3, rng)
    for s_t, z_t in [(0.3, 1.1), (0.5 - 0.1j, -0.2 + 0.05j), (-1.0j / 4, 1.0j / 4)]:
        lhs = sigma(sf3, sigma(sf3, A, s_t), z_t)
        np.testing.assert_allclose(lhs, sigma(sf3, A, s_t + z_t), atol=1e-12)


def test_flow_at_real_time_is_isometric(sf3, rng):
    A = ginibre(3, rng)
    assert hs_norm(sigma(sf3, A, 1.7)) == pytest.approx(hs_norm(A), abs=1e-12)


def test_flow_star_compatibility(sf3, rng):
    A = ginibre(3, rng)
    z = 0.4 - 0.13j
    np.testing.assert_allclose(
        dagger(sigma(sf3, A, z)), sigma(sf3, dagger(A), np.conj(z)), atol=1e-12
    )


def test_flow_fixes_identity_and_state(sf3):
    np.testing.assert_allclose(sigma(sf3, np.eye(3), 0.7 - 0.2j), np.eye(3), atol=1e-13)
    np.testing.assert_allclose(
        sigma(sf3, sf3.rho.entries, 1.3 - 0.8j), sf3.rho.entries, atol=1e-12
    )


def test_quarter_shift_is_rho_power_conjugation(sf3, rng):
    A = ginibre(3, rng)
    direct = sf3.rho_power(0.25) @ A @ sf3.rho_power(-0.25)
    np.testing.assert_allclose(sigma(sf3, A, -0.25j), direct, atol=1e-12)
    np.testing.assert_allclose(modular_map(sf3, A, D_PLUS_QUARTER), direct, atol=1e-12)


def test_kms_boundary_condition(sf3, rng):
    # omega(AB) = omega(B sigma_{-i}(A)) for the state omega = Tr(rho .)
    A, B = ginibre(3, rng), ginibre(3, rng)
    rho = sf3.rho.entries
    lhs = np.trace(rho @ A @ B)
    rhs = np.trace(rho @ B @ sigma(sf3, A, -1.0j))
    assert abs(lhs - rhs) < 1e-12


def test_quarter_shift_maps_combine(sf3, rng):
    A = ginibre(3, rng)
    plus = modular_map(sf3, A, D_PLUS_QUARTER)
    minus = modular_map(sf3, A, D_MINUS_QUARTER)
    np.testing.assert_allclose(modular_map(sf3, A, T_MAP), plus + minus, atol=1e-12)
    np.testing.assert_allclose(modular_map(sf3, A, S_MAP), plus - minus, atol=1e-12)
    # T^2 - S^2 = 4 D_+ D_- = 4 id
    t2 = modular_map(sf3, modular_map(sf3, A, T_MAP), T_MAP)
    s2 = modular_map(sf3, modular_map(sf3, A, S_MAP), S_MAP)
    np.testing.assert_allclose(t2 - s2, 4 * A, atol=1e-11)


def test_smear_with_f0_inverts_T(sf3, rng):
    A = ginibre(3, rng)
    np.testing.assert_allclose(
        modular_map(sf3, apply_I0(sf3, A), T_MAP), A, atol=1e-12
    )
    np.testing.assert_allclose(
        apply_I0(sf3, modular_map(sf3, A, T_MAP)), A, atol=1e-12
    )


def test_overflow_guard_trips():
    sf = build_standard_form(np.diag([1.0 - 2e-8, 2e-8]))
    with pytest.raises(Overflow):
        sigma(sf, np.eye(2), 50.0j)
    # |Im z| max|kappa| = 443 passes the guard, but the superoperator flow
    # reaches |Im z| max|nu_a - nu_b| = 886
    with pytest.raises(Overflow):
        superop_sigma(sf, left_mult(np.eye(2)), 25j)


# ---------------------------------------------------------------------------
# flow averages (smearing)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_kernel", [F0Kernel, lambda: CauchyKernel(scale=1.0)])
def test_smear_exact_vs_quadrature(sf3, rng, make_kernel):
    f = make_kernel()
    A = ginibre(3, rng)
    np.testing.assert_allclose(
        smear_quadrature(sf3, A, f), smear(sf3, A, f), atol=1e-8
    )


def test_smear_on_degenerate_spectrum(sf4, rng):
    # kappa = 0 blocks must smear with weight hat(0)
    f = CauchyKernel(scale=1.0)
    A = ginibre(4, rng)
    np.testing.assert_allclose(
        smear_quadrature(sf4, A, f), smear(sf4, A, f), atol=1e-8
    )


def test_smear_preserves_hermiticity(sf3, rng):
    h = ginibre(3, rng)
    h = h + dagger(h)
    out = smear(sf3, h, F0Kernel())
    np.testing.assert_allclose(out, dagger(out), atol=1e-13)


def test_smear_is_an_average_for_central_input(sf3):
    # identity is a fixed point of the flow; unit-mass kernels keep it
    np.testing.assert_allclose(
        smear(sf3, np.eye(3), CauchyKernel(scale=1.0)), np.eye(3), atol=1e-13
    )


# ---------------------------------------------------------------------------
# superoperator level
# ---------------------------------------------------------------------------

def test_superop_frequencies_is_one_read_only_grid(sf3):
    freq = sf3.superop_frequencies
    assert sf3.superop_frequencies is freq
    assert not freq.flags.writeable
    nu = sf3.kappa.reshape(-1)
    np.testing.assert_array_equal(freq, nu[:, None] - nu[None, :])
    with pytest.raises(ValueError):
        freq[0, 1] = 0.0


def test_superop_flow_conjugates_sandwiches(sf3, rng):
    A, B, X = (ginibre(3, rng) for _ in range(3))
    K = SuperOperator.sandwich(A, B)
    G = SuperOperator(ginibre(9, rng), 3)
    for t in (0.62, 0.62 - 0.1j):
        lhs = superop_sigma(sf3, K, t)
        rhs = SuperOperator.sandwich(sigma(sf3, A, t), sigma(sf3, B, t))
        assert (lhs - rhs).norm() < 1e-12
        # and the conjugation formula itself
        np.testing.assert_allclose(
            lhs.apply(X), sigma(sf3, K.apply(sigma(sf3, X, -t)), t), atol=1e-12
        )
        # the entrywise multiplier e^{it(nu_a - nu_b)} in eigenbasis
        # coordinates is the same flow along an independent route, on a
        # sandwich and on a general dense superoperator
        for M in (K, G):
            multiplier = sf3.superop_multiplier(M, np.exp(1j * t * sf3.superop_frequencies))
            assert (superop_sigma(sf3, M, t) - multiplier).norm() < 1e-12


def test_superop_quarter_shift_on_one_sided_multipliers(sf3, rng):
    # conjugating a one-sided multiplier moves the flow onto the symbol:
    # sigma_z . A X . sigma_{-z} = sigma_z(A) X  and likewise on the right,
    # so continuing to z = -i/4 shifts the symbol on either side
    A = ginibre(3, rng)
    lhs = superop_modular_map(sf3, left_mult(A), D_PLUS_QUARTER)
    rhs = left_mult(sigma(sf3, A, -0.25j))
    assert (lhs - rhs).norm() < 1e-12
    lhs = superop_modular_map(sf3, SuperOperator.right_mult(A), D_PLUS_QUARTER)
    rhs = SuperOperator.right_mult(sigma(sf3, A, -0.25j))
    assert (lhs - rhs).norm() < 1e-12
    # the quarter shifts are the flow continued to z = -+i/4
    K = SuperOperator.sandwich(A, ginibre(3, rng))
    for z, which in ((-0.25j, D_PLUS_QUARTER), (0.25j, D_MINUS_QUARTER)):
        assert (superop_sigma(sf3, K, z) - superop_modular_map(sf3, K, which)).norm() < 1e-12


@pytest.mark.parametrize("make_kernel", [F0Kernel, lambda: CauchyKernel(scale=1.0)])
def test_superop_smear_exact_vs_quadrature(sf2, rng, make_kernel):
    f = make_kernel()
    A, B = ginibre(2, rng), ginibre(2, rng)
    K = SuperOperator.sandwich(A, B) + left_mult(B)
    exact = superop_smear(sf2, K, f)
    quad = superop_smear_quadrature(sf2, K, f)
    assert (exact - quad).norm() < 1e-8


def test_superop_smear_matches_matrix_smear_for_multipliers(sf3, rng):
    # smearing a left multiplier is the left multiplier of the smeared
    # symbol only when the symbol is shifted consistently; for sandwiches
    # with j-symbols the frequencies cancel.  The clean matrix-level
    # anchor: K = L(A) smeared equals int f(t) L(sigma_t(A)) dt, L(A): X -> A X.
    f = F0Kernel()
    A = ginibre(3, rng)
    lhs = superop_smear(sf3, left_mult(A), f)
    rhs = left_mult(smear(sf3, A, f))
    assert (lhs - rhs).norm() < 1e-12


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(-5, 5, allow_nan=False),
    t=st.floats(-5, 5, allow_nan=False),
)
def test_flow_group_law_property(s, t):
    sf = build_standard_form(np.diag([0.6, 0.3, 0.1]))
    rng = np.random.default_rng(99)
    A = ginibre(3, rng)
    lhs = sigma(sf, sigma(sf, A, s), t)
    np.testing.assert_allclose(lhs, sigma(sf, A, s + t), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(kappa=st.floats(-40, 40, allow_nan=False))
def test_f0_transform_symmetry_and_bounds(kappa):
    f = F0Kernel()
    v = f.hat(kappa)
    assert 0 < v <= 0.5
    assert f.hat(-kappa) == pytest.approx(v, rel=1e-12)
