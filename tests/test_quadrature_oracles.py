"""The t-quadrature oracles against their literal per-node forms.

The quadrature engine of :func:`dirichlet_operator` reads d(t)* d(t)
off one Gram sum of x's orbits, each entry weighted by ``hat_quadrature``
at its frequency, instead of forming d(t) at every node, and
``hat_quadrature`` integrates each distinct |kappa| once, on the
positive half of its rule.  The references below are the literal
routes: the dense n^2 x n^2 derivation D(t) = L(A) - R(B) at every
node, the transform on the whole rule over [-T, T] for every grid
entry, and one transform call per grid entry.  ``smear_quadrature`` and
``superop_smear_quadrature`` are multipliers by ``hat_quadrature``, so
they share its refinement check and its memory bound; the analytic tail
past the truncation radius is the one pole formula, checked against the
partial fractions it reads, against the arctan tail masses at kappa = 0,
and, where k |b| passes 700 and it switches to the scaled e^w E1(w),
against the closed-form transforms.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mdf import (
    BoundaryCombination,
    CauchyKernel,
    CosineModulatedF0,
    F0Kernel,
    QuadratureNotConverged,
    SuperOperator,
    TabulatedKernel,
    build_standard_form,
    dirichlet_operator,
    smear_quadrature,
    tracial_state,
)
from mdf import kernels
from mdf.cli import corpus_paths, generate_scenario, parse_scenario
from mdf.dirichlet import ENGINE_QUADRATURE, coupling_quadratic
from mdf.kernels import PANEL_NODES, PANEL_WIDTH, QUAD_REL_TARGET, _panel_rule
from mdf.linalg import dagger, ginibre, hs_inner, hs_norm
from reference import cosine_hat_reference, form_eval


def _dense_orbit(sf, y, ts, shift):
    """sigma_{t + i*shift}(y) at each time, one n x n matrix product pair per node."""
    y_eig = sf.to_eigenbasis(y) * np.exp(-float(shift) * sf.kappa)
    phases = np.exp(1j * np.multiply.outer(ts, sf.kappa))
    U = sf.eigenvectors
    return U @ (phases * y_eig[None, :, :]) @ dagger(U)


def dense_quadrature_reference(sf, x, kernel):
    """The quadrature engine with the dense derivation D(t) formed at every node."""
    n = sf.dim
    N = n * n
    radius = kernel.quadrature_radius()
    ts, ws = _panel_rule(radius, PANEL_WIDTH, PANEL_NODES)[:2]
    fw = ws * kernel.eval(ts)
    eye = np.eye(n)
    H = np.zeros((N, N), dtype=complex)
    chunk = max(1, (1 << 22) // (N * N))
    for lo in range(0, ts.size, chunk):
        tc, wc = ts[lo : lo + chunk], fw[lo : lo + chunk]
        m = tc.size
        for y in (x, dagger(x)):
            A = _dense_orbit(sf, y, tc, -0.25)
            B = _dense_orbit(sf, y, tc, +0.25)
            D = np.einsum("kip,jq->kijpq", A, eye).reshape(m, N, N)
            D -= np.einsum("ip,kqj->kijpq", eye, B).reshape(m, N, N)
            H += np.einsum("k,kab,kac->bc", wc, D.conj(), D, optimize=True)
    # the tail in the working basis, not the engine's eigenbasis tail
    tail = kernel.tail_hat(sf.superop_frequencies, radius)
    if tail is not None:
        H += sf.superop_multiplier(coupling_quadratic(sf, x), tail).mat
    return SuperOperator(H, n)


def _state(n, seed):
    if n == 1:
        return tracial_state(1)
    rng = np.random.default_rng(seed)
    g = ginibre(n, rng)
    rho = g @ dagger(g) + 0.2 * np.eye(n)
    return build_standard_form(rho / np.trace(rho).real)


_f0 = F0Kernel()
KERNELS = {
    "f0": _f0,
    "cauchy_1": CauchyKernel(scale=1.0),
    "cauchy_0.3": CauchyKernel(scale=0.3),
    "signed": CosineModulatedF0(alpha=6.0),
    "tabulated": TabulatedKernel(_f0.eval, _f0.strip_eval, name="tab_f0", truncation_radius=5.0),
}


def _rel_gap(H, ref, x):
    # at n = 1 the operator vanishes, so the scale falls back to |x|^2
    return (H - ref).hs_norm() / max(ref.hs_norm(), hs_norm(x) ** 2)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadrature_engine_matches_the_dense_reference(n, name):
    sf = _state(n, seed=10 + n)
    x = ginibre(n, np.random.default_rng(20 + n))
    kernel = KERNELS[name]
    H = dirichlet_operator(sf, x, kernel, ENGINE_QUADRATURE, check_kernel=False)
    assert _rel_gap(H, dense_quadrature_reference(sf, x, kernel), x) <= 1e-13


def test_flow_phases_are_the_modular_exponents_far_out():
    # p_min = 1.2e-8 (the faithfulness floor is 1e-8): |nu| reaches 2 log(p_max / p_min), near
    # 36.5, so at |t| = 64 t nu is near 2300 rad.  The table the engine reads, its phases
    # factored by panel, matches one cosine per node entrywise, and the build matches the
    # literal per-node orbits of the dense reference
    U = _state(3, seed=3).eigenvectors
    sf = build_standard_form(U @ np.diag([1.0 - 1e-3 - 1.2e-8, 1e-3, 1.2e-8]) @ dagger(U))
    assert sf.eigenvalues.min() == pytest.approx(1.2e-8, rel=1e-6)
    kernel = CauchyKernel(scale=1.0)
    rule = _panel_rule(kernel.quadrature_radius(), PANEL_WIDTH, PANEL_NODES)
    assert np.abs(rule.t).max() > 63.99
    grid = sf.superop_frequencies
    assert np.abs(grid).max() > 36.4
    ref = cosine_hat_reference(kernel, grid)
    np.testing.assert_allclose(kernel.hat_quadrature(grid), ref, rtol=0,
                               atol=1e-14 * np.abs(ref).max())
    x = ginibre(3, np.random.default_rng(23))
    H = dirichlet_operator(sf, x, kernel, ENGINE_QUADRATURE)
    assert _rel_gap(H, dense_quadrature_reference(sf, x, kernel), x) <= 1e-13


def test_quadrature_engine_memory_stays_bounded():
    # 16,384 Cauchy nodes at n = 8: the transform table, integrated in column chunks,
    # keeps the peak near 6 MiB (the dense route peaked at 259 MiB)
    sf = _state(8, seed=18)
    x = ginibre(8, np.random.default_rng(28))
    tracemalloc.start()
    try:
        dirichlet_operator(sf, x, CauchyKernel(scale=1.0), ENGINE_QUADRATURE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_quadrature_engine_forms_its_superoperator_once():
    # n = 16 Cauchy: one Gram sum weighted by the transform table, H written from it
    # directly (a superoperator per block of nodes peaked at 66 MiB)
    sf = _state(16, seed=16)
    x = ginibre(16, np.random.default_rng(26))
    tracemalloc.start()
    try:
        dirichlet_operator(sf, x, CauchyKernel(scale=1.0), ENGINE_QUADRATURE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_quadrature_form_value_memory_stays_bounded():
    # one Cauchy form value at n = 8 shares the engine's node chunks (unchunked: 112 MiB)
    sf = _state(8, seed=18)
    x, eta, xi = (ginibre(8, np.random.default_rng(s)) for s in (28, 38, 48))
    tracemalloc.start()
    try:
        form_eval(sf, x, eta, xi, CauchyKernel(scale=1.0), ENGINE_QUADRATURE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


@pytest.mark.parametrize("name", ["f0", "cauchy_1", "signed"])
def test_quadrature_form_value_matches_the_engine_in_any_chunks(monkeypatch, name):
    sf = _state(3, seed=13)
    x, eta, xi = (ginibre(3, np.random.default_rng(s)) for s in (23, 33, 43))
    kernel = KERNELS[name]
    value = form_eval(sf, x, eta, xi, kernel, ENGINE_QUADRATURE, check_kernel=False)
    H = dirichlet_operator(sf, x, kernel, ENGINE_QUADRATURE, check_kernel=False)
    assert value == pytest.approx(complex(hs_inner(eta, H.apply(xi))), rel=1e-13)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 8 * 9 * 1000)  # 1000 nodes per chunk
    chunked = form_eval(sf, x, eta, xi, kernel, ENGINE_QUADRATURE, check_kernel=False)
    assert chunked == pytest.approx(value, rel=1e-13)


_GRID = np.array([[0.0, 1.5, -1.5, 0.0], [2.25, -0.0, 1.5, -2.25], [7.0, -7.0, 0.4, 1.5]])


@pytest.mark.parametrize(
    "kernel",
    [F0Kernel(), CauchyKernel(scale=1.0), BoundaryCombination(CauchyKernel(scale=0.3)),
     KERNELS["tabulated"]],
    ids=["f0", "cauchy", "boundary", "tabulated"],
)
def test_hat_quadrature_matches_per_entry_calls(kernel):
    grid = kernel.hat_quadrature(_GRID)
    assert grid.shape == _GRID.shape
    single = np.array([kernel.hat_quadrature(np.array([k]))[0] for k in _GRID.reshape(-1)])
    np.testing.assert_allclose(grid.reshape(-1), single, rtol=0, atol=1e-14)
    assert kernel.hat_quadrature(1.5) == pytest.approx(grid[0, 1], abs=1e-14)


def full_line_hat_reference(kernel, kappa):
    """``hat_quadrature`` on the whole rule over [-T, T], integrated for every grid entry.

    Each node sum is numpy's pairwise sum along the contiguous axis, so its
    rounding stays near log2(nodes) ulps.
    """
    T = kernel.quadrature_radius()
    k = np.asarray(kappa, dtype=float).reshape(-1)

    def run(width):
        t, wt = _panel_rule(T, width, PANEL_NODES)[:2]
        wf = wt * kernel.eval(t)
        return np.concatenate([np.sum(wf * np.cos(np.outer(k[lo : lo + 16], t)), axis=1)
                               for lo in range(0, k.size, 16)])

    coarse, fine = run(PANEL_WIDTH), run(PANEL_WIDTH / 2)
    assert np.max(np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-30)) <= QUAD_REL_TARGET
    tail = kernel.tail_hat(k, T)
    return (fine if tail is None else fine + tail).reshape(np.shape(kappa))


_HALF_LINE_KERNELS = {**KERNELS, "boundary_cauchy_1": BoundaryCombination(CauchyKernel(1.0))}


@pytest.mark.parametrize("name", sorted(_HALF_LINE_KERNELS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_half_line_transform_matches_the_full_line(n, name):
    kernel = _HALF_LINE_KERNELS[name]
    grid = _state(n, seed=30 + n).superop_frequencies
    np.testing.assert_allclose(kernel.hat_quadrature(grid), full_line_hat_reference(kernel, grid),
                               rtol=0, atol=1e-14)


_FACTORED_KERNELS = {
    **{name: KERNELS[name] for name in ("f0", "cauchy_1", "cauchy_0.3", "signed")},
    "boundary_cauchy_1": BoundaryCombination(CauchyKernel(1.0)),
}


def _grids(source):
    """The flow grids the quadrature oracles meet: every corpus state's kappa and nu, or the
    superoperator grid nu of the generated balanced pair at n = 8 or 16."""
    if source == "corpus":
        grids = []
        for path in corpus_paths():
            with open(path, "r", encoding="utf-8") as fh:
                sf = parse_scenario(json.load(fh)).sf
            grids += [sf.kappa, sf.superop_frequencies]
        return grids
    n = int(source[1:])
    return [parse_scenario(generate_scenario(1, n, "balanced_pair")).sf.superop_frequencies]


@pytest.mark.parametrize("name", sorted(_FACTORED_KERNELS))
@pytest.mark.parametrize("source", ["corpus", "n8", "n16"])
def test_panel_factored_transform_matches_one_cosine_per_node(source, name):
    kernel = _FACTORED_KERNELS[name]
    for grid in _grids(source):
        values = kernel.hat_quadrature(grid).reshape(-1)
        # up to 2,048 distinct |kappa| across the grid's range (n = 16 has 8,421): the
        # reference spends 16,384 cosines on each under the Cauchy rules
        k, first = np.unique(np.abs(grid).reshape(-1), return_index=True)
        pick = first[np.unique(np.linspace(0, k.size - 1, 2048).round().astype(int))]
        ref = cosine_hat_reference(kernel, grid.reshape(-1)[pick])
        gap = np.abs(values[pick] - ref).max()
        assert gap <= 1e-14 * np.abs(ref).max(), gap


def test_hat_quadrature_does_not_depend_on_the_column_chunks(monkeypatch):
    kernel = CauchyKernel(scale=1.0)
    whole = kernel.hat_quadrature(_GRID)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1)  # one |kappa| per chunk
    np.testing.assert_allclose(kernel.hat_quadrature(_GRID), whole, rtol=0, atol=1e-14)


def test_failed_refinement_still_raises(sf3, rng):
    # boundary poles 1e-7 from the real axis: halving the panels moves the transform
    w = BoundaryCombination(CauchyKernel(scale=0.2500001))
    with pytest.raises(QuadratureNotConverged, match="panel refinement"):
        w.hat_quadrature(np.array([0.0, 1.0, -1.0]))
    with pytest.raises(QuadratureNotConverged, match="panel refinement"):
        smear_quadrature(sf3, ginibre(3, rng), w)
    with pytest.raises(QuadratureNotConverged, match="panel refinement"):
        dirichlet_operator(sf3, ginibre(3, rng), w, ENGINE_QUADRATURE, check_kernel=False)


def test_refinement_is_measured_against_the_returned_transform():
    # a |nu| of the generated n = 32 balanced pair (seed 1): the Cauchy(1) integral over
    # |t| <= 64 nearly cancels the tail past it, and halving the panels moves it by about
    # 7e-16, 2.8e-8 of the truncated part but 1.2e-10 of the returned e^{-|nu|}
    nu = 11.969433489496488
    kernel = CauchyKernel(scale=1.0)
    value = kernel.hat_quadrature(nu)
    truncated = value - kernel.tail_hat(np.array([nu]), kernel.quadrature_radius())[0]
    assert abs(truncated) < 1e-2 * value
    assert value == pytest.approx(np.exp(-nu), rel=1e-10)


def test_smear_quadrature_memory_stays_bounded():
    # 32,768 Cauchy nodes at n = 16: the transform of each distinct |kappa| in
    # column chunks, not the (nodes, n, n) complex orbit (128 MiB)
    sf = _state(16, seed=16)
    x = ginibre(16, np.random.default_rng(26))
    tracemalloc.start()
    try:
        smear_quadrature(sf, x, CauchyKernel(scale=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


_T = np.concatenate([-np.geomspace(1e-3, 1e4, 200)[::-1], [0.0], np.geomspace(1e-3, 1e4, 200)])


@pytest.mark.parametrize("kernel", [CauchyKernel(0.26), CauchyKernel(3.0),
                                    BoundaryCombination(CauchyKernel(0.26)),
                                    BoundaryCombination(CauchyKernel(3.0))],
                         ids=["cauchy_0.26", "cauchy_3", "boundary_0.26", "boundary_3"])
def test_declared_poles_reproduce_the_kernel(kernel):
    # f = (1/2 pi i) sum c / (t - i b), and sum c = 0 (the tail formula needs 1/t^2 decay)
    partial = sum(c / (_T - 1j * b) for b, c in kernel.poles) / (2j * np.pi)
    np.testing.assert_allclose(partial.real, kernel.eval(_T), rtol=1e-12, atol=0)
    np.testing.assert_allclose(partial.imag, 0.0, atol=1e-15)
    assert sum(c for _, c in kernel.poles) == 0


@pytest.mark.parametrize("scale", [0.2501, 0.26, 1.0, 20.0, 200.0])
@pytest.mark.parametrize("radius", [16.0, 64.0, 1024.0])
def test_pole_tail_at_kappa_zero_is_the_tail_mass(scale, radius):
    cauchy, boundary = CauchyKernel(scale), BoundaryCombination(CauchyKernel(scale))
    # int_{|t| > T} of s / (pi (s^2 + t^2)), and of its boundary weight via the antiderivative
    mass = (2.0 / np.pi) * np.arctan(scale / radius)
    boundary_mass = 4.0 * np.real(np.pi / 2 - np.arctan((radius + 0.25j) / scale)) / np.pi
    for kernel, expected, slope in ((cauchy, mass, -scale), (boundary, boundary_mass, -2 * scale)):
        at0, near0 = kernel.tail_hat(np.array([0.0, 1e-9]), radius)
        assert at0 == pytest.approx(expected, rel=1e-12, abs=0)
        # continuous at 0: the step is the kink of the transform, d hat / d|kappa| at 0+
        assert (near0 - at0) / 1e-9 == pytest.approx(slope, rel=1e-5)


@pytest.mark.parametrize("kernel", [CauchyKernel(1000.0), BoundaryCombination(CauchyKernel(1000.0))],
                         ids=["cauchy_1000", "boundary_1000"])
def test_hat_quadrature_is_finite_past_the_pole_exponent(kernel):
    # k s crosses 700 at kappa = 0.7; past it e^{-k b} alone over- or underflows
    kappa = np.concatenate([np.linspace(0.0, 3.0, 61), 0.7 * (1 + np.array([-1e-9, 1e-9]))])
    gap = kernel.hat_quadrature(kappa) - kernel.hat(kappa)
    np.testing.assert_allclose(gap, 0.0, atol=1e-15)


_PLAIN_GRID_SCALES = [0.26, 1.0, 1000.0]


def _plain_grid(scale):
    """Boundary-weight poles of a Cauchy scale and a kappa grid up to k |b| = 650."""
    poles = BoundaryCombination(CauchyKernel(scale)).poles
    return poles, np.geomspace(1e-6, 650.0 / (scale + 0.25), 50)


@pytest.mark.parametrize("scale", _PLAIN_GRID_SCALES)
def test_pole_tail_keeps_the_plain_formula_below_the_pole_exponent(scale):
    T = 64.0
    poles, k = _plain_grid(scale)
    one_sided = sum(c * np.exp(-k * b) * kernels._exp1(-1j * k * (T - 1j * b)) for b, c in poles)
    np.testing.assert_array_equal(
        kernels._pole_tail(k, T, poles), 2 * np.real(one_sided / (2j * np.pi))
    )


@pytest.mark.parametrize("scale", _PLAIN_GRID_SCALES)
def test_pole_tail_stays_near_the_scipy_route(scale):
    from scipy.special import exp1

    T = 64.0
    poles, k = _plain_grid(scale)
    one_sided = sum(c * np.exp(-k * b) * exp1(-1j * k * (T - 1j * b)) for b, c in poles)
    scipy_tail = 2 * np.real(one_sided / (2j * np.pi))
    gap = np.abs(kernels._pole_tail(k, T, poles) - scipy_tail) / np.maximum(1.0, np.abs(scipy_tail))
    # 6e-16 at scales 0.26 and 1; at scale 1000 scipy's exp1 alone is 1.2e-14 off the
    # 40-digit tail at k = 0.0048 (|w| = 4.77), where the numpy route is exact
    assert gap.max() < 2e-14


def test_pole_tail_does_not_depend_on_its_blocks(monkeypatch):
    poles, k = _plain_grid(1.0)
    k = np.concatenate([k, [0.0], 700.0 / 1.25 * (1 + np.array([-1e-9, 1e-9]))])
    whole = kernels._pole_tail(k, 64.0, poles)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1)  # one kappa, all poles, per block
    np.testing.assert_array_equal(kernels._pole_tail(k, 64.0, poles), whole)


@pytest.mark.parametrize("kernel", [CauchyKernel(1.0), BoundaryCombination(CauchyKernel(1.0))],
                         ids=["cauchy", "boundary"])
def test_tail_on_a_grid_is_the_pole_tail_of_every_entry(kernel):
    # n = 8: 4,096 grid entries, each distinct |nu| evaluated once
    nu = _state(8, seed=18).superop_frequencies
    assert np.unique(np.abs(nu)).size < nu.size / 2
    T = kernel.quadrature_radius()
    np.testing.assert_array_equal(
        kernel.tail_hat(nu, T), kernels._pole_tail(nu.reshape(-1), T, kernel.poles).reshape(nu.shape)
    )


#: (w, E1(w)) at 40 digits (mpmath 1.3.0, rounded to double)
_E1_PINS = [
    # the series / J-fraction boundary |w| + Re w = 4, and just outside it
    (2 - 0.001j, 0.048900459957343295 + 6.766761342346159e-05j),
    (2 - 0.1j, 0.04839434009516629 + 0.006738628409458138j),
    (1.875 - 1j, 0.010163038624846975 + 0.05269691143452464j),
    (1.5 - 2j, -0.06565944359519196 + 0.0277987336192808j),
    (0.875 - 3j, -0.06961782095673254 - 0.09284491883296586j),
    (-4j, 0.1409816978869304 - 0.18740681215415644j),
    (-2.5 - 6j, 0.08230750605843914 + 1.921319884563104j),
    (-6 - 8j, -32.58932052858529 - 27.19651514025024j),
    (-16 - 12j, -148544.69432930893 + 438287.88554345j),
    (-30 - 16j, 315513711137.183 - 68227092431.267456j),
    (2.01 - 0.1j, 0.047731060230680945 + 0.006638495787316625j),
    (0.1 - 4j, 0.12317161868031971 - 0.17163812465424025j),
    (-5.9 - 8j, -29.867097928649347 - 24.473375949917514j),
    # the negative wedge up to |w| = 40, the arc |w| = 40, and past it
    (-1 - 0.001j, -1.8951178163557103 + 3.138874372214381j),
    (-4 - 0.01j, -19.630362615421035 + 3.0050987003284244j),
    (-10 - 0.1j, -2482.3239846249176 - 216.8221650960112j),
    (-25 - 1j, -1726910809.2033262 - 2457164700.994146j),
    (-39.99 - 0.01j, -5980873803730418 - 58274431022226.44j),
    (-39.9 - 2j, 2018211731160294.2 - 5085972585030836j),
    (-39 - 8.8j, 1461641791754892 - 1672784574122200.8j),
    (-45 - 0.5j, -7.01386070846076e17 - 3.728724180663719e17j),
    (-100 - 1j, -1.4901535515855492e41 - 2.2700035911161174e41j),
    (-690 - 10j, 5.659126635175434e296 + 3.5535803727990784e296j),
    # the negative imaginary axis, where the scale-1 tails sit (b = +-1, T = 64)
    (-0.1j, 1.7278683866572966 + 1.4708518656866196j),
    (-1j, -0.33740392290096816 + 0.6247132564277136j),
    (-10j, 0.04545643300445537 - 0.08755126742397742j),
    (-64j, -0.014272879213325488 + 0.006344076582866087j),
    (-1000j, -0.0008263155110906822 + 0.000563204826125401j),
    (-0.05 - 3.2j, -0.05419621960959103 - 0.2965907817130057j),
    (0.05 - 3.2j, -0.05602914820868656 - 0.26538408514089307j),
    (-1 - 64j, -0.039067014187534055 + 0.016639061312995314j),
    (1 - 64j, -0.005211729413370166 + 0.0024146418527771544j),
    (-8 - 512j, -0.383550529067194 - 5.808968672266893j),
    # where scipy's exp1 runs its series out to |w| = 5 (off by 1.6e-12 and 8.2e-13 there)
    (4.824 - 1.314j, 3.556596437516612e-05 + 0.001373329917505914j),
    (4.793 - 0.255j, 0.0013976892925741332 + 0.00043377165719615064j),
    # |w| from 1e-12 to 1e4
    (1e-12 - 1e-12j, 26.707231860748042 + 0.7853981633964483j),
    (-1e-12j, 27.053805451027014 + 1.5707963267938967j),
    (1e-09 - 3e-10j, 20.10296132492435 + 0.2914567941778671j),
    (1e-06 - 1e-06j, 12.89172230278277 + 0.7853971633979483j),
    (-0.001 - 0.0001j, 6.324564201100121 + 3.0418239510820158j),
    (0.5 - 0.01j, 0.5595916754975188 + 0.012127985534434293j),
    (5 - 1j, 0.0004394498056755696 + 0.0010420331174454795j),
    (30 - 30j, 1.7316045841744061e-15 - 1.3065678019487308e-15j),
    (100 - 10000j, 1.101021308422596e-48 - 3.5532105904729727e-48j),
    (-600 - 8000j, -4.702917980148468e256 - 4.2530479207473117e254j),
]


def test_exp1_matches_40_digit_values():
    w, expected = (np.array(column) for column in zip(*_E1_PINS))
    one_call = kernels._exp1(w)
    rel = np.abs(one_call - expected) / np.abs(expected)
    assert rel.max() <= 1e-14, (w[np.argmax(rel)], rel.max())
    # each value depends on its own w alone
    np.testing.assert_array_equal([kernels._exp1(np.array([z]))[0] for z in w], one_call)
