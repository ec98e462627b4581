"""Dirichlet operators built from a coupling matrix and an admissible weight.

Given a coupling x and a weight function f, the energy form is

    E(eta, xi) = int f(t) [ <d1(t) eta, d1(t) xi> + <d2(t) eta, d2(t) xi> ] dt,

where d1(t) xi = sigma_{t-i/4}(x) xi - xi sigma_{t+i/4}(x) and d2(t) is
the same derivation for the adjoint coupling.  The associated positive
operator H (E(eta, xi) = <eta, H xi>) annihilates xi0, commutes with the
modular conjugation, and generates a Markovian semigroup on the positive
cone whenever f passes the admissibility checks.

Two independent engines build H.  Both work in rho-eigenbasis
coordinates, where the derivation of y in {x, x*} at time t is
L(A) - R(B) with A = sigma_{t-i/4}(y), B = sigma_{t+i/4}(y) the quarter-
shifted couplings times the phases e^{i t kappa}, and both end with one
back-transform to the working basis.

``exact_spectral``
    Uses the covariance d(t) = U_t d(0) U_t* of the derivations under
    the flow: the double-index entries of the base quadratic
    G0 = d1(0)* d1(0) + d2(0)* d2(0) pick up the closed-form transform
    of f at the frequency differences.  G0 itself is a sandwich sum,
    L(a* a) + R(b b*) - S(a*, b) - S(a, b*) per derivation L(a) - R(b),
    built in O(n^4).  Exact up to rounding; scales to the full supported
    dimension range.

``quadrature``
    Builds the flow orbits of the coupling literally at every node of a
    fixed panel rule and accumulates f(t) d(t)* d(t), adding G0 times
    the weight's analytic tail beyond the truncation radius.  d(t)* d(t)
    is expanded into the same sandwich sum, one per chunk of nodes, so
    the m nodes cost O(m n^4) and no n^2 x n^2 derivation is formed.
    Serves as the oracle route for cross-checking the spectral engine
    and is priced for small dims.

The two must agree to ``ENGINE_AGREEMENT_RTOL`` in relative spectral
norm; :func:`crosscheck_engines` raises ``EngineDisagreement`` otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EngineDisagreement, NotAdmissible
from .kernels import (
    _CHUNK_ENTRIES,
    PANEL_NODES,
    PANEL_WIDTH,
    BoundaryCombination,
    F0Kernel,
    _panel_rule,
)
from .linalg import (
    check_square,
    dagger,
    ginibre,
    hermitian_from_ginibre,
    hs_inner,
    hs_norm,
    psd_from_ginibre,
)
from .modular import T_MAP, superop_modular_map, superop_smear, superop_smear_quadrature
from .standard_form import SuperOperator, jordan_decompose

ENGINE_EXACT = "exact_spectral"
ENGINE_QUADRATURE = "quadrature"
ENGINES = (ENGINE_EXACT, ENGINE_QUADRATURE)

#: engines past this relative gap are treated as a build failure
ENGINE_AGREEMENT_RTOL = 1e-6

def ensure_admissible(f):
    """Return the admissibility certificate of f or raise.

    Raises
    ------
    NotAdmissible
        Naming each of positivity, boundary combination, or strip decay that fails.
    """
    cert = f.certificate()
    if not cert.granted:
        failed = ", ".join(cert.failures)
        raise NotAdmissible(f"weight {f.name!r} is not admissible: {failed} failed")
    return cert


@dataclass(frozen=True, eq=False)
class DirichletSpec:
    """Inputs of one Dirichlet-operator build.

    ``check_kernel=False`` skips the admissibility gate; that is the
    switch for deliberately signed weights used as negative controls.
    A granted certificate includes strip decay; the quadrature engine
    still refuses a weight that no radius up to 1024 truncates (see
    :meth:`KernelFunction.quadrature_radius`).
    """

    x: np.ndarray
    kernel: "F0Kernel" = None
    engine: str = ENGINE_EXACT
    check_kernel: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "x", check_square(np.asarray(self.x, dtype=complex), what="coupling")
        )
        if self.kernel is None:
            object.__setattr__(self, "kernel", F0Kernel())
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.check_kernel:
            ensure_admissible(self.kernel)


def _resolve_spec(spec, kernel, engine, check_kernel):
    if isinstance(spec, DirichletSpec):
        return spec
    return DirichletSpec(x=spec, kernel=kernel, engine=engine, check_kernel=check_kernel)


def _derivation_quadratic(w, A, B):
    """sum_m w_m d_m* d_m over the derivations d_m = L(A_m) - R(B_m) of stacks (m, n, n).

    With S(a, b): X -> a X b, d* d = L(A* A) + R(B B*) - S(A*, B) - S(A, B*)
    = K + K* for K = L(A* A / 2) + R(B B* / 2) - S(A*, B).  The sums of
    A* A and B B* are n x n and the sandwich sum over the m nodes is one
    :meth:`SuperOperator.sandwich`, O(m n^4); no n^2 x n^2 derivation is formed.
    """
    wAc = w[:, None, None] * A.conj()
    left = np.tensordot(wAc, A, axes=([0, 1], [0, 1]))
    right = np.tensordot(w[:, None, None] * B, B.conj(), axes=([0, 2], [0, 2]))
    eye = np.eye(A.shape[-1])
    K = SuperOperator.sandwich([left / 2, eye], [eye, right / 2])
    K = K - SuperOperator.sandwich(wAc.swapaxes(1, 2), B)
    return K + K.adjoint()


def _shifted_couplings(sf, x):
    """sigma_{-i/4}(y) and sigma_{i/4}(y) for y in {x, x*}: two (2, n, n) eigenbasis stacks.

    The flow at z multiplies eigenbasis entry (j, k) by e^{i z kappa_jk}.
    """
    ys = sf.to_eigenbasis(np.stack([x, dagger(x)]))
    quarter = np.exp(sf.kappa / 4.0)
    return ys * quarter, ys / quarter


def _base_quadratic(sf, x):
    """G0 of :func:`coupling_quadratic` in rho-eigenbasis coordinates."""
    return _derivation_quadratic(np.ones(2), *_shifted_couplings(sf, x))


def coupling_quadratic(sf, x):
    """Base quadratic G0 = d1(0)* d1(0) + d2(0)* d2(0) of the coupling pair.

    d(0) = L(sigma_{-i/4}(y)) - R(sigma_{i/4}(y)) for y in {x, x*}, in eigenbasis coordinates.
    """
    return sf.superop_from_eigenbasis(_base_quadratic(sf, x))


def split_self_adjoint(x):
    """Self-adjoint pair (x1, x2) with x = (x1 - i x2)/sqrt(2).

    The normalization makes the coupling quadratics match:
    G0(x) = (G0(x1) + G0(x2)) / 2, so the Dirichlet operator of x is the
    mean of the two self-adjoint ones.
    """
    x = np.asarray(x, dtype=complex)
    x1 = (x + dagger(x)) / np.sqrt(2.0)
    x2 = 1j * (x - dagger(x)) / np.sqrt(2.0)
    return x1, x2


def _orbit_chunks(sf, x, kernel):
    """The panel rule of ``kernel`` over the literal flow orbits, in node chunks.

    Yields (fw, A, B) for y = x and y = x* over each chunk of nodes t:
    the weights f(t) w, and A = sigma_{t-i/4}(y), B = sigma_{t+i/4}(y)
    as (m, n, n) stacks in rho-eigenbasis coordinates, the shifted
    couplings times the phases e^{i t kappa_jk}.  A chunk is sized so
    that eight (m, n, n) stacks hold ``_CHUNK_ENTRIES`` entries in all.
    """
    ts, ws = _panel_rule(kernel.quadrature_radius(), PANEL_WIDTH, PANEL_NODES)
    fw = ws * kernel.eval(ts)
    shifted = list(zip(*_shifted_couplings(sf, x)))
    chunk = max(1, _CHUNK_ENTRIES // (8 * sf.dim**2))
    for lo in range(0, ts.size, chunk):
        phases = np.exp(1j * np.multiply.outer(ts[lo : lo + chunk], sf.kappa))
        for a, b in shifted:
            yield fw[lo : lo + chunk], phases * a, phases * b


def _structured_tail(sf, G0, kernel):
    """Tail of the weighted quadratic beyond the truncation radius, in eigenbasis coordinates.

    Past the radius the integrand is the exact flow orbit of the base
    quadratic G0, so the tail is G0 times the analytic tail transform;
    weights without one (fast-decaying, radius for ~1e-13 mass) get zero.
    """
    tail = kernel.tail_hat(sf.superop_frequencies, kernel.quadrature_radius())
    return G0 * 0.0 if tail is None else SuperOperator(G0.mat * tail, sf.dim)


def dirichlet_operator(sf, spec, kernel=None, engine=ENGINE_EXACT, check_kernel=True):
    """Dirichlet operator of a coupling for a weight kernel.

    ``spec`` may be a :class:`DirichletSpec` or a bare coupling matrix
    (then the remaining keywords fill in the rest).  No symmetrization
    is applied to the result: self-adjointness is a property to be
    observed (and is, for admissible weights), not enforced.  Either
    engine builds H in eigenbasis coordinates and transforms it back once.

    Raises
    ------
    NotAdmissible
        If the weight fails its certificate and the check is on.
    """
    spec = _resolve_spec(spec, kernel, engine, check_kernel)
    x = check_square(spec.x, sf.dim, "coupling")
    G0 = _base_quadratic(sf, x)
    if spec.engine == ENGINE_EXACT:
        G0.mat *= spec.kernel.hat(sf.superop_frequencies)
        return sf.superop_from_eigenbasis(G0)
    K = _structured_tail(sf, G0, spec.kernel)
    for chunk in _orbit_chunks(sf, x, spec.kernel):
        K.mat += _derivation_quadratic(*chunk).mat
    return sf.superop_from_eigenbasis(K)


def form_eval(sf, spec, eta, xi, kernel=None, engine=ENGINE_EXACT, check_kernel=True):
    """Energy form E(eta, xi), conjugate-linear in eta.

    The exact engine evaluates <eta, H xi> through the assembled
    operator; the quadrature engine accumulates the two derivation
    inner products f(t) <d(t) eta, d(t) xi> node by node at the matrix
    level (never forming H), plus the structured tail.
    """
    spec = _resolve_spec(spec, kernel, engine, check_kernel)
    eta = check_square(eta, sf.dim, "vector")
    xi = check_square(xi, sf.dim, "vector")
    if spec.engine == ENGINE_EXACT:
        H = dirichlet_operator(sf, spec)
        return complex(hs_inner(eta, H.apply(xi)))
    x = check_square(spec.x, sf.dim, "coupling")
    # the orbits and the tail are in eigenbasis coordinates, and the form is unitarily invariant
    eta_eig, xi_eig = sf.to_eigenbasis(eta), sf.to_eigenbasis(xi)
    total = 0j
    for fw, A, B in _orbit_chunks(sf, x, spec.kernel):
        d_eta = A @ eta_eig - eta_eig @ B
        d_xi = A @ xi_eig - xi_eig @ B
        total += np.einsum("k,kij,kij->", fw, d_eta.conj(), d_xi)
    tail = _structured_tail(sf, _base_quadratic(sf, x), spec.kernel)
    return complex(total + hs_inner(eta_eig, tail.apply(xi_eig)))


def crosscheck_engines(sf, He, x, kernel=None, rtol=ENGINE_AGREEMENT_RTOL, check_kernel=True):
    """Relative spectral-norm gap between the exact build ``He`` of x and a quadrature build.

    Raises
    ------
    EngineDisagreement
        If the gap exceeds ``rtol`` — the signal that one of the two
        independent assembly routes is wrong.
    """
    Hq = dirichlet_operator(sf, x, kernel, ENGINE_QUADRATURE, check_kernel)
    rel = (He - Hq).norm() / max(He.norm(), 1e-300)
    if rel > rtol:
        raise EngineDisagreement(
            f"exact and quadrature engines differ by {rel:.3e} relative, "
            f"above the {rtol:g} agreement bar"
        )
    return rel


def verify_boundary_shift(sf, x, f):
    """Residual of the contour-shift identity for a finite-boundary weight.

    The flow average of the coupling sandwich x ( . ) x* + x* ( . ) x
    dressed by the T map must equal the direct flow average against the
    boundary weight f(t+i/4) + f(t-i/4).  The left side uses closed-form
    transforms, the right side pointwise quadrature of the boundary
    weight, so the identity is exercised end to end.
    """
    x = check_square(np.asarray(x, dtype=complex), sf.dim, "coupling")
    K0 = SuperOperator.sandwich([x, dagger(x)], [dagger(x), x])
    lhs = superop_modular_map(sf, superop_smear(sf, K0, f), T_MAP)
    rhs = superop_smear_quadrature(sf, K0, BoundaryCombination(f))
    return (lhs - rhs).norm() / max(lhs.norm(), 1e-300)


# ---------------------------------------------------------------------------
# Property report
# ---------------------------------------------------------------------------

#: E(xi_plus, xi_minus) above this counts as a Markovianity violation
NEGATIVITY_TOL = 1e-9


@dataclass(frozen=True)
class DirichletReport:
    """Measured invariants of one Dirichlet operator.

    ``negativity_violations`` counts sampled Hermitian vectors whose
    orthogonal positive parts gave Re E(xi_plus, xi_minus) above
    ``NEGATIVITY_TOL`` (the form-level Markovianity criterion demands
    <= 0 up to noise); ``jordan_negativity_max`` records the worst
    value.  ``cone_form_residual`` is the largest |E(xi, xi0)| over
    sampled positive vectors, ``conj_form_residual`` the largest gap in
    E(J xi, J xi) = conj(E(xi, xi)) over general samples.  ``psd_min_eig``
    is lambda_min((R + R^T)/2) - d from H's real form (R, d), by Weyl's
    inequality a lower bound on the lowest eigenvalue of (H + H*)/2.
    """

    h_xi0_residual: float
    j_real_residual: float
    conj_form_residual: float
    selfadjoint_defect: float
    psd_min_eig: float
    negativity_violations: int
    jordan_negativity_max: float
    cone_form_residual: float
    samples: int


def verify_dirichlet(sf, H, samples=100, seed=0):
    """Measure the defining properties of a built Dirichlet operator H.

    ``samples`` (Hermitian xi, positive p, Ginibre g) triples come from
    one (samples, 3) Ginibre block of the seeded stream, the same numbers
    as drawing them triple by triple, and are evaluated as stacks: one
    batched Jordan split of the xi, and H applied to each stack in one
    product.  Per sample it measures <xi_+, H xi_->
    (at most ``NEGATIVITY_TOL``), |<p, H xi0>| and |E(Jg) - conj E(g)|;
    H xi0 is formed once.
    """
    n = sf.dim
    rng = np.random.default_rng(seed)
    h_xi0 = H.apply(sf.xi0)
    R, d = H.real_form()
    psd_min_eig = float(np.linalg.eigvalsh((R + R.T) / 2.0)[0]) - d
    G = ginibre(n, rng, (samples, 3))
    xi, psd, g = hermitian_from_ginibre(G[:, 0]), psd_from_ginibre(G[:, 1]), G[:, 2]
    plus, minus = jordan_decompose(sf, xi)
    neg = np.real(hs_inner(plus, H.apply(minus)))
    e_g = hs_inner(g, H.apply(g))
    e_jg = hs_inner(dagger(g), H.apply(dagger(g)))
    return DirichletReport(
        h_xi0_residual=hs_norm(h_xi0),
        j_real_residual=H.j_real_defect(),
        conj_form_residual=float(np.abs(e_jg - np.conj(e_g)).max(initial=0.0)),
        selfadjoint_defect=H.selfadjoint_defect(),
        psd_min_eig=psd_min_eig,
        negativity_violations=int(np.count_nonzero(neg > NEGATIVITY_TOL)),
        jordan_negativity_max=float(neg.max(initial=-np.inf)),
        cone_form_residual=float(np.abs(hs_inner(psd, h_xi0)).max(initial=0.0)),
        samples=samples,
    )
