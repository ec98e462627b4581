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
shifted couplings times the phases e^{i t kappa}.  Both expand the
weighted integral of d* d with one helper, :func:`_gram_quadratic`,
which reads every term off one Hermitian Gram sum of x's orbits in
O(n^4), forming no n^2 x n^2 derivation, and both end with one
back-transform to the working basis.  They differ in how they integrate
over t, and at which indices they read the transform of f.

``exact_spectral``
    Uses the covariance d(t) = U_t d(0) U_t* of the derivations under
    the flow: the double-index entries of the base quadratic
    G0 = d1(0)* d1(0) + d2(0)* d2(0), the helper's sum with no weight,
    pick up the closed-form transform of f at H's frequency differences,
    indices (j, k), (p, q).  Exact up to rounding; scales to the full
    supported dimension range.

``quadrature``
    Integrates the Gram sum itself over the panel rule: its entry
    conj(a_pj) a_qk picks up sum f(t) w e^{i t (kappa_qk - kappa_pj)},
    which is ``hat_quadrature`` on the frequency grid, read at the Gram
    sum's indices (p, j), (q, k), before the sum's transposes into H.
    That transform is the panel quadrature of f with its analytic tail,
    and it refuses a rule that halving the panels moves.  Serves as the
    oracle route for cross-checking the spectral engine; it costs one
    transform per distinct |nu| of the n^4 grid, on two panel rules.

:func:`crosscheck_engines` returns the worst relative gap in spectral
norm over a scenario's couplings, with one quadrature table for all of
them; the caller's bar decides whether the two agree.  It compares the
two transforms and the indices at which each engine reads its own, not
the shared expansion, which the tests check against dense x and x*
derivations and against literal per-node orbits.
:func:`verify_boundary_shift` likewise tabulates its two transforms once
for all the couplings.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAdmissible
from .kernels import BoundaryCombination, F0Kernel
from .linalg import (
    check_square,
    dagger,
    ginibre,
    hermitian_from_ginibre,
    hs_inner,
    hs_norm,
    psd_from_ginibre,
)
from .standard_form import SuperOperator, jordan_decompose

ENGINE_EXACT = "exact_spectral"
ENGINE_QUADRATURE = "quadrature"
ENGINES = (ENGINE_EXACT, ENGINE_QUADRATURE)

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

    ``check_kernel=False`` skips the admissibility gate: for deliberately
    signed weights used as negative controls, and for a weight its caller
    has certified already (the scenario runner certifies each kernel once,
    when it parses the scenario).
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


def _gram_quadratic(sf, x, weight=None):
    """int f(t) d(t)* d(t) dt over x and x*, in eigenbasis coordinates, from f's transform.

    The orbits of x are A = a o e^{i t kappa}, a = sigma_{-i/4}(x), and
    B = A o E, E = e^{-kappa/2}; x*'s are B* and A*, as
    sigma_z(y)* = sigma_{conj z}(y*).  With S(a, b): X -> a X b, each
    d* d is L(A* A) + R(B B*) - S(A*, B) - S(A, B*), all read off the Gram
    sum S[p, j, q, k] = int f(t) conj(A_pj) A_qk dt = conj(a_pj) a_qk W,
    W the transform of f at kappa_qk - kappa_pj.  ``weight`` is that
    transform on ``sf.superop_frequencies``, read here at the Gram sum's
    indices (p, j), (q, k) (f is even, so the sign of the grid does not
    matter); None means W = 1, the one node t = 0, which gives G0.  The L
    and R terms of x and x* are those of the Hermitian sum A* A + B B*,
    with A* A = S[p, j, p, k] and B B* = E_jp E_kp conj(S[j, p, k, p])
    summed over p, and the sandwich terms are G = S o F,
    F[p, j, q, k] = E_pj + E_qk.  Entry (j, k), (p, q) of H takes
    -G[p, j, q, k], from S(A*, B) + S(B*, A), and -G[k, q, j, p], from
    S(B, A*) + S(A, B*).
    """
    n = sf.dim
    a = (sf.to_eigenbasis(x) * np.exp(sf.kappa / 4.0)).reshape(-1)
    S = np.multiply.outer(a.conj(), a)
    if weight is not None:
        S *= weight
    S = S.reshape(n, n, n, n)
    E = np.exp(-sf.kappa / 2.0)
    both = np.einsum("pjpk->jk", S) + np.einsum("jp,kp,jpkp->jk", E, E, S).conj()
    S *= E[:, :, None, None] + E
    H = S.transpose(1, 3, 0, 2) + S.transpose(2, 0, 3, 1)
    np.negative(H, out=H)
    np.einsum("jkpk->jpk", H)[...] += both[:, :, None]  # L(both)
    np.einsum("jkjq->jkq", H)[...] += both.T  # R(both)
    return SuperOperator(H.reshape(n * n, n * n), n)


def coupling_quadratic(sf, x):
    """Base quadratic G0 = d1(0)* d1(0) + d2(0)* d2(0) of the coupling pair.

    d(0) = L(sigma_{-i/4}(y)) - R(sigma_{i/4}(y)) for y in {x, x*}, in eigenbasis coordinates.
    """
    return sf.superop_from_eigenbasis(_gram_quadratic(sf, x))


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
    if spec.engine == ENGINE_EXACT:
        G0 = _gram_quadratic(sf, x)
        G0.mat *= spec.kernel.hat(sf.superop_frequencies)
        return sf.superop_from_eigenbasis(G0)
    weight = spec.kernel.hat_quadrature(sf.superop_frequencies)
    return sf.superop_from_eigenbasis(_gram_quadratic(sf, x, weight))


def crosscheck_engines(sf, parts, xs, kernel):
    """Worst relative spectral-norm gap of the exact builds ``parts`` of ``xs`` to quadrature builds.

    ``parts`` were built from the same kernel, so the quadrature builds do
    not certify it again, and they share one ``hat_quadrature`` table.  A
    large gap means one of the two independent assembly routes is wrong.
    """
    weight = kernel.hat_quadrature(sf.superop_frequencies)
    return max(
        (He - sf.superop_from_eigenbasis(_gram_quadratic(sf, x, weight))).norm()
        / max(He.norm(), 1e-300)
        for He, x in zip(parts, xs)
    )


def verify_boundary_shift(sf, xs, f):
    """Worst residual over the couplings ``xs`` of the contour-shift identity for a weight f.

    The flow average of the coupling sandwich x ( . ) x* + x* ( . ) x
    dressed by the T map must equal the direct flow average against the
    boundary weight w(t) = f(t+i/4) + f(t-i/4).  In eigenbasis
    coordinates both are multipliers of the sandwich on the frequency
    grid: the left side by the T factors e^{nu/4} + e^{-nu/4} times the
    closed-form transform of f, which is ``w.hat``, the right side by
    the pointwise quadrature ``w.hat_quadrature``.  Both tables are
    formed once for all the couplings; the spectral norm is the same in
    either basis, so no sandwich is transformed back.
    """
    w = BoundaryCombination(f)
    lhs = w.hat(sf.superop_frequencies)
    gap = lhs - w.hat_quadrature(sf.superop_frequencies)
    worst = 0.0
    for x in xs:
        x = sf.to_eigenbasis(check_square(np.asarray(x, dtype=complex), sf.dim, "coupling"))
        k = SuperOperator.sandwich([x, dagger(x)], [dagger(x), x])
        worst = max(worst, SuperOperator(k.mat * gap, sf.dim).norm()
                    / max(SuperOperator(k.mat * lhs, sf.dim).norm(), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# Property report
# ---------------------------------------------------------------------------

#: E(xi_plus, xi_minus) above this counts as a Markovianity violation
NEGATIVITY_TOL = 1e-9

#: sampled (Hermitian, positive, Ginibre) triples per report
SAMPLES = 100


@dataclass(frozen=True)
class DirichletReport:
    """Measured invariants of one Dirichlet operator.

    ``negativity_violations`` counts sampled Hermitian vectors whose
    orthogonal positive parts gave Re E(xi_plus, xi_minus) above
    ``NEGATIVITY_TOL`` (the form-level Markovianity criterion demands
    <= 0 up to noise).  ``cone_form_residual`` is the largest
    |E(xi, xi0)| over sampled positive vectors, ``conj_form_residual`` the
    largest gap in E(J xi, J xi) = conj(E(xi, xi)) over general samples.
    ``psd_min_eig`` is lambda_min((R + R^T)/2) - d from H's real form
    (R, d), by Weyl's inequality a lower bound on the lowest eigenvalue of
    (H + H*)/2.
    """

    h_xi0_residual: float
    j_real_residual: float
    conj_form_residual: float
    selfadjoint_defect: float
    psd_min_eig: float
    negativity_violations: int
    cone_form_residual: float


def verify_dirichlet(sf, H, seed):
    """Measure the defining properties of a built Dirichlet operator H.

    ``SAMPLES`` (Hermitian xi, positive p, Ginibre g) triples come from
    one (SAMPLES, 3) Ginibre block of the seeded stream, the same numbers
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
    G = ginibre(n, rng, (SAMPLES, 3))
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
        cone_form_residual=float(np.abs(hs_inner(psd, h_xi0)).max(initial=0.0)),
    )
