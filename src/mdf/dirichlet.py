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
    Builds the flow orbit A = sigma_{t-i/4}(x) of x literally at every
    node of a fixed panel rule and accumulates f(t) d(t)* d(t), adding G0
    times the weight's analytic tail beyond the truncation radius.  The
    flow at node t is rho^{it} ( . ) rho^{-it}, entry (j, k) times
    u_j conj(u_k) with u = e^{i t log p}, a phase that factors by panel,
    t = mid + offset.  The other orbit is B = sigma_{t+i/4}(x) = A o E
    entrywise, E = e^{-kappa/2}, and those of x* are the adjoints,
    sigma_z(y)* = sigma_{conj z}(y*).  d(t)* d(t) is expanded into the
    sandwich sum of ``exact_spectral``, whose raw sums are all read off
    one Hermitian Gram sum S = sum w conj(vec A) vec(A)^T: the nodes go
    in cache-sized blocks, one (n^2 x m)(m x n^2) product each, added up
    in groups so that the result does not drift with the block size.
    K + K* and the tail are formed once per build, so the m nodes cost
    O(m n^4) and no n^2 x n^2 derivation is formed.  Serves as the oracle
    route for cross-checking the spectral engine, which forms x*'s
    couplings itself, and is priced for small dims.

:func:`crosscheck_engines` returns the worst relative gap in spectral
norm over a scenario's couplings, with one tail transform for all of
them; the caller's bar decides whether the two agree.
:func:`verify_boundary_shift` likewise tabulates its two transforms once
for all the couplings.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAdmissible
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


def _flow_phase_blocks(sf, kernel):
    """The panel rule of ``kernel`` with the flow phases at its nodes, in blocks of nodes.

    Yields (fw, phase) per block of m nodes t: the weights f(t) w and the
    node-major (m, n, n) stack of phases e^{i t kappa_jk} = u_j conj(u_k),
    u = e^{i t log p}.  The phase factors by panel (t = mid + offset, see
    ``_PanelRule``), so the rule costs (P + J) n exponentials.  The two
    (m, n, n) stacks of a block hold half of ``_CHUNK_ENTRIES`` entries.
    """
    rule = _panel_rule(kernel.quadrature_radius(), PANEL_WIDTH, PANEL_NODES)
    fw = rule.w * kernel.eval(rule.t)
    n, J = sf.dim, rule.offset.size
    log_p = np.log(sf.eigenvalues)
    u_panel, u_offset = (np.exp(1j * np.multiply.outer(s, log_p)) for s in (rule.mid, rule.offset))
    by_offset = u_offset[:, :, None] * u_offset[:, None, :].conj()
    block = max(1, _CHUNK_ENTRIES // (4 * n * n))
    for lo in range(0, fw.size, block):
        hi, first = min(lo + block, fw.size), lo // J
        u = u_panel[first : -(-hi // J), None]
        phase = (u[..., :, None] * u[..., None, :].conj() * by_offset).reshape(-1, n, n)
        yield fw[lo:hi], phase[lo - first * J : hi - first * J]


class _GroupedSum:
    """Running sum of arrays, added up in groups of about sqrt(count) terms.

    Each addition to a running total rounds at the total's scale, so a
    plain running sum drifts with the number of terms; summing groups
    first and then the group sums keeps the sum of a rule nearly
    independent of the blocks it is cut into.
    """

    def __init__(self):
        self.count = self.in_group = 0
        self.group = self.sum = 0

    def add(self, term):
        self.group += term
        self.count += 1
        self.in_group += 1
        if self.in_group**2 >= self.count:
            self.sum += self.group
            self.group, self.in_group = 0, 0

    def total(self):
        self.sum += self.group
        self.group, self.in_group = 0, 0
        return self.sum


def _quadrature_quadratic(sf, x, kernel):
    """sum_t f(t) w d(t)* d(t) over the panel rule, in eigenbasis coordinates.

    The orbits of x are A = a o phase and B = A o E, E = e^{-kappa/2}; x*'s
    are B* and A*.  Every raw sum is read off one Hermitian Gram sum
    S[p, j, q, k] = sum w conj(A_pj) A_qk, one (n^2 x m)(m x n^2) product
    per block: sum w A* A is S[p, j, p, k] summed over p, sum w B B* is
    E_jp E_kp conj(S[j, p, k, p]) summed over p, and S o (1 (x) E) is the
    matrix of sum w S(A*, B), with S(a, b): X -> a X b; x*'s have their
    four indices reversed.  d* d = K + K* is formed once from
    K = L(sum w A* A / 2) + R(sum w B B* / 2) - sum w S(A*, B) over both.
    """
    n = sf.dim
    a = _shifted_couplings(sf, x)[0][0]
    gram = _GroupedSum()
    for fw, A in _flow_phase_blocks(sf, kernel):
        A *= a
        wAc = np.conjugate(A)
        wAc *= fw[:, None, None]
        gram.add(wAc.reshape(-1, n * n).T @ A.reshape(-1, n * n))
    S = gram.total().reshape(n, n, n, n)
    E = np.exp(-sf.kappa / 2.0)
    both = np.einsum("pjpk->jk", S) + np.einsum("jp,kp,jpkp->jk", E, E, S).conj()
    S *= E
    K = SuperOperator.sandwich([both / 2, np.eye(n)], [np.eye(n), both / 2])
    # S[p, j, q, k] is the (j, k), (p, q) entry of sum w S(A*, B), and S[k, q, j, p] is x*'s
    k = K.mat.reshape(n, n, n, n)
    k -= S.transpose(1, 3, 0, 2) + S.transpose(2, 0, 3, 1)
    H = S.reshape(n * n, n * n)  # K + K* goes to the spent buffer of S
    np.conjugate(K.mat.T, out=H)
    H += K.mat
    return SuperOperator(H, n)


def _tail_transform(sf, kernel):
    """The weight's analytic transform past the truncation radius on the frequency grid, or None.

    Past the radius the integrand is the exact flow orbit of the base
    quadratic G0, so the tail of the weighted quadratic is G0 times this
    entrywise; weights without one (fast-decaying, radius for ~1e-13
    mass) give None.
    """
    return kernel.tail_hat(sf.superop_frequencies, kernel.quadrature_radius())


def _quadrature_operator(sf, x, kernel, tail):
    """The quadrature build of x in eigenbasis coordinates, given its :func:`_tail_transform`."""
    H = _quadrature_quadratic(sf, x, kernel)
    if tail is not None:
        H.mat += _base_quadratic(sf, x).mat * tail
    return H


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
        G0 = _base_quadratic(sf, x)
        G0.mat *= spec.kernel.hat(sf.superop_frequencies)
        return sf.superop_from_eigenbasis(G0)
    tail = _tail_transform(sf, spec.kernel)
    return sf.superop_from_eigenbasis(_quadrature_operator(sf, x, spec.kernel, tail))


def crosscheck_engines(sf, parts, xs, kernel):
    """Worst relative spectral-norm gap of the exact builds ``parts`` of ``xs`` to quadrature builds.

    ``parts`` were built from the same kernel, so the quadrature builds do
    not certify it again, and they share one tail transform.  A large gap
    means one of the two independent assembly routes is wrong.
    """
    tail = _tail_transform(sf, kernel)
    return max(
        (He - sf.superop_from_eigenbasis(_quadrature_operator(sf, x, kernel, tail))).norm()
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
