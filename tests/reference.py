"""Independent routes the tests hold the package against.

Each one computes, by a different road, something the package computes:
the energy form node by node, on the literal orbits of x and of x*,
instead of through the assembled operator; a kernel transform with one
cosine per node and frequency instead of phases factored by panel; the
generator term by term instead of as a sandwich sum; and the checks of
the tracial state, where the flow is trivial and the decomposition
identities hold by pure algebra. It also holds the left multiplier
X -> A X, which the package only forms as a sandwich, the form probe
with every sample projected to full tolerance, and a kernel of two
callables with a sampled certificate, the one kernel here with no closed
form.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from mdf import kernels, semigroup
from mdf.dirichlet import ENGINE_EXACT, _gram_quadratic, _resolve_spec, dirichlet_operator
from mdf.kernels import PANEL_NODES, PANEL_WIDTH, KernelFunction, _panel_rule, check_admissible
from mdf.linalg import check_square, dagger, hs_inner
from mdf.lindblad import (
    LindbladSpec,
    _sandwich_sum,
    build_Q,
    check_balance_condition,
    lindblad_superop,
)
from mdf.standard_form import SuperOperator, tracial_state


def left_mult(A):
    """The left multiplier X -> A X: the GNS action pi(A)."""
    return SuperOperator.sandwich(A, np.eye(len(A)))


def full_form_report(sf, H, seed):
    """``markovianity_report`` with all ``SAMPLES`` form samples projected to ``NEWTON_TOL``.

    No sample is settled by the energy range before projecting, and the
    projection gets no ``decided`` hook, so nothing is frozen early.
    """
    def nothing_settled(H, etas, energy):
        return np.zeros(len(etas), dtype=bool), None

    with pytest.MonkeyPatch.context() as m:
        m.setattr(semigroup, "_settled_gaps", nothing_settled)
        return semigroup.markovianity_report(sf, H, seed)


def _literal_orbits(sf, y, ts):
    """sigma_{t-i/4}(y) and sigma_{t+i/4}(y) at each time in eigenbasis coordinates: (n, n, m) stacks.

    One exponential e^{i t kappa_jk} per node and entry.
    """
    y_eig = sf.to_eigenbasis(y)
    phases = np.exp(1j * np.multiply.outer(sf.kappa, ts))
    return ((y_eig * np.exp(sf.kappa / 4.0))[..., None] * phases,
            (y_eig * np.exp(-sf.kappa / 4.0))[..., None] * phases)


def form_eval(sf, spec, eta, xi, kernel=None, engine=ENGINE_EXACT, check_kernel=True):
    """Energy form E(eta, xi), conjugate-linear in eta.

    The exact engine evaluates <eta, H xi> through the assembled
    operator; the quadrature engine accumulates the two derivation
    inner products f(t) <d(t) eta, d(t) xi> node by node at the matrix
    level (never forming H), on the literal orbits of x and of x*, plus
    G0 times the weight's tail transform.  The nodes go in the blocks of
    the package's ``_CHUNK_ENTRIES``.
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
    radius = spec.kernel.quadrature_radius()
    rule = _panel_rule(radius, PANEL_WIDTH, PANEL_NODES)
    fw = rule.w * spec.kernel.eval(rule.t)
    block = max(1, kernels._CHUNK_ENTRIES // (8 * sf.dim**2))
    total = 0j
    for lo in range(0, fw.size, block):
        for y in (x, dagger(x)):
            A, B = _literal_orbits(sf, y, rule.t[lo : lo + block])
            d_eta = np.einsum("ilm,lj->ijm", A, eta_eig) - np.einsum("il,ljm->ijm", eta_eig, B)
            d_xi = np.einsum("ilm,lj->ijm", A, xi_eig) - np.einsum("il,ljm->ijm", xi_eig, B)
            total += np.einsum("m,ijm,ijm->", fw[lo : lo + block], d_eta.conj(), d_xi)
    tail = pole_tail(spec.kernel, sf.superop_frequencies, radius)
    if tail is not None:
        G0 = _gram_quadratic(sf, x)
        total += hs_inner(eta_eig, SuperOperator(G0.mat * tail, sf.dim).apply(xi_eig))
    return complex(total)


def pole_tail(kernel, kappa, radius):
    """The analytic tail past ``radius`` at each kappa from the kernel's ``poles``, or None."""
    return None if kernel.poles is None else kernels._pole_tail(kappa, radius, kernel.poles)


def cosine_hat_reference(kernel, kappa):
    """``hat_quadrature`` with one cosine per node and frequency: wf @ cos(outer(t, k)).

    The same positive half of the finer panel rule, far nodes first, with
    doubled weights, once per distinct |kappa|, plus the same tail; no
    phase is factored by panel.  The refinement check is left to the
    package.
    """
    T = kernel.quadrature_radius()
    k, where = np.unique(np.abs(np.asarray(kappa, dtype=float)).reshape(-1), return_inverse=True)
    rule = _panel_rule(T, PANEL_WIDTH / 2, PANEL_NODES)
    far_first = np.flatnonzero(rule.t > 0)[::-1]
    t = rule.t[far_first]
    wf = 2 * rule.w[far_first] * kernel.eval(t)
    out = np.concatenate([wf @ np.cos(np.outer(t, k[lo : lo + 64])) for lo in range(0, k.size, 64)])
    tail = pole_tail(kernel, k, T)
    return (out if tail is None else out + tail)[where].reshape(np.shape(kappa))


class TabulatedKernel(KernelFunction):
    """A kernel of user callables: its transform runs on quadrature, its certificate is sampled.

    ``fn`` gives the real-axis values and ``strip_fn`` (t, s) -> f(t + i s),
    which only the certificate reads; with no ``truncation_radius`` the
    panel rules refuse the kernel.
    """

    def __init__(self, fn, strip_fn=None, name="tabulated", truncation_radius=None):
        self._fn = fn
        self._strip_fn = strip_fn
        self.name = name
        self.truncation_radius = truncation_radius

    def eval(self, t):
        return np.asarray(self._fn(np.asarray(t, dtype=float)))

    def strip_eval(self, t, s):
        return np.asarray(self._strip_fn(t, s))

    def certificate(self):
        return check_admissible(self)


def lindblad_apply(spec, A):
    """L(A) evaluated termwise (conservative: L(I) = 0; *-preserving)."""
    A = check_square(A, spec.dim, "operator")
    out = np.zeros_like(A)
    for y in spec.ys:
        yd = dagger(y)
        w = yd @ y
        out += w @ A - 2.0 * (yd @ A @ y) + A @ w
    out += 1j * (spec.Q @ A - A @ spec.Q)
    return out


@dataclass(frozen=True)
class TracialReport:
    """Checks specific to rho = I/n, where the flow is trivial.

    ``q_norm`` must be exactly zero (the drift integrand cancels
    algebraically); ``identity_residual`` measures i[Q, .] against the
    sandwich-difference map it must equal; the symmetrized generator
    (couplings and adjoints weighted half each) is self-adjoint
    unconditionally and coincides with the plain one exactly for
    balanced families.
    """

    q_norm: float
    balance_residual: float
    identity_residual: float
    sym_selfadjoint_defect: float
    plain_vs_sym: float
    sym_vs_dirichlet: float


def tracial_symmetric_generator(ys):
    """The symmetrized generator: half the coupling terms plus half the adjoint terms."""
    ys = tuple(np.asarray(y, dtype=complex) for y in ys)
    eye = np.eye(ys[0].shape[0])
    pairs = []
    for y in ys:
        for a in (y, dagger(y)):
            w = dagger(a) @ a
            pairs += [(0.5 * w, eye), (eye, 0.5 * w), (-dagger(a), a)]
    return _sandwich_sum(pairs)


def verify_tracial_case(xs):
    """Run the trivial-flow checks for a coupling family at rho = I/n."""
    xs = [np.asarray(x, dtype=complex) for x in xs]
    n = xs[0].shape[0]
    sf = tracial_state(n)
    q = build_Q(sf, xs)
    balance = check_balance_condition(sf, xs)
    spec = LindbladSpec(ys=tuple(xs), Q=q)  # flow is trivial: y_k = x_k
    plain = lindblad_superop(spec)
    sym = tracial_symmetric_generator(xs)
    eye = np.eye(n)
    ident = _sandwich_sum([(1j * q, eye), (eye, -1j * q)]
                          + [(-dagger(y), y) for y in xs] + [(y, dagger(y)) for y in xs])
    parts = [dirichlet_operator(sf, x) for x in xs]
    dirich = sum(parts[1:], parts[0])
    return TracialReport(
        q_norm=float(np.linalg.norm(q, 2)),
        balance_residual=balance.condition_residual,
        identity_residual=ident.norm(),
        sym_selfadjoint_defect=sym.selfadjoint_defect(),
        plain_vs_sym=(plain - sym).hs_norm(),
        sym_vs_dirichlet=(sym - dirich).hs_norm(),
    )
