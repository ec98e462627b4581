"""Symmetric semigroups T_t = e^{-tH} and sampled Markovianity probes.

Every route to T_t goes through H's clamped spectral factors (w, V), and
:func:`factor_certificate` bounds how far that T_t is from e^{-tH} by the
factors' backward error.  The semigroup of a Dirichlet operator should
preserve the positive cone, keep the order interval [0, xi0] invariant,
fix xi0, and commute with the modular conjugation.  None of these can be
certified universally by sampling, so the report counts violations over
seeded random families plus a structured sweep over the extreme points
of the interval (embedded projections).  The negative-control scenarios,
built from the signed ``signed_f0`` weight, trip the checks, so the
probes are known to be able to fail.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    check_square_or_stack,
    dagger,
    ginibre,
    ginibre_from_normals,
    hermitian_from_ginibre,
    hs_inner,
    hs_norm,
    min_eigenvalue,
    psd_from_ginibre,
    unitary_from_ginibre,
)
from .standard_form import SuperOperator, project_order_interval, symmetric_embed

#: the probe times t of e^{-tH}
PROBE_TIMES = (0.1, 1.0, 10.0)

#: samples of each probe kind per time, and of the form probe
SAMPLES = 100

#: absolute eigenvalue tolerance for interval/positivity membership
INTERVAL_TOL = 1e-8

#: eigenvalues below this are the kernel when measuring the gap
GAP_THRESHOLD = 1e-10

#: numerical-noise floor: eigenvalues in [-CLAMP_EPS, 0) are treated as 0
#: so that e^{-tH} cannot drift above norm one from rounding alone;
#: genuine negative modes (the signature of a non-Markovian generator)
#: are far below this and stay.
CLAMP_EPS = 1e-9


def _factors(H):
    """H's spectral factors (w, V) of :meth:`SuperOperator.eigh`, w in (-CLAMP_EPS, 0) set to 0."""
    w, V = H.eigh()
    return np.where((w > -CLAMP_EPS) & (w < 0.0), 0.0, w), V


def semigroup_operator(H, t):
    """Dense T_t = V e^{-tw} V* from H's spectral factors."""
    w, V = _factors(H)
    if t < 0:
        raise ValueError("semigroup is defined for t >= 0")
    return SuperOperator((V * np.exp(-t * w)) @ dagger(V), H.dim)


def evolve(H, xi, t):
    """T_t xi = V (e^{-tw} * V* vec xi); a stack (k, n, n) is mapped in two products."""
    w, V = _factors(H)
    if t < 0:
        raise ValueError("semigroup is defined for t >= 0")
    xi = check_square_or_stack(xi, H.dim, "vector")
    coeff = xi.reshape(-1, w.size) @ V.conj()
    return ((coeff * np.exp(-t * w)) @ V.T).reshape(xi.shape)


@dataclass(frozen=True)
class FactorCertificate:
    """Bounds on the computed T_t = V e^{-tW} V* from the backward error of H's factors.

    W = diag(w) holds the clamped eigenvalues, H_h = (H + H*)/2, ``residual`` r =
    ||R||_HS with R = H_h V - V W, and ``orthogonality`` f = ||V*V - I||_HS.  H_h is
    similar through V to W + V^{-1} R, ||V^{-1}|| <= 1/sqrt(1 - f), so by Bauer-Fike
    e^{-sH_h} and e^{-sW} have norm at most e^{s mu}, ``mu`` = max(0, r/sqrt(1 - f)
    - min w) (inf if f >= 1).  Integrating d/ds e^{-(t-s)H_h} V e^{-sW} V* over [0, t]
    and adding e^{-tH_h}(VV* - I) gives delta_t = e^{t mu} (t r sqrt(1 + f) + f) >=
    ||T_t - e^{-tH_h}||_HS (Higham, *Functions of Matrices*, SIAM 2008, ch. 10).  The
    same Duhamel step on J e^{-tH_h} J = e^{-t JH_hJ} bounds ||T_t - J T_t J||_HS by
    t e^{t mu} ``j_defect`` + 2 delta_t, with ``j_defect`` = ||H - JHJ||_HS.
    """

    residual: float
    orthogonality: float
    mu: float
    j_defect: float

    def bounds(self, t):
        """(delta_t, the bound on T_t's J-defect) at time t."""
        b = t * self.residual * np.sqrt(1.0 + self.orthogonality) + self.orthogonality
        growth = np.exp(t * self.mu) if t else 1.0
        return float(growth * b), float(growth * (t * self.j_defect + 2.0 * b))


def factor_certificate(H):
    """The :class:`FactorCertificate` of H's spectral factors: two n^2 x n^2 products."""
    w, V = _factors(H)
    Hh = 0.5 * (H.mat + dagger(H.mat))
    r = hs_norm(Hh @ V - V * w)
    f = hs_norm(dagger(V) @ V - np.eye(w.size))
    mu = max(0.0, r / np.sqrt(1.0 - f) - w.min()) if f < 1.0 else np.inf
    return FactorCertificate(r, f, mu, H.j_real_defect())


def spectral_gap(H):
    """(smallest eigenvalue above the kernel |w| <= ``GAP_THRESHOLD`` or None, kernel dim)."""
    w, _ = _factors(H)
    above = w[np.abs(w) > GAP_THRESHOLD]
    kernel_dim = int(w.size - above.size)
    gap = float(above.min()) if above.size else None
    return gap, kernel_dim


# ---------------------------------------------------------------------------
# Markovianity probing
# ---------------------------------------------------------------------------

def _interval_elements(sf, G, spectrum):
    """rho^{1/4} W diag(spectrum) W* rho^{1/4} for W the Haar unitary of G; stacks too."""
    W = unitary_from_ginibre(G)
    return symmetric_embed(sf, (W * spectrum[..., None, :]) @ dagger(W))


def _extreme_elements(sf, G, rank):
    """The embedded projection onto the first ``rank`` columns of G's Haar unitary; stacks too."""
    keep = np.arange(sf.dim) < np.asarray(rank)[..., None]
    return _interval_elements(sf, G, keep.astype(float))


@dataclass(frozen=True)
class MarkovianityReport:
    """Violation counts and worst margins of the sampled semigroup probes.

    Margins are signed: for membership checks they are the smallest
    eigenvalue encountered (>= -INTERVAL_TOL passes), for the form
    projection the largest E[eta_I] - E[eta] (<= INTERVAL_TOL passes).
    ``witnesses`` carries up to ten (check, t, sample, margin) tuples
    for replay.  ``xi0_invariance_max`` and ``j_real_max`` (the J bound of
    ``certificate``) are relative to ||T_t||_2 = e^{-t min(0, min w)}, 1 if contractive.
    """

    interval_violations: int
    extreme_violations: int
    positivity_violations: int
    form_violations: int
    worst_interval_margin: float
    worst_positivity_margin: float
    worst_form_gap: float
    xi0_invariance_max: float
    j_real_max: float
    witnesses: tuple
    certificate: FactorCertificate


#: the sampled membership checks, in the order each sample runs them
_PROBE_KINDS = ("interval", "extreme", "positivity")


def _probe_draws(sf, rng, count):
    """``count`` (interval, extreme, positivity) samples as three stacks (count, n, n).

    Each sample makes five generator calls into preallocated arrays, the
    same numbers as drawing the samples one at a time: the interval
    element's normals and spectrum, the extreme point's normals and rank,
    the positive matrix's normals.  The rest is formed on the stacks.
    """
    n = sf.dim
    Z = np.empty((count, 3, 2, n, n))
    spectra = np.empty((count, n))
    ranks = np.empty(count, dtype=int)
    for i in range(count):
        rng.standard_normal(out=Z[i, 0])
        spectra[i] = rng.uniform(0.0, 1.0, size=n)
        rng.standard_normal(out=Z[i, 1])
        ranks[i] = rng.integers(1, n + 1)
        rng.standard_normal(out=Z[i, 2])
    G = ginibre_from_normals(Z)
    del Z
    return (
        _interval_elements(sf, G[:, 0], spectra),
        _extreme_elements(sf, G[:, 1], ranks),
        psd_from_ginibre(G[:, 2]),
    )


def _energy_range(H):
    """(e_lo, e_hi, h): E(X) of every X in [0, xi0] lies in [e_lo, e_hi], and h >= ||H_h||_2.

    E(X) = Re <X, H X> = <X, H_h X> on Hermitian X, H_h = (H + H*)/2, whose
    spectrum lies within pad = ``CLAMP_EPS`` + ||H - H*||_HS of H's clamped
    factors w, and ||X||_HS <= ||xi0||_HS = 1 on the interval.  So
    e_lo = min(0, min w) - pad, e_hi = max(0, max w) + pad, h = max |w| + pad.
    """
    w, _ = _factors(H)
    pad = CLAMP_EPS + H.selfadjoint_defect()
    return min(0.0, w.min()) - pad, max(0.0, w.max()) + pad, float(np.abs(w).max()) + pad


def _settled_gaps(H, etas, energy):
    """(settled, decided): the form samples settled before projecting, and the hook for the rest.

    With [e_lo, e_hi] of :func:`_energy_range`, each sample's gap E(X*) - E(eta),
    X* its projection onto [0, xi0], lies in [e_lo - E(eta), e_hi - E(eta)]
    before any eigendecomposition.  Both ends are widened by
    4 n^3 eps h (1 + ||eta||^2), a worst-case allowance for the rounding of
    the two energies.  ``settled`` marks the samples whose upper end is below
    both ``INTERVAL_TOL`` and the best lower end: their gaps pass and are
    below another sample's, and the sample that attains the best lower end
    is never settled.  The rest go to the projection with the hook
    ``decided``, which numbers them among themselves and applies the same
    rule at each Newton iterate, its running best starting at that lower
    end: with ||X - X*||_HS <= delta, the slack |E(X*) - E(X)| <=
    h delta (1 + ||X||) brackets the gap E(X) - E(eta).  Nothing here
    assumes H >= 0, so the negative control needs no special case.  delta's rounding allowance makes the slack at least
    4e-8 h n ||eta||, far above the rounding of the two energies for
    ||eta|| < 1e5 / n.
    """
    e_lo, e_hi, h = _energy_range(H)
    rounding = 4 * H.dim**3 * np.finfo(float).eps * h * (1.0 + np.real(hs_inner(etas, etas)))
    best = float(np.max(e_lo - rounding - energy, initial=-np.inf))
    settled = e_hi + rounding - energy < min(INTERVAL_TOL, best)
    energy = energy[~settled]

    def decided(index, X, delta):
        nonlocal best
        gap = np.real(hs_inner(X, H.apply(X))) - energy[index]
        slack = h * delta * (1.0 + hs_norm(X))
        best = max(best, float(np.max(gap - slack, initial=-np.inf)))
        return gap + slack < min(INTERVAL_TOL, best)

    return settled, decided


def markovianity_report(sf, H, seed):
    """Sampled sub-Markovianity of e^{-tH} plus the form-level criterion.

    At each of the ``PROBE_TIMES``, ``SAMPLES`` triples (an interval element,
    an extreme point, a positive matrix) are drawn from the seeded stream
    into preallocated arrays (see :func:`_probe_draws`) and mapped with
    xi0 by one :func:`evolve` call.  One batched eigenvalue call gives
    every margin, min(T eta, xi0 - T eta) for the interval kinds and T p
    for positivity.  A margin below -``INTERVAL_TOL`` counts a violation.
    After all times the form criterion draws ``SAMPLES`` Hermitian
    eta as one Ginibre block, takes their energies E[eta] once, and
    compares E[eta_I] with E[eta], eta_I the projection onto [0, xi0].
    A sample whose gap the energy range of H already shows can neither
    count as a violation nor be the worst gap is never projected; the
    rest are projected in one stacked call, which freezes a member as
    soon as its distance bound shows the same (see :func:`_settled_gaps`).
    Every violator, the sample that attains ``worst_form_gap`` and every
    near-tie with it still run to ``NEWTON_TOL``, so counts, witnesses
    and ``worst_form_gap`` are those of the full solve.  Witnesses keep
    the first ten violations in sampling order: by time, by sample, then
    interval, extreme, positivity; form violations come last.

    Raises ``NotSelfAdjoint`` (from :meth:`SuperOperator.eigh`) before any
    sample is drawn if H is not self-adjoint.
    """
    # 1 / ||e^{-tW}||_2: the xi0 and J residuals are measured relative to ||T_t||
    w_low = min(0.0, float(_factors(H)[0].min()))
    rng = np.random.default_rng(seed)
    xi0, N, n = sf.xi0, SAMPLES, sf.dim
    margins = np.empty((len(PROBE_TIMES), N, len(_PROBE_KINDS)))
    xi0_max = 0.0
    for t, margin in zip(PROBE_TIMES, margins):
        out = evolve(H, np.concatenate([xi0[None], *_probe_draws(sf, rng, N)]), t)
        xi0_max = max(xi0_max, hs_norm(out[0] - xi0) * np.exp(t * w_low))
        out_i, out_e, out_p = out[1:].reshape(3, N, n, n)
        low = min_eigenvalue(np.concatenate([out_i, xi0 - out_i, out_e, xi0 - out_e, out_p]))
        low = low.reshape(5, N)
        margin[:] = np.stack([np.minimum(low[0], low[1]), np.minimum(low[2], low[3]), low[4]], 1)
    bad = margins < -INTERVAL_TOL
    witnesses = [(_PROBE_KINDS[k], PROBE_TIMES[j], int(i), float(margins[j, i, k]))
                 for j, i, k in np.argwhere(bad)[:10]]

    # form-level criterion, time-independent: projecting onto the order
    # interval may never increase the energy
    etas = hermitian_from_ginibre(ginibre(n, rng, (N,)))
    energy = np.real(hs_inner(etas, H.apply(etas)))
    settled, decided = _settled_gaps(H, etas, energy)
    etas_i = np.zeros_like(etas)
    etas_i[~settled] = project_order_interval(sf, etas[~settled], decided=decided)
    # the energies of all N rows in one product, so each has the bits of a full solve's
    gaps = np.where(settled, -np.inf, np.real(hs_inner(etas_i, H.apply(etas_i))) - energy)
    form_bad = np.flatnonzero(gaps > INTERVAL_TOL)
    witnesses += [("form", 0.0, int(i), float(gaps[i])) for i in form_bad[: 10 - len(witnesses)]]
    certificate = factor_certificate(H)
    counts = bad.sum(axis=(0, 1))
    return MarkovianityReport(
        interval_violations=int(counts[0]),
        extreme_violations=int(counts[1]),
        positivity_violations=int(counts[2]),
        form_violations=int(form_bad.size),
        worst_interval_margin=float(margins[..., :2].min(initial=np.inf)),
        worst_positivity_margin=float(margins[..., 2].min(initial=np.inf)),
        worst_form_gap=float(gaps.max(initial=-np.inf)),
        xi0_invariance_max=float(xi0_max),
        j_real_max=max(certificate.bounds(t)[1] * float(np.exp(t * w_low)) for t in PROBE_TIMES),
        witnesses=tuple(witnesses),
        certificate=certificate,
    )
