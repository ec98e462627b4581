"""Symmetric semigroups T_t = e^{-tH} and sampled Markovianity probes.

The semigroup of a Dirichlet operator should preserve the positive
cone, keep the order interval [0, xi0] invariant, fix xi0, and commute
with the modular conjugation.  None of these can be certified
universally by sampling, so the report counts violations over seeded
random families plus a structured sweep over the extreme points of the
interval (embedded projections), and ships with a negative control
(:func:`nonmarkovian_control`) that provably trips the checks — the
suite is known to be able to fail.
"""

from dataclasses import dataclass

import numpy as np

from .dirichlet import ENGINE_EXACT, DirichletSpec, dirichlet_operator
from .errors import NotSelfAdjoint
from .kernels import CosineModulatedF0
from .linalg import (
    check_square,
    dagger,
    ginibre,
    ginibre_from_normals,
    hermitian_from_ginibre,
    hs_inner,
    hs_norm,
    min_eigenvalue,
    psd_from_ginibre,
    unitary_from_ginibre,
    unvec,
    vec,
)
from .standard_form import SuperOperator, project_order_interval, symmetric_embed

#: self-adjointness residual beyond which a probe refuses to run
SELFADJOINT_GATE = 1e-8

#: absolute eigenvalue tolerance for interval/positivity membership
INTERVAL_TOL = 1e-8

#: eigenvalues below this are the kernel when measuring the gap
GAP_THRESHOLD = 1e-10

#: numerical-noise floor: eigenvalues in [-CLAMP_EPS, 0) are treated as 0
#: so that e^{-tH} cannot drift above norm one from rounding alone;
#: genuine negative modes (the signature of a non-Markovian generator)
#: are far below this and stay.
CLAMP_EPS = 1e-9


def _require_selfadjoint(H):
    defect = H.selfadjoint_defect()
    if defect > SELFADJOINT_GATE:
        raise NotSelfAdjoint(
            f"operator is {defect:.3e} from self-adjoint; refusing to "
            "exponentiate a one-sided spectral decomposition"
        )


def _clamped_eigs(H):
    w, V = H.eigh()
    w = np.where((w > -CLAMP_EPS) & (w < 0.0), 0.0, w)
    return w, V


def semigroup_operator(H, t):
    """Dense e^{-tH} from the (cached) eigendecomposition of H."""
    _require_selfadjoint(H)
    if t < 0:
        raise ValueError("semigroup is defined for t >= 0")
    w, V = _clamped_eigs(H)
    mat = (V * np.exp(-t * w)) @ dagger(V)
    return SuperOperator(mat, H.dim)


def evolve(H, xi, t):
    """T_t xi = e^{-tH} xi for a self-adjoint H."""
    _require_selfadjoint(H)
    if t < 0:
        raise ValueError("semigroup is defined for t >= 0")
    xi = check_square(xi, H.dim, "vector")
    w, V = _clamped_eigs(H)
    coeff = dagger(V) @ vec(xi)
    return unvec(V @ (np.exp(-t * w) * coeff), H.dim)


def spectral_gap(H):
    """(smallest eigenvalue above the kernel, kernel dimension).

    The kernel is everything below ``GAP_THRESHOLD`` in absolute value;
    for H = 0 (or an all-kernel operator) the gap is None.
    """
    _require_selfadjoint(H)
    w, _ = H.eigh()
    above = w[np.abs(w) > GAP_THRESHOLD]
    kernel_dim = int(w.size - above.size)
    gap = float(above.min()) if above.size else None
    return gap, kernel_dim


# ---------------------------------------------------------------------------
# Markovianity probing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SemigroupProbe:
    """What to probe: operator, time grid, sample budget, seed."""

    H: SuperOperator
    times: tuple = (0.1, 1.0, 10.0)
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if any(not np.isfinite(t) or t < 0 for t in times):
            raise ValueError("probe times must be finite and nonnegative")
        object.__setattr__(self, "times", times)
        _require_selfadjoint(self.H)


def _interval_elements(sf, G, spectrum):
    """rho^{1/4} W diag(spectrum) W* rho^{1/4} for W the Haar unitary of G; stacks too."""
    W = unitary_from_ginibre(G)
    return symmetric_embed(sf, (W * spectrum[..., None, :]) @ dagger(W))


def _extreme_elements(sf, G, rank):
    """The embedded projection onto the first ``rank`` columns of G's Haar unitary; stacks too."""
    keep = np.arange(sf.dim) < np.asarray(rank)[..., None]
    return _interval_elements(sf, G, keep.astype(float))


def random_interval_element(sf, rng):
    """A random element of [0, xi0]: the embedding of a contraction 0 <= M <= I.

    Draws a Ginibre matrix, then a spectrum in [0, 1].
    """
    return _interval_elements(sf, ginibre(sf.dim, rng), rng.uniform(0.0, 1.0, size=sf.dim))


def extreme_interval_element(sf, rng):
    """An extreme point of [0, xi0]: the embedding of a projection.

    Draws a Ginibre matrix, then a rank 1 <= k <= n.
    """
    return _extreme_elements(sf, ginibre(sf.dim, rng), int(rng.integers(1, sf.dim + 1)))


@dataclass(frozen=True)
class MarkovianityReport:
    """Violation counts and worst margins of the sampled semigroup probes.

    Margins are signed: for membership checks they are the smallest
    eigenvalue encountered (>= -INTERVAL_TOL passes), for the form
    projection the largest E[eta_I] - E[eta] (<= INTERVAL_TOL passes).
    ``witnesses`` carries up to ten (check, t, sample, margin) tuples
    for replay.
    """

    times: tuple
    samples: int
    seed: int
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

    @property
    def markovian(self):
        return (
            self.interval_violations == 0
            and self.extreme_violations == 0
            and self.positivity_violations == 0
            and self.form_violations == 0
            and self.xi0_invariance_max < INTERVAL_TOL
            and self.j_real_max < INTERVAL_TOL
        )


#: the sampled membership checks, in the order each sample runs them
_PROBE_KINDS = ("interval", "extreme", "positivity")


def _probe_draws(sf, rng, count):
    """``count`` (interval, extreme, positivity) samples as three stacks (count, n, n).

    Each sample draws, in order, the interval element's normals and
    spectrum, the extreme point's normals and rank, and the positive
    matrix's normals: five generator calls, written into preallocated
    arrays, the same numbers as drawing the samples one at a time.  The
    Ginibre matrices, the products G G* and each kind's unitaries (one
    batched QR) are then formed on the stacks.
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


def markovianity_report(sf, probe):
    """Sampled sub-Markovianity of e^{-tH} plus the form-level criterion.

    At each probe time, ``probe.samples`` triples (an interval element,
    an extreme point, a positive matrix) are drawn from the seeded stream
    into preallocated arrays (see :func:`_probe_draws`) and checked as
    stacks: T_t maps each stack in one product, and one batched
    eigenvalue call gives every margin, min(T eta, xi0 - T eta) for the
    interval kinds and T p for positivity.  A margin below
    -``INTERVAL_TOL`` counts a violation.  After all times the form
    criterion draws ``probe.samples`` Hermitian eta as one Ginibre
    block, projects them onto [0, xi0] in one stacked call, and compares
    E[eta_I] with E[eta].  Witnesses keep the first ten
    violations in sampling order: by time, by sample, then interval,
    extreme, positivity; form violations come last.
    """
    H = probe.H
    rng = np.random.default_rng(probe.seed)
    xi0 = sf.xi0
    N = probe.samples
    witnesses = []
    counts = np.zeros(len(_PROBE_KINDS), dtype=int)
    worst_interval = np.inf
    worst_positivity = np.inf
    xi0_max = 0.0
    j_real_max = 0.0

    def note(kind, t, index, margin):
        if len(witnesses) < 10:
            witnesses.append((kind, float(t), int(index), float(margin)))

    for t in probe.times:
        Tt = semigroup_operator(H, t)
        xi0_max = max(xi0_max, hs_norm(Tt.apply(xi0) - xi0))
        j_real_max = max(j_real_max, Tt.j_real_defect())
        out_i, out_e, out_p = (Tt.apply(x) for x in _probe_draws(sf, rng, N))
        low = min_eigenvalue(np.concatenate([out_i, xi0 - out_i, out_e, xi0 - out_e, out_p]))
        low = low.reshape(5, N)
        margins = np.stack([np.minimum(low[0], low[1]), np.minimum(low[2], low[3]), low[4]], 1)
        worst_interval = min(worst_interval, margins[:, :2].min(initial=np.inf))
        worst_positivity = min(worst_positivity, margins[:, 2].min(initial=np.inf))
        bad = margins < -INTERVAL_TOL
        counts += bad.sum(axis=0)
        for i, kind in np.argwhere(bad)[: 10 - len(witnesses)]:
            note(_PROBE_KINDS[kind], t, i, margins[i, kind])

    # form-level criterion, time-independent: projecting onto the order
    # interval may never increase the energy
    etas = hermitian_from_ginibre(ginibre(sf.dim, rng, (N,)))
    etas_i = project_order_interval(sf, etas)
    gaps = np.real(hs_inner(etas_i, H.apply(etas_i))) - np.real(hs_inner(etas, H.apply(etas)))
    form_bad = np.flatnonzero(gaps > INTERVAL_TOL)
    for i in form_bad:
        note("form", 0.0, i, gaps[i])

    return MarkovianityReport(
        times=probe.times,
        samples=N,
        seed=probe.seed,
        interval_violations=int(counts[0]),
        extreme_violations=int(counts[1]),
        positivity_violations=int(counts[2]),
        form_violations=int(form_bad.size),
        worst_interval_margin=float(worst_interval),
        worst_positivity_margin=float(worst_positivity),
        worst_form_gap=float(gaps.max(initial=-np.inf)),
        xi0_invariance_max=float(xi0_max),
        j_real_max=float(j_real_max),
        witnesses=tuple(witnesses),
    )


def nonmarkovian_control(sf, x, alpha=6.0):
    """Operator from a deliberately signed weight — the negative control.

    The cosine-modulated weight stays even and real (so the operator is
    still self-adjoint, annihilates xi0, and commutes with J) but its
    transform changes sign across the frequency grid, producing genuine
    negative eigenvalues; the semigroup then leaves the order interval
    and :func:`markovianity_report` must count violations.
    """
    spec = DirichletSpec(
        x=x, kernel=CosineModulatedF0(alpha), engine=ENGINE_EXACT, check_kernel=False
    )
    return dirichlet_operator(sf, spec)
