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
    haar_unitary,
    hs_inner,
    hs_norm,
    min_eigenvalue,
    random_hermitian,
    random_psd,
    unvec,
    vec,
)
from .standard_form import SuperOperator, project_order_interval

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


def random_interval_element(sf, rng):
    """A random element of [0, xi0]: the embedding of a contraction 0 <= M <= I."""
    n = sf.dim
    W = haar_unitary(n, rng)
    M = (W * rng.uniform(0.0, 1.0, size=n)) @ dagger(W)
    r = sf.rho_power(0.25)
    return r @ M @ r


def extreme_interval_element(sf, rng):
    """An extreme point of [0, xi0]: the embedding of a projection."""
    n = sf.dim
    W = haar_unitary(n, rng)
    k = int(rng.integers(1, n + 1))
    P = W[:, :k] @ dagger(W[:, :k])
    r = sf.rho_power(0.25)
    return r @ P @ r


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


def markovianity_report(sf, probe):
    """Sampled sub-Markovianity of e^{-tH} plus the form-level criterion."""
    H = probe.H
    rng = np.random.default_rng(probe.seed)
    xi0 = sf.xi0
    witnesses = []
    interval_violations = 0
    extreme_violations = 0
    positivity_violations = 0
    form_violations = 0
    worst_interval = np.inf
    worst_positivity = np.inf
    worst_form = -np.inf
    xi0_max = 0.0
    j_real_max = 0.0

    def note(kind, t, index, margin):
        if len(witnesses) < 10:
            witnesses.append((kind, float(t), int(index), float(margin)))

    for t in probe.times:
        Tt = semigroup_operator(H, t)
        xi0_max = max(xi0_max, hs_norm(Tt.apply(xi0) - xi0))
        j_real_max = max(j_real_max, Tt.j_real_defect())
        for i in range(probe.samples):
            eta = random_interval_element(sf, rng)
            out = Tt.apply(eta)
            low = min_eigenvalue(out)
            high = min_eigenvalue(xi0 - out)
            margin = min(low, high)
            worst_interval = min(worst_interval, margin)
            if margin < -INTERVAL_TOL:
                interval_violations += 1
                note("interval", t, i, margin)

            ex = extreme_interval_element(sf, rng)
            out = Tt.apply(ex)
            margin = min(min_eigenvalue(out), min_eigenvalue(xi0 - out))
            worst_interval = min(worst_interval, margin)
            if margin < -INTERVAL_TOL:
                extreme_violations += 1
                note("extreme", t, i, margin)

            psd = random_psd(sf.dim, rng)
            margin = min_eigenvalue(Tt.apply(psd))
            worst_positivity = min(worst_positivity, margin)
            if margin < -INTERVAL_TOL:
                positivity_violations += 1
                note("positivity", t, i, margin)

    # form-level criterion, time-independent: projecting onto the order
    # interval may never increase the energy
    etas = [random_hermitian(sf.dim, rng) for _ in range(probe.samples)]
    etas = np.reshape(etas, (probe.samples, sf.dim, sf.dim))
    for i, (eta, eta_i) in enumerate(zip(etas, project_order_interval(sf, etas))):
        e_full = float(np.real(hs_inner(eta, H.apply(eta))))
        e_proj = float(np.real(hs_inner(eta_i, H.apply(eta_i))))
        gap = e_proj - e_full
        worst_form = max(worst_form, gap)
        if gap > INTERVAL_TOL:
            form_violations += 1
            note("form", 0.0, i, gap)

    return MarkovianityReport(
        times=probe.times,
        samples=probe.samples,
        seed=probe.seed,
        interval_violations=interval_violations,
        extreme_violations=extreme_violations,
        positivity_violations=positivity_violations,
        form_violations=form_violations,
        worst_interval_margin=float(worst_interval),
        worst_positivity_margin=float(worst_positivity),
        worst_form_gap=float(worst_form),
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
