"""Smearing kernels, their Fourier transforms, and admissibility certificates.

A kernel is a real, even, nonnegative function f on the line that
extends analytically to the strip |Im z| <= 1/4.  Each kernel exposes

* ``eval(t)``       -- values on the real axis (vectorized),
* ``strip_eval(t, s)`` -- values at t + i s for |s| <= 1/4,
* ``hat(kappa)``    -- the Fourier transform  int f(t) e^{i kappa t} dt,
* ``certificate()`` -- its :class:`AdmissibilityCertificate`.

Two routes to ``hat`` exist: a closed form where available, and a
composite Gauss-Legendre quadrature (64 nodes per panel, panel width
1/2, symmetric truncation at ``quadrature_radius()``, plus an analytic
tail correction for slowly decaying kernels).  Its integrand is even in
t, so it is evaluated on the rule's positive half with doubled weights.
The cached :func:`_panel_rule` also exposes the panels: a node is
t = mid_p + offset_j, so e^{i t k} = e^{i mid_p k} e^{i offset_j k}, and
``hat_quadrature`` takes P + J exponentials per frequency where one per
node would take P J.  Its integrands over many frequencies, and the pole
tails over many poles, go in blocks of ``_CHUNK_ENTRIES`` (~256K)
entries, small enough that a block's temporaries stay in cache.  The
quadrature route is deliberately independent so it can serve as an
oracle for the closed forms, and vice versa; the smear oracles of
``modular`` and the quadrature engine of ``dirichlet`` are multipliers
by ``hat_quadrature``.  The tail has one formula, :func:`_pole_tail`, read
from the ``poles`` a kernel declares: (b, c) with f = (1/2 pi i) sum c / (t - i b).
Its exponential integral is :func:`_exp1`, in numpy: the package needs no scipy.

Every kernel a scenario can name (f0, Cauchy, the signed control)
derives its certificate exactly from its parameters, and states its
``truncation_radius`` the same way; neither has a default.  Each class
declares its boundary weight's delta mass and whether it has a
pointwise part, the boundary combination: a diagnostic of the contour
shift, refused a certificate.  The sampled :func:`check_admissible` is a
diagnostic that no kernel here calls: a user kernel with no closed form
may return it from its ``certificate()`` on purpose.
"""

import reprlib
from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import NotAdmissible, QuadratureNotConverged, SchemaError, finite_number

PANEL_WIDTH = 0.5
PANEL_NODES = 64

QUAD_REL_TARGET = 1e-9

#: chunked integrands and pole tails are sized to hold ~256K entries (4 MiB complex) at a
#: time, a block that stays in cache
_CHUNK_ENTRIES = 1 << 18


class _PanelRule(NamedTuple):
    """A composite Gauss-Legendre rule: P panels of half width h, J nodes each.

    Node (p, j) is t = mid_p + offset_j, offset = h x, with weight h w_j;
    ``t`` and ``w`` list the nodes panel by panel.
    """

    t: np.ndarray
    w: np.ndarray
    mid: np.ndarray
    offset: np.ndarray


@lru_cache(maxsize=32)
def _panel_rule(radius, width, nodes):
    """The rule of ``nodes`` nodes per panel on [-radius, radius], panels at most ``width`` wide."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    m = int(np.ceil(2 * radius / width))
    h = radius / m
    mid = -radius + h * (2 * np.arange(m) + 1)
    offset = h * x
    return _PanelRule((mid[:, None] + offset).reshape(-1), np.tile(h * w, m), mid, offset)


class KernelFunction:
    """Base class; concrete kernels fill in eval/strip_eval and hat data."""

    name = "kernel"
    #: truncation radius giving quadrature tail below ~1e-13; each kernel states its own
    truncation_radius = None
    #: partial-fraction poles [(b, c), ...] with f = (1/2 pi i) sum c / (t - i b), or None
    poles = None
    #: the boundary weight f(t + i/4) + f(t - i/4) is ``boundary_mass`` times the delta
    #: plus, when ``boundary_pointwise``, a function of t
    boundary_mass = 0.0
    boundary_pointwise = True

    def eval(self, t):
        raise NotImplementedError

    def strip_eval(self, t, s):
        raise NotImplementedError

    def hat(self, kappa):
        """Fourier transform at kappa; kernels with a closed form override this."""
        return self.hat_quadrature(kappa)

    def certificate(self):
        """The :class:`AdmissibilityCertificate`, which each kernel class states itself."""
        raise NotImplementedError(
            f"the {self.name} kernel states no certificate; its class must define certificate()")

    def quadrature_radius(self):
        """Truncation radius of every panel rule: the one the kernel declares."""
        if not self.truncation_radius:
            raise QuadratureNotConverged(
                f"{self.name} kernel declares no truncation_radius for its panel rules")
        return float(self.truncation_radius)

    def hat_quadrature(self, kappa):
        """Quadrature route for the Fourier transform (vectorized in kappa).

        Integrates f(t) cos(kappa t) over [-T, T] with the fixed panel
        rule and adds the kernel's analytic tail when it has one; for a
        real, even f that is the whole transform.  The integrand is even
        in t and the rule symmetric, so it runs over the panels right of
        0 with doubled weights (a middle panel across 0 counts once).
        With t = mid_p + offset_j, the node sum is
        Re sum_p e^{i mid_p k} (W e(k))_p for the weights W_pj = w f(t)
        and e(k)_j = e^{i offset_j k}: one (P x J)(J x K) product per chunk
        of K frequencies, far panels first, so the small terms are summed
        before the large ones.  The transform is even in kappa, so each
        distinct |kappa| is integrated once, in chunks whose four P x K
        temporaries hold ``_CHUNK_ENTRIES`` entries in all.  The panel
        width is halved once as a convergence check, the change measured
        against the larger of the truncated integral and the returned
        value: with a tail, the truncated part alone can nearly cancel.
        """
        kappa = np.asarray(kappa, dtype=float)
        T = self.quadrature_radius()
        k, where = np.unique(np.abs(kappa).reshape(-1), return_inverse=True)

        def run(width):
            rule = _panel_rule(T, float(width), PANEL_NODES)
            P = rule.mid.size
            # the panels right of 0, far first; the middle one of an odd count is its own mirror
            right = np.arange(P - 1, (P - 2) // 2, -1)
            fold = np.where(2 * right == P - 1, 1.0, 2.0)[:, None]
            t, wt = (a.reshape(P, -1)[right] for a in (rule.t, rule.w))
            W = fold * wt * self.eval(t.reshape(-1)).reshape(t.shape)
            mid = rule.mid[right]
            step = max(1, _CHUNK_ENTRIES // (4 * right.size))
            out = np.empty(k.size)
            for lo in range(0, k.size, step):
                kc = k[lo : lo + step]
                e = np.exp(1j * np.multiply.outer(rule.offset, kc))
                inner = (W @ e.view(float)).view(complex)  # W e(k) as one real product
                phases = np.exp(1j * np.multiply.outer(mid, kc))
                out[lo : lo + step] = np.real(phases * inner).sum(axis=0)
            return out

        coarse = run(PANEL_WIDTH)
        fine = run(PANEL_WIDTH / 2)
        whole = fine if self.poles is None else fine + _pole_tail(k, T, self.poles)
        scale = np.maximum(np.maximum(np.abs(fine), np.abs(whole)), 1e-30)
        if np.max(np.abs(fine - coarse) / scale) > QUAD_REL_TARGET:
            raise QuadratureNotConverged(
                f"panel refinement changed the {self.name} transform by more "
                f"than {QUAD_REL_TARGET}"
            )
        out = whole[where].reshape(kappa.shape)
        return out if out.ndim else float(out)


class F0Kernel(KernelFunction):
    """The distinguished kernel 2 / (e^{2 pi t} + e^{-2 pi t}) = sech(2 pi t).

    Its transform is (e^{kappa/4} + e^{-kappa/4})^{-1} in closed form,
    and its boundary combination f(t + i/4) + f(t - i/4) is the Dirac
    delta in the distributional sense (the boundary lines carry simple
    poles at t = 0), with no pointwise part.
    """

    name = "f0"
    # (2/pi) e^{-2 pi T} < 1e-13 already at T = 5
    truncation_radius = 5.0
    boundary_mass = 1.0
    boundary_pointwise = False

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        # stable sech: 2 e^{-2 pi |t|} / (1 + e^{-4 pi |t|})
        e = np.exp(-2 * np.pi * np.abs(t))
        return 2 * e / (1 + e * e)

    def strip_eval(self, t, s):
        z = np.asarray(t, dtype=complex) + 1j * s
        with np.errstate(over="ignore", invalid="ignore"):
            return 1.0 / np.cosh(2 * np.pi * z)

    def hat(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        out = 0.5 / np.cosh(kappa / 4.0)
        return out if out.ndim else float(out)

    def certificate(self):
        """Closed-form certificate.

        (a) sech(2 pi t) > 0 on the real axis.
        (b) cosh(2 pi t +- i pi/2) = +- i sinh(2 pi t), so f0(t + i/4) + f0(t - i/4)
            vanishes off t = 0; with its poles at t = 0 it is the delta, whose
            transform (e^{kappa/4} + e^{-kappa/4}) hat_f0(kappa) is 1.
        (c) |cosh(2 pi (t + i s))|^2 = sinh(2 pi t)^2 + cos(2 pi s)^2, so on the strip
            |f0(t + i s)| <= 1 / sinh(2 pi |t|) <= M e^{-2 pi |t|} for |t| >= 1/2 with
            M = 2 / (1 - e^{-2 pi}): faster than every power, so ``decay_p`` is inf
            and ``decay_log_M`` is log M.
        """
        log_M = float(np.log(2.0 / (1.0 - np.exp(-2.0 * np.pi))))
        return AdmissibilityCertificate(
            kernel=self.name, positivity_ok=True, boundary_status="distributional",
            decay_p=np.inf, decay_log_M=log_M, decay_ok=True, grid=CLOSED_FORM)


class CauchyKernel(KernelFunction):
    """Unit-mass Cauchy density s / (pi (s^2 + t^2)) with scale 1/4 < s <= (max / pi)^{1/2}.

    The lower end keeps the poles at +- i s outside the closed strip
    |Im z| <= 1/4 with margin.  At the upper end, about 7.56e153 for
    ``max`` the largest double, pi s^2 still rounds to a finite double;
    past it the density's closed forms overflow.  The transform is
    e^{-s |kappa|}.  The quadrature route cannot reach 1e-9 by truncation
    alone (the density decays like 1/t^2), so the tail integral over
    |t| > T is added in closed form from the partial fractions
    f = (1/2 pi i)(1/(t - i s) - 1/(t + i s)): poles (s, 1), (-s, -1).
    """

    name = "cauchy"
    truncation_radius = 64.0

    def __init__(self, scale=1.0):
        if not scale > 0.25:
            raise NotAdmissible(
                f"Cauchy scale {scale} must exceed 1/4 for strip analyticity"
            )
        # pi s^2, the density's denominator at t = 0, is a finite double up to here
        widest = float(np.sqrt(np.finfo(float).max / np.pi))
        if scale > widest:
            raise NotAdmissible(
                f"Cauchy scale {scale} must be at most {widest!r}, where pi s^2 is finite"
            )
        self.scale = float(scale)
        self.poles = [(self.scale, 1.0), (-self.scale, -1.0)]

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        s = self.scale
        return s / (np.pi * (s * s + t * t))

    def strip_eval(self, t, s):
        z = np.asarray(t, dtype=complex) + 1j * s
        sc = self.scale
        return sc / (np.pi * (sc * sc + z * z))

    def hat(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        out = np.exp(-self.scale * np.abs(kappa))
        return out if out.ndim else float(out)

    def certificate(self):
        """Closed-form certificate of f(z) = s / (pi (s^2 + z^2)); all hold as s > 1/4.

        (a) f(t) > 0 on the real axis.
        (b) f(t - i/4) = conj f(t + i/4), so the boundary combination is real, and
            Re f(t + i/4) = s (c + t^2) / (pi |s^2 + (t + i/4)^2|^2) with c = s^2 - 1/16
            is positive for every t exactly when s > 1/4.
        (c) |s^2 + (t + i u)^2| >= c + t^2 for |u| <= 1/4, and (1 + v)^2 / (c + v^2)
            peaks at v = c, so |f(t + i u)| (1 + |t|)^2 <= M = s (1 + c) / (pi c) on
            the whole strip.  t^2 f(t) -> s / pi: the exponent p = 2 is exact.
        """
        s = self.scale
        c = s * s - 1.0 / 16.0
        log_M = float(np.log(s / np.pi) + np.log1p(1.0 / c))  # s (1 + c) overflows from s ~ 5.6e102
        return AdmissibilityCertificate(
            kernel=self.name, positivity_ok=True, boundary_status="pointwise",
            decay_p=2.0, decay_log_M=log_M, decay_ok=True, grid=CLOSED_FORM)


class CosineModulatedF0(KernelFunction):
    """Signed control kernel f0(t) cos(alpha t).

    This is *not* admissible (it changes sign on the real axis), and the
    induced quadratic forms lose the Markov property.  It is shipped so
    the Markovianity checks have a counterexample they are known to
    catch.  The transform is the shifted average
    (hat_f0(kappa + alpha) + hat_f0(kappa - alpha)) / 2.  Its boundary
    weight is f0's delta times cosh(|alpha|/4) plus, if alpha != 0, the
    function in (b) of :meth:`certificate`.
    """

    name = "signed_f0"
    truncation_radius = 5.0

    def __init__(self, alpha=6.0):
        self.alpha = float(alpha)
        self._f0 = F0Kernel()
        with np.errstate(over="ignore"):  # inf from |alpha| ~ 2840
            self.boundary_mass = float(np.cosh(self.alpha / 4.0))
        self.boundary_pointwise = self.alpha != 0.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return self._f0.eval(t) * np.cos(self.alpha * t)

    def strip_eval(self, t, s):
        z = np.asarray(t, dtype=complex) + 1j * s
        return self._f0.strip_eval(t, s) * np.cos(self.alpha * z)

    def hat(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        # f0's hat is already a float at a scalar kappa
        return 0.5 * (self._f0.hat(kappa + self.alpha) + self._f0.hat(kappa - self.alpha))

    def certificate(self):
        """Closed-form certificate; at alpha = 0 the kernel is f0 and has f0's.

        (a) f(pi/|alpha|) = -f0(pi/|alpha|) < 0: positivity fails.
        (b) f0(t +- i/4) = -+ i / sinh(2 pi t) and cos(alpha (t +- i/4)) =
            cos(alpha t) cosh(alpha/4) -+ i sin(alpha t) sinh(alpha/4), so off t = 0
            f(t + i/4) + f(t - i/4) = -2 sinh(|alpha|/4) sin(|alpha| |t|) / sinh(2 pi |t|),
            negative on 0 < |t| < pi/|alpha|: the boundary combination fails.
        (c) |cos(alpha (t + i s))| <= cosh(alpha s) <= cosh(|alpha|/4) on the strip, so
            f0's bound times cosh(|alpha|/4) holds: ``decay_p`` is inf and
            ``decay_log_M`` is f0's plus log cosh(|alpha|/4).
        """
        cert = replace(self._f0.certificate(), kernel=self.name)
        if self.alpha == 0.0:
            return cert
        a = abs(self.alpha) / 4.0
        log_cosh = float(np.logaddexp(a, -a) - np.log(2.0))  # cosh(a) overflows from a ~ 710
        return replace(cert, positivity_ok=False, boundary_status="failed",
                       decay_log_M=cert.decay_log_M + log_cosh)


#: k |b| above which e^{-k b} over- or underflows in the pole tail
POLE_EXPONENT = 700.0

#: terms of the asymptotic series of e^{w} E1(w) used at |w| > POLE_EXPONENT
_ASYMPTOTIC_TERMS = 20

#: depth of the J-fraction of E1 (DLMF 6.9.1) used outside the power series' region
_EXP1_DEPTH = 50

#: coefficients (-1)^{m+1} / (m m!), m = 1 .. 140, of the power series of E1(w) + gamma + log w
_EXP1_SERIES = np.array([(-1) ** (m + 1) / (m * factorial(m)) for m in range(1, 141)])
_EXP1_SERIES_LOG = np.log(np.abs(_EXP1_SERIES))


def _pole_tail(kappa, radius, poles):
    """Tail  int_{|t| > radius} g(t) e^{i kappa t} dt  for a real, even g
    given by the partial-fraction form g = (1/2 pi i) sum_j c_j / (t - i b_j)
    with sum_j c_j = 0 (g decays like 1/t^2).

    For kappa > 0 each one-sided term rotates onto the exponential
    integral:  int_T^inf e^{i k t}/(t - i b) dt = e^{-k b} E1(-i k (T - i b));
    the left tail is the complex conjugate and the total is even in kappa.
    :func:`_pole_term` evaluates every (pole, kappa) pair of a block of
    ``_CHUNK_ENTRIES // 8`` pairs in one call, without overflow; the
    continued fraction keeps about eight complex temporaries per pair, so a
    block's working set is the 4 MiB of an integrand chunk.

    kappa = 0 is the k -> 0 limit of that formula.  E1(z) = -gamma - log z
    + O(z) and e^{-k b} = 1 + O(k), so the one-sided sum is
    sum_j c_j (-gamma - log(-i k) - log(T - i b_j)) + O(k log k); the first
    two terms carry the common factor sum_j c_j = 0, leaving
    -(1/2 pi i) sum_j c_j log(T - i b_j).  With log(T - i b) =
    log|T - i b| - i arctan(b/T), twice its real part is the tail mass
    (1/pi) sum_j c_j arctan(b_j / T).
    """
    k = np.abs(np.asarray(kappa, dtype=float))
    T = float(radius)
    zero = k < 1e-300
    out = np.empty(k.shape, dtype=float)
    out[zero] = (1.0 / np.pi) * sum(c * np.arctan(b / T) for b, c in poles)
    kz = k[~zero]
    b, c = (np.array(column, dtype=float) for column in zip(*poles))
    one_sided = np.empty(kz.size, dtype=complex)
    step = max(1, _CHUNK_ENTRIES // 8 // b.size)
    for lo in range(0, kz.size, step):
        block = kz[lo : lo + step]
        pairs = _pole_term(np.tile(block, b.size), T, np.repeat(b, block.size),
                           np.repeat(c, block.size))
        one_sided[lo : lo + step] = sum(pairs.reshape(b.size, block.size))  # pole by pole
    out[~zero] = 2 * np.real(one_sided / (2j * np.pi))
    return out


def _pole_term(k, T, b, c):
    """c e^{-k b} E1(w) at w = -i k (T - i b), elementwise over arrays of one shape, k > 0.

    Below ``POLE_EXPONENT`` it is that plain product, with E1 from
    :func:`_exp1`.  Where k |b| > ``POLE_EXPONENT`` the factor e^{-k b}
    overflows (b < 0) or underflows against an overflowing E1 (b > 0)
    although the product is of size 1/|w|.  There the term is
    c e^{i k T} [e^{w} E1(w)], since e^{w} = e^{-k b} e^{-i k T}, with
    e^{w} E1(w) from its asymptotic series sum_m (-1)^m m! / w^{m+1}.  At
    |w| >= k |b| > 700 twenty terms leave a relative error below 1e-40
    (the series holds for |arg w| < 3 pi / 2; just below the negative
    axis, where b > 0, it drops only i pi e^{w}, below 1e-300).
    """
    w = -1j * k * (T - 1j * b)
    big = k * np.abs(b) > POLE_EXPONENT
    out = np.empty(w.shape, dtype=complex)
    small = ~big
    out[small] = c[small] * np.exp(-k[small] * b[small]) * _exp1(w[small])
    if big.any():
        wb = w[big]
        term = series = 1.0 / wb
        for m in range(1, _ASYMPTOTIC_TERMS):
            term = term * (-m / wb)
            series = series + term
        out[big] = c[big] * np.exp(1j * k[big] * T) * series
    return out


def _exp1(w):
    """The exponential integral E1 on the principal branch, elementwise, in numpy.

    Where |w| + Re w <= 4 and |w| <= 40 it sums the power series
    E1(w) = -gamma - log w + sum_m (-1)^{m+1} w^m / (m m!) by Horner's
    rule, smallest terms first (:func:`_exp1_series`).  The terms'
    magnitudes add up to about e^{|w|} / |w| against
    |E1(w)| ~ e^{-Re w} / |w|, so the cancellation stays below e^4.
    Everywhere else it is the J-fraction
    E1(w) = e^{-w} / (w + 1 - 1^2 / (w + 3 - 2^2 / (w + 5 - ...)))
    (DLMF 6.9.1) at depth ``_EXP1_DEPTH``, which reaches ~1e-15 on the
    boundary of the series' region and converges faster away from it.
    Each value depends on its own w alone, whatever else the array holds:
    the loops work out of place, since numpy rounds an in-place complex
    product on a one-entry array apart from the same product in a longer one.
    """
    w = np.asarray(w, dtype=complex)
    r = np.abs(w)
    near = (r + w.real <= 4.0) & (r <= 40.0)
    out = np.empty(w.shape, dtype=complex)
    if near.any():
        out[near] = _exp1_series(w[near], r[near])
    wf = w[~near]
    if wf.size:
        d = wf + (2 * _EXP1_DEPTH + 1)
        for j in range(_EXP1_DEPTH, 0, -1):
            d = (wf + (2 * j - 1)) - (j * j) / d
        out[~near] = np.exp(-wf) / d
    return out


def _exp1_series(w, r):
    """-gamma - log w + sum_m (-1)^{m+1} w^m / (m m!) at r = |w| <= 40, by Horner's rule.

    Each entry stops at the first term below 2^-55 of 0.04 e^{max(r - 4, 0)} / (1 + r),
    a lower bound of |E1| where the series is used.  The entries run
    sorted by that count, largest first, so those still summing form a
    prefix and each value depends on its own w alone.
    """
    orders = np.arange(1, _EXP1_SERIES.size + 1)
    bound = np.log(2.0**-55 * 0.04) + np.maximum(r - 4.0, 0.0) - np.log1p(r)
    below = orders * np.log(r)[:, None] + _EXP1_SERIES_LOG <= bound[:, None]
    terms = np.argmax(below, axis=1) + 1
    order = np.argsort(-terms, kind="stable")
    ws, terms = w[order], terms[order]
    live = np.searchsorted(-terms, -np.arange(terms[0] + 1), side="right")
    p = np.zeros_like(ws)
    for m in range(terms[0], 0, -1):
        p[: live[m]] = p[: live[m]] * ws[: live[m]] + _EXP1_SERIES[m - 1]
    series = np.empty_like(ws)
    series[order] = ws * p
    return series - np.log(w) - np.euler_gamma


class BoundaryCombination(KernelFunction):
    """The pointwise part w(t) of a base kernel's boundary weight f(t + i/4) + f(t - i/4).

    The boundary weight is w plus ``base.boundary_mass`` times the delta,
    and smearing with it equals applying T after smearing with f: the
    contour-shift identity.  So the closed-form transform of w is
    (e^{kappa/4} + e^{-kappa/4}) hat_f(kappa) minus the delta's mass, and
    its quadrature samples w off t = 0.  A base with no pointwise part,
    such as f0, is refused.
    """

    def __init__(self, base):
        if not base.boundary_pointwise:
            raise NotAdmissible(
                f"the {base.name} boundary weight is a delta alone; it has no pointwise part"
            )
        self.base = base
        self.name = f"boundary({base.name})"
        self.truncation_radius = base.truncation_radius
        # c / (t + i/4 - i b) + c / (t - i/4 - i b): each base pole splits in two
        if base.poles is not None:
            self.poles = [(b + shift, c) for b, c in base.poles for shift in (-0.25, 0.25)]

    def eval(self, t):
        w = self.base.strip_eval(t, 0.25) + self.base.strip_eval(t, -0.25)
        return np.real(w)

    def strip_eval(self, t, s):
        return self.base.strip_eval(t, s + 0.25) + self.base.strip_eval(t, s - 0.25)

    def hat(self, kappa):
        kappa = np.asarray(kappa, dtype=float)
        e = np.exp(kappa / 4.0)
        out = (e + 1.0 / e) * self.base.hat(kappa) - self.base.boundary_mass
        return out if out.ndim else float(out)

    def certificate(self):
        """Refused: the boundary weight checks the contour shift; nothing is smeared with it."""
        raise NotAdmissible(
            f"weight {self.name!r} is a diagnostic of the contour shift and is not certified")


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

POSITIVITY_GRID = (-50.0, 50.0, 0.01)
#: the decay window [t0, 5 t0] starts where |f| first drops to 1e-2 |f(0)|, t0 in [10, 1024]
DECAY_FIT_BOUNDS = (10.0, 1024.0)
DECAY_FIT_DROP = 1e-2
DECAY_FIT_WIDTH = 5.0
BOUNDARY_IM_TOL = 1e-10
BOUNDARY_RE_FLOOR = -1e-12


#: the ``grid`` of a certificate derived from the kernel's parameters
CLOSED_FORM = "closed form in the kernel parameters"


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Outcome of the three admissibility conditions, sampled or in closed form.

    ``boundary_status`` is one of ``"pointwise"`` (condition (b) holds on
    the sample grid, or for all t), ``"distributional"`` (exempt kernel
    whose boundary combination is a delta), or ``"failed"``.  ``decay_p``
    is inf for exponential decay.
    """

    kernel: str
    positivity_ok: bool
    boundary_status: str
    decay_p: float
    decay_log_M: float
    decay_ok: bool
    grid: str

    @property
    def failures(self):
        """The failing conditions, by name; empty when the certificate is granted."""
        return [name for name, ok in (
            ("positivity", self.positivity_ok),
            ("boundary combination", self.boundary_status != "failed"),
            (f"strip decay (p = {self.decay_p:.3g})", self.decay_ok),
        ) if not ok]

    @property
    def granted(self):
        return not self.failures


def check_admissible(f):
    """Sample the admissibility conditions for a kernel.

    The decay window is |t| in [t0, 5 t0], t0 the first t in 10, 11, ...,
    1024 with |f(t)| <= 1e-2 |f(0)| (else 1024), so that a wide kernel is
    fitted on its tail and not on its flat top.  The sample grid is
    [-50, 50] step 0.01, extended by a geometric grid to |t| = 5 t0 when
    the window reaches past 50.

    (a) nonnegativity on the sample grid;
    (b) Re(f(t + i/4) + f(t - i/4)) >= -1e-12 with imaginary part below
        1e-10 on the same grid (skipped for a kernel whose boundary
        weight has no pointwise part);
    (c) a least-squares fit of log|f| against log(1 + |t|) over the
        decay window on nine strip lines must have slope <= -p with
        p > 1.

    Returns a certificate; nothing is raised on failure.
    """
    lo, hi, step = POSITIVITY_GRID
    t = np.arange(lo, hi + step / 2, step)
    starts = np.arange(DECAY_FIT_BOUNDS[0], DECAY_FIT_BOUNDS[1] + 0.5)
    small = np.abs(f.eval(starts)) <= DECAY_FIT_DROP * abs(f.eval(np.zeros(1))[0])
    fit_lo = float(starts[np.argmax(small)]) if small.any() else DECAY_FIT_BOUNDS[1]
    fit_hi = DECAY_FIT_WIDTH * fit_lo
    grid = f"t in [{lo}, {hi}] step {step}"
    if fit_hi > hi:
        far = np.geomspace(hi, fit_hi, 2001)[1:]  # 2000 points a side past the step grid
        t = np.concatenate([-far[::-1], t, far])
        grid += f", geometric to |t| = {fit_hi}"

    vals = f.eval(t)
    positivity_ok = bool(np.min(vals) >= -1e-14)

    if not f.boundary_pointwise:
        boundary_status = "distributional"
    else:
        b = f.strip_eval(t, 0.25) + f.strip_eval(t, -0.25)
        ok = np.min(np.real(b)) >= BOUNDARY_RE_FLOOR and np.max(
            np.abs(np.imag(b))
        ) <= BOUNDARY_IM_TOL
        boundary_status = "pointwise" if ok else "failed"

    mask = (np.abs(t) >= fit_lo) & (np.abs(t) <= fit_hi)
    tt = t[mask]
    logs = np.log(1.0 + np.abs(tt))
    strip_logs = []
    worst_slope = -np.inf
    for s in np.linspace(-0.25, 0.25, 9):
        av = np.maximum(np.abs(f.strip_eval(tt, s)), 1e-300)
        la = np.log(av)
        strip_logs.append(la)
        slope = float(np.polyfit(logs, la, 1)[0])
        worst_slope = max(worst_slope, slope)
    p = -worst_slope
    log_M = max(float(np.max(la + p * logs)) for la in strip_logs)
    decay_ok = bool(p > 1.0)

    return AdmissibilityCertificate(
        kernel=f.name,
        positivity_ok=positivity_ok,
        boundary_status=boundary_status,
        decay_p=float(p),
        decay_log_M=float(log_M),
        decay_ok=decay_ok,
        grid=f"{grid}; decay fit |t| in [{fit_lo}, {fit_hi}], 9 strip lines",
    )


#: parametrized descriptor kind -> (kernel class, its one parameter, that parameter's default)
_DESCRIPTORS = {"cauchy": (CauchyKernel, "scale", 1.0),
                "signed_f0": (CosineModulatedF0, "alpha", 6.0)}


def kernel_from_descriptor(desc):
    """Build a kernel from its scenario-file descriptor.

    Accepts ``"f0"``, ``{"cauchy": {"scale": s}}``, or
    ``{"signed_f0": {"alpha": a}}`` (the shipped negative control).

    Raises ``SchemaError`` at the key path (``kernel.cauchy.scale``) for a
    parameter block that is not an object, an unknown parameter, or a value
    that is not a finite non-bool number; ``NotAdmissible`` for an unknown
    descriptor (echoed abridged, however deep or long) or a parameter out
    of the kernel's range.
    """
    if desc == "f0":
        return F0Kernel()
    if isinstance(desc, dict) and len(desc) == 1:
        (kind, params), = desc.items()
        if kind in _DESCRIPTORS:
            cls, name, default = _DESCRIPTORS[kind]
            if not isinstance(params, dict):
                raise SchemaError(f"kernel.{kind}: expected an object")
            for key, value in params.items():
                if key != name:
                    raise SchemaError(f"kernel.{kind}.{key}: unknown parameter")
                finite_number(value, f"kernel.{kind}.{key}")
            return cls(float(params.get(name, default)))
    raise NotAdmissible(f"unknown kernel descriptor: {reprlib.repr(desc)}")
