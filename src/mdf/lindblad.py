"""Detailed-balance Lindblad generators and their induced operators.

The generator acts on the algebra as

    L(A) = sum_k ( y_k* y_k A - 2 y_k* A y_k + A y_k* y_k ) + i[Q, A],

with jump coefficients y_k and a Hermitian drift Q.  Conjugating by
the symmetric embedding i0(A) = rho^{1/4} A rho^{1/4} turns L into an
operator H on the GNS space, and the central theme of this module is
when that H is self-adjoint (detailed balance) and how it decomposes
into Dirichlet operators of the flow-shifted couplings x_k =
sigma_{i/4}(y_k).

The drift that makes H self-adjoint is not free: :func:`build_Q`
computes it from the couplings by a flow average, and the balance
condition

    sum_k x_k ( . ) x_k*  =  sum_k x_k* ( . ) x_k

is the exchangeability of each coupling family with its adjoints that
the decomposition theorems require.  Several assembly routes for H
coexist on purpose (direct conjugation, flow-shifted closed forms for
H and H*, the Dirichlet sum); their pairwise agreement is part of the
test suite, so each route guards the others.
"""

from dataclasses import dataclass

import numpy as np

from .dirichlet import dirichlet_operator, ensure_admissible, split_self_adjoint
from .errors import BalanceViolated, NotSelfAdjoint
from .kernels import BoundaryCombination, F0Kernel
from .linalg import check_square, dagger, hermitian_defect
from .modular import (
    S_MAP,
    T_MAP,
    boundary_combination_smear,
    modular_map,
    sigma,
    smear,
    superop_smear,
)
from .standard_form import SuperOperator, tracial_state

#: balance-condition residual above this blocks the decomposition paths
BALANCE_TOL = 1e-8

#: Hermiticity bar for the drift
Q_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LindbladSpec:
    """Jump coefficients and drift of one generator.

    The couplings x_k = sigma_{i/4}(y_k) are derived, not stored: the
    conversion depends on the state, so it lives in
    :func:`couplings_of` / :func:`spec_from_couplings`.
    """

    ys: tuple
    Q: np.ndarray = None

    def __post_init__(self):
        ys = tuple(
            check_square(np.asarray(y, dtype=complex), what="jump coefficient")
            for y in self.ys
        )
        if not ys:
            raise ValueError("need at least one jump coefficient")
        n = ys[0].shape[0]
        ys = tuple(check_square(y, n, "jump coefficient") for y in ys)
        object.__setattr__(self, "ys", ys)
        Q = self.Q
        if Q is None:
            Q = np.zeros((n, n), dtype=complex)
        Q = check_square(np.asarray(Q, dtype=complex), n, "drift")
        if hermitian_defect(Q) > Q_HERMITIAN_TOL:
            raise NotSelfAdjoint("drift Q must be Hermitian")
        object.__setattr__(self, "Q", Q)

    @property
    def dim(self):
        return self.ys[0].shape[0]


def couplings_of(sf, spec):
    """The derived couplings x_k = sigma_{i/4}(y_k)."""
    return [sigma(sf, y, 0.25j) for y in spec.ys]


def spec_from_couplings(sf, xs, Q="auto", f=None):
    """Spec with y_k = sigma_{-i/4}(x_k); Q='auto' computes the drift."""
    xs = [check_square(np.asarray(x, dtype=complex), sf.dim, "coupling") for x in xs]
    ys = [sigma(sf, x, -0.25j) for x in xs]
    if isinstance(Q, str):
        if Q != "auto":
            raise ValueError(f"unknown drift mode {Q!r}")
        Q = build_Q(sf, xs, f)
    return LindbladSpec(ys=tuple(ys), Q=Q)


def _sandwich_sum(pairs):
    """The superoperator sum_r S(A_r, B_r) of a list of factor pairs (A_r, B_r)."""
    return SuperOperator.sandwich(*zip(*pairs))


def _lindblad_pairs(spec):
    """Factor pairs of L: L(y* y) + R(y* y) - 2 S(y*, y) per coupling, plus i[Q, .]."""
    eye = np.eye(spec.dim)
    pairs = [(1j * spec.Q, eye), (eye, -1j * spec.Q)]
    for y in spec.ys:
        w = dagger(y) @ y
        pairs += [(w, eye), (eye, w), (-2.0 * dagger(y), y)]
    return pairs


def lindblad_superop(spec):
    """Dense matrix of L (pure algebra, no state involved)."""
    return _sandwich_sum(_lindblad_pairs(spec))


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


def induced_operator(sf, L):
    """H = i0 . L . i0^{-1} for the dense generator L, by conjugation with the embedding.

    i0 = S(rho^{1/4}, rho^{1/4}), so the conjugation is one
    :meth:`SuperOperator.sandwiched`, O(n^5).
    """
    r, r_inv = sf.rho_power(0.25), sf.rho_power(-0.25)
    return L.sandwiched(r, r, r_inv, r_inv)


def induced_operator_shifted(sf, spec):
    """Closed form of H from flow-shifted coefficients.

    Pushing rho^{1/4} factors through each term of L turns the
    conjugation into quarter-shifted left/right/sandwich coefficients;
    this route never forms the embedding, so it is an independent
    assembly of the same operator (exact identity, any drift).
    """
    eye = np.eye(spec.dim)
    pairs = []
    for y in spec.ys:
        w = dagger(y) @ y
        pairs += [(sigma(sf, w, -0.25j), eye), (eye, sigma(sf, w, 0.25j))]
        pairs.append((-2.0 * sigma(sf, dagger(y), -0.25j), sigma(sf, y, 0.25j)))
    pairs += [(1j * sigma(sf, spec.Q, -0.25j), eye), (eye, -1j * sigma(sf, spec.Q, 0.25j))]
    return _sandwich_sum(pairs)


def induced_adjoint_shifted(sf, spec):
    """Closed form of the HS-adjoint H* from flow-shifted coefficients.

    Termwise the adjoint of :func:`induced_operator_shifted`; having it
    as its own assembly lets tests measure ||H - H*|| from two
    independently built operators.
    """
    eye = np.eye(spec.dim)
    pairs = []
    for y in spec.ys:
        w = dagger(y) @ y
        pairs += [(sigma(sf, w, 0.25j), eye), (eye, sigma(sf, w, -0.25j))]
        pairs.append((-2.0 * sigma(sf, y, 0.25j), sigma(sf, dagger(y), -0.25j)))
    pairs += [(-1j * sigma(sf, spec.Q, 0.25j), eye), (eye, 1j * sigma(sf, spec.Q, -0.25j))]
    return _sandwich_sum(pairs)


def build_Q(sf, xs, f=None):
    """Drift matrix from the couplings by a weighted flow average.

    For each coupling, Q_k = i * int sigma_t( x* sigma_{-i/2}(x)
    - sigma_{i/2}(x*) x ) f(t) dt, evaluated by the exact smearing
    engine; the total is the sum.  The integrand matrix is
    anti-Hermitian, so Q comes out Hermitian.  Q is fixed only up to a
    central c*I, which changes neither L nor H (the generator only sees
    Q through commutators).
    """
    if f is None:
        f = F0Kernel()
    n = sf.dim
    Q = np.zeros((n, n), dtype=complex)
    for x in xs:
        x = check_square(np.asarray(x, dtype=complex), n, "coupling")
        m0 = dagger(x) @ sigma(sf, x, -0.5j) - sigma(sf, dagger(x), 0.5j) @ x
        Q = Q + 1j * smear(sf, m0, f)
    return Q


# ---------------------------------------------------------------------------
# Balance condition and self-adjointness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceReport:
    """Residuals of the two equivalent balance statements.

    ``condition_residual`` bounds the operator norm of the J-real map
    Phi: X -> sum x_k X x_k* - x_k* X x_k from above by ||R||_2 + d, from
    its real form (R, d) (:meth:`SuperOperator.real_form`); ``lemma_residual`` the
    Hilbert-Schmidt norm of its quarter-shifted counterpart
    X -> sum sigma_{i/4}(x_k) X sigma_{-i/4}(x_k*) - sigma_{i/4}(x_k*) X sigma_{-i/4}(x_k).
    ``equivalent`` records that the two verdicts agree — their
    co-vanishing is itself a theorem under test.
    """

    condition_residual: float
    lemma_residual: float
    equivalent: bool

    @property
    def balanced(self):
        return self.condition_residual < BALANCE_TOL


def check_balance_condition(sf, xs):
    """Measure both faces of the balance condition for a coupling family."""
    xs = [check_square(np.asarray(x, dtype=complex), sf.dim, "coupling") for x in xs]
    cond, dressed = [], []
    for x in xs:
        xd = dagger(x)
        cond += [(x, xd), (-xd, x)]
        dressed += [(sigma(sf, x, 0.25j), sigma(sf, xd, -0.25j)),
                    (-sigma(sf, xd, 0.25j), sigma(sf, x, -0.25j))]
    R, d = _sandwich_sum(cond).real_form()
    cond_res = float(np.sqrt(np.linalg.eigvalsh(R.T @ R)[-1])) + d  # ||R||_2 + d
    lemma_res = _sandwich_sum(dressed).hs_norm()
    equivalent = (cond_res < BALANCE_TOL) == (lemma_res < BALANCE_TOL)
    return BalanceReport(
        condition_residual=cond_res, lemma_residual=lemma_res, equivalent=equivalent
    )


@dataclass(frozen=True)
class SelfAdjointnessReport:
    """||H - H*|| next to the drift-criterion residual.

    The criterion equation moves every Q-dependence of H - H* to one
    side and every coupling-dependence to the other; its residual and
    the operator residual must vanish together (``consistent``).
    """

    operator_residual: float
    criterion_residual: float
    consistent: bool


def drift_criterion(sf, spec):
    """The drift criterion as one operator: its Q side minus its coupling side.

    The left side i[T(Q), .] carries every Q-dependence of H - H*, the
    right side every coupling-dependence; H is self-adjoint exactly
    when the difference vanishes.
    """
    eye = np.eye(sf.dim)
    tq = modular_map(sf, spec.Q, T_MAP)
    w = sum(dagger(y) @ y for y in spec.ys)
    sw = modular_map(sf, w, S_MAP)
    # Q side i[T(Q), .] minus the coupling side -[S(w), .] + 2 sum (sandwich - its swap)
    pairs = [(1j * tq, eye), (eye, -1j * tq), (sw, eye), (eye, -sw)]
    for y in spec.ys:
        pairs += [(-2.0 * sigma(sf, dagger(y), -0.25j), sigma(sf, y, 0.25j)),
                  (2.0 * sigma(sf, y, 0.25j), sigma(sf, dagger(y), -0.25j))]
    return _sandwich_sum(pairs)


def selfadjointness_residual(criterion, H, tol=1e-8):
    """Self-adjointness of an induced operator H, measured two independent ways.

    ``criterion`` is :func:`drift_criterion` of the spec that induced H.
    """
    op_res = H.selfadjoint_defect()
    crit_res = criterion.hs_norm()
    return SelfAdjointnessReport(
        operator_residual=op_res,
        criterion_residual=crit_res,
        consistent=(op_res < tol) == (crit_res < tol),
    )


def criterion_matches_adjoint_gap(criterion, H, H_adj):
    """Exact-identity residual: :func:`drift_criterion` == H - H*.

    H and H_adj are the flow-shifted assemblies of the criterion's spec
    and of its adjoint, so this should vanish to rounding regardless of
    balance or drift.
    """
    return (criterion - (H - H_adj)).hs_norm()


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------

def _require_balanced(report):
    if not report.balanced:
        raise BalanceViolated(
            f"coupling family is unbalanced (residual "
            f"{report.condition_residual:.3e}); the decomposition "
            "identities assume balance"
        )


def decompose_H(sf, xs, f=None):
    """Dirichlet operators [H_k] of the couplings; their sum is H.

    Requires balance; the comparison of sum(H_k) with the induced
    operator of the drift-completed spec is the caller's (the sum is
    returned piecewise so tests can also inspect the parts).
    """
    _require_balanced(check_balance_condition(sf, xs))
    return [dirichlet_operator(sf, x, f) for x in xs]  # f=None is f0


def decomposition_residual(H, total):
    """|| induced H  -  sum_k H_k || for a balanced family.

    H is the induced operator of the ``auto``-drift spec, ``total`` the
    sum of :func:`decompose_H`.  Pinned to the distinguished weight: only
    there does the plain generator shape correspond to the Dirichlet sum
    (the boundary combination degenerates to a delta).
    """
    return (H - total).hs_norm()


def selfadjoint_component_decomposition(sf, xs, L, balance):
    """Split each coupling into Hermitian components; L halves over them.

    ``L`` is the dense generator of the ``auto``-drift spec of xs and
    ``balance`` its :class:`BalanceReport`.  Returns (components, residual) where
    components lists the 2m Hermitian matrices of the split and residual
    is the Hilbert-Schmidt norm of L - (1/2) sum_k L_k, each L_k the
    generator of a single component with its own drift.  Requires
    balance.
    """
    _require_balanced(balance)
    components = []
    for x in xs:
        x1, x2 = split_self_adjoint(x)
        components.extend([x2, x1])
    half = _sandwich_sum(
        [p for c in components for p in _lindblad_pairs(spec_from_couplings(sf, [c], Q="auto"))]
    )
    residual = (L - 0.5 * half).hs_norm()
    return components, residual


def y_reconstruction_residual(sf, xs):
    """Residual of  2 sum y_k* y_k = sum ( |sigma_{-i/4}(x_k)|^2 + |sigma_{-i/4}(x_k*)|^2 ).

    The two sides differ exactly by the (A = I instance of the) balance
    condition, so this vanishes for balanced families and is a witness
    otherwise.
    """
    n = sf.dim
    lhs = np.zeros((n, n), dtype=complex)
    rhs = np.zeros((n, n), dtype=complex)
    for x in xs:
        y = sigma(sf, x, -0.25j)
        b = sigma(sf, dagger(x), -0.25j)
        w = dagger(y) @ y
        lhs += 2.0 * w
        rhs += w + dagger(b) @ b
    return float(np.linalg.norm(lhs - rhs, 2))


def kms_symmetry_residual(sf, L):
    """||E L - L* E||_HS, E = i0* i0 = S(rho^{1/2}, rho^{1/2}), for the dense generator L.

    <i0(LA), i0(B)> = <i0(A), i0(LB)> for all A, B is the operator
    identity E L = L* E: the symmetry of the generator in the embedded
    inner product, which holds exactly when the induced H is
    self-adjoint.  E is self-adjoint, so the residual is the
    self-adjoint defect of E L.  No rho^{-1/4} enters, so this route is
    independent of the induced operator.
    """
    h, eye = sf.rho_power(0.5), np.eye(sf.dim)
    return L.sandwiched(h, h, eye, eye).selfadjoint_defect()


# ---------------------------------------------------------------------------
# General-weight generator (single coupling)
# ---------------------------------------------------------------------------

def general_f_generator(sf, x, f, _left_coefficient_both_adjoint=False):
    """Generator for one coupling under a general admissible weight.

    Each half carries boundary-weight-smeared coefficients

        L1(A) = 1/2 [ C1 A + A C1 - 2 * smeared sandwich ] + (i/2)[Q1, A],

    with C1 the flow average of sigma_{i/4}(x*) sigma_{-i/4}(x) against
    f(t+i/4) + f(t-i/4), and L2 the same with x and x* exchanged.  The
    diagnostic flag assembles a deliberately wrong variant whose left
    coefficient uses the adjoint coupling in both factors — the
    embedding identity detects the difference for non-normal couplings,
    which is how tests pin the correct combination.

    Raises
    ------
    NotAdmissible
        For weights without a certificate.
    """
    x = check_square(np.asarray(x, dtype=complex), sf.dim, "coupling")
    ensure_admissible(f)
    xd = dagger(x)
    eye = np.eye(sf.dim)
    coefficients, sandwiches = [], []
    for a, b in ((xd, x), (x, xd)):
        # coefficient sigma_{i/4}(a) sigma_{-i/4}(b), flow-averaged
        # against the boundary weight
        left_pair = (a, a) if _left_coefficient_both_adjoint else (a, b)
        p_left = sigma(sf, left_pair[0], 0.25j) @ sigma(sf, left_pair[1], -0.25j)
        p = sigma(sf, a, 0.25j) @ sigma(sf, b, -0.25j)
        c_left = boundary_combination_smear(sf, p_left, f)
        c_right = boundary_combination_smear(sf, p, f)
        q1 = build_Q(sf, [b], f)
        coefficients += [(0.5 * c_left + 0.5j * q1, eye), (eye, 0.5 * c_right - 0.5j * q1)]
        sandwiches.append((sigma(sf, a, 0.25j), sigma(sf, b, -0.25j)))
    k = _sandwich_sum(sandwiches)
    if not isinstance(f, F0Kernel):  # the boundary weight of f0 is a delta
        k = superop_smear(sf, k, BoundaryCombination(f))
    return _sandwich_sum(coefficients) - k


def general_f_embedding_residual(sf, x, f, H, _left_coefficient_both_adjoint=False):
    """||e0 L - H e0||_HS for  i0(L(A)) = H i0(A),  e0 = S(rho^{1/4}, rho^{1/4}).

    L is :func:`general_f_generator` of (x, f) and H the Dirichlet
    operator of (x, f).
    """
    r, eye = sf.rho_power(0.25), np.eye(sf.dim)
    L = general_f_generator(sf, x, f, _left_coefficient_both_adjoint)
    return (L.sandwiched(r, r, eye, eye) - H.sandwiched(eye, eye, r, r)).hs_norm()


# ---------------------------------------------------------------------------
# Tracial state
# ---------------------------------------------------------------------------

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
