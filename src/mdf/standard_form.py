"""Concrete standard form of the n x n matrix algebra with a faithful state.

The Hilbert space is the algebra itself with the trace inner product
``<X, Y> = Tr(X* Y)``.  For a faithful density matrix rho the cyclic
vector is ``xi0 = rho^{1/2}``, the modular conjugation is ``J X = X*``,
the modular operator acts as ``Delta X = rho X rho^{-1}``, and the
natural positive cone is exactly the set of positive semidefinite
matrices.  The algebra acts by left multiplication, its commutant by
right multiplication.

All modular data reduces to the exponent grid

    kappa[j, k] = log(lambda_j) - log(lambda_k)

over the eigenvalues of rho, which the rest of the package consumes.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, NoConvergence, NotAState, NotFaithful, NotJReal, NotSelfAdjoint
from .linalg import (
    check_square,
    check_square_or_stack,
    dagger,
    eigh_fixed,
    hermitian_defect,
    hs_norm,
    psd_clip,
)

EPS_FAITHFUL = 1e-8
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
JREAL_TOL = 1e-10

#: ||K - K*||_HS, relative to max(1, ||K||_HS), beyond which :meth:`SuperOperator.eigh` refuses K
SELFADJOINT_TOL = 1e-8

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
_CG_MAX_ITER = 200
_CG_FORCING = 0.1
_REGULARIZATION = 1e-6
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


class DensityMatrix:
    """A faithful quantum state on the n x n matrix algebra.

    Parameters
    ----------
    entries : array_like
        Square complex matrix; must be Hermitian, trace one, and have
        smallest eigenvalue at least ``EPS_FAITHFUL``.

    Raises
    ------
    NotAState
        If the matrix is not Hermitian or not normalized.
    NotFaithful
        If the smallest eigenvalue is below the faithfulness floor.
    """

    def __init__(self, entries):
        A = check_square(entries, what="density matrix")
        if hermitian_defect(A) > HERMITICITY_TOL:
            raise NotAState("density matrix is not Hermitian")
        tr = np.trace(A)
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotAState(f"density matrix has trace {tr}, expected 1")
        w = np.linalg.eigvalsh(A)
        if w[0] < EPS_FAITHFUL:
            raise NotFaithful(
                f"smallest eigenvalue {w[0]:.3e} is below the faithfulness "
                f"floor {EPS_FAITHFUL:.0e}"
            )
        self.entries = (A + dagger(A)) / 2.0
        self.dim = A.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class StandardForm:
    """Spectral data of a faithful state, precomputed once.

    Fields
    ------
    rho : DensityMatrix
    eigenvalues : descending eigenvalues of rho (all > 0)
    eigenvectors : unitary matrix whose columns are the eigenvectors
    xi0 : rho^{1/2}, the cyclic vector
    kappa : antisymmetric grid of modular exponents

    Superoperator entries in eigenbasis coordinates carry the frequency grid
    :attr:`superop_frequencies` (cached, read-only); :meth:`superop_from_eigenbasis`
    is the one way back to the working basis.
    """

    rho: DensityMatrix
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    xi0: np.ndarray
    kappa: np.ndarray

    @property
    def dim(self):
        return self.rho.dim

    @cached_property
    def superop_frequencies(self):
        """Read-only n^2 x n^2 grid nu_a - nu_b, where nu[j*n+k] = kappa[j,k]."""
        grid = np.subtract.outer(self.kappa.reshape(-1), self.kappa.reshape(-1))
        grid.flags.writeable = False
        return grid

    def to_eigenbasis(self, A):
        """Coordinates of a matrix in the rho-eigenbasis."""
        U = self.eigenvectors
        return dagger(U) @ A @ U

    def from_eigenbasis(self, A_eig):
        """Back-transform from the rho-eigenbasis to the working basis."""
        U = self.eigenvectors
        return U @ A_eig @ dagger(U)

    def rho_power(self, p):
        """rho^p via the cached eigendecomposition."""
        U = self.eigenvectors
        return (U * self.eigenvalues**p) @ dagger(U)

    def superop_basis_change(self):
        """Unitary V with V @ vec(X) = vec(U* X U) for U the eigenvector matrix.

        Dense reference for :meth:`superop_multiplier`, which never forms it.
        """
        U = self.eigenvectors
        return np.kron(dagger(U), U.T)

    def superop_multiplier(self, K, factors):
        """Entrywise multiplier in eigenbasis coordinates: V* ((V K V*) * F) V.

        V = :meth:`superop_basis_change` is the sandwich S(U*, U), so each
        side is one :meth:`SuperOperator.sandwiched`, O(n^5) with no dense V.
        """
        U, Ud = self.eigenvectors, dagger(self.eigenvectors)
        k = K.sandwiched(Ud, U, U, Ud)
        k.mat *= factors
        return self.superop_from_eigenbasis(k)

    def superop_from_eigenbasis(self, K):
        """V* K V: a superoperator given in eigenbasis coordinates, in the working basis."""
        U, Ud = self.eigenvectors, dagger(self.eigenvectors)
        return K.sandwiched(U, Ud, Ud, U)


def build_standard_form(rho):
    """Construct the standard-form data for a faithful state.

    Parameters
    ----------
    rho : DensityMatrix or array_like
        The state; arrays are validated on the way in.

    Returns
    -------
    StandardForm
        With eigenvalues in descending order, phase-fixed eigenvectors,
        xi0 = rho^{1/2} and the exponent grid kappa.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    w, U = eigh_fixed(rho.entries)
    logw = np.log(w)
    kappa = logw[:, None] - logw[None, :]
    xi0 = (U * np.sqrt(w)) @ dagger(U)
    xi0 = (xi0 + dagger(xi0)) / 2.0
    return StandardForm(
        rho=rho,
        eigenvalues=w,
        eigenvectors=U,
        xi0=xi0,
        kappa=kappa,
    )


def tracial_state(n):
    """The standard form of the normalized trace (rho = I/n)."""
    return build_standard_form(np.eye(n) / n)


def gibbs_state(h, beta=1.0):
    """Standard form of the Gibbs state exp(-beta h)/Z for Hermitian h.

    Raises ``NotAState`` if h is farther than ``HERMITICITY_TOL`` from Hermitian.
    """
    h = check_square(h, what="hamiltonian")
    if hermitian_defect(h) > HERMITICITY_TOL:
        raise NotAState("hamiltonian is not Hermitian")
    w, V = np.linalg.eigh(h)
    g = np.exp(-beta * (w - w.min()))
    g = g / g.sum()
    rho = (V * g) @ dagger(V)
    return build_standard_form(rho)


# ---------------------------------------------------------------------------
# Order structure: Jordan split, order interval, symmetric embedding
# ---------------------------------------------------------------------------

def _j_real_stack(sf, xi, what):
    """(symmetrized stack (k, n, n), input shape) of one vector or a stack of them.

    Raises ``NotJReal`` if any member is farther than ``JREAL_TOL`` from Hermitian.
    """
    xi = check_square_or_stack(xi, sf.dim, "vector")
    shape = xi.shape
    xi = xi.reshape(-1, sf.dim, sf.dim)
    if np.any(np.linalg.norm(xi - dagger(xi), 2, axis=(-2, -1)) > JREAL_TOL):
        raise NotJReal(f"{what} needs a J-real vector")
    return (xi + dagger(xi)) / 2.0, shape


def jordan_decompose(sf, xi):
    """Split a J-real vector into orthogonal positive parts.

    Parameters
    ----------
    xi : array_like
        Hermitian matrix within ``JREAL_TOL`` (symmetrized before use),
        or a stack (k, n, n) of them, split with one batched ``eigh``.

    Returns
    -------
    (xi_plus, xi_minus)
        Positive semidefinite matrices (stacks for a stack) with
        xi = xi_plus - xi_minus and <xi_plus, xi_minus> = 0 (spectral
        splitting).

    Raises
    ------
    NotJReal
        If xi, or any member of the stack, is farther than ``JREAL_TOL``
        from Hermitian.
    """
    xi, shape = _j_real_stack(sf, xi, "Jordan decomposition")
    w, V = np.linalg.eigh(xi)
    plus = (V * np.maximum(w, 0.0)[..., None, :]) @ dagger(V)
    minus = (V * np.maximum(-w, 0.0)[..., None, :]) @ dagger(V)
    return plus.reshape(shape), minus.reshape(shape)


def project_order_interval(sf, eta, decided=None):
    """Nearest point of the order interval [0, xi0] in the trace norm.

    Solves min 1/2 ||X - eta||^2 over 0 <= X <= xi0 through the dual of
    the split X + Z = xi0 with X, Z >= 0: the multiplier w is a Hermitian
    matrix, unconstrained, and minimizes the convex function

        psi(w) = 1/2 ||P(eta + w)||^2 + 1/2 ||P(xi0 - eta + w)||^2 - <w, xi0>,

    P the spectral clip onto the positive cone.  X = P(eta + w) and
    Z = P(xi0 - eta + w); the residual R = -grad psi = xi0 - X - Z.  Each
    step is semismooth Newton: the generalized Hessian is the sum of the
    two Loewner operators of P, Hadamard multipliers in the eigenbases of
    eta + w and xi0 - eta + w, and the step solves it by preconditioned
    CG in the first eigenbasis, four batched n x n products per matvec
    (Qi & Sun, SIAM J. Matrix Anal. Appl. 28, 2006).  A backtracking
    line search on psi keeps every step a descent step.  Each step costs
    two batched ``eigh``; the start w = -P(-eta) - P(eta - xi0) is exact
    when eta commutes with xi0, and w = 0 when eta lies in the interval,
    which is then returned after one check.

    Stop rule: a member is done when ||R||_HS < ``NEWTON_TOL``.  X >= 0
    and Z >= 0 hold by construction, and so do the complementarity of X
    and Z with their multipliers P(-(eta + w)) and P(-(xi0 - eta + w));
    ||R|| bounds what is left of the KKT conditions: the lowest
    eigenvalue of xi0 - X = Z + R is at least -||R||, and the
    stationarity defect is ||R|| / 2.

    Distance bound: with c = max(0, lambda_max(rho^{-1/4} X rho^{-1/4}) - 1)
    the point X~ = X / (1 + c) lies in [0, xi0].  The primal of the split,
    1/2 ||X - eta||^2 + 1/2 ||Z - (xi0 - eta)||^2, is ||X - eta||^2 on
    Z = xi0 - X, 2-strongly convex; its dual value at w is
    g(w) = 1/2 ||eta||^2 + 1/2 ||xi0 - eta||^2 - psi(w).  So weak duality
    gives ||X~ - X*||^2 <= ||X~ - eta||^2 - g(w), X* the projection, and

        delta = c / (1 + c) ||X|| + sqrt(max(0, ||X~ - eta||^2 - g(w)) + tau)

    bounds ||X - X*||_HS.  The rounding allowance tau = 16 n^2 eps S, S the
    sum of the magnitudes of the terms (||X~ - eta||^2, g's norms,
    ||eta + w||^2, ||xi0 - eta + w||^2 and |psi|), covers the cancellation
    in the difference, and c is raised by 4 n eps (|lambda_max| +
    ||X|| / lambda_min(rho)^{1/2}) for the rounding of lambda_max.  So
    delta >= sqrt(tau) >= 4e-8 n ||eta||, however close X is to X*.

    ``decided(indices, X, delta)``, if given, is called at every Newton
    iterate with the input indices of the members still running, their
    iterates X and their bounds delta, and returns a boolean mask; a
    masked member is frozen at its current X, exactly as a converged one
    is, so its result is only within delta of X*.  The default None
    computes no bound and runs every member to ``NEWTON_TOL``.

    ``eta`` is one n x n matrix or a stack (k, n, n) of them; the result
    has the same shape.  The members of a stack share every batched
    ``eigh`` and every CG matvec, and each member is frozen once its own
    residual passes (in CG: once its own CG residual does), on the step
    where a call on that member alone stops, whatever the other members
    do or whichever of them ``decided`` freezes.

    Raises
    ------
    NotJReal
        If any member is non-Hermitian.
    NoConvergence
        If some member that ``decided`` has not frozen still has a residual
        above ``NEWTON_TOL`` after ``NEWTON_MAX_ITER`` Newton steps.
    """
    eta, shape = _j_real_stack(sf, eta, "order-interval projection")
    xi0 = sf.xi0

    out = np.empty_like(eta)
    active = np.arange(len(eta))
    w = -psd_clip(-eta) - psd_clip(eta - xi0)
    at = _IntervalDual.evaluate(xi0, eta, w)
    for step in range(NEWTON_MAX_ITER + 1):
        done = at.res < NEWTON_TOL
        if decided is not None:
            done |= decided(active, at.X, _distance_bound(sf, eta, at))
        if done.any():
            out[active[done]] = at.X[done]
            keep = ~done
            active, eta, w = active[keep], eta[keep], w[keep]
            at = _IntervalDual(*(a[keep] for a in at))
        if not active.size:
            break
        if step == NEWTON_MAX_ITER:
            worst = int(np.argmax(at.res))
            raise NoConvergence(
                f"order-interval projection: member {active[worst]} has KKT residual "
                f"{at.res[worst]:.3e} (tolerance {NEWTON_TOL:.0e}) after "
                f"{NEWTON_MAX_ITER} Newton steps"
            )
        d = _newton_step(at)
        descent = _real_inner(at.R, d)
        t = np.ones(len(active))
        trial_w = w + d
        trial = _IntervalDual.evaluate(xi0, eta, trial_w)
        for _ in range(_MAX_HALVINGS):
            short = (trial.psi > at.psi - _ARMIJO * t * descent) & (trial.res > 0.5 * at.res)
            if not short.any():
                break
            t[short] /= 2.0
            trial_w[short] = w[short] + t[short, None, None] * d[short]
            for a, b in zip(trial, _IntervalDual.evaluate(xi0, eta[short], trial_w[short])):
                a[short] = b
        w, at = trial_w, trial
    return ((out + dagger(out)) / 2.0).reshape(shape)


class _IntervalDual(NamedTuple):
    """The order-interval dual at w, member by member (stacks (k, ...) in every field).

    eta + w = U diag(a) U* and xi0 - eta + w = V diag(b) V*; X and Z are
    their clips, R = xi0 - X - Z and res = ||R||_HS.
    """

    X: np.ndarray
    res: np.ndarray
    R: np.ndarray
    psi: np.ndarray
    a: np.ndarray
    U: np.ndarray
    b: np.ndarray
    V: np.ndarray

    @classmethod
    def evaluate(cls, xi0, eta, w):
        a, U = np.linalg.eigh(eta + w)
        b, V = np.linalg.eigh(xi0 - eta + w)
        a_p, b_p = np.maximum(a, 0.0), np.maximum(b, 0.0)
        X = (U * a_p[..., None, :]) @ dagger(U)
        R = xi0 - X - (V * b_p[..., None, :]) @ dagger(V)
        psi = 0.5 * (np.sum(a_p * a_p, axis=-1) + np.sum(b_p * b_p, axis=-1))
        psi -= np.einsum("kij,ij->k", w.view(float), xi0.view(float))
        return cls(X, np.linalg.norm(R, axis=(-2, -1)), R, psi, a, U, b, V)


def _distance_bound(sf, eta, at):
    """delta >= ||X - X*||_HS for each member of the dual ``at``; X* the projection of eta.

    The weak-duality bound of :func:`project_order_interval`: one batched
    ``eigvalsh`` of rho^{-1/4} X rho^{-1/4} gives c, the rest reads ``at``.
    """
    X, xi0, n, eps = at.X, sf.xi0, sf.dim, np.finfo(float).eps
    r = sf.rho_power(-0.25)
    top = np.linalg.eigvalsh(r @ X @ r)[:, -1]
    norm_x = np.linalg.norm(X, axis=(-2, -1))
    c = np.maximum(top - 1.0 + 4 * n * eps * (np.abs(top) + norm_x / np.sqrt(sf.eigenvalues[-1])), 0.0)
    E = X / (1.0 + c)[:, None, None] - eta
    primal = _real_inner(E, E)
    base = 0.5 * (_real_inner(eta, eta) + _real_inner(xi0 - eta, xi0 - eta))
    scale = primal + base + np.sum(at.a**2 + at.b**2, axis=-1) + np.abs(at.psi)
    gap = np.maximum(primal - base + at.psi, 0.0)
    return c / (1.0 + c) * norm_x + np.sqrt(gap + 16 * n * n * eps * scale)


def _real_inner(A, B):
    """Re <A, B> for each member of two stacks (k, n, n), without a matrix product."""
    return np.einsum("kij,kij->k", A.view(float), B.view(float))


def _loewner(w):
    """First divided differences of max(., 0) on each row of eigenvalues w (k, n).

    Entry (i, j) multiplies entry (i, j) of a direction in the eigenbasis
    to give the derivative of the spectral clip; on a tie it is 1 above
    zero and 0 at or below it.
    """
    p = np.maximum(w, 0.0)
    gap = w[..., :, None] - w[..., None, :]
    tie = gap == 0.0
    slope = (p[..., :, None] - p[..., None, :]) / np.where(tie, 1.0, gap)
    positive = p > 0.0
    return np.where(tie, positive[..., :, None] & positive[..., None, :], slope)


def _newton_step(at):
    """Inexact semismooth Newton step d of the order-interval dual ``at``.

    Solves (L_a + L_b + eps) d = R, L_a and L_b the Loewner operators of the
    clip at eta + w = U diag(a) U* and xi0 - eta + w = V diag(b) V*, by CG
    in U's eigenbasis with the diagonal of the operator as preconditioner.
    With T = U* V, L_b acts there as Y -> T (O_b * (T* Y T)) T*.  The
    regularization eps = min(``_REGULARIZATION``, ||R||) keeps the system
    definite where both clips are flat.  CG stops each member at relative
    residual min(``_CG_FORCING``, ||R||), never below a tenth of
    ``NEWTON_TOL``, or after ``_CG_MAX_ITER`` iterations, and freezes it.
    """
    res, R, U, V = at.res, at.R, at.U, at.V
    o_a, o_b = _loewner(at.a), _loewner(at.b)
    T = dagger(U) @ V
    Td = dagger(T)
    eps = np.minimum(_REGULARIZATION, res)[:, None, None]
    o_a = o_a + eps
    P = np.abs(T) ** 2
    inv_diag = 1.0 / (o_a + P @ o_b @ P.swapaxes(-1, -2))

    y = np.empty_like(R)
    live = np.arange(len(R))
    y_live = np.zeros_like(R)
    r = dagger(U) @ R @ U
    p = inv_diag * r
    rz = _real_inner(r, p)
    bound = np.maximum(np.minimum(_CG_FORCING, res) * res, 0.1 * NEWTON_TOL) ** 2
    for it in range(_CG_MAX_ITER + 1):
        done = _real_inner(r, r) <= bound
        if it == _CG_MAX_ITER:
            done[:] = True
        if done.any():
            y[live[done]] = y_live[done]
            keep = ~done
            live, y_live, r, p, rz, bound, o_a, o_b, T, Td, inv_diag = (
                x[keep] for x in (live, y_live, r, p, rz, bound, o_a, o_b, T, Td, inv_diag)
            )
        if not live.size:
            break
        q = o_a * p + T @ (o_b * (Td @ p @ T)) @ Td
        alpha = (rz / _real_inner(p, q))[:, None, None]
        y_live = y_live + alpha * p
        r = r - alpha * q
        z = inv_diag * r
        rz, rz_prev = _real_inner(r, z), rz
        p = z + (rz / rz_prev)[:, None, None] * p
    d = U @ y @ dagger(U)
    return (d + dagger(d)) / 2.0


def symmetric_embed(sf, A):
    """Symmetric embedding of the algebra: A -> rho^{1/4} A rho^{1/4}.

    A stack (k, n, n) is embedded member by member.
    """
    A = check_square_or_stack(A, sf.dim, "operator")
    r = sf.rho_power(0.25)
    return r @ A @ r


def symmetric_unembed(sf, X):
    """Inverse of :func:`symmetric_embed` (rho faithful makes it exact); stacks too."""
    X = check_square_or_stack(X, sf.dim, "vector")
    r = sf.rho_power(-0.25)
    return r @ X @ r


# ---------------------------------------------------------------------------
# Dense superoperators on the vectorized Hilbert space
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hermitian_basis(n):
    """Read-only vec indices (diag, up, lo) of the entries (j, j), (j, k) and (k, j), j < k."""
    j, k = np.triu_indices(n, 1)
    out = (np.arange(n) * (n + 1), j * n + k, k * n + j)
    for a in out:
        a.flags.writeable = False
    return out


class SuperOperator:
    """Dense linear map on vectorized n x n matrices.

    The basis convention is the row-major pair index (j, k) -> j*n + k,
    so that ``kron(A, B.T)`` is the map X -> A X B.  Because the basis
    is orthonormal for the trace inner product, the Hilbert-space
    adjoint is the plain conjugate transpose of the dense matrix.

    :meth:`real_form` is K on the real subspace H^J of Hermitian matrices,
    where :meth:`eigh` works.  :meth:`norm` is the operator (spectral) norm.
    Absolute residuals (:meth:`selfadjoint_defect`, :meth:`j_real_defect`,
    and the ``(A - B).hs_norm()`` checks of the suites) use the
    Hilbert-Schmidt norm :meth:`hs_norm`, which bounds the operator norm from
    above, so a gate on it is never looser than the same gate on :meth:`norm`.
    """

    __slots__ = ("mat", "dim", "_eig")

    def __init__(self, mat, dim=None):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimMismatch(f"superoperator matrix has shape {mat.shape}")
        if dim is None:
            dim = int(round(np.sqrt(mat.shape[0])))
        if dim * dim != mat.shape[0]:
            raise DimMismatch(
                f"superoperator of size {mat.shape[0]} is not on {dim}x{dim} matrices"
            )
        self.mat = mat
        self.dim = dim
        self._eig = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def sandwich(cls, A, B):
        """X -> A X B; for stacks (r, n, n) the sandwich sum X -> sum_r A_r X B_r.

        The dense matrix sum_r kron(A_r, B_r^T) is one einsum over the
        stacked factors, O(r n^4).  Sequences of n x n matrices are stacked.
        """
        n = np.shape(A)[-1]
        A, B = (check_square_or_stack(M, n, "operator").reshape(-1, n, n) for M in (A, B))
        if len(A) != len(B):
            raise DimMismatch(f"sandwich of {len(A)} left and {len(B)} right factors")
        mat = np.einsum("rjp,rqk->jkpq", A, B, optimize=True)
        return cls(mat.reshape(n * n, n * n), n)

    @classmethod
    def right_mult(cls, B):
        """X -> X B."""
        return cls.sandwich(np.eye(np.shape(B)[-1]), B)

    @classmethod
    def commutant_j(cls, A):
        """The commutant element j(A): X -> X A*."""
        return cls.right_mult(dagger(A))

    # -- algebra -----------------------------------------------------------
    def apply(self, X):
        """K X for one n x n matrix or each member of a stack (k, n, n), in one product."""
        X = check_square_or_stack(X, self.dim, "vector")
        return (X.reshape(-1, self.dim * self.dim) @ self.mat.T).reshape(X.shape)

    def sandwiched(self, A, B, C, D):
        """The composition S(A, B) K S(C, D): X -> A K(C X D) B.

        Four batched n x n contractions on the four-index view of K, one
        per index, O(n^5) where the dense composition costs O(n^6).
        """
        n = self.dim
        A, B, C, D = (check_square(M, n, "operator") for M in (A, B, C, D))
        p = (A @ self.mat.reshape(n, n**3)).reshape(n, n, n, n)
        q = (B.T @ p.reshape(n, n, n * n)).reshape(n, n, n, n)
        np.matmul(C.T, q, out=p)
        np.matmul(p, D.T, out=q)
        return SuperOperator(q.reshape(n * n, n * n), n)

    def adjoint(self):
        return SuperOperator(dagger(self.mat), self.dim)

    def norm(self):
        """Operator (spectral) norm of the dense matrix."""
        return float(np.linalg.norm(self.mat, 2))

    def hs_norm(self):
        """Hilbert-Schmidt (Frobenius) norm of the dense matrix; >= :meth:`norm`."""
        return hs_norm(self.mat)

    def selfadjoint_defect(self):
        """Hilbert-Schmidt distance ||K - K*||_HS."""
        return hs_norm(self.mat - dagger(self.mat))

    def j_real_defect(self):
        """Hilbert-Schmidt distance from commuting with the conjugation J.

        J K J is linear again with dense matrix S conj(K) S, where S is
        the transpose permutation vec(X) -> vec(X^T); on the four-index
        view that is swapping both index pairs and conjugating, so the
        defect ||K - S conj(K) S||_HS needs no dense S.
        """
        n = self.dim
        k = self.mat.reshape(n, n, n, n)
        return float(np.linalg.norm(k - k.transpose(1, 0, 3, 2).conj()))

    def real_form(self):
        """(R, d): R = Re W*KW in the Hermitian basis W of H^J, d = ||Im W*KW||_F.

        W is the orthonormal basis E_jj, (E_jk + E_kj)/sqrt 2, i(E_jk - E_kj)/sqrt 2
        (j < k) of the J-fixed matrices, so a J-real K is the real matrix R, and
        d = ||K - JKJ||_HS / 2 exactly is what R discards.  Two index gathers per
        side, O(n^4); W is never formed.
        """
        diag, up, lo = _hermitian_basis(self.dim)
        K, s = self.mat, np.sqrt(0.5)
        KW = np.hstack([K[:, diag], s * (K[:, up] + K[:, lo]), 1j * s * (K[:, up] - K[:, lo])])
        M = np.vstack([KW[diag], s * (KW[up] + KW[lo]), -1j * s * (KW[up] - KW[lo])])
        return M.real, float(np.linalg.norm(M.imag))

    def eigh(self):
        """Cached (w, V) of (K + K*)/2: eigh of (R + R^T)/2 of :meth:`real_form`, V = W Q.

        Raises ``NotSelfAdjoint`` if ||K - K*||_HS > ``SELFADJOINT_TOL`` max(1, ||K||_HS),
        then ``NotJReal`` if d > ``JREAL_TOL`` max(1, ||R||_F); a refused K caches nothing.
        Both bars are relative, so a K of large couplings rounds under them.
        """
        if self._eig is None:
            defect = self.selfadjoint_defect()
            if defect > SELFADJOINT_TOL * max(1.0, self.hs_norm()):
                raise NotSelfAdjoint(f"operator is {defect:.3e} from self-adjoint; refusing to "
                                     "exponentiate a one-sided spectral decomposition")
            R, d = self.real_form()
            if d > JREAL_TOL * max(1.0, hs_norm(R)):
                raise NotJReal(f"superoperator is {2 * d:.3e} from J-real; no real form")
            w, Q = np.linalg.eigh((R + R.T) / 2.0)
            diag, up, lo = _hermitian_basis(self.dim)
            sym, anti = np.split(Q[len(diag):], 2)
            V = np.empty_like(self.mat)
            V[diag], V[up] = Q[: len(diag)], np.sqrt(0.5) * (sym + 1j * anti)
            V[lo] = V[up].conj()
            self._eig = (w, V)
        return self._eig

    def __add__(self, other):
        return SuperOperator(self.mat + other.mat, self.dim)

    def __sub__(self, other):
        return SuperOperator(self.mat - other.mat, self.dim)

    def __mul__(self, scalar):
        return SuperOperator(self.mat * scalar, self.dim)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SuperOperator(dim={self.dim})"
