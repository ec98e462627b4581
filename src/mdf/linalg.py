"""Dense linear-algebra helpers shared across the package.

Conventions used everywhere:

* An element of the Hilbert space is an n x n complex matrix ``X`` with
  inner product ``<X, Y> = Tr(X* Y)`` (conjugate linear in the first slot).
* Vectorization is row-major: ``vec(X)[j*n + k] = X[j, k]``, so that
  ``vec(A X B) = kron(A, B.T) @ vec(X)``.
"""

import numpy as np

from .errors import DimMismatch


def dagger(A):
    """Conjugate transpose of a matrix, or of each matrix of a stack (last two axes)."""
    return np.asarray(A).conj().swapaxes(-1, -2)


def hs_inner(X, Y):
    """Trace inner product Tr(X* Y), the entrywise sum of conj(X) Y, conjugate linear in X.

    Stacks (k, n, n) give one value per member (broadcasting like ``@``).
    """
    v = np.einsum("...ij,...ij->...", np.conj(X), Y)
    return complex(v) if np.ndim(v) == 0 else v


def hs_norm(X):
    """Norm induced by the trace inner product (Frobenius norm)."""
    return float(np.linalg.norm(X, "fro"))


def check_square(A, n=None, what="matrix"):
    """Return A as a complex square ndarray, checking the dimension."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"{what} has shape {A.shape}, expected square")
    if n is not None and A.shape[0] != n:
        raise DimMismatch(f"{what} has dimension {A.shape[0]}, expected {n}")
    return A


def check_square_or_stack(A, n, what="matrix"):
    """Return A as a complex n x n matrix or (k, n, n) stack, checking the shape."""
    A = np.asarray(A, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-2:] != (n, n):
        raise DimMismatch(f"{what} has shape {A.shape}, expected ({n}, {n}) or (k, {n}, {n})")
    return A


def hermitian_defect(A):
    """Spectral-norm distance from A to its own conjugate transpose."""
    return float(np.linalg.norm(A - dagger(A), 2))


def eigh_fixed(A):
    """Eigendecomposition of a Hermitian matrix with fixed conventions.

    Eigenvalues are returned in descending order via a stable sort (ties
    keep the ascending-LAPACK relative order), and each eigenvector's
    phase is fixed so that its first component of significant magnitude
    is real and positive.  This makes the decomposition reproducible for
    a given input; within a degenerate eigenvalue block the basis is
    whatever LAPACK returns, which is harmless downstream because all
    derived quantities depend only on the spectral projections.

    Returns
    -------
    w : (n,) float array, descending
    V : (n, n) complex array, columns are eigenvectors
    """
    w, V = np.linalg.eigh(np.asarray(A, dtype=complex))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for i in range(V.shape[1]):
        col = V[:, i]
        idx = np.argmax(np.abs(col) > 0.1 * np.abs(col).max())
        phase = col[idx] / abs(col[idx])
        V[:, i] = col / phase
    return w, V


def psd_clip(A):
    """Nearest positive semidefinite matrix to Hermitian A (spectral clip).

    A stack (k, n, n) is clipped member by member with one batched ``eigh``.
    """
    w, V = np.linalg.eigh(A)
    w = np.maximum(w, 0.0)
    return (V * w[..., None, :]) @ dagger(V)


def min_eigenvalue(A):
    """Smallest eigenvalue of a Hermitian matrix, or of each member of a stack (k, n, n)."""
    w = np.linalg.eigvalsh(A)[..., 0]
    return float(w) if w.ndim == 0 else w


# ---------------------------------------------------------------------------
# Seeded random matrix samplers (Ginibre convention: entries ~ CN(0, 1))
# ---------------------------------------------------------------------------

def ginibre(n, rng, shape=()):
    """Complex Ginibre matrix, entries (g + i g') / sqrt(2); a stack of leading shape ``shape``.

    The stack is one ``standard_normal(shape + (2, n, n))`` block, the
    same stream as drawing its members one at a time in C order.
    """
    return ginibre_from_normals(rng.standard_normal(tuple(shape) + (2, n, n)))


def ginibre_from_normals(Z):
    """The Ginibre matrices of standard normal pairs Z (..., 2, n, n): (Z_0 + i Z_1) / sqrt(2).

    Written into one complex array, with no complex temporaries.
    """
    G = np.empty(Z.shape[:-3] + Z.shape[-2:], dtype=complex)
    G.real, G.imag = Z[..., 0, :, :], Z[..., 1, :, :]
    G /= np.sqrt(2.0)
    return G


def hermitian_from_ginibre(G):
    """GUE-style Hermitian part (G + G*) / 2 of a Ginibre matrix or of each member of a stack."""
    return (G + dagger(G)) / 2.0


def psd_from_ginibre(G):
    """Positive semidefinite G G* of a Ginibre matrix or of each member of a stack."""
    return G @ dagger(G)


def random_hermitian(n, rng):
    """GUE-style Hermitian matrix built from a Ginibre sample."""
    return hermitian_from_ginibre(ginibre(n, rng))


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return unitary_from_ginibre(ginibre(n, rng))


def unitary_from_ginibre(G):
    """The Haar unitary of a Ginibre matrix, or of each member of a stack (k, n, n).

    Q of the QR decomposition with each column's phase fixed by R's diagonal.
    """
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]
