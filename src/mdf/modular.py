"""Analytic modular calculus for a standard form.

Every map here is an entrywise multiplier in the rho-eigenbasis: the
flow at complex time z multiplies the (j, k) entry by exp(i z kappa_jk),
and a kernel smear multiplies it by the kernel transform at kappa_jk.
The quadrature oracles are the same multipliers with the transform taken
from ``hat_quadrature`` instead of the closed form.
The same mechanism lifts to superoperators, whose double-index entries
pick up the transform at differences of the exponents; that lift is
what makes the exact spectral engine of the Dirichlet module possible.
Superoperator smears and quarter-shift maps are such multipliers; the
flow's multiplier factors, so it is the sandwich Delta^{iz} K Delta^{-iz}.
"""

import numpy as np

from .errors import Overflow
from .kernels import F0Kernel
from .linalg import check_square_or_stack

OVERFLOW_EXPONENT = 700.0

D_PLUS_QUARTER = "D_plus_quarter"
D_MINUS_QUARTER = "D_minus_quarter"
T_MAP = "T"
S_MAP = "S"


def _guard_exponent(grid, im_z):
    worst = abs(im_z) * float(np.max(np.abs(grid)))
    if worst > OVERFLOW_EXPONENT:
        raise Overflow(
            f"modular exponent {worst:.1f} exceeds the double-precision guard "
            f"({OVERFLOW_EXPONENT:g})"
        )


def _multiply_entrywise(sf, A, factors):
    A = check_square_or_stack(A, sf.dim, "operator")
    return sf.from_eigenbasis(sf.to_eigenbasis(A) * factors)


def sigma(sf, A, z):
    """Modular flow at complex time z: sigma_z(A) = Delta^{iz} A Delta^{-iz}.

    In the rho-eigenbasis the (j, k) entry is multiplied by
    exp(i z kappa_jk); for real z this is the unitary conjugation by
    rho^{iz}, for z = -i/4 it is rho^{1/4} A rho^{-1/4}, etc.  A stack
    (k, n, n) is mapped member by member, at one z or at one z per
    member (z of shape (k,)).

    Raises
    ------
    Overflow
        If |Im z| * max|kappa| exceeds the exponent guard.
    """
    z = np.asarray(z, dtype=complex)
    _guard_exponent(sf.kappa, np.abs(z.imag).max(initial=0.0))
    return _multiply_entrywise(sf, A, np.exp(1j * z[..., None, None] * sf.kappa))


def _quarter_shift_factors(grid, which):
    """Factor table of the quarter-shift maps on an exponent grid.

    D_{1/4} carries e^{grid/4}, D_{-1/4} e^{-grid/4}; T and S are their
    sum and difference.  Shared by the matrix and superoperator levels.
    """
    e = np.exp(grid / 4.0)
    if which == D_PLUS_QUARTER:
        return e
    if which == D_MINUS_QUARTER:
        return 1.0 / e
    if which == T_MAP:
        return e + 1.0 / e
    if which == S_MAP:
        return e - 1.0 / e
    raise ValueError(f"unknown modular map {which!r}")


def modular_map(sf, A, which):
    """One of the quarter-shift maps D_{1/4}, D_{-1/4}, T = sum, S = difference.

    D_{1/4}(A) = sigma_{-i/4}(A) carries the entrywise factor e^{kappa/4},
    D_{-1/4} the factor e^{-kappa/4}; T and S combine them.
    """
    _guard_exponent(sf.kappa, 0.25)
    return _multiply_entrywise(sf, A, _quarter_shift_factors(sf.kappa, which))


def apply_I0(sf, A):
    """The inverse of T: smearing with the distinguished kernel f0.

    Entrywise the factor is (e^{kappa/4} + e^{-kappa/4})^{-1}, which is
    the closed-form transform of f0 at kappa.
    """
    return _multiply_entrywise(sf, A, F0Kernel().hat(sf.kappa))


def smear(sf, A, f):
    """Weighted flow average  int sigma_t(A) f(t) dt.

    The (j, k) entry of A is multiplied by the kernel transform at
    kappa_jk.  Operands that are products of shifted flows should be
    pre-shifted by the caller via :func:`sigma`; the integrand is then a
    plain flow orbit of the shifted product.
    """
    return _multiply_entrywise(sf, A, f.hat(sf.kappa))


def smear_quadrature(sf, A, f):
    """Quadrature route for  int sigma_t(A) f(t) dt  (oracle route).

    The orbit of eigenbasis entry (j, k) is the pure phase
    e^{i t kappa_jk}, so the integral is the entrywise multiplier by the
    kernel transform computed by t-quadrature plus its analytic tail:
    the matrix-level twin of :func:`superop_smear_quadrature`.  Raises
    ``QuadratureNotConverged`` when panel refinement moves the transform.
    """
    return _multiply_entrywise(sf, A, f.hat_quadrature(sf.kappa))


# ---------------------------------------------------------------------------
# The same calculus one level up: maps on superoperators
# ---------------------------------------------------------------------------

def superop_smear(sf, K, f):
    """Smear a superoperator along the flow:  int Delta^{it} K Delta^{-it} f(t) dt.

    Entrywise in the eigenbasis double-index coordinates this multiplies
    by the kernel transform at nu_a - nu_b.
    """
    return sf.superop_multiplier(K, f.hat(sf.superop_frequencies))


def superop_sigma(sf, K, z):
    """Flow conjugation Delta^{iz} K Delta^{-iz}: one sandwich by rho^{iz} and rho^{-iz}."""
    z = complex(z)
    _guard_exponent(sf.kappa, 2 * z.imag)  # max|nu_a - nu_b| = 2 max|kappa|
    r, r_inv = sf.rho_power(1j * z), sf.rho_power(-1j * z)
    return K.sandwiched(r, r_inv, r_inv, r)


def superop_modular_map(sf, K, which):
    """Quarter-shift maps lifted to superoperators (same four as modular_map)."""
    _guard_exponent(sf.superop_frequencies, 0.25)
    return sf.superop_multiplier(K, _quarter_shift_factors(sf.superop_frequencies, which))


def superop_smear_quadrature(sf, K, f):
    """Quadrature route for the superoperator flow average (oracle route).

    The double-index entries of K carry pure phase orbits, so the
    integral reduces entrywise to the kernel transform computed by
    t-quadrature plus its analytic tail.  Exercises the kernel's
    pointwise values where :func:`superop_smear` uses the closed-form
    transform.
    """
    return sf.superop_multiplier(K, f.hat_quadrature(sf.superop_frequencies))
