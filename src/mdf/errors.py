"""Exception taxonomy for the mdf package.

Every error raised by the library is a subclass of :class:`MdfError`, so
callers can catch the whole family with one handler while the CLI maps
input-validation failures to exit code 2.
"""

import sys


class MdfError(Exception):
    """Base class for all mdf errors."""


class NotAState(MdfError):
    """Input density matrix is not Hermitian or not trace one."""


class NotFaithful(MdfError):
    """Density matrix has an eigenvalue below the faithfulness floor."""


class DimMismatch(MdfError):
    """Matrix or vector dimensions are inconsistent."""


class NotJReal(MdfError):
    """A vector expected to be J-real (Hermitian) is not."""


class NoConvergence(MdfError):
    """An iterative routine hit its iteration cap with a large residual."""


class Overflow(MdfError):
    """A modular exponent would overflow double precision."""


class QuadratureNotConverged(MdfError):
    """Adaptive quadrature failed to reach its relative target."""


class BalanceViolated(MdfError):
    """The coefficient family does not satisfy the balance condition."""


class NotAdmissible(MdfError):
    """Kernel function lacks an admissibility certificate."""


class NotSelfAdjoint(MdfError):
    """Operator expected to be self-adjoint is not, beyond tolerance."""


class SchemaError(MdfError):
    """Scenario file does not conform to the expected schema."""


def finite_number(value, path):
    """A JSON scalar as a float; SchemaError at ``path`` unless a finite non-bool number.

    ``json.load`` gives NaN, infinities and exact huge integers; none is within the largest double.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise SchemaError(f"{path}: expected a finite number")
