"""Exception hierarchy for g2frob.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from G2FrobError so a CLI or batch driver can catch the
family in one clause.  Input-shaped problems (bad curve data, bad parameters)
and resource guards (scan too large, degree blowup) are kept distinct because
they map to different process exit codes.
"""


class G2FrobError(Exception):
    """Base class for all g2frob errors."""


class InputError(G2FrobError):
    """Invalid mathematical input (maps to CLI exit code 2)."""


class ResourceGuardError(G2FrobError):
    """A computation was refused because it exceeds a size guard (exit code 3)."""


class NonUnitError(InputError):
    """Division by a non-unit (zero in a field, zero body in dual numbers)."""


class UnsupportedRing(InputError):
    """Operation not defined on this coefficient ring (e.g. Frobenius on duals)."""


class EvenCharacteristic(InputError):
    """The characteristic must be an odd prime."""


class DegreeNotFive(InputError):
    """The curve model requires a monic polynomial of degree exactly 5."""


class NotSquarefree(InputError):
    """gcd(f, f') != 1, so y^2 = f(x) is not a smooth genus-2 model."""


class DivisionByZero(InputError):
    """Division by the zero element of the function field."""


class ZeroDifferential(InputError):
    """A nonzero differential was required (e.g. to define a dual derivation)."""


class ZeroVector(InputError):
    """A nonzero vector was required."""


class NotFlat(InputError):
    """The supplied form does not define a connection with vanishing p-curvature."""


class NotTorsion(InputError):
    """The supplied global form is not a nonzero element of the flat locus."""


class RangeError(InputError):
    """A numeric parameter is outside its documented domain."""


class DegreeOverflow(ResourceGuardError):
    """Polynomial degrees exceeded the curve's configured cap.

    Derivation towers grow degrees roughly linearly per step; the cap makes
    runaway growth diagnosable instead of silently eating memory.
    """


class FieldTooLargeForBrute(ResourceGuardError):
    """A brute-force enumeration was refused because the field is too large."""


class PrimeTooLarge(ResourceGuardError):
    """A computation whose cost grows with p was refused because p exceeds
    its documented limit."""
