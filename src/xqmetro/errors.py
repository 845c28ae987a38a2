"""Exception types shared across the package."""


class XQMetroError(Exception):
    """Base class for all xqmetro errors."""


class NotHermitianError(XQMetroError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(XQMetroError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class NotXFormError(XQMetroError):
    """Dense matrix has support outside the X pattern."""


class TraceViolationError(XQMetroError):
    """State trace differs from one beyond tolerance."""


class BlockNotPSDError(XQMetroError):
    """A 2x2 block violates positive semidefiniteness."""


class BadParameterError(XQMetroError):
    """Model parameter outside its admissible range."""


class BadProbabilityError(BadParameterError):
    """Channel probability outside [0, 1]."""


class SingularBlockError(XQMetroError):
    """Block is singular where a mixed-regime closed form was requested."""


class NotConvergedError(XQMetroError, RuntimeError):
    """Iterative eigensolver ran out of sweeps before converging.

    Also a ``RuntimeError``, so handlers written for the bare error still
    catch it.
    """
