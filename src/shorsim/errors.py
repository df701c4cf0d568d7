"""Exception taxonomy shared by every shorsim module."""


class ShorsimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShorsimError, ValueError):
    """An input violates a documented precondition.

    An invalid circuit (modulus, base, stage count) is one; Circuit,
    work_orbit, build_semiclassical_stages and dft_oracle_distribution
    each check the parts they are given.
    """


class RefusedTooLargeError(ShorsimError):
    """A size guard refused the computation rather than thrash or hang."""


class CompilationRequiresFactorsError(DomainError):
    """Compiled mode was asked to run without the factorization it needs.

    Building a period-2 base requires p and q up front. That is the whole
    trick, and the API refuses to pretend otherwise.
    """


class NotCompilableError(DomainError):
    """A base without period 2 cannot be lowered to the two-qubit circuit."""


class SimulationError(ShorsimError):
    """Internal consistency violation during state-vector execution."""


class VerificationError(ShorsimError):
    """A verification command found values that do not check out."""
