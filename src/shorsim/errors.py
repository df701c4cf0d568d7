"""Exception taxonomy shared by every shorsim module."""


class ShorsimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShorsimError, ValueError):
    """An input violates a documented precondition."""


class NotInvertibleError(DomainError):
    """Modular inverse requested for a non-unit.

    Carries the offending gcd: when the modulus is the number being
    factored, that gcd is itself a nontrivial factor.
    """

    def __init__(self, value: int, modulus: int, gcd: int):
        super().__init__(
            f"{value} is not invertible mod {modulus}: gcd = {gcd}"
        )
        self.value = value
        self.modulus = modulus
        self.gcd = gcd


class RefusedTooLargeError(ShorsimError):
    """A size guard refused the computation rather than thrash or hang."""


class CompilationRequiresFactorsError(DomainError):
    """Compiled mode was asked to run without the factorization it needs.

    Building a period-2 base requires p and q up front. That is the whole
    trick, and the API refuses to pretend otherwise.
    """


class NotCompilableError(DomainError):
    """A base without period 2 cannot be lowered to the two-qubit circuit."""


class CircuitFormatError(ShorsimError, ValueError):
    """A circuit is out of range, or a circuit document is malformed."""


class SimulationError(ShorsimError):
    """Internal consistency violation during state-vector execution."""


class VerificationError(ShorsimError):
    """A verification command found values that do not check out."""
