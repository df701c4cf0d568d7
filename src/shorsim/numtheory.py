"""Arbitrary-precision integer number theory.

Everything here runs on plain Python ints, which are unbounded, so the
same code path serves N = 15 and a 20000-bit semiprime. The classical
half of the factoring pipeline lives in this module: checked wrappers
around the interpreter's gcd, modular power and inverse, primality
testing, brute-force order finding (test oracle only, guarded) and
continued fractions. Inside the package, callers whose inputs are
already in range call pow and math.gcd directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, NotInvertibleError, RefusedTooLargeError

# Brute-force order scan refuses above this; order finding is the hard
# part, so the linear-scan oracle stays a small-n tool by construction.
ORDER_SCAN_LIMIT = 1 << 24

# Constructors validate primality only up to this bit size. Beyond it a
# Miller-Rabin pass costs seconds to minutes and callers are expected to
# vouch for their inputs (the supplementary-scale fixtures are verified
# arithmetically instead).
AUTO_PRIMALITY_BIT_LIMIT = 2048

# Miller-Rabin round count; error probability is at most 4**-rounds.
MILLER_RABIN_ROUNDS = 48

# Decimal-conversion helpers work in chunks below CPython's default
# int<->str conversion limit (4300 digits).
_DECIMAL_CHUNK = 4000
_SMALL_THRESHOLD = 10 ** _DECIMAL_CHUNK


def _check_nonneg(*values: int) -> None:
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"expected an integer, got {type(v).__name__}")
        if v < 0:
            raise DomainError("negative values are outside this domain")


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative ints: math.gcd with
    input checks. gcd(a, 0) = a."""
    _check_nonneg(a, b)
    return math.gcd(a, b)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m, in [1, m).

    Raises NotInvertibleError carrying the gcd when a is not a unit;
    that gcd is a factor witness when m is composite.
    """
    _check_nonneg(a, m)
    if m < 2:
        raise DomainError("modulus must be at least 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(a, m, math.gcd(a, m)) from None


def mod_pow(base: int, exp: int, m: int) -> int:
    """base**exp mod m for nonnegative ints: the builtin pow with input
    checks. m = 1 gives 0."""
    _check_nonneg(base, exp, m)
    if m == 0:
        raise DomainError("modulus must be positive")
    return pow(base, exp, m)


def multiplicative_order(a: int, n: int) -> int:
    """Least r >= 1 with a**r = 1 mod n, found by linear scan.

    This is the brute-force oracle the rest of the package is tested
    against, not part of the efficient pipeline; it refuses n at or
    above ORDER_SCAN_LIMIT.
    """
    _check_nonneg(a, n)
    if n < 2:
        raise DomainError("modulus must be at least 2")
    if n >= ORDER_SCAN_LIMIT:
        raise RefusedTooLargeError(
            f"order scan refused: n has {n.bit_length()} bits, "
            f"limit is {ORDER_SCAN_LIMIT.bit_length() - 1}"
        )
    a %= n
    if math.gcd(a, n) != 1:
        raise DomainError(f"{a} is not a unit mod {n}")
    r = 1
    x = a
    while x != 1:
        x = x * a % n
        r += 1
    return r


@dataclass(frozen=True)
class Convergent:
    """One continued-fraction convergent, always in lowest terms."""

    numerator: int
    denominator: int

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def continued_fraction_convergents(y: int, s_pow: int) -> list[Convergent]:
    """Convergent sequence of y/s_pow, ending exactly at y/s_pow.

    The sequence carries strictly increasing denominators: when the
    expansion opens 0/1, 1/1, ... (which happens iff y/s_pow > 1/2) the
    leading 0/1 is dropped, since a run of denominator-1 terms carries
    no candidate information. y = 0 yields the single convergent 0/1.
    """
    _check_nonneg(y, s_pow)
    if s_pow < 1:
        raise DomainError("denominator must be positive")
    if y >= s_pow:
        raise DomainError("expected y < s_pow")
    convergents: list[Convergent] = []
    h2, h1 = 0, 1  # h[-2], h[-1] of the standard recurrence
    k2, k1 = 1, 0
    num, den = y, s_pow
    while den:
        digit, rem = divmod(num, den)
        h2, h1 = h1, digit * h1 + h2
        k2, k1 = k1, digit * k1 + k2
        convergents.append(Convergent(h1, k1))
        num, den = den, rem
    if len(convergents) >= 2 and convergents[0] == Convergent(0, 1) \
            and convergents[1].denominator == 1:
        convergents = convergents[1:]
    return convergents


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(1000)


def _is_small_prime(n: int) -> Optional[bool]:
    """Trial division against a fixed table; None means undecided."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    return None


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a trial-division prefilter.

    MILLER_RABIN_ROUNDS witnesses come from an RNG seeded by n itself,
    so the verdict is deterministic per input. Error probability below
    4**-MILLER_RABIN_ROUNDS.
    """
    _check_nonneg(n)
    quick = _is_small_prime(n)
    if quick is not None:
        return quick
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(n ^ 0x5BF03635)
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_probable_prime(bits: int, rng: random.Random) -> int:
    """Random probable prime with exactly `bits` bits."""
    if bits < 2:
        raise DomainError("a prime needs at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def _validate_odd_prime(x: int, name: str) -> None:
    if x <= 2 or x % 2 == 0:
        raise DomainError(f"{name} must be an odd number greater than 2")
    if x.bit_length() <= AUTO_PRIMALITY_BIT_LIMIT and not is_probable_prime(x):
        raise DomainError(f"{name} failed the primality check")


@dataclass(frozen=True)
class Semiprime:
    """A composite modulus with optionally known prime factors.

    Knowing p and q is the compiled pipeline's explicit cheat: the
    factorization goes in before any circuit runs. Factors up to
    AUTO_PRIMALITY_BIT_LIMIT bits are primality-checked on construction;
    larger ones get arithmetic checks only. The instance is frozen, so
    that one verdict per prime stands for every later use.
    """

    n: int
    p: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self) -> None:
        _check_nonneg(self.n)
        if self.n < 4:
            raise DomainError("n must be composite, so at least 4")
        if (self.p is None) != (self.q is None):
            raise DomainError("provide both factors or neither")
        if self.p is not None and self.q is not None:
            if self.p * self.q != self.n:
                raise DomainError("p * q must equal n")
            if self.p == self.q:
                raise DomainError("factors must be distinct")
            _validate_odd_prime(self.p, "p")
            _validate_odd_prime(self.q, "q")

    @classmethod
    def from_factors(cls, p: int, q: int) -> "Semiprime":
        return cls(p * q, p, q)

    @property
    def has_factors(self) -> bool:
        return self.p is not None

    @property
    def factors(self) -> tuple[int, int]:
        if self.p is None or self.q is None:
            raise DomainError("factors are not known for this modulus")
        lo, hi = sorted((self.p, self.q))
        return lo, hi


def parse_decimal(text: str) -> int:
    """Parse a nonnegative decimal integer of any length.

    Whitespace (including newlines) is ignored anywhere in the input.
    Works in chunks, so it is immune to CPython's default 4300-digit
    int/str conversion limit.
    """
    digits = "".join(text.split())
    if not digits:
        raise DomainError("empty decimal input")
    if not digits.isascii() or not digits.isdigit():
        raise DomainError("decimal input may contain only digits 0-9")
    value = 0
    for i in range(0, len(digits), _DECIMAL_CHUNK):
        chunk = digits[i:i + _DECIMAL_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def to_decimal(value: int) -> str:
    """Render a nonnegative integer as decimal digits, any length.

    Divide-and-conquer on digit count; each str() call stays under the
    interpreter's conversion limit.
    """
    _check_nonneg(value)
    if value < _SMALL_THRESHOLD:
        return str(value)
    # Rough decimal length from the bit length; only used to pick a split.
    approx_digits = value.bit_length() * 30103 // 100000 + 1
    half = approx_digits // 2
    hi, lo = divmod(value, 10 ** half)
    return to_decimal(hi) + to_decimal(lo).rjust(half, "0")
