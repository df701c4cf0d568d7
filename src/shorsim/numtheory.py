"""Arbitrary-precision integer number theory.

Everything here runs on plain Python ints, which are unbounded, so the
same code path serves N = 15 and a 20000-bit semiprime. The classical
half of the factoring pipeline lives in this module: primality
testing, brute-force order finding (test oracle only, guarded) and
decimal I/O. Modular powers and gcds need no wrapper: callers use the
interpreter's pow and math.gcd directly; the continued fraction of a
readout is walked where it is read, in postprocess.extract_period.

Primality is the Baillie-PSW test (R. Baillie and S. Wagstaff, "Lucas
pseudoprimes", Math. Comp. 35 (1980) 1391-1417): deterministic, with
no RNG, and with no known composite that passes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, RefusedTooLargeError

# Brute-force order scan refuses above this; order finding is the hard
# part, so the linear-scan oracle stays a small-n tool by construction.
ORDER_SCAN_LIMIT = 1 << 24

# Constructors validate primality only up to this bit size. A primality
# test costs about 0.07 s on a 2048-bit prime (0.01 s at 1024 bits;
# Python 3.11 on a 2.1 GHz Intel Xeon core), so beyond it callers are
# expected to vouch for their inputs (the supplementary-scale fixtures
# are verified arithmetically instead).
AUTO_PRIMALITY_BIT_LIMIT = 2048

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


def _check_integers(**values: int) -> None:
    """Refuse a bool or a non-integer, naming the argument."""
    for name, v in values.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(
                f"{name} must be an integer, got {type(v).__name__}")


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


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = frozenset(_sieve(1000))
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)
_TRIAL_DIVISION_BOUND = 997 ** 2  # the square of the table's last prime


def _is_small_prime(n: int) -> Optional[bool]:
    """Trial division by the primes below 1000; None means undecided.

    Below 1000 the table decides. Above, one gcd with the table's
    product finds any small factor, and without one n is prime if it
    lies below the square of the table's last prime.
    """
    if n < 1000:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    return True if n < _TRIAL_DIVISION_BOUND else None


def _strong_probable_prime_base2(n: int) -> bool:
    """Strong probable-prime test to base 2, for odd n > 2."""
    m = n - 1
    s = (m & -m).bit_length() - 1  # m = d * 2**s with d odd
    x = pow(2, m >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for
    odd n > 2: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D)/4.

    With n + 1 = d * 2**s, d odd, n passes if U_d = 0 or V_d*2**r = 0
    mod n for some 0 <= r < s. Only V values are computed. With Q a unit
    mod n, W_k = V_2k / Q**k is the Lucas V sequence of (P', 1) with
    P' = Q**-1 - 2, so W_2k = W_k**2 - 2 and W_2k+1 = W_k W_k+1 - P',
    and no power of Q is tracked. With h = (d + 1)/2 (Crandall and
    Pomerance, Prime Numbers, section 3.6):

    - U_d = 0 iff W_h = W_h-1, since W_h - W_h-1 is U_d times a unit;
    - V_d = 0 iff W_h + W_h-1 = 0, since that sum is V_d times a unit;
    - for r >= 1, V_d*2**r = 0 iff W_d*2**(r-1) = 0, where
      W_d = W_h W_h-1 - P'.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    if math.gcd(Q, n) != 1:
        return False  # unreachable past the D search, but pow needs a unit
    m = n + 1
    s = (m & -m).bit_length() - 1  # m = d * 2**s with d odd
    d = m >> s
    h = (d + 1) >> 1
    # Montgomery ladder on (W_k, W_k+1) from (W_0, W_1) = (2, P') up to
    # k = h - 1, two products per bit.
    p1 = (pow(Q, -1, n) - 2) % n
    w0, w1 = 2, p1
    for bit in bin(h - 1)[2:]:
        if bit == "1":
            w0, w1 = (w0 * w1 - p1) % n, (w1 * w1 - 2) % n
        else:
            w0, w1 = (w0 * w0 - 2) % n, (w0 * w1 - p1) % n
    # now w0 = W_h-1 and w1 = W_h
    if w1 == w0 or (w1 + w0) % n == 0:
        return True  # U_d = 0, or V_d = 0
    w = (w1 * w0 - p1) % n  # W_d
    for _ in range(s - 1):
        if w == 0:
            return True  # V_d*2**r = 0 for r = 1 .. s - 1
        w = (w * w - 2) % n
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: trial division against a fixed table, then a strong
    probable-prime test to base 2 and a strong Lucas test (Baillie and
    Wagstaff 1980).

    Deterministic, with no RNG. No composite that passes both strong
    tests is known, and none exists below 2**64.
    """
    _check_nonneg(n)
    quick = _is_small_prime(n)
    if quick is not None:
        return quick
    return _strong_probable_prime_base2(n) and _strong_lucas_probable_prime(n)


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
            _check_integers(p=self.p, q=self.q)
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


def signed_decimal(value: int) -> str:
    """to_decimal for an integer of either sign, as str() writes it."""
    return "-" + to_decimal(-value) if value < 0 else to_decimal(value)
