"""Classical bookends of the factoring loop.

Base selection with the gcd shortcut, period recovery from a measured
readout via continued fractions (two integers: the period and its
multiplier), factor derivation (including the perfect-square rescue
for odd periods), and the one retry loop of the honest, compiled and
coin modes that turns all of it into a FactorReport. Every report
carries a plainly worded note comparing the bit length of the period
actually found against the bit length of the modulus; for the compiled
path those two numbers tell the whole story.

The compiled two-qubit circuit's readout is an unbiased bit, so a fair
coin is a drop-in replacement: heads plays y = 1 (period recovered),
tails plays y = 0 (try again). Coin mode runs that replacement inside
the loop, and coin_factor_demo counts a series of the same tosses in
pure Python with one-sigma binomial error bars.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from ._pcg64 import random_stream
from .compiler import (
    QubitBudget,
    build_compiled_circuit,
    build_semiclassical_stages,
    find_period2_base,
    zalka_qubit_count,
)
from .errors import DomainError, RefusedTooLargeError
from .numtheory import (
    AUTO_PRIMALITY_BIT_LIMIT,
    Semiprime,
    _SMALL_PRIMES,
    _check_integers,
    _check_nonneg,
    is_probable_prime,
    signed_decimal,
    to_decimal,
)
from .simulator import run_circuit

# Small multiples of each convergent denominator tried during period
# recovery; the measured y often encodes r/gcd(r, something) so a short
# multiple sweep recovers the full period cheaply.
MAX_PERIOD_MULTIPLIER = 4

DEFAULT_MAX_ATTEMPTS = 64

# The toss series counts 0.8-1.1 million tosses a second in pure Python
# (Python 3.11, one Xeon core), so this bounds a coin demo at about
# 15-20 s of series.
MAX_COIN_TOSSES = 1 << 24

MODE_HONEST = "honest-random-base"
MODE_COMPILED = "compiled-crt"
MODE_COIN = "coin"

_MODES = {"honest": MODE_HONEST, "compiled": MODE_COMPILED, "coin": MODE_COIN}


def extract_period(y: int, s_pow: int, a: int,
                   n: int) -> Optional[tuple[int, int]]:
    """Recover the period of a mod n from one measured readout y, as
    the pair (r, k) of the period and its multiplier, or None.

    Walks the continued fraction y/s_pow = [a_0; a_1, ...] and keeps the
    convergent denominators q_i = a_i q_(i-1) + q_(i-2). Tries the
    candidates k*q_i for k = 1..MAX_PERIOD_MULTIPLIER, every denominator
    at k before any at k+1, and returns the first that verifies; k = 1
    means the denominator itself was the period (a direct hit).
    Candidates above n are skipped, and one already tried (the second
    denominator 1 when y/s_pow > 1/2) is not tried again. y = 0 is
    always uninformative.
    """
    _check_nonneg(y, s_pow)
    if y >= s_pow:
        raise DomainError("expected y < s_pow")
    if n < 2:
        raise DomainError("modulus must be at least 2")
    if y == 0:
        return None
    denominators = []
    q2, q1 = 1, 0  # q_(-2) and q_(-1), so that q_0 = 1
    num, den = y, s_pow
    while den:
        digit, rem = divmod(num, den)
        q2, q1 = q1, digit * q1 + q2
        denominators.append(q1)
        num, den = den, rem
    seen: set[int] = set()
    for k in range(1, MAX_PERIOD_MULTIPLIER + 1):
        for q in denominators:
            candidate = k * q
            if candidate > n or candidate in seen:
                continue
            seen.add(candidate)
            if pow(a, candidate, n) == 1:
                return candidate, k
    return None


def derive_factors(a: int, r: int, n: int) -> Optional[tuple[int, int]]:
    """Split n using a verified period r of a.

    Even r: splits at x = a**(r/2), returning the gcd pair (x-1, n),
    (x+1, n) when both are nontrivial; x = n-1 is the dead end that
    sends the caller back for a new base. Odd r: when a = b*b exactly,
    b has period dividing 2r, so n can still split at x = b**r; any
    other base returns None. Returns the pair in ascending order.
    """
    if r < 1:
        raise DomainError("period must be positive")
    if n < 2:
        raise DomainError("modulus must be at least 2")
    if pow(a, r, n) != 1:
        raise DomainError(f"{signed_decimal(a)}**{to_decimal(r)} is not 1 "
                          f"mod {signed_decimal(n)}: not a period")
    if r % 2 == 0:
        return _split_at(pow(a, r // 2, n), n)
    b = math.isqrt(a)
    if b * b != a:
        return None
    return _split_at(pow(b, r, n), n)


def _split_at(x: int, n: int) -> Optional[tuple[int, int]]:
    """gcd(x - 1, n) and gcd(x + 1, n) in ascending order, or None
    unless both are nontrivial (x = n-1 gives gcd(x + 1, n) = n)."""
    g1 = math.gcd(x - 1, n)
    g2 = math.gcd(x + 1, n)
    if 1 < g1 < n and 1 < g2 < n:
        lo, hi = sorted((g1, g2))
        return lo, hi
    return None


@dataclass(frozen=True)
class AttemptRecord:
    """One pass through the loop: which base, what came out of it."""

    index: int
    base: int
    y: Optional[int]
    period: Optional[int]
    multiplier: Optional[int]
    outcome: str  # gcd-shortcut | factored | no-period | period-without-factors

    @property
    def gcd_shortcut(self) -> bool:
        return self.outcome == "gcd-shortcut"

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "base": to_decimal(self.base),
            "gcd_shortcut": self.gcd_shortcut,
            "y": None if self.y is None else to_decimal(self.y),
            "period": self.period,
            "multiplier": self.multiplier,
            "outcome": self.outcome,
        }


@dataclass(frozen=True)
class FactorReport:
    """Outcome of a full factoring run: the attempts and what they found.

    factors is None when every attempt came up empty; that is a normal
    result, not an exception, but factors are set exactly when the last
    attempt split n. The summary fields (base_used, attempts,
    gcd_shortcut, period_found, qubit_budget, honesty_note) are read
    from n, mode and attempt_details, which must not be empty.
    """

    n: int
    factors: Optional[tuple[int, int]]
    mode: str
    seed: int
    attempt_details: tuple[AttemptRecord, ...]

    def __post_init__(self) -> None:
        if not self.attempt_details:
            raise DomainError("a report needs at least one attempt")
        last = self.attempt_details[-1].outcome
        if (self.factors is None) == (last in ("gcd-shortcut", "factored")):
            raise DomainError(
                f"factors {self.factors} disagree with the last attempt's "
                f"outcome, {last}"
            )
        if self.factors is not None:
            f1, f2 = self.factors
            if f1 * f2 != self.n or f1 <= 1 or f2 <= 1:
                raise DomainError(
                    "reported factors must be nontrivial and multiply to n"
                )

    @property
    def base_used(self) -> int:
        return self.attempt_details[-1].base

    @property
    def attempts(self) -> int:
        return len(self.attempt_details)

    @property
    def gcd_shortcut(self) -> bool:
        return self.attempt_details[-1].gcd_shortcut

    @property
    def period_found(self) -> Optional[int]:
        last = self.attempt_details[-1]
        return last.period if last.outcome == "factored" else None

    @property
    def qubit_budget(self) -> QubitBudget:
        return zalka_qubit_count(self.n)

    @property
    def honesty_note(self) -> str:
        """The scorecard line: period size found versus modulus size;
        coin runs word it as tosses."""
        n_bits, period = self.n.bit_length(), self.period_found
        intact = f"the {n_bits}-bit modulus remains intact"
        if self.mode == MODE_COIN and period is None:
            return (f"no heads in {self.attempts} tosses, so no period this "
                    f"series; {intact}")
        if self.mode == MODE_COIN:
            return (
                f"period found by coin toss: r = {period} "
                f"({period.bit_length()} bits) against a {n_bits}-bit "
                f"modulus; a fair coin replaced the circuit, and their "
                f"outcome distributions are identical"
            )
        if period is not None:
            r_bits = period.bit_length()
            return (
                f"period found: r = {period} ({r_bits} "
                f"bit{'s' if r_bits != 1 else ''}) against a {n_bits}-bit "
                f"modulus; the meaningful size here is the {r_bits}-bit "
                f"period, not the {n_bits}-bit number"
            )
        if self.gcd_shortcut:
            return (
                f"factors fell out of a classical gcd; no period was "
                f"measured, so nothing quantum is demonstrated on this "
                f"{n_bits}-bit modulus"
            )
        return f"no usable period recovered; {intact}"

    def to_json_dict(self) -> dict:
        return {
            "n": to_decimal(self.n),
            "factors": None if self.factors is None else [
                to_decimal(self.factors[0]), to_decimal(self.factors[1])
            ],
            "base_used": to_decimal(self.base_used),
            "period_found": self.period_found,
            "attempts": self.attempts,
            "mode": self.mode,
            "qubit_budget": self.qubit_budget.to_json_dict(),
            "seed": to_decimal(self.seed),
            "honesty_note": self.honesty_note,
            "gcd_shortcut": self.gcd_shortcut,
            "attempt_details": [a.to_json_dict() for a in self.attempt_details],
        }

    def render_text(self) -> str:
        """Human-readable rendering; the honesty line comes first."""
        lines = [f"HONESTY  {self.honesty_note}"]
        lines.append(f"modulus  {_short_decimal(self.n)}")
        if self.factors is None:
            lines.append("factors  none found")
        else:
            lines.append(f"factors  {_short_decimal(self.factors[0])} x "
                         f"{_short_decimal(self.factors[1])}")
        lines.append(f"base     {_short_decimal(self.base_used)}"
                     + ("  (gcd shortcut)" if self.gcd_shortcut else ""))
        lines.append(f"period   "
                     f"{self.period_found if self.period_found else 'none'}")
        lines.append(f"attempts {self.attempts}")
        lines.append(f"mode     {self.mode}")
        if self.mode == MODE_HONEST:
            lines.append(
                f"qubits   optimized estimate for an uncompiled "
                f"{self.qubit_budget.n_bits}-bit run: "
                f"{self.qubit_budget.zalka_qubits}; the compiled shortcut "
                f"would use {self.qubit_budget.compiled_qubits}"
            )
        else:
            lines.append(
                f"qubits   {self.qubit_budget.compiled_qubits} used here; "
                f"an uncompiled {self.qubit_budget.n_bits}-bit run is "
                f"estimated at {self.qubit_budget.zalka_qubits}"
            )
        lines.append(f"seed     {to_decimal(self.seed)}")
        return "\n".join(lines) + "\n"


def _short_decimal(value: int) -> str:
    text = to_decimal(value)
    if len(text) <= 27:  # no longer than 12 digits, "..." and 12 digits
        return text
    return f"{text[:12]}...{text[-12:]} ({len(text)} digits)"


def canonical_mode(mode: str) -> str:
    try:
        return _MODES[mode]
    except KeyError:
        raise DomainError(
            f"unknown mode {mode!r}; expected honest, compiled, or coin"
        ) from None


def _prime_split(g: int, n: int) -> tuple[int, int]:
    """The split g x n/g of an honest run, refused unless both parts are
    prime: anything else means n is not a product of two primes."""
    lo, hi = sorted((g, n // g))
    for part in (lo, hi):
        if not is_probable_prime(part):
            raise DomainError(
                f"{n} splits as {lo} x {hi}, but {part} is composite, so "
                f"{n} is not a product of two distinct primes"
            )
    return lo, hi


def _perfect_power(n: int) -> Optional[tuple[int, int]]:
    """(b, k) with n = b**k for the least k >= 2, or None.

    Each k-th root is an integer bisection, exact at any size. The
    least such k is prime, as b**(p*m) = (b**m)**p, so below 1000 only
    the primes of numtheory's table are tried.
    """
    for k in range(2, n.bit_length()):
        if k < 1000 and k not in _SMALL_PRIMES:
            continue
        lo, hi = 2, 1 << (n.bit_length() // k + 1)  # hi**k > n
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** k < n:
                lo = mid + 1
            else:
                hi = mid
        if lo ** k == n:
            return lo, k
    return None


def coin_tosses(seed: int):
    """Endless fair-coin tosses, 1 for heads: a double of
    random_stream(seed) below 1/2. The compiled circuit's readout bit
    is unbiased, so a toss plays its y."""
    return (int(u < 0.5) for u in random_stream(seed))


def run_full_algorithm(
    sp: Semiprime,
    mode: str = "honest",
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> FactorReport:
    """The whole loop: pick a base, run the circuit, recover the period,
    derive factors, retry on dead ends.

    Honest mode refuses an n above AUTO_PRIMALITY_BIT_LIMIT bits and a
    prime or perfect-power n, draws bases uniformly from [2, n-2],
    simulates the staged circuit with s = default_s(n), and refuses a
    split with a composite part. Its only quantum size guard is the
    period: a base whose order exceeds MAX_WORK_SPAN ends the run with
    RefusedTooLargeError, whatever the size of n.
    Compiled and coin modes build the one-stage circuit of the CRT
    period-2 base once (factors required).
    Compiled mode simulates it in scalars; coin mode reads y = 1 on
    heads of coin_tosses(seed), the coin that coin_factor_demo's series
    counts, so neither mode loads numpy.
    Every mode refuses a seed or max_attempts that is a bool or not an
    integer, and a negative seed, before any pre-step.
    Deterministic per seed; exhausting max_attempts yields a report
    with factors = None rather than an exception.
    """
    mode = canonical_mode(mode)
    n = sp.n
    if n % 2 == 0:
        raise DomainError("even moduli have the factor 2; nothing to run")
    _check_integers(seed=seed, max_attempts=max_attempts)
    if max_attempts < 1:
        raise DomainError("need at least one attempt")
    if seed < 0:
        raise DomainError(
            f"seed must be nonnegative, got {signed_decimal(seed)}")

    if mode == MODE_HONEST:
        # the quantum size guard is work_orbit's, on each base's period;
        # this one bounds the pre-steps, whose cost grows with n
        if n.bit_length() > AUTO_PRIMALITY_BIT_LIMIT:
            raise RefusedTooLargeError(
                f"honest mode refuses a {n.bit_length()}-bit modulus: its "
                f"classical pre-steps are bounded at "
                f"{AUTO_PRIMALITY_BIT_LIMIT} bits"
            )
        # Shor's classical pre-steps: a prime has nothing to split and a
        # perfect power is no product of two distinct primes, so neither
        # gets a base
        if is_probable_prime(n):
            raise DomainError(f"{n} is prime, so there is nothing to split")
        power = _perfect_power(n)
        if power is not None:
            root, k = power
            raise DomainError(
                f"{n} = {root}**{k} is a perfect "
                f"{'square' if k == 2 else 'power'}, never a product of "
                f"two distinct primes"
            )
    else:
        circuit = build_compiled_circuit(find_period2_base(sp))
        a = circuit.base

    if mode == MODE_COIN:
        tosses = coin_tosses(seed)
    else:
        master = random.Random(seed)
    details: list[AttemptRecord] = []
    factors = None
    for attempt in range(1, max_attempts + 1):
        if mode == MODE_HONEST:
            a = master.randrange(2, n - 1)
            g = math.gcd(a, n)
            if g > 1:
                factors = _prime_split(g, n)
                details.append(AttemptRecord(
                    index=attempt, base=a, y=None, period=None,
                    multiplier=None, outcome="gcd-shortcut",
                ))
                break
            circuit = build_semiclassical_stages(a, n)

        if mode == MODE_COIN:
            y = next(tosses)
        else:
            y, _ = run_circuit(circuit, master.getrandbits(63))
        r, multiplier = extract_period(
            y, 1 << circuit.num_readout_bits, a, n) or (None, None)
        split = r and derive_factors(a, r, n)
        outcome = ("factored" if split else "no-period" if r is None
                   else "period-without-factors")
        details.append(AttemptRecord(
            index=attempt, base=a, y=y, period=r, multiplier=multiplier,
            outcome=outcome,
        ))
        if split:
            # the CRT base splits n into its validated p and q
            factors = (_prime_split(split[0], n) if mode == MODE_HONEST
                       else split)
            break

    return FactorReport(n=n, factors=factors, mode=mode, seed=seed,
                        attempt_details=tuple(details))


@dataclass(frozen=True)
class CoinRun:
    """Toss statistics for one series, with the plug-in binomial error.

    sigma = sqrt(p_hat * (1 - p_hat) / tosses); zero when every toss
    agreed, which is the honest reading of a plug-in estimate.
    """

    label: str
    tosses: int
    heads: int

    def __post_init__(self) -> None:
        if self.tosses < 1:
            raise DomainError("a coin run needs at least one toss")
        if not 0 <= self.heads <= self.tosses:
            raise DomainError("heads count out of range")

    @property
    def p_hat(self) -> float:
        return self.heads / self.tosses

    @property
    def sigma(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.tosses)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "tosses": self.tosses,
            "heads": self.heads,
            "p_hat": self.p_hat,
            "sigma": self.sigma,
        }


def coin_factor_demo(sp: Semiprime, n_tosses: int,
                     seed: int) -> tuple[CoinRun, FactorReport]:
    """Factor a semiprime with a coin.

    The report is run_full_algorithm's coin mode with n_tosses
    attempts: the first heads is read as y = 1 from the compiled
    circuit, giving period 2 and the factors via the CRT base, and all
    tails means no period this series. The CoinRun counts the whole
    series of n_tosses from the same coin_tosses(seed), tosses after the
    first heads included, one at a time, so its memory does not grow
    with n_tosses. Requires known factors, exactly like the compiled
    pipeline it shadows. A count above MAX_COIN_TOSSES is refused with
    RefusedTooLargeError before the report runs or any toss is drawn.
    """
    _check_integers(n_tosses=n_tosses)
    if n_tosses < 1:
        raise DomainError("a coin run needs at least one toss")
    if n_tosses > MAX_COIN_TOSSES:
        raise RefusedTooLargeError(
            f"a coin run of {to_decimal(n_tosses)} tosses exceeds the "
            f"limit of {MAX_COIN_TOSSES} tosses")
    report = run_full_algorithm(sp, mode="coin", seed=seed,
                                max_attempts=n_tosses)
    n_bits = sp.n.bit_length()
    label = to_decimal(sp.n) if n_bits <= 64 else f"{n_bits}-bit semiprime"
    heads = sum(islice(coin_tosses(seed), n_tosses))
    return CoinRun(label, n_tosses, heads), report
