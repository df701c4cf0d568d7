"""Classical bookends of the factoring loop.

Base selection with the gcd shortcut, period recovery from a measured
readout via continued fractions, factor derivation (including the
perfect-square rescue for odd periods), and the one retry loop of the
honest, compiled and coin modes that turns all of it into a
FactorReport. Every report carries a plainly worded
note comparing the bit length of the period actually found against the
bit length of the modulus; for the compiled path those two numbers tell
the whole story.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .compiler import (
    QubitBudget,
    build_compiled_circuit,
    build_semiclassical_stages,
    default_s,
    find_period2_base,
    zalka_qubit_count,
)
from .errors import DomainError, RefusedTooLargeError
from .numtheory import (
    AUTO_PRIMALITY_BIT_LIMIT,
    Convergent,
    Semiprime,
    continued_fraction_convergents,
    is_probable_prime,
    to_decimal,
)

# Small multiples of each convergent denominator tried during period
# recovery; the measured y often encodes r/gcd(r, something) so a short
# multiple sweep recovers the full period cheaply.
MAX_PERIOD_MULTIPLIER = 4

DEFAULT_MAX_ATTEMPTS = 64

MODE_HONEST = "honest-random-base"
MODE_COMPILED = "compiled-crt"
MODE_COIN = "coin"

_MODES = {"honest": MODE_HONEST, "compiled": MODE_COMPILED, "coin": MODE_COIN}


@dataclass(frozen=True)
class PeriodCandidate:
    """A verified period, with the convergent that produced it.

    multiplier is the k in k*denominator; multiplier 1 means the
    denominator itself was the period (a direct hit).
    """

    r: int
    source_convergent: Convergent
    multiplier: int

    @property
    def direct(self) -> bool:
        return self.multiplier == 1


def extract_period(y: int, s_pow: int, a: int, n: int) -> Optional[PeriodCandidate]:
    """Recover the period of a mod n from one measured readout y.

    Scans candidates k*d over k = 1..MAX_PERIOD_MULTIPLIER (small
    multiples last only within each k pass: all convergent denominators
    d are tried at k before k+1, so the smallest verified candidate
    wins). Candidates above n are skipped. Returns None when nothing
    verifies; y = 0 is always uninformative.
    """
    if y >= s_pow:
        raise DomainError("expected y < s_pow")
    if y == 0:
        return None
    convergents = continued_fraction_convergents(y, s_pow)
    seen: set[int] = set()
    for k in range(1, MAX_PERIOD_MULTIPLIER + 1):
        for conv in convergents:
            candidate = k * conv.denominator
            if candidate > n or candidate in seen:
                continue
            seen.add(candidate)
            if pow(a, candidate, n) == 1:
                return PeriodCandidate(
                    r=candidate,
                    source_convergent=conv,
                    multiplier=k,
                )
    return None


def derive_factors(a: int, r: int, n: int) -> Optional[tuple[int, int]]:
    """Split n using a verified period r of a.

    Even r: computes x = a**(r/2) and returns the gcd pair (x-1, n),
    (x+1, n) when both are nontrivial; x = n-1 is the dead end that
    sends the caller back for a new base. Odd r: defers to the
    perfect-square rescue. Returns the pair in ascending order.
    """
    if r < 1:
        raise DomainError("period must be positive")
    if pow(a, r, n) != 1:
        raise DomainError(f"{a}**{r} is not 1 mod {n}: not a period")
    if r % 2 == 1:
        return odd_period_rescue(a, r, n)
    x = pow(a, r // 2, n)
    if x == n - 1:
        return None
    g1 = math.gcd(x - 1, n)
    g2 = math.gcd(x + 1, n)
    if 1 < g1 < n and 1 < g2 < n:
        lo, hi = sorted((g1, g2))
        return lo, hi
    return None


def odd_period_rescue(a: int, r: int, n: int) -> Optional[tuple[int, int]]:
    """Odd-period escape hatch for perfect-square bases.

    When a = b*b exactly, b has period dividing 2r, so gcd(b**r -/+ 1, n)
    can split n even though r itself is odd. Returns None when a is not
    a perfect square or the gcds are trivial.
    """
    if r < 1 or r % 2 == 0:
        raise DomainError("rescue applies to odd periods only")
    if pow(a, r, n) != 1:
        raise DomainError(f"{a}**{r} is not 1 mod {n}: not a period")
    b = math.isqrt(a)
    if b * b != a:
        return None
    x = pow(b, r, n)
    g1 = math.gcd((x - 1) % n, n)
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
    gcd_shortcut: bool
    y: Optional[int]
    period: Optional[int]
    multiplier: Optional[int]
    outcome: str  # gcd-shortcut | factored | no-period | period-without-factors

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
    """Outcome of a full factoring run.

    factors is None when every attempt came up empty; that is a normal
    result, not an exception. attempt_details keeps the per-attempt
    record that the summary fields compress.
    """

    n: int
    factors: Optional[tuple[int, int]]
    base_used: int
    period_found: Optional[int]
    attempts: int
    mode: str
    qubit_budget: QubitBudget
    seed: int
    honesty_note: str
    gcd_shortcut: bool = False
    attempt_details: tuple[AttemptRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.factors is not None:
            f1, f2 = self.factors
            if f1 * f2 != self.n or f1 <= 1 or f2 <= 1:
                raise DomainError(
                    "reported factors must be nontrivial and multiply to n"
                )

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
            "qubit_budget": {
                "n_bits": self.qubit_budget.n_bits,
                "zalka_qubits": self.qubit_budget.zalka_qubits,
                "compiled_qubits": self.qubit_budget.compiled_qubits,
            },
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
        lines.append(f"seed     {self.seed}")
        return "\n".join(lines) + "\n"


def _short_decimal(value: int, head: int = 12, tail: int = 12) -> str:
    text = to_decimal(value)
    if len(text) <= head + tail + 3:
        return text
    return f"{text[:head]}...{text[-tail:]} ({len(text)} digits)"


def compose_honesty_note(n: int, period: Optional[int],
                         gcd_shortcut: bool = False) -> str:
    """The scorecard line: period size found versus modulus size."""
    n_bits = n.bit_length()
    if period is not None:
        r_bits = period.bit_length()
        return (
            f"period found: r = {period} ({r_bits} bit{'s' if r_bits != 1 else ''})"
            f" against a {n_bits}-bit modulus; the meaningful size here is "
            f"the {r_bits}-bit period, not the {n_bits}-bit number"
        )
    if gcd_shortcut:
        return (
            f"factors fell out of a classical gcd; no period was measured, "
            f"so nothing quantum is demonstrated on this {n_bits}-bit modulus"
        )
    return (
        f"no usable period recovered; the {n_bits}-bit modulus remains intact"
    )


def canonical_mode(mode: str) -> str:
    try:
        return _MODES[mode]
    except KeyError:
        raise DomainError(
            f"unknown mode {mode!r}; expected honest, compiled, or coin"
        ) from None


def _normalized_factors(g: int, n: int) -> tuple[int, int]:
    lo, hi = sorted((g, n // g))
    return lo, hi


def _prime_split(g: int, n: int) -> tuple[int, int]:
    """The split g x n/g of an honest run, refused unless both parts are
    prime: anything else means n is not a product of two primes."""
    lo, hi = _normalized_factors(g, n)
    for part in (lo, hi):
        if not is_probable_prime(part):
            raise DomainError(
                f"{n} splits as {lo} x {hi}, but {part} is composite, so "
                f"{n} is not a product of two distinct primes"
            )
    return lo, hi


def _perfect_power(n: int) -> Optional[tuple[int, int]]:
    """(b, k) with n = b**k for the least k >= 2, or None.

    Each k-th root is an integer bisection, exact at any size.
    """
    for k in range(2, n.bit_length()):
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


def _report_note(mode: str, n: int, period: Optional[int],
                 gcd_shortcut: bool, attempts: int) -> str:
    """The honesty line of a report; coin runs word it as tosses."""
    if mode != MODE_COIN:
        return compose_honesty_note(n, period, gcd_shortcut)
    n_bits = n.bit_length()
    if period is None:
        return (
            f"no heads in {attempts} tosses, so no period this series; "
            f"the {n_bits}-bit modulus remains intact"
        )
    return (
        f"period found by coin toss: r = {period} "
        f"({period.bit_length()} bits) against a {n_bits}-bit modulus; "
        f"a fair coin replaced the circuit, and their outcome "
        f"distributions are identical"
    )


def run_full_algorithm(
    sp: Semiprime,
    mode: str = "honest",
    s_override: Optional[int] = None,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> FactorReport:
    """The whole loop: pick a base, run the circuit, recover the period,
    derive factors, retry on dead ends.

    Honest mode refuses an n above AUTO_PRIMALITY_BIT_LIMIT bits and
    a prime or perfect-power n, draws bases uniformly from [2, n-2],
    simulates the staged circuit with s = s_override or default_s(n),
    and refuses a split with a composite part. Its only quantum size
    guard is the period: a base whose order exceeds MAX_WORK_SPAN ends
    the run with RefusedTooLargeError, whatever the size of n.
    Compiled and coin modes build the one-stage circuit of the CRT
    period-2 base once (factors required, s_override refused).
    Compiled mode simulates it; coin mode reads y = 1 on heads of a
    PCG64 coin seeded with seed. Deterministic per seed; exhausting
    max_attempts yields a report with factors = None rather than an
    exception.
    """
    mode = canonical_mode(mode)
    n = sp.n
    if n % 2 == 0:
        raise DomainError("even moduli have the factor 2; nothing to run")
    if max_attempts < 1:
        raise DomainError("need at least one attempt")

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
        s = default_s(n) if s_override is None else s_override
    else:
        if s_override is not None:
            raise DomainError(
                "--s (s_override) applies to honest mode only; compiled "
                "and coin runs read one stage"
            )
        circuit = build_compiled_circuit(find_period2_base(sp))
        a = circuit.base

    # Imported here: simulator pulls in the kernels, and postprocess is
    # importable without them for the purely classical helpers.
    from .simulator import run_circuit

    if mode == MODE_COIN:
        import numpy as np
        coin = np.random.Generator(np.random.PCG64(seed))
    else:
        master = random.Random(seed)
    details: list[AttemptRecord] = []
    factors = period = None
    shortcut = False
    for attempt in range(1, max_attempts + 1):
        if mode == MODE_HONEST:
            a = master.randrange(2, n - 1)
            g = math.gcd(a, n)
            if g > 1:
                shortcut, factors = True, _prime_split(g, n)
                details.append(AttemptRecord(
                    index=attempt, base=a, gcd_shortcut=True, y=None,
                    period=None, multiplier=None, outcome="gcd-shortcut",
                ))
                break
            circuit = build_semiclassical_stages(a, n, s)

        if mode == MODE_COIN:
            y = int(coin.random() < 0.5)  # heads
        else:
            y, _ = run_circuit(circuit, master.getrandbits(63))
        candidate = extract_period(y, 1 << circuit.num_readout_bits, a, n)
        r = candidate and candidate.r
        split = r and derive_factors(a, r, n)
        outcome = ("factored" if split else "no-period" if r is None
                   else "period-without-factors")
        details.append(AttemptRecord(
            index=attempt, base=a, gcd_shortcut=False, y=y, period=r,
            multiplier=candidate and candidate.multiplier, outcome=outcome,
        ))
        if split:
            if mode == MODE_HONEST:
                factors = _prime_split(split[0], n)
            else:  # the CRT base splits n into its validated p and q
                factors = _normalized_factors(split[0], n)
            period = r
            break

    # max_attempts >= 1, so a is the last base tried
    return FactorReport(
        n=n, factors=factors, base_used=a, period_found=period,
        attempts=len(details), mode=mode, qubit_budget=zalka_qubit_count(n),
        seed=seed, honesty_note=_report_note(mode, n, period, shortcut,
                                             len(details)),
        gcd_shortcut=shortcut, attempt_details=tuple(details),
    )
