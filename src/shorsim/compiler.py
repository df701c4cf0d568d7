"""Circuits for period finding.

Two shapes come out of this module. The staged circuit drives one
recycled control qubit through s rounds of prepare / controlled modular
multiply / feedback-phased Hadamard / measure, which is how a single
qubit stands in for the whole readout register. The compiled circuit is
the degenerate one-stage version available once a period-2 base is
known: prepare, one controlled multiply, a Hadamard, one measurement.
Building that base requires the factors of n up front, and the API
makes the cheat explicit rather than hiding it.

Readout convention, fixed package-wide: stage k applies the multiplier
a**(2**(s-k)) mod n and produces classical bit k-1 of the readout y, so
y accumulates least-significant-bit first. The stage-k feedback phase is
-2*pi*P/2**k where P is the integer already accumulated in y. The
simulator's oracle tests are what hold this convention to account.

Every multiplier is therefore a power of the last one, the base a, and
a circuit is the triple (modulus n, base a, stage count s): its gate
lines are derived from the triple, never stored, and written out as
text or JSON but never read back. Circuit is the one place that checks
a triple; every violation is a DomainError, except a stage count above
MAX_READOUT_STAGES, which is refused. The work register is
indexed by exponent: column j stands for a**j, and the stage-k
controlled multiply is a cyclic shift of the columns by 2**(s-k) mod r.
So the only size a circuit keeps is r, the order of a, found once per
circuit by a growing baby-step giant-step search whose cost follows
sqrt(r), not the size of n, and which refuses an r above MAX_WORK_SPAN;
the residues themselves are never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Optional

from .errors import (
    CompilationRequiresFactorsError,
    DomainError,
    NotCompilableError,
    RefusedTooLargeError,
)
from .numtheory import (
    AUTO_PRIMALITY_BIT_LIMIT,
    Semiprime,
    _check_integers,
    signed_decimal,
    to_decimal,
)

# A shot holds four complex r-vectors, 64 B per exponent column, so
# this caps its memory, and the order search refuses past it. At
# r = 1048572, (a, n, s) = (2, 1048573, 41), one shot peaked at 92 MiB
# RSS in a process that stood at 28 MiB, numpy loaded, before it
# (0.47-0.56 s; 2-CPU Intel Xeon, Python 3.11, numpy 2.4).
MAX_WORK_SPAN = 1 << 20

# Readout stages a circuit may have: default_s of the largest modulus
# honest mode accepts. Each stage costs a shot time and memory, so
# more are refused before the orbit is walked.
MAX_READOUT_STAGES = 2 * AUTO_PRIMALITY_BIT_LIMIT

# The order search's first baby table: a**0 ... a**15. It doubles after
# as many giant steps as it has entries, so orders up to 16 cost their
# own length and r = 180 costs 27 multiplications, where a flat table of
# 256 paid 180 and every larger order at least 256.
_BABY_STEPS = 16

CIRCUIT_JSON_FORMAT = "shorsim-circuit"


def work_orbit(modulus: int, multiplier: int) -> int:
    """The order r of a multiplier a, a unit mod modulus.

    r is the length of the orbit 1, a, a**2, ... of residue 1, the span
    of the simulator's exponent basis. A growing baby-step giant-step
    search (after Terr, Math. Comp. 69 (2000) 767-773) finds it without
    a bound on it: r < 16 turns up among the baby steps a**j, j < 16.
    Past them a table of the m powers a**j, j < m, looks up the giant
    steps a**top, top = 16, 32, ...: r exceeds every exponent already
    covered, so the window (top - m, top] holds r or no multiple of it,
    and a**top = a**j gives r = top - j. After m windows the table
    doubles, and the giant step with it, so the windows cover every
    exponent, and r costs at most 16 + 3.5 * sqrt(r) multiplications
    (27 at r = 180, 323 at r = 16020). A hit above MAX_WORK_SPAN is
    refused like a miss; the window that passes MAX_WORK_SPAN is the
    last, after 2714 multiplications.
    """
    _check_integers(modulus=modulus, multiplier=multiplier)
    if modulus < 2 or math.gcd(multiplier, modulus) != 1:
        raise DomainError(f"{signed_decimal(multiplier)} is not a unit "
                          f"mod {signed_decimal(modulus)}")
    a = multiplier % modulus
    exponent_of = {1: 0}  # the table, a**j -> j for j < m
    w = a
    for j in range(1, _BABY_STEPS):
        if w == 1:
            return j
        exponent_of[w] = j
        w = w * a % modulus
    # r >= m from here, so the table's m powers are distinct
    m = top = _BABY_STEPS
    stride = w  # a**m, and w = a**top
    windows = 0
    while True:
        j = exponent_of.get(w)
        if j is not None:
            if top - j <= MAX_WORK_SPAN:
                return top - j
            break
        if top >= MAX_WORK_SPAN:
            break
        windows += 1
        if windows == m:
            # r > top >= 2m: add a**m ... a**(2m-1), leaving a**(2m)
            for j in range(m, 2 * m):
                exponent_of[stride] = j
                stride = stride * a % modulus
            m *= 2
            windows = 0
        w = w * stride % modulus
        top += m
    raise RefusedTooLargeError(
        f"work register span of a = {to_decimal(a)} mod n = "
        f"{to_decimal(modulus)} exceeds {MAX_WORK_SPAN}"
    )


# Gate kinds and the JSON names of their arguments, which are decimal
# strings for CMODMUL and integers for the others.
_GATE_ARGS = {
    "PREP+": (),
    "CMODMUL": ("multiplier", "modulus"),
    "H": (),
    "VH": ("stage",),
    "MEAS": ("bit",),
}


def _gate_lines(circuit: Circuit) -> Iterator[tuple]:
    """The canonical layout as (kind, *args), four gates per stage.

    Stage k is PREP+; CMODMUL with its multiplier and the modulus, as
    decimal strings; H at stage 1 and VH k after it; MEAS k-1.
    """
    n = to_decimal(circuit.modulus)
    for k, multiplier in enumerate(circuit.multipliers, 1):
        yield ("PREP+",)
        yield ("CMODMUL", to_decimal(multiplier), n)
        yield ("H",) if k == 1 else ("VH", k)
        yield ("MEAS", k - 1)


@dataclass(frozen=True)
class Circuit:
    """A staged readout circuit over one control qubit + work register.

    A circuit is its modulus n, its base a and its stage count s =
    num_readout_bits: stage k multiplies by a**(2**(s-k)) mod n, so a
    is the last-stage multiplier and each earlier one is the square of
    the next. work_register_span is r, the order of a: the length of
    the orbit of residue 1 under a, found once, here, by work_orbit's
    bounded baby-step giant-step search, and the number of columns the
    simulator allocates. The orbit's values are not kept. The checks
    run in order: three integers, none a bool, then n >= 2, 0 <= a < n,
    gcd(a, n) = 1, then the stage count (at least one, at most
    MAX_READOUT_STAGES), all before the orbit is walked.
    """

    modulus: int
    base: int
    num_readout_bits: int
    work_register_span: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_integers(modulus=self.modulus, base=self.base,
                        num_readout_bits=self.num_readout_bits)
        if self.modulus < 2:
            raise DomainError("modulus must be at least 2")
        if not 0 <= self.base < self.modulus:
            raise DomainError("base must lie in [0, modulus)")
        if math.gcd(self.base, self.modulus) != 1:
            raise DomainError(
                f"{to_decimal(self.base)} shares a factor with "
                f"{to_decimal(self.modulus)}; a free factor should have "
                f"been taken classically instead of building a circuit"
            )
        if self.num_readout_bits < 1:
            raise DomainError("need at least one readout stage")
        if self.num_readout_bits > MAX_READOUT_STAGES:
            raise RefusedTooLargeError(
                f"s = {to_decimal(self.num_readout_bits)} readout stages "
                f"exceeds the limit of {MAX_READOUT_STAGES} stages"
            )
        object.__setattr__(self, "work_register_span",
                           work_orbit(self.modulus, self.base))

    @property
    def multipliers(self) -> tuple[int, ...]:
        """Per stage, first to last, a**(2**(s-k)) mod n by squarings."""
        multipliers = [self.base]
        for _ in range(self.num_readout_bits - 1):
            multipliers.append(multipliers[-1] ** 2 % self.modulus)
        return tuple(reversed(multipliers))

    @property
    def stage_shifts(self) -> tuple[int, ...]:
        """Per stage, the column shift its controlled multiply makes.

        Stage k multiplies a**j by a**(2**(s-k)), moving column j to
        column j + 2**(s-k) mod r: each shift doubles the next, from 1
        mod r at the last stage.
        """
        shifts = [1 % self.work_register_span]
        for _ in range(self.num_readout_bits - 1):
            shifts.append(shifts[-1] * 2 % self.work_register_span)
        return tuple(reversed(shifts))

    def to_text(self) -> str:
        return "".join(" ".join(map(str, line)) + "\n"
                       for line in _gate_lines(self))

    def to_json_dict(self) -> dict:
        return {
            "format": CIRCUIT_JSON_FORMAT,
            "version": 1,
            "num_readout_bits": self.num_readout_bits,
            "work_register_span": self.work_register_span,
            "gates": [{"gate": kind, **dict(zip(_GATE_ARGS[kind], args))}
                      for kind, *args in _gate_lines(self)],
        }


@dataclass(frozen=True)
class CompiledBase:
    """A base whose period was arranged in advance.

    sign_choice records which mixed-sign CRT combination produced the
    base (the signs of e and 1 - e; see find_period2_base); None for
    bases built some other way. The constructor checks a**period = 1
    mod n and nontriviality.
    """

    a: int
    n: int
    period: int
    sign_choice: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        _check_integers(a=self.a, n=self.n, period=self.period)
        if not 1 < self.a < self.n - 1:
            raise DomainError("base must lie strictly between 1 and n-1")
        if self.period < 1:
            raise DomainError("period must be positive")
        if pow(self.a, self.period, self.n) != 1:
            raise DomainError("a**period is not 1 mod n")


def find_period2_base(sp: Semiprime) -> CompiledBase:
    """The smaller nontrivial square root of 1 mod n = p*q, a period-2
    base built from the known factors.

    One modular inverse gives the CRT idempotent e = p * inv(p mod q),
    which is 0 mod p and 1 mod q; its complement 1 - e is 1 mod p and
    0 mod q. The square roots of 1 are the four signed sums +-e +- (1-e);
    +1 and -1 are trivial, and the other two are 2e - 1 (-1 mod p, +1
    mod q) and its negation 1 - 2e, which sum to n. A sign choice gives
    the signs of e and of 1 - e in that order, so ("+", "-") is 2e - 1
    and ("-", "+") is 1 - 2e.
    """
    if not sp.has_factors:
        raise CompilationRequiresFactorsError(
            "finding a period-2 base requires the factors of n; that is "
            "the compiled pipeline's input, not its output"
        )
    assert sp.p is not None and sp.q is not None
    # Semiprime validated both primes on construction; no second verdict.
    p, q, n = sp.p, sp.q, sp.n
    a = (2 * p * pow(p, -1, q) - 1) % n  # 2e - 1
    if a < n - a:
        return CompiledBase(a, n, 2, ("+", "-"))
    return CompiledBase(n - a, n, 2, ("-", "+"))


def find_period2_bases(sp: Semiprime) -> tuple[CompiledBase, CompiledBase]:
    """Both nontrivial period-2 bases, ascending: find_period2_base's
    root and its negation mod n, with the opposite sign choice."""
    first = find_period2_base(sp)
    return first, CompiledBase(first.n - first.a, first.n, 2,
                               first.sign_choice[::-1])


def build_compiled_circuit(base: CompiledBase) -> Circuit:
    """The one-stage circuit for a period-2 base.

    Four gates: PREP+, one controlled multiply (which swaps the two
    reachable work values, so it acts as a CNOT), H, measure. Work span
    is exactly 2.
    """
    if base.period != 2:
        raise NotCompilableError(
            f"period {base.period} base does not fit the two-qubit circuit"
        )
    return Circuit(base.n, base.a, 1)


def default_s(n: int) -> int:
    """Smallest s with 2**s >= n*n (readout resolution for honest runs)."""
    _check_integers(n=n)
    if n < 2:
        raise DomainError("modulus must be at least 2")
    return max(1, (n * n - 1).bit_length())


def build_semiclassical_stages(a: int, n: int, s: Optional[int] = None) -> Circuit:
    """The s-stage recycled-qubit circuit for base a mod n.

    Stage k applies the multiplier a**(2**(s-k)) mod n, so the largest
    power comes first and measured bits fill y from the least
    significant end. s defaults to default_s(n).
    """
    _check_integers(a=a, n=n)  # before the reduction mod n
    if n < 2:
        raise DomainError("modulus must be at least 2")
    return Circuit(n, a % n, default_s(n) if s is None else s)


@dataclass(frozen=True)
class QubitBudget:
    """Qubit counts for one modulus: the optimized estimate and ours."""

    n_bits: int
    zalka_qubits: int
    compiled_qubits: ClassVar[int] = 2

    def to_json_dict(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "zalka_qubits": self.zalka_qubits,
            "compiled_qubits": self.compiled_qubits,
        }


def zalka_qubit_count(n: int) -> QubitBudget:
    """Qubit budget for factoring n: 2 + ceil(3*bits/2) vs a flat 2."""
    _check_integers(n=n)
    if n < 2:
        raise DomainError("modulus must be at least 2")
    bits = n.bit_length()
    return QubitBudget(
        n_bits=bits,
        zalka_qubits=2 + (3 * bits + 1) // 2,
    )
