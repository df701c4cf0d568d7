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
circuit by a baby-step giant-step search bounded by MAX_WORK_SPAN; the
residues themselves are never stored.
"""

from __future__ import annotations

import json
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
    to_decimal,
)

# A shot holds four complex r-vectors, 64 B per exponent column, so
# this caps its memory, and the order search refuses past it. At
# r = 1048572, (a, n, s) = (2, 1048573, 41), one shot peaked at 98 MiB
# RSS in a process that stood at 28 MiB before it (1.0-1.5 s; 2-CPU
# Intel Xeon, Python 3.11, numpy 2.4).
MAX_WORK_SPAN = 1 << 20

# Readout stages a circuit may have: default_s of the largest modulus
# honest mode accepts. Each stage costs a shot time and memory, so
# more are refused before the orbit is walked.
MAX_READOUT_STAGES = 2 * AUTO_PRIMALITY_BIT_LIMIT

# Baby steps of the order search: a**0 ... a**255 are walked and kept,
# then at most MAX_WORK_SPAN // 256 giant steps of a**256 look them up.
_BABY_STEPS = 256

CIRCUIT_JSON_FORMAT = "shorsim-circuit"


def work_orbit(modulus: int, multiplier: int) -> int:
    """The order r of a multiplier a, a unit mod modulus.

    r is the length of the orbit 1, a, a**2, ... of residue 1, the span
    of the simulator's exponent basis. A baby-step giant-step search
    (Shanks) finds it in at most 256 + r/256 multiplications: r <= 256
    turns up among the baby steps a**j, j < 256; otherwise the first
    giant step i with a**(256*i) = a**j gives r = 256*i - j. Refuses r
    above MAX_WORK_SPAN, after 256 + MAX_WORK_SPAN/256 steps.
    """
    if modulus < 2 or math.gcd(multiplier, modulus) != 1:
        raise DomainError(f"{multiplier} is not a unit mod {modulus}")
    a = multiplier % modulus
    powers = [1]  # a**j for j < len(powers)
    w = a
    while len(powers) < _BABY_STEPS:
        if w == 1:
            return len(powers)
        powers.append(w)
        w = w * a % modulus
    # r > 256 from here, so the baby steps are distinct; w = a**256
    exponent_of = {value: j for j, value in enumerate(powers)}
    giant = w
    for i in range(1, MAX_WORK_SPAN // _BABY_STEPS + 1):
        j = exponent_of.get(w)
        if j is not None:
            return _BABY_STEPS * i - j
        w = w * giant % modulus
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


def _stage_multipliers(modulus: int, base: int, s: int) -> tuple[int, ...]:
    """a**(2**(s-k)) mod modulus for stages k = 1..s, by s-1 squarings."""
    multipliers = [base]
    for _ in range(s - 1):
        multipliers.append(multipliers[-1] ** 2 % modulus)
    return tuple(reversed(multipliers))


def _gate_lines(modulus: int, base: int, s: int) -> Iterator[tuple]:
    """The canonical layout as (kind, *args), four gates per stage.

    Stage k is PREP+; CMODMUL with its multiplier and the modulus, as
    decimal strings; H at stage 1 and VH k after it; MEAS k-1.
    """
    n = to_decimal(modulus)
    for k, multiplier in enumerate(_stage_multipliers(modulus, base, s), 1):
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
    run in order: n >= 2, 0 <= a < n, gcd(a, n) = 1, then the stage
    count (at least one, at most MAX_READOUT_STAGES), all before the
    orbit is walked.
    """

    modulus: int
    base: int
    num_readout_bits: int
    work_register_span: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise DomainError("modulus must be at least 2")
        if not 0 <= self.base < self.modulus:
            raise DomainError("base must lie in [0, modulus)")
        if math.gcd(self.base, self.modulus) != 1:
            raise DomainError(
                f"{self.base} shares a factor with {self.modulus}; a free "
                f"factor should have been taken classically instead of "
                f"building a circuit"
            )
        if self.num_readout_bits < 1:
            raise DomainError("need at least one readout stage")
        if self.num_readout_bits > MAX_READOUT_STAGES:
            raise RefusedTooLargeError(
                f"s = {self.num_readout_bits} readout stages exceeds the "
                f"limit of {MAX_READOUT_STAGES} stages"
            )
        object.__setattr__(self, "work_register_span",
                           work_orbit(self.modulus, self.base))

    @property
    def multipliers(self) -> tuple[int, ...]:
        """Per stage, first to last, the multiplier a**(2**(s-k)) mod n."""
        return _stage_multipliers(self.modulus, self.base,
                                  self.num_readout_bits)

    @property
    def stage_shifts(self) -> tuple[int, ...]:
        """Per stage, the column shift its controlled multiply makes.

        Stage k multiplies a**j by a**(2**(s-k)), moving column j to
        column j + 2**(s-k) mod r.
        """
        s, r = self.num_readout_bits, self.work_register_span
        return tuple(pow(2, s - k, r) for k in range(1, s + 1))

    def to_text(self) -> str:
        lines = _gate_lines(self.modulus, self.base, self.num_readout_bits)
        return "".join(" ".join(map(str, line)) + "\n" for line in lines)

    def to_json_dict(self) -> dict:
        lines = _gate_lines(self.modulus, self.base, self.num_readout_bits)
        return {
            "format": CIRCUIT_JSON_FORMAT,
            "version": 1,
            "num_readout_bits": self.num_readout_bits,
            "work_register_span": self.work_register_span,
            "gates": [{"gate": kind, **dict(zip(_GATE_ARGS[kind], args))}
                      for kind, *args in lines],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class CompiledBase:
    """A base whose period was arranged in advance.

    sign_choice records which mixed-sign CRT combination produced the
    base ((p-term sign, q-term sign)); None for bases built some other
    way. The constructor checks a**period = 1 mod n and nontriviality.
    """

    a: int
    n: int
    period: int
    sign_choice: Optional[tuple[str, str]] = None

    def __post_init__(self) -> None:
        if not 1 < self.a < self.n - 1:
            raise DomainError("base must lie strictly between 1 and n-1")
        if self.period < 1:
            raise DomainError("period must be positive")
        if pow(self.a, self.period, self.n) != 1:
            raise DomainError("a**period is not 1 mod n")


def find_period2_bases(sp: Semiprime) -> tuple[CompiledBase, CompiledBase]:
    """Both nontrivial period-2 bases for a semiprime with known factors,
    ascending: the nontrivial square roots of 1 mod n = p*q.

    Writing e_q = p * inv(p mod q) and e_p = q * inv(q mod p), the four
    sign combinations of e_q and e_p cover all square roots of unity mod
    n; the two mixed-sign combinations are the nontrivial ones, and they
    sum to n. A sign choice ("+", "-") means the base is +e_q - e_p mod n.
    """
    if not sp.has_factors:
        raise CompilationRequiresFactorsError(
            "finding a period-2 base requires the factors of n; that is "
            "the compiled pipeline's input, not its output"
        )
    assert sp.p is not None and sp.q is not None
    # Semiprime validated both primes on construction; no second verdict.
    p, q, n = sp.p, sp.q, sp.n
    e_q = p * pow(p, -1, q) % n  # 0 mod p, 1 mod q
    e_p = q * pow(q, -1, p) % n  # 1 mod p, 0 mod q
    first = CompiledBase((e_q - e_p) % n, n, 2, ("+", "-"))
    second = CompiledBase((e_p - e_q) % n, n, 2, ("-", "+"))
    return (first, second) if first.a < second.a else (second, first)


def find_period2_base(sp: Semiprime) -> CompiledBase:
    """The smaller of the two period-2 bases, for determinism."""
    return find_period2_bases(sp)[0]


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
    if n < 2:
        raise DomainError("modulus must be at least 2")
    return max(1, (n * n - 1).bit_length())


def build_semiclassical_stages(a: int, n: int, s: Optional[int] = None) -> Circuit:
    """The s-stage recycled-qubit circuit for base a mod n.

    Stage k applies the multiplier a**(2**(s-k)) mod n, so the largest
    power comes first and measured bits fill y from the least
    significant end. s defaults to default_s(n).
    """
    if n < 2:  # before the reduction mod n
        raise DomainError("modulus must be at least 2")
    return Circuit(n, a % n, default_s(n) if s is None else s)


@dataclass(frozen=True)
class QubitBudget:
    """Qubit counts for one modulus: the optimized estimate and ours."""

    n_bits: int
    zalka_qubits: int
    compiled_qubits: ClassVar[int] = 2


def zalka_qubit_count(n: int) -> QubitBudget:
    """Qubit budget for factoring n: 2 + ceil(3*bits/2) vs a flat 2."""
    if n < 2:
        raise DomainError("modulus must be at least 2")
    bits = n.bit_length()
    return QubitBudget(
        n_bits=bits,
        zalka_qubits=2 + (3 * bits + 1) // 2,
    )
