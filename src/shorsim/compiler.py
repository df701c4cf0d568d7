"""Circuits for period finding, as a small gate-level IR.

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

Every multiplier is therefore a power of the last one, a, and a Circuit
accepts only that canonical schedule. Its work register is indexed by
exponent: the orbit 1, a, ..., a**(r-1) of residue 1 is walked once per
circuit, column j holds a**j, and the stage-k controlled multiply is a
cyclic shift of the columns by 2**(s-k) mod r.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import (
    CircuitFormatError,
    CompilationRequiresFactorsError,
    DomainError,
    NotCompilableError,
    RefusedTooLargeError,
)
from .numtheory import Semiprime, _crt_sqrt1_roots, parse_decimal, to_decimal

# The simulator allocates one complex amplitude per reachable work value,
# so this caps both memory and the orbit walk.
MAX_WORK_SPAN = 1 << 20

CIRCUIT_JSON_FORMAT = "shorsim-circuit"


@dataclass(frozen=True)
class PreparePlus:
    """Reset the control qubit to (|0> + |1>)/sqrt(2)."""


@dataclass(frozen=True)
class Hadamard:
    """Plain Hadamard on the control qubit (first readout stage)."""


@dataclass(frozen=True)
class ControlledModMul:
    """Controlled w -> multiplier * w mod modulus on the work register.

    A permutation of residues, hence unitary, iff gcd(multiplier,
    modulus) = 1; the circuit validator enforces that.
    """

    multiplier: int
    modulus: int


@dataclass(frozen=True)
class PhaseThenHadamard:
    """Feedback phase, then Hadamard, at readout stage k >= 2.

    The phase is -2*pi*P/2**stage on the |1> control component, where P
    is the integer formed by the previously measured bits. Stage 1 has
    no feedback and uses the plain Hadamard gate instead.
    """

    stage: int


@dataclass(frozen=True)
class MeasureQubit:
    """Measure the control qubit into classical bit `bit` of y."""

    bit: int


Gate = Union[PreparePlus, Hadamard, ControlledModMul, PhaseThenHadamard,
             MeasureQubit]


def work_orbit(modulus: int, multiplier: int) -> list[int]:
    """The orbit of residue 1 under one multiplier a, a unit mod modulus.

    Entry j holds a**j, so the list is 1, a, a**2, ..., a**(r-1) with r
    the order of a: the exponent basis of the simulator. Refuses once
    the walk would pass MAX_WORK_SPAN values.
    """
    if modulus < 2 or math.gcd(multiplier, modulus) != 1:
        raise DomainError(f"{multiplier} is not a unit mod {modulus}")
    values = [1]
    w = multiplier % modulus
    while w != 1:
        if len(values) >= MAX_WORK_SPAN:
            raise RefusedTooLargeError(
                f"work register span exceeds {MAX_WORK_SPAN}"
            )
        values.append(w)
        w = w * multiplier % modulus
    return values


@dataclass(frozen=True)
class Circuit:
    """A staged readout circuit over one control qubit + work register.

    gates must follow the canonical stage layout (see _validate), in
    which the stage-k multiplier is the square of the stage-(k+1) one,
    so every multiplier is a power of the last, a. num_readout_bits is
    the stage count s. The orbit of residue 1 under a is walked once,
    here; work_register_span is its length r, the order of a, which is
    what the simulator allocates.
    """

    gates: tuple[Gate, ...]
    num_readout_bits: int
    _orbit: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        self._validate()
        orbit = work_orbit(self.modulus, self.multipliers[-1])
        object.__setattr__(self, "_orbit", tuple(orbit))

    def _validate(self) -> None:
        s = self.num_readout_bits
        if s < 1:
            raise CircuitFormatError("a circuit needs at least one stage")
        if len(self.gates) != 4 * s:
            raise CircuitFormatError(
                f"expected {4 * s} gates for {s} stages, got {len(self.gates)}"
            )
        modulus: Optional[int] = None
        for k in range(1, s + 1):
            prep, mul, mix, meas = self.gates[4 * (k - 1):4 * k]
            if not isinstance(prep, PreparePlus):
                raise CircuitFormatError(f"stage {k}: expected PREP+")
            if not isinstance(mul, ControlledModMul):
                raise CircuitFormatError(f"stage {k}: expected CMODMUL")
            if mul.modulus < 2:
                raise CircuitFormatError(f"stage {k}: modulus must be >= 2")
            if modulus is None:
                modulus = mul.modulus
            elif mul.modulus != modulus:
                raise CircuitFormatError(
                    "all CMODMUL gates must share one modulus"
                )
            if not 1 <= mul.multiplier < mul.modulus:
                raise CircuitFormatError(
                    f"stage {k}: multiplier must lie in [1, modulus)"
                )
            if math.gcd(mul.multiplier, mul.modulus) != 1:
                raise CircuitFormatError(
                    f"stage {k}: multiplier {mul.multiplier} shares a factor "
                    f"with the modulus (not a permutation)"
                )
            if k == 1:
                if not isinstance(mix, Hadamard):
                    raise CircuitFormatError(
                        "stage 1 has no feedback and must use H"
                    )
            else:
                if not isinstance(mix, PhaseThenHadamard):
                    raise CircuitFormatError(f"stage {k}: expected VH")
                if mix.stage != k:
                    raise CircuitFormatError(
                        f"stage {k}: VH is tagged with stage {mix.stage}"
                    )
            if not isinstance(meas, MeasureQubit):
                raise CircuitFormatError(f"stage {k}: expected MEAS")
            if meas.bit != k - 1:
                raise CircuitFormatError(
                    f"stage {k}: must measure into classical bit {k - 1}"
                )
        assert modulus is not None
        multipliers = self.multipliers
        for k in range(1, s):
            if multipliers[k - 1] != multipliers[k] ** 2 % modulus:
                raise CircuitFormatError(
                    f"stage {k}: multiplier is not the square of the "
                    f"stage-{k + 1} multiplier mod the modulus"
                )

    @property
    def modulus(self) -> int:
        gate = self.gates[1]
        assert isinstance(gate, ControlledModMul)
        return gate.modulus

    @property
    def multipliers(self) -> tuple[int, ...]:
        return tuple(g.multiplier for g in self.gates[1::4])

    @property
    def work_register_span(self) -> int:
        """Distinct work values reachable from 1: the order of a."""
        return len(self._orbit)

    @property
    def stage_shifts(self) -> tuple[int, ...]:
        """Per stage, the column shift its controlled multiply makes.

        Stage k multiplies a**j by a**(2**(s-k)), moving column j to
        column j + 2**(s-k) mod r.
        """
        s, r = self.num_readout_bits, self.work_register_span
        return tuple(pow(2, s - k, r) for k in range(1, s + 1))

    def orbit_values(self) -> tuple[int, ...]:
        """Work values by column: entry j is a**j, the simulator basis."""
        return self._orbit

    def to_text(self) -> str:
        lines = []
        for g in self.gates:
            if isinstance(g, PreparePlus):
                lines.append("PREP+")
            elif isinstance(g, ControlledModMul):
                lines.append(
                    f"CMODMUL {to_decimal(g.multiplier)} {to_decimal(g.modulus)}"
                )
            elif isinstance(g, Hadamard):
                lines.append("H")
            elif isinstance(g, PhaseThenHadamard):
                lines.append(f"VH {g.stage}")
            elif isinstance(g, MeasureQubit):
                lines.append(f"MEAS {g.bit}")
            else:  # pragma: no cover - the union is closed
                raise CircuitFormatError(f"unknown gate {g!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Parse the line format. The work span is recomputed, not read."""
        gates: list[Gate] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                gates.append(_gate_from_tokens(parts))
            except (DomainError, ValueError) as exc:
                raise CircuitFormatError(f"line {lineno}: {exc}") from exc
        return _assemble(gates, declared_span=None)

    def to_json_dict(self) -> dict:
        return {
            "format": CIRCUIT_JSON_FORMAT,
            "version": 1,
            "num_readout_bits": self.num_readout_bits,
            "work_register_span": self.work_register_span,
            "gates": [_gate_to_json(g) for g in self.gates],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Circuit":
        if data.get("format") != CIRCUIT_JSON_FORMAT:
            raise CircuitFormatError("not a circuit document")
        try:
            gates = [_gate_from_json(g) for g in data["gates"]]
        except (KeyError, TypeError, DomainError) as exc:
            raise CircuitFormatError(f"bad gate entry: {exc}") from exc
        return _assemble(gates, declared_span=data.get("work_register_span"))

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CircuitFormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CircuitFormatError("not a circuit document")
        return cls.from_json_dict(data)


def _gate_from_tokens(parts: list[str]) -> Gate:
    head = parts[0]
    if head == "PREP+" and len(parts) == 1:
        return PreparePlus()
    if head == "H" and len(parts) == 1:
        return Hadamard()
    if head == "CMODMUL" and len(parts) == 3:
        return ControlledModMul(parse_decimal(parts[1]), parse_decimal(parts[2]))
    if head == "VH" and len(parts) == 2:
        return PhaseThenHadamard(int(parts[1]))
    if head == "MEAS" and len(parts) == 2:
        return MeasureQubit(int(parts[1]))
    raise ValueError(f"unrecognized gate line {' '.join(parts)!r}")


def _gate_to_json(g: Gate) -> dict:
    if isinstance(g, PreparePlus):
        return {"gate": "PREP+"}
    if isinstance(g, Hadamard):
        return {"gate": "H"}
    if isinstance(g, ControlledModMul):
        return {"gate": "CMODMUL", "multiplier": to_decimal(g.multiplier),
                "modulus": to_decimal(g.modulus)}
    if isinstance(g, PhaseThenHadamard):
        return {"gate": "VH", "stage": g.stage}
    if isinstance(g, MeasureQubit):
        return {"gate": "MEAS", "bit": g.bit}
    raise CircuitFormatError(f"unknown gate {g!r}")  # pragma: no cover


def _gate_from_json(entry: dict) -> Gate:
    kind = entry["gate"]
    if kind == "PREP+":
        return PreparePlus()
    if kind == "H":
        return Hadamard()
    if kind == "CMODMUL":
        return ControlledModMul(
            parse_decimal(entry["multiplier"]), parse_decimal(entry["modulus"])
        )
    if kind == "VH":
        return PhaseThenHadamard(int(entry["stage"]))
    if kind == "MEAS":
        return MeasureQubit(int(entry["bit"]))
    raise CircuitFormatError(f"unknown gate kind {kind!r}")


def _assemble(gates: list[Gate], declared_span: Optional[int]) -> Circuit:
    s = sum(1 for g in gates if isinstance(g, MeasureQubit))
    circuit = Circuit(tuple(gates), s)
    span = circuit.work_register_span
    if declared_span is not None and declared_span != span:
        raise CircuitFormatError(
            f"declared work span {declared_span} does not match the "
            f"reachable span {span}"
        )
    return circuit


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
    """Both nontrivial period-2 bases for a semiprime with known factors."""
    if not sp.has_factors:
        raise CompilationRequiresFactorsError(
            "finding a period-2 base requires the factors of n; that is "
            "the compiled pipeline's input, not its output"
        )
    assert sp.p is not None and sp.q is not None
    # Semiprime validated both primes on construction; no second verdict.
    (a1, s1), (a2, s2) = _crt_sqrt1_roots(sp.p, sp.q)
    return (
        CompiledBase(a1, sp.n, 2, s1),
        CompiledBase(a2, sp.n, 2, s2),
    )


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
    gates = (
        PreparePlus(),
        ControlledModMul(base.a, base.n),
        Hadamard(),
        MeasureQubit(0),
    )
    return Circuit(gates, 1)


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
    if n < 2:
        raise DomainError("modulus must be at least 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise DomainError(
            f"{a} shares a factor with {n}; a free factor should have been "
            f"taken classically instead of building a circuit"
        )
    if s is None:
        s = default_s(n)
    if s < 1:
        raise DomainError("need at least one readout stage")
    gates: list[Gate] = []
    for k in range(1, s + 1):
        gates.append(PreparePlus())
        gates.append(ControlledModMul(pow(a, 1 << (s - k), n), n))
        gates.append(Hadamard() if k == 1 else PhaseThenHadamard(k))
        gates.append(MeasureQubit(k - 1))
    return Circuit(tuple(gates), s)


@dataclass(frozen=True)
class QubitBudget:
    """Qubit counts for one modulus: the optimized estimate and ours."""

    n_bits: int
    zalka_qubits: int
    compiled_qubits: int = 2


def zalka_qubit_count(n: int) -> QubitBudget:
    """Qubit budget for factoring n: 2 + ceil(3*bits/2) vs a flat 2."""
    if n < 2:
        raise DomainError("modulus must be at least 2")
    bits = n.bit_length()
    return QubitBudget(
        n_bits=bits,
        zalka_qubits=2 + (3 * bits + 1) // 2,
        compiled_qubits=2,
    )
