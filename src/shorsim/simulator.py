"""Execution of the circuit IR: sampled trajectories and exact
distributions.

The state is one control qubit tensored with a work register indexed
by exponent, nothing more: column j stands for a**j mod n, for the
last-stage multiplier a, and the residues themselves are never needed.
The register has r columns, r the multiplicative order of a
(Circuit.work_register_span), which is why the compiled circuit gets
away with two work values while an honest run pays for the full cycle.
In this basis each controlled multiply is a cyclic shift of the columns
(Circuit.stage_shifts). run_circuit samples one trajectory in it:
measurement collapses mid-circuit and the classical bits feed the later
phase gates.

The exact routes, output_distribution and control_reduced_density,
enumerate every measurement branch in the Fourier basis of Z_r instead,
where each of those shifts is one phase per column (see _kernels). They
carry real weights, a chunk of columns at a time, never a complex
2**s x r state.

Two exact-distribution routes exist on purpose: output_distribution
enumerates the branches from the IR's stage shifts and feedback phases,
while dft_oracle_distribution never looks at the IR and builds the
plain dense-Fourier reference over the 2**s exponent register from the
order of a alone, one dense FFT per distinct group size. They share
nothing past that order, so a slip in the IR's shifts or phases or in
the kernel shows as a gap between them. Tests hold the two together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .compiler import Circuit
from .errors import DomainError, RefusedTooLargeError, SimulationError
from .numtheory import multiplicative_order

# Exact enumeration refuses beyond these. The readout cap keeps the
# dense outcome vector a desk-scale object; it is the oracle's only
# guard, since the oracle's cost is two 2**s-point FFTs whatever r is.
# The cell cap bounds the 2**s * r cells of one branch enumeration and
# is a time budget: the kernel holds one chunk of columns at a time, so
# memory no longer binds. At the cap, output_distribution took 0.12 s
# at 35 MiB peak RSS for (a, n, s) = (2, 65519, 10), and 0.35-0.46 s at
# 77 MiB for s = 20, r = 32, its slowest shape (2-CPU Intel Xeon,
# Python 3.11, numpy 2.4).
MAX_DIST_READOUT_BITS = 20
MAX_DIST_CELLS = 1 << 25

NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class StageRecord:
    """What one readout stage did: operand, feedback, outcome odds."""

    stage: int
    multiplier: int
    phase: float
    p_one: float
    bit: int


@dataclass(frozen=True)
class RunTrace:
    """History summary of one seeded trajectory."""

    seed: int
    y: int
    bits: tuple[int, ...]
    stages: tuple[StageRecord, ...]
    work_register_span: int


class OutcomeDistribution:
    """Exact probabilities over every readout y in [0, 2**s).

    Wraps a dense float vector; probabilities sum to 1 within 1e-12.
    """

    def __init__(self, probabilities: np.ndarray):
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("need a nonempty 1-d probability vector")
        if float(probs.min()) < -NORM_TOLERANCE:
            raise SimulationError("negative probability encountered")
        total = float(probs.sum())
        if abs(total - 1.0) > NORM_TOLERANCE:
            raise SimulationError(
                f"probabilities sum to {total}, expected 1"
            )
        self._probs = np.clip(probs, 0.0, None)
        self._probs.setflags(write=False)

    def __len__(self) -> int:
        return int(self._probs.size)

    def __getitem__(self, y: int) -> float:
        return float(self._probs[y])

    @property
    def num_outcomes(self) -> int:
        return int(self._probs.size)

    def as_array(self) -> np.ndarray:
        return self._probs

    def support(self, atol: float = 0.0) -> list[int]:
        """Outcomes with probability strictly above atol."""
        return [int(y) for y in np.nonzero(self._probs > atol)[0]]

    def as_dict(self, nonzero_only: bool = True) -> dict[int, float]:
        if nonzero_only:
            return {y: float(self._probs[y]) for y in self.support()}
        return {int(y): float(p) for y, p in enumerate(self._probs)}

    def to_plot_text(self) -> str:
        """Two columns, outcome and probability, nonzero entries only."""
        lines = [f"{y}\t{self._probs[y]:.17g}" for y in self.support()]
        return "\n".join(lines) + "\n"


def total_variation(d1: OutcomeDistribution, d2: OutcomeDistribution) -> float:
    """Total variation distance between two same-length distributions."""
    if len(d1) != len(d2):
        raise DomainError("distributions cover different outcome sets")
    return 0.5 * float(np.abs(d1.as_array() - d2.as_array()).sum())


def _feedback_phase(stage: int, bits: list[int]) -> float:
    """Feedback angle before the stage-k Hadamard: -2*pi*P/2**k."""
    prefix = 0
    for j, bit in enumerate(bits):
        prefix |= bit << j
    return -2.0 * np.pi * prefix / float(1 << stage)


def run_circuit(circuit: Circuit, seed: int) -> tuple[int, RunTrace]:
    """Sample one trajectory; deterministic per seed.

    The work register starts at residue 1. Returns the readout y
    assembled from the measured bits (classical bit index = bit
    significance) and a stage-by-stage trace.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    work = np.zeros(circuit.work_register_span, dtype=np.complex128)
    work[0] = 1.0  # residue 1 = a**0 sits in column 0
    bits: list[int] = []
    records: list[StageRecord] = []
    stages = zip(circuit.multipliers, circuit.stage_shifts)
    for stage, (multiplier, shift) in enumerate(stages, start=1):
        # PREP+, then the controlled multiply shifts the control-|1> block
        amps = np.vstack((work, np.roll(work, shift))) / np.sqrt(2.0)
        phase = 0.0
        if stage > 1:
            phase = _feedback_phase(stage, bits)
            amps[1] *= np.exp(1j * phase)
        amps = np.vstack((amps[0] + amps[1], amps[0] - amps[1])) / np.sqrt(2.0)
        total = float(np.vdot(amps, amps).real)
        if abs(total - 1.0) > NORM_TOLERANCE:
            raise SimulationError(f"state norm drifted to {total}")
        p1 = float(np.vdot(amps[1], amps[1]).real)
        outcome = 1 if rng.random() < p1 else 0
        # renormalise by the kept block's own norm, not by its odds, so
        # rounding error cannot grow by 1/p over unlikely outcomes
        kept = amps[outcome]
        work = kept / np.sqrt(float(np.vdot(kept, kept).real))
        bits.append(outcome)
        records.append(StageRecord(
            stage=stage,
            multiplier=multiplier,
            phase=phase,
            p_one=p1,
            bit=outcome,
        ))

    y = 0
    for j, bit in enumerate(bits):
        y |= bit << j
    trace = RunTrace(
        seed=seed,
        y=y,
        bits=tuple(bits),
        stages=tuple(records),
        work_register_span=circuit.work_register_span,
    )
    return y, trace


def _check_readout_bits(s: int) -> None:
    if s > MAX_DIST_READOUT_BITS:
        raise RefusedTooLargeError(
            f"exact enumeration refused: {s} readout bits exceeds "
            f"{MAX_DIST_READOUT_BITS}"
        )


def _check_enumeration_guards(circuit: Circuit) -> None:
    _check_readout_bits(circuit.num_readout_bits)
    cells = (1 << circuit.num_readout_bits) * circuit.work_register_span
    if cells > MAX_DIST_CELLS:
        raise RefusedTooLargeError(
            f"exact enumeration refused: {cells} amplitude cells exceeds "
            f"{MAX_DIST_CELLS}"
        )


def output_distribution(circuit: Circuit) -> OutcomeDistribution:
    """Exact outcome distribution by summing every measurement branch."""
    _check_enumeration_guards(circuit)
    probs = _kernels.branch_probabilities(circuit.stage_shifts,
                                          circuit.work_register_span)
    return OutcomeDistribution(probs)


def dft_oracle_distribution(a: int, n: int, s: int) -> OutcomeDistribution:
    """Reference distribution from the non-recycled construction.

    Groups the S = 2**s exponents by a**x mod n: group j is the comb
    x = j mod r, x < S, for the order r. A shift leaves |FFT|**2 alone,
    so with S = M*r + e the e groups j < e share the spectrum of M + 1
    teeth and the other min(r, S) - e that of M: one dense FFT per
    distinct group size, weighted by its group count. Independent of
    the circuit IR and of the branch kernels.
    """
    if s < 1:
        raise DomainError("need at least one readout bit")
    if n < 2:
        raise DomainError("modulus must be at least 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise DomainError(f"{a} is not a unit mod {n}")
    _check_readout_bits(s)
    big_s = 1 << s
    r = multiplicative_order(a, n)
    teeth, longer = divmod(big_s, r)
    probs = np.zeros(big_s, dtype=np.float64)
    for groups, size in ((longer, teeth + 1),
                         (min(r, big_s) - longer, teeth)):
        if groups == 0:
            continue
        comb = np.zeros(big_s, dtype=np.float64)
        comb[:size * r:r] = 1.0
        # the comb is real: its spectrum at S - y mirrors the one at y
        half = np.fft.rfft(comb)
        power = half.real ** 2 + half.imag ** 2
        probs += groups * np.concatenate((power, power[-2:0:-1]))
    probs /= float(big_s) ** 2
    return OutcomeDistribution(probs)


def control_reduced_density(circuit: Circuit) -> np.ndarray:
    """Reduced 2x2 density matrix of the control qubit just before the
    final measurement, averaged over all earlier measurement outcomes.

    Summed over earlier prefixes b and Fourier columns m with their
    weights w: rho00 = sum w(1 + cos theta_s)/2, rho11 =
    sum w(1 - cos theta_s)/2 and rho01 = (i/2) sum w sin theta_s.
    """
    _check_enumeration_guards(circuit)
    total, cos_sum, sin_sum = _kernels.last_stage_sums(
        circuit.stage_shifts, circuit.work_register_span)
    rho = np.empty((2, 2), dtype=np.complex128)
    rho[0, 0] = 0.5 * float(np.sum(total + cos_sum))
    rho[1, 1] = 0.5 * float(np.sum(total - cos_sum))
    rho[0, 1] = 0.5j * float(np.sum(sin_sum))
    rho[1, 0] = np.conj(rho[0, 1])
    return rho


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch components (x, y, z) of a 2x2 density matrix."""
    x = 2.0 * rho[1, 0].real
    y = 2.0 * rho[1, 0].imag
    z = (rho[0, 0] - rho[1, 1]).real
    return np.array([x, y, z], dtype=np.float64)
