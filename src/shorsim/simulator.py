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
phase gates. A shot returns its readout and each stage's odds of a 1.
Every shot takes its first stage in scalars; a one-stage shot, the
compiled circuit's, ends there and loads no numpy. Each later stage
costs a fixed handful of passes over two (2, r) buffers and two block
norms. Stage k draws the k-th double of the shot's seeded stream,
_pcg64's pure-Python copy of numpy's PCG64.

The exact routes, output_distribution and control_reduced_density,
enumerate every measurement branch in the Fourier basis of Z_r instead,
where each of those shifts is one phase per column (see _kernels). They
carry real weights, a chunk of columns or a subtree of prefixes at a
time, never a complex 2**s x r state, and each block of readouts goes
into the output as soon as its sums over the columns are complete. The
feedback table of each readout size is built by the first exact call
with that s and kept for the process. At s = 20 output_distribution
peaks at 18 MiB under tracemalloc on that first call and 11.7 MiB on
later ones, 8 MiB of it the output; control_reduced_density at 10 and
3.7 MiB. The cached tables of every s <= 20 hold 12 MiB in all.

Two exact-distribution routes exist on purpose: output_distribution
enumerates the branches from the IR's stage shifts and feedback phases,
while dft_oracle_distribution never looks at the IR and builds the
plain dense-Fourier reference over the 2**s exponent register from the
order of a alone, one dense FFT per distinct group size over one
repeat of its periodic spectrum. They share nothing past that order,
so a slip in the IR's shifts or phases or in the kernel shows as a gap
between them. Tests hold the two together.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from . import _kernels
from ._pcg64 import random_stream
from .compiler import Circuit
from .errors import DomainError, RefusedTooLargeError, SimulationError
from .numtheory import _check_integers, multiplicative_order, to_decimal

# numpy is imported inside the functions that use it, so a process
# that simulates nothing, or only one-stage shots, never loads it.
if TYPE_CHECKING:
    import numpy as np

# Exact enumeration refuses beyond these. The readout cap keeps the
# dense outcome vector a desk-scale object. It bounds the oracle too,
# whose FFTs take 2**s / gcd(r, 2**s) points, all 2**s of them for an
# odd r; the oracle's other guard is its order scan,
# multiplicative_order, which refuses n >= ORDER_SCAN_LIMIT.
# The cell cap bounds the 2**s * r cells of one branch enumeration and
# is a time budget: the kernel holds at most 2**18 branch cells at a
# time, so memory no longer binds. It still counts all r columns, though
# the kernel grows branches for r / gcd(r, 4) of them. At the cap, the
# slowest shape of each gcd(r, 4) and the largest orbit took, per call
# (best of 7, least over ten processes; 2-CPU Intel Xeon, Python 3.11,
# numpy 2.4), with the tracemalloc peak. A cold call builds the feedback
# table for its s; a warm one, any later call with that s in the same
# process, finds it cached:
#
#                                   output_distribution  reduced density
#   (a, n, s)       r      classes  cold      warm       cold      warm
#   (7, 311, 20)    31     31       85 ms     79 ms      64 ms     63 ms
#   (3, 31, 20)     30     15       52 ms     46 ms      41 ms     38 ms
#   (19, 97, 20)    32     8        36 ms     31 ms      28 ms     26 ms
#   (2, 65519, 10)  32759  32759    49 ms     50 ms      47 ms     46 ms
#   peak, s = 20                    18 MiB    11.7 MiB   10 MiB    3.7 MiB
#   peak, s = 10                    4 MiB     4 MiB      4 MiB     4 MiB
MAX_DIST_READOUT_BITS = 20
MAX_DIST_CELLS = 1 << 25

NORM_TOLERANCE = 1e-12

# Bit for bit equal to 1.0 / np.sqrt(2.0) and to -2.0 * np.pi.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MINUS_TWO_PI = -2.0 * math.pi


class OutcomeDistribution:
    """Exact probabilities over every readout y in [0, 2**s).

    Wraps a dense float vector without copying it: the distribution
    keeps a read-only view of a float64 array. Entries may fall short
    of 0 by rounding, down to -1e-12; a vector with such an entry is
    copied with it clipped to 0, so the caller's array is never
    written. Probabilities sum to 1 within 1e-12.
    """

    def __init__(self, probabilities: np.ndarray):
        import numpy as np

        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("need a nonempty 1-d probability vector")
        lowest = float(probs.min())
        if not lowest >= -NORM_TOLERANCE:  # NaN fails too
            raise SimulationError("negative or NaN probability encountered")
        total = float(probs.sum())
        if not abs(total - 1.0) <= NORM_TOLERANCE:
            raise SimulationError(
                f"probabilities sum to {total}, expected 1"
            )
        self._probs = np.clip(probs, 0.0, None) if lowest < 0.0 \
            else probs.view()
        self._probs.setflags(write=False)

    def __len__(self) -> int:
        return int(self._probs.size)

    def __getitem__(self, y: int) -> float:
        # numpy would read a bool as a mask; Python and numpy integers
        # pass, anything else is refused before it reaches the array
        try:
            if isinstance(y, bool):
                raise TypeError
            index = operator.index(y)
        except TypeError:
            raise TypeError(f"readout must be an integer, got {y!r}") \
                from None
        # IndexError, which also ends the legacy iteration protocol
        if not 0 <= index < self._probs.size:
            raise IndexError(
                f"readout {y} is outside [0, {self._probs.size})")
        return float(self._probs[index])

    def as_array(self) -> np.ndarray:
        return self._probs

    def support(self) -> list[int]:
        """Outcomes with nonzero probability."""
        return self._probs.nonzero()[0].tolist()

    def as_dict(self) -> dict[int, float]:
        """Probability per outcome in the support."""
        support = self._probs.nonzero()[0]
        return dict(zip(support.tolist(), self._probs[support].tolist()))


def total_variation(d1: OutcomeDistribution, d2: OutcomeDistribution) -> float:
    """Total variation distance between two same-length distributions."""
    if len(d1) != len(d2):
        raise DomainError("distributions cover different outcome sets")
    return 0.5 * float(abs(d1.as_array() - d2.as_array()).sum())


def feedback_phase(y: int, k: int) -> float:
    """Stage k's feedback angle -2*pi*P/2**k, P = y mod 2**(k-1), with
    P/2**k rounded once so no k overflows; 0.0 at stage 1."""
    if k == 1:
        return 0.0
    return _MINUS_TWO_PI * ((y & ((1 << (k - 1)) - 1)) / (1 << k))


def run_circuit(circuit: Circuit, seed: int) -> tuple[int, tuple[float, ...]]:
    """Sample one trajectory; deterministic per seed.

    The work register starts at residue 1. Returns the readout y
    assembled from the measured bits (classical bit index = bit
    significance) and p_ones, per stage, first to last, the odds that
    its bit read 1 given the bits before it. Stage k picks its outcome
    with the k-th double of _pcg64's copy of numpy's PCG64 stream.

    Stage 1 is a few scalar operations with the floats numpy's passes
    would form. From residue 1, PREP+ and the Hadamard leave c =
    (1/sqrt 2)(1/sqrt 2) in each block at columns 0 and t_1 = 2**(s-1)
    mod r, with sign -1 at t_1 in the control-|1> block, so each block
    norm is c*c + c*c. When t_1 = 0 the control-|0> block holds 2c in
    column 0 and the other block is zero. A one-stage shot (every
    compiled circuit) returns there and never loads numpy.

    Later stages run on two preallocated (2, r) complex buffers, four
    complex r-vectors (64 B per exponent column) in all, seeded with
    the kept stage-1 block; each shot costs O(s * r). A stage scales
    the register, writes its shifted copy with the feedback phase in
    the same pass, forms and scales the two Hadamard blocks, takes one
    norm per block and rescales the kept block: ten numpy calls, each
    looked up once per shot and given its output by position, and no
    allocation.
    """
    uniforms = random_stream(seed)
    shifts = circuit.stage_shifts
    shift = shifts[0]
    c = _INV_SQRT2 * _INV_SQRT2
    if shift == 0:
        p0, p1 = (2.0 * c) * (2.0 * c), 0.0
    else:
        p0 = p1 = c * c + c * c
    if not abs(p0 + p1 - 1.0) <= NORM_TOLERANCE:  # NaN fails too
        raise SimulationError(f"state norm drifted to {p0 + p1}")
    prefix = 1 if next(uniforms) < p1 else 0
    if len(shifts) == 1:
        return prefix, (p1,)
    import numpy as np

    r = circuit.work_register_span
    # pre0 holds the work register between stages; pre1 its copy
    # shifted by the controlled multiply. post holds the two blocks
    # after the Hadamard, one per control outcome.
    pre = np.zeros((2, r), dtype=np.complex128)
    post = np.empty((2, r), dtype=np.complex128)
    pre0, pre1 = pre
    post0, post1 = post
    # the kept stage-1 block, rescaled by its own norm
    scale = 1.0 / math.sqrt(p1 if prefix else p0)
    if shift == 0:
        pre0[0] = (2.0 * c) * scale
    else:
        pre0[0] = c * scale
        pre0[shift] = (-c if prefix else c) * scale
    # Dividing complex by a real c multiplies each float part by 1/c,
    # so scaling the float views matches numpy's division bit for bit
    # (up to the sign of an exact zero, which nothing reads).
    pre0_parts = pre0.view(np.float64)
    post_parts = post.view(np.float64)
    kept_parts = tuple(post_parts)
    # the same ten numpy calls per stage, looked up once, outputs passed
    # by position
    multiply, add, subtract, exp, vdot = (
        np.multiply, np.add, np.subtract, np.exp, np.vdot)
    inv_sqrt2 = _INV_SQRT2
    p_ones = [p1]
    for stage, (shift, uniform) in enumerate(zip(shifts[1:], uniforms), 2):
        # PREP+, then the controlled multiply shifts the control-|1> block
        # and its copy takes the feedback angle of the bits measured so far
        multiply(pre0_parts, inv_sqrt2, pre0_parts)
        turn = exp(1j * feedback_phase(prefix, stage))
        multiply(pre0[:r - shift], turn, pre1[shift:])
        multiply(pre0[r - shift:], turn, pre1[:shift])
        add(pre0, pre1, post0)
        subtract(pre0, pre1, post1)
        multiply(post_parts, inv_sqrt2, post_parts)
        p0 = float(vdot(post0, post0).real)
        p1 = float(vdot(post1, post1).real)
        if not abs(p0 + p1 - 1.0) <= NORM_TOLERANCE:
            raise SimulationError(f"state norm drifted to {p0 + p1}")
        outcome = 1 if uniform < p1 else 0
        # renormalise by the kept block's own norm, not by its odds, so
        # rounding error cannot grow by 1/p over unlikely outcomes
        multiply(kept_parts[outcome], 1.0 / math.sqrt(p1 if outcome else p0),
                 pre0_parts)
        prefix |= outcome << (stage - 1)
        p_ones.append(p1)
    return prefix, tuple(p_ones)


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
    import numpy as np

    probs = _kernels.branch_probabilities(circuit.stage_shifts,
                                          circuit.work_register_span)
    # rounding can leave an exact zero a few ulps below 0
    np.maximum(probs, 0.0, out=probs)
    return OutcomeDistribution(probs)


def _add_comb_power(probs: np.ndarray, step: int, teeth: int,
                    groups: int) -> None:
    """Add groups * |FFT|**2 of `teeth` ones, `step` apart, to probs.

    The transform has len(probs) points: S/g of the oracle's S = 2**s,
    g = gcd(r, S), one repeat of the spectrum, with `step` = r/g. Each
    array is dropped once used, and the power is added by slices, so
    besides probs no more than two len(probs)-point arrays are held at
    once.
    """
    import numpy as np

    comb = np.zeros(probs.size, dtype=np.float64)
    comb[:teeth * step:step] = 1.0
    half = np.fft.rfft(comb)
    del comb
    power = half.real ** 2 + half.imag ** 2
    power *= groups
    # the comb is real: its spectrum at S - y mirrors the one at y
    probs[:power.size] += power
    probs[power.size:] += power[-2:0:-1]


def dft_oracle_distribution(a: int, n: int, s: int) -> OutcomeDistribution:
    """Reference distribution from the non-recycled construction.

    Groups the S = 2**s exponents by a**x mod n: group j is the comb
    x = j mod r, x < S, for the order r. A shift leaves |FFT|**2 alone,
    so with S = M*r + e the e groups j < e share the spectrum of M + 1
    teeth and the other min(r, S) - e that of M: one dense FFT per
    distinct group size, weighted by its group count.

    A comb of step r has a spectrum that depends on y only through
    r*y mod S, so with g = gcd(r, S) it repeats every S/g outcomes.
    One repeat is the spectrum over S/g points of the same teeth at
    step r/g, which never wrap, since (teeth - 1)*r < S. Each FFT
    therefore takes S/g points and the scaled repeat is tiled g times;
    an odd r has g = 1 and no tiling. Independent of the circuit IR
    and of the branch kernels.
    """
    import numpy as np

    _check_integers(a=a, n=n, s=s)
    if s < 1:
        raise DomainError("need at least one readout bit")
    if n < 2:
        raise DomainError("modulus must be at least 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise DomainError(f"{to_decimal(a)} is not a unit mod "
                          f"{to_decimal(n)}")
    _check_readout_bits(s)
    big_s = 1 << s
    r = multiplicative_order(a, n)
    teeth, longer = divmod(big_s, r)
    repeats = math.gcd(r, big_s)
    probs = np.zeros(big_s // repeats, dtype=np.float64)
    for groups, size in ((longer, teeth + 1),
                         (min(r, big_s) - longer, teeth)):
        if groups:
            _add_comb_power(probs, r // repeats, size, groups)
    probs /= float(big_s) ** 2
    if repeats > 1:
        probs = np.tile(probs, repeats)
    return OutcomeDistribution(probs)


def control_reduced_density(circuit: Circuit) -> np.ndarray:
    """Reduced 2x2 density matrix of the control qubit just before the
    final measurement, averaged over all earlier measurement outcomes.

    Summed over earlier prefixes b and Fourier columns m with their
    weights w: rho00 = sum w(1 + cos theta_s)/2, rho11 =
    sum w(1 - cos theta_s)/2 and rho01 = (i/2) sum w sin theta_s.
    """
    _check_enumeration_guards(circuit)
    import numpy as np

    total, cos_sum, sin_sum = _kernels.last_stage_sums(
        circuit.stage_shifts, circuit.work_register_span)
    return np.array([[0.5 * (total + cos_sum), 0.5j * sin_sum],
                     [-0.5j * sin_sum, 0.5 * (total - cos_sum)]])
