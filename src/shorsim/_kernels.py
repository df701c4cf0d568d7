"""Exact readout enumeration in the Fourier basis of the period.

Column j of the work register holds a**j, so every controlled multiply
of a canonical circuit is a cyclic shift of Z_r, r the order of a. The
Fourier basis of Z_r, the eigenvectors

    |u_m> = r**-1/2 * sum_j exp(-2*pi*i*j*m/r) |a**j>

of modular multiplication used in phase estimation, diagonalises every
such shift at once: a shift by t multiplies the u_m amplitude by
exp(2*pi*i*m*t/r). The start state, residue 1, is r**-1/2 times the sum
of all r of them, and columns never mix.

After stage k there are 2**k branches, one per readout prefix, and the
branch index is the readout value accumulated so far. Stage k maps
branch b (b < 2**(k-1)) to branches b and b + 2**(k-1), multiplying the
column-m amplitude by (1 + e**(i*theta))/2 and (1 - e**(i*theta))/2 with

    theta = alpha - beta,  alpha = 2*pi*(m*t_k mod r)/r,  beta = 2*pi*b/2**k,

t_k the stage-k shift and beta the feedback phase. Only squared
magnitudes reach a probability, and |(1 +- e**(i*theta))/2|**2 is
(1 +- cos theta)/2, so each branch carries one real weight per column,
starting from 1/r. The probability of a readout is the sum of its
weights over the columns. cos theta is taken as
cos(alpha)*cos(beta) + sin(alpha)*sin(beta): one trig row per stage
over the columns, one per stage over the branches.

Columns are independent, so they are enumerated in chunks. Only the
first s - L stages are stored as branches, L = min(FOLD_STAGES, s);
the last L are folded into moments. Per stored prefix, the weights
are summed over the columns against the 3**L products of
(1, cos alpha_k, sin alpha_k) over the folded stages k. Since
cos theta_k is linear in cos alpha_k and sin alpha_k, these moments
are enough to split each prefix by one folded stage after another,
(E +- F)/2 with E the moments against 1 and F those against
cos theta_k, and the sums over the columns never have to be redone.

Columns that share every stored stage share their branch weights.
Stored stage k sees column m only through m*t_k mod r, so if g divides
r and every stored shift, columns r/g apart grow the same weights. The
branches are grown once per column class m < r/g, with
g = gcd(r, t_1, ..., t_{s-L}), and each class's folded-stage products
are summed over its g members m + j*r/g before they meet the weights.
For the circuit's shifts t_k = 2**(s-k) mod r, g = gcd(r, 2**L) when a
stage is stored (up to 4 for even r, 1 for odd r); with none stored,
all columns are one class. The branch tree thus costs
O(2**(s-L) * r/gcd(r, 2**L)) cells, not 2**s * r. Memory is
O(2**(s-L) * chunk) float64 for the branches plus 3**L * 2**(s-L) for
the moments, whatever r is.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

# numpy is imported inside the functions that use it, so a process
# that simulates nothing never loads it.
if TYPE_CHECKING:
    import numpy as np

# Cells in one chunk's weight array (2**(s-L) branches x chunk columns).
# Of 2**16, 2**17 and 2**18, 2**18 ran fastest on the benchmark's exact
# cases, by about 6% over 2**17 summed over the five; at s = 20 a
# chunk is one column with any of them.
CHUNK_CELLS = 1 << 18

# Readout stages folded into moments instead of stored as branches.
FOLD_STAGES = 2

# Prefixes per block when a chunk adds its moments: the (3**L, block)
# product stays in cache, and no 3**L x 2**(s-L) temporary is made.
_PREFIX_BLOCK = 1 << 12


def _unit_circle(denominator: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/denominator for j in range(denominator)."""
    import numpy as np

    angles = (2.0 * np.pi / denominator) * np.arange(denominator)
    return np.cos(angles), np.sin(angles)


def _feedback_table(s: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/2**s for j < 2**(s-1).

    cos is evaluated on the quarter wave j <= 2**(s-2) alone, with
    cos(pi/2) set to its exact 0; the rest of both rows are mirror
    images of it, as sin x = cos(pi/2 - x) and cos x = -cos(pi - x).
    """
    import numpy as np

    if s == 1:
        return np.ones(1), np.zeros(1)
    quarter = 1 << (s - 2)
    wave = np.cos((2.0 * np.pi / (1 << s)) * np.arange(quarter + 1))
    wave[quarter] = 0.0
    table_cos, table_sin = np.empty((2, 2 * quarter))
    table_cos[:quarter + 1] = wave
    table_cos[quarter + 1:] = -wave[quarter - 1:0:-1]
    table_sin[:quarter + 1] = wave[::-1]
    table_sin[quarter + 1:] = wave[1:quarter]
    return table_cos, table_sin


def branch_states_numpy(
    column_cos: np.ndarray,
    column_sin: np.ndarray,
    feedback: Sequence[tuple[np.ndarray, np.ndarray]],
    weights: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Branch weights after the first K stages, over one column chunk.

    column_cos, column_sin: float64[K, C], cos and sin of alpha for
    stage k (row k-1) and each column of the chunk. feedback[k-1] is
    cos and sin of beta for stage k, each float64[2**(k-1)]. weights,
    float64[2**K, C], receives the result and is returned; scratch
    holds at least 2**(K-1) * C floats.

    Row y of the result holds prefix y's weights, each the product over
    stages of (1 +- cos theta). The 1/2 of every stage and the 1/r of
    the start state are left to the caller: 2**-K is exact.
    """
    import numpy as np

    stages, width = column_cos.shape
    weights[0] = 1.0
    branches = 1
    for k in range(1, stages + 1):
        beta_cos, beta_sin = feedback[k - 1]
        block = weights[:branches]
        upper = weights[branches:2 * branches]
        # delta = weight * cos(theta), cos(alpha - beta) expanded; the
        # upper half is free until it receives block - delta
        delta = scratch[:branches * width].reshape(branches, width)
        np.multiply.outer(beta_cos, column_cos[k - 1], out=upper)
        np.multiply.outer(beta_sin, column_sin[k - 1], out=delta)
        delta += upper
        delta *= block
        np.subtract(block, delta, out=upper)
        block += delta
        branches *= 2
    return weights


def _folded_moments(
    shifts: Sequence[int], span: int,
    feedback: Sequence[tuple[np.ndarray, np.ndarray]], scale: float,
) -> np.ndarray:
    """Weights of the stored prefixes against the folded stages.

    Returns float64[3**L, 2**(s-L)]: row sum_k i_k * 3**(s-k) holds,
    per prefix of the first s-L bits, the sum over columns of its
    weight times the product over folded stages k of
    (1, cos alpha_k, sin alpha_k)[i_k], times scale.
    """
    import numpy as np

    s = len(shifts)
    stored = s - min(FOLD_STAGES, s)
    branches = 1 << stored
    # members divides span and every stored shift, so columns `classes`
    # apart see the same stored angles and grow the same branch weights
    members = math.gcd(span, *shifts[:stored])
    classes = span // members
    circle_cos, circle_sin = _unit_circle(span)
    shift_col = np.array(shifts[:stored], dtype=np.int64)[:, None]
    chunk = min(classes, max(1, CHUNK_CELLS // branches))
    # one buffer each for the whole call; a narrower last chunk takes
    # a contiguous front part of them
    cells = np.empty(branches * chunk)
    scratch = np.empty(max(branches // 2, 1) * chunk)
    moments = np.zeros((3 ** (s - stored), branches))
    product = np.empty((moments.shape[0], min(branches, _PREFIX_BLOCK)))
    for start in range(0, classes, chunk):
        columns = np.arange(start, min(start + chunk, classes),
                            dtype=np.int64)
        width = columns.size
        turns = (shift_col * columns) % span  # alpha = 2*pi*turns/r
        weights = branch_states_numpy(
            circle_cos[turns], circle_sin[turns], feedback[:stored],
            cells[:branches * width].reshape(branches, width), scratch)
        # the folded stages over every member m + j * classes of each
        # class, summed per class once multiplied out
        member_columns = (np.arange(members, dtype=np.int64)[:, None]
                          * classes + columns).ravel()
        along = np.full((1, member_columns.size), scale)
        for k in range(stored, s):
            turns = (shifts[k] * member_columns) % span
            trig = np.stack((np.ones(member_columns.size),
                             circle_cos[turns], circle_sin[turns]))
            along = (along[:, None] * trig).reshape(-1, member_columns.size)
        along = along.reshape(-1, members, width).sum(axis=1)
        # (3**L, C) x (C, block) products; over one column that is an
        # outer product, which matmul made about 3x slower than
        # np.multiply.outer (numpy 2.4, 2**18 prefixes)
        for lo in range(0, branches, product.shape[1]):
            hi = lo + product.shape[1]
            if width > 1:
                np.matmul(along, weights[lo:hi].T, out=product)
            else:
                np.multiply.outer(along[:, 0], weights[lo:hi, 0], out=product)
            moments[:, lo:hi] += product
    return moments


def _unfold(moments: np.ndarray, beta_cos: np.ndarray,
            beta_sin: np.ndarray) -> np.ndarray:
    """Split every prefix by the first folded stage k left.

    moments: float64[3*m, P], rows ordered as _folded_moments orders
    them, over the P = 2**(k-1) prefixes before stage k; beta_cos and
    beta_sin: cos and sin of stage k's feedback angles. Returns
    float64[m, 2*P] over the prefixes through stage k: E + F for bit
    k = 0 and E - F for bit k = 1, E the rows against 1 and F those
    against cos theta_k. The stage's 1/2 is left to the caller.
    Overwrites the cos and sin rows of moments.
    """
    import numpy as np

    rows, prefixes = moments.shape[0] // 3, moments.shape[1]
    even, along_cos, along_sin = moments.reshape(3, rows, prefixes)
    # contiguous copies of the strided feedback rows, which every
    # moment row reads: at s = 20 the two multiplies took 2.1 ms
    # instead of 2.9 ms
    along_cos *= np.ascontiguousarray(beta_cos)
    along_sin *= np.ascontiguousarray(beta_sin)
    along_cos += along_sin
    split = np.empty((rows, 2, prefixes))
    np.add(even, along_cos, out=split[:, 0])
    np.subtract(even, along_cos, out=split[:, 1])
    return split.reshape(rows, 2 * prefixes)


def _unfolded_moments(
    shifts: Sequence[int], span: int, through: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Moments per prefix of the first `through` bits, s - L <= through.

    Returns (moments, feedback): moments as _folded_moments gives them
    but over prefixes through stage `through`, float64[3**(s-through),
    2**through], with the 1/r and the 1/2 of each of those stages
    applied; feedback[k-1] is cos and sin of stage k's feedback angles.
    """
    s = len(shifts)
    # stage k's feedback angles 2*pi*b/2**k, b < 2**(k-1), are every
    # 2**(s-k)-th angle 2*pi*j/2**s, j < 2**(s-1)
    table_cos, table_sin = _feedback_table(s)
    feedback = [(table_cos[::1 << (s - k)], table_sin[::1 << (s - k)])
                for k in range(1, s + 1)]
    moments = _folded_moments(shifts, span, feedback, 0.5 ** through / span)
    for k in range(s - min(FOLD_STAGES, s) + 1, through + 1):
        moments = _unfold(moments, *feedback[k - 1])
    return moments, feedback


def last_stage_sums(
    shifts: Sequence[int], span: int
) -> tuple[float, float, float]:
    """What the control qubit holds before the last measurement.

    Returns (total, cos_sum, sin_sum): the sum over every prefix b of
    the first s-1 bits and every column of b's weight, and of that
    weight times cos theta_s and sin theta_s, with the 1/r and the 1/2
    of each earlier stage applied. The last bit reads 0 with
    probability (total + cos_sum)/2 and 1 with (total - cos_sum)/2.
    """
    (total, along_cos, along_sin), feedback = _unfolded_moments(
        shifts, span, len(shifts) - 1)
    beta_cos, beta_sin = feedback[-1]
    return (float(total.sum()),
            float(beta_cos @ along_cos + beta_sin @ along_sin),
            float(beta_cos @ along_sin - beta_sin @ along_cos))


def branch_probabilities(shifts: Sequence[int], span: int) -> np.ndarray:
    """Outcome probabilities over all 2**s readouts.

    shifts: the column shift of each stage (Circuit.stage_shifts);
    span: the order r of the work orbit.
    """
    moments, _ = _unfolded_moments(shifts, span, len(shifts))
    return moments[0]
