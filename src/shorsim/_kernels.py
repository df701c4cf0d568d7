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

Columns are independent, so they are enumerated in chunks, and memory
is O(2**(s-1) * chunk) float64 whatever r is. The last stage is never
stored: its branch pairs need only three sums per prefix, the weight
total and the weights against cos(alpha) and sin(alpha).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

# numpy is imported inside the functions that use it, so a process
# that simulates nothing never loads it.
if TYPE_CHECKING:
    import numpy as np

# Cells in one chunk's weight array (2**(s-1) branches x chunk columns).
# Of 2**14 to 2**20, 2**17 and 2**18 ran fastest on the benchmark's
# exact cases: a chunk's arrays, about 2 MiB at 2**17, stay in cache,
# and numpy's per-call cost stays small next to the work.
CHUNK_CELLS = 1 << 17


def _unit_circle(
    denominator: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/denominator for j in range(count)."""
    import numpy as np

    angles = (2.0 * np.pi / denominator) * np.arange(count)
    return np.cos(angles), np.sin(angles)


def branch_states_numpy(
    column_cos: np.ndarray,
    column_sin: np.ndarray,
    feedback: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Branch weights after the first K stages, over one column chunk.

    column_cos, column_sin: float64[K, C], cos and sin of alpha for
    stage k (row k-1) and each column of the chunk. feedback[k-1] is
    cos and sin of beta for stage k, each float64[2**(k-1)].

    Returns float64[2**K, C]: row y holds prefix y's weights, each the
    product over stages of (1 +- cos theta). The 1/2 of every stage and
    the 1/r of the start state are left to the caller: 2**-K is exact.
    """
    import numpy as np

    stages, width = column_cos.shape
    weights = np.empty((1 << stages, width))
    weights[0] = 1.0
    half = 1 << max(stages - 1, 0)
    delta_rows = np.empty((half, width))
    scratch = np.empty((half, width))
    branches = 1
    for k in range(1, stages + 1):
        beta_cos, beta_sin = feedback[k - 1]
        block = weights[:branches]
        # delta = weight * cos(theta), cos(alpha - beta) expanded
        delta = delta_rows[:branches]
        np.multiply.outer(beta_cos, column_cos[k - 1], out=delta)
        np.multiply.outer(beta_sin, column_sin[k - 1],
                          out=scratch[:branches])
        delta += scratch[:branches]
        delta *= block
        np.subtract(block, delta, out=weights[branches:2 * branches])
        block += delta
        branches *= 2
    return weights


def last_stage_sums(
    shifts: Sequence[int], span: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the last stage needs, per prefix b of the first s-1 bits.

    Returns (total, cos_sum, sin_sum), each float64[2**(s-1)]: the sum
    over columns of b's weight, and of that weight times cos theta_s
    and sin theta_s, with the 1/r and the 1/2 of each earlier stage
    applied. Readout b has probability (total + cos_sum)/2 and readout
    b + 2**(s-1) has (total - cos_sum)/2; the control qubit's reduced
    density before the last measurement follows from the same sums.
    """
    import numpy as np

    s = len(shifts)
    branches = 1 << (s - 1)
    circle_cos, circle_sin = _unit_circle(span, span)
    # stage k's feedback angles 2*pi*b/2**k, b < 2**(k-1), are every
    # 2**(s-k)-th angle 2*pi*j/2**s, j < 2**(s-1)
    table_cos, table_sin = _unit_circle(1 << s, branches)
    feedback = [(table_cos[::1 << (s - k)], table_sin[::1 << (s - k)])
                for k in range(1, s + 1)]
    shift_col = np.array(shifts, dtype=np.int64)[:, None]
    chunk = max(1, CHUNK_CELLS // branches)
    sums = np.zeros((3, branches))
    for start in range(0, span, chunk):
        columns = np.arange(start, min(start + chunk, span), dtype=np.int64)
        turns = (shift_col * columns) % span  # alpha = 2*pi*turns/r
        column_cos, column_sin = circle_cos[turns], circle_sin[turns]
        weights = branch_states_numpy(
            column_cos[:-1], column_sin[:-1], feedback[:-1])
        # one (3, C) x (C, 2**(s-1)) product; weights @ along.T was
        # about 100x slower (numpy 2.4, C = 4, 2**19 rows)
        along = np.stack((np.ones(columns.size), column_cos[-1],
                          column_sin[-1]))
        sums += along @ weights.T
    total, along_cos, along_sin = sums * (0.5 ** (s - 1) / span)
    beta_cos, beta_sin = feedback[-1]
    return (total,
            beta_cos * along_cos + beta_sin * along_sin,
            beta_cos * along_sin - beta_sin * along_cos)

def branch_probabilities(shifts: Sequence[int], span: int) -> np.ndarray:
    """Outcome probabilities over all 2**s readouts.

    shifts: the column shift of each stage (Circuit.stage_shifts);
    span: the order r of the work orbit.
    """
    import numpy as np

    total, cos_sum, _ = last_stage_sums(shifts, span)
    return 0.5 * np.concatenate((total + cos_sum, total - cos_sum))
