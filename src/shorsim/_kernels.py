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

Only the first s - L stages are stored as branches, L =
min(FOLD_STAGES, s); the last L are folded into moments, each stored
prefix's weights summed over the columns against the 3**L products of
(1, cos alpha_k, sin alpha_k) over the folded stages k. As cos theta_k
is linear in cos alpha_k and sin alpha_k, these moments split each
prefix by one folded stage after another, (E +- F)/2 with E the
moments against 1 and F those against cos theta_k, and the sums over
the columns are never redone.

Columns that share every stored stage share their branch weights.
Stored stage k sees column m only through m*t_k mod r, so if g divides
r and every stored shift, columns r/g apart grow the same weights. The
branches are grown once per column class m < r/g, with
g = gcd(r, t_1, ..., t_{s-L}), and each class's folded-stage products
are summed over its g members m + j*r/g before they meet the weights.
For the circuit's shifts t_k = 2**(s-k) mod r, g = gcd(r, 2**L) when a
stage is stored (up to 4 for even r, 1 for odd r); with none stored,
all columns are one class. The branch tree thus costs
O(2**(s-L) * r/gcd(r, 2**L)) cells, not 2**s * r.

A block of stored prefixes is split as soon as its moments are
complete over every class, straight into the output. A tree of one
block is grown a column chunk at a time: the first chunk writes the
block's moments, and each later one adds its own to them. A larger
tree is grown in one chunk, so each of its blocks' moments is written
once. It grows its first d stages once, d the least with
classes * 2**(s-L-d) <= CHUNK_CELLS, then from each node j a subtree
whose leaves j + 2**d * t are a stride-2**d slice of the feedback rows
and of the output. Beside the output, a call holds at most CHUNK_CELLS
branch cells, one block's moments and the halves of one block's split,
whatever r is, in buffers it makes once, not once per block. The
feedback table of 3 * 2**(s-2) cosines depends on s alone: the first
call with a given s builds it, and it stays cached, read-only, for
every later call in the process.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Sequence

# numpy is imported inside the functions that use it, so a process
# that simulates nothing never loads it.
if TYPE_CHECKING:
    import numpy as np

# Cells in one weight array: 2**(s-L) branches x a chunk's columns, or
# a subtree's leaves x every class. Of 2**16 to 2**19, 2**18 ran fastest
# or within noise of it, summed over the benchmark's exact cases.
CHUNK_CELLS = 1 << 18

# Readout stages folded into moments instead of stored as branches.
FOLD_STAGES = 2

# Prefixes per block of moments: the (3**L, block) product stays in
# cache while it is split.
_PREFIX_BLOCK = 1 << 12


@functools.lru_cache(maxsize=None)
def _feedback_table(s: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*j/2**s for j < 2**(s-1): two read-only views
    of one array of cos(2*pi*i/2**t), -Q <= i < 2*Q, t = max(s, 2),
    Q = 2**(t-2).

    Built once per s and kept for the life of the process: the exact
    routes refuse s > MAX_DIST_READOUT_BITS = 20 before they get here,
    so the cache holds at most 20 tables, 12 MiB in all.

    cos is evaluated on the quarter wave 0 <= i <= Q alone, with
    cos(pi/2) set to its exact 0, and mirrored, as cos(-x) = cos x =
    -cos(pi - x). The sin row is the cos row read Q places earlier, as
    sin x = cos(x - pi/2).
    """
    import numpy as np

    t = max(s, 2)
    quarter = 1 << (t - 2)
    wave = np.cos((2.0 * np.pi / (1 << t)) * np.arange(quarter + 1))
    wave[quarter] = 0.0
    circle = np.concatenate((wave[:0:-1], wave, -wave[quarter - 1:0:-1]))
    # shared by every later call with this s, so no pass may write it
    circle.setflags(write=False)
    stride = 1 << (t - s)
    return circle[quarter::stride], circle[:2 * quarter:stride]


def branch_states_numpy(
    column_cos: np.ndarray,
    column_sin: np.ndarray,
    feedback: Sequence[tuple[np.ndarray, np.ndarray]],
    weights: np.ndarray,
    scratch: np.ndarray,
    start: np.ndarray | float,
) -> np.ndarray:
    """Branch weights after K more stages, over one column chunk.

    column_cos, column_sin: float64[K, C], cos and sin of alpha for
    each stage (one row each) and each column of the chunk. feedback[i]
    is cos and sin of beta for the (i+1)-th stage, each float64[2**i].
    weights, float64[2**K, C], receives the result and is returned;
    scratch holds at least 2**(K-1) * C floats. start, a float or
    float64[C], is the weights of the branch that the stages split.

    Row y of the result holds prefix y's weights, each start times the
    product over stages of (1 +- cos theta). The 1/2 of every stage and
    the 1/r of the start state are left to the caller: 2**-K is exact.
    """
    import numpy as np

    stages, width = column_cos.shape
    weights[0] = start
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


def _stream(shifts: Sequence[int], span: int,
            probs: np.ndarray | None) -> tuple[float, float, float]:
    """Split every block of stored prefixes by the folded stages once
    its moments are complete, as the module docstring describes.

    A block's moments are written by its first column chunk and added
    to by later ones, so they are never zero-filled. The buffers, the
    moments and the split's halves among them, are made once per call.

    With probs, float64[2**s], each readout's probability is written
    there and zeros are returned; without, last_stage_sums' sums.
    """
    import numpy as np

    s = len(shifts)
    stored = s - min(FOLD_STAGES, s)
    branches = 1 << stored
    # stage k's feedback angles 2*pi*b/2**k, b < 2**(k-1), are every
    # 2**(s-k)-th angle 2*pi*j/2**s, j < 2**(s-1)
    table_cos, table_sin = _feedback_table(s)
    feedback = [(table_cos[::1 << (s - k)], table_sin[::1 << (s - k)])
                for k in range(1, s + 1)]
    # members divides span and every stored shift, so columns `classes`
    # apart see the same stored angles and grow the same branch weights
    members = math.gcd(span, *shifts[:stored])
    classes = span // members
    angles = (2.0 * np.pi / span) * np.arange(span)  # alpha of turns 0..r-1
    circle_cos, circle_sin = np.cos(angles), np.sin(angles)
    shift_col = np.array(shifts[:stored], dtype=np.int64)[:, None]
    depth = 0 if branches <= _PREFIX_BLOCK else min(
        stored, (-(-classes * branches // CHUNK_CELLS) - 1).bit_length())
    nodes, leaves = 1 << depth, branches >> depth
    chunk = classes if depth else min(classes,
                                      max(1, CHUNK_CELLS // branches))
    block = min(leaves, _PREFIX_BLOCK)
    # one buffer each for the whole call; a narrower last chunk takes a
    # contiguous front part of them
    cells = np.empty(leaves * chunk)
    scratch = np.empty(max(nodes, leaves, 2) // 2 * chunk)
    moments = np.empty((3 ** (s - stored), block))
    product = np.empty_like(moments)
    # the split's halves after each folded stage but the last, which
    # writes the output or the sums
    halves = [np.empty((3 ** (s - k), 2, 1 << (k - stored - 1), block))
              for k in range(stored + 1, s)]
    sums = np.zeros(3)
    # node j's subtree: its leaves are the stored prefixes j + nodes * t
    subtrees = [[(beta_cos[node::nodes], beta_sin[node::nodes])
                 for beta_cos, beta_sin in feedback[depth:stored]]
                for node in range(nodes)]
    scale = 0.5 ** (s - 1 if probs is None else s) / span
    if probs is not None:  # [0, bit, h, p]: readout p + (h + bit*H) * 2**(s-L)
        probs = probs.reshape(1, 2, 1 << (s - stored - 1), branches)

    def finish(prefixes):
        # split[i, h, p]: readout prefix p + h * 2**(s-L) against the
        # folded stages left, stage k's index the leading one of i
        split = moments.reshape(-1, 1, block)
        for k in range(stored + 1, s + 1):
            # contiguous copies of the strided feedback rows
            beta_cos, beta_sin = (np.ascontiguousarray(
                beta.reshape(split.shape[1], -1)[:, prefixes])
                for beta in feedback[k - 1])
            even, along_cos, along_sin = split.reshape(3, -1, *split.shape[1:])
            if k == s and probs is None:
                sums[:] += (even.sum(), np.vdot(beta_cos, along_cos)
                            + np.vdot(beta_sin, along_sin),
                            np.vdot(beta_cos, along_sin)
                            - np.vdot(beta_sin, along_cos))
                return
            along_cos *= beta_cos
            along_sin *= beta_sin
            along_cos += along_sin
            # E + F for bit k = 0 and E - F for bit k = 1
            out = probs[..., prefixes] if k == s else halves[k - stored - 1]
            np.add(even, along_cos, out=out[:, 0])
            np.subtract(even, along_cos, out=out[:, 1])
            split = out.reshape(len(out), -1, block)

    for start in range(0, classes, chunk):
        columns = np.arange(start, min(start + chunk, classes),
                            dtype=np.int64)
        width = columns.size
        turns = (shift_col * columns) % span  # alpha = 2*pi*turns/r
        column_cos, column_sin = circle_cos[turns], circle_sin[turns]
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
        tops = np.ones((1, width)) if not depth else branch_states_numpy(
            column_cos[:depth], column_sin[:depth], feedback[:depth],
            np.empty((nodes, width)), scratch, 1.0)
        for node in range(nodes):
            weights = branch_states_numpy(
                column_cos[depth:], column_sin[depth:], subtrees[node],
                cells[:leaves * width].reshape(leaves, width), scratch,
                tops[node])
            for lo in range(0, leaves, block):
                # the first chunk writes the moments; more than one chunk
                # means one block, which each later chunk adds to
                out = product if start else moments
                # over one column, an outer product: 9x faster than matmul
                # on 4096 prefixes (numpy 2.4)
                if width > 1:
                    np.matmul(along, weights[lo:lo + block].T, out=out)
                else:
                    np.multiply.outer(along[:, 0], weights[lo:lo + block, 0],
                                      out=out)
                if start:
                    moments += product
                if start + width == classes:
                    finish(slice(node + lo * nodes,
                                 node + (lo + block) * nodes, nodes))
    return tuple(float(x) for x in sums)


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
    return _stream(shifts, span, None)


def branch_probabilities(shifts: Sequence[int], span: int) -> np.ndarray:
    """Outcome probabilities over all 2**s readouts.

    shifts: the column shift of each stage (Circuit.stage_shifts);
    span: the order r of the work orbit.
    """
    import numpy as np

    probs = np.empty(1 << len(shifts))
    _stream(shifts, span, probs)
    return probs
