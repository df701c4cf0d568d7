"""Instruments the tests measure the package with.

Chi-square gates that hold a toss series to a fair coin, and a seeded
generator of random probable primes. No package code calls them, so
they live with the tests; test modules import them as `instruments`,
since pytest puts this directory on sys.path.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from shorsim.errors import DomainError
from shorsim.numtheory import is_probable_prime

# chi-square critical value, 1 degree of freedom, significance 0.001
CHI2_1DOF_P999 = 10.8276

# normal quantile for the 0.999 one-sided tail, used by the
# Wilson-Hilferty approximation for higher degrees of freedom
_Z_P999 = 3.090232


def random_probable_prime(bits: int, rng: random.Random) -> int:
    """Random probable prime with exactly `bits` bits."""
    if bits < 2:
        raise DomainError("a prime needs at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def chi_square_heads_tails(heads: int, tosses: int) -> float:
    """One-dof chi-square statistic against a fair coin."""
    if tosses < 1:
        raise DomainError("need at least one toss")
    if not 0 <= heads <= tosses:
        raise DomainError("heads count out of range")
    return (2.0 * heads - tosses) ** 2 / tosses


def chi_square_critical(dof: int) -> float:
    """Critical value at significance 0.001.

    Exact table value for one degree of freedom, Wilson-Hilferty
    approximation above that (good to a few parts in a thousand, which
    is plenty for a pass/fail gate at this significance).
    """
    if dof < 1:
        raise DomainError("degrees of freedom must be positive")
    if dof == 1:
        return CHI2_1DOF_P999
    u = 2.0 / (9.0 * dof)
    return dof * (1.0 - u + _Z_P999 * math.sqrt(u)) ** 3


def chi_square_binomial(head_counts: Sequence[int],
                        tosses_per_run: int) -> tuple[float, int, float]:
    """Goodness of fit of observed head counts to Binomial(n, 1/2).

    Adjacent outcome bins are merged until every expected count is at
    least 5 (the usual chi-square validity rule). Returns (statistic,
    degrees of freedom, critical value at significance 0.001).
    """
    if tosses_per_run < 1:
        raise DomainError("need at least one toss per run")
    runs = len(head_counts)
    if runs < 1:
        raise DomainError("need at least one run")
    observed = [0] * (tosses_per_run + 1)
    for h in head_counts:
        if not 0 <= h <= tosses_per_run:
            raise DomainError("heads count out of range")
        observed[h] += 1
    expected = [
        runs * math.comb(tosses_per_run, k) / 2**tosses_per_run
        for k in range(tosses_per_run + 1)
    ]

    # merge left to right, then fold a light last bin into its neighbor
    bins: list[tuple[float, float]] = []
    obs_acc = 0.0
    exp_acc = 0.0
    for o, e in zip(observed, expected):
        obs_acc += o
        exp_acc += e
        if exp_acc >= 5.0:
            bins.append((obs_acc, exp_acc))
            obs_acc = 0.0
            exp_acc = 0.0
    if exp_acc > 0.0:
        if bins:
            o_last, e_last = bins.pop()
            bins.append((o_last + obs_acc, e_last + exp_acc))
        else:
            bins.append((obs_acc, exp_acc))
    if len(bins) < 2:
        raise DomainError("too few runs for a meaningful chi-square bin split")

    stat = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    return stat, dof, chi_square_critical(dof)
