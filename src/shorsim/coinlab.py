"""Toss statistics for the coin-toss reduction of the compiled circuit.

The compiled two-qubit circuit's readout is an unbiased bit, so a fair
coin is a drop-in replacement: heads plays y = 1 (period recovered),
tails plays y = 0 (try again). The replacement runs inside
postprocess.run_full_algorithm as its coin mode; this module counts a
toss series with one-sigma binomial error bars and provides the
chi-square helpers the statistical checks lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .numtheory import Semiprime, to_decimal
from .postprocess import FactorReport, run_full_algorithm

# chi-square critical value, 1 degree of freedom, significance 0.001
CHI2_1DOF_P999 = 10.8276

# normal quantile for the 0.999 one-sided tail, used by the
# Wilson-Hilferty approximation for higher degrees of freedom
_Z_P999 = 3.090232


@dataclass(frozen=True)
class CoinRun:
    """Toss statistics for one series, with the plug-in binomial error.

    sigma = sqrt(p_hat * (1 - p_hat) / tosses); zero when every toss
    agreed, which is the honest reading of a plug-in estimate.
    """

    label: str
    tosses: int
    heads: int

    def __post_init__(self) -> None:
        if self.tosses < 1:
            raise DomainError("a coin run needs at least one toss")
        if not 0 <= self.heads <= self.tosses:
            raise DomainError("heads count out of range")

    @property
    def p_hat(self) -> float:
        return self.heads / self.tosses

    @property
    def sigma(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.tosses)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "tosses": self.tosses,
            "heads": self.heads,
            "p_hat": self.p_hat,
            "sigma": self.sigma,
        }


def coin_factor_demo(sp: Semiprime, n_tosses: int,
                     seed: int) -> tuple[CoinRun, FactorReport]:
    """Factor a semiprime with a coin.

    The report is run_full_algorithm's coin mode with n_tosses
    attempts: the first heads is read as y = 1 from the compiled
    circuit, giving period 2 and the factors via the CRT base, and all
    tails means no period this series. The CoinRun counts the whole
    series of n_tosses from the same seeded stream, tosses after the
    first heads included. Requires known factors, exactly like the
    compiled pipeline it shadows.
    """
    if n_tosses < 1:
        raise DomainError("a coin run needs at least one toss")
    report = run_full_algorithm(sp, mode="coin", seed=seed,
                                max_attempts=n_tosses)
    n_bits = sp.n.bit_length()
    label = to_decimal(sp.n) if n_bits <= 64 else f"{n_bits}-bit semiprime"
    # imported here, so a process that tosses nothing never loads numpy
    import numpy as np

    tosses = np.random.Generator(np.random.PCG64(seed)).random(n_tosses)
    return CoinRun(label, n_tosses, int((tosses < 0.5).sum())), report


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


def chi_square_binomial(head_counts: Sequence[int], tosses_per_run: int,
                        p: float = 0.5) -> tuple[float, int, float]:
    """Goodness of fit of observed head counts to Binomial(n, p).

    Adjacent outcome bins are merged until every expected count is at
    least 5 (the usual chi-square validity rule). Returns (statistic,
    degrees of freedom, critical value at significance 0.001).
    """
    if tosses_per_run < 1:
        raise DomainError("need at least one toss per run")
    if not 0.0 < p < 1.0:
        raise DomainError("p must be strictly between 0 and 1")
    runs = len(head_counts)
    if runs < 1:
        raise DomainError("need at least one run")
    observed = [0] * (tosses_per_run + 1)
    for h in head_counts:
        if not 0 <= h <= tosses_per_run:
            raise DomainError("heads count out of range")
        observed[h] += 1
    expected = [
        runs * math.comb(tosses_per_run, k) * p**k * (1 - p) ** (tosses_per_run - k)
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
