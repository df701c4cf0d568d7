"""The test instruments: chi-square gates and the seeded prime generator."""

import math
import random

import numpy as np
import pytest

from shorsim.errors import DomainError
from shorsim.numtheory import Semiprime, is_probable_prime
from shorsim.postprocess import coin_factor_demo

from instruments import (
    CHI2_1DOF_P999,
    chi_square_binomial,
    chi_square_critical,
    chi_square_heads_tails,
    random_probable_prime,
)


class TestChiSquare:
    def test_heads_tails_statistic(self):
        assert chi_square_heads_tails(50, 100) == 0.0
        assert chi_square_heads_tails(60, 100) == pytest.approx(4.0)
        assert chi_square_heads_tails(0, 100) == pytest.approx(100.0)

    def test_fair_data_passes(self):
        run, _ = coin_factor_demo(Semiprime.from_factors(3, 5), 100_000, 5)
        assert chi_square_heads_tails(run.heads, run.tosses) < CHI2_1DOF_P999

    def test_biased_data_fails(self):
        # a 60/40 coin at this sample size is unmistakable
        rng = np.random.Generator(np.random.PCG64(0))
        heads = int((rng.random(100_000) < 0.6).sum())
        assert chi_square_heads_tails(heads, 100_000) > CHI2_1DOF_P999

    def test_critical_value_one_dof_is_exact(self):
        assert chi_square_critical(1) == CHI2_1DOF_P999

    def test_critical_value_approximation_tracks_tables(self):
        table = {2: 13.816, 5: 20.515, 10: 29.588, 20: 45.315,
                 50: 86.661, 100: 149.449}
        for dof, want in table.items():
            got = chi_square_critical(dof)
            assert abs(got - want) / want < 0.03

    def test_binomial_fit_on_honest_samples(self):
        rng = random.Random(77)
        counts = [sum(rng.random() < 0.5 for _ in range(20))
                  for _ in range(4000)]
        stat, dof, crit = chi_square_binomial(counts, 20)
        assert dof >= 2
        assert stat < crit

    def test_binomial_fit_rejects_constant_data(self):
        stat, _, crit = chi_square_binomial([10] * 4000, 20)
        assert stat > crit

    def test_binomial_bins_meet_minimum_expectation(self):
        # with few runs the outcome bins must merge rather than divide
        # by near-zero expectations
        stat, dof, _ = chi_square_binomial([5, 5, 6, 4, 5, 5, 5, 6] * 4, 10)
        assert dof >= 1
        assert math.isfinite(stat)

    def test_binomial_rejects_bad_input(self):
        with pytest.raises(DomainError):
            chi_square_binomial([], 10)
        with pytest.raises(DomainError):
            chi_square_binomial([11], 10)


class TestRandomProbablePrime:
    def test_random_prime_has_exact_bit_length(self):
        rng = random.Random(5)
        for bits in (2, 3, 16, 64, 128):
            p = random_probable_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_tiny_bit_count_rejected(self):
        with pytest.raises(DomainError):
            random_probable_prime(1, random.Random(0))

    def test_seeded_prime_generation_is_pinned(self):
        # criterion 7 and the compiler tests draw their primes this way;
        # the values were produced by the 48-round Miller-Rabin test
        # that Baillie-PSW replaced
        g = random.Random(2013)
        drawn = [random_probable_prime(b, g) for b in (64, 128, 256, 512,
                                                         1024)]
        assert drawn == [
            15152217593872358269,
            218640514818533934214594802714176540351,
            int("10938859473124269156659871315288757060123205768809332874"
                "6138317140296554305929"),
            int("11092543015617059443909708986666527728886185364064334055"
                "52395194673969728719122410336102409361438366943584793139"
                "9975399406687920896732371931863784748529341"),
            int("14264995535309132015773563685492644632811326297715597799"
                "04363577067343377347430411546680010759687428383825631402"
                "41371695129321690977131709456779434873143395602042686035"
                "45118300405294012305461646346584620938884345589795668105"
                "99443966231567383997492246714714198122924375450790860252"
                "13231349874369605792456129337"),
        ]


@pytest.mark.parametrize("call, message", [
    (lambda: chi_square_heads_tails(0, 0), "need at least one toss"),
    (lambda: chi_square_heads_tails(3, 2), "heads count out of range"),
    (lambda: chi_square_critical(0), "degrees of freedom must be positive"),
    (lambda: chi_square_binomial([0], 0), "need at least one toss per run"),
    # expected counts of 1/2 merge into one bin, leaving nothing to fit
    (lambda: chi_square_binomial([0], 1), "too few runs"),
], ids=["heads-tails-no-tosses", "heads-tails-too-many-heads",
        "critical-no-dof", "binomial-no-tosses", "binomial-one-bin"])
def test_input_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
