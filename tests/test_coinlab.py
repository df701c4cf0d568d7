"""Coin-toss reduction: statistics, the demo loop, chi-square helpers."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from shorsim.coinlab import (
    CHI2_1DOF_P999,
    CoinRun,
    chi_square_binomial,
    chi_square_critical,
    chi_square_heads_tails,
    coin_factor_demo,
)
from shorsim.errors import CompilationRequiresFactorsError, DomainError
from shorsim.fixtures import load_fixture
from shorsim.numtheory import Semiprime
from shorsim.postprocess import MODE_COIN, run_full_algorithm


class TestCoinRun:
    def test_from_counts(self):
        run = CoinRun("x", 10, 5)
        assert run.p_hat == 0.5
        assert run.sigma == pytest.approx(math.sqrt(0.025), abs=1e-15)

    def test_extreme_counts_have_zero_sigma(self):
        assert CoinRun("x", 8, 0).sigma == 0.0
        assert CoinRun("x", 8, 8).sigma == 0.0

    def test_heads_beyond_tosses_rejected(self):
        with pytest.raises(DomainError):
            CoinRun("x", 5, 6)
        with pytest.raises(DomainError):
            CoinRun("x", 5, -1)

    def test_zero_tosses_rejected(self):
        with pytest.raises(DomainError):
            CoinRun("x", 0, 0)


def _toss_run(n_tosses: int, seed: int) -> CoinRun:
    run, _ = coin_factor_demo(Semiprime.from_factors(3, 5), n_tosses, seed)
    return run


class TestTossSeries:
    """The toss series that coin_factor_demo returns as its CoinRun."""

    def test_deterministic(self):
        assert _toss_run(100, 7) == _toss_run(100, 7)

    def test_pinned_counts(self):
        assert _toss_run(10, 0).heads == 3
        assert _toss_run(10, 1).heads == 5
        assert _toss_run(10, 2).heads == 6

    def test_fields(self):
        run = _toss_run(20, 3)
        assert run.label == "15"
        assert run.tosses == 20
        assert 0 <= run.heads <= 20
        assert run.p_hat == run.heads / 20
        assert run.to_json_dict() == {
            "label": "15", "tosses": 20, "heads": run.heads,
            "p_hat": run.heads / 20,
            "sigma": math.sqrt(run.p_hat * (1.0 - run.p_hat) / 20),
        }

    def test_zero_rejected(self):
        for n_tosses in (0, -1):
            with pytest.raises(DomainError):
                _toss_run(n_tosses, 0)

    def test_long_run_frequency(self):
        run = _toss_run(100_000, 123)
        assert abs(run.p_hat - 0.5) < 4 * math.sqrt(0.25 / 100_000)

    def test_long_series_is_counted_in_blocks(self):
        # one draw of 200 000 doubles holds 1.6 MB at once; blocks of
        # 2**16 count the same stream in about a third of that
        tracemalloc.start()
        try:
            run = _toss_run(200_000, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tosses = np.random.Generator(np.random.PCG64(4)).random(200_000)
        assert run.heads == int((tosses < 0.5).sum())
        assert peak < 800_000


class TestCoinFactorDemo:
    def test_success_factors_and_period(self):
        run, rep = coin_factor_demo(Semiprime.from_factors(3, 5), 10, 0)
        assert rep.factors == (3, 5)
        assert rep.period_found == 2
        assert rep.mode == MODE_COIN
        assert rep.attempts == 2  # first head on toss 2 for this seed
        assert run.heads == 3

    def test_coin_run_matches_toss_series(self):
        run, rep = coin_factor_demo(Semiprime.from_factors(3, 5), 10, 2)
        tosses = np.random.Generator(np.random.PCG64(2)).random(10) < 0.5
        assert run == CoinRun("15", 10, int(tosses.sum()))
        assert [d.y for d in rep.attempt_details] \
            == [int(b) for b in tosses[:rep.attempts]]

    def test_attempts_is_first_head_index(self):
        bits_seen = np.random.Generator(np.random.PCG64(4)).random(10) < 0.5
        first = int(np.argmax(bits_seen)) + 1
        _, rep = coin_factor_demo(Semiprime.from_factors(3, 5), 10, 4)
        assert rep.attempts == first

    def test_all_tails_run_fails(self):
        run, rep = coin_factor_demo(Semiprime.from_factors(3, 5), 10, 415)
        assert run.heads == 0
        assert rep.factors is None
        assert rep.period_found is None
        assert rep.attempts == 10
        assert all(d.outcome == "no-period" for d in rep.attempt_details)

    def test_success_iff_any_heads(self):
        sp = Semiprime.from_factors(3, 5)
        for seed in range(60):
            run, rep = coin_factor_demo(sp, 5, seed)
            assert (rep.factors is not None) == (run.heads >= 1)

    def test_requires_factors(self):
        with pytest.raises(CompilationRequiresFactorsError):
            coin_factor_demo(Semiprime(15), 10, 0)

    def test_zero_tosses_rejected(self):
        with pytest.raises(DomainError):
            coin_factor_demo(Semiprime.from_factors(3, 5), 0, 0)

    def test_large_modulus(self):
        fx = load_fixture("rsa768")
        sp = Semiprime.from_factors(fx.p, fx.q)
        run, rep = coin_factor_demo(sp, 20, 0)
        assert rep.factors == (min(fx.p, fx.q), max(fx.p, fx.q))
        assert rep.period_found == 2
        assert run.label == "768-bit semiprime"

    def test_small_modulus_label_is_decimal(self):
        run, _ = coin_factor_demo(Semiprime.from_factors(3, 7), 10, 0)
        assert run.label == "21"

    def test_agrees_with_simulated_compiled_path(self):
        sp = Semiprime.from_factors(3, 7)
        _, via_coin = coin_factor_demo(sp, 10, 3)
        via_sim = run_full_algorithm(sp, mode="compiled", seed=3)
        assert via_coin.factors == via_sim.factors
        assert via_coin.period_found == via_sim.period_found
        assert via_coin.base_used == via_sim.base_used


class TestChiSquare:
    def test_heads_tails_statistic(self):
        assert chi_square_heads_tails(50, 100) == 0.0
        assert chi_square_heads_tails(60, 100) == pytest.approx(4.0)
        assert chi_square_heads_tails(0, 100) == pytest.approx(100.0)

    def test_fair_data_passes(self):
        run = _toss_run(100_000, 5)
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
