"""Coin-toss reduction: toss statistics and the demo loop."""

import math
import tracemalloc

import numpy as np
import pytest

from shorsim import postprocess
from shorsim.errors import (
    CompilationRequiresFactorsError,
    DomainError,
    RefusedTooLargeError,
)
from shorsim.fixtures import load_fixture
from shorsim.numtheory import Semiprime
from shorsim.postprocess import (
    MAX_COIN_TOSSES,
    MODE_COIN,
    CoinRun,
    coin_factor_demo,
    run_full_algorithm,
)


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

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            _toss_run(10, -1)

    def test_heads_is_a_double_below_one_half(self, monkeypatch):
        # the stream's doubles are multiples of 2**-53, so 1/2 is drawn
        doubles = [0.5, 0.5 - 2**-53, 0.0, 0.75]
        monkeypatch.setattr(postprocess, "random_stream",
                            lambda seed: iter(doubles))
        run, rep = coin_factor_demo(Semiprime.from_factors(3, 5), 4, 0)
        assert run.heads == 2
        assert [d.y for d in rep.attempt_details] == [0, 1]

    def test_long_run_frequency(self):
        run = _toss_run(100_000, 123)
        assert abs(run.p_hat - 0.5) < 4 * math.sqrt(0.25 / 100_000)

    def test_long_series_is_counted_toss_by_toss(self):
        # one draw of 200 000 doubles holds 1.6 MB at once; the series
        # is counted one toss at a time, from the same stream as numpy's
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

    @pytest.mark.parametrize("n_tosses, seed, name", [
        (2.0, 0, "n_tosses"),
        (True, 0, "n_tosses"),
        (8, 0.0, "seed"),
    ], ids=["float-tosses", "bool-tosses", "float-seed"])
    def test_arguments_that_are_not_integers_are_refused(self, n_tosses,
                                                         seed, name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            coin_factor_demo(Semiprime.from_factors(3, 5), n_tosses, seed)

    def test_too_many_tosses_refused_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran on a refused toss count")

        monkeypatch.setattr(postprocess, "run_full_algorithm", no_work)
        monkeypatch.setattr(postprocess, "coin_tosses", no_work)
        with pytest.raises(RefusedTooLargeError) as refused:
            coin_factor_demo(Semiprime.from_factors(3, 5),
                             MAX_COIN_TOSSES + 1, 0)
        assert str(refused.value) == ("a coin run of 16777217 tosses "
                                      "exceeds the limit of 16777216 tosses")

    def test_toss_bound_admits_itself(self, monkeypatch):
        sp = Semiprime.from_factors(3, 5)
        unbounded = coin_factor_demo(sp, 8, 4)
        monkeypatch.setattr(postprocess, "MAX_COIN_TOSSES", 8)
        assert coin_factor_demo(sp, 8, 4) == unbounded
        with pytest.raises(RefusedTooLargeError):
            coin_factor_demo(sp, 9, 4)

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
