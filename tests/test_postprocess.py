"""Period recovery, factor derivation, and the full retry loop.

The n = 15 block enumerates every coprime base against an oracle built
from stdlib pieces only (fractions.Fraction, math.gcd, pow); the
pipeline must agree with it on every (base, readout) decision, not just
on aggregate success rates.
"""

import dataclasses
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import compiler, numtheory
from shorsim.compiler import build_semiclassical_stages
from shorsim.errors import DomainError, RefusedTooLargeError
from shorsim.fixtures import load_fixture
from shorsim.numtheory import Semiprime
from shorsim.postprocess import (
    MAX_PERIOD_MULTIPLIER,
    MODE_COIN,
    MODE_COMPILED,
    MODE_HONEST,
    AttemptRecord,
    FactorReport,
    canonical_mode,
    derive_factors,
    extract_period,
    run_full_algorithm,
)
from shorsim.postprocess import _perfect_power
from shorsim.simulator import output_distribution


@st.composite
def _readouts(draw):
    """(y, 2**s, a, n) for a unit a of a small odd n and s <= 30; half
    the readouts sit next to a multiple of 2**s / r, r the order of a,
    where a period is there to be found."""
    n = draw(st.integers(1, 200)) * 2 + 1
    a = draw(st.integers(1, n - 1).filter(lambda a: math.gcd(a, n) == 1))
    s = draw(st.integers(1, 30))
    if draw(st.booleans()):
        y = draw(st.integers(0, (1 << s) - 1))
    else:
        r = numtheory.multiplicative_order(a, n)
        j = draw(st.integers(0, r - 1))
        y = ((j << s) // r + draw(st.integers(-1, 1))) % (1 << s)
    return y, 1 << s, a, n


class TestExtractPeriod:
    def test_direct_hit(self):
        assert extract_period(64, 256, 7, 15) == (4, 1)

    def test_zero_readout_is_uninformative(self):
        assert extract_period(0, 256, 7, 15) is None

    def test_multiple_rule_recovers_half_period(self):
        # 128/256 = 1/2: the denominator 2 verifies only at k = 2
        assert extract_period(128, 256, 7, 15) == (4, 2)

    def test_direct_hit_other_end(self):
        # 192/256 = [0; 1, 3] has the denominators 1, 1, 4: the second
        # 1 is tried once, and 4 is a direct hit
        assert extract_period(192, 256, 7, 15) == (4, 1)

    def test_single_bit_readout(self):
        assert extract_period(1, 2, 11, 15) == (2, 1)

    def test_small_multiples_before_deeper_convergents(self):
        # 96/256 = 3/8 has convergent denominators 1, 2, 3, 8; with a
        # base of order 3 the d=3 convergent wins inside the first
        # multiplier pass, so the scan must not jump to 2*3 or to 8
        assert extract_period(96, 256, 2, 7) == (3, 1)

    def test_multiplier_rescues_trivial_denominator(self):
        # y = 1 gives only the denominators 1 and 1024; k * 1 walks
        # 1, 2, 3, 4 and lands on the true period
        assert extract_period(1, 1024, 7, 15) == (4, 4)

    def test_candidates_above_n_are_skipped(self):
        # 3/1024 has the denominators 1, 341, 1024: both deeper ones
        # exceed n at every k, so only k * 1 is tried
        assert extract_period(3, 1024, 7, 15) == (4, 4)
        assert extract_period(3, 1024, 7, 340) is None

    def test_out_of_range_readout_rejected(self):
        with pytest.raises(DomainError):
            extract_period(256, 256, 7, 15)

    @pytest.mark.parametrize("y, s_pow, n, message", [
        (True, 256, 15, "expected an integer, got bool"),
        (1, 256.0, 15, "expected an integer, got float"),
        (-1, 256, 15, "negative values are outside this domain"),
        (0, 0, 15, "expected y < s_pow"),
        (1, 256, 0, "modulus must be at least 2"),
        (1, 256, -15, "modulus must be at least 2"),
        (0, 256, 1, "modulus must be at least 2"),
    ], ids=["bool-readout", "float-register", "negative-readout",
            "empty-register", "modulus-0", "negative-modulus", "modulus-1"])
    def test_input_checks_refuse(self, y, s_pow, n, message):
        # a modulus below 2 is refused, not read as no verified period
        with pytest.raises(DomainError, match=message):
            extract_period(y, s_pow, 7, n)

    @pytest.mark.parametrize("a, n, name", [
        (2.0, 15, "a"),
        (True, 15, "a"),
        (2, 15.0, "n"),
    ], ids=["float-base", "bool-base", "float-modulus"])
    def test_refuses_what_is_not_an_integer(self, a, n, name):
        # before pow could raise a bare TypeError
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            extract_period(1, 4, a, n)

    def test_never_returns_an_unverified_period(self):
        for y in range(256):
            found = extract_period(y, 256, 7, 15)
            if found is not None:
                r, k = found
                assert pow(7, r, 15) == 1
                assert 1 <= k <= MAX_PERIOD_MULTIPLIER

    @given(_readouts())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_oracle(self, readout):
        y, s_pow, a, n = readout
        assert extract_period(y, s_pow, a, n) == \
            _oracle_decision(a, y, s_pow, n)


class TestDeriveFactors:
    def test_even_period_splits(self):
        assert derive_factors(11, 2, 15) == (3, 5)
        assert derive_factors(8, 2, 21) == (3, 7)
        assert derive_factors(7, 4, 15) == (3, 5)

    def test_trivial_root_yields_nothing(self):
        assert derive_factors(14, 2, 15) is None

    def test_non_period_rejected(self):
        with pytest.raises(DomainError):
            derive_factors(7, 3, 15)
        with pytest.raises(DomainError):
            derive_factors(7, 0, 15)

    @pytest.mark.parametrize("a, r, n, message", [
        (3, 2, 10 ** 5000, "3**2 is not 1 mod 1" + "0" * 5000
                           + ": not a period"),
        (-2, 1, 15, "-2**1 is not 1 mod 15: not a period"),
    ], ids=["past-the-conversion-limit", "negative"])
    def test_non_period_is_named_at_any_size(self, a, r, n, message):
        # past the interpreter's 4300-digit int/str conversion limit
        with pytest.raises(DomainError) as refused:
            derive_factors(a, r, n)
        assert str(refused.value) == message

    @pytest.mark.parametrize("n", [0, 1, -15])
    def test_modulus_below_2_is_refused(self, n):
        # refused before pow(2, 1, 0) can raise a bare ValueError
        with pytest.raises(DomainError, match="modulus must be at least 2"):
            derive_factors(2, 1, n)

    @pytest.mark.parametrize("args, message", [
        ((2.0, 4, 15), "^a must be an integer, got float"),
        ((2, 4.0, 15), "^r must be an integer, got float"),
        ((2, 4, 15.0), "^n must be an integer, got float"),
        ((True, 4, 15), "^a must be an integer, got bool"),
        ((-4, 1, 5), "^a must be nonnegative, got -4$"),
    ], ids=["float-base", "float-period", "float-modulus", "bool-base",
            "negative-base-odd-period"])
    def test_refuses_what_is_not_an_integer(self, args, message):
        # before pow raised a bare TypeError, or math.isqrt a ValueError
        with pytest.raises(DomainError, match=message):
            derive_factors(*args)

    def test_odd_period_defers_to_rescue(self):
        assert derive_factors(4, 3, 21) == (3, 7)

    def test_output_is_sorted_and_multiplies_back(self):
        for a, r, n in ((11, 2, 15), (8, 2, 21), (7, 4, 15), (4, 3, 21)):
            out = derive_factors(a, r, n)
            assert out is not None
            lo, hi = out
            assert lo < hi
            assert lo * hi == n


class TestOddPeriodRescue:
    def test_square_base(self):
        assert derive_factors(4, 3, 21) == (3, 7)

    def test_non_period_rejected(self):
        with pytest.raises(DomainError):
            derive_factors(5, 3, 21)

    def test_non_square_base_yields_nothing(self):
        # 5 has order 3 mod 31 and is not a perfect square
        assert pow(5, 3, 31) == 1
        assert derive_factors(5, 3, 31) is None

    def test_degenerate_gcd_yields_nothing(self):
        # b**r = 1 mod n makes gcd(b**r - 1, n) = n itself
        assert pow(4, 3, 7) == 1
        assert derive_factors(4, 3, 7) is None


def _inline_derive_factors(a, r, n):
    """derive_factors as it was written before _split_at, kept verbatim
    as the reference for the shared split."""
    if r < 1:
        raise DomainError("period must be positive")
    if pow(a, r, n) != 1:
        raise DomainError(f"{a}**{r} is not 1 mod {n}: not a period")
    if r % 2 == 1:
        return _inline_odd_period_rescue(a, r, n)
    x = pow(a, r // 2, n)
    if x == n - 1:
        return None
    g1 = math.gcd(x - 1, n)
    g2 = math.gcd(x + 1, n)
    if 1 < g1 < n and 1 < g2 < n:
        lo, hi = sorted((g1, g2))
        return lo, hi
    return None


def _inline_odd_period_rescue(a, r, n):
    """odd_period_rescue as it was written before _split_at."""
    if r < 1 or r % 2 == 0:
        raise DomainError("rescue applies to odd periods only")
    if pow(a, r, n) != 1:
        raise DomainError(f"{a}**{r} is not 1 mod {n}: not a period")
    b = math.isqrt(a)
    if b * b != a:
        return None
    x = pow(b, r, n)
    g1 = math.gcd((x - 1) % n, n)
    g2 = math.gcd(x + 1, n)
    if 1 < g1 < n and 1 < g2 < n:
        lo, hi = sorted((g1, g2))
        return lo, hi
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


@pytest.mark.parametrize("n", [15, 21, 33, 35, 39, 51, 55, 57, 91])
def test_shared_split_matches_the_inline_splits(n):
    # every unit, at its order and at 2, 3 and 4 times it: odd multiples
    # reach the perfect-square rescue, even ones the x = n-1 dead end
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        order = numtheory.multiplicative_order(a, n)
        for r in (order, 2 * order, 3 * order, 4 * order):
            assert _outcome(derive_factors, a, r, n) == \
                _outcome(_inline_derive_factors, a, r, n), (a, r, n)


def _oracle_decision(a: int, y: int, s_pow: int, n: int):
    """Independent route: same contract as extract_period, the pair
    (r, k) or None, built from Fraction and pow with its own convergent
    loop."""
    if y == 0:
        return None
    # continued-fraction convergents of y/s_pow via Fraction arithmetic
    convs = []
    x = Fraction(y, s_pow)
    digits = []
    frac = x
    while True:
        digits.append(int(frac))
        approx = _cf_value(digits)
        convs.append(approx)
        if approx == x:
            break
        frac = 1 / (frac - int(frac))
    if len(convs) >= 2 and convs[0] == 0 and convs[1].denominator == 1:
        convs = convs[1:]
    seen = set()
    for k in range(1, MAX_PERIOD_MULTIPLIER + 1):
        for c in convs:
            cand = k * c.denominator
            if cand > n or cand in seen:
                continue
            seen.add(cand)
            if pow(a, cand, n) == 1:
                return cand, k
    return None


def _cf_value(digits):
    value = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        value = d + (1 / value if value else Fraction(0))
    return value


def _oracle_factors(a: int, r: int, n: int):
    if r % 2 == 1:
        b = math.isqrt(a)
        if b * b != a:
            return None
        x = pow(b, r, n)
        g1, g2 = math.gcd(x - 1, n), math.gcd(x + 1, n)
    else:
        x = pow(a, r // 2, n)
        if x == n - 1:
            return None
        g1, g2 = math.gcd(x - 1, n), math.gcd(x + 1, n)
    if 1 < g1 < n and 1 < g2 < n:
        return tuple(sorted((g1, g2)))
    return None


class TestExhaustiveDecisionTable:
    """Every (coprime base, possible readout) pair for n = 15."""

    FROZEN_ORDERS = {1: 1, 2: 4, 4: 2, 7: 4, 8: 4, 11: 2, 13: 4, 14: 2}

    def test_against_independent_oracle(self):
        n, s = 15, 8
        s_pow = 1 << s
        for a in (2, 4, 7, 8, 11, 13, 14):
            dist = output_distribution(build_semiclassical_stages(a, n, s))
            for y in dist.support():
                found = extract_period(y, s_pow, a, n)
                assert found == _oracle_decision(a, y, s_pow, n), (a, y)
                if found is not None:
                    r, _ = found
                    assert derive_factors(a, r, n) == \
                        _oracle_factors(a, r, n), (a, y)

    def test_frozen_support_and_orders(self):
        for a, r in self.FROZEN_ORDERS.items():
            if a == 1:
                continue
            dist = output_distribution(build_semiclassical_stages(a, 15, 8))
            step = 256 // r
            assert dist.support() == [step * i for i in range(r)], a

    def test_frozen_success_pattern(self):
        # failure happens exactly at y = 0 (no period) and, for the
        # base n-1, at every nonzero readout (trivial root)
        n, s_pow = 15, 256
        for a in (2, 4, 7, 8, 11, 13, 14):
            dist = output_distribution(build_semiclassical_stages(a, n, 8))
            for y in dist.support():
                found = extract_period(y, s_pow, a, n)
                if y == 0:
                    assert found is None
                    continue
                assert found is not None
                outcome = derive_factors(a, found[0], n)
                if a == 14:
                    assert outcome is None
                else:
                    assert outcome == (3, 5)


class TestModeNames:
    def test_aliases(self):
        assert canonical_mode("honest") == MODE_HONEST
        assert canonical_mode("compiled") == MODE_COMPILED
        assert canonical_mode("coin") == MODE_COIN
        # the long spellings are report values, not inputs
        for report_value in (MODE_HONEST, MODE_COMPILED):
            with pytest.raises(DomainError):
                canonical_mode(report_value)

    def test_default_is_honest(self):
        rep = run_full_algorithm(Semiprime(15), seed=0)
        assert rep.to_json_dict() == run_full_algorithm(
            Semiprime(15), mode="honest", seed=0).to_json_dict()

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            canonical_mode("quantum")


class TestRunFullHonest:
    def test_pinned_seed_with_measured_period(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="honest", seed=0)
        assert rep.factors == (3, 5)
        assert rep.period_found == 4
        assert rep.attempts == 1
        assert rep.base_used == 8
        assert not rep.gcd_shortcut
        assert rep.mode == MODE_HONEST

    def test_many_seeds_succeed_quickly(self):
        for seed in range(40):
            rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                     mode="honest", seed=seed)
            assert rep.factors == (3, 5)
            assert rep.attempts <= 20
            if not rep.gcd_shortcut:
                assert rep.period_found in (2, 4)

    def test_factors_not_required(self):
        rep = run_full_algorithm(Semiprime(15), mode="honest", seed=3)
        assert rep.factors == (3, 5)

    def test_exhaustion_returns_report_not_exception(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="honest", seed=1, max_attempts=1)
        assert rep.factors is None
        assert rep.attempts == 1
        assert rep.attempt_details[0].outcome == "no-period"
        assert "intact" in rep.honesty_note

    def test_gcd_shortcut_is_flagged(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="honest", seed=42)
        assert rep.gcd_shortcut
        assert rep.factors == (3, 5)
        assert rep.period_found is None
        assert rep.attempt_details[-1].outcome == "gcd-shortcut"

    def test_even_modulus_rejected(self):
        with pytest.raises(DomainError):
            run_full_algorithm(Semiprime(16), mode="honest", seed=0)

    def test_pre_step_bit_limit(self):
        # the base-2 strong test and the perfect-power search on this
        # 20000-bit n take about 19 s and 15 s; the refusal comes before
        # them
        n = load_fixture("n20000").n
        start = time.perf_counter()
        with pytest.raises(RefusedTooLargeError,
                           match=f"{n.bit_length()}-bit modulus.* 2048 bits"):
            run_full_algorithm(Semiprime(n), mode="honest", seed=0)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("p,q,seed,period", [
        (17, 61681, 2, 61680),  # 2**20 + 1
        (65537, 786433, 3, 262144),  # 36 bits, lambda = 786432
    ])
    def test_modulus_above_2_20_factors(self, p, q, seed, period):
        # the size that matters is the period's, and these are short
        rep = run_full_algorithm(Semiprime(p * q), mode="honest", seed=seed)
        assert rep.factors == (p, q)
        assert rep.period_found == period
        assert f"{period.bit_length()}-bit period" in rep.honesty_note

    def test_zero_attempts_rejected(self):
        with pytest.raises(DomainError):
            run_full_algorithm(Semiprime(15), mode="honest", seed=0,
                               max_attempts=0)

    def test_perfect_square_rejected(self):
        # 211**2: modulo a prime power the only square roots of 1 are
        # +-1, so no attempt could ever split it
        with pytest.raises(DomainError, match="perfect square"):
            run_full_algorithm(Semiprime(44521), mode="honest", seed=0)

    @pytest.mark.parametrize("n", [8191, 65537, 1048573])
    def test_prime_rejected(self, n):
        # checked before any base is drawn: 64 attempts on 2**20 - 3
        # once took a minute and found nothing
        with pytest.raises(DomainError, match=f"{n} is prime"):
            run_full_algorithm(Semiprime(n), mode="honest", seed=0)

    @pytest.mark.parametrize("n,root,k", [
        (1331, 11, 3), (357911, 71, 3), (243, 3, 5), (3**12, 3**6, 2),
        (15**3, 15, 3),
    ])
    def test_perfect_power_rejected(self, n, root, k):
        with pytest.raises(DomainError, match=rf"{n} = {root}\*\*{k} is "
                           f"a perfect {'square' if k == 2 else 'power'}"):
            run_full_algorithm(Semiprime(n), mode="honest", seed=0)

    def test_perfect_power_matches_every_k_reference(self):
        # the pre-step roots by integer bisection; the reference roots
        # by float and checks the integers next to it
        def every_k(n):
            for k in range(2, n.bit_length()):
                guess = round(n ** (1 / k))
                for b in (guess - 1, guess, guess + 1):
                    if b >= 2 and b ** k == n:
                        return b, k
            return None

        cases = {m for b in range(2, 51) for k in range(2, 13)
                 for m in (b ** k - 1, b ** k, b ** k + 1)}
        assert [m for m in sorted(cases)
                if _perfect_power(m) != every_k(m)] == []
        assert _perfect_power(2 ** 15) == (32, 3)
        assert _perfect_power(3 ** 6) == (27, 2)

    def test_perfect_power_at_2048_bits(self):
        # 2 divides the first once, so it is no power; exponents from
        # 1000 up are all tried, and 1331 = 11**3 resolves at k = 11
        assert _perfect_power((1 << 2047) + 2) is None
        assert _perfect_power(3 ** 1009) == (3, 1009)
        assert _perfect_power(2 ** 1331) == (2 ** 121, 11)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_composite_part_rejected(self, seed):
        # 105 = 3*5*7 passes the pre-steps; seed 0's first base shares
        # the factor 3 with it (gcd shortcut) and seed 1's has period 6,
        # and both split it as 3 x 35
        with pytest.raises(DomainError,
                           match="105 splits as 3 x 35, but 35 is composite"):
            run_full_algorithm(Semiprime(105), mode="honest", seed=seed)

    def test_deterministic_per_seed(self):
        a = run_full_algorithm(Semiprime(15), mode="honest", seed=9)
        b = run_full_algorithm(Semiprime(15), mode="honest", seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_attempt_details_are_complete(self):
        rep = run_full_algorithm(Semiprime(15), mode="honest", seed=1)
        assert len(rep.attempt_details) == rep.attempts
        assert [d.index for d in rep.attempt_details] == \
            list(range(1, rep.attempts + 1))
        assert rep.attempt_details[-1].outcome in ("factored", "gcd-shortcut")
        for d in rep.attempt_details[:-1]:
            assert d.outcome in ("no-period", "period-without-factors")

    @pytest.mark.parametrize("mode", ["honest", "compiled", "coin"])
    @pytest.mark.parametrize("kwargs, name", [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"max_attempts": 2.5}, "max_attempts"),
        ({"max_attempts": True}, "max_attempts"),
    ], ids=["float-seed", "bool-seed", "float-attempts", "bool-attempts"])
    def test_arguments_that_are_not_integers_are_refused(self, kwargs, name,
                                                         mode):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            run_full_algorithm(Semiprime.from_factors(3, 5), mode=mode,
                               **kwargs)


class TestRunFullCompiled:
    def test_fifteen(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="compiled", seed=0)
        assert rep.factors == (3, 5)
        assert rep.period_found == 2
        assert rep.base_used == 4
        assert rep.mode == MODE_COMPILED

    def test_twenty_one(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 7),
                                 mode="compiled", seed=0)
        assert rep.factors == (3, 7)
        assert rep.period_found == 2

    def test_requires_factors(self):
        from shorsim.errors import CompilationRequiresFactorsError
        with pytest.raises(CompilationRequiresFactorsError):
            run_full_algorithm(Semiprime(15), mode="compiled", seed=0)

    def test_single_attempt_can_fail_on_zero_readout(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="compiled", seed=1, max_attempts=1)
        assert rep.factors is None
        assert rep.attempt_details[0].y == 0

    def test_large_modulus_from_fixture(self):
        fx = load_fixture("rsa768")
        sp = Semiprime.from_factors(fx.p, fx.q)
        rep = run_full_algorithm(sp, mode="compiled", seed=7)
        assert rep.factors == (min(fx.p, fx.q), max(fx.p, fx.q))
        assert rep.period_found == 2
        assert rep.qubit_budget.n_bits == 768
        assert rep.qubit_budget.zalka_qubits == 1154
        assert rep.qubit_budget.compiled_qubits == 2

    def test_honesty_note_contrasts_sizes(self):
        fx = load_fixture("rsa768")
        rep = run_full_algorithm(Semiprime.from_factors(fx.p, fx.q),
                                 mode="compiled", seed=7)
        assert "2" in rep.honesty_note
        assert "768-bit" in rep.honesty_note


@pytest.mark.parametrize("mode", ["compiled", "coin"])
def test_each_prime_is_tested_once(monkeypatch, mode):
    # Semiprime validates p and q; the run must trust that verdict
    calls = []
    original = numtheory.is_probable_prime

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(numtheory, "is_probable_prime", counted)
    p, q = 18446744073709551557, 18446744073709551533
    rep = run_full_algorithm(Semiprime.from_factors(p, q), mode=mode,
                             seed=0)
    assert rep.factors == (q, p)
    assert sorted(calls) == [q, p]


@pytest.mark.parametrize("mode, seed", [("compiled", 1), ("coin", 0)])
def test_compiled_circuit_is_built_once(monkeypatch, mode, seed):
    # both seeds read 0 first, so the run takes more than one attempt
    walks = []
    original = compiler.work_orbit

    def counted(modulus, multiplier):
        walks.append(multiplier)
        return original(modulus, multiplier)

    monkeypatch.setattr(compiler, "work_orbit", counted)
    rep = run_full_algorithm(Semiprime.from_factors(3, 5), mode=mode,
                             seed=seed, max_attempts=3)
    assert rep.attempts > 1 and rep.attempt_details[0].y == 0
    assert walks == [4]


@pytest.mark.parametrize("mode, n", [
    ("honest", Semiprime(8191)),
    ("compiled", Semiprime.from_factors(3, 5)),
    ("coin", Semiprime.from_factors(3, 5)),
], ids=["honest-prime", "compiled", "coin"])
def test_negative_seed_is_refused_before_anything_runs(mode, n):
    # 8191 is prime, which the honest pre-steps would refuse first
    with pytest.raises(DomainError) as refused:
        run_full_algorithm(n, mode=mode, seed=-3)
    assert str(refused.value) == "seed must be nonnegative, got -3"


def test_negative_seed_past_the_conversion_limit_is_named():
    with pytest.raises(DomainError) as refused:
        run_full_algorithm(Semiprime(15), seed=-10**5000)
    assert str(refused.value) == \
        "seed must be nonnegative, got -1" + "0" * 5000


def _attempt(outcome, period=None, base=7, index=1):
    return AttemptRecord(index=index, base=base, y=None, period=period,
                         multiplier=None, outcome=outcome)


class TestFactorReport:
    def test_stores_only_the_run_and_its_attempts(self):
        assert [f.name for f in dataclasses.fields(FactorReport)] == [
            "n", "factors", "mode", "seed", "attempt_details"]

    def test_product_invariant_enforced(self):
        with pytest.raises(DomainError):
            FactorReport(
                n=15, factors=(3, 6), mode=MODE_HONEST, seed=0,
                attempt_details=(_attempt("factored", period=4),),
            )

    def test_report_without_attempts_refused(self):
        with pytest.raises(DomainError, match="at least one attempt"):
            FactorReport(n=15, factors=None, mode=MODE_HONEST, seed=0,
                         attempt_details=())

    @pytest.mark.parametrize("factors, last", [
        ((3, 5), _attempt("no-period")),
        ((3, 5), _attempt("period-without-factors", period=4)),
        (None, _attempt("factored", period=4)),
        (None, _attempt("gcd-shortcut", base=6)),
    ], ids=["factors-after-no-period", "factors-after-dead-end",
            "none-after-factored", "none-after-gcd-shortcut"])
    def test_factors_must_agree_with_last_outcome(self, factors, last):
        with pytest.raises(DomainError, match="disagree"):
            FactorReport(n=15, factors=factors, mode=MODE_HONEST, seed=0,
                         attempt_details=(last,))

    def test_summary_is_read_from_the_last_attempt(self):
        rep = FactorReport(
            n=15, factors=(3, 5), mode=MODE_HONEST, seed=9,
            attempt_details=(
                _attempt("period-without-factors", period=2, base=14),
                _attempt("factored", period=4, base=7, index=2),
            ),
        )
        assert (rep.base_used, rep.attempts, rep.period_found) == (7, 2, 4)
        assert not rep.gcd_shortcut
        assert rep.qubit_budget.n_bits == 4

    def test_a_dead_end_period_is_not_found(self):
        rep = FactorReport(
            n=15, factors=None, mode=MODE_HONEST, seed=0,
            attempt_details=(_attempt("period-without-factors", period=2),),
        )
        assert rep.period_found is None
        assert "no usable period" in rep.honesty_note

    def test_json_uses_decimal_strings_for_big_values(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="compiled", seed=0)
        payload = rep.to_json_dict()
        assert payload["n"] == "15"
        assert payload["factors"] == ["3", "5"]
        assert payload["base_used"] == "4"
        assert isinstance(payload["period_found"], int)
        assert isinstance(payload["attempts"], int)
        json.dumps(payload)  # serializable as-is

    def test_json_roundtrips_byte_identically(self):
        rep = run_full_algorithm(Semiprime(15), mode="honest", seed=11)
        one = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True)
        two = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True)
        assert one == two

    def test_text_rendering_leads_with_honesty(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="compiled", seed=0)
        text = rep.render_text()
        assert text.splitlines()[0].startswith("HONESTY")
        assert "period" in text

    def test_text_of_an_exhausted_run_says_none_found(self):
        rep = run_full_algorithm(Semiprime.from_factors(3, 5),
                                 mode="compiled", seed=1, max_attempts=1)
        assert rep.factors is None
        lines = rep.render_text().splitlines()
        assert "factors  none found" in lines
        assert "period   none" in lines

    def test_text_shortens_long_decimals(self):
        fx = load_fixture("rsa768")
        rep = run_full_algorithm(Semiprime.from_factors(fx.p, fx.q),
                                 mode="compiled", seed=7)
        digits = str(fx.n)
        assert len(digits) == 232
        assert (f"modulus  {digits[:12]}...{digits[-12:]} (232 digits)"
                in rep.render_text().splitlines())

    def test_honesty_note_states_both_bit_lengths(self):
        note = FactorReport(
            n=15, factors=(3, 5), mode=MODE_HONEST, seed=0,
            attempt_details=(_attempt("factored", period=4),),
        ).honesty_note
        assert "3 bit" in note      # period 4
        assert "4-bit" in note      # modulus 15
        none_note = FactorReport(
            n=15, factors=None, mode=MODE_HONEST, seed=0,
            attempt_details=(_attempt("no-period"),),
        ).honesty_note
        assert "no usable period" in none_note


class TestAttemptRecord:
    def test_json_dict_shape(self):
        rec = AttemptRecord(index=1, base=7, y=64, period=4, multiplier=1,
                            outcome="factored")
        payload = rec.to_json_dict()
        assert payload == {
            "index": 1, "base": "7", "gcd_shortcut": False, "y": "64",
            "period": 4, "multiplier": 1, "outcome": "factored",
        }

    @pytest.mark.parametrize("outcome", [
        "gcd-shortcut", "factored", "no-period", "period-without-factors"])
    def test_gcd_shortcut_is_read_from_the_outcome(self, outcome):
        assert "gcd_shortcut" not in [
            f.name for f in dataclasses.fields(AttemptRecord)]
        assert _attempt(outcome).gcd_shortcut == (outcome == "gcd-shortcut")

    def test_none_fields_stay_none(self):
        rec = AttemptRecord(index=2, base=7, y=None, period=None,
                            multiplier=None, outcome="no-period")
        payload = rec.to_json_dict()
        assert payload["y"] is None
        assert payload["period"] is None
