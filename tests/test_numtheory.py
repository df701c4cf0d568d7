"""Number-theory layer: frozen values plus independent-oracle properties.

The stdlib (math.gcd, pow, fractions.Fraction) serves as the second
route for everything that has one; pinned values were computed by hand
or with those same stdlib tools before the implementation existed.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim.compiler import find_period2_bases
from shorsim.errors import DomainError, RefusedTooLargeError
from shorsim.fixtures import load_fixture
from shorsim.numtheory import (
    AUTO_PRIMALITY_BIT_LIMIT,
    ORDER_SCAN_LIMIT,
    Convergent,
    Semiprime,
    continued_fraction_convergents,
    is_probable_prime,
    multiplicative_order,
    parse_decimal,
    random_probable_prime,
    to_decimal,
)
from shorsim.numtheory import _sieve
from shorsim.numtheory import _strong_lucas_probable_prime as strong_lucas
from shorsim.numtheory import _strong_probable_prime_base2 as strong_base2


class TestMultiplicativeOrder:
    def test_frozen_values(self):
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(11, 15) == 2
        assert multiplicative_order(4, 21) == 3
        assert multiplicative_order(1, 9) == 1
        assert multiplicative_order(2, 7) == 3

    def test_all_units_mod_15(self):
        expected = {1: 1, 2: 4, 4: 2, 7: 4, 8: 4, 11: 2, 13: 4, 14: 2}
        for a, r in expected.items():
            assert multiplicative_order(a, 15) == r

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            multiplicative_order(6, 15)

    def test_size_guard(self):
        with pytest.raises(RefusedTooLargeError):
            multiplicative_order(3, ORDER_SCAN_LIMIT)

    def test_order_is_minimal(self):
        rng = random.Random(20260819)
        for _ in range(60):
            n = rng.randrange(3, 3000)
            a = rng.randrange(1, n)
            if math.gcd(a, n) != 1:
                continue
            r = multiplicative_order(a, n)
            assert pow(a, r, n) == 1
            # minimality: no proper divisor of r works
            for d in range(1, r):
                if r % d == 0:
                    assert pow(a, d, n) != 1


class TestConvergents:
    def test_quarter(self):
        convs = continued_fraction_convergents(64, 256)
        assert [str(c) for c in convs] == ["0/1", "1/4"]

    def test_three_quarters_drops_leading_zero(self):
        convs = continued_fraction_convergents(192, 256)
        assert [str(c) for c in convs] == ["1/1", "3/4"]

    def test_one_third_neighbourhood(self):
        convs = continued_fraction_convergents(85, 256)
        assert [str(c) for c in convs] == ["0/1", "1/3", "85/256"]
        assert convs[1] == Convergent(1, 3)

    def test_zero(self):
        assert continued_fraction_convergents(0, 256) == [Convergent(0, 1)]

    def test_three_eighths(self):
        convs = continued_fraction_convergents(96, 256)
        assert [c.denominator for c in convs] == [1, 2, 3, 8]

    def test_half_keeps_leading_zero(self):
        convs = continued_fraction_convergents(128, 256)
        assert [str(c) for c in convs] == ["0/1", "1/2"]

    def test_y_at_least_s_pow_rejected(self):
        with pytest.raises(DomainError):
            continued_fraction_convergents(256, 256)

    @given(st.integers(0, 10**6 - 1), st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_structural_properties(self, y, s_pow):
        if y >= s_pow:
            return
        convs = continued_fraction_convergents(y, s_pow)
        assert convs, "at least one convergent"
        target = Fraction(y, s_pow)
        # terminates exactly at the target, in lowest terms
        last = convs[-1]
        assert Fraction(last.numerator, last.denominator) == target
        dens = [c.denominator for c in convs]
        assert dens == sorted(dens) and len(set(dens)) == len(dens)
        for c in convs:
            assert math.gcd(c.numerator, c.denominator) == 1
        # adjacent-convergent approximation bound: the classical
        # sandwich 1/(k(k+k')) <= |x - h/k| <= 1/(k k')
        for c, c_next in zip(convs, convs[1:]):
            err = abs(target - Fraction(c.numerator, c.denominator))
            k, k_next = c.denominator, c_next.denominator
            assert err <= Fraction(1, k * k_next)
            assert err >= Fraction(1, k * (k + k_next))

    @given(st.integers(0, 10**6 - 1), st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_matches_limit_denominator(self, y, s_pow):
        if y >= s_pow:
            return
        target = Fraction(y, s_pow)
        for c in continued_fraction_convergents(y, s_pow):
            if c.denominator == 1:
                continue  # denominator-1 ties are resolved by the drop rule
            best = target.limit_denominator(c.denominator)
            assert best == Fraction(c.numerator, c.denominator)


def _sqrt1_roots(p: int, q: int) -> tuple[int, int]:
    a1, a2 = find_period2_bases(Semiprime.from_factors(p, q))
    return a1.a, a2.a


class TestSqrt1Roots:
    """The nontrivial square roots of 1 mod pq, reached through
    find_period2_bases, the one way in to their CRT construction."""

    def test_fifteen(self):
        assert _sqrt1_roots(3, 5) == (4, 11)

    def test_twenty_one(self):
        assert _sqrt1_roots(3, 7) == (8, 13)

    def test_signs_describe_the_crt_combination(self):
        b1, b2 = find_period2_bases(Semiprime.from_factors(3, 5))
        assert (b1.a, b2.a) == (4, 11)
        assert {b1.sign_choice, b2.sign_choice} == {("+", "-"), ("-", "+")}
        # reconstruct each root from its sign pair
        n = 15
        e_q = 3 * pow(3 % 5, -1, 5) % n
        e_p = 5 * pow(5 % 3, -1, 3) % n
        for base in (b1, b2):
            sgn_q, sgn_p = base.sign_choice
            val = (e_q if sgn_q == "+" else -e_q) + \
                  (e_p if sgn_p == "+" else -e_p)
            assert val % n == base.a

    def test_equal_factors_rejected(self):
        with pytest.raises(DomainError):
            _sqrt1_roots(5, 5)

    def test_even_factor_rejected(self):
        with pytest.raises(DomainError):
            _sqrt1_roots(2, 7)

    def test_composite_factor_rejected(self):
        with pytest.raises(DomainError):
            _sqrt1_roots(9, 5)

    def test_random_prime_pairs(self):
        rng = random.Random(97)
        for _ in range(40):
            p = random_probable_prime(64, rng)
            q = random_probable_prime(64, rng)
            if p == q:
                continue
            n = p * q
            a1, a2 = _sqrt1_roots(p, q)
            for a in (a1, a2):
                assert 1 < a < n - 1
                assert a * a % n == 1
            assert a1 < a2
            assert a1 + a2 == n
            assert {math.gcd(a1 - 1, n), math.gcd(a1 + 1, n)} == {p, q}


class TestPrimality:
    def test_small_knowns(self):
        mersenne = [(1 << e) - 1 for e in (31, 61, 127, 521, 607)]
        primes = [2, 3, 5, 7, 97, 65537] + mersenne
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911]
        composites = [0, 1, 4, 9, 3215031751] + carmichael
        for p in primes:
            assert is_probable_prime(p)
        for c in composites:
            assert not is_probable_prime(c)

    def test_deterministic_per_input(self):
        n = (1 << 127) - 1
        assert is_probable_prime(n) is is_probable_prime(n)
        assert is_probable_prime(n)

    def test_random_prime_has_exact_bit_length(self):
        rng = random.Random(5)
        for bits in (2, 3, 16, 64, 128):
            p = random_probable_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_tiny_bit_count_rejected(self):
        with pytest.raises(DomainError):
            random_probable_prime(1, random.Random(0))

    def test_verdict_matches_sieve_below_10_6(self):
        primes = set(_sieve(10**6))
        assert [n for n in range(10**6)
                if is_probable_prime(n) != (n in primes)] == []

    def test_strong_tests_alone_match_sieve(self):
        # below 10**6 trial division settles almost every n, so the two
        # strong tests get their own check without it
        primes = set(_sieve(2 * 10**5))
        assert [n for n in range(3, 2 * 10**5, 2)
                if (strong_base2(n) and strong_lucas(n)) != (n in primes)
                ] == []

    @pytest.mark.parametrize("n", [
        2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051,
        # squares of the Wieferich primes; the Lucas test refuses them
        # at its perfect-square check
        1093 ** 2, 3511 ** 2,
    ])
    def test_base2_strong_pseudoprimes_rejected(self, n):
        assert strong_base2(n)
        assert not strong_lucas(n)
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes_rejected(self, n):
        assert strong_lucas(n)
        assert not strong_base2(n)
        assert not is_probable_prime(n)

    def test_rsa768_factors_accepted(self):
        fx = load_fixture("rsa768")
        assert is_probable_prime(fx.p)
        assert is_probable_prime(fx.q)

    @given(st.integers(0, 2**32), st.integers(12, 256), st.integers(12, 256))
    @settings(max_examples=50, deadline=None)
    def test_product_of_two_primes_rejected(self, seed, bits_p, bits_q):
        # both factors exceed the trial-division table, so the strong
        # tests decide
        rng = random.Random(seed)
        p = random_probable_prime(bits_p, rng)
        q = random_probable_prime(bits_q, rng)
        assert not is_probable_prime(p * q)

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


class TestSemiprime:
    def test_from_factors(self):
        sp = Semiprime.from_factors(3, 5)
        assert sp.n == 15
        assert sp.has_factors
        assert sp.factors == (3, 5)

    def test_factor_order_is_normalized(self):
        assert Semiprime.from_factors(5, 3).factors == (3, 5)

    def test_without_factors(self):
        sp = Semiprime(15)
        assert not sp.has_factors
        with pytest.raises(DomainError):
            _ = sp.factors

    def test_mismatched_product_rejected(self):
        with pytest.raises(DomainError):
            Semiprime(16, 3, 5)

    def test_single_factor_rejected(self):
        with pytest.raises(DomainError):
            Semiprime(15, 3, None)

    def test_equal_factors_rejected(self):
        with pytest.raises(DomainError):
            Semiprime.from_factors(5, 5)

    def test_composite_factor_rejected(self):
        with pytest.raises(DomainError):
            Semiprime.from_factors(9, 5)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            Semiprime(3)

    def test_large_factors_skip_primality(self):
        # beyond the auto-check limit only arithmetic is verified,
        # so a composite "factor" of that size is accepted on faith
        bits = AUTO_PRIMALITY_BIT_LIMIT + 8
        p = (1 << bits) + 1  # odd, certainly not checked
        q = (1 << bits) + 3
        sp = Semiprime.from_factors(p, q)
        assert sp.n == p * q


class TestDecimalHelpers:
    def test_round_trip_small(self):
        for v in (0, 1, 9, 10, 12345, 10**100):
            assert parse_decimal(to_decimal(v)) == v
            assert to_decimal(v) == str(v)

    def test_round_trip_past_interpreter_limit(self):
        v = 10 ** 4500 + 12345
        text = to_decimal(v)
        assert len(text) == 4501
        assert text[0] == "1"
        assert text.endswith("12345")
        assert set(text[1:-5]) == {"0"}
        assert parse_decimal(text) == v

    def test_round_trip_random_digits(self):
        rng = random.Random(11)
        digits = "".join(rng.choice("0123456789") for _ in range(9000))
        digits = "1" + digits
        assert to_decimal(parse_decimal(digits)) == digits

    def test_whitespace_ignored(self):
        assert parse_decimal(" 1 2\n3\t4 ") == 1234

    @pytest.mark.parametrize("bad", ["", "  ", "12a", "0x10", "-5", "１２"])
    def test_invalid_input_rejected(self, bad):
        with pytest.raises(DomainError):
            parse_decimal(bad)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            to_decimal(-1)

    @given(st.integers(0, 10**600))
    @settings(max_examples=100)
    def test_round_trip_property(self, v):
        assert parse_decimal(to_decimal(v)) == v


@pytest.mark.parametrize("call, message", [
    (lambda: is_probable_prime(True), "expected an integer, got bool"),
    (lambda: multiplicative_order(1, 1), "modulus must be at least 2"),
    (lambda: multiplicative_order(1, 0), "modulus must be at least 2"),
    (lambda: continued_fraction_convergents(0, 0),
     "denominator must be positive"),
], ids=["bool-is-no-integer", "order-mod-1", "order-mod-0",
        "convergents-of-0-over-0"])
def test_input_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
