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
from shorsim.errors import DomainError, NotInvertibleError, RefusedTooLargeError
from shorsim.numtheory import (
    AUTO_PRIMALITY_BIT_LIMIT,
    ORDER_SCAN_LIMIT,
    Convergent,
    Semiprime,
    continued_fraction_convergents,
    gcd,
    is_probable_prime,
    mod_inverse,
    mod_pow,
    multiplicative_order,
    parse_decimal,
    random_probable_prime,
    to_decimal,
)


class TestGcd:
    def test_known_values(self):
        assert gcd(12, 18) == 6
        assert gcd(17, 5) == 1
        assert gcd(0, 7) == 7
        assert gcd(7, 0) == 7
        assert gcd(0, 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            gcd(-4, 6)

    def test_rejects_bool(self):
        with pytest.raises(DomainError):
            gcd(True, 6)

    @given(st.integers(0, 1 << 256), st.integers(0, 1 << 256))
    def test_matches_stdlib(self, a, b):
        assert gcd(a, b) == math.gcd(a, b)


class TestModInverse:
    def test_small_inverse(self):
        assert mod_inverse(3, 10) == 7
        assert mod_inverse(1, 2) == 1

    def test_gcd_witness_on_failure(self):
        with pytest.raises(NotInvertibleError) as exc_info:
            mod_inverse(5, 15)
        assert exc_info.value.gcd == 5
        assert exc_info.value.value == 5
        assert exc_info.value.modulus == 15

    def test_shared_factor_is_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inverse(6, 9)

    @given(st.integers(0, 1 << 128), st.integers(2, 1 << 128))
    def test_inverse_property(self, a, m):
        if math.gcd(a % m, m) != 1:
            with pytest.raises(NotInvertibleError):
                mod_inverse(a, m)
        else:
            inv = mod_inverse(a, m)
            assert 0 < inv < m or (m == 1 and inv == 0)
            assert a * inv % m == 1 % m


class TestModPow:
    def test_matches_builtin_on_grid(self):
        moduli = [2, 3, 7, 15, 21, 97, 65537, (1 << 61) - 1]
        for m in moduli:
            for base in range(0, 40, 3):
                for exp in range(0, 1 << 10, 41):
                    assert mod_pow(base, exp, m) == pow(base, exp, m)

    def test_huge_operands(self):
        b = 3 ** 500
        e = 2 ** 300 + 7
        m = (1 << 521) - 1
        assert mod_pow(b, e, m) == pow(b, e, m)

    def test_modulus_one_gives_zero(self):
        assert mod_pow(123, 456, 1) == 0

    def test_modulus_zero_rejected(self):
        with pytest.raises(DomainError):
            mod_pow(2, 3, 0)

    @given(st.integers(0, 1 << 200), st.integers(0, 1 << 64),
           st.integers(1, 1 << 200))
    def test_matches_builtin_property(self, b, e, m):
        assert mod_pow(b, e, m) == pow(b, e, m)


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
        e_q = 3 * mod_inverse(3 % 5, 5) % n
        e_p = 5 * mod_inverse(5 % 3, 3) % n
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
        primes = [2, 3, 5, 7, 97, 65537, (1 << 31) - 1]
        composites = [0, 1, 4, 9, 561, 1105, 6601, 3215031751]
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
