"""Number-theory layer: frozen values plus independent-oracle properties.

The stdlib (math.gcd, pow) serves as the second route for everything
that has one; pinned values were computed by hand or with those same
stdlib tools before the implementation existed.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim.compiler import find_period2_bases
from shorsim.errors import DomainError, RefusedTooLargeError
from shorsim.fixtures import load_fixture
from shorsim.numtheory import (
    AUTO_PRIMALITY_BIT_LIMIT,
    ORDER_SCAN_LIMIT,
    Semiprime,
    is_probable_prime,
    multiplicative_order,
    parse_decimal,
    signed_decimal,
    to_decimal,
)
from shorsim.numtheory import _is_small_prime, _jacobi, _sieve
from shorsim.numtheory import _strong_lucas_probable_prime as strong_lucas
from shorsim.numtheory import _strong_probable_prime_base2 as strong_base2

from instruments import random_probable_prime


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


def _reference_strong_lucas(n):
    """The U/V ladder that the V-only ladder replaced, kept verbatim as
    the oracle its verdicts are compared with."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    m = n + 1
    s = (m & -m).bit_length() - 1  # m = d * 2**s with d odd
    d = m >> s
    # Binary ladder from k = 1: U_2k = U_k V_k, V_2k = V_k**2 - 2 Q**k,
    # and with P = 1, U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2,
    # halving mod odd n by adding n to an odd value first.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


_LOOP_PRIMES = _sieve(1000)


def _reference_small_prime(n):
    """The trial-division loop that one gcd replaced, kept verbatim."""
    if n < 2:
        return False
    for p in _LOOP_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    return None


def _lucas_conditions(n):
    """Which of the strong Lucas conditions odd n meets, from the plain
    recurrences U_k+1 = U_k - Q U_k-1 and V_k+1 = V_k - Q V_k-1 (P = 1)
    run term by term; for n of a few thousand only."""
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    m = n + 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    us, vs = [0, 1], [2, 1]
    while len(us) <= m:
        us.append((us[-1] - Q * us[-2]) % n)
        vs.append((vs[-1] - Q * vs[-2]) % n)
    met = set()
    if us[d] == 0:
        met.add("U_d")
    if vs[d] == 0:
        met.add("V_d")
    if any(vs[d << r] == 0 for r in range(1, s)):
        met.add("V_d*2**r")
    return met


class TestLucasLadder:
    """The V-only ladder gives the U/V ladder's verdict on every input."""

    def test_matches_reference_on_every_odd_n_below_10_5(self):
        assert [n for n in range(3, 10**5, 2)
                if strong_lucas(n) != _reference_strong_lucas(n)] == []

    # Each witness passes by exactly one condition, so dropping any one
    # of the ladder's three checks rejects its witness and fails here.
    @pytest.mark.parametrize("n, condition", [
        (5777, "U_d"), (16109, "V_d"), (5459, "V_d*2**r"),
    ])
    def test_each_condition_has_a_witness(self, n, condition):
        assert _lucas_conditions(n) == {condition}
        assert _reference_strong_lucas(n)
        assert strong_lucas(n)

    def test_matches_reference_on_large_inputs(self):
        rng = random.Random(29)
        inputs = [
            # 2048-bit primes, and a 2048-bit semiprime of 1024-bit ones
            2**2047 + 1919, 2**2048 - 1557,
            (2**1023 + 1155) * (2**1024 - 105),
        ]
        for bits in (64, 128, 256, 512, 1024, 2048):
            inputs += [rng.getrandbits(bits) | 1 << (bits - 1) | 1
                       for _ in range(4)]
        for bits in (64, 128, 256, 512, 1024):
            inputs += [random_probable_prime(bits, rng) for _ in range(2)]
            half = bits // 2
            inputs += [random_probable_prime(half, rng)
                       * random_probable_prime(bits - half, rng)
                       for _ in range(2)]
        mismatched = [n for n in inputs
                      if strong_lucas(n) != _reference_strong_lucas(n)]
        assert mismatched == []
        assert sum(map(strong_lucas, inputs)) == 2 + 2 * 5


class TestTrialDivision:
    @pytest.mark.parametrize("n", [
        0, 1, 2, 15, 1155, 30030, 997, 1009,
        997**2 - 2, 997**2, 997**2 + 2,
    ])
    def test_edges_match_the_loop(self, n):
        assert _is_small_prime(n) is _reference_small_prime(n)

    def test_matches_the_loop_below_2_10_5(self):
        assert [n for n in range(2 * 10**5)
                if _is_small_prime(n) is not _reference_small_prime(n)
                ] == []


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

    def test_signed_decimal_writes_either_sign(self):
        for v in (0, 7, -7, 10 ** 100, -10 ** 100):
            assert signed_decimal(v) == str(v)
        assert signed_decimal(-10 ** 5000) == "-1" + "0" * 5000

    @given(st.integers(0, 10**600))
    @settings(max_examples=100)
    def test_round_trip_property(self, v):
        assert parse_decimal(to_decimal(v)) == v


@pytest.mark.parametrize("call, message", [
    (lambda: is_probable_prime(True), "expected an integer, got bool"),
    (lambda: multiplicative_order(1, 1), "modulus must be at least 2"),
    (lambda: multiplicative_order(1, 0), "modulus must be at least 2"),
    # a float pair whose product is n reached int.bit_length
    (lambda: Semiprime(15, 3.0, 5.0), "^p must be an integer, got float"),
    (lambda: Semiprime(15, 3, 5.0), "^q must be an integer, got float"),
    (lambda: Semiprime(15, True, 15), "^p must be an integer, got bool"),
], ids=["bool-is-no-integer", "order-mod-1", "order-mod-0",
        "semiprime-float-factors", "semiprime-float-second-factor",
        "semiprime-bool-factor"])
def test_input_checks_refuse(call, message):
    with pytest.raises(DomainError, match=message):
        call()
