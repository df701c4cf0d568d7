"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints one ACCEPTANCE line (visible under pytest -s) and
enforces its stated tolerance and, where given, its runtime budget.
Timed sections cover exactly the mandated work; fixture loading and
warm-up calls happen outside the stopwatch.
"""

import math
import random
import time
from fractions import Fraction

from shorsim.coinlab import (
    CHI2_1DOF_P999,
    chi_square_binomial,
    chi_square_heads_tails,
    coin_factor_demo,
)
from shorsim.compiler import (
    build_compiled_circuit,
    build_semiclassical_stages,
    find_period2_bases,
    zalka_qubit_count,
)
from shorsim.fixtures import load_fixture
from shorsim.numtheory import (
    Semiprime,
    gcd,
    mod_pow,
    multiplicative_order,
    random_probable_prime,
)
from shorsim.postprocess import (
    MAX_PERIOD_MULTIPLIER,
    derive_factors,
    extract_period,
    run_full_algorithm,
)
from shorsim.simulator import (
    dft_oracle_distribution,
    output_distribution,
    run_circuit,
    total_variation,
)


def test_criterion_1_qubit_budgets():
    rsa_n = load_fixture("rsa768").n
    big_n = load_fixture("n20000").n
    start = time.perf_counter()
    got = (
        zalka_qubit_count(15).zalka_qubits,
        zalka_qubit_count(21).zalka_qubits,
        zalka_qubit_count(rsa_n).zalka_qubits,
        zalka_qubit_count(big_n).zalka_qubits,
    )
    elapsed = time.perf_counter() - start
    assert got == (8, 10, 1154, 30002)
    assert elapsed < 1e-3, f"qubit budgets took {elapsed:.6f}s"
    print(f"ACCEPTANCE 1 PASS — qubit budgets 8/10/1154/30002 "
          f"in {elapsed * 1e6:.0f} us")


def test_criterion_2_attested_periods():
    assert multiplicative_order(7, 15) == 4
    assert multiplicative_order(11, 15) == 2
    assert multiplicative_order(4, 21) == 3
    print("ACCEPTANCE 2 PASS — orders (7,15)=4, (11,15)=2, (4,21)=3")


def test_criterion_3_supplementary_fixtures():
    rsa = load_fixture("rsa768")
    start = time.perf_counter()
    for a in rsa.bases:
        assert mod_pow(a, 2, rsa.n) == 1
        assert {gcd(a - 1, rsa.n), gcd(a + 1, rsa.n)} == {rsa.p, rsa.q}
    rsa_time = time.perf_counter() - start
    assert rsa_time < 1.0, f"768-bit checks took {rsa_time:.3f}s"

    big = load_fixture("n20000")
    start = time.perf_counter()
    (a,) = big.bases
    assert mod_pow(a, 2, big.n) == 1
    assert {gcd(a - 1, big.n), gcd(a + 1, big.n)} == {big.p, big.q}
    big_time = time.perf_counter() - start
    assert big_time < 5.0, f"20000-bit checks took {big_time:.3f}s"
    print(f"ACCEPTANCE 3 PASS — fixtures verified in {rsa_time:.3f}s "
          f"(768-bit) and {big_time:.3f}s (20000-bit)")


def test_criterion_4_recycling_equivalence():
    # one warm-up call outside the stopwatch
    output_distribution(build_semiclassical_stages(7, 15, 3))
    worst = 0.0
    combos = 0
    start = time.perf_counter()
    for n in (15, 21, 33, 35):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            for s in range(1, 11):
                dist = output_distribution(build_semiclassical_stages(a, n, s))
                oracle = dft_oracle_distribution(a, n, s)
                worst = max(worst, total_variation(dist, oracle))
                combos += 1
    elapsed = time.perf_counter() - start
    assert combos == 640
    assert worst < 1e-9, f"worst total variation {worst:.3e}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS — {combos} circuit/oracle pairs, worst "
          f"TV {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_compiled_marginal():
    shots = 10_000
    for p, q in ((3, 5), (3, 7)):
        for base in find_period2_bases(Semiprime.from_factors(p, q)):
            circuit = build_compiled_circuit(base)
            dist = output_distribution(circuit)
            assert abs(dist[0] - 0.5) < 1e-12
            assert abs(dist[1] - 0.5) < 1e-12
    # sampling check on one representative circuit
    circuit = build_compiled_circuit(
        find_period2_bases(Semiprime.from_factors(3, 5))[0]
    )
    ones = sum(run_circuit(circuit, seed)[0] for seed in range(shots))
    sigma = math.sqrt(0.25 / shots)
    deviation = abs(ones / shots - 0.5)
    assert deviation < 4 * sigma, f"sampled frequency off by {deviation:.4f}"
    print(f"ACCEPTANCE 5 PASS — exact 1/2-1/2 within 1e-12; {shots} shots "
          f"deviate {deviation:.4f} (< {4 * sigma:.4f})")


def _oracle_period(a, y, s_pow, n):
    """Brute-force candidate scan from stdlib pieces only."""
    if y == 0:
        return None
    digits = []
    frac = Fraction(y, s_pow)
    convs = []
    while True:
        digits.append(int(frac))
        value = Fraction(digits[-1])
        for d in reversed(digits[:-1]):
            value = d + (1 / value if value else Fraction(0))
        convs.append(value)
        if value == Fraction(y, s_pow):
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
                return cand
    return None


def test_criterion_6_honest_factoring_of_fifteen():
    sp = Semiprime.from_factors(3, 5)

    # 1000 seeded end-to-end runs
    successes = sum(
        run_full_algorithm(sp, mode="honest", seed=seed).factors == (3, 5)
        for seed in range(1000)
    )
    rate = successes / 1000
    assert rate >= 0.99, f"success rate {rate:.3f}"

    # per-attempt direct-hit frequency for a = 7, from the exact
    # distribution: the two readouts whose convergents carry the period
    # denominator itself, out of four equiprobable outcomes
    dist = output_distribution(build_semiclassical_stages(7, 15, 8))
    direct_mass = 0.0
    for y in dist.support():
        cand = extract_period(y, 256, 7, 15)
        if cand is not None and cand.direct:
            direct_mass += dist[y]
    assert abs(direct_mass - 0.5) <= 0.05, f"direct-hit mass {direct_mass}"

    # exhaustive per-outcome agreement with the brute-force oracle
    for a in (2, 4, 7, 8, 11, 13, 14):
        a_dist = output_distribution(build_semiclassical_stages(a, 15, 8))
        for y in a_dist.support():
            cand = extract_period(y, 256, a, 15)
            want_r = _oracle_period(a, y, 256, 15)
            got_r = None if cand is None else cand.r
            assert got_r == want_r, (a, y, got_r, want_r)
            if cand is not None:
                x = pow(a, cand.r // 2, 15) if cand.r % 2 == 0 else None
                got_f = derive_factors(a, cand.r, 15)
                if x is not None and x != 14:
                    want = {math.gcd(x - 1, 15), math.gcd(x + 1, 15)}
                    want_f = tuple(sorted(want)) if want == {3, 5} else None
                    assert got_f == want_f, (a, y)
    print(f"ACCEPTANCE 6 PASS — success {successes}/1000, direct-hit "
          f"mass for base 7 = {direct_mass:.3f}, enumerated decisions "
          f"match the oracle")


def test_criterion_7_compiled_property_suite():
    master = random.Random(64646464)
    start = time.perf_counter()
    attempts = []
    for i in range(1000):
        p = random_probable_prime(64, master)
        q = random_probable_prime(64, master)
        while q == p:
            q = random_probable_prime(64, master)
        report = run_full_algorithm(
            Semiprime.from_factors(p, q), mode="compiled", seed=i
        )
        assert report.period_found == 2
        assert report.factors == (min(p, q), max(p, q))
        attempts.append(report.attempts)
    elapsed = time.perf_counter() - start
    mean_attempts = sum(attempts) / len(attempts)
    assert 1.8 <= mean_attempts <= 2.2, f"mean attempts {mean_attempts:.3f}"
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 7 PASS — 1000 64-bit pairs factored, mean attempts "
          f"{mean_attempts:.3f}, {elapsed:.1f}s")


def test_criterion_8_coin_demo():
    sp = Semiprime.from_factors(3, 5)
    runs = 10_000
    tosses = 10
    successes = 0
    total_heads = 0
    heads_counts = []
    for seed in range(runs):
        run, report = coin_factor_demo(sp, tosses, seed)
        successes += report.factors == (3, 5)
        total_heads += run.heads
        heads_counts.append(run.heads)

    p_expect = 1.0 - 2.0 ** -tosses
    sigma = math.sqrt(p_expect * (1 - p_expect) / runs)
    deviation = abs(successes / runs - p_expect)
    assert deviation < 4 * sigma, (
        f"success rate {successes / runs:.5f} vs {p_expect:.5f}"
    )

    stat = chi_square_heads_tails(total_heads, runs * tosses)
    assert stat < CHI2_1DOF_P999, f"heads/tails chi-square {stat:.2f}"

    # distribution of per-run head counts against Binomial(10, 1/2)
    b_stat, b_dof, b_crit = chi_square_binomial(heads_counts, tosses)
    assert b_stat < b_crit, (
        f"binomial chi-square {b_stat:.2f} over {b_dof} dof (crit {b_crit:.2f})"
    )

    # the error-bar formula itself, exactly
    sample, _ = coin_factor_demo(sp, 10, 1)
    assert sample.heads == 5
    assert sample.sigma == math.sqrt(0.5 * 0.5 / 10)

    print(f"ACCEPTANCE 8 PASS — success {successes / runs:.5f} "
          f"(target {p_expect:.5f} +/- {4 * sigma:.5f}), heads/tails "
          f"chi2 {stat:.2f}, binomial chi2 {b_stat:.2f}/{b_dof}dof")
