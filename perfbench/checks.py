"""Reference checks for every output the benchmark collects.

Nothing here imports shorsim. Each check recomputes what the answer
must be from builtin integer arithmetic, sympy or a closed form
evaluated with numpy, and raises Mismatch when the program's answer
disagrees. The benchmark counts such an operation as failed.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from sympy import factorint, isprime
from sympy.ntheory import n_order

sys.set_int_max_str_digits(0)

DIST_TV_TOLERANCE = 1e-9
DENSITY_TOLERANCE = 1e-9

# Primality of fixture factors is confirmed with sympy up to this size;
# a single Fermat test on a 10000-bit factor takes seconds, so larger
# factors are held to the product p * q == n only.
PRIMALITY_CHECK_BITS = 2048


class Mismatch(Exception):
    """The program's output disagrees with the benchmark's reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@lru_cache(maxsize=None)
def order(a: int, n: int) -> int:
    return int(n_order(a, n))


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Prime factors of n with multiplicity, ascending."""
    return tuple(sorted(p for p, e in factorint(n).items() for _ in range(e)))


def check_factors(n: int, factors, known: tuple[int, int] | None = None) -> None:
    """A reported split must be n's factorisation into two primes.

    known is a pair of primes the benchmark drew itself and multiplied
    into n, used where sympy cannot factor n in reasonable time.
    """
    expect(factors is not None, f"no factors reported for composite {n}")
    got = tuple(sorted(int(f) for f in factors))
    want = tuple(sorted(known)) if known is not None else prime_factors(n)
    expect(got == want, f"factors {got} of {n}, expected {want}")


def check_period(a: int, r: int, n: int) -> None:
    """r must be a period of a mod n: a multiple of its exact order."""
    expect(r >= 1 and pow(a, r, n) == 1, f"{a}**{r} != 1 mod {n}")
    ord_a = order(a % n, n)
    expect(r % ord_a == 0, f"period {r} of {a} mod {n} is not a multiple "
                           f"of the order {ord_a}")


def check_compiled_base(a: int, n: int) -> None:
    expect(1 < a < n - 1, f"compiled base {a} is not strictly inside (1, n-1)")
    expect(pow(a, 2, n) == 1, f"compiled base {a} does not square to 1 mod n")


def check_no_factors_for_prime(n: int, factors) -> None:
    expect(isprime(n), f"{n} was expected to be prime")
    expect(factors is None, f"prime {n} reported with factors {factors}")


def check_honest_report(n: int, report: dict) -> None:
    """An honest factoring report of an odd semiprime below 2**20."""
    check_factors(n, report["factors"])
    for base, period, outcome, shortcut in report["details"]:
        if shortcut:
            expect(math.gcd(base, n) > 1, f"gcd shortcut on unit {base}")
        elif period is not None:
            check_period(base, period, n)
        if outcome == "factored" and not shortcut:
            expect(period is not None, "factored attempt without a period")
    if not report["gcd_shortcut"]:
        check_period(report["base"], report["period"], n)


def check_compiled_report(n: int, known: tuple[int, int], report: dict) -> None:
    """A compiled or coin report: period 2 from a CRT base, right split."""
    check_factors(n, report["factors"], known)
    check_compiled_base(report["base"], n)
    expect(report["period"] == 2, f"compiled period {report['period']} != 2")


def _sin_sq_ratio(m: int, r: int, s: int) -> np.ndarray:
    """F(m, y) = sin^2(pi m r y / S) / sin^2(pi r y / S), all y < S.

    Angles are reduced modulo S in integers before the float step, so
    the ratio keeps full precision at S = 2**20; where the denominator
    vanishes the limit m**2 is used.
    """
    big_s = 1 << s
    y = np.arange(big_s, dtype=np.int64)
    ry = (r * y) % big_s
    den = np.sin(np.pi * ry / big_s) ** 2
    num = np.sin(np.pi * ((m * r * y) % big_s) / big_s) ** 2
    out = np.full(big_s, float(m * m))
    nz = ry != 0
    out[nz] = num[nz] / den[nz]
    return out


@lru_cache(maxsize=16)
def closed_form_distribution(r: int, s: int) -> np.ndarray:
    """Exact readout distribution of period finding with period r.

    With S = 2**s, M = S div r and e = S mod r, the S exponents split
    into e residue classes of size M + 1 and r - e of size M, giving
    P(y) = [e F(M+1, y) + (r - e) F(M, y)] / S**2.
    """
    big_s = 1 << s
    m, e = divmod(big_s, r)
    probs = e * _sin_sq_ratio(m + 1, r, s)
    if m:
        probs += (r - e) * _sin_sq_ratio(m, r, s)
    probs /= float(big_s) ** 2
    probs.setflags(write=False)
    return probs


def check_distribution(a: int, n: int, s: int, probs) -> None:
    probs = np.asarray(probs, dtype=np.float64)
    want = closed_form_distribution(order(a, n), s)
    expect(probs.shape == want.shape,
           f"distribution has {probs.shape} outcomes, expected {want.shape}")
    tv = 0.5 * float(np.abs(probs - want).sum())
    expect(tv <= DIST_TV_TOLERANCE,
           f"distribution of a={a} n={n} s={s} is {tv:.3g} from the closed form")


def _geometric(m: int, r: int, s: int, y: np.ndarray) -> np.ndarray:
    """G(m, y) = sum over t < m of exp(-2 pi i t r y / S)."""
    big_s = 1 << s
    ry = (r * y) % big_s
    den = 1.0 - np.exp(-2j * np.pi * ry / big_s)
    num = 1.0 - np.exp(-2j * np.pi * ((m * r * y) % big_s) / big_s)
    out = np.full(y.shape, complex(m))
    nz = ry != 0
    out[nz] = num[nz] / den[nz]
    return out


@lru_cache(maxsize=16)
def closed_form_coherence(r: int, s: int) -> complex:
    """rho[0,1] of the control qubit before the last readout.

    The last stage splits each earlier readout b < S/2 into b and
    b + S/2, so rho[0,1] = sum_b sum_j A(b, j) conj(A(b + S/2, j)) with
    the textbook amplitudes A(y, j) = (1/S) sum_{x = j mod r}
    exp(-2 pi i x y / S), whose sign is the package's feedback phase
    -2 pi P / 2**k. Writing x = j + t r, the phases in j reduce to
    (-1)**j, and the sum over t is the geometric sum G.
    """
    big_s = 1 << s
    half = big_s >> 1
    m, e = divmod(big_s, r)
    b = np.arange(half, dtype=np.int64)
    # sum of (-1)**j over the e classes of size m + 1, then the rest
    signs = ((m + 1, e % 2), (m, r % 2 - e % 2))
    total = 0j
    for size, sign in signs:
        if size and sign:
            total += sign * complex(np.sum(
                _geometric(size, r, s, b)
                * np.conj(_geometric(size, r, s, b + half))))
    return total / float(big_s) ** 2


def check_density(a: int, n: int, s: int, rho) -> None:
    rho = np.asarray(rho, dtype=np.complex128)
    expect(rho.shape == (2, 2), f"density matrix has shape {rho.shape}")
    expect(abs(np.trace(rho) - 1.0) <= DENSITY_TOLERANCE,
           f"density trace {np.trace(rho)}")
    expect(np.allclose(rho, rho.conj().T, rtol=0.0, atol=DENSITY_TOLERANCE),
           "density matrix is not Hermitian")
    r = order(a, n)
    lower = float(closed_form_distribution(r, s)[: 1 << (s - 1)].sum())
    expect(abs(rho[0, 0].real - lower) <= DENSITY_TOLERANCE,
           f"rho[0,0] = {rho[0, 0].real}, closed-form mass below 2**(s-1) "
           f"is {lower}")
    coherence = closed_form_coherence(r, s)
    expect(abs(rho[0, 1] - coherence) <= DENSITY_TOLERANCE,
           f"rho[0,1] = {rho[0, 1]}, closed form gives {coherence}")


def read_decimal_file(path) -> int:
    with open(path) as handle:
        return int("".join(handle.read().split()))


def fixture_reference(directory) -> dict:
    """The fixture's numbers, parsed with int() straight from its files."""
    directory = Path(directory)
    return {
        "n": read_decimal_file(directory / "n.txt"),
        "p": read_decimal_file(directory / "p.txt"),
        "q": read_decimal_file(directory / "q.txt"),
        "bases": tuple(read_decimal_file(f)
                       for f in sorted(directory.glob("a*.txt"))),
    }


def check_fixture_sound(ref: dict) -> None:
    """A supplementary fixture must hold what it claims."""
    n, p, q = ref["n"], ref["p"], ref["q"]
    expect(p * q == n, "fixture p * q != n")
    expect(p != q and p > 2 and q > 2, "fixture factors are not distinct odd")
    for bits_p in (p, q):
        if bits_p.bit_length() <= PRIMALITY_CHECK_BITS:
            expect(isprime(bits_p), "fixture factor is not prime")
    for a in ref["bases"]:
        check_compiled_base(a, n)
        expect({math.gcd(a - 1, n), math.gcd(a + 1, n)} == {p, q},
               "fixture base does not split n into p and q")


def check_loaded_fixture(ref: dict, loaded: dict) -> None:
    for key in ("n", "p", "q", "bases"):
        expect(loaded[key] == ref[key], f"loaded fixture {key} differs from "
                                        f"the file's digits")


def check_fixture_verdict(ref: dict, checks) -> None:
    """verify_fixture must pass every check on a sound fixture."""
    check_fixture_sound(ref)
    expect(len(checks) > 0, "verify_fixture ran no checks")
    failed = [label for label, ok in checks if not ok]
    expect(not failed, f"verify_fixture failed {failed} on a sound fixture")


def check_decimal_round_trip(value: int, text: str, parsed: int) -> None:
    expect(text == str(value), "to_decimal differs from str()")
    expect(parsed == int(text), "parse_decimal differs from int()")


def parse_cli_json(code: int, out: str, want_code: int = 0):
    expect(code == want_code, f"exit status {code}, expected {want_code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"standard output is not JSON: {exc}") from None


def qubit_budget_reference(n: int) -> dict:
    """Zalka's 1.5 * bits + 2 qubits for an uncompiled run, 2 compiled."""
    bits = n.bit_length()
    return {"n_bits": bits, "zalka_qubits": 2 + math.ceil(3 * bits / 2),
            "compiled_qubits": 2}


def check_semiclassical_multipliers(a: int, n: int, s: int,
                                    multipliers) -> None:
    want = [pow(a, 1 << (s - k), n) for k in range(1, s + 1)]
    expect(list(multipliers) == want, "stage multipliers are not a**(2**(s-k))")


def check_sample(a: int, n: int, s: int, y: int, bits) -> None:
    """A sampled readout must be a bit string of length s with y > 0 odds."""
    expect(len(bits) == s and set(bits) <= {0, 1}, f"bits {bits}")
    expect(y == sum(b << j for j, b in enumerate(bits)), "y != bits, LSB first")
    p_y = closed_form_distribution(order(a, n), s)[y]
    expect(p_y > 1e-12, f"sampled y={y} has closed-form probability {p_y}")
