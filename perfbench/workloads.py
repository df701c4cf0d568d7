"""The four workloads: their inputs, drawn from the seed, and the check
each operation's output must pass.

An operation is a kind the worker knows how to run, its arguments,
and a function that judges the result against checks.py. Every input
is a function of the seed alone (some are fixed); a run repeats the same
list in whole rounds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from sympy import nextprime, primerange

import checks
from checks import Mismatch, expect

WORKLOADS = ("honest-factor", "exact-dist", "compiled-bigint", "cli")

# Honest factoring: odd semiprimes between 12 and 20 bits, each run
# with program seeds 0 .. count-1. Cost follows the period of the drawn
# base, which divides lambda(n), not the size of n: the 18- and 20-bit
# moduli with small lambda are as cheap as the 12-bit ones. Periods
# stop at 16020: a run that meets a period near 10**5 takes seconds, and
# no operation here may (see the README on the machine's pace).
#
# These inputs do not depend on the benchmark seed. The honest sampler
# stops with "state norm drifted" on a seed-dependent share of runs
# (about 1 in 100; see CHANGES.md), so seeded runs would fail on some
# benchmark seeds and not on others. With fixed inputs every run
# attempts the same operations; none of these fails today. Fixed
# inputs also make the cost of a round the same on every seed.
#   n         p     q     runs    bits  lambda(n)
HONEST_MODULI = (
    (3127, 53, 59, 10),      # 12  1508
    (3599, 59, 61, 10),      # 12  1740
    (6557, 79, 83, 6),       # 13  3198
    (146611, 271, 541, 10),  # 18  540
    (197633, 257, 769, 10),  # 18  768
    (886657, 769, 1153, 8),  # 20  2304
    (1026241, 641, 1601, 6),  # 20  3200
    (60491, 241, 251, 4),    # 16  6000
    (32399, 179, 181, 4),    # 15  16020
)

# Exact distributions: (modulus, period, readout bits). The
# base is drawn from the seed among the units of that exact order, so
# the span, the cell count 2**s * r and the cost do not depend on the
# seed. The largest case has 2**23 cells, not the 2**25 the guard
# allows: at 2**25 one call takes seconds, and no operation here may
# (see the README on the machine's pace).
EXACT_CASES = (
    (15, 4, 20),        # small orbit, many stages: 2**22 cells
    (65519, 32759, 8),  # large orbit, few stages, r > 2**s: 8386304 cells
    (337, 21, 16),      # period below 2**s, not a power of two: 1376256 cells
    (1009, 1008, 12),   # period below 2**s, not a power of two: 4128768 cells
    (7, 3, 16),         # smallest: 196608 cells
)

# Compiled and coin factoring: (bits of n, semiprimes per round). Each
# semiprime is factored once in compiled mode and once in coin mode.
COMPILED_SIZES = ((64, 24), (128, 8), (256, 4), (512, 2), (1024, 2))

FIXTURES = ("rsa768", "n20000")

# Guard traffic for the cli workload: the semiclassical circuit for a
# unit modulo this Mersenne prime has a work orbit far past the
# simulator's 2**20 limit, and the honest factoring of a prime can only
# exhaust its attempts.
GUARD_MODULUS = (1 << 61) - 1
PRIME_MODULUS = 8191

# `dist --kind compiled` refuses moduli above 2**16 (see CHANGES.md), so
# the compiled distribution is asked for with two of these primes.
TINY_PRIMES = tuple(int(p) for p in primerange(3, 256))


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict
    verify: Callable[[object], None]

    def label(self) -> str:
        shown = {k: v for k, v in self.args.items() if k != "argv"}
        if "argv" in self.args:
            shown["argv"] = " ".join(self.args["argv"])[:80]
        return f"{self.kind} {shown}"


def fixture_dir(root: Path, name: str) -> Path:
    return root / "src" / "shorsim" / "fixtures" / name


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.getrandbits(32) for _ in range(count)]


def _unit_of_order(rng: random.Random, n: int, r: int) -> int:
    while True:
        a = rng.randrange(2, n - 1)
        if math.gcd(a, n) == 1 and checks.order(a, n) == r:
            return a


def _random_prime(rng: random.Random, bits: int) -> int:
    return int(nextprime(rng.getrandbits(bits) | (1 << (bits - 1))))


def _semiprime(rng: random.Random, bits: int) -> tuple[int, int, int]:
    while True:
        p = _random_prime(rng, bits // 2)
        q = _random_prime(rng, bits - bits // 2)
        if p != q:
            return p * q, p, q


def honest_ops(seed: int, root: Path) -> list[Op]:
    return [Op("factor", {"n": n, "mode": "honest", "seed": run_seed},
               partial(checks.check_honest_report, n))
            for n, _, _, count in HONEST_MODULI for run_seed in range(count)]


def exact_ops(seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, r, s in EXACT_CASES:
        a = _unit_of_order(rng, n, r)
        args = {"a": a, "n": n, "s": s}
        ops.append(Op("dist", args, partial(checks.check_distribution, a, n, s)))
        ops.append(Op("density", args, partial(checks.check_density, a, n, s)))
        ops.append(Op("oracle", args, partial(checks.check_distribution, a, n, s)))
    return ops


def _check_round_trip(ref, result):
    text, parsed = result
    checks.check_decimal_round_trip(ref["n"], text, parsed)


def compiled_ops(seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for bits, count in COMPILED_SIZES:
        for _ in range(count):
            n, p, q = _semiprime(rng, bits)
            for mode in ("compiled", "coin"):
                ops.append(Op(
                    "factor",
                    {"n": n, "p": p, "q": q, "mode": mode,
                     "seed": rng.getrandbits(32)},
                    partial(checks.check_compiled_report, n, (p, q)),
                ))
    for name in FIXTURES:
        ref = checks.fixture_reference(fixture_dir(root, name))
        known = (ref["p"], ref["q"])
        ops.append(Op("load_fixture", {"name": name},
                      partial(checks.check_loaded_fixture, ref)))
        ops.append(Op("verify_fixture", {"name": name},
                      partial(checks.check_fixture_verdict, ref)))
        ops.append(Op("fixture_factor",
                      {"name": name, "seed": rng.getrandbits(32)},
                      partial(checks.check_compiled_report, ref["n"], known)))
        ops.append(Op("decimal_round_trip", {"name": name},
                      partial(_check_round_trip, ref)))
    return ops


# --- cli -----------------------------------------------------------------

def _cli(argv: list[str], verify: Callable[[tuple], None]) -> Op:
    """An invocation judged on its raw (exit status, stdout, stderr)."""
    return Op("cli", {"argv": argv}, verify)


def _cli_json(argv: list[str], verify: Callable[[dict], None]) -> Op:
    """An invocation that must exit 0 and print JSON passing verify."""
    def judge(result) -> None:
        code, out, _ = result
        verify(checks.parse_cli_json(code, out))
    return Op("cli", {"argv": argv}, judge)


def _report_from_json(doc: dict) -> dict:
    """The fields checks.py reads, from a `factor` JSON report."""
    details = [(int(d["base"]), d["period"], d["outcome"], d["gcd_shortcut"])
               for d in doc["attempt_details"]]
    return {
        "factors": None if doc["factors"] is None else
        tuple(int(f) for f in doc["factors"]),
        "base": int(doc["base_used"]),
        "period": doc["period_found"],
        "gcd_shortcut": doc["gcd_shortcut"],
        "details": details,
    }


def cli_ops(seed: int, root: Path) -> list[Op]:
    rng = random.Random(seed)
    n64, p64, q64 = _semiprime(rng, 64)
    n256, p256, q256 = _semiprime(rng, 256)
    tiny_p, tiny_q = rng.sample(TINY_PRIMES, 2)
    a_small = _unit_of_order(rng, 337, 21)
    a_guard = rng.randrange(2, GUARD_MODULUS - 1)
    seeds = _seeds(rng, 3)
    semiclassical = ["--kind", "semiclassical", "--a", str(a_small),
                     "--n", "337", "--s", "12"]
    compiled = ["--p", str(p64), "--q", str(q64)]
    ops = []

    def qubits(doc):
        want = checks.qubit_budget_reference(n256)
        got = {k: doc[k] for k in want}
        expect(got == want and int(doc["n"]) == n256, f"qubits {got} != {want}")
    ops.append(_cli_json(["qubits", "--n", str(n256)], qubits))

    def compile_base(doc):
        bases = [int(b["a"]) for b in doc["bases"]]
        expect(len(bases) == 2 and sum(bases) == n64, "bases do not sum to n")
        for b in doc["bases"]:
            checks.check_compiled_base(int(b["a"]), n64)
            expect(b["period"] == 2, "compiled period is not 2")
    ops.append(_cli_json(["compile-base", *compiled], compile_base))

    def circuit_json(doc):
        muls = [int(g["multiplier"]) for g in doc["gates"]
                if g["gate"] == "CMODMUL"]
        checks.check_semiclassical_multipliers(a_small, 337, 12, muls)
        expect(doc["work_register_span"] == checks.order(a_small, 337),
               "work span differs from the order of a")
    ops.append(_cli_json(["circuit", *semiclassical, "--format", "json"],
                         circuit_json))

    def circuit_text(result):
        code, out, _ = result
        expect(code == 0, f"exit status {code}")
        lines = out.split("\n")
        expect(len(lines) == 5 and lines[0] == "PREP+"
               and lines[2:] == ["H", "MEAS 0", ""],
               f"compiled circuit text {lines}")
        gate, a, n = lines[1].split()
        expect(gate == "CMODMUL" and int(n) == n64, "compiled circuit gate")
        checks.check_compiled_base(int(a), n64)
    ops.append(_cli(["circuit", "--kind", "compiled", *compiled,
                     "--format", "text"], circuit_text))

    # Sampled trajectories (simulate, honest factor) use fixed inputs,
    # for the reason given at HONEST_MODULI.
    def simulate(doc):
        checks.check_sample(2, 337, 12, int(doc["y"]), doc["bits"])
        checks.check_semiclassical_multipliers(
            2, 337, 12, [int(st["multiplier"]) for st in doc["stages"]])
    ops.append(_cli_json(["simulate", "--kind", "semiclassical", "--a", "2",
                          "--n", "337", "--s", "12", "--seed", "0"], simulate))

    def dist_semiclassical(doc):
        probs = [0.0] * doc["num_outcomes"]
        for y, p in doc["probabilities"].items():
            probs[int(y)] = p
        checks.check_distribution(a_small, 337, 12, probs)
    ops.append(_cli_json(["dist", *semiclassical], dist_semiclassical))

    def dist_compiled(doc):
        expect(doc["probabilities"] == {"0": 0.5, "1": 0.5},
               f"compiled distribution {doc['probabilities']}")
    ops.append(_cli_json(["dist", "--kind", "compiled", "--p", str(tiny_p),
                          "--q", str(tiny_q)], dist_compiled))

    def factor_honest(doc):
        checks.check_honest_report(3127, _report_from_json(doc))
    ops.append(_cli_json(["factor", "--n", "3127", "--seed", "0"],
                         factor_honest))

    def factor_known(doc):
        checks.check_compiled_report(n256, (p256, q256), _report_from_json(doc))
    for mode, run_seed in (("compiled", seeds[0]), ("coin", seeds[1])):
        ops.append(_cli_json(["factor", "--p", str(p256), "--q", str(q256),
                              "--mode", mode, "--seed", str(run_seed)],
                             factor_known))

    def coin_demo(doc):
        run = doc["coin_run"]
        expect(0 <= run["heads"] <= run["tosses"] == 16, f"coin run {run}")
        if run["heads"]:
            checks.check_compiled_report(n64, (p64, q64),
                                         _report_from_json(doc["report"]))
        else:
            expect(doc["report"]["factors"] is None, "factors without heads")
    ops.append(_cli_json(["coin-demo", *compiled, "--tosses", "16",
                          "--seed", str(seeds[2])], coin_demo))

    for name in FIXTURES:
        ref = checks.fixture_reference(fixture_dir(root, name))

        def verify(doc, ref=ref):
            checks.check_fixture_sound(ref)
            expect(doc["passed"] is True
                   and all(c["ok"] for c in doc["checks"]),
                   f"fixture checks {doc['checks']}")
            expect(doc["n_bits"] == ref["n"].bit_length()
                   and doc["num_bases"] == len(ref["bases"]),
                   "fixture size or base count differs from its files")
        ops.append(_cli_json(["verify-supplementary", "--fixture", name],
                             verify))

    def refusal(result):
        code, _, err = result
        expect(checks.order(a_guard, GUARD_MODULUS) > 1 << 20,
               "guard base has a small orbit")
        expect(code == 4, f"exit status {code}, expected 4 (refused)")
        try:
            kind = json.loads(err)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            raise Mismatch(f"refusal without an error object: {err!r}") from None
        expect(kind == "RefusedTooLargeError", f"refusal type {kind}")
    ops.append(_cli(["dist", "--kind", "semiclassical", "--a", str(a_guard),
                     "--n", str(GUARD_MODULUS), "--s", "4"], refusal))

    def prime(result):
        code, out, _ = result
        if code == 2:  # an explicit refusal of a prime modulus passes
            return
        doc = checks.parse_cli_json(code, out)
        checks.check_no_factors_for_prime(PRIME_MODULUS, doc["factors"])
    ops.append(_cli(["factor", "--n", str(PRIME_MODULUS), "--seed", "0"],
                    prime))
    return ops


BUILDERS = {
    "honest-factor": honest_ops,
    "exact-dist": exact_ops,
    "compiled-bigint": compiled_ops,
    "cli": cli_ops,
}


def build(workload: str, seed: int, root: Path) -> list[Op]:
    return BUILDERS[workload](seed, root)
