"""Circuit construction, validation, output formats, qubit budgets."""

import dataclasses
import json
import math
import random
import re
import time
import tracemalloc

import pytest

from shorsim import compiler
from shorsim.compiler import (
    MAX_WORK_SPAN,
    Circuit,
    CompiledBase,
    build_compiled_circuit,
    build_semiclassical_stages,
    default_s,
    find_period2_base,
    find_period2_bases,
    work_orbit,
    zalka_qubit_count,
)
from shorsim.errors import (
    CompilationRequiresFactorsError,
    DomainError,
    NotCompilableError,
    RefusedTooLargeError,
)
from shorsim.fixtures import load_fixture
from shorsim.numtheory import (
    Semiprime,
    is_probable_prime,
    multiplicative_order,
)
from shorsim.postprocess import run_full_algorithm

from instruments import random_probable_prime


class TestQubitBudget:
    def test_known_moduli(self):
        assert zalka_qubit_count(15).zalka_qubits == 8
        assert zalka_qubit_count(21).zalka_qubits == 10

    def test_bit_scaling(self):
        assert zalka_qubit_count((1 << 767) | 1).zalka_qubits == 1154
        assert zalka_qubit_count((1 << 19999) | 1).zalka_qubits == 30002

    def test_compiled_side_is_constant(self):
        for n in (15, 21, (1 << 767) | 1):
            assert zalka_qubit_count(n).compiled_qubits == 2

    def test_formula(self):
        for bits in range(2, 200):
            n = (1 << (bits - 1)) | 1
            budget = zalka_qubit_count(n)
            assert budget.n_bits == bits
            assert budget.zalka_qubits == 2 + (3 * bits + 1) // 2


class TestDefaultS:
    def test_known_values(self):
        assert default_s(15) == 8
        assert default_s(21) == 9

    def test_resolution_bound(self):
        for n in range(2, 2000, 17):
            s = default_s(n)
            assert (1 << s) >= n * n
            assert s == 1 or (1 << (s - 1)) < n * n


class TestWorkOrbit:
    def test_single_generator(self):
        # orbits 1, 7, 4, 13 and 1, 4 mod 15, and 1, 4, 16 mod 21
        assert work_orbit(15, 7) == 4
        assert work_orbit(15, 4) == 2
        assert work_orbit(21, 4) == 3

    def test_non_unit_rejected(self):
        # 3 never returns to 1 mod 15; the walk must not run to the cap
        with pytest.raises(DomainError):
            work_orbit(15, 3)

    @pytest.mark.parametrize("modulus, multiplier, message", [
        (10 ** 5000, 2, "2 is not a unit mod 1" + "0" * 5000),
        (15, -3, "-3 is not a unit mod 15"),
    ], ids=["past-the-conversion-limit", "negative"])
    def test_non_unit_is_named_at_any_size(self, modulus, multiplier,
                                           message):
        # past the interpreter's 4300-digit int/str conversion limit
        with pytest.raises(DomainError) as refused:
            work_orbit(modulus, multiplier)
        assert str(refused.value) == message

    def test_span_guard(self):
        # 3 has order 2**23 mod 2**25 (it generates the odd part of the
        # unit group mod a power of two), well past the span cap
        with pytest.raises(RefusedTooLargeError):
            work_orbit(1 << 25, 3)
        assert MAX_WORK_SPAN == 1 << 20

    def test_span_boundary(self):
        # the order of 3 mod 2**k is 2**(k-2): an orbit of exactly
        # MAX_WORK_SPAN values is accepted, and a longer one refused
        assert work_orbit(1 << 22, 3) == MAX_WORK_SPAN
        with pytest.raises(RefusedTooLargeError):
            work_orbit(1 << 23, 3)

    def test_prime_modulus_boundary(self):
        # 3 generates the units mod the primes 7 * 2**20 + 1,
        # 8 * (2**20 + 1) + 1 and 5 * 2**25 + 1, so 3**7, 3**8 and 3**80
        # have orders 2**20, 2**20 + 1 and 2**21
        assert work_orbit(7340033, pow(3, 7, 7340033)) == MAX_WORK_SPAN
        for modulus, exponent in ((8388617, 8), (167772161, 80)):
            with pytest.raises(RefusedTooLargeError):
                work_orbit(modulus, pow(3, exponent, modulus))

    def test_refusal_is_quick(self):
        # a linear walk took about 0.35 s to pass the cap
        start = time.perf_counter()
        with pytest.raises(RefusedTooLargeError):
            work_orbit((1 << 61) - 1, 3)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "modulus", (15, 337, 1009, 3127, 32399, 65519, 1048573))
    def test_matches_the_linear_scan(self, modulus):
        rng = random.Random(modulus)
        # the reference scan costs O(r) per unit: fewer draws mod 2**20-3
        draws = 24 if modulus < 1 << 17 else 4
        candidates = [*range(1, 13)]
        candidates += [rng.randrange(1, modulus) for _ in range(draws)]
        units = [a for a in candidates if math.gcd(a, modulus) == 1]
        for a in units:
            assert work_orbit(modulus, a) == multiplicative_order(a, modulus)

    def test_every_unit_below_400(self):
        # every order the small moduli have, each window edge below 400
        for modulus in range(2, 400):
            for a in range(1, modulus):
                if math.gcd(a, modulus) == 1:
                    assert work_orbit(modulus, a) == \
                        multiplicative_order(a, modulus)

    # The baby steps cover r < 16. The table holds 16 powers for the
    # windows ending at 16, 32, ..., 256, then doubles after the windows
    # ending at 256, 1280, 5376, 21760, 87296 and 349440; 288 ends the
    # first window of 32.
    @pytest.mark.parametrize("order", (
        15, 16, 17, 255, 256, 257, 288, 289, 1279, 1280, 1281, 5375, 5376,
        5377, 21759, 21760, 21761, 87295, 87296, 87297, 349439, 349440,
        349441))
    def test_orders_around_the_baby_steps(self, order):
        assert work_orbit(*_unit_of_order(order)) == order

    @pytest.mark.parametrize("modulus, lam, order, steps", (
        (32399, 16020, 180, 27),
        (3127, 1508, 1508, 115),
        (6557, 3198, 3198, 141),
        (32399, 16020, 16020, 323),
    ))
    def test_steps_follow_the_square_root_of_the_order(
            self, modulus, lam, order, steps):
        # the honest benchmark's moduli: lam is the exponent of the
        # unit group, so x**(lam/order) has an order dividing `order`
        unit = next(y for y in (pow(x, lam // order, modulus)
                                for x in range(2, modulus))
                    if multiplicative_order(y, modulus) == order)
        counted = _CountingModulus(modulus)
        assert work_orbit(counted, unit) == order
        assert counted.reductions == steps
        assert steps <= 16 + 3.5 * math.sqrt(order)

    def test_refusal_takes_fewer_steps_than_a_flat_table(self):
        # a flat table of 256 baby steps refused after 4352
        counted = _CountingModulus((1 << 61) - 1)
        with pytest.raises(RefusedTooLargeError):
            work_orbit(counted, 3)
        assert counted.reductions == 2714

    @pytest.mark.parametrize("modulus, multiplier, name", [
        (15.0, 7, "modulus"),
        (True, 1, "modulus"),
        (15, 7.0, "multiplier"),
        (15, True, "multiplier"),
        (15, "7", "multiplier"),
    ], ids=["float-modulus", "bool-modulus", "float-multiplier",
            "bool-multiplier", "str-multiplier"])
    def test_refuses_what_is_not_an_integer(self, modulus, multiplier,
                                             name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            work_orbit(modulus, multiplier)


class _CountingModulus(int):
    """A modulus that counts the reductions made by it: `w * a % m`
    calls m.__rmod__, since its type is a subclass of int's."""

    def __new__(cls, value):
        modulus = super().__new__(cls, value)
        modulus.reductions = 0
        return modulus

    def __rmod__(self, other):
        self.reductions += 1
        return other % int(self)


def _unit_of_order(order):
    """(p, y): the least prime p = 1 mod order, and a unit y of that
    exact order mod p, found by testing y**(order/q) for each prime q
    of order rather than by a scan."""
    p = order + 1
    while not is_probable_prime(p):
        p += order
    primes, rest = set(), order
    for q in range(2, math.isqrt(order) + 1):
        while rest % q == 0:
            primes.add(q)
            rest //= q
    if rest > 1:
        primes.add(rest)
    for x in range(2, p):
        y = pow(x, (p - 1) // order, p)
        if all(pow(y, order // q, p) != 1 for q in primes):
            assert multiplicative_order(y, p) == order
            return p, y


class TestCompiledBase:
    def test_crt_bases_for_fifteen(self):
        sp = Semiprime.from_factors(3, 5)
        b1, b2 = find_period2_bases(sp)
        assert (b1.a, b2.a) == (4, 11)
        assert b1.period == b2.period == 2
        assert b1.sign_choice is not None and b2.sign_choice is not None
        assert {b1.sign_choice, b2.sign_choice} == {("+", "-"), ("-", "+")}

    def test_smaller_base_is_canonical(self):
        assert find_period2_base(Semiprime.from_factors(3, 5)).a == 4
        assert find_period2_base(Semiprime.from_factors(3, 7)).a == 8

    def test_requires_factors(self):
        with pytest.raises(CompilationRequiresFactorsError):
            find_period2_bases(Semiprime(15))

    def test_wrong_period_claim_rejected(self):
        with pytest.raises(DomainError):
            CompiledBase(7, 15, 2)  # 7**2 = 4 mod 15

    def test_trivial_base_rejected(self):
        with pytest.raises(DomainError):
            CompiledBase(1, 15, 1)
        with pytest.raises(DomainError):
            CompiledBase(14, 15, 2)

    def test_random_pairs_have_period_two(self):
        rng = random.Random(31337)
        for _ in range(25):
            p = random_probable_prime(64, rng)
            q = random_probable_prime(64, rng)
            if p == q:
                continue
            base = find_period2_base(Semiprime.from_factors(p, q))
            n = p * q
            assert base.period == 2
            assert pow(base.a, 2, n) == 1
            assert base.a not in (1, n - 1)


def _two_inverse_period2_bases(sp):
    """find_period2_bases as it was written with one inverse per CRT
    idempotent, kept verbatim as the reference for the one-inverse
    construction."""
    if not sp.has_factors:
        raise CompilationRequiresFactorsError(
            "finding a period-2 base requires the factors of n; that is "
            "the compiled pipeline's input, not its output"
        )
    assert sp.p is not None and sp.q is not None
    # Semiprime validated both primes on construction; no second verdict.
    p, q, n = sp.p, sp.q, sp.n
    e_q = p * pow(p, -1, q) % n  # 0 mod p, 1 mod q
    e_p = q * pow(q, -1, p) % n  # 1 mod p, 0 mod q
    first = CompiledBase((e_q - e_p) % n, n, 2, ("+", "-"))
    second = CompiledBase((e_p - e_q) % n, n, 2, ("-", "+"))
    return (first, second) if first.a < second.a else (second, first)


def _drawn_factor_pairs():
    """Pairs of distinct odd primes of 2 to 512 bits each, so that
    their products run from 4 to 1024 bits, in both orders."""
    rng = random.Random(2828)
    pairs = [(3, 5), (3, 7), (5, 7), (7, 11), (11, 13)]
    while len(pairs) < 30:
        p = random_probable_prime(rng.randint(2, 512), rng)
        q = random_probable_prime(rng.randint(2, 512), rng)
        if p != q:
            pairs.append((p, q))
    return pairs + [(q, p) for p, q in pairs]


class TestOneIdempotent:
    @pytest.fixture
    def inverses(self, monkeypatch):
        # a module global named pow shadows the builtin inside compiler
        calls = []

        def counting_pow(base, exp, mod=None):
            if exp == -1:
                calls.append((base, mod))
            return pow(base, exp, mod)

        monkeypatch.setattr(compiler, "pow", counting_pow, raising=False)
        return calls

    def test_one_inverse_per_base(self, inverses):
        find_period2_base(Semiprime.from_factors(3, 5))
        assert inverses == [(3, 5)]

    def test_one_inverse_for_both_bases(self, inverses):
        find_period2_bases(Semiprime.from_factors(3, 5))
        assert inverses == [(3, 5)]

    def test_one_inverse_per_compiled_run(self, inverses):
        report = run_full_algorithm(Semiprime.from_factors(3, 5),
                                    mode="compiled", seed=0)
        assert report.factors == (3, 5)
        assert inverses == [(3, 5)]

    def test_bases_match_the_two_inverse_construction(self):
        rsa = load_fixture("rsa768")
        for p, q in _drawn_factor_pairs() + [(rsa.p, rsa.q), (rsa.q, rsa.p)]:
            sp = Semiprime.from_factors(p, q)
            # CompiledBase compares a, n, period and sign_choice
            assert find_period2_bases(sp) == \
                _two_inverse_period2_bases(sp), (p, q)

    def test_sign_choice_names_the_root(self):
        # ("+", "-") is 2e - 1 with e = p * inv(p mod q): -1 mod p and
        # +1 mod q; ("-", "+") is its negation
        for p, q in ((3, 5), (5, 3), (3, 7), (7, 3), (11, 13)):
            for base in find_period2_bases(Semiprime.from_factors(p, q)):
                residues = (base.a % p, base.a % q)
                assert residues == ({("+", "-"): (p - 1, 1),
                                     ("-", "+"): (1, q - 1)}
                                    [base.sign_choice])


class TestCompiledCircuit:
    def test_structure(self):
        circuit = build_compiled_circuit(
            find_period2_base(Semiprime.from_factors(3, 5))
        )
        assert circuit.num_readout_bits == 1
        assert circuit.work_register_span == 2
        kinds = [line.split()[0] for line in circuit.to_text().splitlines()]
        assert kinds == ["PREP+", "CMODMUL", "H", "MEAS"]
        assert (circuit.modulus, circuit.base) == (15, 4)
        assert circuit.multipliers == (4,)

    def test_longer_period_rejected(self):
        with pytest.raises(NotCompilableError):
            build_compiled_circuit(CompiledBase(7, 15, 4))

    def test_text_form(self):
        circuit = build_compiled_circuit(
            find_period2_base(Semiprime.from_factors(3, 7))
        )
        assert circuit.to_text() == "PREP+\nCMODMUL 8 21\nH\nMEAS 0\n"


class TestSemiclassicalCircuit:
    def test_stage_count_defaults_to_resolution(self):
        circuit = build_semiclassical_stages(7, 15)
        assert circuit.num_readout_bits == 8
        assert len(circuit.to_text().splitlines()) == 32

    def test_multiplier_schedule_is_descending_squares(self):
        s = 8
        circuit = build_semiclassical_stages(7, 15, s)
        expected = tuple(pow(7, 1 << (s - k), 15) for k in range(1, s + 1))
        assert circuit.multipliers == expected
        assert circuit.multipliers[-1] == 7  # last stage applies a itself

    def test_work_span_is_the_order(self):
        for a, n in ((7, 15), (11, 15), (4, 21), (2, 33)):
            circuit = build_semiclassical_stages(a, n, 4)
            assert circuit.work_register_span == multiplicative_order(a, n)

    def test_work_register_is_indexed_by_exponent(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        assert circuit.stage_shifts == (0, 0, 0, 0, 0, 0, 2, 1)

    def test_circuit_keeps_the_span_not_the_residues(self):
        # the order of 3 mod 2**18 is 2**16: keeping those 65536
        # residues would take about 3 MiB, keeping their count does not
        tracemalloc.start()
        try:
            circuit = Circuit(1 << 18, 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert circuit.work_register_span == 1 << 16
        assert peak < 64 * 1024

    def test_orbit_is_walked_once_per_circuit(self, monkeypatch):
        calls = []

        def counted(modulus, multiplier):
            calls.append(multiplier)
            return work_orbit(modulus, multiplier)

        monkeypatch.setattr(compiler, "work_orbit", counted)
        build_semiclassical_stages(2, 33, 6)
        assert calls == [2]

    def test_single_stage_equals_compiled(self):
        sp = Semiprime.from_factors(3, 5)
        _, high = find_period2_bases(sp)
        assert high.a == 11
        staged = build_semiclassical_stages(11, 15, 1)
        compiled = build_compiled_circuit(high)
        assert staged == compiled

    def test_shared_factor_rejected(self):
        with pytest.raises(DomainError):
            build_semiclassical_stages(3, 15, 4)

    def test_stage_gate_pattern(self):
        circuit = build_semiclassical_stages(2, 33, 5)
        lines = circuit.to_text().splitlines()
        for k, multiplier in enumerate(circuit.multipliers, start=1):
            prep, mul, mix, meas = lines[4 * (k - 1):4 * k]
            assert prep == "PREP+"
            assert mul == f"CMODMUL {multiplier} 33"
            assert mix == ("H" if k == 1 else f"VH {k}")
            assert meas == f"MEAS {k - 1}"


class TestCircuitValidation:
    def test_valid_gates_accepted(self):
        circuit = Circuit(15, 7, 2)
        assert circuit.multipliers == (4, 7)
        assert circuit.to_text() == (
            "PREP+\nCMODMUL 4 15\nH\nMEAS 0\n"
            "PREP+\nCMODMUL 7 15\nVH 2\nMEAS 1\n"
        )

    def test_non_unit_multiplier_rejected(self):
        with pytest.raises(DomainError, match="shares a factor"):
            Circuit(15, 6, 2)

    def test_out_of_range_fields_rejected(self):
        for modulus, base, s in ((1, 1, 2), (15, 0, 2), (15, 22, 2),
                                 (15, 7, 0)):
            with pytest.raises(DomainError):
                Circuit(modulus, base, s)

    @pytest.mark.parametrize("modulus,base,s,message", [
        (1, 0, 5000, "modulus must be at least 2"),
        (15, 22, 5000, "base must lie in [0, modulus)"),
        (15, 6, 5000, "6 shares a factor with 15; a free factor should "
                      "have been taken classically instead of building a "
                      "circuit"),
        (15, 0, 0, "0 shares a factor with 15; a free factor should have "
                   "been taken classically instead of building a circuit"),
        (15, 7, 0, "need at least one readout stage"),
    ], ids=["modulus", "base-range", "gcd", "base-zero", "no-stage"])
    def test_checks_run_in_order_before_the_stage_bound(
            self, modulus, base, s, message):
        # an invalid triple is bad input (exit 2) even when its stage
        # count alone would be refused as too large (exit 4)
        with pytest.raises(DomainError) as refused:
            Circuit(modulus, base, s)
        assert str(refused.value) == message

    def test_builder_leaves_the_checks_to_circuit(self, monkeypatch):
        seen = []
        monkeypatch.setattr(compiler, "Circuit",
                            lambda *triple: seen.append(triple))
        build_semiclassical_stages(21, 15, 0)
        build_semiclassical_stages(22, 15)
        assert seen == [(15, 6, 0), (15, 7, 8)]

    def test_too_many_stages_refused_before_the_orbit(self, monkeypatch):
        assert compiler.MAX_READOUT_STAGES == 4096
        walks = []
        monkeypatch.setattr(compiler, "work_orbit",
                            lambda *args: walks.append(args) or 168)
        assert Circuit(337, 2, 4096).num_readout_bits == 4096
        with pytest.raises(RefusedTooLargeError) as refused:
            Circuit(337, 2, 4097)
        assert str(refused.value) == (
            "s = 4097 readout stages exceeds the limit of 4096 stages")
        assert walks == [(337, 2)]

    @pytest.mark.parametrize("triple, name", [
        ((15.0, 7, 3), "modulus"),
        ((15, True, 3), "base"),
        ((15, 7.0, 3), "base"),
        ((15, 7, 2.0), "num_readout_bits"),
        ((15, 7, True), "num_readout_bits"),
        ((15, 7, "3"), "num_readout_bits"),
    ], ids=["float-modulus", "bool-base", "float-base", "float-stages",
            "bool-stages", "str-stages"])
    def test_fields_that_are_not_integers_are_refused(self, triple, name,
                                                      monkeypatch):
        walks = []
        monkeypatch.setattr(compiler, "work_orbit",
                            lambda *args: walks.append(args) or 4)
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            Circuit(*triple)
        assert walks == []

    @pytest.mark.parametrize("args, name", [
        ((7, 15, 2.0), "num_readout_bits"),
        ((True, 15), "a"),
        ((7.0, 15, 4), "a"),
        ((7, 15.0, 4), "n"),
        ((7, True, 4), "n"),
    ], ids=["float-stages", "bool-base", "float-base", "float-modulus",
            "bool-modulus"])
    def test_builder_refuses_what_is_not_an_integer(self, args, name):
        # the base is checked before its reduction mod n, which would
        # turn True into 1 and 7.0 into a float base
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            build_semiclassical_stages(*args)

    def test_stage_shifts_are_powers_of_two_mod_the_order(self):
        # the doubling from 1 gives the bytes of the pow() per stage,
        # r = 1 and r = 2 among them
        draw = random.Random(38)
        pairs = [(15, 1), (15, 14)]
        while len(pairs) < 300:
            modulus = draw.randrange(3, 20000)
            base = draw.randrange(1, modulus)
            if math.gcd(base, modulus) == 1:
                pairs.append((modulus, base))
        for modulus, base in pairs:
            for s in range(1, 65):
                circuit = Circuit(modulus, base, s)
                r = circuit.work_register_span
                assert circuit.stage_shifts == tuple(
                    pow(2, s - k, r) for k in range(1, s + 1))

    def test_text_and_json_write_the_same_gates(self):
        # the text and JSON forms write the same gates, one per line
        circuit = build_semiclassical_stages(2, 33, 3)
        lines = circuit.to_text().splitlines()
        entries = circuit.to_json_dict()["gates"]
        assert len(lines) == len(entries) == 12
        for line, entry in zip(lines, entries):
            kind, *args = line.split()
            names = _ENTRY_FIELDS.get(kind, ())
            assert set(entry) == {"gate", *names}
            assert entry["gate"] == kind
            assert [str(entry[name]) for name in names] == args


# The JSON fields of each gate kind that takes arguments
_ENTRY_FIELDS = {"CMODMUL": ("multiplier", "modulus"), "VH": ("stage",),
                 "MEAS": ("bit",)}
_PLAIN_DECIMAL = re.compile(r"0|[1-9][0-9]*")


class TestSerialization:
    def test_text_writes_four_lines_per_stage(self):
        # each stage's four lines are derived from (n, a, s) alone
        for n, a, s in ((15, 7, 8), (33, 2, 3), (15, 4, 1)):
            lines = Circuit(n, a, s).to_text().splitlines()
            assert len(lines) == 4 * s
            assert lines[1::4] == [f"CMODMUL {pow(a, 2 ** (s - k), n)} {n}"
                                   for k in range(1, s + 1)]

    def test_json_lists_every_gate_and_its_declared_fields(self):
        circuit = build_semiclassical_stages(7, 15, 4)
        payload = circuit.to_json_dict()
        assert payload["format"] == "shorsim-circuit"
        assert payload["version"] == 1
        assert payload["num_readout_bits"] == 4
        assert payload["work_register_span"] == 4
        gates = payload["gates"]
        assert len(gates) == 16
        multipliers = [g["multiplier"] for g in gates
                       if g["gate"] == "CMODMUL"]
        assert multipliers == [str(m) for m in circuit.multipliers]

    def test_json_big_integers_are_strings(self):
        p = (1 << 127) - 1
        q = (1 << 521) - 1
        circuit = build_compiled_circuit(
            find_period2_base(Semiprime.from_factors(p, q))
        )
        entry = circuit.to_json_dict()["gates"][1]
        assert isinstance(entry["multiplier"], str)
        assert isinstance(entry["modulus"], str)

    def test_every_circuit_finds_the_order_of_its_base(self):
        # the text form declares no span: every Circuit of (n, a) finds
        # the order of a again, whatever its stage count
        assert "4" not in build_semiclassical_stages(7, 15, 1).to_text()
        for s in (1, 2, 8):
            assert Circuit(15, 7, s).work_register_span == 4
        assert Circuit(33, 2, 3).work_register_span == 10

    def test_span_is_the_order_and_cannot_be_set(self):
        # the written span is the order of a; no caller can set another
        with pytest.raises(TypeError):
            Circuit(15, 7, 4, work_register_span=5)
        circuit = build_semiclassical_stages(7, 15, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.work_register_span = 5
        payload = circuit.to_json_dict()
        assert payload["work_register_span"] == multiplicative_order(7, 15)

    @pytest.mark.parametrize("field,value", [
        ("num_readout_bits", 7), ("version", 99), ("version", True),
        ("num_readout_bits", 3.0), ("work_register_span", 10.0)])
    def test_json_declares_each_field_as_a_plain_int(self, field, value):
        # each declared field is written as the plain int that agrees
        # with the gate list, never as a value that merely equals it
        circuit = build_semiclassical_stages(2, 33, 3)
        document = json.dumps(circuit.to_json_dict(), indent=2,
                              sort_keys=True)
        payload = json.loads(document)
        declared = {"version": 1,
                    "num_readout_bits": len(payload["gates"]) // 4,
                    "work_register_span": multiplicative_order(2, 33)}
        assert type(payload[field]) is int
        assert payload[field] == declared[field]
        written = {line.strip().rstrip(",") for line in document.splitlines()}
        assert f'"{field}": {declared[field]}' in written
        assert f'"{field}": {json.dumps(value)}' not in written

    def test_text_multipliers_square_down_to_the_base(self):
        # stage by stage, each multiplier is the square of the next one
        # mod n, and the last stage applies the base itself
        lines = build_semiclassical_stages(2, 33, 4).to_text().splitlines()
        multipliers = [int(line.split()[1]) for line in lines[1::4]]
        assert multipliers == [25, 16, 4, 2]
        assert all(m == following ** 2 % 33
                   for m, following in zip(multipliers, multipliers[1:]))

    def test_json_multipliers_square_down_to_the_base(self):
        gates = build_semiclassical_stages(2, 33, 4).to_json_dict()["gates"]
        multipliers = [int(g["multiplier"]) for g in gates
                       if g["gate"] == "CMODMUL"]
        assert multipliers == [25, 16, 4, 2]
        assert all(m == following ** 2 % 33
                   for m, following in zip(multipliers, multipliers[1:]))

    def test_text_multipliers_are_plain_decimal(self):
        # multipliers and moduli are written in plain decimal, also far
        # past 64 bits
        p = (1 << 127) - 1
        q = (1 << 521) - 1
        circuit = build_compiled_circuit(
            find_period2_base(Semiprime.from_factors(p, q))
        )
        line = circuit.to_text().splitlines()[1]
        assert line == f"CMODMUL {circuit.base} {p * q}"

    def test_only_plain_forms_are_written(self):
        # one spelling per value: numbers in the text have no sign and
        # no leading zero; in JSON, stage and bit numbers are ints (not
        # strings, floats or bools) and multiplier and modulus are
        # plain decimal strings
        circuit = build_semiclassical_stages(7, 15, 12)
        for line in circuit.to_text().splitlines():
            for token in line.split()[1:]:
                assert _PLAIN_DECIMAL.fullmatch(token)
        for entry in circuit.to_json_dict()["gates"]:
            for name in _ENTRY_FIELDS.get(entry["gate"], ()):
                value = entry[name]
                if entry["gate"] == "CMODMUL":
                    assert _PLAIN_DECIMAL.fullmatch(value)
                else:
                    assert type(value) is int


@pytest.mark.parametrize("build, message", [
    (lambda: CompiledBase(a=4, n=15, period=0), "period must be positive"),
    (lambda: default_s(1), "modulus must be at least 2"),
    (lambda: zalka_qubit_count(1), "modulus must be at least 2"),
    # refused before a % n could divide by zero
    (lambda: build_semiclassical_stages(3, 0), "modulus must be at least 2"),
    # refused before pow or int.bit_length could raise a bare TypeError
    # or AttributeError
    (lambda: CompiledBase(4.0, 15, 2), "^a must be an integer"),
    (lambda: CompiledBase(4, 15.0, 2), "^n must be an integer"),
    (lambda: CompiledBase(4, 15, 2.0), "^period must be an integer"),
    (lambda: CompiledBase(4, 15, True), "^period must be an integer"),
    (lambda: default_s(15.0), "^n must be an integer"),
    (lambda: zalka_qubit_count(15.0), "^n must be an integer"),
    (lambda: zalka_qubit_count(True), "^n must be an integer"),
], ids=["compiled-base-period-0", "default-s-of-1", "qubit-budget-of-1",
        "stages-mod-0", "compiled-base-float-base",
        "compiled-base-float-modulus", "compiled-base-float-period",
        "compiled-base-bool-period", "default-s-float", "qubit-budget-float",
        "qubit-budget-bool"])
def test_input_checks_refuse(build, message):
    with pytest.raises(DomainError, match=message):
        build()
