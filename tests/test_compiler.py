"""Circuit construction, validation, serialization, qubit budgets."""

import json
import math
import random
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
    CircuitFormatError,
    CompilationRequiresFactorsError,
    DomainError,
    NotCompilableError,
    RefusedTooLargeError,
)
from shorsim.numtheory import (
    Semiprime,
    mod_pow,
    multiplicative_order,
    random_probable_prime,
)


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

    @pytest.mark.parametrize("modulus, lam, orders", (
        (1048573, 1048572, (252, 266)),
        (32399, 16020, (178, 267)),
        # primes p = 1 mod the order wanted
        (1021, 1020, (255,)),
        (257, 256, (256,)),
        (1543, 1542, (257,)),
        (3067, 3066, (511,)),
        (7681, 7680, (512,)),
        (2053, 2052, (513,)),
    ))
    def test_orders_around_the_baby_steps(self, modulus, lam, orders):
        # lam is the exponent of the unit group, so x**(lam/d) has an
        # order dividing d; the first of order exactly d is kept
        for d in orders:
            unit = next(y for y in (pow(x, lam // d, modulus)
                                    for x in range(2, modulus))
                        if multiplicative_order(y, modulus) == d)
            assert work_orbit(modulus, unit) == d


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
            assert mod_pow(base.a, 2, n) == 1
            assert base.a not in (1, n - 1)


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
        expected = tuple(mod_pow(7, 1 << (s - k), 15) for k in range(1, s + 1))
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


# Every line of this circuit, and every JSON entry, is mutated below
CANONICAL = build_semiclassical_stages(2, 33, 3)


def _variants(i):
    """Each gate kind as it could appear at line i of CANONICAL."""
    k = i // 4 + 1
    return {
        "PREP+": "PREP+",
        "CMODMUL": f"CMODMUL {CANONICAL.multipliers[k - 1]} 33",
        "H": "H",
        "VH": f"VH {k}",
        "MEAS": f"MEAS {k - 1}",
    }


def _as_entry(line):
    kind, *args = line.split()
    if kind == "CMODMUL":
        return {"gate": kind, "multiplier": args[0], "modulus": args[1]}
    fields = {"VH": "stage", "MEAS": "bit"}
    return {"gate": kind, **{fields[kind]: int(a) for a in args}}


def _refused(parse, document):
    try:
        parse(document)
    except CircuitFormatError:
        return True
    return False


def _mutations(items, i, variants):
    """Line i deleted, duplicated, swapped with its neighbour, and
    replaced by each other gate kind."""
    yield "delete", items[:i] + items[i + 1:]
    yield "duplicate", items[:i + 1] + items[i:]
    if i + 1 < len(items):
        swapped = list(items)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        yield "swap", swapped
    for kind, other in variants.items():
        if other != items[i]:
            yield f"replace with {kind}", items[:i] + [other] + items[i + 1:]


class TestCircuitValidation:
    LINES = CANONICAL.to_text().splitlines()

    def test_valid_gates_accepted(self):
        circuit = Circuit(15, 7, 2)
        assert circuit.multipliers == (4, 7)
        assert circuit.to_text() == (
            "PREP+\nCMODMUL 4 15\nH\nMEAS 0\n"
            "PREP+\nCMODMUL 7 15\nVH 2\nMEAS 1\n"
        )

    def test_non_unit_multiplier_rejected(self):
        with pytest.raises(CircuitFormatError, match="shares a factor"):
            Circuit(15, 6, 2)
        with pytest.raises(CircuitFormatError, match="shares a factor"):
            Circuit.from_text("PREP+\nCMODMUL 6 15\nH\nMEAS 0\n")

    def test_out_of_range_fields_rejected(self):
        for modulus, base, s in ((1, 1, 2), (15, 0, 2), (15, 22, 2),
                                 (15, 7, 0)):
            with pytest.raises(CircuitFormatError):
                Circuit(modulus, base, s)

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

    def test_misnumbered_feedback_stage_rejected(self):
        lines = build_semiclassical_stages(7, 15, 3).to_text().splitlines()
        lines[10] = "VH 2"  # stage 3 slot
        with pytest.raises(CircuitFormatError, match="line 11"):
            Circuit.from_text("\n".join(lines))

    def test_measurement_bit_order_enforced(self):
        lines = build_semiclassical_stages(7, 15, 2).to_text().splitlines()
        lines[3], lines[7] = lines[7], lines[3]
        with pytest.raises(CircuitFormatError, match="line 4"):
            Circuit.from_text("\n".join(lines))

    def test_mixed_moduli_rejected(self):
        lines = build_semiclassical_stages(7, 15, 2).to_text().splitlines()
        lines[1] = "CMODMUL 4 21"
        with pytest.raises(CircuitFormatError, match="line 2"):
            Circuit.from_text("\n".join(lines))

    @pytest.mark.parametrize("i", range(len(LINES)))
    def test_text_accepts_only_the_canonical_layout(self, i):
        accepted = [
            name for name, lines in _mutations(self.LINES, i, _variants(i))
            if not _refused(Circuit.from_text, "\n".join(lines) + "\n")
        ]
        assert accepted == []

    @pytest.mark.parametrize("i", range(len(LINES)))
    def test_json_accepts_only_the_canonical_layout(self, i):
        payload = CANONICAL.to_json_dict()
        del payload["work_register_span"]  # the layout alone must refuse
        variants = {kind: _as_entry(line)
                    for kind, line in _variants(i).items()}
        accepted = [
            name for name, gates in _mutations(payload["gates"], i, variants)
            if not _refused(Circuit.from_json,
                            json.dumps(dict(payload, gates=gates)))
        ]
        assert accepted == []

    def test_unmutated_layouts_are_accepted(self):
        payload = CANONICAL.to_json_dict()
        del payload["work_register_span"]
        assert Circuit.from_text("\n".join(self.LINES) + "\n") == CANONICAL
        assert Circuit.from_json(json.dumps(payload)) == CANONICAL


class TestSerialization:
    def test_text_round_trip(self):
        for circuit in (
            build_semiclassical_stages(7, 15, 8),
            build_semiclassical_stages(2, 33, 3),
            build_compiled_circuit(find_period2_base(Semiprime.from_factors(3, 5))),
        ):
            assert Circuit.from_text(circuit.to_text()) == circuit

    def test_text_ignores_blank_lines(self):
        circuit = build_compiled_circuit(
            find_period2_base(Semiprime.from_factors(3, 5))
        )
        text = "\n" + circuit.to_text().replace("\n", "\n\n")
        assert Circuit.from_text(text) == circuit

    def test_text_parse_error_carries_line_number(self):
        with pytest.raises(CircuitFormatError, match="line 2"):
            Circuit.from_text("PREP+\nBOGUS 1\n")

    def test_text_rejects_wrong_arity(self):
        with pytest.raises(CircuitFormatError):
            Circuit.from_text("PREP+\nCMODMUL 4\nH\nMEAS 0\n")

    def test_text_rejects_hex_multiplier(self):
        with pytest.raises(CircuitFormatError):
            Circuit.from_text("PREP+\nCMODMUL 0x4 15\nH\nMEAS 0\n")

    def test_json_round_trip(self):
        circuit = build_semiclassical_stages(7, 15, 4)
        assert Circuit.from_json(circuit.to_json()) == circuit
        payload = circuit.to_json_dict()
        assert payload["format"] == "shorsim-circuit"
        assert payload["work_register_span"] == 4

    def test_json_big_integers_are_strings(self):
        p = (1 << 127) - 1
        q = (1 << 521) - 1
        circuit = build_compiled_circuit(
            find_period2_base(Semiprime.from_factors(p, q))
        )
        entry = circuit.to_json_dict()["gates"][1]
        assert isinstance(entry["multiplier"], str)
        assert isinstance(entry["modulus"], str)

    def test_json_span_mismatch_rejected(self):
        circuit = build_semiclassical_stages(7, 15, 4)
        payload = circuit.to_json_dict()
        payload["work_register_span"] += 1
        with pytest.raises(CircuitFormatError):
            Circuit.from_json_dict(payload)

    @pytest.mark.parametrize("field,value", [
        ("num_readout_bits", 7), ("version", 99), ("version", True),
        ("num_readout_bits", 3.0), ("work_register_span", 10.0)])
    def test_json_declared_field_mismatch_rejected(self, field, value):
        payload = build_semiclassical_stages(2, 33, 3).to_json_dict()
        payload[field] = value
        with pytest.raises(CircuitFormatError, match=f"{field} {value}"):
            Circuit.from_json_dict(payload)

    def test_text_rejects_non_canonical_multipliers(self):
        lines = build_semiclassical_stages(2, 33, 4).to_text().splitlines()
        lines[1], lines[5] = lines[5], lines[1]  # swap stages 1 and 2
        with pytest.raises(CircuitFormatError, match="square"):
            Circuit.from_text("\n".join(lines) + "\n")

    def test_json_rejects_non_canonical_multipliers(self):
        payload = build_semiclassical_stages(2, 33, 4).to_json_dict()
        gates = payload["gates"]
        gates[1], gates[5] = gates[5], gates[1]  # swap stages 1 and 2
        with pytest.raises(CircuitFormatError, match="square"):
            Circuit.from_json(json.dumps(payload))

    @pytest.mark.parametrize("document", [
        '{"format": "shorsim-circuit", "gates": 5}',
        '{"format": "shorsim-circuit", "gates": '
        '[{"gate": "VH", "stage": "x"}]}',
        '{"format": "shorsim-circuit", "gates": [{"gate": "CMODMUL", '
        '"multiplier": 4, "modulus": "15"}]}',
        '{"format": "shorsim-circuit", "span": ' + "1" * 5000 + "}",
        "[" * 100000,
    ], ids=["gates-not-a-list", "stage-not-a-number", "multiplier-a-number",
            "oversized-number", "deep-nesting"])
    def test_json_malformed_document_rejected(self, document):
        with pytest.raises(CircuitFormatError):
            Circuit.from_json(document)

    def test_only_plain_forms_are_read(self):
        # int() and parse_decimal would read each of these; the format
        # has one spelling per value
        text = build_semiclassical_stages(7, 15, 2).to_text()
        for old, new in (("VH 2", "VH +2"), ("MEAS 1", "MEAS 01"),
                         ("CMODMUL 7 15", "CMODMUL 07 15")):
            with pytest.raises(CircuitFormatError):
                Circuit.from_text(text.replace(old, new))
        payload = build_semiclassical_stages(7, 15, 2).to_json_dict()
        for value in ("2", 2.0, True):
            payload["gates"][6]["stage"] = value
            with pytest.raises(CircuitFormatError, match="gates\\[6\\]"):
                Circuit.from_json_dict(payload)

    def test_json_wrong_format_tag_rejected(self):
        with pytest.raises(CircuitFormatError):
            Circuit.from_json('{"format": "something-else", "gates": []}')

    def test_json_not_an_object_rejected(self):
        with pytest.raises(CircuitFormatError):
            Circuit.from_json("[1, 2, 3]")

    @pytest.mark.parametrize("data", [[], None, "x"],
                             ids=["list", "none", "string"])
    def test_json_dict_rejects_a_non_object(self, data):
        with pytest.raises(CircuitFormatError, match="not a circuit"):
            Circuit.from_json_dict(data)

    def test_text_span_is_recomputed(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        parsed = Circuit.from_text(circuit.to_text())
        assert parsed.work_register_span == 4
