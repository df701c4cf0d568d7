"""Circuit construction, validation, serialization, qubit budgets."""

import json
import random

import pytest

from shorsim import compiler
from shorsim.compiler import (
    MAX_WORK_SPAN,
    Circuit,
    CompiledBase,
    ControlledModMul,
    Hadamard,
    MeasureQubit,
    PhaseThenHadamard,
    PreparePlus,
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
        assert work_orbit(15, 7) == [1, 7, 4, 13]
        assert work_orbit(15, 4) == [1, 4]
        assert work_orbit(21, 4) == [1, 4, 16]

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
        assert len(work_orbit(1 << 22, 3)) == MAX_WORK_SPAN
        with pytest.raises(RefusedTooLargeError):
            work_orbit(1 << 23, 3)


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
        kinds = [type(g) for g in circuit.gates]
        assert kinds == [PreparePlus, ControlledModMul, Hadamard, MeasureQubit]
        assert circuit.multipliers == (4,)
        assert circuit.orbit_values() == (1, 4)

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
        assert len(circuit.gates) == 32

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
        assert circuit.orbit_values() == (1, 7, 4, 13)
        assert circuit.stage_shifts == (0, 0, 0, 0, 0, 0, 2, 1)

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
        for k in range(1, 6):
            prep, mul, mix, meas = circuit.gates[4 * (k - 1):4 * k]
            assert isinstance(prep, PreparePlus)
            assert isinstance(mul, ControlledModMul)
            if k == 1:
                assert isinstance(mix, Hadamard)
            else:
                assert isinstance(mix, PhaseThenHadamard)
                assert mix.stage == k
            assert isinstance(meas, MeasureQubit)
            assert meas.bit == k - 1


class TestCircuitValidation:
    def _gates(self, s=2, a=7, n=15):
        gates = []
        for k in range(1, s + 1):
            gates.append(PreparePlus())
            gates.append(ControlledModMul(mod_pow(a, 1 << (s - k), n), n))
            gates.append(Hadamard() if k == 1 else PhaseThenHadamard(k))
            gates.append(MeasureQubit(k - 1))
        return gates

    def test_valid_gates_accepted(self):
        gates = self._gates()
        Circuit(tuple(gates), 2)

    def test_feedback_gate_at_stage_one_rejected(self):
        gates = self._gates()
        gates[2] = PhaseThenHadamard(1)
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 2)

    def test_plain_hadamard_at_later_stage_rejected(self):
        gates = self._gates()
        gates[6] = Hadamard()
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 2)

    def test_misnumbered_feedback_stage_rejected(self):
        gates = self._gates(s=3)
        gates[10] = PhaseThenHadamard(2)  # stage 3 slot
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 3)

    def test_measurement_bit_order_enforced(self):
        gates = self._gates()
        gates[3], gates[7] = gates[7], gates[3]
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 2)

    def test_mixed_moduli_rejected(self):
        gates = self._gates()
        gates[5] = ControlledModMul(2, 21)
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 2)

    def test_non_unit_multiplier_rejected(self):
        gates = self._gates()
        gates[1] = ControlledModMul(6, 15)
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 2)

    def test_wrong_gate_count_rejected(self):
        gates = self._gates()[:-1]
        with pytest.raises(CircuitFormatError):
            Circuit(tuple(gates), 2)


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

    def test_json_wrong_format_tag_rejected(self):
        with pytest.raises(CircuitFormatError):
            Circuit.from_json('{"format": "something-else", "gates": []}')

    def test_json_not_an_object_rejected(self):
        with pytest.raises(CircuitFormatError):
            Circuit.from_json("[1, 2, 3]")

    def test_text_span_is_recomputed(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        parsed = Circuit.from_text(circuit.to_text())
        assert parsed.work_register_span == 4
