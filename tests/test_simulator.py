"""Simulator: exact distributions vs the Fourier oracle, sampling
consistency, and the resource guards.

The oracle route never touches the circuit IR or the branch kernel; it
rebuilds the distribution from the order of a and a dense FFT over the
exponent register. The kernel reads the stage shifts and feedback
phases of the IR and enumerates in the Fourier basis of the period.
Keeping the two routes separate is the point: agreement is evidence, a
shared code path would be none.
"""

import math

import numpy as np
import pytest

from shorsim.compiler import (
    build_compiled_circuit,
    build_semiclassical_stages,
    find_period2_base,
    find_period2_bases,
)
from shorsim.errors import DomainError, RefusedTooLargeError, SimulationError
from shorsim.numtheory import Semiprime, multiplicative_order
from shorsim.simulator import (
    MAX_DIST_READOUT_BITS,
    OutcomeDistribution,
    bloch_vector,
    control_reduced_density,
    dft_oracle_distribution,
    output_distribution,
    run_circuit,
    total_variation,
)


def compiled_circuit(p, q, which=0):
    bases = find_period2_bases(Semiprime.from_factors(p, q))
    return build_compiled_circuit(bases[which])


def exponent_basis_density(circuit):
    """Loop reference for control_reduced_density: every readout prefix
    carried as a complex vector over the exponent basis, each stage's
    controlled multiply an np.roll of its columns."""
    start = np.zeros(circuit.work_register_span, dtype=np.complex128)
    start[0] = 1.0
    branches = [start]
    rho = np.zeros((2, 2), dtype=np.complex128)
    for k, shift in enumerate(circuit.stage_shifts, start=1):
        pairs = []
        for b, psi in enumerate(branches):
            moved = np.exp(-2j * np.pi * b / 2 ** k) * np.roll(psi, shift)
            pairs.append(((psi + moved) / 2, (psi - moved) / 2))
        branches = [zero for zero, _ in pairs] + [one for _, one in pairs]
    for zero, one in pairs:
        rho += [[np.vdot(zero, zero), np.vdot(one, zero)],
                [np.vdot(zero, one), np.vdot(one, one)]]
    return rho


class TestOutcomeDistribution:
    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            OutcomeDistribution(np.array([1.1, -0.1]))

    def test_rejects_unnormalized(self):
        with pytest.raises(SimulationError):
            OutcomeDistribution(np.array([0.4, 0.4]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            OutcomeDistribution(np.array([]))

    def test_accessors(self):
        dist = OutcomeDistribution(np.array([0.25, 0.0, 0.75, 0.0]))
        assert len(dist) == 4
        assert dist.num_outcomes == 4
        assert dist[2] == 0.75
        assert dist.support() == [0, 2]
        assert dist.as_dict() == {0: 0.25, 2: 0.75}
        assert set(dist.as_dict(nonzero_only=False)) == {0, 1, 2, 3}
        assert "2\t0.75" in dist.to_plot_text()

    def test_total_variation_requires_same_size(self):
        d1 = OutcomeDistribution(np.array([0.5, 0.5]))
        d2 = OutcomeDistribution(np.array([0.25] * 4))
        with pytest.raises(DomainError):
            total_variation(d1, d2)


class TestCompiledDistribution:
    @pytest.mark.parametrize("p,q,which", [
        (3, 5, 0), (3, 5, 1), (3, 7, 0), (3, 7, 1),
    ])
    def test_unbiased_single_bit(self, p, q, which):
        dist = output_distribution(compiled_circuit(p, q, which))
        assert dist.num_outcomes == 2
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[1] - 0.5) < 1e-12

    def test_control_qubit_is_maximally_mixed(self):
        for p, q in ((3, 5), (3, 7)):
            rho = control_reduced_density(compiled_circuit(p, q))
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
            assert float(np.linalg.norm(bloch_vector(rho))) < 1e-12

    def test_huge_modulus_still_two_outcomes_by_sampling(self):
        # the work span stays 2 regardless of modulus size, so a shot
        # is cheap however many digits the modulus has
        p = (1 << 127) - 1
        q = (1 << 521) - 1
        circuit = compiled_circuit(p, q)
        ys = {run_circuit(circuit, seed)[0] for seed in range(8)}
        assert ys <= {0, 1}
        assert len(ys) == 2


class TestStagedDistribution:
    def test_period_four_comb(self):
        dist = output_distribution(build_semiclassical_stages(7, 15, 8))
        expected = {0: 0.25, 64: 0.25, 128: 0.25, 192: 0.25}
        assert dist.support() == sorted(expected)
        for y, prob in expected.items():
            assert abs(dist[y] - prob) < 1e-12

    def test_period_two_comb(self):
        dist = output_distribution(build_semiclassical_stages(11, 15, 8))
        assert dist.support() == [0, 128]
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[128] - 0.5) < 1e-12

    def test_trivial_base_concentrates_at_zero(self):
        dist = output_distribution(build_semiclassical_stages(1, 15, 6))
        assert dist.support() == [0]
        assert abs(dist[0] - 1.0) < 1e-12

    def test_matches_oracle_when_period_divides_range(self):
        dist = output_distribution(build_semiclassical_stages(7, 15, 8))
        oracle = dft_oracle_distribution(7, 15, 8)
        assert total_variation(dist, oracle) < 1e-9

    def test_matches_oracle_when_period_does_not_divide_range(self):
        # order of 2 mod 33 is 10, which does not divide 2**s
        assert multiplicative_order(2, 33) == 10
        for s in (4, 7, 10):
            dist = output_distribution(build_semiclassical_stages(2, 33, s))
            oracle = dft_oracle_distribution(2, 33, s)
            assert total_variation(dist, oracle) < 1e-9

    def test_matches_oracle_across_small_moduli(self):
        for a, n in ((2, 21), (5, 21), (8, 35), (3, 35), (10, 33)):
            for s in (1, 3, 6):
                dist = output_distribution(build_semiclassical_stages(a, n, s))
                oracle = dft_oracle_distribution(a, n, s)
                assert total_variation(dist, oracle) < 1e-9

    def test_matches_oracle_across_column_chunks(self):
        # r = 32759 > 2**8: 2**8 * r cells, enumerated over many chunks
        # of Fourier columns
        circuit = build_semiclassical_stages(2, 65519, 8)
        assert circuit.work_register_span == 32759
        dist = output_distribution(circuit)
        oracle = dft_oracle_distribution(2, 65519, 8)
        assert total_variation(dist, oracle) < 1e-9

    @pytest.mark.parametrize("a,n,s", [(7, 15, 8), (11, 15, 6), (4, 15, 4)])
    def test_divisible_case_support_is_exactly_the_comb(self, a, n, s):
        # off the comb every probability is an exact zero, not a residue
        step = (1 << s) // multiplicative_order(a, n)
        dist = output_distribution(build_semiclassical_stages(a, n, s))
        assert dist.support() == list(range(0, 1 << s, step))

    @pytest.mark.parametrize("a,n,s", [(2, 33, 3), (2, 33, 9)])
    def test_density_matches_last_bit_marginal(self, a, n, s):
        # r = 10 above 2**3 and below 2**9; rho[1,1] is the chance that
        # the last readout bit, bit s-1, is 1
        circuit = build_semiclassical_stages(a, n, s)
        rho = control_reduced_density(circuit)
        probs = output_distribution(circuit).as_array()
        last_bit_set = float(probs[1 << (s - 1):].sum())
        assert abs(rho[1, 1].real - last_bit_set) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("a,n,s", [(2, 7, 3), (2, 31, 4), (2, 337, 6)])
    def test_density_matches_exponent_basis_loop(self, a, n, s):
        # odd periods 3, 5, 21 keep the control coherent; this pins the
        # sign of rho[0,1], which no probability can see
        circuit = build_semiclassical_stages(a, n, s)
        rho = control_reduced_density(circuit)
        reference = exponent_basis_density(circuit)
        assert abs(reference[0, 1].imag) > 1e-3
        np.testing.assert_allclose(rho, reference, rtol=0, atol=1e-12)

    def test_distribution_sums_to_one(self):
        dist = output_distribution(build_semiclassical_stages(2, 33, 9))
        assert abs(float(dist.as_array().sum()) - 1.0) < 1e-12


class TestRunCircuit:
    def test_deterministic_per_seed(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        y1, t1 = run_circuit(circuit, 1234)
        y2, t2 = run_circuit(circuit, 1234)
        assert y1 == y2
        assert t1.bits == t2.bits
        assert [r.p_one for r in t1.stages] == [r.p_one for r in t2.stages]

    def test_seeds_reach_multiple_outcomes(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        ys = {run_circuit(circuit, seed)[0] for seed in range(40)}
        assert len(ys) > 1
        assert ys <= {0, 64, 128, 192}

    def test_trace_shape(self):
        circuit = build_semiclassical_stages(7, 15, 5)
        y, trace = run_circuit(circuit, 7)
        assert trace.y == y
        assert len(trace.bits) == 5
        assert len(trace.stages) == 5
        assert trace.work_register_span == 4
        assert y == sum(b << i for i, b in enumerate(trace.bits))

    def test_first_stage_has_no_feedback(self):
        circuit = build_semiclassical_stages(7, 15, 4)
        _, trace = run_circuit(circuit, 3)
        assert trace.stages[0].phase == 0.0

    def test_sampling_tracks_exact_distribution(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        dist = output_distribution(circuit)
        shots = 2000
        counts = {}
        for seed in range(shots):
            y, _ = run_circuit(circuit, seed)
            counts[y] = counts.get(y, 0) + 1
        for y in dist.support():
            p = dist[y]
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(counts.get(y, 0) / shots - p) < 4 * sigma


class TestGuards:
    def test_too_many_readout_bits(self):
        circuit = build_semiclassical_stages(
            7, 15, MAX_DIST_READOUT_BITS + 1
        )
        with pytest.raises(RefusedTooLargeError):
            output_distribution(circuit)

    def test_oversized_modulus(self):
        # cost is 2**s * r cells whatever the size of n: a modulus above
        # 2**16 with a period of 2 is enumerated, not refused
        n = 65539  # odd, and n-1 always has order 2
        circuit = build_semiclassical_stages(n - 1, n, 2)
        assert circuit.work_register_span == 2
        dist = output_distribution(circuit)
        oracle = dft_oracle_distribution(n - 1, n, 2)
        assert total_variation(dist, oracle) < 1e-9

    def test_oracle_refuses_readout_bits_past_the_cap(self):
        with pytest.raises(RefusedTooLargeError):
            dft_oracle_distribution(7, 15, MAX_DIST_READOUT_BITS + 1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_oracle_refuses_modulus_below_two(self, n):
        with pytest.raises(DomainError, match="modulus must be at least 2"):
            dft_oracle_distribution(3, n, 2)

    def test_sampling_is_not_guarded_by_modulus(self):
        n = 65539
        circuit = build_semiclassical_stages(n - 1, n, 2)
        y, _ = run_circuit(circuit, 0)
        assert 0 <= y < 4


class TestOracleAgainstClosedForm:
    def test_divisible_case_is_a_uniform_comb(self):
        # when r divides 2**s the distribution is exactly uniform on
        # multiples of 2**s / r
        for a, n, s in ((7, 15, 8), (11, 15, 6), (4, 15, 4)):
            r = multiplicative_order(a, n)
            big_s = 1 << s
            assert big_s % r == 0
            oracle = dft_oracle_distribution(a, n, s)
            step = big_s // r
            for y in range(big_s):
                expected = 1.0 / r if y % step == 0 else 0.0
                assert abs(oracle[y] - expected) < 1e-12

    @pytest.mark.parametrize("a,n,s", [
        (2, 33, 3),   # r = 10 > 2**s: every group is one exponent
        (2, 33, 7),
        (5, 21, 5),
        (2, 7, 6),
        (1, 15, 4),   # r = 1: one group holds every exponent
        (14, 15, 1),  # s = 1: the mirrored half of the spectrum is empty
    ])
    def test_matches_textbook_amplitudes(self, a, n, s):
        # A(y, j) = (1/S) sum over x = j mod r, x < S of
        # exp(-2 pi i x y / S), summed as |A|**2 over the groups j
        r = multiplicative_order(a, n)
        big_s = 1 << s
        y = np.arange(big_s)
        expected = np.zeros(big_s)
        for j in range(r):
            x = np.arange(j, big_s, r)
            turns = np.outer(y, x) % big_s / big_s
            amp = np.exp(-2j * np.pi * turns).sum(axis=1) / big_s
            expected += np.abs(amp) ** 2
        oracle = dft_oracle_distribution(a, n, s)
        assert np.abs(oracle.as_array() - expected).max() < 1e-12


def _one_fft_per_group(a, n, s):
    """The oracle as one dense FFT per exponent group, summed."""
    big_s = 1 << s
    r = multiplicative_order(a, n)
    probs = np.zeros(big_s)
    for first in range(min(r, big_s)):
        indicator = np.zeros(big_s)
        indicator[first::r] = 1.0
        probs += np.abs(np.fft.fft(indicator)) ** 2
    return probs / float(big_s) ** 2


class TestOracleCost:
    def test_transforms_each_distinct_group_size_once(self, monkeypatch):
        calls = []

        def counted(transform):
            def wrapper(*args, **kwargs):
                calls.append(transform.__name__)
                return transform(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
        # 1008 exponent groups of two sizes: 2**14 = 16 * 1008 + 256
        dft_oracle_distribution(5, 1009, 14)
        assert 1 <= len(calls) <= 2

    # (2, 65519, 11) has 2**11 * r = 67090432 cells, past MAX_DIST_CELLS,
    # which guards the branch enumeration but not the oracle
    @pytest.mark.parametrize("a,n,s", [(5, 1009, 14), (2, 65519, 8),
                                       (2, 65519, 11)])
    def test_matches_one_fft_per_group(self, a, n, s):
        want = _one_fft_per_group(a, n, s)
        got = dft_oracle_distribution(a, n, s).as_array()
        assert np.abs(got - want).max() < 1e-15
        assert np.array_equal(got > 0, want > 0)
