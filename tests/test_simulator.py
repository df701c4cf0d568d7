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
import random
import re
import tracemalloc

import numpy as np
import pytest

from shorsim import _kernels, simulator
from shorsim.compiler import (
    build_compiled_circuit,
    build_semiclassical_stages,
    default_s,
    find_period2_base,
    find_period2_bases,
)
from shorsim.errors import DomainError, RefusedTooLargeError, SimulationError
from shorsim.numtheory import Semiprime, multiplicative_order
from shorsim.postprocess import DEFAULT_MAX_ATTEMPTS
from shorsim.simulator import (
    MAX_DIST_CELLS,
    MAX_DIST_READOUT_BITS,
    OutcomeDistribution,
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
        assert dist[2] == dist[np.int64(2)] == dist[np.uint8(2)] == 0.75
        assert dist.support() == [0, 2]
        assert dist.as_dict() == {0: 0.25, 2: 0.75}

    @pytest.mark.parametrize("y", [-1, -16, 16, 1 << 70])
    def test_readout_outside_the_register_is_refused(self, y):
        # numpy would wrap a negative index: dist[-1] would read P(15)
        dist = output_distribution(build_semiclassical_stages(7, 15, 4))
        with pytest.raises(IndexError, match=r"outside \[0, 16\)"):
            dist[y]

    @pytest.mark.parametrize("y", [True, False, np.True_, 1.0,
                                   np.float64(4.0), "3"],
                             ids=["True", "False", "numpy-True", "float",
                                  "numpy-float", "str"])
    def test_readout_that_is_not_an_integer_is_refused(self, y):
        # numpy would read a bool as a mask and refuse a float with its
        # own message; a str would fail the range comparison
        dist = OutcomeDistribution(np.array([0.25, 0.0, 0.75, 0.0]))
        with pytest.raises(TypeError,
                           match=re.escape(f"readout must be an integer, "
                                           f"got {y!r}")):
            dist[y]

    def test_iterates_over_every_readout(self):
        # the legacy protocol stops at the first IndexError
        probs = np.array([0.25, 0.0, 0.75, 0.0])
        assert list(OutcomeDistribution(probs)) == list(probs)

    def test_rejects_nan(self):
        with pytest.raises(SimulationError):
            OutcomeDistribution(np.array([np.nan, 0.5]))

    def test_wraps_without_copying(self):
        probs = np.array([0.25, 0.0, 0.75, 0.0])
        dist = OutcomeDistribution(probs)
        assert np.shares_memory(dist.as_array(), probs)
        assert not dist.as_array().flags.writeable
        assert probs.flags.writeable
        with pytest.raises(ValueError):
            dist.as_array()[0] = 1.0

    def test_copies_to_clip_rounding_below_zero(self):
        probs = np.array([0.5 + 1e-13, 0.5, -1e-13])
        dist = OutcomeDistribution(probs)
        assert not np.shares_memory(dist.as_array(), probs)
        assert dist[2] == 0.0 and dist.support() == [0, 1]
        assert probs[2] == -1e-13 and probs.flags.writeable

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
        assert len(dist) == 2
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[1] - 0.5) < 1e-12

    def test_control_qubit_is_maximally_mixed(self):
        for p, q in ((3, 5), (3, 7)):
            rho = control_reduced_density(compiled_circuit(p, q))
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

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

    @pytest.mark.parametrize("a,n,s", [(2, 7, 2), (2, 7, 3), (2, 31, 3),
                                       (2, 31, 4), (2, 337, 6)])
    def test_density_matches_exponent_basis_loop(self, a, n, s):
        # odd periods 3, 5, 21 keep the control coherent; this pins the
        # sign of rho[0,1], which no probability can see. At s = 2 and
        # 3 the kernel stores at most one stage and folds the rest
        circuit = build_semiclassical_stages(a, n, s)
        rho = control_reduced_density(circuit)
        reference = exponent_basis_density(circuit)
        assert abs(reference[0, 1].imag) > 1e-3
        np.testing.assert_allclose(rho, reference, rtol=0, atol=1e-12)

    def test_distribution_sums_to_one(self):
        dist = output_distribution(build_semiclassical_stages(2, 33, 9))
        assert abs(float(dist.as_array().sum()) - 1.0) < 1e-12


# (a, n) with the order r of a mod n
ORDER_BASES = {1: (1, 15), 2: (11, 15), 4: (7, 15), 10: (2, 33),
               32759: (2, 65519)}


def _classes(circuit):
    """Column classes the kernel grows branches for: columns
    r / gcd(r, 2**L) apart share every stored stage, and with no stored
    stage every column is one class."""
    s, r = circuit.num_readout_bits, circuit.work_register_span
    if s <= _kernels.FOLD_STAGES:
        return 1
    return r // math.gcd(r, 1 << _kernels.FOLD_STAGES)


def _chunks(circuit):
    """Column chunks the kernel takes for a circuit whose stored tree is
    one block of prefixes, from CHUNK_CELLS."""
    s = circuit.num_readout_bits
    branches = 1 << (s - min(_kernels.FOLD_STAGES, s))
    chunk = max(1, _kernels.CHUNK_CELLS // branches)
    return -(-_classes(circuit) // chunk)


def _count_branch_columns(monkeypatch):
    """Patch branch_states_numpy to record each call's column count."""
    calls = []
    original = _kernels.branch_states_numpy

    def counted(*args, **kwargs):
        calls.append(args[0].shape[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(_kernels, "branch_states_numpy", counted)
    return calls


def _count_grown_cells(monkeypatch):
    """Patch branch_states_numpy to record the cells each call grows:
    over K stages and C columns, 2 + 4 + ... + 2**K rows of C."""
    cells = []
    original = _kernels.branch_states_numpy

    def counted(column_cos, *args):
        stages, width = column_cos.shape
        cells.append(width * ((2 << stages) - 2))
        return original(column_cos, *args)

    monkeypatch.setattr(_kernels, "branch_states_numpy", counted)
    return cells


class TestFoldedStages:
    """The last readout stages are folded into moments over the columns
    and unfolded once per prefix; short circuits fold every stage."""

    @pytest.mark.parametrize("r", sorted(ORDER_BASES))
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_short_circuits_match_oracle(self, s, r):
        a, n = ORDER_BASES[r]
        circuit = build_semiclassical_stages(a, n, s)
        assert circuit.work_register_span == r
        dist = output_distribution(circuit)
        assert total_variation(dist, dft_oracle_distribution(a, n, s)) < 1e-9

    @pytest.mark.parametrize("cells", [1, None])
    def test_zeros_off_the_comb_stay_exact(self, monkeypatch, cells):
        # r divides 2**s. r = 4 is one column class and r = 16 four.
        # With blocks of 8 prefixes, the 2**8 stored prefixes at s = 10
        # exceed one block, so one cell per chunk leaves no subtree
        # depth that fits: each grows its top tree, then 2**8 one-leaf
        # subtrees over every class. The default, at s = 18, grows one
        # chunk of every class and multiplies r = 16's by matmul
        s = 18
        if cells is not None:
            s = 10
            monkeypatch.setattr(_kernels, "CHUNK_CELLS", cells)
            monkeypatch.setattr(_kernels, "_PREFIX_BLOCK", 8)
        calls = _count_branch_columns(monkeypatch)
        for a, n, r in ((8, 15, 4), (3, 17, 16)):
            calls.clear()
            step = (1 << s) // r
            dist = output_distribution(build_semiclassical_stages(a, n, s))
            assert dist.support() == list(range(0, 1 << s, step))
            assert np.abs(dist.as_array()[::step] - 1 / r).max() < 1e-12
            if cells is not None:
                assert calls == [r // 4] * (1 + (1 << (s - 2)))

    @pytest.mark.parametrize("s", [12, 14])
    def test_zeros_off_the_comb_stay_exact_in_one_column_chunks(
            self, monkeypatch, s):
        # r = 16 is four column classes, and 2**(s-2) stored prefixes
        # fit one block, so one cell per chunk grows the tree as four
        # one-column chunks, whose moments are outer products
        monkeypatch.setattr(_kernels, "CHUNK_CELLS", 1)
        calls = _count_branch_columns(monkeypatch)
        dist = output_distribution(build_semiclassical_stages(3, 17, s))
        assert calls == [1, 1, 1, 1]
        step = (1 << s) // 16
        assert dist.support() == list(range(0, 1 << s, step))
        assert np.abs(dist.as_array()[::step] - 1 / 16).max() < 1e-12

    @pytest.mark.parametrize("cells", [1, None])
    @pytest.mark.parametrize("a,n,r", [(3, 7, 6), (2, 33, 10), (7, 15, 4),
                                       (2, 13, 12), (2, 17, 8), (3, 17, 16),
                                       (11, 1009, 1008)])
    def test_merged_columns_match_oracle(self, monkeypatch, a, n, r, cells):
        # gcd(r, 4) is 2 or 4, so the kernel grows r / 2 or r / 4
        # column classes; s runs from no stored stage to above log2 r
        if cells is not None:
            monkeypatch.setattr(_kernels, "CHUNK_CELLS", cells)
        for s in (2, 3, 5, 9, 12):
            circuit = build_semiclassical_stages(a, n, s)
            assert circuit.work_register_span == r
            oracle = dft_oracle_distribution(a, n, s)
            dist = output_distribution(circuit)
            assert total_variation(dist, oracle) < 1e-9
            last_bit_set = float(oracle.as_array()[1 << (s - 1):].sum())
            rho = control_reduced_density(circuit)
            assert abs(rho[1, 1].real - last_bit_set) < 1e-9
            if s <= 5:
                np.testing.assert_allclose(
                    rho, exponent_basis_density(circuit), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a,n,s,classes", [(8, 15, 20, 1),
                                               (3, 17, 18, 4),
                                               (2, 33, 2, 1),
                                               (2, 65519, 3, 32759)])
    def test_one_tree_per_column_class(self, monkeypatch, a, n, s, classes):
        # (8, 15, 20): r = 4 = gcd(4, 2**2), one column for 2**18
        # branches; r = 16 has four classes. With no stored stage
        # (s = 2) every column is one class; odd r = 32759 merges none
        circuit = build_semiclassical_stages(a, n, s)
        calls = _count_branch_columns(monkeypatch)
        output_distribution(circuit)
        assert sum(calls) == classes

    @pytest.mark.parametrize("a,n,s", [(2, 33, 9), (16, 337, 10),
                                       (2, 2039, 4)])
    def test_chunk_width_does_not_matter(self, monkeypatch, a, n, s):
        # r = 1019 is odd and above 2**s: one class per column
        circuit = build_semiclassical_stages(a, n, s)
        default = output_distribution(circuit).as_array()
        density = control_reduced_density(circuit)
        # chunks of one column, then of three
        for cells in (1, 3 << (s - 2)):
            monkeypatch.setattr(_kernels, "CHUNK_CELLS", cells)
            got = output_distribution(circuit).as_array()
            assert np.abs(got - default).max() < 1e-15
            assert np.array_equal(got > 0, default > 0)
            np.testing.assert_allclose(control_reduced_density(circuit),
                                       density, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("a,n,s,cells", [
        (13, 15, 20, None), (2, 2039, 4, 1 << 10), (7, 311, 10, 1 << 10),
        (7, 311, 16, None)])
    def test_no_unwritten_buffer_is_read(self, monkeypatch, a, n, s, cells):
        # one chunk of 64 blocks; 4 and 8 column chunks of odd r into
        # one block; 31 classes in two subtrees. Memory from np.empty is
        # often zero already, so every float buffer starts as NaN here,
        # and any entry read before it is written shows in the bytes
        if cells is not None:
            monkeypatch.setattr(_kernels, "CHUNK_CELLS", cells)
        circuit = build_semiclassical_stages(a, n, s)

        def outputs():
            return (output_distribution(circuit).as_array().tobytes(),
                    control_reduced_density(circuit).tobytes())

        want = outputs()
        for name in ("empty", "empty_like"):
            def poisoned(*args, _make=getattr(np, name), **kwargs):
                array = _make(*args, **kwargs)
                if array.dtype.kind in "fc":
                    array.fill(np.nan)
                return array

            monkeypatch.setattr(np, name, poisoned)
        assert outputs() == want

    @pytest.mark.parametrize("s", range(1, 13))
    def test_feedback_table_is_the_unit_circle(self, s):
        table_cos, table_sin = _kernels._feedback_table(s)
        angles = 2 * np.pi * np.arange(1 << (s - 1)) / (1 << s)
        assert np.abs(table_cos - np.cos(angles)).max() < 1e-15
        assert np.abs(table_sin - np.sin(angles)).max() < 1e-15
        assert table_sin[0] == 0.0
        if s > 1:
            assert (table_cos[1 << (s - 2)], table_sin[1 << (s - 2)]) \
                == (0.0, 1.0)

    @pytest.mark.parametrize("a,n,s,cells", [(2, 65519, 8, None),
                                             (7, 15, 8, None),
                                             (2, 33, 9, 1)])
    def test_branch_states_run_once_per_chunk(self, monkeypatch, a, n, s,
                                              cells):
        # the benchmark's tracer wraps the module attribute, so the
        # kernel must reach branch_states_numpy through it
        if cells is not None:
            monkeypatch.setattr(_kernels, "CHUNK_CELLS", cells)
        circuit = build_semiclassical_stages(a, n, s)
        want = output_distribution(circuit).as_array()
        calls = _count_branch_columns(monkeypatch)
        got = output_distribution(circuit).as_array()
        assert len(calls) == _chunks(circuit) > 0
        assert sum(calls) == _classes(circuit)
        assert np.array_equal(got, want)
        control_reduced_density(circuit)
        assert len(calls) == 2 * _chunks(circuit)

    @pytest.mark.parametrize("a,n,s", [(8, 15, 20), (3, 7, 20), (7, 311, 20),
                                       (2, 65519, 8), (2, 33, 9), (2, 33, 2)])
    def test_stored_cells_grow_once(self, monkeypatch, a, n, s):
        # one column for 2**18 branches; three classes in four subtrees;
        # 31 classes in 32 subtrees; column chunks of a 64-prefix tree;
        # no stored stage. The tracer wraps the module attribute, so
        # every call must go through it
        circuit = build_semiclassical_stages(a, n, s)
        stored = s - min(_kernels.FOLD_STAGES, s)
        want = output_distribution(circuit).as_array()
        cells = _count_grown_cells(monkeypatch)
        got = output_distribution(circuit).as_array()
        assert sum(cells) == _classes(circuit) * ((2 << stored) - 2)
        assert np.array_equal(got, want)
        cells.clear()
        control_reduced_density(circuit)
        assert sum(cells) == _classes(circuit) * ((2 << stored) - 2)

    @pytest.mark.parametrize("a,n,r", [(2, 33, 10), (16, 337, 21),
                                       (3, 17, 16)])
    def test_subtree_depth_does_not_matter(self, monkeypatch, a, n, r):
        # blocks of 8 prefixes make the 2**7-prefix tree at s = 9 grow
        # as subtrees: 2**depth of them, from one to a leaf per prefix.
        # r = 16 divides 2**9, so its zeros off the comb must stay exact
        s, stored = 9, 7
        circuit = build_semiclassical_stages(a, n, s)
        assert circuit.work_register_span == r
        default = output_distribution(circuit).as_array()
        density = control_reduced_density(circuit)
        oracle = dft_oracle_distribution(a, n, s)
        assert total_variation(output_distribution(circuit), oracle) < 1e-9
        monkeypatch.setattr(_kernels, "_PREFIX_BLOCK", 8)
        for depth in (0, 1, 3, stored):
            monkeypatch.setattr(_kernels, "CHUNK_CELLS",
                                _classes(circuit) << (stored - depth))
            got = output_distribution(circuit).as_array()
            assert np.abs(got - default).max() < 1e-15
            assert np.array_equal(got > 0, default > 0)
            np.testing.assert_allclose(control_reduced_density(circuit),
                                       density, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("a,n,s", [(7, 311, 20), (19, 97, 20)])
    def test_subtrees_match_oracle_at_the_cap(self, a, n, s):
        # r = 31 grows 32 subtrees and r = 32 eight; r = 32 divides
        # 2**20, so its support is exactly the comb
        circuit = build_semiclassical_stages(a, n, s)
        dist = output_distribution(circuit)
        oracle = dft_oracle_distribution(a, n, s)
        assert total_variation(dist, oracle) < 1e-9
        rho = control_reduced_density(circuit)
        last_bit_set = float(oracle.as_array()[1 << (s - 1):].sum())
        assert abs(rho[1, 1].real - last_bit_set) < 1e-9
        if circuit.work_register_span == 32:
            assert dist.support() == list(range(0, 1 << s, 1 << (s - 5)))


class TestFeedbackTableCache:
    """_feedback_table is built once per readout size and shared by
    every later exact call, read-only."""

    # interleaved readout sizes: r = 4, 31, 32759, 4 and 2
    CIRCUITS = ((8, 15, 20), (7, 311, 16), (2, 65519, 8), (7, 15, 2),
                (2, 3, 1))

    def test_second_call_returns_the_same_read_only_rows(self):
        first = _kernels._feedback_table(12)
        second = _kernels._feedback_table(12)
        assert all(a is b for a, b in zip(first, second))
        table_cos, table_sin = first
        assert table_cos.base is table_sin.base
        assert not table_cos.base.flags.writeable
        for row in first:
            with pytest.raises(ValueError):
                row[0] = 1.0

    def test_cached_rows_equal_a_fresh_build(self):
        for s in range(1, MAX_DIST_READOUT_BITS + 1):
            cached = _kernels._feedback_table(s)
            fresh = _kernels._feedback_table.__wrapped__(s)
            assert [row.tobytes() for row in cached] \
                == [row.tobytes() for row in fresh], s

    def test_cold_and_warm_calls_give_the_same_bytes(self, monkeypatch):
        circuits = [build_semiclassical_stages(*args)
                    for args in self.CIRCUITS]

        def outputs(routes):
            # by readout size and route, in the order of the calls
            return {(circuit.num_readout_bits, route.__name__):
                    route(circuit).tobytes()
                    for circuit in circuits for route in routes}

        def dist(circuit):
            return output_distribution(circuit).as_array()

        # every call builds its own table, as without the cache
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_feedback_table",
                          _kernels._feedback_table.__wrapped__)
            fresh = outputs((dist, control_reduced_density))
        # the first route to meet each s builds its table
        _kernels._feedback_table.cache_clear()
        dist_cold = outputs((dist, control_reduced_density))
        _kernels._feedback_table.cache_clear()
        density_cold = outputs((control_reduced_density, dist))
        warm = outputs((dist, control_reduced_density))
        assert _kernels._feedback_table.cache_info().currsize \
            == len(circuits)
        assert dist_cold == density_cold == warm == fresh


class TestExactMemory:
    """tracemalloc peaks of the exact routes at s = 20, for r = 4, the
    benchmark's largest branch tree, and for odd r = 31 at the cell
    cap, whose 31 column classes grow as 32 subtrees. A cold call
    builds the feedback table for its s; a warm one finds it cached."""

    @staticmethod
    def _peak_mib(call, cold=False):
        # the untraced call loads what any first call loads; a cold call
        # then drops the cached feedback tables, so it builds its own
        call()
        if cold:
            _kernels._feedback_table.cache_clear()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def test_output_distribution(self):
        # 18 MiB measured cold: the 8 MiB output and the 6 MiB feedback
        # table of 3 * 2**18 cosines, plus 4 MiB both while the table is
        # built (the 2 MiB quarter wave it mirrors and that wave's
        # negated copy) and after it (2**18 branch cells, half as many
        # scratch cells and one block's moments and splits, each made
        # once per call for a block of 2**12 prefixes)
        circuit = build_semiclassical_stages(8, 15, 20)
        assert self._peak_mib(lambda: output_distribution(circuit),
                              cold=True) < 19.5

    def test_output_distribution_odd_period(self):
        # 18 MiB measured cold, as for r = 4: each subtree's 2**13
        # leaves x 31 classes fit the same 2**18 cells
        circuit = build_semiclassical_stages(7, 311, 20)
        assert self._peak_mib(lambda: output_distribution(circuit),
                              cold=True) < 19.5

    def test_control_reduced_density(self):
        # 10 MiB measured cold: the 6 MiB feedback table plus 4 MiB
        # while it is built and after it, as above; the sums take no
        # output vector
        circuit = build_semiclassical_stages(8, 15, 20)
        assert self._peak_mib(lambda: control_reduced_density(circuit),
                              cold=True) < 11

    def test_control_reduced_density_odd_period(self):
        # 10 MiB measured cold, as for r = 4
        circuit = build_semiclassical_stages(7, 311, 20)
        assert self._peak_mib(lambda: control_reduced_density(circuit),
                              cold=True) < 11

    @pytest.mark.parametrize("a,n", [(8, 15), (7, 311)], ids=["r4", "r31"])
    def test_output_distribution_warm(self, a, n):
        # 12.0 MiB measured: the 8 MiB output and the 4 MiB of branch
        # cells, scratch and moments; the cached table is not allocated
        circuit = build_semiclassical_stages(a, n, 20)
        assert self._peak_mib(lambda: output_distribution(circuit)) < 13

    @pytest.mark.parametrize("a,n", [(8, 15), (7, 311)], ids=["r4", "r31"])
    def test_control_reduced_density_warm(self, a, n):
        # 4.0 MiB measured: the branch cells, scratch and moments alone
        circuit = build_semiclassical_stages(a, n, 20)
        assert self._peak_mib(lambda: control_reduced_density(circuit)) < 5

    def test_cached_tables_stay_within_12_mib(self):
        # the exact routes refuse s > MAX_DIST_READOUT_BITS before the
        # kernel runs, so these are all the tables the cache can keep:
        # 3 * 2**(s-2) cosines each, 24 * 2**19 bytes over s = 1 .. 20
        _kernels._feedback_table.cache_clear()
        tables = [_kernels._feedback_table(s)
                  for s in range(1, MAX_DIST_READOUT_BITS + 1)]
        assert _kernels._feedback_table.cache_info().currsize \
            == MAX_DIST_READOUT_BITS
        assert sum(table_cos.base.nbytes for table_cos, _ in tables) \
            <= 12 * 2 ** 20

    def test_oracle(self):
        # 10 MiB measured: r = 4 folds each transform to 2**18 points, so
        # the peak is the 8 MiB tiled output next to the 2 MiB it tiles;
        # the distribution wraps the output without a copy
        assert self._peak_mib(lambda: dft_oracle_distribution(8, 15, 20)) < 11

    def test_oracle_odd_period(self):
        # 24 MiB measured: an odd r transforms all 2**20 points and tiles
        # nothing; the output, one comb and its half spectrum
        assert self._peak_mib(lambda: dft_oracle_distribution(2, 7, 20)) < 26


class TestRunCircuit:
    def test_deterministic_per_seed(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        y1, t1 = run_circuit(circuit, 1234)
        y2, t2 = run_circuit(circuit, 1234)
        assert y1 == y2
        assert t1 == t2

    def test_seeds_reach_multiple_outcomes(self):
        circuit = build_semiclassical_stages(7, 15, 8)
        ys = {run_circuit(circuit, seed)[0] for seed in range(40)}
        assert len(ys) > 1
        assert ys <= {0, 64, 128, 192}

    def test_trace_shape(self):
        circuit = build_semiclassical_stages(7, 15, 5)
        y, stages = run_circuit(circuit, 7)
        assert [rec.stage for rec in stages] == [1, 2, 3, 4, 5]
        assert tuple(rec.multiplier for rec in stages) == circuit.multipliers
        assert y == sum(rec.bit << i for i, rec in enumerate(stages))

    def test_first_stage_has_no_feedback(self):
        circuit = build_semiclassical_stages(7, 15, 4)
        _, stages = run_circuit(circuit, 3)
        assert stages[0].phase == 0.0

    @pytest.mark.parametrize("s", [1023, 1100])
    def test_long_readout_keeps_the_odds_finite(self, s):
        # 2.0**1024 overflows a float, and so did the feedback angle's
        # numerator from stage 1023 on
        circuit = build_semiclassical_stages(2, 337, s)
        for seed in (1, 2, 4):
            y, stages = run_circuit(circuit, seed)
            assert len(stages) == s and 0 <= y < 1 << s
            assert all(math.isfinite(rec.p_one) and math.isfinite(rec.phase)
                       for rec in stages)

    def test_nan_state_fails_the_norm_check(self, monkeypatch):
        monkeypatch.setattr(simulator, "_INV_SQRT2", float("nan"))
        with pytest.raises(SimulationError, match="norm drifted to nan"):
            run_circuit(build_semiclassical_stages(7, 15, 4), 0)

    def test_unlikely_outcomes_keep_the_state_normalised(self):
        # the (base, run seed) pairs an honest run of the prime 8191
        # with seed 9045414 drew, in its order, before primes were
        # refused; renormalising by an outcome's odds instead of the
        # kept block's norm let rounding error pass the norm check on
        # the 61st (base 7815) and crash the run
        n = 8191
        master = random.Random(9045414)
        bases = []
        for _ in range(DEFAULT_MAX_ATTEMPTS):
            a = master.randrange(2, n - 1)
            circuit = build_semiclassical_stages(a, n, default_s(n))
            y, stages = run_circuit(circuit, master.getrandbits(63))
            assert y == sum(rec.bit << i for i, rec in enumerate(stages))
            bases.append(a)
        assert bases[60] == 7815

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

    @pytest.mark.parametrize("a,n,s", [(7, 15, 8), (2, 337, 12),
                                       (11, 1009, 8)])
    def test_stage_odds_match_exact_conditionals(self, a, n, s):
        # each stage's p_one is P(bit k = 1 | the bits measured before
        # it), read off the branch kernel's exact distribution; 2 mod
        # 337 has order 21 < 2**12, 11 mod 1009 order 1008 > 2**8
        circuit = build_semiclassical_stages(a, n, s)
        probs = output_distribution(circuit).as_array()
        for seed in range(6):
            _, stages = run_circuit(circuit, seed)
            prefix = 0
            for k, record in enumerate(stages, start=1):
                # y's low k bits are the first k stages' outcomes
                low = probs.reshape(-1, 1 << k).sum(axis=0)
                seen = low[prefix] + low[prefix | 1 << (k - 1)]
                assert abs(record.p_one
                           - low[prefix | 1 << (k - 1)] / seen) < 1e-9
                prefix |= record.bit << (k - 1)

    def test_shot_works_in_preallocated_buffers(self):
        # the state is a fixed handful of complex r-vectors, not a
        # fresh array per operation of every stage
        circuit = build_semiclassical_stages(7, 60491, 32)
        r = circuit.work_register_span
        run_circuit(circuit, 0)
        tracemalloc.start()
        try:
            run_circuit(circuit, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r == 6000
        assert peak <= 6 * 16 * r


def reference_run_circuit(circuit, seed):
    """Loop reference for run_circuit: the sampler as it was before its
    per-stage passes were fused. Two slice copies, then the feedback
    phase multiplied in place, three vdots, one uniform drawn per stage
    and np.sqrt. Returns y and one (stage, multiplier, phase, p_one,
    bit) tuple per stage."""
    rng = np.random.Generator(np.random.PCG64(seed))
    r = circuit.work_register_span
    pre = np.zeros((2, r), dtype=np.complex128)
    post = np.empty((2, r), dtype=np.complex128)
    pre[0, 0] = 1.0
    pre_parts, post_parts = pre.view(np.float64), post.view(np.float64)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    prefix = 0
    records = []
    stages = zip(circuit.multipliers, circuit.stage_shifts)
    for stage, (multiplier, shift) in enumerate(stages, start=1):
        np.multiply(pre_parts[0], inv_sqrt2, out=pre_parts[0])
        pre[1, shift:] = pre[0, :r - shift]
        pre[1, :shift] = pre[0, r - shift:]
        phase = 0.0
        if stage > 1:
            phase = -2.0 * np.pi * (prefix / (1 << stage))
            pre[1] *= np.exp(1j * phase)
        np.add(pre[0], pre[1], out=post[0])
        np.subtract(pre[0], pre[1], out=post[1])
        np.multiply(post_parts, inv_sqrt2, out=post_parts)
        total = float(np.vdot(post, post).real)
        assert abs(total - 1.0) <= simulator.NORM_TOLERANCE
        p1 = float(np.vdot(post[1], post[1]).real)
        outcome = 1 if rng.random() < p1 else 0
        kept_norm = p1 if outcome else float(np.vdot(post[0], post[0]).real)
        np.multiply(post_parts[outcome], 1.0 / np.sqrt(kept_norm),
                    out=pre_parts[0])
        prefix |= outcome << (stage - 1)
        records.append((stage, multiplier, phase, p1, outcome))
    return prefix, records


def _honest_reference_cases():
    """(a, n, s): two drawn bases per honest benchmark modulus, a base
    of order 16020 mod 32399 (the longest period there), r = 1 and
    r = 2, and the shortest and a long readout. Stage 1 is taken in
    scalars and hands its kept block to the later stages: (7, 15, 8)
    has r = 4 and first shift t_1 = 2**7 mod 4 = 0, and at s = 2 the
    loop runs exactly one stage."""
    draw = random.Random(2013)
    cases = []
    for n in (3127, 3599, 6557, 146611, 197633, 886657, 1026241, 60491,
              32399):
        for _ in range(2):
            a = draw.randrange(2, n - 1)
            while math.gcd(a, n) != 1:
                a = draw.randrange(2, n - 1)
            cases.append((a, n, default_s(n)))
    longest = next(a for a in range(2, 32399)
                   if multiplicative_order(a, 32399) == 16020)
    cases.append((longest, 32399, default_s(32399)))
    cases += [(1, 15, 8), (14, 15, 8), (7, 15, 1), (2, 337, 1),
              (2, 337, 1023), (7, 15, 8), (7, 15, 2), (2, 337, 2)]
    return cases


class TestRunCircuitMatchesReference:
    @pytest.mark.parametrize("a,n,s", _honest_reference_cases())
    def test_records_are_bit_identical(self, a, n, s):
        # the same floating-point operations in the same order, and the
        # same stream of uniforms: every field equal, no tolerance
        circuit = build_semiclassical_stages(a, n, s)
        for seed in (0, 1, 7, 2 ** 62 + 5):
            y, records = run_circuit(circuit, seed)
            ref_y, ref_records = reference_run_circuit(circuit, seed)
            assert y == ref_y
            assert [(rec.stage, rec.multiplier, rec.phase, rec.p_one,
                     rec.bit) for rec in records] == ref_records

    @pytest.mark.parametrize("a,n,r", [(1, 15, 1), (4, 15, 2), (14, 15, 2)])
    def test_one_stage_scalars_are_bit_identical(self, a, n, r):
        # s = 1 ends after the scalar first stage: r = 1 has shift 0
        # and p_one = 0, r = 2 is the compiled circuit's shape
        circuit = build_semiclassical_stages(a, n, 1)
        assert circuit.work_register_span == r
        draw = random.Random(a * n)
        seeds = list(range(100)) + [draw.getrandbits(63) for _ in range(100)]
        for seed in seeds:
            y, records = run_circuit(circuit, seed)
            ref_y, ref_records = reference_run_circuit(circuit, seed)
            assert y == ref_y
            assert [(rec.stage, rec.multiplier, rec.phase, rec.p_one,
                     rec.bit) for rec in records] == ref_records
        if r > 1:
            assert {run_circuit(circuit, seed)[0] for seed in seeds} == {0, 1}

    def test_one_stage_keeps_the_norm_check(self, monkeypatch):
        monkeypatch.setattr(simulator, "_INV_SQRT2", 0.75)
        with pytest.raises(SimulationError, match="norm drifted to 1.26"):
            run_circuit(build_semiclassical_stages(4, 15, 1), 0)


class TestStageRecord:
    def test_fields_in_order(self):
        assert simulator.StageRecord._fields == (
            "stage", "multiplier", "phase", "p_one", "bit")

    def test_repr_names_every_field(self):
        rec = simulator.StageRecord(stage=2, multiplier=4, phase=-1.5,
                                    p_one=0.25, bit=1)
        assert repr(rec) == ("StageRecord(stage=2, multiplier=4, "
                             "phase=-1.5, p_one=0.25, bit=1)")

    def test_fields_cannot_be_assigned(self):
        rec = simulator.StageRecord(1, 7, 0.0, 0.5, 0)
        with pytest.raises(AttributeError):
            rec.bit = 1
        assert rec.bit == 0

    def test_equal_values_make_equal_records(self):
        first = simulator.StageRecord(3, 13, -0.5, 0.75, 1)
        second = simulator.StageRecord(stage=3, multiplier=13, phase=-0.5,
                                       p_one=0.75, bit=1)
        assert first == second
        assert first != simulator.StageRecord(3, 13, -0.5, 0.75, 0)


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

    @pytest.mark.parametrize("exact_route", [output_distribution,
                                             control_reduced_density])
    def test_too_many_cells(self, exact_route):
        # r = 32759, so 2**11 * r = 67090432 cells, past MAX_DIST_CELLS
        circuit = build_semiclassical_stages(2, 65519, 11)
        assert circuit.work_register_span == 32759
        with pytest.raises(RefusedTooLargeError) as refused:
            exact_route(circuit)
        assert str(refused.value) == (
            "exact enumeration refused: 67090432 amplitude cells exceeds "
            f"{MAX_DIST_CELLS}"
        )

    def test_oracle_refuses_readout_bits_past_the_cap(self):
        with pytest.raises(RefusedTooLargeError):
            dft_oracle_distribution(7, 15, MAX_DIST_READOUT_BITS + 1)

    def test_oracle_refuses_what_the_order_scan_refuses(self):
        with pytest.raises(RefusedTooLargeError) as refused:
            dft_oracle_distribution(2, 2**25 + 1, 4)
        assert str(refused.value) == (
            "order scan refused: n has 26 bits, limit is 24"
        )

    @pytest.mark.parametrize("n", [0, 1])
    def test_oracle_refuses_modulus_below_two(self, n):
        with pytest.raises(DomainError, match="modulus must be at least 2"):
            dft_oracle_distribution(3, n, 2)

    @pytest.mark.parametrize("args, name", [
        ((7, 15, True), "s"),
        ((7, 15, 4.0), "s"),
        ((True, 15, 4), "a"),
        ((7.0, 15, 4), "a"),
        ((7, 15.0, 4), "n"),
    ], ids=["bool-bits", "float-bits", "bool-base", "float-base",
            "float-modulus"])
    def test_oracle_refuses_what_is_not_an_integer(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            dft_oracle_distribution(*args)

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

    @pytest.mark.parametrize("a,n,s", [
        (2, 7, 12),      # odd r = 3: all 2**s points
        (7, 15, 12),     # r = 4 divides 2**s
        (2, 21, 10),     # r = 6: gcd 2
        (5, 1009, 14),   # r = 1008: gcd 16
        (3, 17, 4),      # r = 2**s: one point
        (3, 65537, 8),   # r = 65536 > 2**s: one point
    ])
    def test_transforms_one_repeat_of_the_spectrum(self, monkeypatch,
                                                    a, n, s):
        lengths, tiles = [], []
        rfft, tile = np.fft.rfft, np.tile

        def recorded(x, *args, **kwargs):
            lengths.append(len(x))
            return rfft(x, *args, **kwargs)

        def counted(x, reps):
            tiles.append(reps)
            return tile(x, reps)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        monkeypatch.setattr(np, "tile", counted)
        dft_oracle_distribution(a, n, s)
        repeats = math.gcd(multiplicative_order(a, n), 2 ** s)
        assert lengths and set(lengths) == {2 ** s // repeats}
        # an odd r has one repeat, the whole output, and copies nothing
        assert tiles == ([repeats] if repeats > 1 else [])

    # (2, 65519, 11) has 2**11 * r = 67090432 cells, past MAX_DIST_CELLS,
    # which guards the branch enumeration but not the oracle. Each shape
    # but those two has an even r, so the oracle folds its transforms.
    @pytest.mark.parametrize("a,n,s", [(5, 1009, 14), (2, 65519, 8),
                                       (2, 65519, 11), (7, 15, 12),
                                       (3, 17, 4), (3, 65537, 8),
                                       (2, 21, 10)])
    def test_matches_one_fft_per_group(self, a, n, s):
        want = _one_fft_per_group(a, n, s)
        got = dft_oracle_distribution(a, n, s).as_array()
        assert np.abs(got - want).max() < 1e-15
        assert np.array_equal(got > 0, want > 0)


@pytest.mark.parametrize("a, n, s, message", [
    (2, 15, 0, "need at least one readout bit"),
    (3, 15, 4, "3 is not a unit mod 15"),
    # a non-unit is no domain for the oracle at any readout size, so it
    # is refused before the readout bound
    (3, 15, MAX_DIST_READOUT_BITS + 1, "3 is not a unit mod 15"),
    # past the interpreter's 4300-digit int/str conversion limit
    (2, 10 ** 5000, 4, "2 is not a unit mod 1" + "0" * 5000),
], ids=["no-readout-bit", "base-not-a-unit", "base-not-a-unit-at-any-size",
        "modulus-past-the-conversion-limit"])
def test_oracle_refuses_what_has_no_period(a, n, s, message):
    with pytest.raises(DomainError, match=message):
        dft_oracle_distribution(a, n, s)
