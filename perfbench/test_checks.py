"""Each reference check accepts a right answer and rejects a wrong one.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from checks import Mismatch

ROOT = Path(__file__).resolve().parent.parent


def textbook_amplitudes(r: int, s: int) -> np.ndarray:
    """A[y, j] = (1/S) sum over x = j mod r of exp(-2 pi i x y / S)."""
    big_s = 1 << s
    x = np.arange(big_s)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(big_s), x) / big_s)
    return np.stack([phases[:, x % r == j].sum(axis=1) for j in range(r)],
                    axis=1) / big_s


CASES = [(3, 5), (5, 6), (4, 4), (6, 7), (21, 7), (7, 6), (40, 5), (1, 3)]


@pytest.mark.parametrize("r,s", CASES)
def test_closed_forms_match_brute_force(r, s):
    amps = textbook_amplitudes(r, s)
    probs = (np.abs(amps) ** 2).sum(axis=1)
    np.testing.assert_allclose(checks.closed_form_distribution(r, s), probs,
                               rtol=0, atol=1e-13)
    half = 1 << (s - 1)
    coherence = (amps[:half] * amps[half:].conj()).sum()
    assert abs(checks.closed_form_coherence(r, s) - coherence) < 1e-13


def test_factors():
    checks.check_factors(3127, (59, 53))
    for wrong in [None, (1, 3127), (53, 61), (3127,)]:
        with pytest.raises(Mismatch):
            checks.check_factors(3127, wrong)
    checks.check_factors(53 * 59, (53, 59), known=(59, 53))
    with pytest.raises(Mismatch):
        checks.check_factors(53 * 59, (53, 59), known=(53, 61))


def test_period():
    r = checks.order(2, 3127)
    checks.check_period(2, r, 3127)
    checks.check_period(2, 3 * r, 3127)
    for wrong in (r + 1, r // 2, 0):
        with pytest.raises(Mismatch):
            checks.check_period(2, wrong, 3127)


def test_compiled_base():
    checks.check_compiled_base(4, 15)
    checks.check_compiled_base(11, 15)
    for wrong in (1, 2, 14):
        with pytest.raises(Mismatch):
            checks.check_compiled_base(wrong, 15)


def test_prime_never_factored():
    checks.check_no_factors_for_prime(8191, None)
    with pytest.raises(Mismatch):
        checks.check_no_factors_for_prime(8191, (1, 8191))
    with pytest.raises(Mismatch):
        checks.check_no_factors_for_prime(8193, None)


def test_reports():
    good = {"factors": (53, 59), "base": 2, "period": checks.order(2, 3127),
            "gcd_shortcut": False,
            "details": [(2, checks.order(2, 3127), "factored", False)]}
    checks.check_honest_report(3127, good)
    for change in ({"factors": (59, 61)}, {"period": 7}, {"factors": None},
                   {"details": [(3, 1, "no-period", False)]},
                   {"details": [(3, None, "gcd-shortcut", True)]}):
        with pytest.raises(Mismatch):
            checks.check_honest_report(3127, {**good, **change})
    compiled = {"factors": (3, 5), "base": 4, "period": 2,
                "gcd_shortcut": False, "details": []}
    checks.check_compiled_report(15, (3, 5), compiled)
    for change in ({"period": 4}, {"base": 2}, {"factors": (1, 15)}):
        with pytest.raises(Mismatch):
            checks.check_compiled_report(15, (3, 5), {**compiled, **change})


def test_distribution():
    a, n, s = 7, 15, 8
    right = checks.closed_form_distribution(4, s).copy()
    checks.check_distribution(a, n, s, right)
    shifted = right.copy()
    shifted[0] -= 1e-8
    shifted[1] += 1e-8
    with pytest.raises(Mismatch):
        checks.check_distribution(a, n, s, shifted)
    with pytest.raises(Mismatch):
        checks.check_distribution(a, n, s, right[:-1])
    with pytest.raises(Mismatch):  # the distribution of another period
        checks.check_distribution(a, n, s, checks.closed_form_distribution(3, s))
    with pytest.raises(Mismatch):  # every readout off by one
        checks.check_distribution(a, n, s, np.roll(right, 1))


def test_density():
    a, n, s = 2, 7, 6
    lower = float(checks.closed_form_distribution(3, s)[:32].sum())
    c = checks.closed_form_coherence(3, s)
    rho = np.array([[lower, c], [np.conj(c), 1 - lower]])
    checks.check_density(a, n, s, rho)
    wrong_diag = rho + np.diag([1e-6, -1e-6])
    not_hermitian = rho.copy()
    not_hermitian[1, 0] = rho[0, 1]
    conjugated = rho.conj()  # the feedback phase with the opposite sign
    for wrong in (wrong_diag, not_hermitian, conjugated, 1.1 * rho, rho[:1]):
        with pytest.raises(Mismatch):
            checks.check_density(a, n, s, wrong)


def test_sample():
    checks.check_sample(7, 15, 4, 4, [0, 0, 1, 0])
    with pytest.raises(Mismatch):  # bits and y disagree
        checks.check_sample(7, 15, 4, 4, [0, 1, 0, 0])
    with pytest.raises(Mismatch):  # y = 1 has probability 0 for period 4
        checks.check_sample(7, 15, 4, 1, [1, 0, 0, 0])


def test_decimal_round_trip():
    value = 3 ** 20000
    checks.check_decimal_round_trip(value, str(value), value)
    with pytest.raises(Mismatch):
        checks.check_decimal_round_trip(value, str(value + 1), value)
    with pytest.raises(Mismatch):
        checks.check_decimal_round_trip(value, str(value), value + 1)


def test_fixtures():
    ref = checks.fixture_reference(ROOT / "src/shorsim/fixtures/rsa768")
    checks.check_fixture_verdict(ref, [("p * q == n", True)])
    checks.check_loaded_fixture(ref, dict(ref))
    with pytest.raises(Mismatch):
        checks.check_fixture_verdict(ref, [("p * q == n", False)])
    with pytest.raises(Mismatch):
        checks.check_fixture_verdict(ref, [])
    with pytest.raises(Mismatch):  # one digit of n changed
        checks.check_fixture_verdict({**ref, "n": ref["n"] + 10},
                                     [("p * q == n", True)])
    with pytest.raises(Mismatch):
        checks.check_loaded_fixture(ref, {**ref, "bases": ref["bases"][:1]})


def test_cli_helpers():
    assert checks.parse_cli_json(0, '{"a": 1}') == {"a": 1}
    with pytest.raises(Mismatch):
        checks.parse_cli_json(2, '{"a": 1}')
    with pytest.raises(Mismatch):
        checks.parse_cli_json(0, "HONESTY ...")
    assert checks.qubit_budget_reference(15) == {
        "n_bits": 4, "zalka_qubits": 8, "compiled_qubits": 2}
    muls = [pow(7, 1 << (4 - k), 15) for k in range(1, 5)]
    checks.check_semiclassical_multipliers(7, 15, 4, muls)
    with pytest.raises(Mismatch):
        checks.check_semiclassical_multipliers(7, 15, 4, muls[::-1])


def test_manifest_names_match_the_metrics_printed():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(
        run.workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(
        run.PER_LAYER)


def test_traced_worker_sees_both_orbit_walks_per_circuit():
    """work_orbit runs twice per semiclassical circuit: once in the
    builder and once when Circuit validates itself."""
    worker = run.Worker(run.child_env(), traced=True)
    try:
        op = run.workloads.Op("factor", {"n": 3127, "mode": "honest",
                                         "seed": 5}, lambda result: None)
        status, _, _, result = worker.execute(op)
        snap = worker.call("snapshot")
        worker.close()
    finally:
        worker.kill()
    assert status == "ok" and snap["absent"] == []
    spans = snap["spans"]
    built = spans["compiler.build_semiclassical_stages"][0]
    assert built >= 1
    assert spans["compiler.work_orbit"][0] == 2 * built
    assert spans["simulator.run_circuit"][0] == built
    assert snap["counts"]["postprocess.attempts"] == built
