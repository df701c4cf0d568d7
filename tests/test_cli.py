"""Command-line behavior: outputs, determinism, exit codes."""

import json
import shutil
import time
from pathlib import Path

import pytest

from shorsim import cli
from shorsim.cli import main
from shorsim.compiler import Circuit
from shorsim.fixtures import fixture_root

GOLDEN = Path(__file__).resolve().parent / "golden"

# `circuit --kind semiclassical --a 2 --n 33 --s 2 --format json`
GOLDEN_CIRCUIT_JSON = """\
{
  "format": "shorsim-circuit",
  "gates": [
    {
      "gate": "PREP+"
    },
    {
      "gate": "CMODMUL",
      "modulus": "33",
      "multiplier": "4"
    },
    {
      "gate": "H"
    },
    {
      "bit": 0,
      "gate": "MEAS"
    },
    {
      "gate": "PREP+"
    },
    {
      "gate": "CMODMUL",
      "modulus": "33",
      "multiplier": "2"
    },
    {
      "gate": "VH",
      "stage": 2
    },
    {
      "bit": 1,
      "gate": "MEAS"
    }
  ],
  "num_readout_bits": 2,
  "version": 1,
  "work_register_span": 10
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQubits:
    def test_fifteen(self, capsys):
        code, out, _ = run_cli(capsys, "qubits", "--n", "15")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": "15", "n_bits": 4, "zalka_qubits": 8, "compiled_qubits": 2,
        }

    def test_large_modulus(self, capsys):
        n = str((1 << 767) + 1)
        code, out, _ = run_cli(capsys, "qubits", "--n", n)
        assert code == 0
        assert json.loads(out)["zalka_qubits"] == 1154

    def test_repeat_invocations_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "qubits", "--n", "21")
        _, second, _ = run_cli(capsys, "qubits", "--n", "21")
        assert first == second

    def test_hex_rejected(self, capsys):
        code, _, err = run_cli(capsys, "qubits", "--n", "0xf")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestCompileBase:
    def test_fifteen(self, capsys):
        code, out, _ = run_cli(capsys, "compile-base", "--p", "3", "--q", "5")
        assert code == 0
        payload = json.loads(out)
        assert [b["a"] for b in payload["bases"]] == ["4", "11"]
        assert all(b["period"] == 2 for b in payload["bases"])
        assert payload["n"] == "15"

    def test_composite_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile-base", "--p", "9", "--q", "5")
        assert code == 2
        assert "error" in json.loads(err)


class TestCircuit:
    def test_text_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--kind", "semiclassical",
            "--a", "7", "--n", "15", "--s", "4",
        )
        assert code == 0
        circuit = Circuit.from_text(out)
        assert circuit.num_readout_bits == 4
        assert circuit.multipliers[-1] == 7

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--kind", "compiled",
            "--p", "3", "--q", "5", "--format", "json",
        )
        assert code == 0
        circuit = Circuit.from_json(out)
        assert circuit.num_readout_bits == 1
        assert circuit.work_register_span == 2

    def test_json_output_is_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--kind", "semiclassical",
            "--a", "2", "--n", "33", "--s", "2", "--format", "json",
        )
        assert code == 0
        assert out == GOLDEN_CIRCUIT_JSON

    def test_too_many_readout_stages_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "circuit", "--kind",
                                 "semiclassical", "--a", "2", "--n", "337",
                                 "--s", "4097")
        elapsed = time.perf_counter() - start
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == {
            "type": "RefusedTooLargeError",
            "message": "s = 4097 readout stages exceeds the limit of 4096 "
                       "stages",
        }
        assert elapsed < 0.1

    def test_compiled_without_factors_rejected(self, capsys):
        code, _, err = run_cli(capsys, "circuit", "--kind", "compiled",
                               "--a", "4", "--n", "15")
        assert code == 2
        assert "needs --p and --q" in json.loads(err)["error"]["message"]

    def test_semiclassical_needs_base_and_modulus(self, capsys):
        code, _, err = run_cli(capsys, "circuit", "--kind", "semiclassical",
                               "--p", "3", "--q", "5")
        assert code == 2
        assert "error" in json.loads(err)


class TestSimulate:
    def test_deterministic(self, capsys):
        argv = ["simulate", "--kind", "semiclassical", "--a", "7",
                "--n", "15", "--s", "8", "--seed", "12"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        payload = json.loads(first)
        assert payload["y"] in {"0", "64", "128", "192"}
        assert len(payload["stages"]) == 8

    def test_different_seeds_differ_somewhere(self, capsys):
        outs = set()
        for seed in range(12):
            _, out, _ = run_cli(capsys, "simulate", "--kind", "semiclassical",
                                "--a", "7", "--n", "15", "--s", "8",
                                "--seed", str(seed))
            outs.add(json.loads(out)["y"])
        assert len(outs) > 1

    def test_seeded_output_is_pinned(self, capsys):
        # every byte, the p_one floats included
        code, out, err = run_cli(capsys, "simulate", "--kind",
                                 "semiclassical", "--a", "2", "--n", "337",
                                 "--s", "12", "--seed", "0")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "simulate_a2_n337_s12_seed0.json").read_text()

    def test_seeded_large_register_is_pinned(self, capsys):
        # r = 6000 columns over s = 32 stages, every p_one float
        code, out, err = run_cli(capsys, "simulate", "--kind",
                                 "semiclassical", "--a", "7", "--n", "60491",
                                 "--seed", "0")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "simulate_a7_n60491_seed0.json").read_text()


class TestDist:
    def test_compiled_is_unbiased(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--kind", "compiled",
                               "--p", "3", "--q", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["probabilities"] == {"0": 0.5, "1": 0.5}

    def test_compiled_prints_exact_halves(self, capsys):
        # s = 1 folds its one stage; 0.5 and 0.5 come out exact
        code, out, _ = run_cli(capsys, "dist", "--kind", "compiled",
                               "--p", "3", "--q", "5")
        assert code == 0
        assert out == ('{\n  "num_outcomes": 2,\n  "num_readout_bits": 1,\n'
                       '  "probabilities": {\n    "0": 0.5,\n    "1": 0.5\n'
                       '  }\n}\n')

    def test_compiled_large_modulus_is_unbiased(self, capsys):
        # two work values, so two cells, whatever the size of p*q
        code, out, _ = run_cli(capsys, "dist", "--kind", "compiled",
                               "--p", "1000003", "--q", "1000033")
        assert code == 0
        payload = json.loads(out)
        assert payload["probabilities"] == {"0": 0.5, "1": 0.5}

    def test_too_many_readout_bits_refused(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--kind", "semiclassical",
                               "--a", "7", "--n", "15", "--s", "21")
        assert code == 4
        assert json.loads(err)["error"]["type"] == "RefusedTooLargeError"

    def test_long_orbit_refusal_names_the_base(self, capsys):
        n = str((1 << 61) - 1)
        code, out, err = run_cli(capsys, "dist", "--kind", "semiclassical",
                                 "--a", "3", "--n", n, "--s", "4")
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == {
            "type": "RefusedTooLargeError",
            "message": f"work register span of a = 3 mod n = {n} "
                       f"exceeds 1048576",
        }


class TestFactor:
    def test_seeded_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "factor", "--n", "3127",
                                 "--seed", "0")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "factor_n3127_seed0.json").read_text()

    def test_honest_fifteen(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--n", "15",
                               "--mode", "honest", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == ["3", "5"]
        assert payload["mode"] == "honest-random-base"
        assert isinstance(payload["attempts"], int)
        assert payload["n"] == "15"

    def test_compiled_requires_factor_flags(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--n", "15",
                               "--mode", "compiled")
        assert code == 2
        assert json.loads(err)["error"]["type"] == \
            "CompilationRequiresFactorsError"

    def test_compiled_with_factors(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--p", "3", "--q", "7",
                               "--mode", "compiled", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == ["3", "7"]
        assert payload["period_found"] == 2

    def test_text_format_leads_with_honesty(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--p", "3", "--q", "5",
                               "--mode", "compiled", "--format", "text")
        assert code == 0
        assert out.splitlines()[0].startswith("HONESTY")

    def test_mismatched_n_and_factors_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--n", "16",
                               "--p", "3", "--q", "5")
        assert code == 2
        assert "disagrees" in json.loads(err)["error"]["message"]

    def test_coin_mode(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--p", "3", "--q", "5",
                               "--mode", "coin", "--seed", "0",
                               "--max-attempts", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "coin"
        assert payload["factors"] == ["3", "5"]

    @pytest.mark.parametrize("golden, argv", [
        ("factor_p3_q5_coin_seed5_attempts10.json",
         ["--q", "5", "--mode", "coin", "--seed", "5",
          "--max-attempts", "10"]),
        ("factor_p3_q5_coin_seed415_attempts10.json",  # all tails
         ["--q", "5", "--mode", "coin", "--seed", "415",
          "--max-attempts", "10"]),
        ("factor_p3_q7_compiled_seed3.json",
         ["--q", "7", "--mode", "compiled", "--seed", "3"]),
    ], ids=["coin", "coin-all-tails", "compiled"])
    def test_compiled_and_coin_output_is_pinned(self, capsys, golden, argv):
        code, out, err = run_cli(capsys, "factor", "--p", "3", *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("mode", ["compiled", "coin"])
    @pytest.mark.parametrize("s", ["0", "9"])
    def test_s_refused_outside_honest_mode(self, capsys, mode, s):
        code, out, err = run_cli(capsys, "factor", "--p", "3", "--q", "5",
                                 "--mode", mode, "--s", s)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "--s (s_override) applies to honest mode only" \
            in error["message"]

    def test_honest_orbit_guard(self, capsys):
        # 65537 x 274177: lambda = 70189056, and seed 0's first base
        # has an order above 2**20
        code, out, err = run_cli(capsys, "factor", "--n", "17968738049",
                                 "--mode", "honest", "--seed", "0")
        assert code == 4
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "RefusedTooLargeError"
        assert error["message"] == (
            "work register span of a = 16511666127 mod n = 17968738049 "
            "exceeds 1048576"
        )

    def test_honest_perfect_square_rejected(self, capsys):
        code, out, err = run_cli(capsys, "factor", "--n", "44521")
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "perfect square" in error["message"]

    @pytest.mark.parametrize("n,message", [
        ("65537", "65537 is prime"),
        ("1331", "1331 = 11**3 is a perfect power"),
        ("105", "105 splits as 3 x 35, but 35 is composite"),
    ])
    def test_honest_refuses_what_is_no_semiprime(self, capsys, n, message):
        code, out, err = run_cli(capsys, "factor", "--n", n)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert message in error["message"]


class TestCoinDemo:
    def test_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "coin-demo", "--p", "3", "--q", "5",
                               "--tosses", "10", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["coin_run"]["tosses"] == 10
        assert payload["coin_run"]["heads"] == 3
        assert payload["report"]["factors"] == ["3", "5"]
        assert payload["report"]["period_found"] == 2

    def test_seeded_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "coin-demo", "--p", "3", "--q", "5",
                                 "--tosses", "10", "--seed", "0")
        assert (code, err) == (0, "")
        assert out == \
            (GOLDEN / "coin_demo_p3_q5_tosses10_seed0.json").read_text()

    def test_deterministic(self, capsys):
        argv = ["coin-demo", "--p", "3", "--q", "5", "--tosses", "20",
                "--seed", "9"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestVerifySupplementary:
    def test_shipped_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-supplementary",
                               "--fixture", "rsa768")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["n_bits"] == 768
        assert all(c["ok"] for c in payload["checks"])

    def test_n20000_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-supplementary",
                               "--fixture", "n20000")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_fixture_dir_flag(self, capsys, tmp_path):
        shutil.copytree(fixture_root() / "rsa768", tmp_path / "mycopy")
        code, out, _ = run_cli(capsys, "verify-supplementary",
                               "--fixture", "mycopy",
                               "--fixture-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_tampered_fixture_exits_three(self, capsys, tmp_path):
        broken = tmp_path / "tampered"
        shutil.copytree(fixture_root() / "rsa768", broken)
        text = (broken / "a2.txt").read_text().rstrip()
        flipped = str((int(text[-1]) + 1) % 10)
        (broken / "a2.txt").write_text(text[:-1] + flipped)
        code, out, err = run_cli(capsys, "verify-supplementary",
                                 "--fixture", str(broken))
        assert code == 3
        assert json.loads(out)["passed"] is False
        assert json.loads(err)["error"]["type"] == "VerificationError"

    def test_missing_fixture_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-supplementary",
                               "--fixture", "nope")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestUsageErrors:
    @pytest.mark.parametrize("argv, work", [
        (["simulate", "--kind", "semiclassical", "--a", "2", "--n", "15",
          "--s", "4"], "run_circuit"),
        (["factor", "--n", "15"], "run_full_algorithm"),
        (["coin-demo", "--p", "3", "--q", "5"], "coin_factor_demo"),
    ], ids=["simulate", "factor", "coin-demo"])
    def test_negative_seed_refused_before_work(self, capsys, monkeypatch,
                                               argv, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran with a negative seed")

        monkeypatch.setattr(cli, work, no_work)
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "--seed" in error["message"]

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "qubits", "--modulus", "15")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "teleport")
        assert code == 2

    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "factor" in out
