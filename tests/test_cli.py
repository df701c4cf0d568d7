"""Command-line behavior: outputs, determinism, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shorsim import cli
from shorsim.cli import main
from shorsim.fixtures import fixture_root

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = str(Path(cli.__file__).resolve().parents[1])

# A valid call for each integer flag of each subcommand that takes it,
# with that flag's value left as {}
_INT_FLAG_CALLS = [
    ("qubits --n {}", "--n"),
    ("compile-base --p {} --q 5", "--p"),
    ("compile-base --p 3 --q {}", "--q"),
    *((f"{command} --kind compiled --p {p} --q {q}", flag)
      for command in ("circuit", "simulate", "dist")
      for p, q, flag in (("{}", "5", "--p"), ("3", "{}", "--q"))),
    *((f"{command} --kind semiclassical --a {a} --n {n} --s {s}", flag)
      for command in ("circuit", "simulate", "dist")
      for a, n, s, flag in (("{}", "15", "4", "--a"),
                            ("2", "{}", "4", "--n"),
                            ("2", "15", "{}", "--s"))),
    ("simulate --kind compiled --p 3 --q 5 --seed {}", "--seed"),
    ("factor --n {}", "--n"),
    ("factor --p {} --q 5", "--p"),
    ("factor --p 3 --q {}", "--q"),
    ("factor --n 15 --seed {}", "--seed"),
    ("coin-demo --p {} --q 5", "--p"),
    ("coin-demo --p 3 --q {}", "--q"),
    ("coin-demo --p 3 --q 5 --tosses {}", "--tosses"),
    ("coin-demo --p 3 --q 5 --seed {}", "--seed"),
]


def _call_id(call, flag):
    words = call.split()
    kind = [words[2]] if words[1] == "--kind" else []
    return "-".join([words[0], *kind, flag[2:]])


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


def child_env():
    """This environment, with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


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
    def test_text_lists_each_stage_multiplier(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--kind", "semiclassical",
            "--a", "7", "--n", "15", "--s", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert [line for line in lines if line.startswith("CMODMUL")] == [
            f"CMODMUL {pow(7, 2 ** (4 - k), 15)} 15" for k in range(1, 5)]

    def test_json_compiled_gate_squares_to_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "circuit", "--kind", "compiled",
            "--p", "3", "--q", "5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["num_readout_bits"], doc["work_register_span"]) == (1, 2)
        (gate,) = [g for g in doc["gates"] if g["gate"] == "CMODMUL"]
        multiplier = int(gate["multiplier"])
        assert gate["modulus"] == "15"
        assert multiplier not in (1, 14)
        assert multiplier ** 2 % 15 == 1

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

    @pytest.mark.parametrize("argv, stray", [
        (["circuit", "--kind", "compiled", "--p", "3", "--q", "5",
          "--s", "4"], "--kind compiled takes no --s"),
        (["simulate", "--kind", "compiled", "--p", "3", "--q", "5",
          "--a", "7", "--n", "21"], "--kind compiled takes no --a, --n"),
        (["circuit", "--kind", "semiclassical", "--a", "7", "--n", "15",
          "--p", "3"], "--kind semiclassical takes no --p"),
        (["dist", "--kind", "semiclassical", "--a", "7", "--n", "15",
          "--s", "2", "--q", "5"], "--kind semiclassical takes no --q"),
    ], ids=["circuit-compiled", "simulate-compiled", "circuit-semiclassical",
            "dist-semiclassical"])
    def test_other_kinds_flags_refused(self, capsys, argv, stray):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "DomainError",
                                            "message": stray}

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

    def test_too_many_cells_refused(self, capsys):
        # r = 32759, so 2**11 * r = 67090432 cells, past MAX_DIST_CELLS
        code, out, err = run_cli(capsys, "dist", "--kind", "semiclassical",
                                 "--a", "2", "--n", "65519", "--s", "11")
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == {
            "type": "RefusedTooLargeError",
            "message": "exact enumeration refused: 67090432 amplitude "
                       "cells exceeds 33554432",
        }

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


# SHA-256 of exit code, stdout and stderr of `factor` at seeds 0-19,
# in JSON and in text, per mode and modulus (p x q = 15, 21, 3127)
FACTOR_DIGESTS = {
    ("honest", 15):
        "473e5e15a26423759c397dd4e1c66c10bb077d6f1aca2b5525816d46a4d9e3f4",
    ("honest", 21):
        "08a987797c07504c5a8ef9d2e9945868633f7d6bd803435921d4b25170ec1fa9",
    ("honest", 3127):
        "11c4534e8bc74d3fcfc763cf0feaa5fa6d842686a43780ee354e70dcb42a54cd",
    ("compiled", 15):
        "aa13f3f4bf3ec7bcc38c4e1b7cb85bd1982082e41268e28ca57c4c4d9bb44ae3",
    ("compiled", 21):
        "c982a9087c95f90646e1b9258f8e7a335a6ee4e53290f0270253a22a75fb60fd",
    ("compiled", 3127):
        "386e4ef930abfead13638a07cc44344cf197e4b630cf44c6cc0901707f39eb06",
    ("coin", 15):
        "801f32c714e2a1b40d6d786c59aec4cb970035e38fa247b27dbbe1b0ec46813d",
    ("coin", 21):
        "cbee2e374fe56cc656ec452e23322ad24f081030a3ce94aaec7b2c95f058c8ab",
    ("coin", 3127):
        "73fc9396171d47188eb0a8e99e70505419901b353272e9dca87894286182c748",
}
FACTORS = {15: (3, 5), 21: (3, 7), 3127: (53, 59)}


class TestFactor:
    def test_seeded_output_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, "factor", "--n", "3127",
                                 "--seed", "0")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "factor_n3127_seed0.json").read_text()

    @pytest.mark.parametrize("mode, n", list(FACTOR_DIGESTS))
    def test_twenty_seeds_are_pinned(self, capsys, mode, n):
        p, q = FACTORS[n]
        modulus = ["--n", str(n)] if mode == "honest" else \
            ["--p", str(p), "--q", str(q)]
        digest = hashlib.sha256()
        for seed in range(20):
            for fmt in ("json", "text"):
                code, out, err = run_cli(capsys, "factor", "--mode", mode,
                                         "--seed", str(seed), "--format",
                                         fmt, *modulus)
                digest.update(f"{code}\n{out}\n{err}\n".encode())
        assert digest.hexdigest() == FACTOR_DIGESTS[mode, n]

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
                               "--mode", "coin", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "coin"
        assert payload["factors"] == ["3", "5"]

    @pytest.mark.parametrize("golden, argv", [
        ("factor_p3_q5_coin_seed5.json",
         ["--q", "5", "--mode", "coin", "--seed", "5"]),
        ("factor_p3_q7_compiled_seed3.json",
         ["--q", "7", "--mode", "compiled", "--seed", "3"]),
    ], ids=["coin", "compiled"])
    def test_compiled_and_coin_output_is_pinned(self, capsys, golden, argv):
        code, out, err = run_cli(capsys, "factor", "--p", "3", *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("modulus", [
        ["--n", "15"],
        ["--p", "3", "--q", "5", "--mode", "compiled"],
        ["--p", "3", "--q", "5", "--mode", "coin"],
    ], ids=["honest", "compiled", "coin"])
    def test_takes_no_readout_size_attempt_count_or_abbreviation(
            self, capsys, modulus):
        # --s and --se would otherwise be read as abbreviations of --seed
        for extra in (["--s", "8"], ["--max-attempts", "10"],
                      ["--s", "3"], ["--se", "3"]):
            code, out, err = run_cli(capsys, "factor", *modulus, *extra)
            assert (code, out) == (2, ""), extra
            assert f"unrecognized arguments: {' '.join(extra)}" in err

    @pytest.mark.parametrize("argv, message", [
        (["--p", "3"], "--p and --q must be given together"),
        ([], "need --n, or --p with --q"),
    ], ids=["p-without-q", "no-modulus"])
    def test_needs_a_whole_modulus(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "factor", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "DomainError",
                                            "message": message}

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

    def test_all_tails_report_is_pinned(self, capsys):
        # seed 415 tosses ten tails: the report says no period was found
        code, out, err = run_cli(capsys, "coin-demo", "--p", "3", "--q", "5",
                                 "--tosses", "10", "--seed", "415")
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["factors"] is None
        golden = GOLDEN / "coin_demo_p3_q5_tosses10_seed415_report.json"
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == \
            golden.read_text()

    @pytest.mark.parametrize("tosses", ["9223372036854775808", "9" * 5000],
                             ids=["past-sys-maxsize",
                                  "past-the-conversion-limit"])
    def test_toss_count_past_the_bound_is_refused(self, capsys, tosses):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "coin-demo", "--p", "3", "--q", "5",
                                 "--tosses", tosses)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == {
            "type": "RefusedTooLargeError",
            "message": f"a coin run of {tosses} tosses exceeds the limit of "
                       "16777216 tosses"}

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

    def test_fixture_path_to_a_copy(self, capsys, tmp_path):
        shutil.copytree(fixture_root() / "rsa768", tmp_path / "mycopy")
        code, out, _ = run_cli(capsys, "verify-supplementary",
                               "--fixture", str(tmp_path / "mycopy"))
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["fixture"] == "mycopy"

    def test_local_directory_cannot_shadow_a_packaged_name(
            self, capsys, tmp_path, monkeypatch):
        (tmp_path / "rsa768").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "verify-supplementary",
                               "--fixture", "rsa768")
        assert code == 0
        payload = json.loads(out)
        assert (payload["passed"], payload["n_bits"]) == (True, 768)

    def test_no_environment_variable_moves_the_packaged_root(
            self, capsys, monkeypatch):
        # every SHORSIM_* variable reads as a directory that is not there
        class Everywhere(dict):
            def get(self, key, default=None):
                if key.startswith("SHORSIM_"):
                    return "/nonexistent"
                return super().get(key, default)

        monkeypatch.setattr(os, "environ", Everywhere(os.environ))
        code, out, _ = run_cli(capsys, "verify-supplementary",
                               "--fixture", "rsa768")
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

    @pytest.mark.parametrize("call, flag", _INT_FLAG_CALLS,
                             ids=[_call_id(*case) for case in _INT_FLAG_CALLS])
    @pytest.mark.parametrize("spelling", ["1_0", "+3", "\u0663", "-1",
                                          "0x10"],
                             ids=["underscore", "plus", "arabic-indic-3",
                                  "minus", "hex"])
    def test_integer_flags_take_plain_decimal_only(self, capsys, call, flag,
                                                   spelling):
        # one rule for every integer flag: ASCII digits, nothing else
        argv = [spelling if token == "{}" else token
                for token in call.split()]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].split()[0] == flag

    def test_seed_of_any_length_is_echoed(self, capsys):
        # past the interpreter's 4300-digit int/str conversion limit
        seed = "7" * 5000
        code, out, _ = run_cli(capsys, "simulate", "--kind", "compiled",
                               "--p", "3", "--q", "5", "--seed", seed)
        assert code == 0
        assert json.loads(out)["seed"] == seed

    @pytest.mark.parametrize("argv", [
        ["factor", "--p", "3", "--q", "5", "--mode", "coin"],
        ["factor", "--n", "15"],
    ], ids=["coin", "honest"])
    def test_text_report_echoes_a_seed_of_any_length(self, capsys, argv):
        seed = "7" * 5000
        code, out, _ = run_cli(capsys, *argv, "--format", "text",
                               "--seed", seed)
        assert code == 0
        assert out.splitlines()[-1] == f"seed     {seed}"

    @pytest.mark.parametrize("command", ["circuit", "simulate", "dist"])
    @pytest.mark.parametrize("n, s, status, error", [
        ("1" + "0" * 5000, "1", 2,
         {"type": "DomainError",
          "message": "2 shares a factor with 1" + "0" * 5000 + "; a free "
                     "factor should have been taken classically instead of "
                     "building a circuit"}),
        ("15", "1" + "0" * 5000, 4,
         {"type": "RefusedTooLargeError",
          "message": "s = 1" + "0" * 5000 + " readout stages exceeds the "
                     "limit of 4096 stages"}),
    ], ids=["modulus", "readout-bits"])
    def test_integers_past_the_conversion_limit_are_reported(
            self, capsys, command, n, s, status, error):
        code, out, err = run_cli(capsys, command, "--kind", "semiclassical",
                                 "--a", "2", "--n", n, "--s", s)
        assert (code, out) == (status, "")
        assert json.loads(err)["error"] == error

    def test_first_bad_flag_is_named_under_any_hash_seed(self):
        # with two bad flags, the one reported does not follow the
        # interpreter's string hashing
        env = child_env()
        argv = [sys.executable, "-m", "shorsim.cli", "coin-demo", "--p", "3",
                "--q", "5", "--tosses", "1_0", "--seed", "+3"]
        errors = set()
        for hash_seed in range(6):
            env["PYTHONHASHSEED"] = str(hash_seed)
            done = subprocess.run(argv, capture_output=True, text=True,
                                  env=env, timeout=60)
            assert (done.returncode, done.stdout) == (2, "")
            errors.add(done.stderr)
        assert len(errors) == 1
        message = json.loads(errors.pop())["error"]["message"]
        assert message.split()[0] == "--seed"

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "qubits", "--modulus", "15")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "teleport")
        assert code == 2

    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_top_level_flags_are_not_abbreviated(self, capsys):
        # --he would otherwise be read as --help
        code, out, err = run_cli(capsys, "--he")
        assert (code, out) == (2, "")
        assert err.startswith("usage: shorsim [-h]")

    @pytest.mark.parametrize("argv, prog, stray", [
        (["factor", "--n", "15", "--s", "3"], "shorsim factor", "--s 3"),
        (["simulate", "--kind", "compiled", "--p", "3", "--q", "5",
          "--bogus"], "shorsim simulate", "--bogus"),
        (["qubits", "--n", "15", "extra"], "shorsim qubits", "extra"),
    ], ids=["factor", "simulate", "qubits"])
    def test_stray_argument_is_reported_by_its_subcommand(
            self, capsys, argv, prog, stray):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(
            f"\n{prog}: error: unrecognized arguments: {stray}\n")

    def test_stray_argument_before_the_subcommand_is_reported_by_shorsim(
            self, capsys):
        # the top-level parser read --foo, so its usage is the one shown
        code, out, err = run_cli(capsys, "--foo", "factor", "--n", "15")
        assert (code, out) == (2, "")
        assert err.startswith("usage: shorsim [-h]")
        assert err.endswith(
            "\nshorsim: error: unrecognized arguments: --foo\n")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "factor" in out


class TestClosedOutput:
    @pytest.mark.parametrize("argv", [
        ["qubits", "--n", "15"],
        ["dist", "--kind", "semiclassical", "--a", "7", "--n", "15",
         "--s", "4"],
        ["simulate", "--kind", "compiled", "--p", "3", "--q", "5",
         "--seed", "7" * 5000],
        ["--help"],
        ["factor", "--help"],
    ], ids=["qubits", "dist", "simulate-long-seed", "help", "factor-help"])
    # buffered, the write fails in the flush at the end; unbuffered, in
    # the write itself, which argparse alone would swallow for help
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_exits_141_quietly_when_the_reader_is_gone(self, argv,
                                                       unbuffered):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes a byte
        try:
            done = subprocess.run(
                [sys.executable, "-m", "shorsim.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")
