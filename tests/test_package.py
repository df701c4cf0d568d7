"""The package's public surface, and what importing it costs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shorsim

SRC = str(Path(shorsim.__file__).resolve().parent.parent)

# Runs the argv given as JSON through cli.main with its output held
# back, then prints whether numpy was loaded after `import shorsim`,
# after `import shorsim.cli` and after the call, and the exit code.
_CHILD = """
import contextlib, io, json, sys
import shorsim
loaded = ["numpy" in sys.modules]
import shorsim.cli
loaded.append("numpy" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    code = shorsim.cli.main(json.loads(sys.argv[1]))
loaded.append("numpy" in sys.modules)
print(json.dumps({"code": code, "numpy": loaded}))
"""


def _numpy_loaded(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    return json.loads(done.stdout)


def test_public_surface():
    # each name is reached by the CLI, the README, the benchmark or the
    # acceptance tests, or is what one of those gets back; a new export
    # has to be added here on purpose
    assert sorted(shorsim.__all__) == [
        "AttemptRecord", "Circuit", "CircuitFormatError", "CoinRun",
        "CompilationRequiresFactorsError", "CompiledBase", "Convergent",
        "DomainError", "FIXTURE_ENV", "FactorReport", "NotCompilableError",
        "NotInvertibleError", "OutcomeDistribution", "PeriodCandidate",
        "QubitBudget", "RefusedTooLargeError", "Semiprime", "ShorsimError",
        "SimulationError", "StageRecord", "SupplementaryFixture",
        "VerificationError", "__version__", "build_compiled_circuit",
        "build_semiclassical_stages", "chi_square_binomial",
        "chi_square_critical", "chi_square_heads_tails", "coin_factor_demo",
        "compose_honesty_note", "continued_fraction_convergents",
        "control_reduced_density", "default_s", "derive_factors",
        "dft_oracle_distribution", "extract_period", "find_period2_base",
        "find_period2_bases", "fixture_root", "gcd", "is_probable_prime",
        "load_fixture", "mod_inverse", "mod_pow", "multiplicative_order",
        "odd_period_rescue", "output_distribution", "parse_decimal",
        "random_probable_prime", "run_circuit", "run_full_algorithm",
        "to_decimal", "total_variation", "verify_fixture", "work_orbit",
        "zalka_qubit_count",
    ]


def test_every_exported_name_resolves():
    missing = [name for name in shorsim.__all__
               if not hasattr(shorsim, name)]
    assert missing == []


@pytest.mark.parametrize("argv, code", [
    (["qubits", "--n", "15"], 0),
    (["compile-base", "--p", "3", "--q", "5"], 0),
    (["circuit", "--kind", "compiled", "--p", "3", "--q", "5",
      "--format", "text"], 0),
    (["circuit", "--kind", "semiclassical", "--a", "2", "--n", "33",
      "--s", "2", "--format", "json"], 0),
    (["verify-supplementary", "--fixture", "rsa768"], 0),
    (["dist", "--kind", "semiclassical", "--a", "3",
      "--n", str((1 << 61) - 1), "--s", "4"], 4),
], ids=["qubits", "compile-base", "circuit-text", "circuit-json",
        "verify-supplementary", "orbit-refusal"])
def test_calls_that_simulate_nothing_never_load_numpy(argv, code):
    assert _numpy_loaded(argv) == {"code": code,
                                   "numpy": [False, False, False]}


def test_simulate_loads_numpy():
    argv = ["simulate", "--kind", "semiclassical", "--a", "7", "--n", "15",
            "--s", "3", "--seed", "0"]
    assert _numpy_loaded(argv) == {"code": 0, "numpy": [False, False, True]}
