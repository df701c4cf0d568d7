"""Factoring-demonstration toolkit.

Honest state-vector simulation of period finding with a recycled
readout qubit wherever the period is short, the compiled two-qubit
shortcut for arbitrarily large moduli, the coin-toss reduction of that
shortcut, and reporting that always states the size of the period
actually found next to the size of the modulus.
"""

from .compiler import (
    Circuit,
    CompiledBase,
    QubitBudget,
    build_compiled_circuit,
    build_semiclassical_stages,
    default_s,
    find_period2_base,
    find_period2_bases,
    work_orbit,
    zalka_qubit_count,
)
from .errors import (
    CompilationRequiresFactorsError,
    DomainError,
    NotCompilableError,
    RefusedTooLargeError,
    ShorsimError,
    SimulationError,
    VerificationError,
)
from .fixtures import (
    SupplementaryFixture,
    fixture_root,
    load_fixture,
    verify_fixture,
)
from .numtheory import (
    Semiprime,
    is_probable_prime,
    multiplicative_order,
    parse_decimal,
    to_decimal,
)
from .postprocess import (
    AttemptRecord,
    CoinRun,
    FactorReport,
    coin_factor_demo,
    derive_factors,
    extract_period,
    run_full_algorithm,
)
from .simulator import (
    OutcomeDistribution,
    control_reduced_density,
    dft_oracle_distribution,
    output_distribution,
    run_circuit,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CompiledBase",
    "QubitBudget",
    "build_compiled_circuit",
    "build_semiclassical_stages",
    "default_s",
    "find_period2_base",
    "find_period2_bases",
    "work_orbit",
    "zalka_qubit_count",
    "CompilationRequiresFactorsError",
    "DomainError",
    "NotCompilableError",
    "RefusedTooLargeError",
    "ShorsimError",
    "SimulationError",
    "VerificationError",
    "SupplementaryFixture",
    "fixture_root",
    "load_fixture",
    "verify_fixture",
    "Semiprime",
    "is_probable_prime",
    "multiplicative_order",
    "parse_decimal",
    "to_decimal",
    "AttemptRecord",
    "CoinRun",
    "FactorReport",
    "coin_factor_demo",
    "derive_factors",
    "extract_period",
    "run_full_algorithm",
    "OutcomeDistribution",
    "control_reduced_density",
    "dft_oracle_distribution",
    "output_distribution",
    "run_circuit",
    "total_variation",
    "__version__",
]
