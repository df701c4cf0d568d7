"""Factoring-demonstration toolkit.

Honest state-vector simulation of period finding with a recycled
readout qubit wherever the period is short, the compiled two-qubit
shortcut for arbitrarily large moduli, the coin-toss reduction of that
shortcut, and reporting that always states the size of the period
actually found next to the size of the modulus.
"""

from .coinlab import (
    CoinRun,
    chi_square_binomial,
    chi_square_critical,
    chi_square_heads_tails,
    coin_factor_demo,
)
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
    CircuitFormatError,
    CompilationRequiresFactorsError,
    DomainError,
    NotCompilableError,
    NotInvertibleError,
    RefusedTooLargeError,
    ShorsimError,
    SimulationError,
    VerificationError,
)
from .fixtures import (
    FIXTURE_ENV,
    SupplementaryFixture,
    fixture_root,
    load_fixture,
    verify_fixture,
)
from .numtheory import (
    Convergent,
    Semiprime,
    continued_fraction_convergents,
    gcd,
    is_probable_prime,
    mod_inverse,
    mod_pow,
    multiplicative_order,
    parse_decimal,
    random_probable_prime,
    to_decimal,
)
from .postprocess import (
    AttemptRecord,
    FactorReport,
    PeriodCandidate,
    compose_honesty_note,
    derive_factors,
    extract_period,
    odd_period_rescue,
    run_full_algorithm,
)
from .simulator import (
    OutcomeDistribution,
    StageRecord,
    control_reduced_density,
    dft_oracle_distribution,
    output_distribution,
    run_circuit,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "CoinRun",
    "chi_square_binomial",
    "chi_square_critical",
    "chi_square_heads_tails",
    "coin_factor_demo",
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
    "CircuitFormatError",
    "CompilationRequiresFactorsError",
    "DomainError",
    "NotCompilableError",
    "NotInvertibleError",
    "RefusedTooLargeError",
    "ShorsimError",
    "SimulationError",
    "VerificationError",
    "FIXTURE_ENV",
    "SupplementaryFixture",
    "fixture_root",
    "load_fixture",
    "verify_fixture",
    "Convergent",
    "Semiprime",
    "continued_fraction_convergents",
    "gcd",
    "is_probable_prime",
    "mod_inverse",
    "mod_pow",
    "multiplicative_order",
    "parse_decimal",
    "random_probable_prime",
    "to_decimal",
    "AttemptRecord",
    "FactorReport",
    "PeriodCandidate",
    "compose_honesty_note",
    "derive_factors",
    "extract_period",
    "odd_period_rescue",
    "run_full_algorithm",
    "OutcomeDistribution",
    "StageRecord",
    "control_reduced_density",
    "dft_oracle_distribution",
    "output_distribution",
    "run_circuit",
    "total_variation",
    "__version__",
]
