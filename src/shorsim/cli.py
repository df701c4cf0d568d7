"""Command-line front end.

Subcommands cover the pipeline end to end: qubit budgets, CRT base
compilation, circuit dumps, seeded single-shot simulation, exact output
distributions, full factoring runs, the coin demo, and verification of
the shipped large-number fixtures.

Conventions: decimal-only integer flags (hex is rejected), JSON on
standard output with sorted keys, arbitrarily large integers rendered
as decimal strings, a machine-readable error object on standard error
when something fails. Exit codes: 0 success, 2 usage or bad input,
3 verification failure, 4 refused-as-too-large.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .coinlab import coin_factor_demo
from .compiler import (
    build_compiled_circuit,
    build_semiclassical_stages,
    find_period2_base,
    find_period2_bases,
    zalka_qubit_count,
)
from .errors import (
    CircuitFormatError,
    DomainError,
    RefusedTooLargeError,
    VerificationError,
)
from .fixtures import load_fixture, verify_fixture
from .numtheory import Semiprime, parse_decimal, to_decimal
from .postprocess import DEFAULT_MAX_ATTEMPTS, run_full_algorithm
from .simulator import output_distribution, run_circuit

_JSON_KW = {"indent": 2, "sort_keys": True}


def _print_json(payload) -> None:
    print(json.dumps(payload, **_JSON_KW))


def _emit_error(exc: BaseException) -> None:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(obj, **_JSON_KW), file=sys.stderr)


def _dec(text: str, flag: str) -> int:
    try:
        return parse_decimal(text)
    except DomainError:
        raise DomainError(
            f"{flag} expects a plain decimal integer, got {text!r}"
        ) from None


def _semiprime_from_args(args) -> Semiprime:
    n = _dec(args.n, "--n") if args.n is not None else None
    p = _dec(args.p, "--p") if getattr(args, "p", None) is not None else None
    q = _dec(args.q, "--q") if getattr(args, "q", None) is not None else None
    if p is not None and q is not None:
        sp = Semiprime.from_factors(p, q)
        if n is not None and sp.n != n:
            raise DomainError("--n disagrees with --p * --q")
        return sp
    if p is not None or q is not None:
        raise DomainError("--p and --q must be given together")
    if n is None:
        raise DomainError("need --n, or --p with --q")
    return Semiprime(n)


def _circuit_from_args(args):
    if args.kind == "compiled":
        if args.p is None or args.q is None:
            raise DomainError("--kind compiled needs --p and --q")
        sp = Semiprime.from_factors(_dec(args.p, "--p"), _dec(args.q, "--q"))
        return build_compiled_circuit(find_period2_base(sp))
    if args.a is None or args.n is None:
        raise DomainError("--kind semiclassical needs --a and --n")
    a = _dec(args.a, "--a")
    n = _dec(args.n, "--n")
    return build_semiclassical_stages(a, n, args.s)


def _add_circuit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=("compiled", "semiclassical"),
                     required=True)
    sub.add_argument("--p", help="first prime factor (compiled)")
    sub.add_argument("--q", help="second prime factor (compiled)")
    sub.add_argument("--a", help="base (semiclassical)")
    sub.add_argument("--n", help="modulus (semiclassical)")
    sub.add_argument("--s", type=int, default=None,
                     help="readout stages (semiclassical; default fits n**2)")


def _cmd_qubits(args) -> int:
    n = _dec(args.n, "--n")
    budget = zalka_qubit_count(n)
    _print_json({
        "n": to_decimal(n),
        "n_bits": budget.n_bits,
        "zalka_qubits": budget.zalka_qubits,
        "compiled_qubits": budget.compiled_qubits,
    })
    return 0


def _cmd_compile_base(args) -> int:
    sp = Semiprime.from_factors(_dec(args.p, "--p"), _dec(args.q, "--q"))
    bases = find_period2_bases(sp)
    _print_json({
        "n": to_decimal(sp.n),
        "p": to_decimal(min(sp.factors)),
        "q": to_decimal(max(sp.factors)),
        "bases": [
            {
                "a": to_decimal(b.a),
                "period": b.period,
                "sign_choice": list(b.sign_choice) if b.sign_choice else None,
            }
            for b in bases
        ],
    })
    return 0


def _cmd_circuit(args) -> int:
    circuit = _circuit_from_args(args)
    if args.format == "text":
        sys.stdout.write(circuit.to_text())
    else:
        print(circuit.to_json())
    return 0


def _cmd_simulate(args) -> int:
    circuit = _circuit_from_args(args)
    y, stages = run_circuit(circuit, args.seed)
    _print_json({
        "y": to_decimal(y),
        "bits": [rec.bit for rec in stages],
        "num_readout_bits": circuit.num_readout_bits,
        "work_register_span": circuit.work_register_span,
        "seed": to_decimal(args.seed),
        "stages": [
            {
                "stage": rec.stage,
                "multiplier": to_decimal(rec.multiplier),
                "feedback_phase": rec.phase,
                "p_one": rec.p_one,
                "bit": rec.bit,
            }
            for rec in stages
        ],
    })
    return 0


def _cmd_dist(args) -> int:
    circuit = _circuit_from_args(args)
    dist = output_distribution(circuit)
    _print_json({
        "num_outcomes": len(dist),
        "num_readout_bits": circuit.num_readout_bits,
        "probabilities": {
            to_decimal(y): p for y, p in dist.as_dict().items()
        },
    })
    return 0


def _cmd_factor(args) -> int:
    sp = _semiprime_from_args(args)
    report = run_full_algorithm(
        sp,
        mode=args.mode,
        s_override=args.s,
        seed=args.seed,
        max_attempts=args.max_attempts,
    )
    if args.format == "text":
        sys.stdout.write(report.render_text())
    else:
        _print_json(report.to_json_dict())
    return 0


def _cmd_coin_demo(args) -> int:
    sp = Semiprime.from_factors(_dec(args.p, "--p"), _dec(args.q, "--q"))
    run, report = coin_factor_demo(sp, n_tosses=args.tosses, seed=args.seed)
    _print_json({
        "coin_run": run.to_json_dict(),
        "report": report.to_json_dict(),
    })
    return 0


def _cmd_verify_supplementary(args) -> int:
    fixture = load_fixture(args.fixture, root=args.fixture_dir)
    checks = verify_fixture(fixture)
    passed = all(ok for _, ok in checks)
    _print_json({
        "fixture": fixture.name,
        "n_bits": fixture.n.bit_length(),
        "num_bases": len(fixture.bases),
        "checks": [{"check": label, "ok": ok} for label, ok in checks],
        "passed": passed,
    })
    if not passed:
        failed = [label for label, ok in checks if not ok]
        raise VerificationError(
            f"fixture {fixture.name!r} failed: " + "; ".join(failed)
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shorsim",
        description="Factoring-demonstration toolkit: honest simulation "
                    "of short periods, the compiled shortcut, and the coin "
                    "toss it reduces to.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qubits = sub.add_parser("qubits", help="qubit budget for a modulus")
    p_qubits.add_argument("--n", required=True)
    p_qubits.set_defaults(handler=_cmd_qubits)

    p_cb = sub.add_parser("compile-base",
                          help="both period-2 bases for known factors")
    p_cb.add_argument("--p", required=True)
    p_cb.add_argument("--q", required=True)
    p_cb.set_defaults(handler=_cmd_compile_base)

    p_circuit = sub.add_parser("circuit", help="dump a circuit")
    _add_circuit_flags(p_circuit)
    p_circuit.add_argument("--format", choices=("text", "json"),
                           default="text")
    p_circuit.set_defaults(handler=_cmd_circuit)

    p_sim = sub.add_parser("simulate", help="run one seeded shot")
    _add_circuit_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_dist = sub.add_parser("dist", help="exact readout distribution")
    _add_circuit_flags(p_dist)
    p_dist.set_defaults(handler=_cmd_dist)

    p_factor = sub.add_parser("factor", help="full factoring run")
    p_factor.add_argument("--n", default=None)
    p_factor.add_argument("--p", default=None)
    p_factor.add_argument("--q", default=None)
    p_factor.add_argument("--mode", choices=("honest", "compiled", "coin"),
                          default="honest")
    p_factor.add_argument("--s", type=int, default=None)
    p_factor.add_argument("--seed", type=int, default=0)
    p_factor.add_argument("--max-attempts", type=int,
                          default=DEFAULT_MAX_ATTEMPTS)
    p_factor.add_argument("--format", choices=("json", "text"),
                          default="json")
    p_factor.set_defaults(handler=_cmd_factor)

    p_coin = sub.add_parser("coin-demo", help="factor with a fair coin")
    p_coin.add_argument("--p", required=True)
    p_coin.add_argument("--q", required=True)
    p_coin.add_argument("--tosses", type=int, default=10)
    p_coin.add_argument("--seed", type=int, default=0)
    p_coin.set_defaults(handler=_cmd_coin_demo)

    p_ver = sub.add_parser("verify-supplementary",
                           help="check a shipped or external fixture")
    p_ver.add_argument("--fixture", required=True,
                       help="fixture name or directory path")
    p_ver.add_argument("--fixture-dir", default=None,
                       help="override the fixture root "
                            "(default: packaged, or SHORSIM_FIXTURE_DIR)")
    p_ver.set_defaults(handler=_cmd_verify_supplementary)

    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be nonnegative, got {args.seed}")
        return args.handler(args)
    except RefusedTooLargeError as exc:
        _emit_error(exc)
        return 4
    except VerificationError as exc:
        _emit_error(exc)
        return 3
    except (DomainError, CircuitFormatError) as exc:
        _emit_error(exc)
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
