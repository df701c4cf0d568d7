"""Command-line front end.

Subcommands cover the pipeline end to end: qubit budgets, CRT base
compilation, circuit dumps, seeded single-shot simulation, exact output
distributions, full factoring runs, the coin demo, and verification of
the shipped large-number fixtures.

Conventions: flags spelled in full (abbreviations are refused), JSON
on standard output with sorted keys, large integers written as decimal
strings, a machine-readable error object on standard error when
something fails. Every integer flag takes ASCII decimal digits of any
length, whitespace ignored as in fixture files; a sign, an underscore,
a hex prefix or a non-ASCII digit exits 2 with an error naming the
flag. Exit codes: 0 success, 2 usage or bad input, 3 verification
failure, 4 refused-as-too-large, 141 a result not written because the
reader closed standard output (quietly, as a writer ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
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
from .errors import DomainError, RefusedTooLargeError, VerificationError
from .fixtures import load_fixture, verify_fixture
from .numtheory import Semiprime, parse_decimal, to_decimal
from .postprocess import run_full_algorithm
from .simulator import output_distribution, run_circuit

_JSON_KW = {"indent": 2, "sort_keys": True}

# Every integer flag, in reading order: of two bad ones, the first is named
_INT_FLAGS = ("n", "p", "q", "a", "s", "seed", "tosses")


def _print_json(payload) -> None:
    print(json.dumps(payload, **_JSON_KW))


def _emit_error(exc: BaseException) -> None:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(obj, **_JSON_KW), file=sys.stderr)


def _dec(text: str, flag: str) -> int:
    try:
        return parse_decimal(text)
    except DomainError:
        raise DomainError(f"{flag} expects a plain decimal integer, "
                          f"got {text!r}") from None


def _semiprime_from_args(args) -> Semiprime:
    n, p, q = (getattr(args, name, None) for name in "npq")
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
    compiled = args.kind == "compiled"
    if compiled and (args.p is None or args.q is None):
        raise DomainError("--kind compiled needs --p and --q")
    if not compiled and (args.a is None or args.n is None):
        raise DomainError("--kind semiclassical needs --a and --n")
    stray = [f"--{name}" for name in (("a", "n", "s") if compiled
                                      else ("p", "q"))
             if getattr(args, name) is not None]
    if stray:
        raise DomainError(f"--kind {args.kind} takes no {', '.join(stray)}")
    if compiled:
        return build_compiled_circuit(
            find_period2_base(_semiprime_from_args(args)))
    return build_semiclassical_stages(args.a, args.n, args.s)


def _add_circuit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=("compiled", "semiclassical"),
                     required=True)
    sub.add_argument("--p", help="first prime factor (compiled)")
    sub.add_argument("--q", help="second prime factor (compiled)")
    sub.add_argument("--a", help="base (semiclassical)")
    sub.add_argument("--n", help="modulus (semiclassical)")
    sub.add_argument("--s", default=None,
                     help="readout stages (semiclassical; default fits n**2)")


def _cmd_qubits(args) -> int:
    _print_json({"n": to_decimal(args.n),
                 **zalka_qubit_count(args.n).to_json_dict()})
    return 0


def _cmd_compile_base(args) -> int:
    sp = _semiprime_from_args(args)
    bases = find_period2_bases(sp)
    _print_json({
        "n": to_decimal(sp.n),
        "p": to_decimal(sp.factors[0]),
        "q": to_decimal(sp.factors[1]),
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
        _print_json(circuit.to_json_dict())
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
    report = run_full_algorithm(sp, mode=args.mode, seed=args.seed)
    if args.format == "text":
        sys.stdout.write(report.render_text())
    else:
        _print_json(report.to_json_dict())
    return 0


def _cmd_coin_demo(args) -> int:
    sp = _semiprime_from_args(args)
    run, report = coin_factor_demo(sp, n_tosses=args.tosses, seed=args.seed)
    _print_json({
        "coin_run": run.to_json_dict(),
        "report": report.to_json_dict(),
    })
    return 0


def _cmd_verify_supplementary(args) -> int:
    fixture = load_fixture(args.fixture)
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


def _add_subcommand(sub, name: str, handler, help: str):
    """A subcommand parser that refuses abbreviated flags and keeps
    itself in the namespace, to report flags it does not know."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.set_defaults(handler=handler, subparser=parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shorsim",
        description="Factoring-demonstration toolkit: honest simulation "
                    "of short periods, the compiled shortcut, and the coin "
                    "toss it reduces to.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qubits = _add_subcommand(sub, "qubits", _cmd_qubits,
                               "qubit budget for a modulus")
    p_qubits.add_argument("--n", required=True)

    p_cb = _add_subcommand(sub, "compile-base", _cmd_compile_base,
                           "both period-2 bases for known factors")
    p_cb.add_argument("--p", required=True)
    p_cb.add_argument("--q", required=True)

    p_circuit = _add_subcommand(sub, "circuit", _cmd_circuit,
                                "dump a circuit")
    _add_circuit_flags(p_circuit)
    p_circuit.add_argument("--format", choices=("text", "json"),
                           default="text")

    p_sim = _add_subcommand(sub, "simulate", _cmd_simulate,
                            "run one seeded shot")
    _add_circuit_flags(p_sim)
    p_sim.add_argument("--seed", default="0")

    p_dist = _add_subcommand(sub, "dist", _cmd_dist,
                             "exact readout distribution")
    _add_circuit_flags(p_dist)

    p_factor = _add_subcommand(sub, "factor", _cmd_factor,
                               "full factoring run")
    p_factor.add_argument("--n", default=None)
    p_factor.add_argument("--p", default=None)
    p_factor.add_argument("--q", default=None)
    p_factor.add_argument("--mode", choices=("honest", "compiled", "coin"),
                          default="honest")
    p_factor.add_argument("--seed", default="0")
    p_factor.add_argument("--format", choices=("json", "text"),
                          default="json")

    p_coin = _add_subcommand(sub, "coin-demo", _cmd_coin_demo,
                             "factor with a fair coin")
    p_coin.add_argument("--p", required=True)
    p_coin.add_argument("--q", required=True)
    p_coin.add_argument("--tosses", default="10")
    p_coin.add_argument("--seed", default="0")

    p_ver = _add_subcommand(sub, "verify-supplementary",
                            _cmd_verify_supplementary,
                            "check a shipped or external fixture")
    p_ver.add_argument("--fixture", required=True,
                       help="packaged fixture name, else a directory path")

    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # parse_args would report a stray flag with the top-level usage;
        # shorsim itself takes only -h, so anything before the
        # subcommand is stray there
        args, stray = parser.parse_known_args(argv)
        if stray:
            owner = (parser if argv.index(args.command) > 0
                     else args.subparser)
            owner.error(f"unrecognized arguments: {' '.join(stray)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for name in _INT_FLAGS:
            if getattr(args, name, None) is not None:
                setattr(args, name, _dec(getattr(args, name), f"--{name}"))
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output. Exit as a writer that SIGPIPE
        # ended would, and send what is still buffered to os.devnull, so
        # the interpreter's flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except RefusedTooLargeError as exc:
        _emit_error(exc)
        return 4
    except VerificationError as exc:
        _emit_error(exc)
        return 3
    except DomainError as exc:
        _emit_error(exc)
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
