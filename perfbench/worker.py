"""Runs one workload's operations in a fresh interpreter.

Started by run.py as `python3 perfbench/worker.py SRC TRACE`. It puts
SRC first on sys.path, imports shorsim.cli (timed), then answers
pickled requests on stdin with pickled replies on stdout, one
operation at a time:

    (kind, args)  ->  (status, seconds, pace, result)
                      status "ok" or "error"; pace is the mean of the
                      reference task's time before and after (pace.py)
    "snapshot"    ->  the tracer's totals since the last snapshot
    None          ->  this process's peak RSS in MiB, then exit

Only the program call is timed; turning its result into plain data
for the checks happens after the clock stops.
"""

from __future__ import annotations

import io
import pickle
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from pace import reference_seconds


class Runner:
    def __init__(self, shorsim) -> None:
        self.shorsim = shorsim
        self.fixtures = {}

    def run(self, kind: str, args: dict):
        """Call the program; returns its raw result."""
        m = self.shorsim
        if kind == "factor":
            if "p" in args:
                sp = m.numtheory.Semiprime(args["n"], args["p"], args["q"])
            else:
                sp = m.numtheory.Semiprime(args["n"])
            return m.postprocess.run_full_algorithm(
                sp, mode=args["mode"], seed=args["seed"])
        if kind in ("dist", "density"):
            circuit = m.compiler.build_semiclassical_stages(
                args["a"], args["n"], args["s"])
            if kind == "dist":
                return m.simulator.output_distribution(circuit)
            return m.simulator.control_reduced_density(circuit)
        if kind == "oracle":
            return m.simulator.dft_oracle_distribution(
                args["a"], args["n"], args["s"])
        if kind == "load_fixture":
            self.fixtures[args["name"]] = m.fixtures.load_fixture(args["name"])
            return self.fixtures[args["name"]]
        fixture = self.fixtures.get(args.get("name"))
        if kind == "verify_fixture":
            return m.fixtures.verify_fixture(fixture)
        if kind == "fixture_factor":
            sp = m.numtheory.Semiprime(fixture.n, fixture.p, fixture.q)
            return m.postprocess.run_full_algorithm(
                sp, mode="compiled", seed=args["seed"])
        if kind == "decimal_round_trip":
            text = m.numtheory.to_decimal(fixture.n)
            return text, m.numtheory.parse_decimal(text)
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = m.cli.dispatch(list(args["argv"]))
            return code, out.getvalue(), err.getvalue()
        raise ValueError(f"unknown operation kind {kind!r}")


def plain(kind: str, result):
    """The program's result as builtins and numpy arrays."""
    if kind in ("factor", "fixture_factor"):
        return {
            "factors": result.factors,
            "base": result.base_used,
            "period": result.period_found,
            "gcd_shortcut": result.gcd_shortcut,
            "details": [(d.base, d.period, d.outcome, d.gcd_shortcut)
                        for d in result.attempt_details],
        }
    if kind in ("dist", "oracle"):
        return result.as_array()
    if kind == "load_fixture":
        return {"n": result.n, "p": result.p, "q": result.q,
                "bases": tuple(result.bases)}
    return result


def peak_rss_mib() -> float:
    """VmHWM, the peak RSS of this process's own memory. Its ru_maxrss
    would also count run.py's size when it started this process (see
    launcher.py)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, traced = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src)
    channel_in, channel_out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints off the reply channel

    def send(obj) -> None:
        pickle.dump(obj, channel_out, protocol=pickle.HIGHEST_PROTOCOL)
        channel_out.flush()

    start = perf_counter()
    import shorsim.cli  # noqa: F401  (loads every module the ops use)
    import_s = perf_counter() - start
    import shorsim

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    send({"shorsim": shorsim.__file__, "import_s": import_s})

    runner = Runner(shorsim)
    last_pace = reference_seconds()
    while True:
        request = pickle.load(channel_in)
        if request is None:
            send(peak_rss_mib())
            return 0
        if request == "snapshot":
            send(tracer.snapshot() if tracer else None)
            continue
        kind, args = request
        start = perf_counter()
        try:
            status, result = "ok", runner.run(kind, args)
        except Exception:  # reported to the parent, which counts it failed
            status, result = "error", traceback.format_exc()
        elapsed = perf_counter() - start
        pace = reference_seconds()
        if status == "ok":
            result = plain(kind, result)
        send((status, elapsed, (last_pace + pace) / 2, result))
        last_pace = pace


if __name__ == "__main__":
    sys.exit(main())
