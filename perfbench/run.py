"""shorsim benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout, with no install: the checkout's src goes first on
the path of every process that loads shorsim, and the run stops if
shorsim resolves anywhere else. The inputs come from --seed. The
workload's operations run one at a time, in whole rounds, until
--seconds have passed; every output is checked (checks.py) and a wrong
one counts as a failed operation.

--trace 0 measures with tracing off and prints the end-to-end metrics;
--trace 1 prints the per-layer metrics of a traced run, which also runs
untraced rounds to report its own overhead. The last line of
standard output is one JSON object; details of the run go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from pace import REFERENCE_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
# No round starts that would end past this many seconds of measuring,
# so that a run (at most two measuring phases) ends well inside three
# minutes whatever --seconds asks for.
MEASURE_BUDGET_S = 60.0
SHOWN_FAILURES = 5

SETUP_CODE = {
    "cli": "import shorsim.cli as m",
    "compiled-bigint": "import shorsim as m\n"
                       "for name in ('rsa768', 'n20000'):\n"
                       "    m.load_fixture(name)",
}
SETUP_DEFAULT = "import shorsim as m"

END_TO_END = (("run_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"))


def _span_metrics(span: str, fields: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{span}.{f}", units[f]) for f in fields.split()]


PER_LAYER = (
    *_span_metrics("compiler.work_orbit", "calls s"),
    *_span_metrics("compiler.build_semiclassical_stages", "calls s self_s"),
    *_span_metrics("compiler.find_period2_base", "s"),
    *_span_metrics("simulator.run_circuit", "calls s self_s"),
    *_span_metrics("simulator.output_distribution", "s self_s"),
    *_span_metrics("simulator.control_reduced_density", "s"),
    *_span_metrics("simulator.dft_oracle_distribution", "s"),
    *_span_metrics("kernels.branch_probabilities", "calls s"),
    *_span_metrics("kernels.branch_states_numpy", "s"),
    ("kernels.cells", "count"),
    ("kernels.state_bytes", "B"),
    *_span_metrics("postprocess.run_full_algorithm", "calls s self_s"),
    *_span_metrics("postprocess.extract_period", "calls s"),
    *_span_metrics("postprocess.derive_factors", "calls s"),
    ("postprocess.attempts", "count"),
    ("postprocess.factored_attempts", "count"),
    ("postprocess.factored_per_attempt", "ratio"),
    *_span_metrics("numtheory.Semiprime", "calls s"),
    *_span_metrics("numtheory.is_probable_prime", "calls s"),
    *_span_metrics("numtheory.mod_pow", "calls s"),
    *_span_metrics("numtheory.gcd", "calls s"),
    *_span_metrics("numtheory.mod_inverse", "calls s"),
    *_span_metrics("numtheory.to_decimal", "s"),
    *_span_metrics("numtheory.parse_decimal", "s"),
    *_span_metrics("coinlab.coin_factor_demo", "calls s"),
    *_span_metrics("fixtures.load_fixture", "s"),
    *_span_metrics("fixtures.verify_fixture", "s"),
    ("cli.import_s", "s"),
    *_span_metrics("cli.dispatch", "calls s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here; it exits without a result."""


def child_env() -> dict:
    """Environment for every child: the checkout's src first on the
    path, the packaged fixtures, and one thread per numeric pool.

    Operations run one at a time, and the program's arrays are small:
    a second OpenBLAS thread only waits for the first. On two CPUs,
    `factor --n 8191 --seed 0` took 2.0 s with one thread, and with two
    took 2.3 s alone and 10.6 s while the other CPU was busy.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("SHORSIM_FIXTURE_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def expect_checkout_shorsim(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC / "shorsim"):
        raise BenchError(f"shorsim resolved to {path}, not under {SRC}")


class Launcher:
    """launcher.py in its own small process, which starts the children
    (see there why), one at a time."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, cmd: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process ended unexpectedly")
        return json.loads(line)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(workload: str, launcher: Launcher) -> float:
    """Median scaled wall time of fresh interpreters that import shorsim
    and do the program-side preparation the workload needs."""
    code = SETUP_CODE.get(workload, SETUP_DEFAULT) + "\nprint(m.__file__)"
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        child = launcher.run([sys.executable, "-c", code])
        pace = (before + reference_seconds()) / 2
        if child["status"] != 0:
            raise BenchError(f"set-up failed with status {child['status']}:\n"
                             f"{child['err']}")
        expect_checkout_shorsim(child["out"].strip())
        times.append(child["seconds"] * REFERENCE_S / pace)
    return statistics.median(times)


class Worker:
    """A fresh interpreter running worker.py, spoken to by pickle."""

    def __init__(self, env: dict, traced: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC),
             "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self.hello = self._receive()
        expect_checkout_shorsim(self.hello["shorsim"])

    def _receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise BenchError("the worker process ended unexpectedly") from None

    def call(self, message):
        pickle.dump(message, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        return self._receive()

    def execute(self, op: workloads.Op) -> tuple[str, float, float, object]:
        return self.call((op.kind, op.args))

    def close(self) -> float:
        """Stop the worker; returns its peak RSS in MiB."""
        peak = self.call(None)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return peak

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


class Tally:
    """Per-round (wall seconds, pace) of each operation, and the verdict
    on every output."""

    def __init__(self) -> None:
        self.rounds: list[list[tuple[float, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.failures: list[str] = []

    def judge(self, op: workloads.Op, status: str, result) -> None:
        self.attempted += 1
        if status == "ok":
            try:
                op.verify(result)
                return
            except Exception as exc:  # any malformed output is a mismatch
                self.mismatched += 1
                problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = str(result).strip().splitlines()[-1]
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(f"{op.label()}: {problem}")


def run_rounds(ops, execute, seconds: float, tally: Tally,
               after_round=None) -> list[float]:
    """Whole rounds of ops until `seconds` have passed (at least one).

    Returns each operation's median over the rounds of its wall time
    scaled to the reference pace (pace.py).
    """
    start = perf_counter()
    rounds = []
    while True:
        measured, scaled = [], []
        for op in ops:
            status, elapsed, pace, result = execute(op)
            measured.append((elapsed, pace))
            scaled.append(elapsed * REFERENCE_S / pace)
            tally.judge(op, status, result)
        rounds.append(scaled)
        tally.rounds.append(measured)
        if after_round is not None:
            after_round()
        spent = perf_counter() - start
        if spent >= seconds or spent + spent / len(rounds) > MEASURE_BUDGET_S:
            return [statistics.median(column) for column in zip(*rounds)]


def with_worker(env: dict, traced: bool, body):
    worker = Worker(env, traced)
    try:
        value = body(worker)
        return value, worker.close(), worker.hello
    finally:
        worker.kill()


def cli_execute(launcher: Launcher, peaks: list[float]):
    def execute(op):
        before = reference_seconds()
        child = launcher.run([sys.executable, "-m", "shorsim.cli",
                              *op.args["argv"]])
        pace = (before + reference_seconds()) / 2
        peaks.append(child["peak_rss_mib"])
        return "ok", child["seconds"], pace, (child["status"], child["out"],
                                              child["err"])
    return execute


def end_to_end(workload: str, ops, seconds: float, env: dict,
               tally: Tally) -> dict:
    with Launcher(env) as launcher:
        setup_s = measure_setup(workload, launcher)
        if workload == "cli":
            peaks: list[float] = []
            per_op = run_rounds(ops, cli_execute(launcher, peaks), seconds,
                                tally)
            peak = max(peaks)
        else:
            per_op, peak, _ = with_worker(env, False, lambda w: run_rounds(
                ops, w.execute, seconds, tally))
    return {
        "run_s": sum(per_op),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "peak_rss_mib": peak,
        "setup_s": setup_s,
    }


def layer_values(snap: dict, factor: float, import_s: float) -> dict:
    """One traced round's per-layer values; span seconds are scaled by
    the round's factor from wall time to the reference pace."""
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in snap["spans"]:
            calls, inclusive, own = snap["spans"][span]
            values[name] = {"calls": calls, "s": inclusive * factor,
                            "self_s": own * factor}[field]
    counts = snap["counts"]
    cells = counts.get("kernels.cells", 0)
    attempts = counts.get("postprocess.attempts", 0)
    factored = counts.get("postprocess.factored_attempts", 0)
    values.update({
        "kernels.cells": cells,
        "kernels.state_bytes": 16 * cells,
        "postprocess.attempts": attempts,
        "postprocess.factored_attempts": factored,
        "postprocess.factored_per_attempt": factored / attempts if attempts else 0.0,
        "cli.import_s": import_s,
    })
    return values


def traced(ops, seconds: float, env: dict, tally: Tally) -> tuple[dict, list]:
    """Per-layer metrics, as medians over traced rounds. Half of the
    time goes to untraced rounds of the same in-process calls, against
    which the tracer's overhead is reported."""
    untraced, _, _ = with_worker(env, False, lambda w: run_rounds(
        ops, w.execute, seconds / 2, tally))
    snaps = []

    def body(worker):
        def snapshot():
            measured = tally.rounds[-1]
            factor = (sum(w * REFERENCE_S / p for w, p in measured)
                      / sum(w for w, _ in measured))
            snaps.append((worker.call("snapshot"), factor))
        return run_rounds(ops, worker.execute, seconds / 2, tally,
                          after_round=snapshot)
    per_op, _, hello = with_worker(env, True, body)
    per_round = [layer_values(snap, factor, hello["import_s"])
                 for snap, factor in snaps]
    metrics = {name: statistics.median(r.get(name, 0) for r in per_round)
               for name, _ in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = sum(per_op) - sum(untraced)
    return metrics, snaps[-1][0]["absent"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shorsim" / "__init__.py").is_file():
        print(f"perfbench: no shorsim package under {SRC}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the pace (pace.py) is
    # then measured on the CPU the operations run on. Nothing runs
    # concurrently, so sharing it costs nothing.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    try:
        ops = workloads.build(args.workload, args.seed, ROOT)
        tally = Tally()
        absent: list[str] = []
        if args.trace:
            values, absent = traced(ops, args.seconds, env, tally)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(args.workload, ops, args.seconds, env, tally)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if absent:
        print(f"absent layers: {' '.join(absent)}")
    summary = {
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "args": vars(args),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "ops": [op.label() for op in ops],
        "reference_s": REFERENCE_S,
        "round_wall_and_pace": tally.rounds,
        "failures": tally.failures,
        "absent": absent,
        "summary": summary,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
