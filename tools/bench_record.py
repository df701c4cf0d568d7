"""Record the benchmark of one checkout into BENCH_<label>.json.

    python3 tools/bench_record.py --label baseline --seeds 1 2 3

Runs the command that BENCHMARK.json names (perfbench/run.py) for every
workload it lists, at --trace 0 and --trace 1, once per seed, for the
run_seconds it fixes. Runs go one at a time, in the checkout that holds
this file. The output file, written at that checkout's root, holds:

- every run's workload, seed, trace setting, exit code and the summary
  that run.py printed as its last line (standard error instead, when
  the run failed);
- per workload and trace setting, the median of each metric over the
  runs that exited 0 with every output correct;
- the seeds, the seconds, the Python, numpy and sympy versions of the
  interpreter that ran the benchmark, nproc and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACES = (0, 1)

_VERSIONS = """\
import importlib.metadata as md, json, platform
def version(name):
    try:
        return md.version(name)
    except md.PackageNotFoundError:
        return None
print(json.dumps({"python": platform.python_version(),
                  "numpy": version("numpy"), "sympy": version("sympy")}))
"""


def run_benchmark(command: list[str], root: Path, workload: str, seed: int,
                  seconds: float, trace: int) -> tuple[int, str, str]:
    """One run.py process; its exit code, standard output and error."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def one_run(workload: str, seed: int, trace: int, code: int, stdout: str,
            stderr: str) -> dict:
    """A run's record: run.py's summary, or its error if it printed none."""
    run = {"workload": workload, "seed": seed, "trace": trace,
           "exit_code": code}
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        summary = None
    if summary is None:
        run["stderr"] = stderr.strip()[-2000:]
    else:
        run["summary"] = summary
    return run


def medians(runs: list[dict]) -> dict:
    """{workload: {"trace0"|"trace1": {metric: {"value", "unit", "runs"}}}}
    over the runs with a summary whose outputs were all correct."""
    values: dict = {}
    for run in runs:
        summary = run.get("summary")
        if summary is None or not summary["correct"]:
            continue
        setting = values.setdefault(run["workload"], {}).setdefault(
            f"trace{run['trace']}", {})
        for name, metric in summary["metrics"].items():
            setting.setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    return {workload: {trace: {name: {"value": statistics.median(vals),
                                      "unit": unit, "runs": len(vals)}
                               for name, (unit, vals) in metrics.items()}
                       for trace, metrics in settings.items()}
            for workload, settings in values.items()}


def git_commit(root: Path) -> dict:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=root,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else status != ""}


def record(label: str, seeds: list[int], root: Path = ROOT,
           runner=run_benchmark) -> dict:
    """Run every workload at both trace settings for each seed and
    return the BENCH_<label>.json document."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for seed in seeds:
        for workload in workloads:
            for trace in TRACES:
                code, out, err = runner(command, root, workload, seed,
                                        seconds, trace)
                run = one_run(workload, seed, trace, code, out, err)
                print(json.dumps({k: run[k] for k in
                                  ("workload", "seed", "trace", "exit_code")}),
                      file=sys.stderr)
                runs.append(run)
    versions = json.loads(subprocess.run(
        [command[0], "-c", _VERSIONS], capture_output=True, text=True,
        check=True).stdout)
    return {
        "label": label,
        **git_commit(root),
        "command": command,
        "seeds": seeds,
        "seconds": seconds,
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "median": medians(runs),
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label takes letters, digits, '-' and '_' only")
    doc = record(args.label, args.seeds)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
