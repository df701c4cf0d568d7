"""Record the benchmark into BENCH_<label>.json, of one checkout or of
a change against its parent.

    python3 tools/bench_record.py --label baseline --seeds 1 2 3
    python3 tools/bench_record.py --label paired --parent HEAD~1 --seeds 1 2 3

Runs the command that BENCHMARK.json names (perfbench/run.py) for every
workload it lists, once per seed and side, for the run_seconds it
fixes, one run at a time. The output file is written at the root of the
checkout that holds this file.

Without --parent there is one side, "change": that checkout, run at
--trace 0 and --trace 1. With --parent REV there are two, "parent" and
"change": the committed trees of REV and of HEAD, cloned into sibling
directories of one temporary directory, so that neither side runs from
a path the other lacks; uncommitted edits are not measured. Both must
hold the same BENCHMARK.json. Each seed runs each workload at --trace 0
on both sides, one right after the other, and the side that goes first
alternates from seed to seed.

Every file has one shape: the seeds, the seconds, the Python, numpy
and sympy versions of the interpreter that ran the benchmark, nproc,
and per side a block of its "rev" (the parent's REV only), git
"commit", "dirty" (tracked files differ from it), "operations" (per
workload the runs and the operations attempted and failed) and
"median" (per workload and trace setting, of each metric over the runs
that exited 0 with every output correct). "runs" holds every run's
side, workload, seed, trace setting, exit code and the summary that
run.py printed as its last line (standard error instead, when the run
failed). A pair also holds "first", the side that led each seed, and
"compare", per workload and metric with a known direction: each side's
median and quartiles, the pairs each side won (ties count for neither),
and for the end-to-end metrics the relative change of the median next
to the bound BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACES = (0, 1)
SIDES = ("parent", "change")
# A gain is shown when the change wins this share of all pairs and its
# median is better by more than the parent's interquartile range.
GAIN_SHARE = 0.9

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


def one_run(side: str, workload: str, seed: int, trace: int, code: int,
            stdout: str, stderr: str) -> dict:
    """A run's record: run.py's summary, or its error if it printed none."""
    run = {"side": side, "workload": workload, "seed": seed, "trace": trace,
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


def _log(run: dict) -> dict:
    print(json.dumps({k: run[k] for k in ("side", "workload", "seed", "trace",
                                          "exit_code")}), file=sys.stderr)
    return run


def _environment(command: list[str]) -> dict:
    """Versions of the benchmark's interpreter and the CPUs it may use."""
    versions = json.loads(subprocess.run(
        [command[0], "-c", _VERSIONS], capture_output=True, text=True,
        check=True).stdout)
    return {**versions, "nproc": len(os.sched_getaffinity(0))}


def operations(runs: list[dict]) -> dict:
    """{workload: {"runs", "attempted", "failed"}}; a run with no summary
    counts as a run and nothing else."""
    out: dict = {}
    for run in runs:
        row = out.setdefault(run["workload"],
                             {"runs": 0, "attempted": 0, "failed": 0})
        row["runs"] += 1
        summary = run.get("summary")
        if summary is not None:
            row["attempted"] += summary["attempted"]
            row["failed"] += summary["failed"]
    return out


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(runs: list[dict], bench: dict) -> dict:
    """{workload: {metric: comparison}} over the pairs in which both
    sides' runs exited 0 with every output correct."""
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    pairs: dict = {}
    for run in runs:
        summary = run.get("summary")
        if summary is not None and summary["correct"]:
            pairs.setdefault((run["workload"], run["seed"]), {})[
                run["side"]] = summary["metrics"]
    values: dict = {}
    for (workload, _), sides in pairs.items():
        if len(sides) < 2:
            continue
        for name in sides["parent"].keys() & sides["change"].keys() & \
                better.keys():
            values.setdefault(workload, {}).setdefault(name, []).append(
                tuple(sides[side][name]["value"] for side in SIDES))
    out: dict = {}
    for workload, metrics in values.items():
        for name in sorted(metrics):
            sign = 1 if better[name] == "lower" else -1
            both = metrics[name]
            parent = _spread([p for p, _ in both])
            change = _spread([c for _, c in both])
            won = sum(sign * (p - c) > 0 for p, c in both)
            lost = sum(sign * (c - p) > 0 for p, c in both)
            gain = sign * (parent["median"] - change["median"])
            row = {"better": better[name], "pairs": len(both),
                   "change_won": won, "parent_won": lost,
                   "parent": parent, "change": change,
                   "gain_shown": (won >= GAIN_SHARE * len(both)
                                  and gain > parent["q3"] - parent["q1"])}
            if name in bounds:
                rel = (None if parent["median"] == 0 else
                       (change["median"] - parent["median"])
                       / parent["median"])
                row.update(relative_change=rel, bound=bounds[name],
                           within_bound=(None if rel is None else
                                         sign * rel <= bounds[name]))
            out.setdefault(workload, {})[name] = row
    return out


def record(label: str, seeds: list[int], checkouts: dict,
           rev: str | None = None, runner=run_benchmark) -> dict:
    """Run every workload for each seed on each checkout ({"change": dir},
    or {"parent": dir, "change": dir} for a pair) and return the
    BENCH_<label>.json document. One checkout runs at both trace
    settings; a pair runs at --trace 0, one side right after the other,
    the side that goes first alternating from seed to seed."""
    sides = [side for side in SIDES if side in checkouts]
    texts = {(checkouts[side] / "BENCHMARK.json").read_text()
             for side in sides}
    if len(texts) > 1:
        raise ValueError("the two sides hold different BENCHMARK.json files;"
                         " a pair measures one benchmark")
    bench = json.loads(texts.pop())
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for index, seed in enumerate(seeds):
        order = sides if index % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side in order:
                for trace in TRACES if len(sides) == 1 else (0,):
                    code, out, err = runner(command, checkouts[side],
                                            workload, seed, seconds, trace)
                    runs.append(_log(one_run(side, workload, seed, trace,
                                             code, out, err)))
    doc = {"label": label, "command": command, "seeds": seeds,
           "seconds": seconds, **_environment(command)}
    for side in sides:
        mine = [run for run in runs if run["side"] == side]
        doc[side] = {
            **({"rev": rev} if side == "parent" else {}),
            **git_commit(checkouts[side]),
            "operations": operations(mine),
            "median": medians(mine),
        }
    if len(sides) == 2:
        doc.update(first=[sides[index % 2] for index in range(len(seeds))],
                   compare=compare(runs, bench))
    doc["runs"] = runs
    return doc


def clone(rev: str, dest: Path, root: Path = ROOT) -> None:
    """A fresh clone of root at the commit rev names, detached."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: no commit named {rev!r}")
    commit = done.stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(root),
                    str(dest)], check=True)
    subprocess.run(["git", "checkout", "--quiet", "--detach", commit],
                   cwd=dest, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", metavar="REV",
                        help="pair HEAD with this commit, in fresh clones")
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label takes letters, digits, '-' and '_' only")
    if args.parent is None:
        doc = record(args.label, args.seeds, {"change": ROOT})
    else:
        with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
            checkouts = {side: Path(tmp) / side for side in SIDES}
            clone(args.parent, checkouts["parent"])
            clone("HEAD", checkouts["change"])
            doc = record(args.label, args.seeds, checkouts, args.parent)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
