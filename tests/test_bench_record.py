"""tools/bench_record.py, fed canned run.py output: no benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _summary(run_s, correct=True, **counts):
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               **{name: {"value": value, "unit": "count"}
                  for name, value in counts.items()}}
    return json.dumps({"correct": correct, "attempted": 10,
                       "failed": 0 if correct else 1, "metrics": metrics})


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 3,
        "workloads": [{"name": "alpha"}, {"name": "beta"}],
    }))
    return tmp_path


def test_record_keeps_every_run_and_takes_medians(checkout):
    calls = []
    canned = {  # (workload, seed, trace) -> run.py's exit code and stdout
        ("alpha", 1, 0): (0, "absent layers: x\n" + _summary(0.5)),
        ("alpha", 2, 0): (0, _summary(0.25)),
        ("alpha", 3, 0): (0, _summary(0.75)),
        ("beta", 1, 1): (0, _summary(9.0, correct=False)),
        ("beta", 2, 1): (1, ""),
        ("beta", 3, 1): (0, "not json"),
    }

    def runner(command, root, workload, seed, seconds, trace):
        calls.append((workload, seed, trace, seconds))
        assert command == [sys.executable, "perfbench/run.py"]
        assert root == checkout
        return (*canned.get((workload, seed, trace), (0, _summary(1.0))),
                "boom")

    doc = bench_record.record("t", [1, 2, 3], {"change": checkout},
                              runner=runner)
    assert calls == [(w, seed, trace, 3) for seed in (1, 2, 3)
                     for w in ("alpha", "beta") for trace in (0, 1)]
    assert doc["seeds"] == [1, 2, 3] and doc["seconds"] == 3
    assert not {"parent", "first", "compare"} & doc.keys()
    change = doc["change"]
    assert change["commit"] is None and change["dirty"] is None
    assert doc["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert {"numpy", "sympy", "nproc"} <= doc.keys()
    assert len(doc["runs"]) == 12
    assert doc["runs"][0] == {"side": "change", "workload": "alpha",
                              "seed": 1, "trace": 0, "exit_code": 0,
                              "summary": json.loads(_summary(0.5))}
    failed = [run for run in doc["runs"] if "summary" not in run]
    assert [(r["workload"], r["seed"], r["exit_code"], r["stderr"])
            for r in failed] == [("beta", 2, 1, "boom"), ("beta", 3, 0, "boom")]
    assert change["median"]["alpha"]["trace0"] == {
        "run_s": {"value": 0.5, "unit": "s", "runs": 3}}
    # the wrong-output run and the two without a summary count for nothing
    assert "trace1" not in change["median"]["beta"]
    assert change["median"]["beta"]["trace0"]["run_s"]["runs"] == 3
    assert change["operations"]["beta"] == {
        "runs": 6, "attempted": 40, "failed": 1}


def test_label_must_be_a_plain_name(capsys):
    with pytest.raises(SystemExit):
        bench_record.main(["--label", "../x", "--seeds", "1"])
    assert "--label takes" in capsys.readouterr().err


_PAIRED_BENCH = json.dumps({
    "command": [sys.executable, "perfbench/run.py"],
    "run_seconds": 3,
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                   {"name": "hits", "better": "higher", "bound": 0.1}],
    "per_layer": [],
})


@pytest.fixture
def checkouts(tmp_path):
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for root in sides.values():
        root.mkdir()
        (root / "BENCHMARK.json").write_text(_PAIRED_BENCH)
    return sides


def test_pairs_alternate_and_compare_like_for_like(checkouts):
    calls = []
    canned = {  # (side, workload, seed) -> run.py's exit code and stdout
        **{("parent", "alpha", seed): (0, _summary(run_s, hits=10,
                                                   mystery=1))
           for seed, run_s in zip((1, 2, 3, 4), (1.0, 1.2, 1.1, 1.3))},
        **{("change", "alpha", seed): (0, _summary(run_s, hits=hits,
                                                   mystery=2))
           for seed, run_s, hits in zip((1, 2, 3, 4), (0.8, 0.9, 1.15, 0.7),
                                        (8, 8, 9, 12))},
        ("change", "beta", 2): (1, ""),
        ("parent", "beta", 3): (0, _summary(2.0, correct=False)),
    }

    def runner(command, root, workload, seed, seconds, trace):
        calls.append((root.name, workload, seed, trace))
        assert command == [sys.executable, "perfbench/run.py"]
        assert seconds == 3
        default = _summary(2.0 if root.name == "parent" else 1.0)
        return (*canned.get((root.name, workload, seed), (0, default)),
                "boom")

    doc = bench_record.record("t", [1, 2, 3, 4], checkouts, "HEAD~1",
                              runner=runner)
    # each pair runs back to back, and the side that leads alternates
    orders = [("parent", "change"), ("change", "parent")]
    assert calls == [(side, w, seed, 0) for seed in (1, 2, 3, 4)
                     for w in ("alpha", "beta")
                     for side in orders[(seed - 1) % 2]]
    assert doc["first"] == ["parent", "change", "parent", "change"]
    assert doc["parent"]["rev"] == "HEAD~1" and "rev" not in doc["change"]
    assert doc["parent"]["commit"] is None
    assert len(doc["runs"]) == 16
    assert doc["runs"][1] == {"side": "change", "workload": "alpha",
                              "seed": 1, "trace": 0, "exit_code": 0,
                              "summary": json.loads(canned[
                                  ("change", "alpha", 1)][1])}
    assert doc["parent"]["median"]["alpha"]["trace0"]["run_s"] == {
        "value": 1.15, "unit": "s", "runs": 4}
    assert doc["change"]["operations"]["beta"] == {
        "runs": 4, "attempted": 30, "failed": 0}
    assert doc["parent"]["operations"]["beta"] == {
        "runs": 4, "attempted": 40, "failed": 1}

    alpha = doc["compare"]["alpha"]
    assert set(alpha) == {"run_s", "hits"}  # no direction, no comparison
    run_s = alpha["run_s"]
    assert (run_s["pairs"], run_s["change_won"], run_s["parent_won"]) == \
        (4, 3, 1)
    assert run_s["parent"] == pytest.approx(
        {"median": 1.15, "q1": 1.075, "q3": 1.225})
    assert run_s["change"]["median"] == pytest.approx(0.85)
    assert run_s["relative_change"] == pytest.approx(-0.3 / 1.15)
    assert (run_s["bound"], run_s["within_bound"]) == (0.25, True)
    assert run_s["gain_shown"] is False  # 3 of 4 pairs is short of 9 in 10
    hits = alpha["hits"]  # higher is better: a drop of 15% is past 10%
    assert (hits["change_won"], hits["parent_won"]) == (1, 3)
    assert hits["relative_change"] == pytest.approx(-0.15)
    assert hits["within_bound"] is False
    # a failed run and a wrong-output run each cost their pair
    beta = doc["compare"]["beta"]["run_s"]
    assert (beta["pairs"], beta["change_won"]) == (2, 2)
    assert beta["relative_change"] == pytest.approx(-0.5)
    assert beta["gain_shown"] is True


def test_pairs_refuse_two_different_benchmarks(checkouts):
    (checkouts["parent"] / "BENCHMARK.json").write_text(
        _PAIRED_BENCH.replace('"run_seconds": 3', '"run_seconds": 4'))
    with pytest.raises(ValueError, match="different BENCHMARK.json"):
        bench_record.record("t", [1], checkouts, "HEAD~1", runner=None)


def test_plain_and_paired_records_share_one_shape(checkouts):
    def runner(command, root, workload, seed, seconds, trace):
        return 0, _summary(1.0), ""

    plain = bench_record.record("t", [1], {"change": checkouts["change"]},
                                runner=runner)
    paired = bench_record.record("t", [1], checkouts, "HEAD~1",
                                 runner=runner)
    assert plain["change"].keys() == paired["change"].keys() == {
        "commit", "dirty", "operations", "median"}
    assert paired["parent"].keys() == {"rev"} | paired["change"].keys()
    assert paired.keys() - plain.keys() == {"parent", "first", "compare"}
    # the same fields read the same runs: only a plain record has trace 1
    assert plain["change"]["median"]["alpha"]["trace0"] == \
        paired["change"]["median"]["alpha"]["trace0"]
    assert "trace1" not in paired["change"]["median"]["alpha"]


def test_clone_checks_out_the_named_commit(tmp_path):
    repo = tmp_path / "repo"

    def git(*args, cwd=repo):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=cwd, check=True, capture_output=True)

    repo.mkdir()
    git("init", "--quiet")
    for text in ("old", "new"):
        (repo / "f.txt").write_text(text)
        git("add", "f.txt")
        git("commit", "--quiet", "-m", text)
    (repo / "f.txt").write_text("uncommitted")
    bench_record.clone("HEAD~1", tmp_path / "parent", root=repo)
    bench_record.clone("HEAD", tmp_path / "change", root=repo)
    assert (tmp_path / "parent" / "f.txt").read_text() == "old"
    assert (tmp_path / "change" / "f.txt").read_text() == "new"
    with pytest.raises(SystemExit, match="no commit named 'nope'"):
        bench_record.clone("nope", tmp_path / "other", root=repo)
