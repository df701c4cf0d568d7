"""tools/bench_record.py, fed canned run.py output: no benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _summary(run_s, correct=True):
    return json.dumps({"correct": correct, "attempted": 10,
                       "failed": 0 if correct else 1,
                       "metrics": {"run_s": {"value": run_s, "unit": "s"}}})


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

    doc = bench_record.record("t", [1, 2, 3], root=checkout, runner=runner)
    assert calls == [(w, seed, trace, 3) for seed in (1, 2, 3)
                     for w in ("alpha", "beta") for trace in (0, 1)]
    assert doc["seeds"] == [1, 2, 3] and doc["seconds"] == 3
    assert doc["commit"] is None and doc["dirty"] is None
    assert doc["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert {"numpy", "sympy", "nproc"} <= doc.keys()
    assert len(doc["runs"]) == 12
    assert doc["runs"][0] == {"workload": "alpha", "seed": 1, "trace": 0,
                              "exit_code": 0,
                              "summary": json.loads(_summary(0.5))}
    failed = [run for run in doc["runs"] if "summary" not in run]
    assert [(r["workload"], r["seed"], r["exit_code"], r["stderr"])
            for r in failed] == [("beta", 2, 1, "boom"), ("beta", 3, 0, "boom")]
    assert doc["median"]["alpha"]["trace0"] == {
        "run_s": {"value": 0.5, "unit": "s", "runs": 3}}
    # the wrong-output run and the two without a summary count for nothing
    assert "trace1" not in doc["median"]["beta"]
    assert doc["median"]["beta"]["trace0"]["run_s"]["runs"] == 3


def test_label_must_be_a_plain_name(capsys):
    with pytest.raises(SystemExit):
        bench_record.main(["--label", "../x", "--seeds", "1"])
    assert "--label takes" in capsys.readouterr().err
