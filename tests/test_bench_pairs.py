import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PASS_S = {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]


@pytest.mark.parametrize("parent, change, verdict", [
    (PARENT, [v / 2 for v in PARENT], ["gain"]),
    (PARENT, [v * 1.5 for v in PARENT], ["REGRESSION"]),
    (WIDE, [v * 0.9 for v in WIDE[::-1]], ["unresolved"]),
    (WIDE, [v / 4 for v in WIDE], ["gain"]),
    (PARENT, [v * 1.01 for v in PARENT[::-1]], []),
], ids=["gain", "regression", "unresolved", "clear-of-spread", "no-change"])
def test_summarize_verdicts(parent, change, verdict):
    s = bench_pairs.summarize(PASS_S, parent, change)
    assert s["verdict"] == verdict
    assert s["pairs"] == len(parent)


def test_summarize_higher_is_better():
    metric = dict(PASS_S, better="higher")
    s = bench_pairs.summarize(metric, WIDE, [v * 0.9 for v in WIDE[::-1]])
    assert s["verdict"] == ["unresolved"]
    s = bench_pairs.summarize(metric, PARENT, [v / 2 for v in PARENT])
    assert s["verdict"] == ["REGRESSION"]


def _run(value: float, failed: int = 0, correct: bool = True) -> dict:
    return {"metrics": {"pass_s": {"value": value}}, "failed": failed,
            "attempted": 10, "correct": correct}


@pytest.mark.parametrize("parent, change, status", [
    (_run(1.0), _run(1.01), 0),
    (_run(1.0, failed=2), _run(1.0, failed=2), 0),
    (_run(1.0), _run(1.5), 1),
    (_run(1.0), _run(1.0, correct=False), 1),
    (_run(1.0, correct=False), _run(1.0), 1),
    (_run(1.0, failed=1), _run(1.0, failed=2), 1),
], ids=["clean", "same-failures", "regression", "change-incorrect",
        "parent-incorrect", "more-failures"])
def test_exit_status(tmp_path, monkeypatch, capsys, parent, change, status):
    """`main` exits 1 on a regression, on incorrect outputs on either side
    and when the change fails more operations than the parent."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "corpus"}], "end_to_end": [PASS_S]}))
    runs = {"parent": parent, "change": change}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed: runs[checkout.name])
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "3"]
    assert bench_pairs.main(argv) == status
    assert capsys.readouterr().out.splitlines()[-1] == ("pass" if status == 0
                                                          else "FAIL: corpus")
