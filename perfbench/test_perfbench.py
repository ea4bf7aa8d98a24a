"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import importlib
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tempoclass import parse_automaton, region_split  # noqa: E402
# the package re-exports classify(), which shadows the submodule attribute
tc_classify = importlib.import_module("tempoclass.classify")


def test_instances_are_deterministic():
    for w in workloads.WORKLOADS:
        first, second = workloads.sources(w), workloads.sources(w)
        assert first == second
        for text in first.values():
            parse_automaton(text)


def test_seed_permutes_order_but_not_work():
    names = list(workloads.sources("corpus"))

    def passes(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(3):
            order = names[:]
            rng.shuffle(order)
            out.append(workloads.pass_ops("corpus", order))
        return out

    assert passes(1) == passes(1)
    assert passes(1) != passes(2)
    for a, b in zip(passes(1), passes(2)):
        assert Counter(a) == Counter(b)


def test_products_match_counting_wrapper(monkeypatch):
    calls = [0]
    real = tc_classify.orbit_compose

    def counting(e1, e2):
        calls[0] += 1
        return real(e1, e2)

    monkeypatch.setattr(tc_classify, "orbit_compose", counting)
    for name, text in workloads.saturation_sources().items():
        if not name.startswith("fam_"):
            continue
        rs = region_split(parse_automaton(text))
        for kind in "pfd":
            calls[0] = 0
            reach = tc_classify.saturate(rs, kind)
            assert workloads.saturate_products(rs, reach) == calls[0], (name, kind)


def test_self_times():
    spans = [["bench.op", 0.0, 10.0, None, 1, None],
             ["ta.parse", 1.0, 3.0, 0, 1, None],
             ["classify.saturate_p", 4.0, 8.0, 0, 1, None]]
    assert workloads.self_times(spans) == [4.0, 2.0, 4.0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_goldens_reproduce(workload):
    goldens = workloads.load_goldens()[workload]
    texts = workloads.sources(workload)
    assert set(goldens) == set(texts)
    tr = workloads.Tracer()
    for name, mode in workloads.pass_ops(workload, list(texts)):
        plain = workloads.run_op(None, workload, name, mode, texts[name])
        traced = workloads.run_op(tr, workload, name, mode, texts[name])
        assert plain == traced == goldens[name], (name, mode)


def test_manifest_is_current():
    assert json.loads((HERE.parent / "BENCHMARK.json").read_text()) == run.manifest()
    assert (HERE / "METRICS.md").read_text() == run.metrics_markdown()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
