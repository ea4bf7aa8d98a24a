"""The scripts import the library from the checkout's `src` directory, so
they run from a fresh checkout without installing the package or setting
PYTHONPATH."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from tempoclass.corpus import NAMES, SOURCES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_export_corpus_runs_without_pythonpath(tmp_path):
    done = _run("export_corpus.py", "out", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name, text in SOURCES.items():
        assert (tmp_path / "out" / f"{name}.ta").read_text(encoding="utf-8") == text


def test_classify_corpus_runs_without_pythonpath(tmp_path):
    done = _run("classify_corpus.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    verdicts = json.loads((tmp_path / "corpus_verdicts.json").read_text())
    assert sorted(verdicts) == sorted(NAMES)


def test_bandwidth_experiments_imports():
    """Run under another name, the script runs its imports and stops."""
    names = runpy.run_path(str(SCRIPTS / "bandwidth_experiments.py"), run_name="check")
    assert callable(names["main"])
