"""Golden `--json classify` reports for the ten corpus automata, both modes.

The reports are compared byte for byte after zeroing `wallTimeMs` and
replacing the input path with the bare file name.  Re-record them with
`PYTHONPATH=src python tests/test_golden.py` only when a report change is
intended, and say so in CHANGES.md.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tempoclass.cli import main
from tempoclass.corpus import NAMES, SOURCES

GOLDEN_DIR = Path(__file__).parent / "golden"
MODES = ("bfs", "savitch")


def normalised_report(path: Path, mode: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        main(["--json", "classify", str(path), "--mode", mode])
    report = json.loads(out.getvalue())
    report["input"]["path"] = path.name
    for stats in (report["stats"], report["result"]["stats"]):
        stats["wallTimeMs"] = 0
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def golden_path(name: str, mode: str) -> Path:
    return GOLDEN_DIR / f"classify_{mode}_{name}.json"


def write_source(directory: Path, name: str) -> Path:
    src = directory / f"{name}.ta"
    src.write_text(SOURCES[name])
    return src


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", NAMES)
def test_classify_report_matches_golden(tmp_path, name, mode):
    got = normalised_report(write_source(tmp_path, name), mode)
    assert got == golden_path(name, mode).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            src = write_source(Path(tmp), name)
            for mode in MODES:
                golden_path(name, mode).write_text(normalised_report(src, mode),
                                                   encoding="utf-8")
