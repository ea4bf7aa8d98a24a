"""Golden CLI reports for the ten corpus automata.

Four reports are pinned: `--json classify` in both modes, the `regionize`
text, one `--json orbit --kind f --path <edge>` report per original edge
name, and the `bandwidth` CSV with its fit line on a few short slices.  They
are compared byte for byte after zeroing `wallTimeMs` and replacing the input
path with the bare file name.  Re-record them with
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
from tempoclass.ta import parse_automaton

GOLDEN_DIR = Path(__file__).parent / "golden"
MODES = ("bfs", "savitch")
EDGES = [(name, e.name) for name in NAMES
         for e in parse_automaton(SOURCES[name]).edges]
# case -> (automaton, bandwidth arguments); a4's two-sided guards and a6's
# one-sided ones, and eps/grid ratios that are not integers on the 1/16 grid
BANDWIDTH = {
    "a4": ("a4", ["--T", "10", "--eps", "1/2,1/4,1/8"]),
    "a6": ("a6", ["--T", "2,3", "--eps", "1/2,1/4,1/8"]),
    "a6_grid16": ("a6", ["--T", "3/2,2", "--grid", "1/16",
                         "--eps", "1/2,1/3,1/5"]),
}


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) in (0, 1, 2)
    return out.getvalue()


def _normalised_json(path: Path, argv: list[str]) -> str:
    report = json.loads(_stdout(argv))
    report["input"]["path"] = path.name
    for stats in (report["stats"], report["result"].get("stats", {})):
        if "wallTimeMs" in stats:
            stats["wallTimeMs"] = 0
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def normalised_report(path: Path, mode: str) -> str:
    return _normalised_json(path, ["--json", "classify", str(path), "--mode", mode])


def orbit_report(path: Path, edge: str) -> str:
    return _normalised_json(path, ["--json", "orbit", str(path), "--kind", "f",
                                   "--path", edge])


def regionize_text(path: Path) -> str:
    return _stdout(["regionize", str(path)])


def bandwidth_text(path: Path, args: list[str]) -> str:
    return _stdout(["bandwidth", str(path), *args])


def golden_path(name: str, mode: str) -> Path:
    return GOLDEN_DIR / f"classify_{mode}_{name}.json"


def orbit_golden_path(name: str, edge: str) -> Path:
    return GOLDEN_DIR / f"orbit_f_{name}_{edge}.json"


def regionize_golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"regionize_{name}.txt"


def bandwidth_golden_path(case: str) -> Path:
    return GOLDEN_DIR / f"bandwidth_{case}.csv"


def write_source(directory: Path, name: str) -> Path:
    src = directory / f"{name}.ta"
    src.write_text(SOURCES[name])
    return src


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", NAMES)
def test_classify_report_matches_golden(tmp_path, name, mode):
    got = normalised_report(write_source(tmp_path, name), mode)
    assert got == golden_path(name, mode).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_regionize_text_matches_golden(tmp_path, name):
    got = regionize_text(write_source(tmp_path, name))
    assert got == regionize_golden_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, edge", EDGES)
def test_orbit_report_matches_golden(tmp_path, name, edge):
    got = orbit_report(write_source(tmp_path, name), edge)
    assert got == orbit_golden_path(name, edge).read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(BANDWIDTH))
def test_bandwidth_csv_matches_golden(tmp_path, case):
    name, args = BANDWIDTH[case]
    got = bandwidth_text(write_source(tmp_path, name), args)
    assert got == bandwidth_golden_path(case).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            src = write_source(Path(tmp), name)
            for mode in MODES:
                golden_path(name, mode).write_text(normalised_report(src, mode),
                                                   encoding="utf-8")
            regionize_golden_path(name).write_text(regionize_text(src),
                                                   encoding="utf-8")
        for name, edge in EDGES:
            src = write_source(Path(tmp), name)
            orbit_golden_path(name, edge).write_text(orbit_report(src, edge),
                                                     encoding="utf-8")
        for case, (name, args) in BANDWIDTH.items():
            src = write_source(Path(tmp), name)
            bandwidth_golden_path(case).write_text(bandwidth_text(src, args),
                                                   encoding="utf-8")
