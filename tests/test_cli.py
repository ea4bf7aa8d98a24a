import json
import re
from fractions import Fraction as F

import pytest

from conftest import BIG_CONSTANT, MANY_CHAINS, TICKER
from tempoclass.cli import main
from tempoclass.corpus import NAMES, SOURCES
from tempoclass.regions import region_of
from tempoclass.ta import parse_automaton


@pytest.fixture()
def corpus_dir(tmp_path):
    for name, src in SOURCES.items():
        (tmp_path / f"{name}.ta").write_text(src)
    (tmp_path / "u.tw").write_text("a 0.7\nb 1.8\na 3\nb 4\na 4.1\n")
    (tmp_path / "v.tw").write_text("a 0.6\na 1\nb 1.7\na 3\na 4.1\nb 4.2\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys, corpus_dir):
    code, out, _ = run(capsys, "validate", str(corpus_dir / "a6.ta"))
    assert code == 0
    assert "deterministic: yes" in out


def test_validate_reports_violations(capsys, tmp_path):
    f = tmp_path / "nd.ta"
    f.write_text("automaton nd\nclocks x\nalphabet a\nlocation q initial\n"
                 "location p accepting\nlocation r accepting\n"
                 "edge q -> p on a guard x < 1\nedge q -> r on a guard x < 2\n")
    code, out, _ = run(capsys, "--json", "validate", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["deterministic"] is False
    assert report["result"]["violations"][0]["witness"] == {"x": "0.5"}
    f.write_text("automaton two\nalphabet a\nlocation q initial\n"
                 "location p initial accepting\nedge q -> p on a\n")
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 0
    assert "deterministic: NO" in out
    assert "  2 locations carry an initial constraint (need exactly 1)" in out.splitlines()
    code, out, _ = run(capsys, "--json", "validate", str(f))
    assert code == 0
    assert [v["kind"] for v in json.loads(out)["result"]["violations"]] == ["initial"]


def test_classify_exit_codes(capsys, corpus_dir):
    assert run(capsys, "classify", str(corpus_dir / "a6.ta"))[0] == 0
    assert run(capsys, "classify", str(corpus_dir / "a4.ta"))[0] == 1
    assert run(capsys, "classify", str(corpus_dir / "a1.ta"))[0] == 2


def test_classify_json_verdict(capsys, corpus_dir):
    code, out, _ = run(capsys, "--json", "classify", str(corpus_dir / "a6.ta"))
    assert code == 0
    report = json.loads(out)
    assert report["result"]["class"] == "meager"
    assert report["result"]["fatness"] == "thin"
    assert set(report["result"]["stats"]) == {
        "locations", "regions", "monoidSize", "witnessMaxLen", "wallTimeMs"}


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wallTimeMs": \d+', '"wallTimeMs": 0', text)


@pytest.mark.parametrize("name", NAMES)
def test_reports_byte_stable(capsys, corpus_dir, name):
    first = run(capsys, "--json", "classify", str(corpus_dir / f"{name}.ta"))[1]
    second = run(capsys, "--json", "classify", str(corpus_dir / f"{name}.ta"))[1]
    assert _strip_wall_time(first) == _strip_wall_time(second)


def test_distance_command(capsys, corpus_dir):
    code, out, _ = run(capsys, "distance", str(corpus_dir / "u.tw"),
                       str(corpus_dir / "v.tw"))
    assert code == 0
    assert out.strip() == "0.3"
    code, out, _ = run(capsys, "--json", "distance", str(corpus_dir / "u.tw"),
                       str(corpus_dir / "v.tw"))
    report = json.loads(out)
    assert report["result"] == {"directed": ["0.2", "0.3"], "distance": "0.3"}


def test_orbit_command(capsys, corpus_dir):
    code, out, _ = run(capsys, "--json", "orbit", str(corpus_dir / "a6.ta"),
                       "--path", "d1,d2", "--kind", "p")
    assert code == 0
    report = json.loads(out)
    cyclic = [o for o in report["result"]["orbits"] if o["cyclic"]]
    assert cyclic[0]["orbit"]["rows"] == [["1", "1"], ["0", "1"]]


def test_orbit_dot_output(capsys, corpus_dir, tmp_path):
    """The DOT file draws the report's first cyclic orbit."""
    from tempoclass.orbits import export_dot, path_orbit
    from tempoclass.splitting import region_split
    from tempoclass.corpus import automaton

    dot = tmp_path / "orbit.dot"
    code, out, _ = run(capsys, "--json", "orbit", str(corpus_dir / "a6.ta"),
                       "--path", "d1,d2", "--kind", "f", "--dot", str(dot))
    assert code == 0
    cyclic = [d["path"] for d in json.loads(out)["result"]["orbits"] if d["cyclic"]]
    assert cyclic == [["d1.3", "d2.1"]]
    rs = region_split(automaton("a6"))
    orbit = path_orbit(rs, [rs.edge_named(n) for n in cyclic[0]], "f")
    assert dot.read_text() == export_dot(orbit, rs)


def test_orbit_unknown_path(capsys, corpus_dir):
    code, _, err = run(capsys, "orbit", str(corpus_dir / "a6.ta"),
                       "--path", "zz")
    assert code == 10
    assert "error" in err


def test_regionize_round_trip(capsys, corpus_dir, tmp_path):
    out_file = tmp_path / "a6.rs.ta"
    code, _, _ = run(capsys, "regionize", str(corpus_dir / "a6.ta"),
                     "--out", str(out_file))
    assert code == 0
    from tempoclass.splitting import RegionSplitAutomaton, region_split
    from tempoclass.ta import parse_automaton
    from tempoclass.corpus import automaton

    back = parse_automaton(out_file.read_text())
    assert isinstance(back, RegionSplitAutomaton)
    ref = region_split(automaton("a6"))
    assert set(back.regions.values()) == set(ref.regions.values())
    # classification works straight off the regionized file
    code, out, _ = run(capsys, "--json", "classify", str(out_file))
    assert code == 0
    assert json.loads(out)["result"]["class"] == "meager"


def test_bandwidth_command(capsys, corpus_dir):
    code, out, _ = run(capsys, "--json", "bandwidth", str(corpus_dir / "a5.ta"),
                       "--T", "10,20", "--eps", "1/2,1/4,1/8")
    assert code == 0
    report = json.loads(out)
    assert len(report["result"]["rows"]) == 3
    assert report["result"]["fit"]["suggestedClass"] == "meager"
    code, out, _ = run(capsys, "bandwidth", str(corpus_dir / "a5.ta"),
                       "--T", "10", "--eps", "1/2,1/4,1/8")
    assert out.splitlines()[0] == \
        "epsilon,T,grid,capacity_bits,entropy_bits,bits_per_second"


def test_bandwidth_deep_slices(capsys, corpus_dir):
    """Long horizons make deep searches, not tracebacks: the ticker's slices
    are 1,500 events deep, and a1 at T=300 is over the word cap."""
    (corpus_dir / "tick.ta").write_text(TICKER)
    code, out, _ = run(capsys, "--json", "bandwidth", str(corpus_dir / "tick.ta"),
                       "--T", "1500", "--eps", "1/2,1/4,1/8")
    assert code == 0
    assert [r["words"] for r in json.loads(out)["result"]["rows"]] == [1501] * 3
    code, out, _ = run(capsys, "--json", "bandwidth", str(corpus_dir / "a1.ta"),
                       "--T", "300", "--eps", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["rows"] == []
    assert report["warnings"] == ["not enough feasible epsilon points to fit a shape"]


def test_error_exits(capsys, tmp_path):
    bad = tmp_path / "bad.ta"
    bad.write_text("automaton x\njunk\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 10 and "parse error" in err
    code, _, err = run(capsys, "classify", str(tmp_path / "missing.ta"))
    assert code == 10
    code, _, err = run(capsys, "bandwidth", str(bad))
    assert code == 10  # argparse usage error remapped


STARTING_UNKNOWN_CLOCK = """automaton s
clocks x
alphabet a
location q initial x=0 accepting
starting q ⌊z⌋=0, frac(z)=0
"""


# starting lines whose region leaves out the clock y: y is bounded with integer
# part 0 and a positive fraction, so the initial vector (0, 0) lies outside it
STARTING_OMITS_CLOCK = """automaton s
clocks x y
alphabet a
location q initial x=0, y=0 accepting
starting q ⌊x⌋=0, frac(x)=0
"""

# x and y both have positive fractions, and no atom orders them
STARTING_BARE = """automaton s
clocks x y
alphabet a
location q initial accepting
starting q
"""

STARTING_ABOVE_AND_FRACTION = """automaton s
clocks x
alphabet a
location q initial x=0 accepting
starting q x>1, frac(x)=0
"""

# a region with two integer parts for x; each other case swaps in its atoms
STARTING_CONTRADICTS = """automaton s
clocks x y
alphabet a
location q initial accepting
location p
starting q ⌊x⌋=0, frac(x)=0, ⌊y⌋=0, frac(y)=0
starting p {atoms}
"""

# x=2 makes the max constant 2, so x>1 is not above it
STARTING_ABOVE_LITERAL_LOW = """automaton s
clocks x
alphabet a
location q initial x=2 accepting
starting q x>1
"""

# parses, validates and regionizes, but p's region has no vertices
STARTING_ABOVE_BOUND = """automaton s
clocks x y
alphabet a
location q initial accepting
location p accepting
starting q ⌊x⌋=0, frac(x)=0, ⌊y⌋=0, frac(y)=0
starting p ⌊x⌋=0, frac(x)=0, y>M
edge q -> p on a guard y > 2 reset x
edge p -> p on a guard x < 1
"""

# r has no edge, so no command reads the vertices of its region
STARTING_ABOVE_BOUND_EDGELESS = """automaton s
clocks x y
alphabet a
location q initial accepting
location p accepting
location r
starting q ⌊x⌋=0, frac(x)=0, ⌊y⌋=0, frac(y)=0
starting p ⌊x⌋=0, frac(x)=0, ⌊y⌋=0, frac(y)=0
starting r ⌊x⌋=0, frac(x)=0, y>M
edge q -> p on a guard x <= 0
edge p -> q on a guard y <= 0
"""

# one region for q, but the edge fires from x = 0 and from 0 < x < 1
STARTING_INEXACT = """automaton s
clocks x
alphabet a
location q initial accepting
starting q ⌊x⌋=0, frac(x)=0
edge q -> q on a guard x < 1 reset x
"""

ACCEPTING_UNKNOWN_CLOCK = """automaton s
clocks y
alphabet a
location q initial accepting x > 0
edge q -> q on a
"""

STARTING_MISSES_INITIAL = """automaton s
clocks x
alphabet a
location q initial x=3 accepting
starting q ⌊x⌋=0
"""


@pytest.mark.parametrize("files, argv, message", [
    pytest.param({}, ["classify", "a6.ta", "--cap", "-3"],
                 "cap must be a positive integer, got -3", id="cap-flag-not-positive"),
    pytest.param({}, ["classify", "a6.ta", "--cap", "0"],
                 "cap must be a positive integer, got 0", id="cap-flag-zero"),
    pytest.param({}, ["classify", "a6.ta", "--cap", "x"],
                 "argument --cap: invalid int value: 'x'", id="cap-flag-not-integer"),
    pytest.param({}, ["bandwidth", "a5.ta", "--T", "10", "--eps", "0"],
                 "epsilon must be positive", id="eps-zero"),
    pytest.param({}, ["bandwidth", "a5.ta", "--T", "10", "--eps=-1/2"],
                 "epsilon must be positive", id="eps-negative"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "0", "--eps", "1/2"],
                 "duration bound must be positive", id="duration-zero"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "-2", "--eps", "1/2"],
                 "duration bound must be positive", id="duration-negative"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "1e400", "--eps", "1/2"],
                 "duration bound is too large", id="duration-too-large"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "", "--eps", "1/2"],
                 "--T needs at least one value", id="duration-list-empty"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "2", "--eps", ""],
                 "--eps needs at least one value", id="eps-list-empty"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "2", "--eps", "1/2",
                          "--grid", "0"],
                 "grid must be 1/2^k", id="grid-zero"),
    pytest.param({}, ["bandwidth", "a1.ta", "--T", "4", "--eps", "1/8",
                          "--grid", "1/8"],
                 "grid must be at most eps/2", id="grid-too-coarse-slice-over-cap"),
    pytest.param({}, ["bandwidth", "a6.ta", "--T", "2", "--eps", "1/2",
                          "--word-cap", "0"],
                 "word cap must be a positive integer", id="word-cap-zero"),
    pytest.param({}, ["bandwidth", "a3.ta", "--T", "1/3", "--eps", "1/2",
                          "--word-cap", "0"],
                 "word cap must be a positive integer, got 0",
                 id="word-cap-zero-no-aligned-duration"),
    pytest.param({"dup.ta": "automaton dup\nclocks x y\nalphabet a\n"
                  "location q initial accepting\n"
                  "edge q -> q on a guard x < 1 reset x guard y < 2\n"},
                 ["validate", "dup.ta"],
                 "parse error: line 5, col 14: duplicate 'guard' on one edge line",
                 id="edge-guard-twice"),
    pytest.param({"w.tw": "a 1/0\n"}, ["distance", "w.tw", "u.tw"],
                 "bad word file", id="word-date-zero-denominator"),
    pytest.param({"w.tw": "a\n"}, ["distance", "u.tw", "w.tw"],
                 "bad word file", id="word-line-without-date"),
    pytest.param({"latin1.ta": b"automaton \xe9\n"}, ["validate", "latin1.ta"],
                 "latin1.ta is not UTF-8 text", id="automaton-not-utf8"),
    pytest.param({"s.ta": STARTING_UNKNOWN_CLOCK}, ["validate", "s.ta"],
                 "unknown clock", id="starting-unknown-clock"),
    pytest.param({"s.ta": STARTING_OMITS_CLOCK}, ["validate", "s.ta"],
                 "initial vector violates the starting constraint",
                 id="starting-omits-clock"),
    pytest.param({"s.ta": STARTING_BARE}, ["validate", "s.ta"],
                 "does not totally order", id="starting-bare"),
    pytest.param({"s.ta": STARTING_ABOVE_AND_FRACTION}, ["validate", "s.ta"],
                 "is above the bound and also has its integer part or fraction fixed",
                 id="starting-above-bound-with-fraction"),
    pytest.param({"s.ta": STARTING_MISSES_INITIAL},
                 ["bandwidth", "s.ta", "--T", "1,2", "--eps", "1/2"],
                 "initial vector violates the starting constraint",
                 id="starting-misses-initial-vector"),
    pytest.param({"s.ta": STARTING_CONTRADICTS.format(
                     atoms="frac(x)=0, frac(x)=frac(y), ⌊x⌋=1, ⌊x⌋=2")},
                 ["regionize", "s.ta"], "clock 'x' has two integer parts",
                 id="starting-two-integer-parts"),
    pytest.param({"s.ta": STARTING_CONTRADICTS.format(
                     atoms="frac(x)=0, frac(x)=frac(y)")},
                 ["regionize", "s.ta"], "equates a zero and a positive fraction",
                 id="starting-zero-equals-positive"),
    pytest.param({"s.ta": STARTING_CONTRADICTS.format(
                     atoms="frac(y)=0, frac(x)<frac(y)")},
                 ["regionize", "s.ta"], "puts a fraction below zero",
                 id="starting-fraction-below-zero"),
    pytest.param({"s.ta": STARTING_CONTRADICTS.format(
                     atoms="frac(x)=frac(y), frac(y)<frac(x)")},
                 ["regionize", "s.ta"], "orders two equal fractions",
                 id="starting-equal-fractions-ordered"),
    pytest.param({"s.ta": STARTING_CONTRADICTS.format(atoms="⌊x⌋=0, ⌊y⌋=0")},
                 ["regionize", "s.ta"], "does not totally order the fractional parts",
                 id="starting-fractions-unordered"),
    pytest.param({"s.ta": STARTING_CONTRADICTS.format(
                     atoms="frac(x)<frac(y), frac(y)<frac(x)")},
                 ["regionize", "s.ta"], "does not totally order the fractional parts",
                 id="starting-fractions-cyclic"),
    pytest.param({"s.ta": STARTING_ABOVE_LITERAL_LOW}, ["validate", "s.ta"],
                 "x>1 in the starting line of 'q' is below the max constant 2; "
                 "write x>M", id="starting-above-literal-below-bound"),
    pytest.param({"s.ta": STARTING_ABOVE_BOUND}, ["classify", "s.ta"],
                 "location 'p' starts in a region with a clock above the bound",
                 id="starting-above-bound-classify"),
    pytest.param({"s.ta": STARTING_ABOVE_BOUND},
                 ["classify", "s.ta", "--mode", "savitch"],
                 "location 'p' starts in a region with a clock above the bound",
                 id="starting-above-bound-classify-savitch"),
    pytest.param({"s.ta": STARTING_ABOVE_BOUND},
                 ["orbit", "s.ta", "--path", "d1,d2", "--kind", "f"],
                 "location 'p' starts in a region with a clock above the bound",
                 id="starting-above-bound-orbit"),
    pytest.param({"s.ta": STARTING_INEXACT}, ["classify", "s.ta"],
                 "edge d1 is not exact", id="starting-inexact-edge-classify"),
    pytest.param({"s.ta": STARTING_INEXACT},
                 ["classify", "s.ta", "--mode", "savitch"],
                 "edge d1 is not exact", id="starting-inexact-edge-classify-savitch"),
    pytest.param({"s.ta": STARTING_INEXACT}, ["orbit", "s.ta", "--path", "d1"],
                 "edge d1 is not exact", id="starting-inexact-edge-orbit"),
    pytest.param({"s.ta": ACCEPTING_UNKNOWN_CLOCK}, ["validate", "s.ta"],
                 "accepting guard of 'q' uses undeclared clock 'x'",
                 id="accepting-unknown-clock-validate"),
    pytest.param({"s.ta": ACCEPTING_UNKNOWN_CLOCK}, ["classify", "s.ta"],
                 "accepting guard of 'q' uses undeclared clock 'x'",
                 id="accepting-unknown-clock-classify"),
    pytest.param({"dup.ta": "automaton dup\nclocks x x\nalphabet a\n"
                  "location q initial accepting\nedge q -> q on a guard x < 1 reset x\n"},
                 ["classify", "dup.ta"], "parse error: line 2, col 4: duplicate clock 'x'",
                 id="clock-listed-twice"),
    pytest.param({"big.ta": BIG_CONSTANT}, ["--json", "classify", "big.ta"],
                 "region splitting exceeded the cap of 1000000",
                 id="region-split-over-cap"),
    pytest.param({"chains.ta": MANY_CHAINS},
                 ["classify", "chains.ta", "--cap", "1000"],
                 "region splitting exceeded the cap of 1000:",
                 id="region-chains-over-cap"),
])
def test_bad_input_exits_with_message(capsys, corpus_dir, monkeypatch, files, argv,
                                      message):
    monkeypatch.chdir(corpus_dir)
    for name, text in files.items():
        if isinstance(text, bytes):
            (corpus_dir / name).write_bytes(text)
        else:
            (corpus_dir / name).write_text(text)
    code, _, err = run(capsys, *argv)
    assert code == 10
    assert err.count("\n") == 1 and err.startswith(("error: ", "parse error: "))
    assert message in err


def test_starting_region_above_bound_is_read_without_vertices(capsys, tmp_path):
    """Commands that need no vertices accept a clock above the bound."""
    (tmp_path / "s.ta").write_text(STARTING_ABOVE_BOUND)
    for argv in (["validate"], ["regionize"], ["bandwidth", "--T", "1", "--eps", "1/2"]):
        assert run(capsys, argv[0], str(tmp_path / "s.ta"), *argv[1:])[0] == 0


def test_starting_region_above_bound_without_edges_is_accepted(capsys, tmp_path):
    """classify and orbit read the regions of the locations that edges start
    or end at, so a clock above the bound at an edgeless location passes."""
    (tmp_path / "s.ta").write_text(STARTING_ABOVE_BOUND_EDGELESS)
    for mode in ("bfs", "savitch"):
        code, out, _ = run(capsys, "--json", "classify", str(tmp_path / "s.ta"),
                           "--mode", mode)
        assert code == 0
        assert json.loads(out)["result"]["class"] == "meager"
    assert run(capsys, "orbit", str(tmp_path / "s.ta"), "--path", "d1,d2")[0] == 0


def test_regionized_inexact_edge_is_split_exact(capsys, tmp_path):
    """Without its starting line the inexact automaton regionizes into two
    exact edges, which classify and orbit then accept."""
    plain = "".join(line + "\n" for line in STARTING_INEXACT.splitlines()
                    if not line.startswith("starting"))
    (tmp_path / "s.ta").write_text(plain)
    rs_file = str(tmp_path / "rs.ta")
    assert run(capsys, "regionize", str(tmp_path / "s.ta"), "--out", rs_file)[0] == 0
    rs = parse_automaton((tmp_path / "rs.ta").read_text())
    assert len(rs.edges) == 2
    assert run(capsys, "classify", rs_file)[0] == 2
    assert run(capsys, "classify", rs_file, "--mode", "savitch")[0] == 2
    assert run(capsys, "orbit", rs_file, "--path", "d1,d2")[0] == 0


def test_starting_region_defaults_integer_part_to_zero():
    """A bounded clock with no integer-part atom has integer part 0."""
    head = ("automaton s\nclocks x y\nalphabet a\n"
            "location q initial accepting\nlocation p\n"
            "starting q ⌊x⌋=0, frac(x)=0, ⌊y⌋=0, frac(y)=0\n")
    short = parse_automaton(head + "starting p frac(x)=0\n")
    full = parse_automaton(head + "starting p ⌊x⌋=0, frac(x)=0\n")
    assert short.regions == full.regions
    assert short.regions["p"] == region_of((F(0), F(1, 2)), short.regions["p"].bound)


def test_cap_flag(capsys, corpus_dir, tmp_path):
    code, _, err = run(capsys, "classify", str(corpus_dir / "a6.ta"), "--cap", "3")
    assert code == 10
    # no clocks: one region, and the monoid is the unit and one loop orbit
    (tmp_path / "loops.ta").write_text(
        "automaton loops\nalphabet a b\nlocation q initial accepting\n"
        "edge q -> q on a\nedge q -> q on b\n")
    for mode in ("bfs", "savitch"):
        code, _, err = run(capsys, "classify", str(tmp_path / "loops.ta"),
                           "--cap", "1", "--mode", mode)
        assert code == 10 and "exceeded the cap of 1 elements" in err, mode
        assert run(capsys, "classify", str(tmp_path / "loops.ta"),
                   "--cap", "2", "--mode", mode)[0] == 2


def test_savitch_mode_flag(capsys, corpus_dir):
    code, out, _ = run(capsys, "--json", "classify", str(corpus_dir / "a7.ta"),
                       "--mode", "savitch")
    assert code == 2
    assert json.loads(out)["result"]["class"] == "obese"


def test_other_reports_byte_stable(capsys, corpus_dir):
    invocations = [
        ("--json", "validate", str(corpus_dir / "a8.ta")),
        ("--json", "orbit", str(corpus_dir / "a6.ta"), "--path", "d1,d2",
         "--kind", "d"),
        ("--json", "regionize", str(corpus_dir / "a9.ta")),
        ("--json", "bandwidth", str(corpus_dir / "a5.ta"),
         "--T", "10", "--eps", "1/2,1/4,1/8"),
    ]
    for argv in invocations:
        first = run(capsys, *argv)[1]
        second = run(capsys, *argv)[1]
        assert _strip_wall_time(first) == _strip_wall_time(second)
        json.loads(first)  # well-formed


def test_starting_region_reads_literal_bound_and_repeated_atoms():
    """`x>k` with k the max constant is `x>M`, and repeating an atom
    changes nothing."""
    head = ("automaton s\nclocks x y\nalphabet a\n"
            "location q initial accepting\nlocation p\n"
            "edge q -> p on a guard x < 2\n"
            "starting q ⌊x⌋=0, frac(x)=0, ⌊y⌋=0, frac(y)=0\n")
    literal = parse_automaton(head + "starting p x>2, ⌊y⌋=1, ⌊y⌋=1, frac(y)=0\n")
    symbolic = parse_automaton(head + "starting p x>M, ⌊y⌋=1, frac(y)=0\n")
    assert literal.regions == symbolic.regions
    assert literal.regions["p"].int_part == (None, 1)
