"""Fuzz tests for the input parsers and the command line.

Malformed input must end in the parser's own error type (which the CLI maps to
exit code 10), never in another exception.  The automaton strategy mixes
well-formed directives, `starting` region lines included, with token soup.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tempoclass.cli import main
from tempoclass.corpus import SOURCES
from tempoclass.ta import _TOKEN, ParseError, TAError, parse_automaton
from tempoclass.words import parse_word

LOCATIONS = ("q", "p")
NATS = st.integers(0, 3).map(str)

TOKENS = st.sampled_from([
    "q", "p", "r", "x", "y", "z", "a", "b", "0", "1", "3", "99", "-1", "1/2",
    "<", "<=", ">", ">=", "=", ",", "->", "on", "guard", "reset", "initial",
    "accepting", "automaton", "starting", "⌊x⌋=0", "frac(x)=0", "x>M", "#", "",
])


def _region_atom(clocks):
    """A region atom over `clocks` and the undeclared clock z."""
    names = st.sampled_from(clocks * 3 + ("z",))
    return st.tuples(names, names, NATS).flatmap(lambda t: st.sampled_from([
        f"⌊{t[0]}⌋={t[2]}", f"floor({t[0]})={t[2]}", f"{t[0]}>{t[2]}", f"{t[0]}>M",
        f"frac({t[0]})=0", f"frac({t[0]})=frac({t[1]})", f"frac({t[0]})<frac({t[1]})"]))


@st.composite
def guard_text(draw, clocks):
    atoms = draw(st.lists(st.tuples(st.sampled_from(clocks),
                                    st.sampled_from(["<", "<=", ">", ">=", "="]),
                                    NATS), max_size=2))
    return ", ".join(f"{c} {r} {k}" for c, r, k in atoms)


@st.composite
def automaton_text(draw):
    """A header, two locations, a few edges and, in half the draws, `starting`
    lines, with some lines swapped for token soup.  Clocks are mostly the
    declared ones; the start region often pins the initial vector exactly."""
    declared = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y"), ()]))
    clocks = declared or ("x",)
    if draw(st.integers(0, 9)) == 0:
        clocks += ("y",)
    lines = ["automaton s", "clocks " + " ".join(declared), "alphabet a b"]
    initial = {}
    for q in LOCATIONS:
        line = f"location {q}"
        if q == "q" or draw(st.booleans()):
            values = dict(draw(st.lists(st.tuples(st.sampled_from(clocks), NATS), max_size=2)))
            line += " initial " + ", ".join(f"{c}={k}" for c, k in values.items())
            initial[q] = values
        if draw(st.booleans()):
            line += " accepting " + draw(guard_text(clocks))
        lines.append(line)
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.sampled_from(LOCATIONS)), draw(st.sampled_from(LOCATIONS))
        line = f"edge {src} -> {dst} on {draw(st.sampled_from(['a', 'b', 'a,b']))}"
        guard = draw(guard_text(clocks))
        if guard:
            line += " guard " + guard
        resets = draw(st.lists(st.sampled_from(clocks), max_size=2, unique=True))
        if resets:
            line += " reset " + ", ".join(resets)
        lines.append(line)
    if draw(st.booleans()):
        for q in draw(st.sampled_from([LOCATIONS] * 3 + [LOCATIONS[:1], LOCATIONS * 2])):
            atoms = draw(st.lists(_region_atom(clocks), max_size=4))
            if q in initial and draw(st.booleans()):
                atoms = [f"⌊{c}⌋={initial[q].get(c, '0')}, frac({c})=0"
                         for c in declared] + atoms[:1]
            lines.append(f"starting {q} " + ", ".join(atoms))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        soup = " ".join(draw(st.lists(TOKENS, max_size=6)))
        lines.insert(draw(st.integers(0, len(lines))), soup)
    return "\n".join(lines) + "\n"


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(automaton_text())
def test_parse_automaton_returns_or_raises_taerror(text):
    """A `ParseError` names a line of the text and a column where one of its
    tokens starts, or one past its last token (comments cut off)."""
    try:
        parse_automaton(text)
    except ParseError as ex:
        if str(ex) == "line 1, col 1: missing 'automaton' line":
            return
        lines = text.splitlines()
        assert 1 <= ex.line <= len(lines), str(ex)
        line = lines[ex.line - 1].split("#", 1)[0]
        starts = {m.start() + 1 for m in _TOKEN.finditer(line)}
        assert ex.column in starts | {len(line.rstrip()) + 1}, (line, str(ex))
    except TAError:
        pass


@FUZZ
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["a", "b", "", "#", "a b"]),
              st.sampled_from(["0", "1", "0.7", "3/2", "1/0", "-1", "x", "1e3", "nan",
                               "inf", "", "2 3"])).map(" ".join),
    st.text(max_size=8)), max_size=6))
def test_parse_word_returns_or_raises_valueerror(lines):
    try:
        parse_word("\n".join(lines))
    except (ValueError, ZeroDivisionError):
        pass


# -- the command line ---------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name in ("a1", "a5", "a6", "a7"):
        (d / f"{name}.ta").write_text(SOURCES[name])
    (d / "u.tw").write_text("a 0.7\nb 1.8\na 3\n")
    (d / "v.tw").write_text("a 0.6\na 1\nb 1.7\n")
    (d / "bad.tw").write_text("a 1/0\n")
    (d / "latin1.ta").write_bytes(b"automaton \xe9\n")
    return d


def _mostly(draw, good, bad):
    """Values from `good`, or in one draw of four from `bad`."""
    return st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good)


def _argv(draw, d):
    file = str(d / draw(_mostly(draw, ["a1.ta", "a5.ta", "a6.ta", "a7.ta", "gen.ta"],
                                ["u.tw", "latin1.ta", "missing.ta", "."])))
    command = draw(st.sampled_from(
        ["validate", "regionize", "orbit", "classify", "distance", "bandwidth"]))
    argv = ["--json"] if draw(st.booleans()) else []
    if command == "distance":
        words = st.sampled_from(["u.tw", "v.tw", "bad.tw", "missing.tw"])
        return argv + [command, str(d / draw(words)), str(d / draw(words))]
    argv += [command, file]
    if command == "regionize" and draw(st.booleans()):
        argv += ["--out", str(d / "out.ta")]
    elif command == "orbit":
        argv += ["--path", draw(st.sampled_from(["d1", "d1,d2", "d2,d1", "d9", "", ",",
                                                 "d1.0"]))]
        if draw(st.booleans()):
            argv += ["--kind", draw(st.sampled_from(["p", "f", "d", "q"]))]
        if draw(st.booleans()):
            argv += ["--dot", str(d / "out.dot")]
    elif command == "classify":
        if draw(st.booleans()):
            argv += ["--cap", draw(st.sampled_from(["1", "3", "1000", "0", "-2", "x"]))]
        if draw(st.booleans()):
            argv += ["--mode", draw(st.sampled_from(["bfs", "savitch", "dfs"]))]
    elif command == "bandwidth":
        durations = _mostly(draw, ["1", "2", "1/2", "3/2"], ["0", "-1", "1/0", "x", ""])
        epss = _mostly(draw, ["1", "1/2", "1/4", "1/8"], ["0", "-1/2", "y", ""])
        argv += ["--T", ",".join(draw(st.lists(durations, min_size=1, max_size=3))),
                 "--eps", ",".join(draw(st.lists(epss, min_size=1, max_size=3)))]
        if draw(st.booleans()):
            argv += ["--grid", draw(_mostly(draw, ["1/8", "1/16"], ["1/3", "1", "0", "z"]))]
        if draw(st.booleans()):
            argv += ["--word-cap", draw(_mostly(draw, ["50", "2000"], ["1", "0", "w"]))]
    if draw(st.integers(0, 4)) == 0:  # one stray token
        stray = draw(st.sampled_from(["--cap", "--T", "--bogus", "-", "1", "--json"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes(fuzz_dir, data):
    (fuzz_dir / "gen.ta").write_text(data.draw(automaton_text()))
    argv = _argv(data.draw, fuzz_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 10), (argv, err.getvalue())
    if code == 10:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
