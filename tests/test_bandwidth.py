import contextlib
import importlib
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from conftest import TICKER, deterministic_draws
from tempoclass.bandwidth import (DEFAULT_WORD_CAP, CurveRow,
                                  EnumerationCapExceeded, _compile_slice,
                                  _grid_words, _rows, _search_states, _walk,
                                  bandwidth_curve, curve_csv, enumerate_words,
                                  estimate_capacity, fit_class)
from tempoclass.corpus import NAMES, automaton
from tempoclass.ta import TAError, TimedAutomaton, parse_automaton, step
from tempoclass.words import greedy_separated, timed_word


def test_a5_integer_grid_enumeration():
    """Punctual schedule: a|b at 3, b at 5, then again shifted by the 5s cycle."""
    words = enumerate_words(automaton("a5"), F(10), F(1))
    assert len(words) == 13  # empty word plus 2 + 2 + 4 + 4 prefixes
    nonempty = [w for w in words if len(w)]
    assert len(nonempty) == 12
    dates = {tuple(t for _, t in w.events) for w in nonempty}
    assert dates == {(3,), (3, 5), (3, 5, 8), (3, 5, 8, 10)}


def test_duration_zero():
    words = enumerate_words(automaton("a1"), F(0), F(1, 2))
    keys = {tuple(sorted(set(w.events))) for w in words}
    assert keys == {(), (("a", 0),), (("b", 0),), (("a", 0), ("b", 0))}


def test_a6_small_slice_structure():
    a = automaton("a6")
    words = enumerate_words(a, F(2), F(1, 2))
    for w in words:
        letters = w.letters()
        assert letters in ("", "a", "ab")
        assert _replays(a, w)
    assert {w.letters() for w in words} == {"", "a", "ab"}


def _replays(a, word) -> bool:
    states = [a.initial_state()]
    for letter, t in word.events:
        nxt = []
        for s in states:
            for e in a.edges_from(s.location):
                if e.label == letter:
                    out = step(a, s, e, t)
                    if out is not None:
                        nxt.append((s, e, t, out))
        states = [o for (_, _, _, o) in nxt]
        if not states:
            return False
    return any(a.is_accepting(s.location, s.clocks) for s in states)


def _brute_force_words(a, duration, grid, max_events):
    """All grid event sequences accepted by direct replay, as event sets.

    Sequences obey the enumerator's contract: dates on the grid, duration at
    most the bound, per-step delays at most maxConstant + 1.
    """
    dates = [F(k) * grid for k in range(int(duration / grid) + 1)]
    cap = a.max_constant + 1
    found = set()
    if a.is_accepting(a.initial_state().location, a.initial_state().clocks):
        found.add(())
    seqs = [[]]
    for _ in range(max_events):
        new = []
        for seq in seqs:
            last = seq[-1][1] if seq else F(0)
            for letter in a.alphabet:
                for t in dates:
                    if t < last or t - last > cap:
                        continue
                    cand = seq + [(letter, t)]
                    if _accepted_prefix(a, cand):
                        new.append(cand)
                        found.add(tuple(sorted(set(cand))))
        seqs = new
    return found


def _accepted_prefix(a, events):
    states = [a.initial_state()]
    for letter, t in events:
        nxt = []
        for s in states:
            for e in a.edges_from(s.location):
                if e.label == letter:
                    out = step(a, s, e, t)
                    if out is not None:
                        nxt.append(out)
        states = nxt
        if not states:
            return False
    return any(a.is_accepting(s.location, s.clocks) for s in states)


# accepting guards that mix strict and non-strict lower and upper bounds
BOUNDED_ACCEPTING = {
    "accepting-one-clock": """automaton acc1
clocks x
alphabet a b
location q initial accepting x > 1, x <= 2
location p accepting x >= 1, x < 3
edge q -> p on a guard x < 2
edge p -> q on b reset x
edge p -> p on a guard x >= 1 reset x
""",
    "accepting-two-clocks": """automaton acc2
clocks x y
alphabet a b
location q initial accepting y < 1, x >= 1
location p accepting x > 1, y >= 1, x <= 3
edge q -> p on a guard x <= 1 reset y
edge p -> q on b guard y > 0
edge p -> p on a guard x < 2 reset x
""",
}


@pytest.mark.parametrize("name", ["a1", "a5", "a6", "a8", "a4", *BOUNDED_ACCEPTING])
def test_enumeration_sound_and_complete_up_to_kernel(name):
    """Soundness: every enumerated word replays and is accepted.
    Completeness: every accepted grid sequence of at most 4 events has an
    enumerated word with the same event set (words repeating events at one
    date are identified by the pseudo-metric).  a4 accepts nothing before 3
    and needs a longer slice."""
    a = (parse_automaton(BOUNDED_ACCEPTING[name]) if name in BOUNDED_ACCEPTING
         else automaton(name))
    duration, grid = (F(8) if name == "a4" else F(3)), F(1, 2)
    words = enumerate_words(a, duration, grid)
    for w in words:
        assert _replays(a, w), w.text()
    enumerated_sets = {tuple(sorted(set(w.events))) for w in words}
    for key in _brute_force_words(a, duration, grid, max_events=4):
        assert key in enumerated_sets


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_words(automaton("a1"), F(4), F(1, 8), cap=500)


@pytest.mark.parametrize("name, duration, grid, needed, words_at_half", [
    ("a6", F(2), F(1, 8), 121, 61),
    ("a4", F(10), F(1, 4), 133, 57),
    ("a1", F(3, 4), F(1, 8), 62_500, 8_193),
])
def test_enumeration_budget(name, duration, grid, needed, words_at_half):
    """The cap counts search states: `needed` is the smallest cap under which
    the slice enumerates.  `words_at_half`, the words a depth-first walk
    meets in its first needed // 2 states, only names the case: a slice over
    the cap is refused before any word is built."""
    a = automaton(name)
    enumerate_words(a, duration, grid, cap=needed)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_words(a, duration, grid, cap=needed - 1)
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_words(a, duration, grid, cap=needed // 2)
    assert exc.value.cap == needed // 2


def test_enumeration_memory_independent_of_horizon():
    """a6 at grid 1/4 has the same words at T=16 and T=2^16; building them
    allocates for the words, not for every grid date up to the horizon."""
    a = automaton("a6")
    short = enumerate_words(a, F(16), F(1, 4))
    tracemalloc.start()
    try:
        long = enumerate_words(a, F(2 ** 16), F(1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert long == short
    assert peak < 1_000_000


def test_grid_validation():
    with pytest.raises(TAError):
        enumerate_words(automaton("a5"), F(2), F(1, 3))
    with pytest.raises(TAError):
        enumerate_words(automaton("a5"), F(5, 4), F(1, 2))
    # a zero duration is a legal slice, a negative one is not
    with pytest.raises(TAError, match="must not be negative"):
        enumerate_words(automaton("a5"), F(-2), F(1, 2))
    with pytest.raises(TAError, match="word cap must be a positive integer"):
        enumerate_words(automaton("a5"), F(2), F(1, 2), cap=0)


def test_curve_checks_word_cap_before_any_slice():
    """The curve rejects a word cap below 1 up front, with `_compile_slice`'s
    message, also when no duration aligns with the grid and so no slice is
    compiled."""
    for durations in ([F(1, 3)], [F(1)]):
        with pytest.raises(TAError, match="^word cap must be a positive integer, got 0$"):
            bandwidth_curve(automaton("a3"), durations, [F(1, 2)], cap=0)


@pytest.mark.parametrize("name", NAMES)
def test_grid_words_match_enumerate_words(name):
    """The integer enumerator behind the curve gives `enumerate_words`'s
    words in the same order, with the dates times the grid's denominator."""
    a = automaton(name)
    for duration, grid in [(F(2), F(1, 2)), (F(1), F(1, 4)), (F(3, 8), F(1, 8))]:
        scale = grid.denominator
        assert _grid_words(a, duration, grid, DEFAULT_WORD_CAP) == [
            tuple((letter, t * scale) for letter, t in w.events)
            for w in enumerate_words(a, duration, grid)]


@pytest.mark.parametrize("duration", [F(1500), F(3000)])
def test_deep_slices_walk_without_recursion(duration):
    """The ticker fires once a second, so each second of horizon is one more
    event on the path and one more instant: both walkers keep their own
    stack, and neither stops at the interpreter's recursion limit."""
    a = parse_automaton(TICKER)
    n = int(duration) + 1
    assert _search_states(a, duration, F(1, 4), DEFAULT_WORD_CAP) == n
    words = _grid_words(a, duration, F(1, 4), DEFAULT_WORD_CAP)
    assert len(words) == n
    assert words[-1] == tuple(("a", 4 * t) for t in range(1, n))


# T=0 explores only the start instant; (2, 1/4) and (12, 1/2) are over the
# cap on a1, a3 and a7, and only (12, 1/2) lets a4 and a5 fire an edge
COUNTED_SLICES = [(F(0), F(1, 2)), (F(1), F(1, 2)), (F(3, 8), F(1, 8)),
                  (F(1), F(1, 4)), (F(2), F(1, 4)), (F(12), F(1, 2))]


class _WalkTooLong(Exception):
    pass


def _walked_states(a, duration, grid, limit: int) -> int:
    """The search states the uncapped walk of the slice enters, counted as
    its calls to the compiled slice's `steps`, or limit + 1 once they pass
    the limit (the walk is stopped there)."""
    s = _compile_slice(a, duration, grid, limit)
    calls = 0

    def counting(*state):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise _WalkTooLong
        return s.steps(*state)

    with contextlib.suppress(_WalkTooLong):
        _walk(s._replace(steps=counting))
    return calls


@pytest.mark.parametrize("split", [False, True], ids=["plain", "split"])
@pytest.mark.parametrize("name", NAMES)
def test_search_states_count_the_enumeration_exactly(name, split, split_corpus):
    """The counter's result c is the number of search states the uncapped
    walk enters, counted on the walk itself, and the smallest cap under
    which the slice enumerates; over the cap it reports cap + 1, and the
    enumeration stops."""
    a = split_corpus[name] if split else automaton(name)
    cap = 20_000
    for duration, grid in COUNTED_SLICES:
        c = _search_states(a, duration, grid, cap)
        assert c == _walked_states(a, duration, grid, cap)
        if c > cap:
            assert c == cap + 1
            with pytest.raises(EnumerationCapExceeded):
                _grid_words(a, duration, grid, cap)
            continue
        assert c >= 1
        assert _search_states(a, duration, grid, c) == c
        _grid_words(a, duration, grid, c)
        if c > 1:
            assert _search_states(a, duration, grid, c - 1) == c
        with pytest.raises(EnumerationCapExceeded if c > 1 else TAError):
            _grid_words(a, duration, grid, c - 1)


@pytest.mark.parametrize("name, duration, grid, needed, words_at_half", [
    ("a6", F(2), F(1, 8), 121, 61),
    ("a4", F(10), F(1, 4), 133, 57),
    ("a1", F(3, 4), F(1, 8), 62_500, 8_193),
])
def test_search_states_give_the_enumeration_budget(name, duration, grid, needed,
                                                   words_at_half):
    """`test_enumeration_budget`'s smallest caps, from the counter alone; a
    result is cap + 1 exactly when the slice needs more than the cap."""
    a = automaton(name)
    assert _search_states(a, duration, grid, DEFAULT_WORD_CAP) == needed
    for cap in (needed, needed + 1, 10 * needed):
        assert _search_states(a, duration, grid, cap) == needed
    for cap in (needed - 1, needed // 2, 1):
        assert _search_states(a, duration, grid, cap) == cap + 1


def test_search_states_of_an_automaton_without_locations():
    empty = TimedAutomaton("empty", ("x",), ("a",), (), (), {}, {})
    assert _search_states(empty, F(2), F(1, 2), 10) == 0
    assert _grid_words(empty, F(2), F(1, 2), 10) == []


def test_search_states_check_the_slice_like_the_enumerator():
    a = automaton("a5")
    for duration, grid, cap in [(F(2), F(1, 3), 10), (F(-2), F(1, 2), 10),
                                (F(2), F(1, 2), 0), (F(5, 4), F(1, 2), 10)]:
        with pytest.raises(TAError) as counted:
            _search_states(a, duration, grid, cap)
        with pytest.raises(TAError) as enumerated:
            _grid_words(a, duration, grid, cap)
        assert str(counted.value) == str(enumerated.value)


# two a edges from q whose guards overlap on (0, 2), so the walk reads many
# event sequences along two paths, with and without simultaneous events
TWIN_EDGES = """automaton twin
clocks x
alphabet a b
location q initial accepting
location p accepting
edge q -> p on a guard x < 2
edge q -> p on a guard x > 0, x < 3 reset x
edge p -> q on b
"""


def _sorted_key_words(s) -> tuple[list, int]:
    """The slice's words by the same depth-first walk, one per multiset of
    events keyed on the whole sorted path, each the first path found; also
    the number of paths whose dates strictly increase and whose multiset
    was found before."""
    words, repeated = {}, 0
    if s.accepting:
        words[()] = ()
    events = []
    stack = [(iter(s.steps(s.location, s.clocks, 0)), 0,
              {(s.location, s.clocks, frozenset())}, frozenset())]
    while stack:
        moves, date, chain, letters = stack[-1]
        for k, edge, landed, label, accepted in moves:
            if k == 0:
                next_letters = letters | label
                key = (edge.dst, landed, next_letters)
                if key in chain:
                    continue
                chain.add(key)
                next_chain = chain
            else:
                next_chain = {(edge.dst, landed, label)}
                next_letters = label
            t = date + k
            events.append((edge.label, t))
            if accepted:
                key = tuple(sorted(events))
                if key in words:
                    repeated += len({d for _, d in events}) == len(events)
                words.setdefault(key, tuple(events))
            stack.append((iter(s.steps(edge.dst, landed, t)), t, next_chain,
                          next_letters))
            break
        else:
            stack.pop()
            if stack:
                events.pop()
    ordered = sorted(words.values(),
                     key=lambda w: (w[-1][1] if w else 0, len(w), w))
    return ordered, repeated


def test_walk_keys_keep_the_first_path_of_each_multiset(split_corpus):
    """Keying a path on itself while its dates strictly increase, and on its
    events sorted from its first shared date otherwise, keeps the words and
    the first paths that keying every path on its sorted events keeps: on
    the corpus, plain and split, on 60 random automata and on an automaton
    with two overlapping a edges, where paths with strictly increasing
    dates repeat a sequence."""
    cap = 20_000
    subjects = [*(automaton(n) for n in NAMES), *split_corpus.values(),
                *deterministic_draws(7, 60), parse_automaton(TWIN_EDGES)]
    repeats = 0
    for a in subjects:
        for duration, grid in COUNTED_SLICES:
            if _search_states(a, duration, grid, cap) > cap:
                continue
            expected, repeated = _sorted_key_words(_compile_slice(a, duration, grid, cap))
            assert _grid_words(a, duration, grid, cap) == expected, (a.name, duration, grid)
            if a.name == "twin":
                repeats += repeated
    assert repeats > 0


@pytest.mark.parametrize("split", [False, True], ids=["plain", "split"])
def test_walk_builds_the_rows_of_its_words(split, split_corpus):
    """The bitsets the walk builds one event at a time equal those `_rows`
    builds from each word's events, and `estimate_capacity` estimates the
    same from its own walk as from `enumerate_words`'s words, whose lanes
    it orders by first use.  At T = 1/8 on grid 1/16, eps = 1/2 is a cutoff
    of 8 grid units over a horizon of 2."""
    cap = 20_000
    for name in NAMES:
        a = split_corpus[name] if split else automaton(name)
        for duration, grid in [*COUNTED_SLICES, (F(1, 8), F(1, 16))]:
            if _search_states(a, duration, grid, cap) > cap:
                continue
            s = _compile_slice(a, duration, grid, cap)
            rows = _walk(s)
            assert rows == _rows([row[2] for row in rows], s.lanes)
            words = enumerate_words(a, duration, grid, cap)
            for eps in (2 * grid, 3 * grid, 8 * grid):
                assert (estimate_capacity(a, duration, eps, grid, cap)
                        == estimate_capacity(a, duration, eps, grid, cap, words=words)), (
                    name, duration, grid, eps)


def test_ticker_keeps_every_word_of_its_deepest_slices():
    """At T = 3000 the ticker's words are its 3,001 prefixes, one event a
    second; any two differ by a whole event, so at every eps the greedy
    keeps them all."""
    epss = [F(1, 2), F(1, 4), F(1, 8)]
    rows = bandwidth_curve(parse_automaton(TICKER), [F(3000)], epss)
    assert [(r.eps, r.duration, r.grid, r.word_count) for r in rows] == [
        (eps, F(3000), eps / 2, 3001) for eps in epss]
    assert all(r.capacity_bits == math.log2(3001) for r in rows)


def _record_slices(monkeypatch) -> tuple[list, list]:
    """Patch the compiler and the walker; the lists returned receive the
    (T, grid) of each slice compiled and of each slice walked."""
    bandwidth = importlib.import_module("tempoclass.bandwidth")
    compile_slice, walk = bandwidth._compile_slice, bandwidth._walk
    slices, compiled, walked = [], [], []

    def compiling(a, duration, grid, cap):
        s = compile_slice(a, duration, grid, cap)
        slices.append(s)
        compiled.append((duration, grid))
        return s

    def walking(s):
        walked.append(compiled[next(i for i, c in enumerate(slices) if c is s)])
        return walk(s)

    monkeypatch.setattr(bandwidth, "_compile_slice", compiling)
    monkeypatch.setattr(bandwidth, "_walk", walking)
    return compiled, walked


def test_curve_enumerates_only_slices_under_the_cap(monkeypatch):
    """The curve decides a cap hit by counting: a1's T=3/2 slice needs more
    than 5,000 search states and is never enumerated."""
    compiled, walked = _record_slices(monkeypatch)
    rows = bandwidth_curve(automaton("a1"), [F(3, 4), F(3, 2)], [F(1, 2), F(1)],
                           grid=F(1, 4), cap=5_000)
    assert walked == [(F(3, 4), F(1, 4))]
    assert compiled == [(F(3, 4), F(1, 4)), (F(3, 2), F(1, 4))]
    assert rows == [CurveRow(F(1, 2), F(3, 4), F(1, 4), 4.0, 4.0, 256),
                    CurveRow(F(1), F(3, 4), F(1, 4), 2.0, 2.0, 256)]
    # the T=3/4 slice takes exactly 500 states, so a cap of 500 still admits it
    assert bandwidth_curve(automaton("a1"), [F(3, 4), F(3, 2)], [F(1, 2), F(1)],
                           grid=F(1, 4), cap=500) == rows


def test_curve_enumerates_each_grid_slice_once(monkeypatch):
    """The eps values of one grid share one walk, of the last slice counted;
    the T=3/2 slice is counted but never walked."""
    compiled, walked = _record_slices(monkeypatch)
    a = automaton("a6")
    epss = [F(1, 2), F(1, 3), F(1, 5)]
    rows = bandwidth_curve(a, [F(3, 2), F(2)], epss, grid=F(1, 16))
    assert compiled == [(F(3, 2), F(1, 16)), (F(2), F(1, 16))]
    assert walked == [(F(2), F(1, 16))]
    # the same rows as one estimate per eps on its own enumeration
    assert [(r.eps, r.duration, r.word_count, r.capacity_bits) for r in rows] == [
        (eps, F(2), est.word_count, est.capacity_bits)
        for eps in epss
        for est in [estimate_capacity(a, F(2), eps, F(1, 16))]]


def test_curve_compiles_each_aligned_slice_once(monkeypatch):
    """One compilation per aligned (T, grid) slice serves both the count and
    the walk, and each grid walks only its last slice under the cap; T=1/8
    does not align with the grid 1/4 and is not compiled for it, and grid
    1/8 stops at its first slice over the cap."""
    compiled, walked = _record_slices(monkeypatch)
    bandwidth_curve(automaton("a6"), [F(2), F(1, 8), F(3, 2), F(4)],
                    [F(1, 2), F(1, 4)], cap=121)
    assert compiled == [(F(3, 2), F(1, 4)), (F(2), F(1, 4)), (F(4), F(1, 4)),
                        (F(1, 8), F(1, 8)), (F(3, 2), F(1, 8)), (F(2), F(1, 8)),
                        (F(4), F(1, 8))]
    assert walked == [(F(4), F(1, 4)), (F(2), F(1, 8))]


def _reference_curve(a, durations, epss, grid, cap) -> tuple[list, set]:
    """The curve as one estimate per eps and aligned duration, up to the
    first slice over the cap, keeping each eps's last non-empty row; also
    the cases met: "partway" (a slice over the cap after one within it),
    "empty" (an eps whose first aligned slice is empty) and "no row"."""
    rows, met = [], set()
    for eps in epss:
        g = eps / 2 if grid is None else grid
        best, counted = None, 0
        for t in sorted(durations):
            if t % g != 0:
                continue
            try:
                est = estimate_capacity(a, t, eps, g, cap)
            except EnumerationCapExceeded:
                if counted:
                    met.add("partway")
                break
            if est.empty and not counted:
                met.add("empty")
            counted += 1
            if not est.empty:
                best = CurveRow(eps, t, g, est.capacity_bits, est.entropy_bits,
                                est.word_count)
        if best is None:
            met.add("no row")
        else:
            rows.append(best)
    return rows, met


# caps that stop curves partway, and durations short enough that some slices
# are empty (a4's are empty up to T = 3 and not at T = 10)
CURVE_PLANS = [
    ([F(1, 4), F(1, 2), F(1), F(2), F(3)], [F(1, 2), F(1, 4), F(1, 8)], None, 800),
    ([F(1, 8), F(1), F(2), F(10)], [F(1, 2), F(1)], None, 2_000),
    ([F(1, 8), F(3, 8), F(1), F(3, 2)], [F(1, 3), F(1, 2)], F(1, 8), 5_000),
]


def test_curve_matches_the_estimate_per_duration_loop():
    """Walking only the last slice counted gives the rows of an estimate on
    every aligned duration up to the first slice over the cap, on the
    corpus and 60 random automata."""
    subjects = [automaton(n) for n in NAMES] + deterministic_draws(7, 60)
    met = set()
    for a in subjects:
        for durations, epss, grid, cap in CURVE_PLANS:
            expected, cases = _reference_curve(a, durations, epss, grid, cap)
            assert bandwidth_curve(a, durations, epss, grid, cap) == expected, a.name
            met |= cases
    assert met == {"partway", "empty", "no row"}


def test_capacity_monotone_in_duration_and_eps():
    a = automaton("a6")
    eps = F(1, 4)
    caps = [estimate_capacity(a, t, eps).capacity_bits for t in (F(2), F(4), F(6))]
    for lo, hi in zip(caps, caps[1:]):
        assert hi >= lo - 1  # greedy noise allowance
    by_eps = [estimate_capacity(a, F(4), e).capacity_bits
              for e in (F(1, 2), F(1, 4), F(1, 8))]
    for coarse, fine in zip(by_eps, by_eps[1:]):
        assert fine >= coarse - 1


@pytest.mark.parametrize("name, duration, grid, epss", [
    ("a1", F(1, 4), F(1, 16), [F(1, 8), F(1, 3), F(1, 5)]),
    ("a4", F(10), F(1, 4), [F(1, 2), F(3, 4)]),
    ("a4", F(6), F(1, 16), [F(1, 3), F(1, 5)]),
    ("a5", F(20), F(1, 4), [F(1, 2)]),
    ("a6", F(4), F(1, 8), [F(1, 4)]),
    ("a6", F(2), F(1, 16), [F(1, 3), F(1, 5)]),
])
def test_greedy_matches_exact_distance_oracle(name, duration, grid, epss):
    """The grid-unit greedy keeps as many words as the exact-distance greedy
    of `words.greedy_separated`, in whatever order the words come; eps/grid
    need not be an integer."""
    a = automaton(name)
    words = enumerate_words(a, duration, grid)
    shuffled = list(words)
    random.Random(7).shuffle(shuffled)
    for eps in epss:
        expected = len(greedy_separated(words, eps))
        assert _merge_greedy(words, grid, eps) == expected
        for given in (words, shuffled, shuffled + words[:5]):
            est = estimate_capacity(a, duration, eps, grid, words=given)
            assert est.separated_size == expected, (eps, len(given))


@pytest.mark.parametrize("seed", range(8))
def test_greedy_matches_oracles_on_random_words(seed):
    """Word sets with simultaneous events and with one letter repeated at a
    date, at cutoffs 2 to 5 grid units (whole and fractional eps/grid): the
    greedy keeps as many words as the exact-distance greedy and as the
    per-date merge greedy."""
    rng = random.Random(seed)
    grid = F(1, 8)
    words = []
    for _ in range(60):
        events = []
        for t in sorted(rng.choices(range(13), k=rng.randrange(5))):
            events.append((rng.choice("abc"), t * grid))
            if rng.random() < 0.3:
                events.append((rng.choice("abc"), t * grid))  # simultaneous
            if rng.random() < 0.2:
                events.append(events[-1])                    # repeated
        words.append(timed_word(events))
    for cutoff in range(2, 6):
        for eps in (cutoff * grid, (cutoff + F(1, 3)) * grid):
            _check_greedy_size(words, grid, eps)


@pytest.mark.parametrize("seed", range(8))
def test_greedy_buckets_on_the_lowest_lane_letter(seed):
    """Kept words are bucketed on the first date of the letter with the
    lowest lane, which the greedy gives to the first letter in word order:
    here c, through the word c at 0.  The empty word is among them, and each
    drawn word holds c after its first event and has a near copy (each date
    moved by at most the cutoff); some copies move c's first date into the
    next or the previous cell of width cutoff + 1."""
    rng = random.Random(seed)
    grid = F(1, 8)
    for cutoff in range(2, 6):
        width = cutoff + 1
        words = [timed_word([]), timed_word([("c", F(0))])]
        crossed = set()
        for _ in range(30):
            dates = sorted(rng.sample(range(1, 14), k=rng.randrange(2, 5)))
            letters = [rng.choice("ab")] + [rng.choice("abc") for _ in dates[1:]]
            if "c" not in letters[1:]:
                letters[rng.randrange(1, len(letters))] = "c"
            moved = [max(1, t + rng.randint(-cutoff, cutoff)) for t in dates]
            for ds in (dates, moved):
                events = sorted(zip(ds, letters))
                words.append(timed_word([(l, t * grid) for t, l in events]))
            first, copied = (min(t for l, t in zip(letters, ds) if l == "c")
                             for ds in (dates, moved))
            if first // width != copied // width:
                crossed.add(first < copied)
        assert crossed == {True, False}, cutoff
        rng.shuffle(words)
        for eps in (cutoff * grid, (cutoff + F(1, 2)) * grid):
            _check_greedy_size(words, grid, eps)


def _check_greedy_size(words, grid, eps) -> None:
    """The grid-unit greedy keeps as many words as the exact-distance greedy
    and as the per-date merge greedy."""
    expected = len(greedy_separated(words, eps))
    assert _merge_greedy(words, grid, eps) == expected, eps
    est = estimate_capacity(automaton("a1"), F(2), eps, grid, words=words)
    assert est.separated_size == expected, eps


def _merge_greedy(words, grid, eps) -> int:
    """The greedy with a per-date merge of each letter's sorted dates in grid
    units, scanning every earlier kept word of the same letter set."""
    cutoff = math.floor(eps / grid)
    keyed = sorted((w.duration, len(w), tuple((l, int(t / grid)) for l, t in w.events))
                   for w in words)
    kept: dict[frozenset, list] = {}
    size = 0
    for _, _, events in keyed:
        form: dict[str, list[int]] = {}
        for letter, t in events:
            form.setdefault(letter, []).append(t)
        forms = kept.setdefault(frozenset(form), [])
        if not any(not (_directed_gap(form, other, cutoff)
                        or _directed_gap(other, form, cutoff)) for other in forms):
            forms.append(form)
            size += 1
    return size


def _directed_gap(w: dict, v: dict, cutoff: int) -> bool:
    """True when some date of w has no same-letter date of v within the
    cutoff; both words have the same letter set and sorted dates."""
    for letter, dates in w.items():
        other = v[letter]
        j = 0
        last = len(other) - 1
        for t in dates:
            while j < last and other[j + 1] <= t:
                j += 1
            best = abs(t - other[j])
            if j < last:
                gap = other[j + 1] - t
                if gap < best:
                    best = gap
            if best > cutoff:
                return True
    return False


def test_words_off_the_grid_rejected():
    """Truncating 1/3 and 1/3 + 1/4 + 1/100 to the 1/8 grid would put them
    within 1/4 of each other, though their distance is 13/50."""
    words = [timed_word([("a", F(1, 3))]),
             timed_word([("a", F(1, 3) + F(1, 4) + F(1, 100))])]
    with pytest.raises(TAError, match="word dates must lie on the grid"):
        estimate_capacity(automaton("a6"), F(1), F(1, 4), F(1, 8), words=words)


def test_empty_language_sentinel():
    a = parse_automaton("""
automaton dead
clocks x
alphabet a
location q initial
location p
edge q -> p on a guard x < 1
""")
    est = estimate_capacity(a, F(2), F(1, 2))
    assert est.empty
    assert est.capacity_bits is None and est.entropy_bits is None


@pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
def test_eps_must_be_positive(eps):
    with pytest.raises(TAError):
        estimate_capacity(automaton("a5"), F(2), eps)
    with pytest.raises(TAError):
        bandwidth_curve(automaton("a5"), [F(2)], [eps])


def test_grid_must_resolve_eps():
    with pytest.raises(TAError):
        estimate_capacity(automaton("a5"), F(2), F(1, 4), grid=F(1, 4))


def test_curve_and_csv():
    rows = bandwidth_curve(automaton("a5"), [F(10), F(20)],
                           [F(1, 2), F(1, 4), F(1, 8)])
    assert [r.eps for r in rows] == [F(1, 2), F(1, 4), F(1, 8)]
    assert all(r.duration == F(20) for r in rows)
    csv = curve_csv(rows)
    head, *lines = csv.strip().splitlines()
    assert head == "epsilon,T,grid,capacity_bits,entropy_bits,bits_per_second"
    assert len(lines) == 3
    assert lines[0].startswith("0.5,20,0.25,")


def _row(eps, bits_per_second, duration=F(10)):
    return CurveRow(F(eps), duration, F(eps) / 2,
                    bits_per_second * float(duration),
                    bits_per_second * float(duration), 100)


def test_fit_picks_each_model():
    flat = [_row(F(1, 2 ** k), 3.0) for k in range(1, 5)]
    assert fit_class(flat).model == "O(1)"
    assert fit_class(flat).suggested_class == "meager"
    logs = [_row(F(1, 2 ** k), 0.5 * k) for k in range(1, 5)]
    assert fit_class(logs).model == "log(1/eps)"
    assert fit_class(logs).suggested_class == "normal"
    inv = [_row(F(1, 2 ** k), 2.0 * 2 ** k) for k in range(1, 5)]
    assert fit_class(inv).model == "1/eps"
    assert fit_class(inv).suggested_class == "obese"


def test_fit_requires_three_points():
    with pytest.raises(TAError):
        fit_class([_row(F(1, 2), 1.0), _row(F(1, 4), 1.0)])


def test_fit_inconclusive_flag():
    # halfway between constant and logarithmic growth
    rows = [_row(F(1, 2), 1.0), _row(F(1, 4), 1.26), _row(F(1, 8), 1.45),
            _row(F(1, 16), 1.55)]
    fit = fit_class(rows)
    if fit.residual_ratio < 2:
        assert not fit.conclusive
