from fractions import Fraction as F

import pytest

from tempoclass.corpus import NAMES, automaton
from tempoclass.ta import (RELATIONS, ClockConstraint, Guard, ParseError, State,
                           TAError, TimedAutomaton, check_deterministic, check_run,
                           parse_automaton, relabel_deterministic, serialize_automaton,
                           step)


def test_parse_a6_shape():
    a = automaton("a6")
    assert len(a.locations) == 2
    assert len(a.clocks) == 2
    assert a.max_constant == 2
    assert [e.name for e in a.edges] == ["d1", "d2"]


def test_parse_vacuous_automaton():
    a = parse_automaton("""
automaton empty
alphabet a
location q initial accepting
""")
    assert a.edges == ()
    res = check_run(a, a.initial_state(), [])
    assert res.ok and res.accepted and res.word == ()


def test_parse_a8_shape():
    a = automaton("a8")
    assert a.alphabet == ("a", "b", "c")
    assert a.max_constant == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_automaton("automaton x\nbogus line\n")
    with pytest.raises(TAError):
        parse_automaton("automaton x\nclocks x\nalphabet a\nlocation q initial\n"
                        "edge q -> q on a guard z < 1\n")
    with pytest.raises(TAError):
        parse_automaton("automaton x\nclocks x\nalphabet a\nlocation q initial\n"
                        "edge q -> q on w\n")
    with pytest.raises(ParseError):
        parse_automaton("automaton x\nclocks x\nalphabet a\nlocation q initial\n"
                        "edge q -> q on a guard x = 1, x = 2\n")
    head = "automaton x\nclocks x\nalphabet a\nlocation q initial\n"
    for text, line, message in [
        (head + "edge q ->\n", 5, "unexpected end of line"),
        (head + "edge q q on a\n", 5, "expected '->', found 'q'"),
        (head + "location 1p\n", 5, "expected identifier, found '1p'"),
        (head + "location p initial x = y\n", 5, "expected natural number, found 'y'"),
        (head + "edge q -> q on a guard x 1\n", 5, "expected relation, found '1'"),
        (head + "location q\n", 5, "duplicate location 'q'"),
        (head + "location p final\n", 5, "unexpected token 'final'"),
        (head + "edge q -> q on a after 1\n", 5, "unexpected token 'after'"),
        ("clocks x\nalphabet a\nlocation q initial\n", 1, "missing 'automaton' line"),
        (head + "automaton y\n", 5, "duplicate 'automaton' line"),
        (head + "clocks x\n", 5, "duplicate 'clocks' line"),
        (head + "alphabet a\n", 5, "duplicate 'alphabet' line"),
        ("automaton x\nclocks x y x\n", 2, "duplicate clock 'x'"),
        ("automaton x\nclocks x\nalphabet a b a\n", 3, "duplicate letter 'a'"),
        ("automaton x\nclocks x y\nalphabet a\nlocation q initial x = 1, y = 0, x = 2\n",
         4, "duplicate initial value for clock 'x'"),
        (head + "starting q ⌊x⌋=0, frac(x)=0\nstarting q ⌊x⌋=0, frac(x)=0\n", 6,
         "duplicate starting line for location 'q'"),
    ]:
        with pytest.raises(ParseError) as raised:
            parse_automaton(text)
        assert raised.value.line == line and message in str(raised.value), text
    with pytest.raises(TAError, match="edge d1 uses undeclared location"):
        parse_automaton(head + "edge q -> p on a\n")
    # automata built in code are checked for the same duplicates
    for clocks, alphabet, message in [(("x", "x"), ("a",), "duplicate clock 'x'"),
                                      (("x",), ("a", "b", "a"), "duplicate letter 'a'")]:
        with pytest.raises(TAError, match=message):
            TimedAutomaton("x", clocks, alphabet, ("q",), (), {}, {})


def test_equality_sugar_desugars():
    a = automaton("a5")
    guard = a.edges[0].guard
    rels = sorted((c.relation, c.bound) for c in guard.atoms)
    assert rels == [("<=", 3), (">=", 3)]


@pytest.mark.parametrize("name", NAMES)
def test_round_trip(name):
    a = automaton(name)
    b = parse_automaton(serialize_automaton(a))
    assert (a.clocks, a.alphabet, a.locations) == (b.clocks, b.alphabet, b.locations)
    assert a.edges == b.edges
    assert a.initial == b.initial and a.accepting == b.accepting


@pytest.mark.parametrize("name", NAMES)
def test_corpus_deterministic(name):
    assert check_deterministic(automaton(name)).deterministic


def test_overlapping_guards_witness():
    a = parse_automaton("""
automaton x
clocks x
alphabet a
location q initial
location p accepting
location r accepting
edge q -> p on a guard x < 1
edge q -> r on a guard x < 2
""")
    rep = check_deterministic(a)
    assert not rep.deterministic
    v = rep.violations[0]
    assert set(v.edges) == {"d1", "d2"}
    assert v.witness == {"x": F(1, 2)}


def test_guard_windows_match_holds(rng):
    """Each clock's window holds exactly the values `Guard.holds` accepts on
    a quarter grid, and `Guard.witness` is None iff some window is empty."""
    grid = [F(k, 4) for k in range(21)]
    for _ in range(3000):
        atoms = tuple(ClockConstraint(rng.choice("xy"), rng.choice(RELATIONS),
                                      rng.randrange(0, 4))
                      for _ in range(rng.randrange(1, 5)))
        g = Guard(atoms)
        empty = False
        for c, (lo, los, hi, his) in g.windows.items():
            assert all(type(b) is int for b in (lo, hi) if b is not None)
            own = Guard(tuple(a for a in atoms if a.clock == c))
            inside = [v for v in grid if own.holds({c: v})]
            assert inside == [v for v in grid
                              if (v > lo if los else v >= lo)
                              and (hi is None or (v < hi if his else v <= hi))], atoms
            empty = empty or not inside
        w = g.witness(("x", "y"))
        assert (w is None) == empty, atoms
        assert w is None or g.holds(w), atoms


def test_disjoint_guards_are_fine():
    a = parse_automaton("""
automaton x
clocks x
alphabet a
location q initial
location p accepting
location r accepting
edge q -> p on a guard x < 1
edge q -> r on a guard x > 1
""")
    assert check_deterministic(a).deterministic


def test_step_examples():
    a = automaton("a6")
    d1, d2 = a.edges
    s0 = State("q", (F(0), F(0)))
    s1 = step(a, s0, d1, F(4, 5))
    assert s1 == State("p", (F(0), F(4, 5)), F(4, 5))
    # zero delay is allowed
    assert step(a, s0, d1, F(0)) == State("p", (F(0), F(0)), F(0))
    s2 = step(a, s1, d2, F(3, 2))
    assert s2 == State("q", (F(7, 10), F(0)), F(3, 2))
    # strict guard: y must exceed 1
    assert step(a, s1, d2, F(1)) is None


def test_check_run_accepts_label_following_word():
    a = automaton("a6")
    d1, d2 = a.edges
    res = check_run(a, a.initial_state(),
                    [(d1, F(4, 5)), (d2, F(3, 2)), (d1, F(17, 10))])
    assert res.ok and res.accepted
    assert res.word == (("a", F(4, 5)), ("b", F(3, 2)), ("a", F(17, 10)))


def test_check_run_reports_first_violation():
    a = automaton("a6")
    d1, d2 = a.edges
    res = check_run(a, a.initial_state(), [(d1, F(4, 5)), (d2, F(1))])
    assert not res.ok
    assert res.failed_step == 2


def test_empty_run_accepted_at_initial():
    a = automaton("a1")
    res = check_run(a, a.initial_state(), [])
    assert res.ok and res.accepted and res.word == ()


def test_relabel_identity_on_deterministic():
    a = automaton("a6")
    b, renaming = relabel_deterministic(a)
    assert b.edges == a.edges
    assert renaming == {"a": "a", "b": "b"}


def test_relabel_splits_conflicts():
    a = parse_automaton("""
automaton x
clocks x
alphabet a
location q initial
location p accepting
location r accepting
edge q -> p on a guard x < 1
edge q -> r on a guard x < 2
""")
    b, renaming = relabel_deterministic(a)
    assert check_deterministic(b).deterministic
    assert sorted(b.alphabet) == ["a1", "a2"]
    assert renaming == {"a1": "a", "a2": "a"}
    assert len(b.alphabet) <= len(a.edges)


def test_relabel_preserves_language_on_grid():
    from tempoclass.bandwidth import enumerate_words

    a = parse_automaton("""
automaton x
clocks x
alphabet a b
location q initial accepting
edge q -> q on a guard x < 2 reset x
edge q -> q on a guard x < 1
edge q -> q on b guard x < 1
""")
    b, renaming = relabel_deterministic(a)
    # compare up to the pseudo-metric kernel (event sets): relabeling makes
    # simultaneous same-letter repetitions distinguishable, mapping back merges
    # them again
    words_a = {tuple(sorted(set(w.events))) for w in enumerate_words(a, F(2), F(1, 2))}
    words_b = {tuple(sorted({(renaming[l], t) for l, t in w.events}))
               for w in enumerate_words(b, F(2), F(1, 2))}
    assert words_a == words_b


def test_replay_soundness(rng):
    """Runs built step-by-step always pass check_run."""
    for name in NAMES:
        a = automaton(name)
        for _ in range(40):
            s = a.initial_state()
            steps = []
            for _ in range(rng.randrange(1, 6)):
                t = s.date + F(rng.randrange(0, 9), 4)
                fired = None
                for e in a.edges_from(s.location):
                    nxt = step(a, s, e, t)
                    if nxt is not None:
                        fired = (e, t)
                        s = nxt
                        break
                if fired is None:
                    break
                steps.append(fired)
            res = check_run(a, a.initial_state(), steps)
            assert res.ok


def _count_runs(a, word):
    """Number of distinct runs of a word from the initial state."""
    states = [a.initial_state()]
    for letter, t in word.events:
        nxt = []
        for s in states:
            for e in a.edges_from(s.location):
                if e.label != letter:
                    continue
                out = step(a, s, e, t)
                if out is not None:
                    nxt.append(out)
        states = nxt
        if not states:
            return 0
    return len(states)


@pytest.mark.parametrize("name,duration", [
    ("a1", F(3, 2)), ("a2", F(11, 2)), ("a3", F(3, 2)), ("a4", F(6)),
    ("a5", F(6)), ("a6", F(6)), ("a7", F(3, 2)), ("a8", F(3)), ("a9", F(3)),
    ("a10", F(4))])
def test_deterministic_semantics_unique_runs(name, duration):
    from tempoclass.bandwidth import enumerate_words

    a = automaton(name)
    for w in enumerate_words(a, duration, F(1, 4)):
        assert _count_runs(a, w) == 1
