"""The ten benchmark automata used throughout the test-suite and scripts,
the text of the scaling family fam(K, c), and the criterion-7 fit plan.

Each starts at the zero clock vector; marked locations accept unconditionally.
"""

from __future__ import annotations

from fractions import Fraction as F

from .ta import TimedAutomaton, parse_automaton

SOURCES: dict[str, str] = {
    "a1": """\
automaton a1
alphabet a b
location q initial accepting
edge q -> q on a,b
""",
    "a2": """\
automaton a2
clocks x
alphabet a b c
location q initial accepting
edge q -> q on a,b guard x < 1
edge q -> q on c guard x > 5, x < 6 reset x
""",
    "a3": """\
automaton a3
clocks x
alphabet a b
location q initial accepting
edge q -> q on a,b guard x < 5
""",
    "a4": """\
automaton a4
clocks x y
alphabet a b
location q initial
location p accepting
edge q -> p on a,b guard x > 3, x < 4
edge p -> q on b guard y > 5, y < 6 reset x, y
""",
    "a5": """\
automaton a5
clocks x y
alphabet a b
location q initial accepting
location p accepting
edge q -> p on a,b guard x = 3
edge p -> q on b guard y = 5 reset x, y
""",
    "a6": """\
automaton a6
clocks x y
alphabet a b
location q initial accepting
location p accepting
edge q -> p on a guard x < 1 reset x
edge p -> q on b guard y > 1, y < 2 reset y
""",
    "a7": """\
automaton a7
clocks x y
alphabet a b
location q initial accepting
location p accepting
edge q -> p on a guard x < 1 reset x
edge p -> q on b guard y < 1 reset y
""",
    "a8": """\
automaton a8
clocks x y
alphabet a b c
location q initial
location p accepting
edge q -> p on a guard x < 1 reset x
edge p -> q on b guard y > 1, y < 2 reset y
edge q -> q on c guard x < 1, y < 1
""",
    "a9": """\
automaton a9
clocks x y
alphabet a b c
location q initial
location p accepting
edge q -> p on a guard x < 1 reset x
edge p -> q on b guard y > 1, y < 2 reset y
edge q -> q on c guard x < 1, y < 1 reset y
""",
    "a10": """\
automaton a10
clocks x y
alphabet a b c
location q initial
location p accepting
location r accepting
edge q -> p on a guard x < 1 reset x
edge p -> r on b guard y > 1, y < 2 reset y
edge r -> q on c guard y < 1
""",
}

NAMES = tuple(SOURCES)


def automaton(name: str) -> TimedAutomaton:
    return parse_automaton(SOURCES[name])


def fam(k: int, clocks: int) -> str:
    """The text of fam(k, clocks), for 2 or 3 clocks and constants up to k."""
    z_edge = f"edge p -> p on c guard z < {k} reset z\n" if clocks == 3 else ""
    return f"""\
automaton fam_{k}_{clocks}
clocks {"x y z" if clocks == 3 else "x y"}
alphabet a b c
location q initial accepting
location p accepting
edge q -> p on a guard x < {k} reset x
edge p -> q on b guard y > 1, y < {k} reset y
edge q -> q on c guard x < 1
{z_edge}"""


# The criterion-7 fit plan: per automaton, the duration bounds and the word
# cap that keep grid enumeration within budget at every epsilon of FIT_EPS.
FIT_EPS = (F(1, 2), F(1, 4), F(1, 8), F(1, 16))
FIT_PLAN = {
    "a1": ((F(3, 16), F(3, 8), F(3, 4), F(3, 2)), 100_000),
    "a4": ((F(10),), 500_000),
    "a5": ((F(40),), 100_000),
    "a6": ((F(2), F(4), F(6)), 140_000),
}
