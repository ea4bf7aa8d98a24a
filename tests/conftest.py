from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tempoclass.corpus import NAMES, automaton, fam
from tempoclass.regions import region_of
from tempoclass.splitting import region_split
from tempoclass.ta import (ClockConstraint, Edge, Guard, TimedAutomaton,
                           check_deterministic, parse_automaton)


# one clock whose constant makes a time-successor chain of ~2 * 10^11 regions
BIG_CONSTANT = """\
automaton big
clocks x
alphabet a
location q initial accepting
edge q -> q on a guard x < 99999999999
"""

# every chain holds at most 85 regions, but the 40 locations that resetting y
# along the first chain creates build 2,100 regions between them
MANY_CHAINS = """\
automaton chains
clocks x y
alphabet a
location q initial accepting
edge q -> q on a guard x < 20 reset y
"""

# one event a second, so a slice of horizon T is T events deep
TICKER = """\
automaton tick
clocks x
alphabet a
location q initial accepting
edge q -> q on a guard x = 1 reset x
"""

# any delay in (0, 1) between events, so volume 1 per event: thick, through
# a single-vertex cycle whose freedom is wide
OPEN_TICKER = """\
automaton open
clocks x
alphabet b
location q initial accepting
edge q -> q on b guard x < 1 reset x
"""

# three-clock rings with one reset per edge: normal and thick (ring3_zx),
# obese of type I and thick (ring3_y2)
RING3 = """\
automaton ring3_zx
clocks x y z
alphabet a b c
location q initial
location p accepting
location r accepting
edge q -> p on a guard x < 2 reset x
edge p -> r on b guard y > 1, y < 2 reset y
edge r -> q on c guard z < 2, x < 1 reset z
"""

RING3_Y2 = """\
automaton ring3_y2
clocks x y z
alphabet a b c
location q initial
location p accepting
location r accepting
edge q -> p on a guard x < 2 reset x
edge p -> r on b guard y < 2 reset y
edge r -> q on c guard z < 1 reset z
"""


@pytest.fixture(scope="session")
def corpus():
    return {name: automaton(name) for name in NAMES}


@pytest.fixture(scope="session")
def split_corpus(corpus):
    return {name: region_split(a) for name, a in corpus.items()}


@pytest.fixture(scope="session")
def oracle_subjects(split_corpus):
    """Region splits of the corpus, of the seven `saturation` texts
    (fam(k, 2) for k = 2..6 and both rings) and of 2,000 seeded draws."""
    texts = [*(fam(k, 2) for k in range(2, 7)), RING3, RING3_Y2]
    return [*split_corpus.values(),
            *(region_split(parse_automaton(text)) for text in texts),
            *map(region_split, deterministic_draws(7, 2000))]


@pytest.fixture(scope="module")
def a6_rs():
    return region_split(automaton("a6"))


@pytest.fixture()
def rng():
    return random.Random(20240811)


def main_cycle_edges(rs):
    """The two edges of a6's main cycle, between the regions of (1/2, 0) and
    (0, 1/2)."""
    main_q = region_of((Fraction(1, 2), Fraction(0)), 2)
    main_p = region_of((Fraction(0), Fraction(1, 2)), 2)
    d1 = next(e for e in rs.edges if rs.regions[e.src] == main_q
              and rs.regions[e.dst] == main_p)
    d2 = next(e for e in rs.edges if rs.regions[e.src] == main_p
              and rs.regions[e.dst] == main_q)
    return d1, d2


def short_cycles(rs, max_len):
    """Every cycle of at most `max_len` region-split edges, from each location."""
    out = []
    for start in rs.locations:
        stack = [[e] for e in rs.edges_from(start)]
        while stack:
            path = stack.pop()
            if path[-1].dst == start:
                out.append(path)
                continue
            if len(path) < max_len:
                stack.extend(path + [e] for e in rs.edges_from(path[-1].dst))
    return out


def random_paths(rsta, rng, count: int, max_len: int = 6):
    """Random walks over the region-split edges (always genuine paths)."""
    paths = []
    for _ in range(count):
        if not rsta.edges:
            break
        e = rng.choice(rsta.edges)
        path = [e]
        for _ in range(rng.randrange(max_len - 1)):
            nxt = rsta.edges_from(path[-1].dst)
            if not nxt:
                break
            path.append(rng.choice(nxt))
        paths.append(path)
    return paths


def grid_points_in_closure(region, grid: Fraction):
    """All grid-aligned points of the region's closure."""
    from itertools import product

    assert region.bounded
    steps = int(Fraction(region.bound) / grid)
    axis = [Fraction(k) * grid for k in range(steps + 1)]
    return [p for p in product(axis, repeat=region.clock_count)
            if region.closure_contains(p)]


def random_automaton(rng: random.Random) -> TimedAutomaton:
    """Small random automaton; not necessarily deterministic."""
    n_locs = rng.randrange(1, 4)
    n_clocks = rng.randrange(1, 3)
    bound = rng.randrange(1, 3)
    locations = tuple(f"q{i}" for i in range(n_locs))
    clocks = tuple("xy"[:n_clocks])
    letters = ("a", "b")
    edges = []
    for i in range(rng.randrange(1, 5)):
        src = rng.choice(locations)
        dst = rng.choice(locations)
        letter = rng.choice(letters)
        atoms = []
        for c in clocks:
            kind = rng.randrange(4)
            if kind == 0:
                atoms.append(ClockConstraint(c, "<", rng.randrange(1, bound + 1)))
            elif kind == 1:
                atoms.append(ClockConstraint(c, ">", rng.randrange(0, bound)))
                atoms.append(ClockConstraint(c, "<=", bound))
            elif kind == 2:
                b = rng.randrange(0, bound + 1)
                atoms.append(ClockConstraint(c, ">=", b))
                atoms.append(ClockConstraint(c, "<=", b))
        resets = frozenset(c for c in clocks if rng.random() < 0.4)
        edges.append(Edge(f"d{i + 1}", src, dst, letter, Guard(tuple(atoms)), resets))
    accepting = {q: Guard() for q in locations if rng.random() < 0.7}
    return TimedAutomaton("rand", clocks, letters, locations, tuple(edges),
                          {locations[0]: tuple(Fraction(0) for _ in clocks)},
                          accepting)


def deterministic_draws(seed: int, count: int) -> list[TimedAutomaton]:
    """The first `count` deterministic `random_automaton` draws of the seed."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < count:
        a = random_automaton(rng)
        if check_deterministic(a).deterministic:
            drawn.append(a)
    return drawn
