from fractions import Fraction as F
from itertools import product

import pytest

from conftest import grid_points_in_closure, main_cycle_edges, random_paths
from tempoclass.corpus import NAMES, automaton
from tempoclass.dbm import language_class
from tempoclass.orbits import (FAST, INSTANT, KINDS, NARROW, SLOW, WIDE,
                               edge_orbit, edge_orbit_table, export_dot, idempotent_power, label,
                               lyapunov_values, orbit_compose, orbit_element,
                               orbit_one, orbit_to_json, orbit_zero, path_orbit,
                               path_orbit_direct, scc_decomposition, semiring_add,
                               semiring_mul, semiring_values)
from tempoclass.regions import region_of
from tempoclass.splitting import RegionSplitAutomaton, region_split
from tempoclass.ta import ClockConstraint, Edge, Guard, serialize_automaton


def test_semiring_spot_values():
    assert semiring_add("f", NARROW, NARROW) == WIDE
    assert semiring_mul("d", INSTANT, SLOW) == SLOW
    assert semiring_add("d", SLOW, INSTANT) == FAST


@pytest.mark.parametrize("kind", ["p", "f", "d"])
def test_semiring_axioms_exhaustive(kind):
    values = list(semiring_values(kind))
    add = lambda a, b: semiring_add(kind, a, b)
    mul = lambda a, b: semiring_mul(kind, a, b)
    unit = 1
    for a, b in product(values, repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(a, 0) == a
        assert mul(a, 0) == 0
        assert mul(a, unit) == a
    for a, b, c in product(values, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("name", NAMES)
def test_edge_orbit_table_aligns_with_one_kind_views(split_corpus, name):
    """Alignment: one dict per kind, keyed by edge name in `rs.edges` order;
    a fresh table equals the kept one that the one-kind views read."""
    rs = split_corpus[name]
    table = edge_orbit_table(rs)
    assert set(table) == set(KINDS)
    for kind in KINDS:
        assert list(table[kind]) == [e.name for e in rs.edges]
        for e, eo in zip(rs.edges, table[kind].values()):
            assert eo == edge_orbit(rs, e, kind)


def test_edge_orbit_table_matches_dbm_oracle(oracle_subjects):
    """The table reads each edge off one delay interval and maps it to its
    entries in its own loop; `path_orbit_direct` closes and projects one DBM
    per vertex pair instead and maps its classes through `_entries`."""
    for rs in oracle_subjects:
        for kind in KINDS:
            for e in rs.edges:
                assert rs.edge_orbits[kind][e.name] == path_orbit_direct(rs, [e], kind), \
                    (serialize_automaton(rs), e.name, kind)


def test_edge_orbit_of_a_reset_clock_needs_a_zero_target():
    """Region-split edges are exact, so a reset clock is 0 at every vertex
    of the target region and the subjects above never test the rule that a
    reset clock must end at 0.  Here the edge resets x into x in (0, 1)."""
    unit = region_of((F(1, 2),), 1)
    rs = RegionSplitAutomaton("loose", ("x",), ("a",), ("q", "p"),
                              (Edge("e", "q", "p", "a",
                                    Guard((ClockConstraint("x", "<", 1),)),
                                    frozenset({"x"})),),
                              {"q": (F(1, 2),)}, {}, {"q": unit, "p": unit})
    e = rs.edges[0]
    for kind in KINDS:
        assert rs.edge_orbits[kind]["e"] == path_orbit_direct(rs, [e], kind)
    assert rs.edge_orbits["p"]["e"].matrix == ((1, 0), (1, 0))


def test_a6_reach_orbits(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    assert edge_orbit(a6_rs, d1, "p").matrix == ((1, 1), (1, 0))
    assert edge_orbit(a6_rs, d2, "p").matrix == ((0, 1), (1, 1))


def test_a6_cycle_orbits(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    g1 = edge_orbit(a6_rs, d1, "p")
    g2 = edge_orbit(a6_rs, d2, "p")
    c = orbit_compose(g1, g2)
    assert (c.src, c.matrix, c.dst) == (d1.src, ((1, 1), (0, 1)), d1.src)
    c = orbit_compose(g2, g1)
    assert (c.src, c.matrix, c.dst) == (d2.src, ((1, 0), (1, 1)), d2.src)


def test_a6_freedom_orbits(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    f1 = edge_orbit(a6_rs, d1, "f")
    f2 = edge_orbit(a6_rs, d2, "f")
    assert f1.matrix == ((NARROW, NARROW), (NARROW, 0))
    assert f2.matrix == ((0, NARROW), (NARROW, NARROW))
    assert orbit_compose(f1, f2).matrix == ((NARROW, WIDE), (0, NARROW))
    assert orbit_compose(f2, f1).matrix == ((NARROW, 0), (WIDE, NARROW))


def test_a6_duration_orbit(a6_rs):
    d1, _ = main_cycle_edges(a6_rs)
    assert edge_orbit(a6_rs, d1, "d").matrix == ((INSTANT, SLOW), (INSTANT, 0))


def test_a7_cycle_has_wide_self_loop():
    rs = region_split(automaton("a7"))
    found = False
    for e1 in rs.edges:
        for e2 in rs.edges_from(e1.dst):
            if e2.dst != e1.src:
                continue
            c = path_orbit(rs, [e1, e2], "f")
            if c.cyclic and WIDE in c.diagonal():
                found = True
    assert found


def test_a6_no_wide_self_loop_on_two_step_cycles(a6_rs):
    for e1 in a6_rs.edges:
        for e2 in a6_rs.edges_from(e1.dst):
            if e2.dst != e1.src:
                continue
            c = path_orbit(a6_rs, [e1, e2], "f")
            if c.cyclic:
                assert WIDE not in c.diagonal()


def test_compose_unit_and_zero(a6_rs):
    d1, _ = main_cycle_edges(a6_rs)
    e = edge_orbit(a6_rs, d1, "p")
    assert orbit_compose(e, orbit_one("p")) == e
    assert orbit_compose(orbit_one("p"), e) == e
    assert orbit_compose(e, orbit_zero("p")).is_zero
    with pytest.raises(ValueError):
        orbit_compose(e, orbit_one("f"))


def test_non_composable_is_zero(a6_rs):
    d1, _ = main_cycle_edges(a6_rs)
    assert path_orbit(a6_rs, [d1, d1], "p").is_zero


def test_idempotent_power(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    cycle = orbit_compose(edge_orbit(a6_rs, d1, "p"), edge_orbit(a6_rs, d2, "p"))
    k, e = idempotent_power(cycle)
    assert k == 1 and e == cycle
    assert idempotent_power(orbit_one("f")) == (1, orbit_one("f"))
    # a swap of two vertices on one location is idempotent only at its square
    swap = orbit_element("p", "q", ((0, 1), (1, 0)), "q")
    assert idempotent_power(swap) == (2, orbit_element("p", "q", ((1, 0), (0, 1)), "q"))


def test_idempotent_power_bounded_on_corpus(split_corpus):
    from tempoclass.classify import saturate

    for name in ("a6", "a8", "a10"):
        reach = saturate(split_corpus[name], "p")
        for elem in reach:
            if elem.cyclic:
                k, e = idempotent_power(elem)
                assert k <= len(reach)
                assert orbit_compose(e, e) == e


def test_morphism_on_random_splits(split_corpus, rng):
    for name in ("a2", "a6", "a8"):
        rs = split_corpus[name]
        for path in random_paths(rs, rng, 25):
            cut = rng.randrange(len(path) + 1)
            for kind in ("p", "f", "d"):
                whole = path_orbit(rs, path, kind)
                split = orbit_compose(path_orbit(rs, path[:cut], kind),
                                      path_orbit(rs, path[cut:], kind))
                assert whole == split
                assert whole == path_orbit_direct(rs, path, kind)


def test_zero_coincidence_and_totality(split_corpus, rng):
    for name in NAMES:
        rs = split_corpus[name]
        paths = [[e] for e in rs.edges] + random_paths(rs, rng, 10)
        for path in paths:
            orbits = {kind: path_orbit(rs, path, kind) for kind in ("p", "f", "d")}
            if orbits["p"].is_zero:
                assert orbits["f"].is_zero and orbits["d"].is_zero
                continue
            mp, mf, md = (orbits[k].matrix for k in ("p", "f", "d"))
            rows = len(mp)
            cols = len(mp[0])
            for i in range(rows):
                for j in range(cols):
                    assert (mp[i][j] == 0) == (mf[i][j] == 0) == (md[i][j] == 0)
            assert all(any(mp[i][j] for j in range(cols)) for i in range(rows))
            assert all(any(mp[i][j] for i in range(rows)) for j in range(cols))


def test_fast_entries_span_the_unit_interval(split_corpus, rng):
    for name in NAMES:
        rs = split_corpus[name]
        for path in [[e] for e in rs.edges] + random_paths(rs, rng, 10):
            e = path_orbit(rs, path, "d")
            if e.tag != "elem":
                continue
            vs = rs.location_vertices(e.src)
            vd = rs.location_vertices(e.dst)
            for i, row in enumerate(e.matrix):
                for j, v in enumerate(row):
                    if v == FAST:
                        lc = language_class(rs, path, vs[i], vd[j])
                        assert lc.duration.covers_unit()


def test_scc_example_a6(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    cycle = path_orbit(a6_rs, [d1, d2], "p")
    dec = scc_decomposition(cycle)
    assert dec.sccs == (frozenset({0}), frozenset({1}))
    assert dec.initial_sets == (frozenset({0}),)


def test_scc_complete_graph_has_empty_family():
    e = orbit_element("p", "q", ((1, 1), (1, 1)), "q")
    dec = scc_decomposition(e)
    assert len(dec.sccs) == 1
    assert dec.initial_sets == ()


def test_scc_example_a8_self_loop():
    rs = region_split(automaton("a8"))
    loop = _a8_prime_loop(rs)
    e = path_orbit(rs, [loop], "d")
    assert e.matrix == ((INSTANT, 0, SLOW), (0, INSTANT, 0), (0, 0, INSTANT))
    dec = scc_decomposition(e)
    assert len(dec.sccs) == 3
    assert all(len(s) == 1 for s in dec.sccs)
    assert len(dec.initial_sets) == 2


def _a8_prime_loop(rs):
    prime = region_of((F(2, 3), F(1, 3)), 2)   # 0 < y < x < 1
    loc = next(q for q in rs.locations if rs.regions[q] == prime)
    return next(e for e in rs.edges_from(loc) if e.dst == loc and e.label == "c")


def test_lyapunov_monotone_along_a6_cycle(a6_rs, rng):
    d1, d2 = main_cycle_edges(a6_rs)
    cycle = path_orbit(a6_rs, [d1, d2], "p")
    dec = scc_decomposition(cycle)
    region = a6_rs.regions[d1.src]
    from tempoclass.ta import State, step

    for x in grid_points_in_closure(region, F(1, 8)):
        lx = lyapunov_values(region, dec.initial_sets, x)
        s = State(d1.src, x)
        for t1 in [F(k, 8) for k in range(17)]:
            s1 = step(a6_rs, s, d1, t1, closed=True)
            if s1 is None:
                continue
            for t2 in [t1 + F(k, 8) for k in range(17)]:
                s2 = step(a6_rs, s1, d2, t2, closed=True)
                if s2 is None:
                    continue
                ly = lyapunov_values(region, dec.initial_sets, s2.clocks)
                assert all(a >= b for a, b in zip(lx, ly))


def test_dot_export(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    dot = export_dot(edge_orbit(a6_rs, d1, "p"), a6_rs)
    assert dot.count("[label=") == 4          # 2 + 2 vertex nodes
    assert dot.count("->") == 3
    assert export_dot(orbit_zero("p")).startswith("digraph")
    wide_dot = export_dot(path_orbit(a6_rs, [d1, d2], "f"), a6_rs)
    assert "penwidth=2" in wide_dot           # the wide entry is drawn thick
    rs7 = region_split(automaton("a7"))
    for e1 in rs7.edges:
        for e2 in rs7.edges_from(e1.dst):
            if e2.dst == e1.src:
                c = path_orbit(rs7, [e1, e2], "f")
                if c.cyclic and WIDE in c.diagonal():
                    assert "penwidth=2" in export_dot(c, rs7)


def test_orbit_json(a6_rs):
    d1, _ = main_cycle_edges(a6_rs)
    j = orbit_to_json(edge_orbit(a6_rs, d1, "f"))
    assert j["rows"] == [["narrow", "narrow"], ["narrow", "0"]]
    assert j["kind"] == "f"
    assert orbit_to_json(orbit_one("d")) == {"kind": "d", "constant": "1"}
    assert label("d", FAST) == "fast"


def test_morphism_and_exactness_on_random_automata():
    """Composition must agree with whole-path evaluation on arbitrary small
    deterministic automata, and every split edge must be exact between its
    regions; this pins the guard-refinement construction at the matrix level."""
    import random

    from conftest import random_automaton, random_paths
    from tempoclass.splitting import (closed_predecessor, closed_successor,
                                      region_split)
    from tempoclass.ta import check_deterministic

    rng = random.Random(4321)
    built = 0
    while built < 30:
        a = random_automaton(rng)
        if not check_deterministic(a).deterministic:
            continue
        built += 1
        rs = region_split(a)
        for e in rs.edges:
            assert closed_successor(rs, rs.regions[e.src], e) == rs.regions[e.dst]
            assert closed_predecessor(rs, rs.regions[e.dst], e) == rs.regions[e.src]
        for path in random_paths(rs, rng, 8, max_len=5):
            cut = rng.randrange(len(path) + 1)
            for kind in ("p", "f", "d"):
                whole = path_orbit_direct(rs, path, kind)
                composed = orbit_compose(path_orbit(rs, path[:cut], kind),
                                         path_orbit(rs, path[cut:], kind))
                assert whole == composed
