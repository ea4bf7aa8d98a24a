import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

from conftest import deterministic_draws, grid_points_in_closure
from tempoclass.corpus import NAMES, automaton
from tempoclass.dbm import language_class
from tempoclass.regions import (barycentric_coordinates, region_equivalent,
                                region_of, time_successor_chain)
from tempoclass.splitting import (_guard_on, check_exact_edges, closed_predecessor,
                                  closed_successor, region_split)
from tempoclass.ta import (RELATIONS, ClockConstraint, Guard, TAError,
                           check_deterministic, parse_automaton, serialize_automaton)


def test_region_of_origin():
    r = region_of((F(0), F(0)), 2)
    assert r.zero_fraction == frozenset({0, 1})
    assert r.int_part == (0, 0)
    assert r.dimension == 0


def test_region_of_same_class():
    assert region_of((F(3, 10), F(7, 10)), 2) == region_of((F(1, 2), F(9, 10)), 2)


def test_region_of_above_bound():
    r = region_of((F(5, 2), F(1)), 2)
    assert r.int_part == (None, 1)
    assert r.zero_fraction == frozenset({1})


def test_region_of_matches_direct_definition(rng):
    """Canonical classes coincide with the three defining clauses."""
    grid = [F(k, 8) for k in range(0, 8 * 4 + 1)]
    for _ in range(10_000):
        bound = rng.randrange(0, 4)
        n = rng.randrange(1, 4)
        x = tuple(rng.choice(grid) for _ in range(n))
        y = tuple(rng.choice(grid) for _ in range(n))
        same = region_of(x, bound) == region_of(y, bound)
        assert same == region_equivalent(x, y, bound)


def test_vertices_examples():
    assert region_of((F(1, 2), F(0)), 2).vertices() == ((0, 0), (1, 0))
    assert region_of((F(0), F(1, 2)), 2).vertices() == ((0, 0), (0, 1))
    assert region_of((1, 1), 2).vertices() == ((1, 1),)


def test_vertices_unbounded_rejected():
    with pytest.raises(ValueError):
        region_of((F(5, 2),), 2).vertices()


def test_vertices_in_closure_and_affinely_independent(rng):
    for _ in range(300):
        bound = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        x = tuple(F(rng.randrange(0, bound * 8 + 1), 8) for _ in range(n))
        r = region_of(x, bound)
        verts = r.vertices()
        for v in verts:
            assert r.closure_contains(tuple(F(c) for c in v))
        # affine independence: barycentric solve succeeds for every vertex
        for v in verts:
            bary = barycentric_coordinates(r, tuple(F(c) for c in v))
            assert sum(bary) == 1 and bary.count(F(1)) == 1


def test_barycentric_positive_in_interior(rng):
    for _ in range(200):
        bound = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        x = tuple(F(rng.randrange(0, bound * 8 + 1), 8) for _ in range(n))
        r = region_of(x, bound)
        if not r.bounded:
            continue
        bary = barycentric_coordinates(r, r.representative())
        assert sum(bary) == 1
        assert all(b > 0 for b in bary)


def _random_bounded_region(rng, bound_max=3):
    bound = rng.randrange(1, bound_max + 1)
    n = rng.randrange(1, 4)
    return region_of(tuple(F(rng.randrange(0, bound * 8), 8) for _ in range(n)), bound)


def test_barycentric_at_vertex_i_is_the_ith_unit_vector(rng):
    for _ in range(300):
        r = _random_bounded_region(rng)
        verts = r.vertices()
        assert list(verts) == sorted(verts)
        for i, v in enumerate(verts):
            bary = barycentric_coordinates(r, tuple(F(c) for c in v))
            assert bary == tuple(F(int(j == i)) for j in range(len(verts)))


def test_barycentric_recombines_closure_points(rng):
    for _ in range(40):
        r = _random_bounded_region(rng, bound_max=2)
        verts = r.vertices()
        points = grid_points_in_closure(r, F(1, 4))
        for point in rng.sample(points, min(len(points), 20)):
            bary = barycentric_coordinates(r, point)
            assert sum(bary) == 1
            assert tuple(sum(b * v[i] for b, v in zip(bary, verts))
                         for i in range(r.clock_count)) == point


def test_barycentric_tells_off_hull_from_outside_closure():
    r = region_of((F(1, 2), F(1, 4), F(0)), 2)           # frac(z) = 0 < frac(y) < frac(x)
    with pytest.raises(ValueError, match="not in the affine hull"):
        barycentric_coordinates(r, (F(1, 2), F(1, 4), F(1, 8)))   # frac(z) > 0
    with pytest.raises(ValueError, match="not in the affine hull"):
        barycentric_coordinates(region_of((F(1, 2), F(1, 2)), 2), (F(1, 2), F(1, 4)))
    with pytest.raises(ValueError, match="not in the closure"):
        barycentric_coordinates(r, (F(1, 4), F(1, 2), F(0)))      # frac(y) > frac(x)
    with pytest.raises(ValueError, match="not in the closure"):
        barycentric_coordinates(r, (F(3, 2), F(1, 4), F(0)))      # x past its vertices


def test_chain_from_origin():
    chain = time_successor_chain(region_of((0, 0), 1))
    assert chain[0].dimension == 0
    assert chain[1] == region_of((F(1, 2), F(1, 2)), 1)
    assert chain[2] == region_of((1, 1), 1)
    assert chain[-1].int_part == (None, None)


def test_chain_absorbing():
    top = region_of((F(3), F(3)), 2)
    assert time_successor_chain(top) == [top]


def test_chain_second_element_from_half_open_region():
    r = region_of((F(1, 2), F(0)), 2)
    chain = time_successor_chain(r)
    assert chain[1] == region_of((F(3, 4), F(1, 4)), 2)  # 0 < y < x < 1


@pytest.mark.parametrize("seed", range(40))
def test_chain_matches_sampling_oracle(seed):
    """Classify x + t over a 1/8 delay grid; the distinct regions appear in
    chain order and cover the whole chain."""
    rng = random.Random(seed)
    bound = rng.randrange(1, 4)
    n = rng.randrange(1, 4)
    x = tuple(F(rng.randrange(0, bound * 8 + 1), 8) for _ in range(n))
    r = region_of(x, bound)
    chain = time_successor_chain(r)
    sampled = []
    t = F(0)
    # 1/16 steps: crossings sit on the 1/8 grid, so midpoints land inside
    # every open region between consecutive crossings
    while t <= bound + 1:
        reg = region_of(tuple(v + t for v in x), bound)
        if not sampled or sampled[-1] != reg:
            sampled.append(reg)
        t += F(1, 16)
    assert sampled == chain


def test_reset_examples():
    r = region_of((F(3, 4), F(1, 4)), 2)      # 0 < y < x < 1
    assert r.reset([0, 1]) == region_of((0, 0), 2)
    assert r.reset([0]) == region_of((F(0), F(1, 4)), 2)
    assert r.reset([]) == r


def test_reset_matches_sampling_oracle(rng):
    """Reset on the region's structure agrees with resetting a point of it,
    for up to three clocks, some of them well above the bound."""
    for _ in range(600):
        bound = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        x = tuple(F(rng.randrange(0, (bound + 3) * 8), 8) for _ in range(n))
        r = region_of(x, bound)
        resets = [i for i in range(n) if rng.random() < 0.5]
        image = r.reset(resets)
        y = tuple(F(0) if i in resets else v for i, v in enumerate(x))
        assert region_of(y, bound) == image


def test_guard_on_matches_representative(rng):
    """Each clock's window is decided from integer parts and zero-fraction
    flags alone, as `Guard.holds` decides the atoms at the region's
    representative, for bounds up to the region's bound; a clock in `large`
    is decided as if it were above the bound.  Some draws add an empty
    window, such as `x > 2, x < 2` or `x >= 1, x < 1`, which no region meets."""
    clocks = ["x", "y", "z"]
    empty = 0
    for _ in range(2000):
        bound = rng.randrange(0, 4)
        n = rng.randrange(1, 4)
        point = tuple(F(rng.randrange(0, (bound + 2) * 4), 4) for _ in range(n))
        region = region_of(point, bound)
        large = frozenset(c for c in clocks[:n] if rng.random() < 0.3)
        atoms = [ClockConstraint(rng.choice(clocks[:n]), rng.choice(RELATIONS),
                                 rng.randrange(0, bound + 1))
                 for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            c, lo = rng.choice(clocks[:n]), rng.randrange(0, bound + 1)
            lo_rel, hi_rel, hi = rng.choice((">", ">=")), rng.choice(("<", "<=")), \
                rng.randrange(0, lo + 1)
            if (lo_rel, hi_rel, hi) == (">=", "<=", lo):
                hi_rel = "<"
            atoms += [ClockConstraint(c, lo_rel, lo), ClockConstraint(c, hi_rel, hi)]
            rng.shuffle(atoms)
            empty += 1
        guard = Guard(tuple(atoms))
        rep = dict(zip(clocks, region.representative()))
        rep.update((c, F(bound + 1)) for c in large)
        assert _guard_on(region, guard, clocks.index, large) == guard.holds(rep), \
            (region, atoms, large)
    assert empty > 400


# -- region splitting -----------------------------------------------------------


def test_split_a6_main_cycle_and_transients(split_corpus):
    rs = split_corpus["a6"]
    regions = set(rs.regions.values())
    main_q = region_of((F(1, 2), F(0)), 2)
    main_p = region_of((F(0), F(1, 2)), 2)
    assert main_q in regions and main_p in regions
    transients = [q for q in rs.locations
                  if rs.regions[q] not in (main_q, main_p)]
    assert len(transients) >= 2


def test_split_singleton_automaton():
    a = parse_automaton("""
automaton single
clocks x
alphabet a
location q initial accepting
""")
    rs = region_split(a)
    assert len(rs.locations) == 1
    (region,) = rs.regions.values()
    assert region == region_of((0,), 0)


def test_split_a8_three_vertex_simplex(split_corpus):
    rs = split_corpus["a8"]
    assert any(rs.regions[q].bounded and rs.regions[q].vertices() ==
               ((0, 0), (1, 0), (1, 1)) for q in rs.locations)


@pytest.mark.parametrize("name", NAMES)
def test_split_outputs_are_deterministic_automata(split_corpus, name):
    rs = split_corpus[name]
    if rs.locations:
        assert check_deterministic(rs).deterministic


@pytest.mark.parametrize("name", NAMES)
def test_split_edge_exactness(split_corpus, name):
    """Each edge's successor is exactly the target region and conversely."""
    rs = split_corpus[name]
    for e in rs.edges:
        assert closed_successor(rs, rs.regions[e.src], e) == rs.regions[e.dst]
        assert closed_predecessor(rs, rs.regions[e.dst], e) == rs.regions[e.src]


def test_closed_successor_examples(split_corpus):
    rs = split_corpus["a6"]
    main_q = next(q for q in rs.locations
                  if rs.regions[q] == region_of((F(1, 2), F(0)), 2))
    d1 = next(e for e in rs.edges_from(main_q)
              if rs.regions[e.dst] == region_of((F(0), F(1, 2)), 2))
    assert closed_successor(rs, region_of((0, 0), 2), d1) \
        == region_of((F(0), F(1, 2)), 2)
    assert closed_successor(rs, region_of((1, 0), 2), d1) \
        == region_of((0, 0), 2)
    assert closed_predecessor(rs, rs.regions[d1.dst], d1) == rs.regions[d1.src]


def _mean_region(vertices, bound: int):
    vs = list(vertices)
    return region_of(tuple(F(sum(col), len(vs)) for col in zip(*vs)), bound)


def _faces(region):
    """The vertex sets of the region's closure faces: every nonempty subset."""
    vs = region.vertices()
    return [s for k in range(1, len(vs) + 1) for s in combinations(vs, k)]


def test_closed_successor_and_predecessor_match_languages_on_faces(split_corpus):
    """Face oracle.  On the face spanned by a vertex set S of an edge's source
    region, the closed successor is the region of the mean of the target
    vertices w with a nonempty language from some v in S; the closed
    predecessor of a target face is the same read backwards."""
    subjects = [*split_corpus.values(), *map(region_split, deterministic_draws(19, 300))]
    faces = 0
    for rs in subjects:
        for e in rs.edges:
            src, dst = rs.regions[e.src], rs.regions[e.dst]
            live = {(v, w) for v in src.vertices() for w in dst.vertices()
                    if not language_class(rs, [e], v, w).empty}
            for s in _faces(src):
                hit = {w for v, w in live if v in s}
                assert closed_successor(rs, _mean_region(s, src.bound), e) \
                    == _mean_region(hit, dst.bound), (e.name, s)
            for s in _faces(dst):
                hit = {v for v, w in live if w in s}
                assert closed_predecessor(rs, _mean_region(s, dst.bound), e) \
                    == _mean_region(hit, src.bound), (e.name, s)
            faces += len(_faces(src)) + len(_faces(dst))
    assert faces > 3000


def test_region_split_edges_are_exact(split_corpus):
    """Every edge `region_split` builds passes `check_exact_edges`, before
    and after a serialize and parse round trip."""
    for rs in [*split_corpus.values(), *map(region_split, deterministic_draws(19, 300))]:
        check_exact_edges(rs)
        if rs.locations:
            check_exact_edges(parse_automaton(serialize_automaton(rs)))


def test_check_exact_edges_names_the_edge():
    rs = region_split(automaton("a6"))
    e = rs.edges[0]
    wrong = next(q for q in rs.locations if rs.regions[q] != rs.regions[e.dst])
    bad = replace(rs, edges=(replace(e, dst=wrong), *rs.edges[1:]))
    with pytest.raises(TAError, match=f"edge {e.name} is not exact: its firing region"):
        check_exact_edges(bad)


def test_closed_successor_precondition():
    rs = region_split(automaton("a6"))
    e = rs.edges[0]
    outside = region_of((2, 2), 2)
    with pytest.raises(TAError):
        closed_successor(rs, outside, e)


def test_split_rejects_nondeterministic():
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
    with pytest.raises(TAError):
        region_split(a)


def test_initial_values_count_toward_the_bound():
    # the max constant covers initial-value constraints, so splitting succeeds
    a = parse_automaton("""
automaton x
clocks x
alphabet a
location q initial x=5 accepting
edge q -> q on a guard x < 2
""")
    assert a.max_constant == 5
    rs = region_split(a)
    assert rs.locations


def _grid_language(a, duration, grid):
    from tempoclass.bandwidth import enumerate_words

    return {tuple(sorted(set(w.events))) for w in enumerate_words(a, duration, grid)}


def test_split_language_preserved_small():
    a = automaton("a6")
    rs = region_split(a)
    assert _grid_language(a, F(4), F(1, 4)) == _grid_language(rs, F(4), F(1, 4))


def test_split_handles_clocks_crossing_the_bound():
    """Clocks that run above the max constant are annotated and force-reset."""
    a = parse_automaton("""
automaton crossing
clocks x y
alphabet a b
location q initial accepting
location p accepting
edge q -> p on a guard x > 1 reset y
edge p -> q on b guard y < 1 reset x
""")
    rs = region_split(a)
    # a split edge resets a clock that ran above the bound, though its original
    # edge does not
    assert any(set(e.resets) - set(a.edge_named(e.name.rsplit(".", 1)[0]).resets)
               for e in rs.edges)
    assert _grid_language(a, F(4), F(1, 2)) == _grid_language(rs, F(4), F(1, 2))


def test_split_language_preserved_on_random_automata():
    """The strongest splitting oracle: grid slices before and after must match
    on arbitrary small deterministic automata, punctual guards, resets and
    above-bound clock excursions included."""
    import random

    from conftest import random_automaton
    from tempoclass.ta import check_deterministic as det

    rng = random.Random(1234)
    built = 0
    while built < 60:
        a = random_automaton(rng)
        if not det(a).deterministic:
            continue
        built += 1
        rs = region_split(a)
        if rs.locations:
            assert det(rs).deterministic
        assert _grid_language(a, F(2), F(1, 2)) == _grid_language(rs, F(2), F(1, 2))
