import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import main_cycle_edges, random_paths, short_cycles
from tempoclass.corpus import NAMES, automaton
from tempoclass.dbm import (Dbm, Interval, canonicalize, language_class,
                            path_timing_dbm, project, project_raw)
from tempoclass.splitting import region_split


def make_dbm(n, entries):
    d = Dbm(n)
    for (i, j), v in entries.items():
        d.tighten(i, j, F(v))
    return d


# -- bounds ----------------------------------------------------------------------


def test_tighten_only_lowers():
    d = Dbm(1)
    d.tighten(0, 1, F(3))        # any finite bound replaces None
    assert d.entries[0][1] == F(3)
    d.tighten(0, 1, F(5))        # a looser bound never raises an entry
    assert d.entries[0][1] == F(3)
    before = d.copy()
    d.tighten(0, 1, F(3))        # an equal bound changes nothing
    assert d == before
    d.tighten(0, 1, F(-1, 2))
    assert d.entries[0][1] == F(-1, 2)
    d.tighten(0, 0, F(1))        # the diagonal starts at 0 and is never raised
    assert d.entries[0][0] == 0 and d.entries[1][0] is None


# -- canonical form ----------------------------------------------------------------


def test_negative_cycle_is_empty():
    d = make_dbm(1, {(0, 1): -1, (1, 0): 0})
    assert canonicalize(d) is None


def test_all_infinite_is_itself():
    d = Dbm(2)
    c = canonicalize(d)
    assert c == d


def _paths_shortest(entries, n, src, dst):
    """Brute-force shortest path over all simple index sequences."""
    nodes = list(range(n + 1))
    best = None
    for k in range(0, n + 1):
        for mid in permutations([v for v in nodes if v not in (src, dst)], k):
            seq = (src,) + mid + (dst,)
            total = F(0)
            ok = True
            for a, b in zip(seq, seq[1:]):
                v = entries.get((a, b))
                if v is None:
                    ok = False
                    break
                total += v
            if ok and (best is None or total < best):
                best = total
    return best


def test_shortest_path_example():
    entries = {(0, 1): F(2), (1, 2): F(3)}
    d = make_dbm(2, entries)
    c = canonicalize(d)
    assert c.entries[0][2] == 5
    assert _paths_shortest(entries, 2, 0, 2) == F(5)


def _random_dbm(rng, n):
    d = Dbm(n)
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            r = rng.random()
            if r < 0.5:
                d.tighten(i, j, F(rng.randrange(-4, 5)))
    return d


@given(st.integers(0, 2 ** 30))
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(seed):
    rng = random.Random(seed)
    d = _random_dbm(rng, rng.randrange(1, 6))
    c = canonicalize(d)
    if c is not None:
        assert canonicalize(c) == c


def _minplus_closure(d):
    """Independent closure: repeated min-plus squaring of the bound matrix
    (None = infinity)."""
    size = d.n + 1
    m = [row[:] for row in d.entries]
    for _ in range(size.bit_length() + 1):
        nxt = [[m[i][j] for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    if m[i][k] is None or m[k][j] is None:
                        continue
                    cand = m[i][k] + m[k][j]
                    if nxt[i][j] is None or cand < nxt[i][j]:
                        nxt[i][j] = cand
        m = nxt
    for i in range(size):
        if m[i][i] < 0:
            return None
    return m


def test_projection_against_minplus_oracle(rng):
    for _ in range(300):
        d = _random_dbm(rng, rng.randrange(1, 6))
        c = canonicalize(d)
        m = _minplus_closure(d)
        if c is None:
            assert m is None
            continue
        assert m is not None
        for i in range(1, d.n + 1):
            up, down = project_raw(c, i)
            assert up == m[0][i]
            assert down == m[i][0]


def test_projection_examples():
    d = make_dbm(2, {(0, 1): F(2), (1, 2): F(3)})
    c = canonicalize(d)
    up, down = project_raw(c, 2)
    assert up == 5
    assert down is None  # no lower constraint: unbounded below
    # punctual
    d = make_dbm(1, {(0, 1): F(1), (1, 0): F(-1)})
    assert project(canonicalize(d), 1) == Interval(F(1), F(1))
    # t1 >= 0 and nothing else
    d = make_dbm(1, {(1, 0): F(0)})
    assert project(canonicalize(d), 1) == Interval(F(0), None)


# -- path-timing DBMs ------------------------------------------------------------


def test_path_timing_singleton(a6_rs):
    d1, _ = main_cycle_edges(a6_rs)
    d = canonicalize(path_timing_dbm(a6_rs, [d1], (F(0), F(0)), (F(0), F(1))))
    assert d is not None
    assert project(d, 1) == Interval(F(1), F(1))


def test_path_timing_empty(a6_rs):
    d1, _ = main_cycle_edges(a6_rs)
    d = canonicalize(path_timing_dbm(a6_rs, [d1], (F(1), F(0)), (F(0), F(1))))
    assert d is None


def test_path_timing_empty_path(a6_rs):
    d = path_timing_dbm(a6_rs, [], (F(0), F(0)), (F(0), F(0)))
    assert canonicalize(d) is not None
    d = path_timing_dbm(a6_rs, [], (F(0), F(0)), (F(0), F(1)))
    assert canonicalize(d) is None


def test_language_class_examples(a6_rs):
    d1, d2 = main_cycle_edges(a6_rs)
    lc = language_class(a6_rs, [d1], (0, 0), (0, 0))
    assert lc.kind == "singleton" and lc.duration.lo == 0
    lc = language_class(a6_rs, [d1, d2], (0, 0), (1, 0))
    assert lc.kind == "wide"
    assert lc.duration.lo < lc.duration.hi
    lc = language_class(a6_rs, [d2], (0, 0), (0, 0))
    assert lc.empty


def test_parametric_form(a6_rs):
    """Middle entries are integers untouched by endpoint values; border entries
    shift with the endpoints."""
    d1, d2 = main_cycle_edges(a6_rs)
    path = [d1, d2, d1]
    x0, y0 = (F(1, 2), F(0)), (F(0), F(1, 2))
    x1, y1 = (F(1, 4), F(0)), (F(0), F(3, 4))
    da = path_timing_dbm(a6_rs, path, x0, y0)
    db = path_timing_dbm(a6_rs, path, x1, y1)
    n = len(path)
    for i in range(1, n):
        for j in range(1, n):
            assert da.entries[i][j] == db.entries[i][j]
            if da.entries[i][j] is not None:
                assert da.entries[i][j].denominator == 1


def test_lipschitz_stability_of_projections():
    """Moving both endpoints inside their regions by less than eps moves every
    projection endpoint by less than 3*eps."""
    for name in ("a6", "a7", "a4"):
        rs = region_split(automaton(name))
        cycles = short_cycles(rs, max_len=4)
        for path in cycles[:6]:
            src_r = rs.regions[path[0].src]
            dst_r = rs.regions[path[-1].dst]
            x0, y0 = src_r.representative(), dst_r.representative()
            base = canonicalize(path_timing_dbm(rs, path, x0, y0))
            if base is None:
                continue
            for eps in (F(1, 8), F(1, 16)):
                delta = eps / 3
                x1 = _nudge(src_r, x0, delta)
                y1 = _nudge(dst_r, y0, delta)
                moved = canonicalize(path_timing_dbm(rs, path, x1, y1))
                if moved is None:
                    continue
                for i in range(1, len(path) + 1):
                    p0, p1 = project(base, i), project(moved, i)
                    assert abs(p0.lo - p1.lo) < 3 * eps
                    if p0.hi is not None and p1.hi is not None:
                        assert abs(p0.hi - p1.hi) < 3 * eps


def _nudge(region, point, delta):
    """Another interior point within delta of the given one."""
    rep = region.representative()
    moved = tuple(p + (r - p) * delta for p, r in zip(point, rep))
    candidate = tuple(p + delta / 2 if p == r else m
                      for p, r, m in zip(point, rep, moved))
    # fall back to a convex slide toward the representative, always interior
    slide = tuple(p + (r - p) * min(delta, F(1, 2)) for p, r in zip(point, rep))
    return slide if not region.contains(candidate) else candidate


def test_dump_format():
    d = make_dbm(1, {(0, 1): F(2)})
    d.tighten(1, 0, F(-1, 2))
    assert d.dump().splitlines() == ["0,2", "-1/2,0"]
    assert Dbm(1).dump().splitlines() == ["0,inf", "inf,0"]


def _all_entries_int(d):
    return all(v is None or type(v) is int for row in d.entries for v in row)


@pytest.mark.parametrize("name", NAMES)
def test_integer_vertices_match_fraction_vertices(split_corpus, rng, name):
    """Integer vertices give the classes `Fraction` vertices give, on every
    edge and on random paths, and keep every entry a plain `int`."""
    rs = split_corpus[name]
    for path in [[e] for e in rs.edges] + random_paths(rs, rng, 30):
        for v in rs.location_vertices(path[0].src):
            for w in rs.location_vertices(path[-1].dst):
                lc = language_class(rs, path, v, w)
                assert lc == language_class(rs, path, tuple(map(F, v)),
                                            tuple(map(F, w))), (path, v, w)
                d = path_timing_dbm(rs, path, v, w)
                assert _all_entries_int(d), (path, v, w)
                closed = canonicalize(d)
                assert closed is None or _all_entries_int(closed), (path, v, w)
                if lc.duration is not None:
                    assert type(lc.duration.lo) is int
                    assert lc.duration.hi is None or type(lc.duration.hi) is int
