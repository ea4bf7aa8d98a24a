import importlib
from collections import deque
from fractions import Fraction as F

import pytest

from tempoclass.classify import (ObeseReport, PatternWitness, SaturationCapExceeded,
                                 _least_wide_cycle, _level_sets, _wide_vertices,
                                 classify, guards_bounded_nonpunctual,
                                 is_structurally_meager, is_structurally_obese,
                                 is_thick, saturate)
from tempoclass.corpus import NAMES, automaton, fam
from tempoclass.orbits import (FAST, INSTANT, KINDS, SLOW, WIDE, OrbitElement,
                               edge_orbit, edge_orbit_table, orbit_compose,
                               orbit_element, orbit_one, orbit_zero,
                               path_orbit, path_orbit_direct, semiring_add,
                               semiring_mul)
from tempoclass.regions import region_of
from conftest import (BIG_CONSTANT, MANY_CHAINS, OPEN_TICKER, RING3, RING3_Y2,
                      deterministic_draws)
from tempoclass.splitting import (DEFAULT_CAP, RegionSplitCapExceeded, closed_successor,
                                  region_split)
from tempoclass.ta import (ClockConstraint, Edge, Guard, TimedAutomaton,
                           parse_automaton, serialize_automaton)


def test_saturate_contains_a6_cycle_orbits(split_corpus):
    rs = split_corpus["a6"]
    reach = saturate(rs, "p")
    main_q = region_of((F(1, 2), F(0)), 2)
    main_p = region_of((F(0), F(1, 2)), 2)
    loc_q = next(q for q in rs.locations if rs.regions[q] == main_q)
    loc_p = next(q for q in rs.locations if rs.regions[q] == main_p)
    expected = {
        (loc_q, ((1, 1), (1, 0)), loc_p): 1,
        (loc_p, ((0, 1), (1, 1)), loc_q): 1,
        (loc_q, ((1, 1), (0, 1)), loc_q): 2,
        (loc_p, ((1, 0), (1, 1)), loc_p): 2,
    }
    for (src, matrix, dst), max_len in expected.items():
        elem = orbit_element("p", src, matrix, dst)
        assert elem in reach
        assert len(reach[elem]) <= max_len


def test_saturate_no_edges():
    from tempoclass.ta import parse_automaton

    a = parse_automaton("automaton e\nalphabet a\nlocation q initial accepting\n")
    rs = region_split(a)
    reach = saturate(rs, "p")
    assert set(reach) == {orbit_one("p")}


def test_saturate_a7_wide_cycle(split_corpus):
    reach = saturate(split_corpus["a7"], "f")
    hits = [(e, w) for e, w in reach.items()
            if e.cyclic and WIDE in e.diagonal()]
    assert hits
    assert min(len(w) for _, w in hits) == 2


FAM_3_2 = fam(3, 2)


def _reference_product(e1, e2):
    """Semiring matrix product over every term, unit and zero handled apart."""
    if e1.is_zero or e2.is_zero:
        return orbit_zero(e1.kind)
    if e1.is_one:
        return e2
    if e2.is_one:
        return e1
    if e1.dst != e2.src:
        return orbit_zero(e1.kind)
    kind, a, b = e1.kind, e1.matrix, e2.matrix
    rows = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = 0
            for k in range(len(b)):
                acc = semiring_add(kind, acc, semiring_mul(kind, a[i][k], b[k][j]))
            row.append(acc)
        rows.append(row)
    return orbit_element(kind, e1.src, rows, e2.dst)


def _reference_saturate(rs, kind):
    """Breadth-first saturation that tries every edge on every element."""
    edge_orbits = [(e, edge_orbit(rs, e, kind)) for e in rs.edges]
    reach = {orbit_one(kind): ()}
    frontier = deque(reach)
    while frontier:
        elem = frontier.popleft()
        for e, eo in edge_orbits:
            if elem.tag == "elem" and elem.dst != e.src:
                continue
            nxt = _reference_product(elem, eo)
            if nxt.is_zero or nxt in reach:
                continue
            reach[nxt] = reach[elem] + (e.name,)
            frontier.append(nxt)
    return reach


def _reference_levels(rs, kind, cap=DEFAULT_CAP):
    """The level sets of depth 0, 1, ... up to the fixpoint, by naive
    squaring: every ordered pair of the level in every round, with the cap
    checked after each product."""
    level = {orbit_one(kind)}
    level.update(eo for eo in edge_orbit_table(rs)[kind].values() if not eo.is_zero)
    yield level
    while True:
        nxt = set(level)
        for e1 in level:
            for e2 in level:
                c = orbit_compose(e1, e2)
                if not c.is_zero:
                    nxt.add(c)
                if len(nxt) > cap:
                    raise SaturationCapExceeded(cap, nxt)
        if nxt == level:
            return
        level = nxt
        yield level


def _cap_round(levels):
    """The round in which the cap stopped the search, or None."""
    done = 0
    try:
        for _ in levels:
            done += 1
    except SaturationCapExceeded:
        return done - 1
    return None


def _level_outcome(rs, kind, h, cap):
    """The level set of depth h, or the partial level when the cap stops it."""
    try:
        return "level", _level_sets(rs, kind, h, cap)
    except SaturationCapExceeded as exc:
        return "partial", exc.partial


@pytest.mark.parametrize("name", [*NAMES, "fam_3_2", "draws"])
def test_level_sets_match_naive_squaring(split_corpus, name):
    """Semi-naive rounds build the level set of naive squaring at every
    depth up to the fixpoint, and a cap stops both in the same round."""
    if name == "draws":
        subjects = [region_split(a) for a in deterministic_draws(13, 120)]
    elif name == "fam_3_2":
        subjects = [region_split(parse_automaton(FAM_3_2))]
    else:
        subjects = [split_corpus[name]]
    for rs in subjects:
        for kind in KINDS:
            levels = list(_reference_levels(rs, kind))
            depth = len(levels) - 1
            for h in range(depth + 2):
                assert _level_sets(rs, kind, h) == levels[min(h, depth)], \
                    (kind, h, serialize_automaton(rs))
            # savitch's call, whose depth is the cap itself
            assert _level_sets(rs, kind, DEFAULT_CAP, DEFAULT_CAP) \
                == set(saturate(rs, kind)), (kind, serialize_automaton(rs))
            # caps that the level first exceeds in the first, a middle and
            # the last round
            sizes = [len(level) for level in levels]
            for cap in {sizes[0] - 1, sizes[depth // 2], sizes[depth] - 1} - {0}:
                stop = _cap_round(_reference_levels(rs, kind, cap))
                assert (stop is None) == (cap >= sizes[depth]), (kind, cap)
                # depth cap stops where the least h with 2**h >= cap does
                # (at least 1: depth 0 runs no round and checks no cap)
                shallow = max(1, (cap - 1).bit_length())
                assert _level_outcome(rs, kind, cap, cap) \
                    == _level_outcome(rs, kind, shallow, cap), (kind, cap)
                for h in [*range(depth + 2), cap]:
                    try:
                        _level_sets(rs, kind, h, cap)
                        raised = False
                    except SaturationCapExceeded as exc:
                        raised = True
                        # the level as it first exceeds the cap
                        assert len(exc.partial) == max(cap + 1, sizes[0])
                        assert exc.partial <= levels[min(stop + 1, depth)]
                    assert raised == (stop is not None and h > stop), \
                        (kind, cap, h, serialize_automaton(rs))


@pytest.mark.parametrize("name", [*NAMES, "fam_3_2"])
def test_level_sets_compute_each_row_product_once(split_corpus, monkeypatch,
                                                  name):
    """One `_level_sets` call multiplies each distinct (left row, right
    matrix) pair once, however many compositions meet it."""
    rs = (region_split(parse_automaton(FAM_3_2)) if name == "fam_3_2"
          else split_corpus[name])
    orbits = importlib.import_module("tempoclass.orbits")
    real = orbits._row_times
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    for kind in KINDS:
        # the levels up to one past the fixpoint, as the equality test above
        # pins them to naive squaring
        levels = [_level_sets(rs, kind, 0)]
        while len(levels) < 2 or levels[-1] != levels[-2]:
            levels.append(_level_sets(rs, kind, len(levels)))
        rank: dict[OrbitElement, int] = {}
        for r, level in enumerate(levels):
            for x in level:
                rank.setdefault(x, r)
        by_src: dict[str, list[OrbitElement]] = {}
        for x in levels[-1]:
            if x.tag == "elem":
                by_src.setdefault(x.src, []).append(x)
        # a round composes each element new in the round before, on the
        # left, with every element of the level
        pairs = {(row, y.matrix) for x in levels[-1] if x.tag == "elem"
                 for y in by_src.get(x.dst, ()) if rank[x] >= rank[y]
                 for row in x.matrix}
        monkeypatch.setattr(orbits, "_row_times", counting)
        calls[0] = 0
        assert _level_sets(rs, kind, len(levels) - 1) == levels[-1]
        monkeypatch.undo()
        assert calls[0] == len(pairs), kind


@pytest.mark.parametrize("name", [*NAMES, "fam_3_2", "fam_4_2", "draws"])
def test_saturate_matches_all_edge_reference(split_corpus, name):
    """The same elements, in the same order, with the same witnesses."""
    if name == "draws":
        subjects = [region_split(a) for a in deterministic_draws(13, 300)]
    elif name.startswith("fam_"):
        subjects = [region_split(parse_automaton(fam(int(name[4]), 2)))]
    else:
        subjects = [split_corpus[name]]
    for rs in subjects:
        for kind in KINDS:
            assert list(saturate(rs, kind).items()) == \
                list(_reference_saturate(rs, kind).items()), \
                (kind, serialize_automaton(rs))


@pytest.mark.parametrize("name", [*NAMES, "fam_3_2"])
def test_compose_matches_reference_product(split_corpus, name):
    rs = (region_split(parse_automaton(FAM_3_2)) if name == "fam_3_2"
          else split_corpus[name])
    for kind in KINDS:
        elements = list(saturate(rs, kind))
        for eo in edge_orbit_table(rs)[kind].values():
            for x in elements:
                assert orbit_compose(x, eo) == _reference_product(x, eo), \
                    (kind, x, eo)


def test_orbit_element_value_semantics(split_corpus):
    rs = split_corpus["a8"]
    for kind in KINDS:
        assert orbit_zero(kind) == orbit_zero(kind)
        assert orbit_one(kind) == orbit_one(kind) != orbit_zero(kind)
        reach = saturate(rs, kind)
        for x in reach:
            # separately built equal elements: equal, same hash, one dict key
            copy = OrbitElement(x.kind, x.tag, x.src, x.matrix, x.dst)
            rebuilt = (orbit_element(kind, x.src, [list(r) for r in x.matrix],
                                     x.dst) if x.tag == "elem" else copy)
            for other in (copy, rebuilt):
                assert other == x and hash(other) == hash(x)
                assert len({x: 1, other: 2}) == 1
            assert hash(x) == hash((x.kind, x.tag, x.src, x.matrix, x.dst))
            assert x != (x.kind, x.tag, x.src, x.matrix, x.dst)
        for eo in rs.edge_orbits[kind].values():
            if eo.is_zero:
                continue
            assert orbit_compose(orbit_one(kind), eo) is eo
            fresh = orbit_element(kind, eo.src, eo.matrix, eo.dst)
            assert eo == fresh and fresh == eo and hash(eo) == hash(fresh)
            assert eo in reach and reach[fresh] == reach[eo]
            assert repr(eo) == (
                f"OrbitElement(kind={kind!r}, tag='elem', src={eo.src!r}, "
                f"matrix={eo.matrix!r}, dst={eo.dst!r})")
            other_dst = orbit_element(kind, eo.src, eo.matrix, eo.src + "'")
            assert eo != other_dst


@pytest.mark.parametrize("mode", ["bfs", "savitch", "standalone"])
def test_classify_builds_edge_languages_once(monkeypatch, mode):
    """The edge table maps each edge's delay interval straight to its p, f
    and d entries, so no check builds a DBM or a `LanguageClass`; only the
    `path_orbit_direct` oracle does."""
    # the package's classify() shadows the submodule name, so modules are
    # fetched by import path
    orbits = importlib.import_module("tempoclass.orbits")
    dbm = importlib.import_module("tempoclass.dbm")
    real = orbits.language_class
    real_init = dbm.LanguageClass.__init__
    calls = [0]
    classes = [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    def counting_init(self, *args, **kwargs):
        classes[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(orbits, "language_class", counting)
    monkeypatch.setattr(dbm.LanguageClass, "__init__", counting_init)
    if mode == "standalone":
        fresh = region_split(automaton("a2"))
        edge_orbit_table(fresh)
        for kind in ("p", "f", "d"):
            saturate(fresh, kind)
        assert is_structurally_obese(fresh, mode="savitch").obesity_type == "II"
        assert is_thick(fresh).thick
    else:
        verdict = classify(automaton("a2"), mode=mode)
        assert verdict.obesity_type == "II"
    fresh = region_split(automaton("a2"))
    e, f = next((e, f) for e in fresh.edges for f in fresh.edges_from(e.dst))
    assert not path_orbit(fresh, [e, f], "d").is_zero
    closed_successor(fresh, fresh.regions[e.src], e)
    assert calls[0] == classes[0] == 0
    # the counters are live: the oracle reaches them once per vertex pair
    path_orbit_direct(fresh, [e, f], "d")
    pairs = len(fresh.location_vertices(e.src)) * len(fresh.location_vertices(f.dst))
    assert calls[0] == classes[0] == pairs


def test_saturation_cap():
    """A capped saturation stops at the element that exceeds the cap; its
    partial map is the first cap + 1 entries of the whole monoid."""
    for rs in (region_split(automaton("a3")),
               region_split(parse_automaton(FAM_3_2))):
        for kind in KINDS:
            full = list(saturate(rs, kind).items())
            caps = {1, 2, 5, len(full) // 2, len(full) - 1}
            for cap in sorted(c for c in caps if 0 < c < len(full)):
                with pytest.raises(SaturationCapExceeded) as exc:
                    saturate(rs, kind, cap=cap)
                assert exc.value.cap == cap
                assert list(exc.value.partial.items()) == full[:cap + 1], \
                    (kind, cap)
            assert list(saturate(rs, kind, cap=len(full)).items()) == full


def test_saturation_computes_each_product_once(monkeypatch):
    """Breadth-first saturation multiplies each distinct (left matrix, edge
    matrix) pair once per call, however many extensions meet it."""
    classify_module = importlib.import_module("tempoclass.classify")
    real = classify_module.matrix_product
    calls = []

    def counting(kind, a, b, row_memo):
        calls.append((a, b))
        return real(kind, a, b, row_memo)

    monkeypatch.setattr(classify_module, "matrix_product", counting)
    rs = region_split(parse_automaton(fam(6, 2)))
    reach = saturate(rs, "f")
    out: dict[str, list] = {}
    for e, eo in zip(rs.edges, rs.edge_orbits["f"].values()):
        if not eo.is_zero:
            out.setdefault(e.src, []).append(eo.matrix)
    elements = [x for x in reach if x.tag == "elem"]
    pairs = {(x.matrix, b) for x in elements for b in out.get(x.dst, ())}
    extensions = sum(len(out.get(x.dst, ())) for x in elements)
    assert len(calls) == len(set(calls)) == len(pairs) == 1548
    assert extensions > 10 * len(pairs)
    # the memo lives for one call
    calls.clear()
    saturate(rs, "f")
    assert len(calls) == len(pairs)


def test_region_split_cap(monkeypatch):
    splitting = importlib.import_module("tempoclass.splitting")
    real = splitting.time_successor_chain
    longest = [0]

    def measured(region):
        chain = real(region)
        longest[0] = max(longest[0], len(chain))
        return chain

    monkeypatch.setattr(splitting, "time_successor_chain", measured)
    with pytest.raises(RegionSplitCapExceeded, match="cap of 1000000"):
        classify(parse_automaton(BIG_CONSTANT))
    assert longest[0] == 0
    ring = parse_automaton(RING3)
    locations = len(region_split(ring).locations)
    assert longest[0] <= 19 < locations
    for cap in (19, locations - 1):
        with pytest.raises(RegionSplitCapExceeded, match=f"cap of {cap}:"):
            region_split(ring, cap)
    with pytest.raises(RegionSplitCapExceeded, match="cap of 18:"):
        classify(ring, cap=18)
    # no clocks: every chain is one region, so the location count passes first
    fan = parse_automaton("automaton fan\nalphabet a b c d\nlocation q initial\n"
                          + "".join(f"location p{i} accepting\nedge q -> p{i} on {x}\n"
                                    for i, x in enumerate("abcd", 1)))
    with pytest.raises(RegionSplitCapExceeded,
                       match="cap of 3: more region-split locations than the cap"):
        region_split(fan, 3)


def test_region_split_counts_regions_across_chains():
    a = parse_automaton(MANY_CHAINS)
    assert len(region_split(a).locations) == 40
    with pytest.raises(RegionSplitCapExceeded,
                       match="cap of 1000: more regions in time-successor chains"):
        region_split(a, 1000)


def test_level_sets_membership(split_corpus):
    rs = split_corpus["a6"]
    assert orbit_one("f") in _level_sets(rs, "f", 0)
    reach = saturate(rs, "p")
    cyclic = next(e for e in reach if e.cyclic and len(reach[e]) == 2)
    assert cyclic in _level_sets(rs, "p", 1)
    bogus = orbit_element("p", rs.locations[0],
                          ((1,),) * len(rs.location_vertices(rs.locations[0])),
                          rs.locations[0])
    if bogus not in reach:
        assert bogus not in _level_sets(rs, "p", 8)


def test_mode_agreement(split_corpus, rng):
    import math

    for name in ("a6", "a8"):
        rs = split_corpus[name]
        for kind in ("p", "f", "d"):
            reach = saturate(rs, kind)
            h = max(1, math.ceil(math.log2(len(reach))))
            level = _level_sets(rs, kind, h)
            for elem in reach:
                assert elem in level
            misses = 0
            while misses < 50:
                src = rng.choice(rs.locations)
                dst = rng.choice(rs.locations)
                rows = len(rs.location_vertices(src))
                cols = len(rs.location_vertices(dst))
                values = {"p": 2, "f": 3, "d": 4}[kind]
                m = tuple(tuple(rng.randrange(values) for _ in range(cols))
                          for _ in range(rows))
                elem = orbit_element(kind, src, m, dst)
                if elem.is_zero or elem in reach:
                    continue
                misses += 1
                assert elem not in level


def test_meagerness_verdicts(split_corpus):
    assert is_structurally_meager(split_corpus["a6"]).meager
    assert is_structurally_meager(split_corpus["a5"]).meager
    rep = is_structurally_meager(split_corpus["a7"])
    assert not rep.meager
    # the witness reproduces the pattern
    rs = split_corpus["a7"]
    path = [rs.edge_named(n) for n in rep.witness.cycle]
    e = path_orbit(rs, path, "f")
    i, j = rep.witness.position
    assert i == j and e.entry(i, j) == WIDE


def test_obesity_verdicts(split_corpus):
    rep = is_structurally_obese(split_corpus["a1"])
    assert rep.obese and rep.obesity_type == "I"
    rep = is_structurally_obese(split_corpus["a8"])
    assert rep.obese and rep.obesity_type == "II"
    assert not is_structurally_obese(split_corpus["a9"]).obese


def test_obesity_witnesses_reproduce_patterns(split_corpus):
    rs = split_corpus["a8"]
    rep = is_structurally_obese(rs)
    zeno_w, reset_w = rep.witnesses
    zeno = path_orbit(rs, [rs.edge_named(n) for n in zeno_w.cycle], "d")
    u, v = zeno_w.position
    assert zeno.entry(u, u) == INSTANT and zeno.entry(v, v) == INSTANT
    assert zeno.entry(u, v) == SLOW
    reset = path_orbit(rs, [rs.edge_named(n) for n in reset_w.cycle], "p")
    assert reset.cyclic and reset.src == zeno.src
    assert reset.entry(v, u) != 0


def test_type1_witness_reproduces(split_corpus):
    rs = split_corpus["a1"]
    rep = is_structurally_obese(rs)
    w = rep.witnesses[0]
    e = path_orbit(rs, [rs.edge_named(n) for n in w.cycle], "d")
    assert e.entry(w.position[0], w.position[0]) == FAST


GOLDEN = {
    "a1": ("obese", "I", "thick"),
    "a2": ("obese", "II", "thick"),
    "a3": ("meager", None, "thin"),
    "a4": ("normal", None, "thick"),
    "a5": ("meager", None, "thin"),
    "a6": ("meager", None, "thin"),
    # a7 / a9 verdicts are pinned by the pre-build hand saturation of their
    # small cycle monoids, not by published statements
    "a7": ("obese", "I", "thick"),
    "a8": ("obese", "II", "thin"),
    "a9": ("meager", None, "thin"),
    "a10": ("normal", None, "thin"),
}


@pytest.mark.parametrize("name", NAMES)
def test_classify_golden(name):
    v = classify(automaton(name))
    cls, typ, fat = GOLDEN[name]
    assert v.classification == cls
    assert v.obesity_type == typ
    assert v.fatness == fat


@pytest.mark.parametrize("name", NAMES)
def test_savitch_mode_agrees(name):
    v1 = classify(automaton(name))
    v2 = classify(automaton(name), mode="savitch")
    assert v1.classification == v2.classification
    assert v1.obesity_type == v2.obesity_type
    assert v1.fatness == v2.fatness


def test_modes_agree_on_random_automata():
    """savitch decides all three verdicts from its own level sets, so it
    checks bfs on thickness too; every bfs thick witness replays."""
    for a in deterministic_draws(7, 300):
        bfs = classify(a)
        assert _verdict(a, "savitch") == (bfs.classification, bfs.obesity_type,
                                          bfs.fatness), serialize_automaton(a)
        if bfs.fatness == "thick":
            _assert_thick_witness(region_split(a), bfs.witnesses[-1])


def test_meagerness_oracle_on_graphs(split_corpus):
    """The graph criterion of bfs mode agrees with a scan of the f monoid;
    both verdicts occur often among the subjects."""
    subjects = [*split_corpus.values(),
                *(region_split(parse_automaton(fam(k, 2))) for k in range(2, 7)),
                region_split(parse_automaton(RING3)),
                *(region_split(a) for a in deterministic_draws(7, 4000))]
    counts = {True: 0, False: 0}
    for rs in subjects:
        meager = is_structurally_meager(rs, reach=saturate(rs, "f")).meager
        assert is_structurally_meager(rs).meager == meager, serialize_automaton(rs)
        counts[meager] += 1
    assert min(counts.values()) > len(subjects) // 10, counts


def _obese_by_rescan(reach):
    """Obesity as a scan of the d monoid `reach` that rescans the monoid for
    every type-II candidate: the reference for the type-II return index."""
    for elem, wit in reach.items():
        if elem.cyclic:
            for i, val in enumerate(elem.diagonal()):
                if val == FAST:
                    return ObeseReport(True, "I", (PatternWitness(wit, (i, i), "d"),))
    for elem, wit in reach.items():
        if not elem.cyclic:
            continue
        diag = elem.diagonal()
        for u, du in enumerate(diag):
            for v, dv in enumerate(diag):
                if v == u or du != INSTANT or dv != INSTANT or elem.entry(u, v) != SLOW:
                    continue
                for other, wit2 in reach.items():
                    if other.cyclic and other.src == elem.src and other.entry(v, u):
                        return ObeseReport(True, "II", (PatternWitness(wit, (u, v), "d"),
                                                        PatternWitness(wit2, (v, u), "p")))
    return ObeseReport(False)


def test_return_check_oracle_on_graphs(oracle_subjects):
    """Type II's return check reads the support of cyclic d elements.  Some
    cyclic d element at q has entry (v, u) nonzero iff (q, u) is reached
    from (q, v) in one or more steps of the vertex graph of the nonzero d
    edge entries; both answers occur often among the subjects.  The return
    index of `is_structurally_obese` gives the type and both witnesses of a
    scan that rescans d per candidate: of the 2,017 subjects, 340 are
    obese I, 21 obese II and 1,656 not obese."""
    counts = {True: 0, False: 0}
    outcomes = {"I": 0, "II": 0, None: 0}
    for rs in oracle_subjects:
        steps: dict[tuple[str, int], set[tuple[str, int]]] = {}
        for e in rs.edges:
            eo = rs.edge_orbits["d"][e.name]
            for v, row in enumerate(() if eo.is_zero else eo.matrix):
                steps.setdefault((e.src, v), set()).update(
                    (e.dst, u) for u, entry in enumerate(row) if entry)
        reach = saturate(rs, "d")
        obese = is_structurally_obese(rs, reach_d=reach)
        assert obese == _obese_by_rescan(reach), serialize_automaton(rs)
        outcomes[obese.obesity_type] += 1
        returns = {(x.src, v, u) for x in reach if x.cyclic
                   for v, row in enumerate(x.matrix)
                   for u, entry in enumerate(row) if entry}
        for q in rs.locations:
            n = len(rs.location_vertices(q))
            for v in range(n):
                reached, todo = set(), list(steps.get((q, v), ()))
                while todo:
                    w = todo.pop()
                    if w not in reached:
                        reached.add(w)
                        todo.extend(steps.get(w, ()))
                for u in range(n):
                    hit = (q, u) in reached
                    assert ((q, v, u) in returns) == hit, serialize_automaton(rs)
                    counts[hit] += 1
    assert min(counts.values()) > sum(counts.values()) // 10, counts
    assert all(outcomes.values()), outcomes


def test_classify_witnesses_match_freedom_scan():
    """bfs `classify` builds no f monoid, yet its meager and thick verdicts
    and witnesses are those of a scan of the breadth-first f monoid."""
    subjects = [*(automaton(name) for name in NAMES),
                *(parse_automaton(fam(k, 2)) for k in range(2, 7)),
                parse_automaton(RING3), parse_automaton(RING3_Y2),
                *deterministic_draws(23, 2500)]
    counts = {"not meager": 0, "thick": 0}
    for a in subjects:
        rs = region_split(a)
        v = classify(rs)
        reach = saturate(rs, "f")
        meager = is_structurally_meager(rs, reach=reach)
        thick = is_thick(rs, reach=reach)
        assert (v.classification == "meager") == meager.meager, serialize_automaton(a)
        assert (v.fatness == "thick") == thick.thick, serialize_automaton(a)
        if not meager.meager:
            assert v.witnesses[0] == meager.witness, serialize_automaton(a)
            counts["not meager"] += 1
        if thick.thick:
            assert v.witnesses[-1] == thick.witness, serialize_automaton(a)
            counts["thick"] += 1
    assert min(counts.values()) > len(subjects) // 10, counts


def test_fam_2_3_classifies_without_the_freedom_monoid():
    """f has 510,347 elements here, d 30,938."""
    v = classify(parse_automaton(fam(2, 3)))
    assert (v.classification, v.obesity_type, v.fatness) == ("obese", "I", "thick")
    assert v.stats["monoidSize"] == 30_938


def test_row_search_cap():
    """Each new state of the row search counts against the cap, and the
    error carries the states made so far."""
    rs = region_split(parse_automaton(RING3))
    wide = _wide_vertices(rs)
    cycle, i = _least_wide_cycle(rs, wide, DEFAULT_CAP)
    assert path_orbit(rs, [rs.edge_named(n) for n in cycle], "f").entry(i, i) == WIDE
    with pytest.raises(SaturationCapExceeded, match="f row search exceeded the "
                       "cap of 2 states") as exc:
        _least_wide_cycle(rs, wide, 2)
    assert len(exc.value.partial) == 3
    for s, i, q, row in exc.value.partial:
        assert (s, i) in wide and len(row) == len(rs.location_vertices(q))


def test_reachability_monoid_is_smallest(split_corpus):
    """p is a monoid image of f and of d, so `monoidSize` never needs it."""
    subjects = [*split_corpus.values(),
                *(region_split(parse_automaton(fam(k, 2))) for k in (2, 3, 4)),
                *(region_split(a) for a in deterministic_draws(11, 300))]
    for rs in subjects:
        sizes = {kind: len(saturate(rs, kind)) for kind in KINDS}
        assert sizes["p"] <= min(sizes["f"], sizes["d"]), sizes


@pytest.mark.parametrize("mode", ["bfs", "savitch"])
def test_classify_builds_no_reachability_monoid(monkeypatch, split_corpus, mode):
    """`classify` searches d (and f in savitch) on interned ids, and builds
    no `OrbitElement` once the edge table exists."""
    classify_module = importlib.import_module("tempoclass.classify")
    built = []
    for fn in ("_saturate_ids", "_level_set_ids"):
        def counting(a, kind, *args, _real=getattr(classify_module, fn), _fn=fn):
            built.append((_fn, kind))
            return _real(a, kind, *args)

        monkeypatch.setattr(classify_module, fn, counting)
    made = [0]
    real_init = OrbitElement.__init__

    def counting_init(self, *args, **kwargs):
        made[0] += 1
        real_init(self, *args, **kwargs)

    expected = ([("_saturate_ids", "d")] if mode == "bfs"
                else [("_level_set_ids", "d"), ("_level_set_ids", "f")])
    for rs in split_corpus.values():
        assert rs.edge_orbits
    monkeypatch.setattr(OrbitElement, "__init__", counting_init)
    for name, rs in split_corpus.items():
        built.clear()
        classify(rs, mode=mode)
        assert sorted(built) == expected, name
    assert made[0] == 0
    # the counter is live
    orbit_one("d")
    assert made[0] == 1


@pytest.mark.parametrize("mode", ["BFS", "savitchh", ""])
def test_unknown_mode_rejected(split_corpus, mode):
    rs = split_corpus["a8"]
    with pytest.raises(ValueError):
        classify(automaton("a8"), mode=mode)
    with pytest.raises(ValueError):
        is_structurally_meager(rs, mode=mode)
    with pytest.raises(ValueError):
        is_structurally_obese(rs, mode=mode)


def _assert_thick_witness(rs, witness):
    """The witness cycle's freedom orbit has no zero entry, and is wide on a
    single vertex."""
    e = path_orbit_direct(rs, [rs.edge_named(n) for n in witness.cycle], "f")
    assert e.cyclic and all(v for row in e.matrix for v in row)
    assert len(e.matrix) > 1 or e.entry(0, 0) == WIDE


def test_thickness(split_corpus):
    assert not is_thick(split_corpus["a6"]).thick
    assert is_thick(split_corpus["a1"]).thick
    assert not is_thick(split_corpus["a8"]).thick
    rs = split_corpus["a1"]
    rep = is_thick(rs)
    _assert_thick_witness(rs, rep.witness)
    # the support of a reachability monoid decides as that of the duration monoid
    assert is_thick(rs, reach=saturate(rs, "p")) == rep


@pytest.mark.parametrize("punctual", ["none", "before", "after"])
def test_open_ticker_is_thick(punctual):
    """A wide single-vertex cycle is thick even when a narrow cycle has the
    same reachability orbit, whatever the edge order."""
    with_a = OPEN_TICKER.replace("alphabet b", "alphabet a b")
    tick = "edge q -> q on a guard x = 1 reset x\n"
    a = parse_automaton({"none": OPEN_TICKER, "after": with_a + tick,
                         "before": with_a.replace("edge", tick + "edge")}[punctual])
    for mode in ("bfs", "savitch"):
        assert classify(a, mode=mode).fatness == "thick", mode
    b_name = next(e.name for e in a.edges if e.label == "b")
    rs = region_split(a)
    rep = is_thick(rs)
    assert rep.witness.cycle == (f"{b_name}.1",)
    _assert_thick_witness(rs, rep.witness)


def test_guard_flags():
    assert not guards_bounded_nonpunctual(automaton("a1"))   # no upper bounds
    assert not guards_bounded_nonpunctual(automaton("a5"))   # punctual guards
    assert guards_bounded_nonpunctual(automaton("a6"))
    assert guards_bounded_nonpunctual(automaton("a4"))
    for guard, applicable in (("x <= 0", False), ("x = 0", False),
                              ("x <= 0, y < 2", False), ("x < 1", True)):
        a = parse_automaton("automaton g\nclocks x y\nalphabet a\n"
                            "location q initial accepting\n"
                            f"edge q -> q on a guard {guard}\n")
        assert guards_bounded_nonpunctual(a) == applicable, guard


def test_thick_implies_not_meager_when_applicable():
    for name in NAMES:
        a = automaton(name)
        if not guards_bounded_nonpunctual(a):
            continue
        v = classify(a)
        if v.fatness == "thick":
            assert v.classification != "meager"


def test_pumping_bound_on_witnesses(split_corpus):
    for name in NAMES:
        rs = split_corpus[name]
        for kind in ("p", "f", "d"):
            reach = saturate(rs, kind)
            for elem, wit in reach.items():
                assert len(wit) <= len(reach)


def test_witnesses_in_verdicts_replay(split_corpus):
    for name in NAMES:
        v = classify(automaton(name))
        rs = split_corpus[name]
        for w in v.witnesses:
            path = [rs.edge_named(n) for n in w.cycle]
            e = path_orbit(rs, path, w.kind)
            assert e.tag == "elem"
            assert e.entry(*w.position) != 0


def test_mutual_exclusion_on_random_automata():
    for a in deterministic_draws(7, 200):
        rs = region_split(a)
        if not rs.locations:
            continue
        meager = is_structurally_meager(rs)
        obese = is_structurally_obese(rs)
        assert not (meager.meager and obese.obese)


def test_mutual_exclusion_on_corpus(split_corpus):
    for name in NAMES:
        rs = split_corpus[name]
        assert not (is_structurally_meager(rs).meager
                    and is_structurally_obese(rs).obese)


def test_classify_empty_language():
    from tempoclass.ta import parse_automaton

    a = parse_automaton("""
automaton dead
clocks x
alphabet a
location q initial
location p accepting
edge q -> p on a guard x > 1, x < 1
""")
    v = classify(a)
    assert v.classification == "meager"
    assert v.stats["locations"] == 0
    assert v.stats["monoidSize"] == 0
    assert classify(a, mode="savitch").stats["monoidSize"] is None
    with pytest.raises(ValueError):
        classify(a, mode="BFS")


# -- metamorphic verdicts ------------------------------------------------------------


def _swap_names(names):
    """Each name goes to its mirror in the list, so at least two swap when
    there are two or more."""
    return dict(zip(names, reversed(names)))


def _renamed(a):
    letters, locs, clocks = (_swap_names(a.alphabet), _swap_names(a.locations),
                             _swap_names(a.clocks))

    def guard(g):
        return Guard(tuple(ClockConstraint(clocks[x.clock], x.relation, x.bound)
                           for x in g.atoms))

    return TimedAutomaton(
        a.name, tuple(clocks[c] for c in a.clocks),
        tuple(letters[l] for l in a.alphabet), tuple(locs[q] for q in a.locations),
        tuple(Edge(e.name, locs[e.src], locs[e.dst], letters[e.label], guard(e.guard),
                   frozenset(clocks[c] for c in e.resets)) for e in a.edges),
        {locs[q]: v for q, v in a.initial.items()},
        {locs[q]: guard(g) for q, g in a.accepting.items()})


def _with_unreachable_location(a):
    edge = Edge("u_out", "u", a.locations[0], a.alphabet[0])
    return TimedAutomaton(a.name, a.clocks, a.alphabet, a.locations + ("u",),
                          a.edges + (edge,), dict(a.initial),
                          {**a.accepting, "u": Guard()})


def _with_edges_reversed(a):
    return TimedAutomaton(a.name, a.clocks, a.alphabet, a.locations,
                          a.edges[::-1], dict(a.initial), dict(a.accepting))


def _with_dead_sink(a):
    edges = tuple(Edge(f"z_{q}", q, "sink", "z") for q in a.locations)
    return TimedAutomaton(a.name, a.clocks, a.alphabet + ("z",),
                          a.locations + ("sink",),
                          a.edges + edges + (Edge("z_loop", "sink", "sink", "z"),),
                          dict(a.initial), dict(a.accepting))


def _verdict(a, mode="bfs"):
    v = classify(a, mode=mode)
    return v.classification, v.obesity_type, v.fatness


def test_verdicts_invariant_under_metamorphic_changes():
    """Renaming, unreachable or dead additions, reversing the edge list and
    the two textual round trips leave class, obesity type and fatness
    unchanged."""
    subjects = [automaton(name) for name in NAMES] + deterministic_draws(29, 300)
    for a in subjects:
        expected = _verdict(a)
        regionized = parse_automaton(serialize_automaton(region_split(a)))
        variants = {
            "renamed": _verdict(_renamed(a)),
            "unreachable location": _verdict(_with_unreachable_location(a)),
            "dead sink": _verdict(_with_dead_sink(a)),
            "edges reversed": _verdict(_with_edges_reversed(a)),
            "serialized": _verdict(parse_automaton(serialize_automaton(a))),
            "regionized bfs": _verdict(regionized),
            "regionized savitch": _verdict(regionized, "savitch"),
        }
        for change, got in variants.items():
            assert got == expected, (change, serialize_automaton(a))
