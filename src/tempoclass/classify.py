"""Reachable-orbit saturation and the three-way bandwidth classification.

An automaton is meager when no cyclic freedom orbit carries a wide diagonal
entry, obese when some cyclic duration orbit carries a fast diagonal entry
(type I) or an instant/instant/slow triangle whose return edge is realizable
by another cycle on the same region (type II), and normal otherwise.  Two modes
build the orbit monoids that the patterns are scanned over: `bfs` saturates
a monoid breadth-first and keeps a shortest witness per element; `savitch`
squares level sets as in the log-space reachability recursion, in semi-naive
rounds that compose only the elements new in the previous round with the
level, and keeps no witnesses; the rounds run until one adds no element or
the level exceeds the cap, with no bound on their number.  Both searches run
on interned locations and matrices, and multiply matrices with
`matrix_product`, with one row memo per right-factor matrix that lives for
one call.

In `bfs` mode, `classify` builds only the duration (d) monoid and scans it
for both obesity types.  No semiring here has zero divisors, so a path's
reachability orbit is the support of its freedom (f) orbit and of its d
orbit: the type-II return check and thickness on two or more vertices read
it off d.  Meagerness is decided on graphs (`_wide_vertices`), and the wide
f entries that the meager witness and thickness on one vertex need are found
by a breadth-first search over rows of f orbits (`_least_wide_cycle`), which
reports the least paths that a scan of the breadth-first f monoid would.
`savitch` builds its own f and d level sets and scans them for every
pattern, so it is the independent oracle for all three verdicts.  The
reachability monoid is a monoid image of d, so it is never larger than d,
and `monoidSize` is the size of d.

The region-split automaton builds the edge orbits of every kind once, from
one delay interval per edge and vertex pair, and keeps them: every check
and both modes build their monoids from that table, whether `classify` or
the caller runs them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .orbits import (FAST, INSTANT, SLOW, WIDE, Matrix, OrbitElement,
                     _row_times, _tarjan, matrix_product, orbit_one)
from .splitting import DEFAULT_CAP, RegionSplitAutomaton, as_region_split
from .ta import TAError, TimedAutomaton


class SaturationCapExceeded(TAError):
    def __init__(self, cap: int, partial, what: str = "orbit saturation",
                 unit: str = "elements"):
        super().__init__(f"{what} exceeded the cap of {cap} {unit}")
        self.cap = cap
        self.partial = partial


def saturate(a: RegionSplitAutomaton, kind: str, cap: int = DEFAULT_CAP
             ) -> dict[OrbitElement, tuple[str, ...]]:
    """All orbits of paths, each mapped to a shortest witness edge sequence.

    Breadth-first closure over right-extension by single edges; insertion
    order is by witness length, so stored witnesses are minimal.  The unit
    extends by every edge, any other element by the out-edges of its target
    location, both in `a.edges` order.  When the monoid has more than `cap`
    elements, `SaturationCapExceeded.partial` holds its first `cap + 1`.

    The search runs on interned matrices (`_saturate_ids`) and builds each
    element once, after the search: the index and the product memo are
    freed before the result is filled.
    """
    locations, matrices, keys, witnesses = _saturate_ids(a, kind, cap)
    reach: dict[OrbitElement, tuple[str, ...]] = {orbit_one(kind): ()}
    # popped in insertion order, each key is freed as its element is built,
    # so the ids and the result never peak together
    keys.reverse()
    witnesses.reverse()
    while keys:
        reach[_element(kind, locations, matrices, keys.pop())] = witnesses.pop()
    if len(reach) > cap:
        raise SaturationCapExceeded(cap, reach)
    return reach


def _intern_edges(a: RegionSplitAutomaton, kind: str):
    """The location ids, the matrix ids and the (name, src, matrix, dst) ids
    of the nonzero edge orbits of the kind, interned in `a.edges` order.  An
    element other than the unit is the int `(matrix * n + src) * n + dst`,
    for n locations."""
    loc_ids: dict[str, int] = {}
    mat_ids: dict[Matrix, int] = {}
    edges = []
    for name, eo in a.edge_orbits[kind].items():
        if not eo.is_zero:
            edges.append((name, loc_ids.setdefault(eo.src, len(loc_ids)),
                          mat_ids.setdefault(eo.matrix, len(mat_ids)),
                          loc_ids.setdefault(eo.dst, len(loc_ids))))
    return loc_ids, mat_ids, edges


def _element(kind: str, locations: list[str], matrices: list[Matrix],
             key: int) -> OrbitElement:
    rest, dst = divmod(key, len(locations))
    mat, src = divmod(rest, len(locations))
    return OrbitElement(kind, "elem", locations[src], matrices[mat],
                        locations[dst])


def _saturate_ids(a: RegionSplitAutomaton, kind: str, cap: int):
    """The breadth-first search of `saturate` on interned ids.

    The edge matrices are interned first, so an edge matrix id is below `k`.
    A product of a matrix with an edge matrix is computed once per call,
    memoised on `left * k + edge` (-1 when it is zero), with one row memo
    per edge matrix.  Returns the location names, the matrices by id, and
    the elements other than the unit with their witnesses in insertion
    order, stopping at `cap` of them.
    """
    loc_ids, mat_ids, edges = _intern_edges(a, kind)
    n, k = len(loc_ids), len(mat_ids)
    matrices = list(mat_ids)
    out_edges: list[list[tuple[str, int, int]]] = [[] for _ in range(n)]
    for name, src, edge, dst in edges:
        out_edges[src].append((name, edge, dst))
    row_memos: list[dict] = [{} for _ in range(k)]
    products: dict[int, int] = {}
    # a dict used as a set: at 10^4 keys its table is a quarter of a set's
    seen: dict[int, None] = {}
    keys: list[int] = []
    witnesses: list[tuple[str, ...]] = []
    for name, src, edge, dst in edges:
        key = (edge * n + src) * n + dst
        if key not in seen:
            seen[key] = None
            keys.append(key)
            witnesses.append((name,))
            if len(keys) >= cap:
                break
    i = 0
    while i < len(keys) < cap:
        rest, here = divmod(keys[i], n)
        left, src = divmod(rest, n)
        wit = witnesses[i]
        i += 1
        for name, edge, dst in out_edges[here]:
            pk = left * k + edge
            prod = products.get(pk)
            if prod is None:
                m = matrix_product(kind, matrices[left], matrices[edge],
                                   row_memos[edge])
                prod = -1 if m is None else mat_ids.setdefault(m, len(mat_ids))
                if prod == len(matrices):
                    matrices.append(m)
                products[pk] = prod
            if prod < 0:
                continue
            key = (prod * n + src) * n + dst
            if key in seen:
                continue
            seen[key] = None
            keys.append(key)
            witnesses.append(wit + (name,))
            if len(keys) >= cap:
                break
    return list(loc_ids), matrices, keys, witnesses


def _level_sets(a: RegionSplitAutomaton, kind: str, h: int,
                cap: int = DEFAULT_CAP) -> set[OrbitElement]:
    """Orbits of paths of length <= 2**h, by repeated squaring of the level set.

    This is the memoized form of the recursive column-doubling search: a path
    of length <= 2**h splits into two halves of length <= 2**(h-1), with the
    unit padding shorter paths.

    The rounds are semi-naive: a round composes each element new in the
    previous round, on the left, with every element of the level.  That
    leaves out the pairs of two older elements, whose products are already
    in the level, and the pairs of an older a and a new b: b is some b1·b2
    of the round before, so a·b is (a·b1)·b2, where a·b1 is new (and
    composed on the left) or older (and a·b an older pair's product).  The
    unit's products are its other factor, and a matrix element is composed
    only with the elements whose source is its target, the only products
    that can be nonzero.  The cap is checked as in plain squaring: a round
    raises when its level exceeds the cap, and h = 0 runs no round.

    The search runs on interned ids (`_level_set_ids`) and builds the
    elements after it, once its row memos are freed.
    """
    locations, matrices, keys = _level_set_ids(a, kind, h, cap)
    level = {orbit_one(kind)}
    level.update(_element(kind, locations, matrices, key) for key in keys)
    if h and len(level) > cap:
        raise SaturationCapExceeded(cap, level)
    return level


def _level_set_ids(a: RegionSplitAutomaton, kind: str, h: int, cap: int):
    """The semi-naive rounds of `_level_sets` on interned ids, with one row
    memo per right-factor matrix.  Returns the location names, the matrices
    by id and the level without the unit, stopping as soon as the level with
    the unit exceeds `cap`."""
    loc_ids, mat_ids, edges = _intern_edges(a, kind)
    n = len(loc_ids)
    matrices = list(mat_ids)
    row_memos: list[dict] = [{} for _ in matrices]
    # the elements new in the round before, as (src, matrix, dst) ids
    new = list(dict.fromkeys(edge[1:] for edge in edges))
    level = dict.fromkeys((mat * n + src) * n + dst for src, mat, dst in new)
    # the elements of the level by source, as (matrix, dst) ids
    by_src: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for _ in range(h):
        if len(level) >= cap:
            break
        for src, mat, dst in new:
            by_src[src].append((mat, dst))
        fresh = []
        for src, left, here in new:
            for right, dst in by_src[here]:
                m = matrix_product(kind, matrices[left], matrices[right],
                                   row_memos[right])
                if m is None:
                    continue
                prod = mat_ids.setdefault(m, len(mat_ids))
                if prod == len(matrices):
                    matrices.append(m)
                    row_memos.append({})
                c = (prod * n + src) * n + dst
                if c not in level:
                    level[c] = None
                    fresh.append((src, prod, dst))
                    if len(level) >= cap:
                        return list(loc_ids), matrices, level
        if not fresh:
            break
        new = fresh
    return list(loc_ids), matrices, level


@dataclass(frozen=True)
class PatternWitness:
    cycle: tuple[str, ...]           # edge names in the region-split automaton
    position: tuple[int, int]        # vertex indices (row, column)
    kind: str

    def to_json(self) -> dict:
        return {"cycle": list(self.cycle), "position": list(self.position),
                "kind": self.kind}


@dataclass(frozen=True)
class MeagerReport:
    meager: bool
    witness: Optional[PatternWitness] = None      # wide diagonal when not meager


@dataclass(frozen=True)
class ObeseReport:
    obese: bool
    obesity_type: Optional[str] = None            # "I" or "II"
    witnesses: tuple[PatternWitness, ...] = ()


@dataclass(frozen=True)
class ThickReport:
    thick: bool
    witness: Optional[PatternWitness] = None      # complete cyclic reach orbit


def _reach(a: RegionSplitAutomaton, kind: str, cap: int, mode: str
           ) -> dict[OrbitElement, Optional[tuple[str, ...]]]:
    """Every path orbit of the kind, mapped to a shortest witness (`bfs`) or to
    None (`savitch`)."""
    _check_mode(mode)
    if mode == "bfs":
        return saturate(a, kind, cap)
    return dict.fromkeys(_level_sets(a, kind, cap, cap))


def _check_mode(mode: str) -> None:
    if mode not in ("bfs", "savitch"):
        raise ValueError(f"unknown mode {mode!r}; expected 'bfs' or 'savitch'")


def _witnesses(*found: tuple) -> tuple[PatternWitness, ...]:
    """A PatternWitness per (cycle, position, kind) whose cycle is known;
    savitch mode knows none."""
    return tuple(PatternWitness(*f) for f in found if f[0] is not None)


def is_structurally_meager(a: RegionSplitAutomaton, mode: str = "bfs",
                           reach=None) -> MeagerReport:
    """No cyclic freedom orbit may carry wide on its diagonal.

    Given a freedom monoid `reach`, or in `savitch` mode, its cyclic elements
    are scanned.  Otherwise the verdict is read off graphs, and the witness
    comes from the row search, as in `classify`."""
    if reach is None and mode == "bfs":
        return _meager_on_graphs(a, _wide_vertices(a), DEFAULT_CAP)
    if reach is None:
        reach = _reach(a, "f", DEFAULT_CAP, mode)
    for elem, wit in reach.items():
        if elem.cyclic:
            for i, v in enumerate(elem.diagonal()):
                if v == WIDE:
                    return MeagerReport(False, *_witnesses((wit, (i, i), "f")))
    return MeagerReport(True, None)


def _meager_on_graphs(a: RegionSplitAutomaton, wide: set[tuple[str, int]],
                      cap: int) -> MeagerReport:
    """Meager iff no vertex is wide; the witness is the least wide cycle."""
    if not wide:
        return MeagerReport(True, None)
    cycle, i = _least_wide_cycle(a, wide, cap)
    return MeagerReport(False, PatternWitness(cycle, (i, i), "f"))


def _wide_vertices(a: RegionSplitAutomaton) -> set[tuple[str, int]]:
    """The (location q, vertex i) pairs such that some cycle at q has a wide
    (i, i) entry in its freedom orbit, decided without a monoid.

    The vertex graph has the (location, vertex) pairs as nodes and the
    nonzero entries of the edges' f orbits as steps.  Entry (i, i) of a
    cycle's f orbit is wide iff a closed walk from (q, i) along the cycle
    takes a wide step, or two distinct walks from (q, i) back to it follow
    the cycle (Weber & Seidl's ambiguity criterion).  Some cycle has the
    first iff (q, i) shares an SCC with a wide step, and the second iff
    (q, i, i) shares an SCC of the pair graph, whose nodes are two vertices
    on one location and whose steps move both along one edge, with an
    off-diagonal pair."""
    edges = [e for e in a.edge_orbits["f"].values() if not e.is_zero]
    size = {}
    for e in edges:
        size[e.src], size[e.dst] = len(e.matrix), len(e.matrix[0])
    steps = {(q, i): [] for q in size for i in range(size[q])}
    wide_steps = []
    for e in edges:
        for i, row in enumerate(e.matrix):
            for j, val in enumerate(row):
                if val:
                    steps[e.src, i].append((e.dst, j))
                    if val == WIDE:
                        wide_steps.append(((e.src, i), (e.dst, j)))
    wide: set[tuple[str, int]] = set()
    scc_of = {v: comp for comp in _tarjan(steps) for v in comp}
    for u, v in wide_steps:
        if scc_of[u] is scc_of[v]:
            wide |= scc_of[u]
    # a cycle of the pair graph moves each vertex within its SCC, so only
    # such steps are kept, and it leaves the diagonal only where a vertex
    # has two such steps along one edge; every node a step reaches is a key
    sccs_at = {q: {id(scc_of[q, i]) for i in range(size[q])} for q in size}
    inner = [(e, [[k for k, x in enumerate(row)
                   if x and scc_of[e.dst, k] is scc_of[e.src, i]]
                  for i, row in enumerate(e.matrix)])
             for e in edges if sccs_at[e.src] & sccs_at[e.dst]]
    if all(len(ks) < 2 for _, rows in inner for ks in rows):
        return wide
    pair_steps: dict[tuple[str, int, int], list] = {}
    for e, rows in inner:
        for i, ks in enumerate(rows):
            for j, ls in enumerate(rows):
                if ks and ls:
                    pair_steps.setdefault((e.src, i, j), []).extend(
                        (e.dst, k, l) for k in ks for l in ls)
    for targets in list(pair_steps.values()):
        for node in targets:
            pair_steps.setdefault(node, [])
    for comp in _tarjan(pair_steps):
        if any(i != j for _, i, j in comp):
            wide.update((q, i) for q, i, j in comp if i == j)
    return wide


def _least_wide_cycle(a: RegionSplitAutomaton, starts: set[tuple[str, int]],
                      cap: int, max_len: Optional[int] = None
                      ) -> Optional[tuple[tuple[str, ...], int]]:
    """The least path, by length and then by edge order, that leaves a
    location s, comes back to s and has a wide (i, i) entry in its f orbit
    for some (s, i) in `starts`, with the least such i; None when there is
    none of at most `max_len` edges.

    A breadth-first saturation of f reports this path, because its witness
    for each element is the least path with that element.  The search runs
    over states (s, i, q, row i of the path's f orbit), one level per path
    length, and keeps each level grouped by path: the groups in path order,
    and in each group the states in order of i.  A group extends by the
    out-edges of its location in `a.edges` order, so the states are made in
    order of (path, i), and the first state that is made with q == s and a
    wide entry i is the answer.  A state made before is dropped: its earlier
    path is lesser and has the same extensions.  Each new state counts
    against `cap`.
    """
    loc_ids, mat_ids, edges = _intern_edges(a, "f")
    matrices, k = list(mat_ids), len(mat_ids)
    out_edges: list[list[tuple[str, int, int]]] = [[] for _ in loc_ids]
    for name, src, mat, dst in edges:
        out_edges[src].append((name, mat, dst))
    rows: list[tuple[int, ...]] = []
    row_ids: dict[tuple[int, ...], int] = {}
    unit_rows: dict[int, list[tuple[int, int]]] = {}
    for q, i in sorted(starts):
        unit = tuple(int(j == i) for j in range(len(a.location_vertices(q))))
        rid = row_ids.setdefault(unit, len(row_ids))
        if rid == len(rows):
            rows.append(unit)
        unit_rows.setdefault(loc_ids[q], []).append((i, rid))
    # a group is (path, s, steps, [(i, row id)]) and extends by its steps;
    # before the first level, the empty path at s is one group per out-edge
    # of s, in edge order, so that the paths of one edge are in order
    level = [((), src, [(name, mat, dst)], unit_rows[src])
             for name, src, mat, dst in edges if src in unit_rows]
    products: dict[int, int] = {}
    seen: dict[tuple[int, int, int, int], None] = {}
    length = 0
    while level and (max_len is None or length < max_len):
        length += 1
        nxt = []
        for path, s, steps, group in level:
            for name, mat, dst in steps:
                child = []
                for i, rid in group:
                    prod = products.get(rid * k + mat)
                    if prod is None:
                        row = _row_times("f", rows[rid], matrices[mat])
                        prod = row_ids.setdefault(row, len(row_ids)) if any(row) else -1
                        if prod == len(rows):
                            rows.append(row)
                        products[rid * k + mat] = prod
                    if prod < 0:
                        continue
                    state = (s, i, dst, prod)
                    if state in seen:
                        continue
                    seen[state] = None
                    if len(seen) > cap:
                        names = list(loc_ids)
                        raise SaturationCapExceeded(
                            cap, [(names[src], j, names[here], rows[r])
                                  for src, j, here, r in seen],
                            "f row search", "states")
                    if dst == s and rows[prod][i] == WIDE:
                        return path + (name,), i
                    child.append((i, prod))
                if child:
                    nxt.append((path + (name,), s, out_edges[dst], child))
        level = nxt
    return None


def is_structurally_obese(a: RegionSplitAutomaton, mode: str = "bfs",
                          reach_d=None, reach_p=None) -> ObeseReport:
    """Fast diagonal (type I), or an instant/instant pair with a slow edge
    between them whose return is realizable on the same region (type II).

    The return is read off the support of the duration orbits, which is the
    reachability orbit, so `reach_p` is ignored; it is kept only for callers
    that still pass it."""
    if reach_d is None:
        reach_d = _reach(a, "d", DEFAULT_CAP, mode)
    for elem, wit in reach_d.items():
        if elem.cyclic:
            for i, val in enumerate(elem.diagonal()):
                if val == FAST:
                    return ObeseReport(True, "I", _witnesses((wit, (i, i), "d")))
    for elem, wit in reach_d.items():
        if not elem.cyclic:
            continue
        for (u, v) in _type2_positions(elem):
            for other, wit2 in reach_d.items():
                if other.cyclic and other.src == elem.src and other.entry(v, u) != 0:
                    return ObeseReport(True, "II", _witnesses(
                        (wit, (u, v), "d"), (wit2, (v, u), "p")))
    return ObeseReport(False)


def _type2_positions(elem: OrbitElement) -> list[tuple[int, int]]:
    diag = elem.diagonal()
    out = []
    for u, du in enumerate(diag):
        if du != INSTANT:
            continue
        for v, dv in enumerate(diag):
            if v != u and dv == INSTANT and elem.entry(u, v) == SLOW:
                out.append((u, v))
    return out


def is_thick(a: RegionSplitAutomaton, reach=None) -> ThickReport:
    """Thick iff some cycle's reachability orbit is the complete graph.

    A cyclic orbit with no zero entry is complete.  On a single vertex it
    only counts when the cycle admits several runs (the freedom entry is
    wide); with two or more vertices completeness already forces wide
    self-loops in the squared cycle.  Given a freedom monoid `reach`, its
    cyclic elements are scanned.  Otherwise the support of `reach`, which
    must be a breadth-first p or d monoid with its witnesses, or of the
    duration monoid decides two or more vertices, and the row search decides
    one vertex.
    """
    if reach is not None and next(iter(reach)).kind == "f":
        for elem, wit in reach.items():
            if (elem.cyclic and all(v != 0 for row in elem.matrix for v in row)
                    and (len(elem.matrix) > 1 or elem.entry(0, 0) == WIDE)):
                return ThickReport(True, *_witnesses((wit, (0, 0), "p")))
        return ThickReport(False, None)
    if reach is None:
        reach = saturate(a, "d")
    return _thick_on_support(a, reach, _wide_vertices(a), DEFAULT_CAP)


def _thick_on_support(a: RegionSplitAutomaton, reach,
                      wide: set[tuple[str, int]], cap: int) -> ThickReport:
    """Thickness from the first complete cyclic element of `reach` on two or
    more vertices and the least wide cycle at a single-vertex location, no
    longer than that element's witness; the witness is the lesser cycle, by
    length and then by edge order."""
    complete = next((elem for elem in reach
                     if elem.cyclic and len(elem.matrix) > 1
                     and all(v != 0 for row in elem.matrix for v in row)), None)
    cycle = None if complete is None else reach[complete]
    single = {(q, i) for q, i in wide if len(a.location_vertices(q)) == 1}
    if single:
        hit = _least_wide_cycle(a, single, cap, None if cycle is None else len(cycle))
        order = {e.name: k for k, e in enumerate(a.edges)}
        if hit and (cycle is None or (len(hit[0]), [order[n] for n in hit[0]])
                    < (len(cycle), [order[n] for n in cycle])):
            cycle = hit[0]
    if cycle is None:
        return ThickReport(False, None)
    return ThickReport(True, PatternWitness(cycle, (0, 0), "p"))


def guards_bounded_nonpunctual(a: TimedAutomaton) -> bool:
    """Every guard caps some clock from above and pins none to a point (an
    upper bound `<= 0` pins its clock to 0); the thin/thick comparison is
    only claimed under these hypotheses."""
    return all(any(hi is not None for _, _, hi, _ in e.guard.windows.values())
               and not any(lo == hi and not (los or his)
                           for lo, los, hi, his in e.guard.windows.values())
               for e in a.edges)


# -- the classification driver ------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    classification: str                      # "meager" | "normal" | "obese"
    obesity_type: Optional[str]              # "I" | "II" | None
    fatness: str                             # "thin" | "thick"
    fatness_applicable: bool
    witnesses: tuple[PatternWitness, ...]
    stats: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return {"meager": 0, "normal": 1, "obese": 2}[self.classification]

    def to_json(self) -> dict:
        return {
            "class": self.classification,
            "obesityType": self.obesity_type,
            "fatness": self.fatness,
            "fatnessApplicable": self.fatness_applicable,
            "witnesses": [w.to_json() for w in self.witnesses],
            "stats": dict(self.stats),
        }


class ClassificationError(TAError):
    pass


def classify(a: TimedAutomaton, cap: int = DEFAULT_CAP, mode: str = "bfs") -> Verdict:
    """Region-split, run both structural checks, attach the fatness verdict.
    `cap` bounds region splitting as well as each orbit monoid and the row
    search."""
    t0 = time.monotonic()
    rsta = as_region_split(a, cap)
    _check_mode(mode)
    if not rsta.locations:
        # empty language: no cycles at all
        return Verdict("meager", None, "thin", guards_bounded_nonpunctual(a), (), {
            "locations": 0, "regions": 0,
            "monoidSize": 0 if mode == "bfs" else None, "witnessMaxLen": 0,
            "wallTimeMs": int((time.monotonic() - t0) * 1000)})
    reach_d = _reach(rsta, "d", cap, mode)
    if mode == "bfs":
        wide = _wide_vertices(rsta)
        meager = _meager_on_graphs(rsta, wide, cap)
        thick = _thick_on_support(rsta, reach_d, wide, cap)
    else:
        reach_f = _reach(rsta, "f", cap, mode)
        meager = is_structurally_meager(rsta, reach=reach_f)
        thick = is_thick(rsta, reach=reach_f)
    obese = is_structurally_obese(rsta, reach_d=reach_d)
    if meager.meager and obese.obese:
        raise ClassificationError(
            "structural meagerness and obesity both hold; this cannot happen")
    witnesses: list[PatternWitness] = []
    if meager.witness:
        witnesses.append(meager.witness)
    witnesses.extend(obese.witnesses)
    if thick.witness:
        witnesses.append(thick.witness)
    if meager.meager:
        cls = "meager"
    elif obese.obese:
        cls = "obese"
    else:
        cls = "normal"
    stats = {
        "locations": len(rsta.locations),
        "regions": len(set(rsta.regions.values())),
        "monoidSize": len(reach_d) if mode == "bfs" else None,
        "witnessMaxLen": max((len(w.cycle) for w in witnesses), default=0),
        "wallTimeMs": int((time.monotonic() - t0) * 1000),
    }
    return Verdict(cls, obese.obesity_type if obese.obese else None,
                   "thick" if thick.thick else "thin",
                   guards_bounded_nonpunctual(a), tuple(witnesses), stats)
