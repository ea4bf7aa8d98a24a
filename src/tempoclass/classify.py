"""Reachable-orbit saturation and the three-way bandwidth classification.

An automaton is meager when no cyclic freedom orbit carries a wide diagonal
entry, obese when some cyclic duration orbit carries a fast diagonal entry
(type I) or an instant/instant/slow triangle whose return edge is realizable
by another cycle on the same region (type II), and normal otherwise.  Each
pattern is scanned once, over a map from orbit element to witness.  Two modes
build that map: `bfs` saturates the orbit monoid breadth-first and keeps a
shortest witness per element; `savitch` squares level sets as in the log-space
reachability recursion, in semi-naive rounds that compose only the elements
new in the previous round with the level, and keeps no witnesses.  It is the
independent oracle: the same pattern predicates, the same verdicts, no
witnesses.  Both searches run on interned locations and matrices, and
multiply matrices with `matrix_product`, with one row memo per right-factor
matrix that lives for one call.

Only the freedom (f) and duration (d) monoids are built.  No semiring here
has zero divisors, so a path's reachability orbit is the support of its f
orbit and of its d orbit: the type-II return check reads reachability off d,
and thickness reads completeness off f.  The reachability monoid is a monoid
image of f, so it is never larger than f and `monoidSize` needs it neither.

The region-split automaton builds the edge orbits of every kind once, from
one language class per edge and vertex pair, and keeps them: every check
and both modes build their monoids from that table, whether `classify` or
the caller runs them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

from .orbits import (FAST, INSTANT, SLOW, WIDE, Matrix, OrbitElement,
                     matrix_product, orbit_one)
from .splitting import (DEFAULT_CAP, RegionSplitAutomaton, check_exact_edges,
                        region_split)
from .ta import TAError, TimedAutomaton


def saturation_cap(flag_value: Optional[int] = None) -> int:
    env = os.environ.get("TEMPOCLASS_CAP")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise TAError(f"TEMPOCLASS_CAP must be an integer, got {env!r}")
    else:
        cap = DEFAULT_CAP if flag_value is None else flag_value
    if cap < 1:
        raise TAError(f"cap must be a positive integer, got {cap}")
    return cap


class SaturationCapExceeded(TAError):
    def __init__(self, cap: int, partial):
        super().__init__(f"orbit saturation exceeded the cap of {cap} elements")
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
    if mode == "bfs":
        return saturate(a, kind, cap)
    if mode == "savitch":
        return dict.fromkeys(_level_sets(a, kind, _doubling_depth(cap), cap))
    raise ValueError(f"unknown mode {mode!r}; expected 'bfs' or 'savitch'")


def _witnesses(*found: tuple) -> tuple[PatternWitness, ...]:
    """A PatternWitness per (cycle, position, kind) whose cycle is known;
    savitch mode knows none."""
    return tuple(PatternWitness(*f) for f in found if f[0] is not None)


def is_structurally_meager(a: RegionSplitAutomaton, mode: str = "bfs",
                           reach=None) -> MeagerReport:
    """No cyclic freedom orbit may carry wide on its diagonal."""
    if reach is None:
        reach = _reach(a, "f", DEFAULT_CAP, mode)
    for elem, wit in reach.items():
        if elem.cyclic:
            for i, v in enumerate(elem.diagonal()):
                if v == WIDE:
                    return MeagerReport(False, *_witnesses((wit, (i, i), "f")))
    return MeagerReport(True, None)


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


def _doubling_depth(cap: int) -> int:
    h = 0
    while (1 << h) < cap:
        h += 1
    return min(h, 32)


def is_thick(a: RegionSplitAutomaton, reach=None) -> ThickReport:
    """Thick iff some cycle's reachability orbit is the complete graph.

    `reach` is the freedom monoid, whose support is the reachability orbit,
    so a cyclic element with no zero entry is complete.  On a single vertex
    it only counts when the cycle admits several runs (the entry is wide);
    with two or more vertices completeness already forces wide self-loops in
    the squared cycle.  A monoid of another kind is replaced by the
    breadth-first freedom monoid.
    """
    if reach is None or next(iter(reach)).kind != "f":
        reach = saturate(a, "f")
    for elem, wit in reach.items():
        if (elem.cyclic and all(v != 0 for row in elem.matrix for v in row)
                and (len(elem.matrix) > 1 or elem.entry(0, 0) == WIDE)):
            return ThickReport(True, *_witnesses((wit, (0, 0), "p")))
    return ThickReport(False, None)


def guards_bounded_nonpunctual(a: TimedAutomaton) -> bool:
    """Every guard caps some clock from above and pins none to a point; the
    thin/thick comparison is only claimed under these hypotheses."""
    for e in a.edges:
        uppers = [x for x in e.guard.atoms if x.relation in ("<", "<=")]
        if not uppers:
            return False
        by_clock: dict[str, list] = {}
        for atom in e.guard.atoms:
            by_clock.setdefault(atom.clock, []).append(atom)
        for atoms in by_clock.values():
            los = [x.bound for x in atoms if x.relation == ">="]
            his = [x.bound for x in atoms if x.relation == "<="]
            if los and his and max(los) == min(his):
                return False
    return True


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
    `cap` bounds region splitting as well as each orbit monoid."""
    t0 = time.monotonic()
    if isinstance(a, RegionSplitAutomaton):
        check_exact_edges(a)
        rsta = a
    else:
        rsta = region_split(a, cap)
    reaches = {k: _reach(rsta, k, cap, mode) for k in ("f", "d")}
    if not rsta.locations:
        # empty language: no cycles at all
        return Verdict("meager", None, "thin", guards_bounded_nonpunctual(a), (), {
            "locations": 0, "regions": 0, "monoidSize": 0, "witnessMaxLen": 0,
            "wallTimeMs": int((time.monotonic() - t0) * 1000)})
    meager = is_structurally_meager(rsta, reach=reaches["f"])
    obese = is_structurally_obese(rsta, reach_d=reaches["d"])
    if meager.meager and obese.obese:
        raise ClassificationError(
            "structural meagerness and obesity both hold; this cannot happen")
    thick = is_thick(rsta, reach=reaches["f"])
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
        "monoidSize": max(map(len, reaches.values())) if mode == "bfs" else None,
        "witnessMaxLen": max((len(w.cycle) for w in witnesses), default=0),
        "wallTimeMs": int((time.monotonic() - t0) * 1000),
    }
    return Verdict(cls, obese.obesity_type if obese.obese else None,
                   "thick" if thick.thick else "thin",
                   guards_bounded_nonpunctual(a), tuple(witnesses), stats)
