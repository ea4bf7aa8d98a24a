"""Region-split form: every location carries one bounded region as its
starting constraint and every edge is exact between regions.

The construction folds two steps into one forward exploration: locations are
annotated with the set of clocks that ran above the max constant (such clocks
are force-reset on entry and guards read them as above it), and split by the
region their entry vectors inhabit.  Edge guards are refined to pin the exact
region in which the original guard is crossed, which keeps the result
deterministic and makes every edge's successor relation exact.  A guard is
decided on a region from its windows (`_guard_on`), not from its atoms.
A file's `starting` lines arrive as the atoms the parser read, which
`_parse_region_expr` sorts into a region.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from .orbits import EdgeOrbitTable, _tarjan, _topological_order, edge_orbit_table
from .regions import Region, region_of, time_successor_chain
from .ta import (TAError, TimedAutomaton, Edge, Guard, ClockConstraint,
                 ClockVector, _LineParser, check_deterministic)


@dataclass
class RegionSplitAutomaton(TimedAutomaton):
    regions: dict[str, Region] = field(default_factory=dict)

    @cached_property
    def edge_orbits(self) -> EdgeOrbitTable:
        """Orbit of every edge in every kind by edge name, in `edges` order;
        built on first use and kept in the instance dict, outside the fields."""
        return edge_orbit_table(self)

    def starting_ok(self, loc: str, clocks: ClockVector, closed: bool = False) -> bool:
        r = self.regions[loc]
        if closed:
            return r.closure_contains(clocks)
        return r.contains(clocks)

    def location_vertices(self, loc: str):
        try:
            return self.regions[loc].vertices()
        except ValueError:
            raise TAError(f"location {loc!r} starts in a region with a clock above "
                          "the bound; orbits need bounded regions") from None


def region_pins(clocks: tuple[str, ...], region: Region) -> Guard:
    """Rectangular constraints selecting `region` within any delay cone."""
    atoms: list[ClockConstraint] = []
    zero = region.zero_fraction
    for idx, name in enumerate(clocks):
        ip = region.int_part[idx]
        if ip is None:
            atoms.append(ClockConstraint(name, ">", region.bound))
        elif idx in zero:
            atoms.append(ClockConstraint(name, ">=", ip))
            atoms.append(ClockConstraint(name, "<=", ip))
        else:
            atoms.append(ClockConstraint(name, ">", ip))
            atoms.append(ClockConstraint(name, "<", ip + 1))
    return Guard(tuple(atoms))


def _guard_on(region: Region, guard: Guard, index, large: frozenset[str]) -> bool:
    """Whether `guard` holds throughout `region`, from each window and the
    clock's integer part i and zero-fraction flag.  Bounds are at most the
    region's bound, so a clock above it (or in `large`: above it before a
    forced reset) meets a window iff it has no upper bound.  Fraction 0 is
    the point i; a positive one lies in (i, i+1), inside iff lo <= i < hi."""
    zero = region.zero_fraction
    for c, (lo, lo_strict, hi, hi_strict) in guard.windows.items():
        i = index(c)
        ip = None if c in large else region.int_part[i]
        if ip is None:
            ok = hi is None
        elif i in zero:
            ok = ((lo < ip or lo == ip and not lo_strict)
                  and (hi is None or ip < hi or ip == hi and not hi_strict))
        else:
            ok = lo <= ip and (hi is None or ip < hi)
        if not ok:
            return False
    return True


_Key = tuple[str, frozenset[str], Region]

DEFAULT_CAP = 10 ** 6


class RegionSplitCapExceeded(TAError):
    def __init__(self, cap: int, detail: str):
        super().__init__(f"region splitting exceeded the cap of {cap}: {detail}")
        self.cap = cap


def _empty_split(a: TimedAutomaton) -> RegionSplitAutomaton:
    """The region split of an automaton whose language is empty."""
    return RegionSplitAutomaton(a.name + "_rs", a.clocks, a.alphabet, (), (), {}, {})


def region_split(a: TimedAutomaton, cap: int = DEFAULT_CAP) -> RegionSplitAutomaton:
    """Language-preserving region-split form of a deterministic automaton.

    `cap` bounds the length of any time-successor chain, the number of
    regions in all the chains built, and the number of region-split
    locations; `RegionSplitCapExceeded` is raised once any of them passes it
    (a chain that would be too long is never built).
    """
    if not a.locations:
        return _empty_split(a)  # what `regionize` writes for it
    report = check_deterministic(a)
    if not report.deterministic:
        raise TAError("region_split requires a deterministic automaton")
    if len(a.initial) != 1:
        raise TAError("unsatisfiable or missing initial constraint")
    bound = a.max_constant
    (q0, x0), = a.initial.items()
    if any(v > bound for v in x0):
        raise TAError("initial clock values above the max constant are not supported")
    if not a.starting_ok(q0, x0):
        raise TAError("initial vector violates the starting constraint")

    # each delay step moves some bounded clock one stage (integer or open
    # interval) closer to leaving [0, M], and each clock has 2(M+1) stages
    chain_bound = 2 * len(a.clocks) * (bound + 1) + 1
    if chain_bound > cap:
        raise RegionSplitCapExceeded(
            cap, f"a time-successor chain may hold up to {chain_bound} regions")

    start_key: _Key = (q0, frozenset(), region_of(x0, bound))

    def is_accepting(key: _Key) -> bool:
        base, large, region = key
        g = a.accepting.get(base)
        return g is not None and _guard_on(region, g, a.clock_index, large)

    # forward exploration
    succ: dict[_Key, list[tuple[Edge, Region, frozenset[str], _Key]]] = {}
    order: list[_Key] = [start_key]
    queue = deque([start_key])
    seen = {start_key}
    built = 0  # regions in the time-successor chains built so far
    while queue:
        key = queue.popleft()
        base, large, region = key
        out = []
        chain = time_successor_chain(region)
        built += len(chain)
        if built > cap:
            raise RegionSplitCapExceeded(
                cap, "more regions in time-successor chains than the cap")
        for e in a.edges_from(base):
            resets = frozenset(e.resets)
            for fired in chain:
                if not _guard_on(fired, e.guard, a.clock_index, large):
                    continue
                newly = frozenset(
                    c for i, c in enumerate(a.clocks)
                    if fired.int_part[i] is None and c not in large and c not in resets)
                large2 = (large - resets) | newly
                resets2 = resets | large2
                target_region = fired.reset(a.clock_index(c) for c in resets2)
                key2 = (e.dst, large2, target_region)
                out.append((e, fired, resets2, key2))
                if key2 not in seen:
                    if len(seen) >= cap:
                        raise RegionSplitCapExceeded(
                            cap, "more region-split locations than the cap")
                    seen.add(key2)
                    order.append(key2)
                    queue.append(key2)
        succ[key] = out

    # co-reachability pruning on the finite location graph
    rev: dict[_Key, set[_Key]] = {k: set() for k in seen}
    for key, outs in succ.items():
        for _, _, _, key2 in outs:
            rev[key2].add(key)
    live = {k for k in seen if is_accepting(k)}
    stack = list(live)
    while stack:
        k = stack.pop()
        for p in rev[k]:
            if p not in live:
                live.add(p)
                stack.append(p)

    if start_key not in live:
        return _empty_split(a)

    kept_keys = [k for k in order if k in live]
    names: dict[_Key, str] = {}
    per_base: dict[str, int] = {}
    for key in kept_keys:
        i = per_base.get(key[0], 0)
        per_base[key[0]] = i + 1
        names[key] = f"{key[0]}_{i}"

    edges: list[Edge] = []
    per_edge: dict[str, int] = {}
    for key in kept_keys:
        for e, fired, resets2, key2 in succ[key]:
            if key2 not in live:
                continue
            k = per_edge.get(e.name, 0)
            per_edge[e.name] = k + 1
            edges.append(Edge(f"{e.name}.{k}", names[key], names[key2], e.label,
                              region_pins(a.clocks, fired), resets2))

    return RegionSplitAutomaton(
        a.name + "_rs", a.clocks, a.alphabet,
        tuple(names[k] for k in kept_keys), tuple(edges),
        {names[start_key]: x0},
        {names[k]: Guard() for k in kept_keys if is_accepting(k)},
        regions={names[k]: k[2] for k in kept_keys})


def check_exact_edges(a: RegionSplitAutomaton) -> None:
    """Raise `TAError` naming the first edge that is not exact: an edge must
    fire from exactly one region of its source region's time-successor chain,
    and that region with the edge's resets applied must be the target's
    region.  The edges' end locations are read for vertices first, so a
    region with a clock above the bound is reported as such."""
    for e in a.edges:
        a.location_vertices(e.src)
        a.location_vertices(e.dst)
    for e in a.edges:
        fired = [r for r in time_successor_chain(a.regions[e.src])
                 if _guard_on(r, e.guard, a.clock_index, frozenset())]
        if len(fired) != 1:
            raise TAError(f"edge {e.name} is not exact: it fires from {len(fired)} "
                          "regions of its source region's time-successor chain")
        if fired[0].reset(a.clock_index(c) for c in e.resets) != a.regions[e.dst]:
            raise TAError(f"edge {e.name} is not exact: its firing region with its "
                          "resets applied is not its target's region")


def as_region_split(a: TimedAutomaton, cap: int = DEFAULT_CAP) -> RegionSplitAutomaton:
    """The region-split form of `a`: a parsed split (a file with `starting`
    lines) is returned once `check_exact_edges` accepts it, any other
    automaton is split with `region_split(a, cap)`."""
    if isinstance(a, RegionSplitAutomaton):
        check_exact_edges(a)
        return a
    return region_split(a, cap)


# -- closed successors / predecessors -------------------------------------------


def _face_region(vertex_set, bound: int) -> Region:
    verts = sorted(vertex_set)
    n = len(verts[0])
    mean = tuple(Fraction(sum(v[i] for v in verts), len(verts)) for i in range(n))
    return region_of(mean, bound)


def closed_successor(a: RegionSplitAutomaton, region: Region, edge: Edge) -> Region:
    """Successor of a region closure through the closed edge, as a region whose
    closure is exactly the successor set, read off the edge's p orbit's rows."""
    return _closed_image(a, region, edge, forward=True)


def closed_predecessor(a: RegionSplitAutomaton, region: Region, edge: Edge) -> Region:
    """Predecessor of a region closure, read off the p orbit's columns."""
    return _closed_image(a, region, edge, forward=False)


def _closed_image(a: RegionSplitAutomaton, region: Region, edge: Edge,
                  forward: bool) -> Region:
    here, there = (edge.src, edge.dst) if forward else (edge.dst, edge.src)
    picked = set(region.vertices())
    if not picked <= set(a.regions[here].vertices()):
        raise TAError("region is not included in the closure of the edge's "
                      + ("source" if forward else "target") + " region")
    orbit = a.edge_orbits["p"][edge.name]
    rows = (() if orbit.is_zero else orbit.matrix if forward
            else tuple(zip(*orbit.matrix)))
    hit = {w for v, row in zip(a.regions[here].vertices(), rows) if v in picked
           for w, reached in zip(a.regions[there].vertices(), row) if reached}
    if not hit:
        raise TAError(f"empty {'successor' if forward else 'predecessor'}; "
                      "region-split edges are never vacuous")
    return _face_region(hit, a.regions[there].bound)


# -- region expressions --------------------------------------------------------


def region_expr_text(a, region: Region) -> str:
    clocks = a.clocks
    atoms: list[str] = []
    zero = region.zero_fraction
    for i, name in enumerate(clocks):
        ip = region.int_part[i]
        if ip is None:
            atoms.append(f"{name}>{region.bound}")
        else:
            atoms.append(f"⌊{name}⌋={ip}")
            if i in zero:
                atoms.append(f"frac({name})=0")
    for block in region.positive_blocks:
        ordered = sorted(block)
        for i, j in zip(ordered, ordered[1:]):
            atoms.append(f"frac({clocks[i]})=frac({clocks[j]})")
    pos = region.positive_blocks
    for b1, b2 in zip(pos, pos[1:]):
        atoms.append(f"frac({clocks[min(b1)]})<frac({clocks[min(b2)]})")
    return ", ".join(atoms)


_WRAPS = (("⌊", "⌋", "floor"), ("floor(", ")", "floor"), ("frac(", ")", "frac"))


def _term(token: str) -> tuple[str, str]:
    """A side of a region atom as (kind, name): `⌊x⌋` and `floor(x)` are
    ("floor", "x"), `frac(x)` is ("frac", "x"), another token t is ("", t)."""
    for opening, closing, kind in _WRAPS:
        name = token[len(opening):-len(closing)]
        if name and token == opening + name + closing:
            return kind, name
    return "", token


def _parse_region_expr(p: _LineParser, atoms: list[tuple], clocks: tuple[str, ...]
                       ) -> Region:
    """The region a `starting` line's atoms describe.  Raises `ParseError` at
    an atom it cannot read, at an unknown clock and at atoms no region
    satisfies: two integer parts for one clock, a clock above the bound with
    its integer part or fraction fixed, a fraction equal to both a zero and a
    positive one, one fraction below an equal or a zero one.  Positive
    fractions that are not totally ordered are an error at the line's first token.
    """
    idx = {c: i for i, c in enumerate(clocks)}

    def clock(name: str, at: int) -> int:
        if name not in idx:
            p.error(f"unknown clock {name!r} in a starting line", at)
        return idx[name]

    ints: dict[int, int] = {}
    above: dict[int, int] = {}  # clock -> index of its first `x>` atom
    zero: set[int] = set()
    equal: list[tuple[int, int, int]] = []  # (clock, clock, atom index)
    less: list[tuple[int, int, int]] = []
    bound = 0
    for at, lhs, rel, rhs in atoms:
        (kind, name), (rkind, rname) = _term(lhs), _term(rhs)
        if kind == "floor" and rel == "=" and rhs.isdecimal():
            k = int(rhs)
            if ints.setdefault(clock(name, at), k) != k:
                p.error(f"clock {name!r} has two integer parts", at)
            bound = max(bound, k)
        elif not kind and rel == ">" and (rhs == "M" or rhs.isdecimal()):
            above.setdefault(clock(name, at), at)
            bound = max(bound, 0 if rhs == "M" else int(rhs))
        elif kind == "frac" and rel == "=" and rhs == "0":
            zero.add(clock(name, at))
        elif kind == "frac" and rel in ("=", "<") and rkind == "frac":
            pair = (clock(name, at), clock(rname, at + 2), at)
            (equal if rel == "=" else less).append(pair)
        else:
            p.error(f"bad region atom '{lhs}{rel}{rhs}'", at)
    pinned = set(ints) | zero | {c for i, j, _ in equal + less for c in (i, j)}
    if above.keys() & pinned:
        i = min(above.keys() & pinned)
        p.error(f"clock {clocks[i]!r} is above the bound and also has its integer "
                "part or fraction fixed", above[i])
    for i, j, at in equal:
        if (i in zero) != (j in zero):
            p.error(f"frac({clocks[i]})=frac({clocks[j]}) equates a zero and a "
                    "positive fraction", at)
    for i, j, at in less:
        if j in zero:
            p.error(f"frac({clocks[i]})<frac({clocks[j]}) puts a fraction below zero", at)
    bounded = set(range(len(clocks))) - above.keys()
    bound = max([bound] + [ints.get(i, 0) + 1 for i in bounded - zero])
    # the positive blocks are the SCCs of the symmetric frac(x)=frac(y) graph
    same: dict[int, list[int]] = {i: [] for i in bounded - zero}
    for i, j, _ in equal:
        if i not in zero:
            same[i].append(j)
            same[j].append(i)
    block = {i: comp for comp in map(frozenset, _tarjan(same)) for i in comp}
    before: dict[frozenset[int], set[frozenset[int]]] = {b: set() for b in block.values()}
    for i, j, at in less:
        if i not in zero:
            if block[i] == block[j]:
                p.error(f"frac({clocks[i]})<frac({clocks[j]}) orders two equal "
                        "fractions", at)
            before[block[j]].add(block[i])
    # the order is total iff an atom links each consecutive pair of blocks
    try:
        ordered = _topological_order(before, key=min)
        if any(b1 not in before[b2] for b1, b2 in zip(ordered, ordered[1:])):
            raise ValueError
    except ValueError:
        p.error("region expression does not totally order the fractional parts", 0)
    int_part = tuple(None if i in above else ints.get(i, 0) for i in range(len(clocks)))
    return Region(bound, int_part, frozenset(zero), tuple(ordered))


def attach_starting_regions(ta: TimedAutomaton,
                            lines: dict[str, tuple[_LineParser, list[tuple]]]
                            ) -> RegionSplitAutomaton:
    """Rebuild a region-split automaton from the atoms of its `starting`
    lines, each with the parser of its line, by location.  `x>k` with a
    literal k must name the final bound."""
    if set(lines) != set(ta.locations):
        raise TAError("starting lines must cover every location exactly once")
    parsed = {loc: _parse_region_expr(p, atoms, ta.clocks)
              for loc, (p, atoms) in lines.items()}
    bound = max([ta.max_constant] + [r.bound for r in parsed.values()])
    for loc, (p, atoms) in lines.items():
        for at, c, rel, k in atoms:
            if rel == ">" and k != "M" and int(k) != bound:
                p.error(f"{c}>{k} in the starting line of {loc!r} is below the "
                        f"max constant {bound}; write {c}>M for a clock above it", at)
    regions = {loc: Region(bound, r.int_part, r.zero_fraction, r.positive_blocks)
               for loc, r in parsed.items()}
    rsta = RegionSplitAutomaton(
        ta.name, ta.clocks, ta.alphabet, ta.locations, ta.edges,
        dict(ta.initial), dict(ta.accepting), regions=regions)
    if not all(rsta.starting_ok(q, x) for q, x in rsta.initial.items()):
        raise TAError("initial vector violates the starting constraint")
    return rsta
