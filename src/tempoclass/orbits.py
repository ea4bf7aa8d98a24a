"""Finite orbit monoids over region vertices.

Three abstractions of a path, all matrices indexed by source-region vertices
(rows) and target-region vertices (columns) in lexicographic vertex order:

* kind "p": Boolean reachability between vertices;
* kind "f": amount of timing choice: 0 / narrow (unique word) / wide;
* kind "d": duration class: 0 / instant / fast (spans [0,1]) / slow (>= 1).

Entries compose through semiring matrix products, which agrees with whole-path
evaluation because the per-edge languages concatenate exactly.  An edge's
entries come from one integer delay interval per vertex pair, which
`edge_orbit_table` maps to all three kinds at once in its own loop; the DBM
oracle `path_orbit_direct` maps its language classes through `_entries`, a
mapping of its own.

An orbit element is a slotted value object, immutable by convention, whose
hash is computed once when it is built.  Each kind has one zero element,
shared by `orbit_zero`, `orbit_element` and `orbit_compose`.

`matrix_product` is the one routine that multiplies matrices.  Row i of a
product A·B depends only on row i of A and on B, so it takes a row memo for
the right factor B, keyed by the row of A, that the caller owns: both
monoid searches keep one per right-factor matrix for the length of a call,
and `orbit_compose` passes a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import TopologicalSorter
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .dbm import LanguageClass, language_class
from .regions import Region, barycentric_coordinates

ZERO = 0
ONE_P = 1
NARROW, WIDE = 1, 2
INSTANT, FAST, SLOW = 1, 2, 3

KINDS = ("p", "f", "d")

_P_ADD = ((0, 1), (1, 1))
_P_MUL = ((0, 0), (0, 1))
_F_ADD = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
_F_MUL = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
_D_ADD = ((0, 1, 2, 3), (1, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 3))
_D_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3))

_TABLES = {"p": (_P_ADD, _P_MUL), "f": (_F_ADD, _F_MUL), "d": (_D_ADD, _D_MUL)}

_LABELS = {
    "p": ("0", "1"),
    "f": ("0", "narrow", "wide"),
    "d": ("0", "instant", "fast", "slow"),
}


def semiring_add(kind: str, a: int, b: int) -> int:
    return _TABLES[kind][0][a][b]


def semiring_mul(kind: str, a: int, b: int) -> int:
    return _TABLES[kind][1][a][b]


def semiring_values(kind: str) -> range:
    return range(len(_LABELS[kind]))


def label(kind: str, value: int) -> str:
    return _LABELS[kind][value]


Matrix = tuple[tuple[int, ...], ...]


class OrbitElement:
    """One orbit-monoid value: the zero, the unit, or a matrix from the
    vertices of `src` to those of `dst`.  Nothing may assign to it after
    `__init__`: its hash depends on the fields."""

    __slots__ = ("kind", "tag", "src", "matrix", "dst", "_hash")

    def __init__(self, kind: str, tag: str, src: Optional[str] = None,
                 matrix: Optional[Matrix] = None, dst: Optional[str] = None):
        self.kind = kind
        self.tag = tag                # "zero" | "one" | "elem"
        self.src = src
        self.matrix = matrix
        self.dst = dst
        self._hash = hash((kind, tag, src, matrix, dst))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not OrbitElement:
            return NotImplemented
        return (self._hash == other._hash and self.matrix == other.matrix
                and self.src == other.src and self.dst == other.dst
                and self.tag == other.tag and self.kind == other.kind)

    def __repr__(self) -> str:
        return (f"OrbitElement(kind={self.kind!r}, tag={self.tag!r}, "
                f"src={self.src!r}, matrix={self.matrix!r}, dst={self.dst!r})")

    @property
    def is_zero(self) -> bool:
        return self.tag == "zero"

    @property
    def is_one(self) -> bool:
        return self.tag == "one"

    @property
    def cyclic(self) -> bool:
        return self.tag == "elem" and self.src == self.dst

    def entry(self, i: int, j: int) -> int:
        assert self.matrix is not None
        return self.matrix[i][j]

    def diagonal(self) -> tuple[int, ...]:
        assert self.matrix is not None and self.cyclic
        return tuple(self.matrix[i][i] for i in range(len(self.matrix)))


_ZEROS = {kind: OrbitElement(kind, "zero") for kind in KINDS}


def orbit_zero(kind: str) -> OrbitElement:
    """The zero of the kind; the same object on every call."""
    return _ZEROS[kind]


def orbit_one(kind: str) -> OrbitElement:
    return OrbitElement(kind, "one")


def orbit_element(kind: str, src: str, matrix: Sequence[Sequence[int]],
                  dst: str) -> OrbitElement:
    m = tuple(tuple(row) for row in matrix)
    if all(v == 0 for row in m for v in row):
        return orbit_zero(kind)
    return OrbitElement(kind, "elem", src, m, dst)


def orbit_compose(e1: OrbitElement, e2: OrbitElement) -> OrbitElement:
    kind = e1.kind
    if kind != e2.kind:
        raise ValueError("cannot compose orbits of different kinds")
    t1, t2 = e1.tag, e2.tag
    if t1 == "zero" or t2 == "zero":
        return _ZEROS[kind]
    if t1 == "one":
        return e2
    if t2 == "one":
        return e1
    if e1.dst != e2.src:
        return _ZEROS[kind]
    a, b = e1.matrix, e2.matrix
    assert a is not None and b is not None
    if len(a[0]) != len(b):
        return _ZEROS[kind]
    m = matrix_product(kind, a, b, {})
    if m is None:
        return _ZEROS[kind]
    return OrbitElement(kind, "elem", e1.src, m, e2.dst)


def matrix_product(kind: str, a: Matrix, b: Matrix,
                   row_memo: dict[tuple[int, ...], tuple[int, ...]]
                   ) -> Optional[Matrix]:
    """The semiring product a·b of two matrices of the kind, or None when it
    is zero.  `row_memo` maps rows of left factors to their products with
    `b`; the caller keeps one per right factor."""
    rows = []
    for a_row in a:
        row = row_memo.get(a_row)
        if row is None:
            row = row_memo[a_row] = _row_times(kind, a_row, b)
        rows.append(row)
    return tuple(rows) if any(map(any, rows)) else None


def _row_times(kind: str, a_row: tuple[int, ...], b: Matrix) -> tuple[int, ...]:
    """Semiring product of a row vector and a matrix; zero terms are skipped
    since 0 is the additive unit and absorbs products."""
    add, mul = _TABLES[kind]
    row = [0] * len(b[0])
    for x, b_row in zip(a_row, b):
        if x:
            mul_x = mul[x]
            for j, y in enumerate(b_row):
                if y:
                    row[j] = add[row[j]][mul_x[y]]
    return tuple(row)


def _entries(singleton: bool, lo) -> tuple[int, int, int]:
    """The p, f and d entries of a non-empty closed language: one timed word
    (`singleton`) or a wide set, whose durations start at `lo`."""
    return (ONE_P, NARROW if singleton else WIDE,
            INSTANT if singleton and lo == 0 else SLOW if lo >= 1 else FAST)


def _entry_value(kind: str, lc: LanguageClass) -> int:
    return ZERO if lc.empty else \
        _entries(lc.kind == "singleton", lc.duration.lo)[KINDS.index(kind)]


EdgeOrbitTable = dict[str, dict[str, OrbitElement]]


def edge_orbit_table(automaton) -> EdgeOrbitTable:
    """Orbit of every edge in every kind, keyed by kind and then by edge name
    in `automaton.edges` order; a fresh table on every call
    (`RegionSplitAutomaton.edge_orbits` keeps one).

    The closed language of an edge from a vertex x of its source region to a
    vertex y of its target region is one interval [lo, hi] of the delay t:
    t >= 0, each guarded clock c keeps x_c + t in the closure of its window,
    each kept clock ends at y_c = x_c + t, and a reset clock at 0, so the
    pair is empty unless y_c = 0.  The windows bound t once per x.  The kept
    clocks all pin t to y_k - x_k, for the first kept clock k, when x and y
    have the same kept coordinates relative to their k coordinate, and leave
    the pair empty otherwise; with no kept clock the windows alone bound t.
    Each vertex's kept coordinates are read once per location and reset set.
    Windows and vertices are `int`s, so lo and hi
    are: a non-empty pair is one timed word (narrow) when lo = hi, instant
    when that word has duration 0, and otherwise slow from lo >= 1 or fast
    from lo = 0."""
    index = automaton.clock_index
    clocks = range(len(automaton.clocks))
    vertices = automaton.location_vertices
    offsets: dict[tuple[str, frozenset[str]], list] = {}

    def kept_offsets(loc: str, resets: frozenset[str]) -> list:
        """Each vertex v of `loc` as (v_k, kept coordinates minus v_k, whether
        every reset clock is 0 at v), with v_k None when no clock is kept.
        Kept for the call, by location and reset set."""
        out = offsets.get((loc, resets))
        if out is None:
            reset = [index(c) for c in resets]
            kept = [c for c in clocks if c not in reset]
            k = kept[0] if kept else None
            out = offsets[loc, resets] = [
                (None if k is None else v[k], tuple([v[c] - v[k] for c in kept]),
                 not any([v[c] for c in reset])) for v in vertices(loc)]
        return out

    p_table: dict[str, OrbitElement] = {}
    f_table: dict[str, OrbitElement] = {}
    d_table: dict[str, OrbitElement] = {}
    for e in automaton.edges:
        windows = [(index(c), lo, hi) for c, (lo, _, hi, _) in e.guard.windows.items()]
        uppers = [(c, hi) for c, _, hi in windows if hi is not None]
        targets = kept_offsets(e.dst, e.resets)
        p_rows, f_rows, d_rows = [], [], []
        some = False  # whether some pair is non-empty
        for x, (x_k, x_shape, _) in zip(vertices(e.src), kept_offsets(e.src, e.resets)):
            x_lo = max([0, *[lo - x[c] for c, lo, _ in windows]])
            x_hi = min([hi - x[c] for c, hi in uppers], default=None)
            p_row, f_row, d_row = [], [], []
            for y_k, y_shape, reset_at_zero in targets:
                empty = not reset_at_zero or y_shape != x_shape
                if not empty:
                    lo, hi = x_lo, x_hi
                    if x_k is not None:
                        t = y_k - x_k
                        lo, hi = max(lo, t), t if hi is None else min(hi, t)
                    empty = hi is not None and lo > hi
                if empty:
                    p_row.append(ZERO)
                    f_row.append(ZERO)
                    d_row.append(ZERO)
                    continue
                some = True
                p_row.append(ONE_P)
                if lo == hi:
                    f_row.append(NARROW)
                    d_row.append(INSTANT if lo == 0 else SLOW)
                else:
                    f_row.append(WIDE)
                    d_row.append(SLOW if lo >= 1 else FAST)
            p_rows.append(tuple(p_row))
            f_rows.append(tuple(f_row))
            d_rows.append(tuple(d_row))
        if some:
            p_table[e.name] = OrbitElement("p", "elem", e.src, tuple(p_rows), e.dst)
            f_table[e.name] = OrbitElement("f", "elem", e.src, tuple(f_rows), e.dst)
            d_table[e.name] = OrbitElement("d", "elem", e.src, tuple(d_rows), e.dst)
        else:
            p_table[e.name] = _ZEROS["p"]
            f_table[e.name] = _ZEROS["f"]
            d_table[e.name] = _ZEROS["d"]
    return {"p": p_table, "f": f_table, "d": d_table}


def edge_orbit(automaton, edge, kind: str) -> OrbitElement:
    """Orbit of one region-split edge, read from `automaton.edge_orbits`."""
    return automaton.edge_orbits[kind][edge.name]


def path_orbit(automaton, path, kind: str) -> OrbitElement:
    """Fold of edge orbits; the empty sequence maps to the unit and any
    non-path to zero."""
    acc = orbit_one(kind)
    for e in path:
        acc = orbit_compose(acc, edge_orbit(automaton, e, kind))
    return acc


def path_orbit_direct(automaton, path, kind: str) -> OrbitElement:
    """Whole-path evaluation bypassing composition and the edge table: one
    DBM language class per vertex pair, for paths of every length (oracle
    for the morphism property and for the table)."""
    if not path:
        return orbit_one(kind)
    for a, b in zip(path, path[1:]):
        if a.dst != b.src:
            return orbit_zero(kind)
    src, dst = path[0].src, path[-1].dst
    return orbit_element(kind, src, [[_entry_value(kind, language_class(automaton, path, v, w))
                                      for w in automaton.location_vertices(dst)]
                                     for v in automaton.location_vertices(src)], dst)


IDEMPOTENT_POWER_CAP = 1 << 16


def idempotent_power(e: OrbitElement) -> tuple[int, OrbitElement]:
    """Smallest k with (e^k)^2 = e^k; exists by finiteness, and is searched
    up to `IDEMPOTENT_POWER_CAP`."""
    power = e
    k = 1
    while orbit_compose(power, power) != power:
        power = orbit_compose(power, e)
        k += 1
        if k > IDEMPOTENT_POWER_CAP:
            raise RuntimeError("no idempotent power found within cap")
    return k, power


# -- SCC structure and Lyapunov families -----------------------------------------


@dataclass(frozen=True)
class SccDecomposition:
    """SCCs of a cyclic orbit's support digraph, in topological order, plus the
    family of initial vertex sets that induce non-increasing affine functions
    of the barycentric coordinates."""

    sccs: tuple[frozenset[int], ...]
    initial_sets: tuple[frozenset[int], ...]


def scc_decomposition(e: OrbitElement) -> SccDecomposition:
    if not e.cyclic:
        raise ValueError("SCC decomposition needs a cyclic orbit element")
    m = e.matrix
    assert m is not None
    n = len(m)
    adj = {i: [j for j in range(n) if m[i][j]] for i in range(n)}
    sccs = [frozenset(c) for c in _tarjan(adj)]
    comp_of = {v: c for c in sccs for v in c}
    preds = {c: {comp_of[u] for v in c for u in range(n) if m[u][v]} - {c} for c in sccs}
    # smallest-vertex tie-break for a canonical topological order
    topo = tuple(_topological_order(preds, key=min))
    initial_sets = tuple(frozenset().union(*topo[:i]) for i in range(1, len(topo)))
    return SccDecomposition(topo, initial_sets)


def _tarjan(adj: dict[Hashable, Iterable[Hashable]]) -> list[set]:
    """SCCs of the digraph `adj` (node -> successors, every node a key) in
    reverse topological order, searched from the nodes in the dict's order."""
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    sccs: list[set] = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def _topological_order(preds: dict[Hashable, set], key: Callable) -> list:
    """The nodes of `preds` (node -> set of predecessors) in topological
    order, least `key` first among the ready nodes; `ValueError` on a cycle."""
    sorter = TopologicalSorter(preds)
    sorter.prepare()
    ready, ordered = [], []
    while sorter.is_active():
        ready.extend(sorter.get_ready())
        ordered.append(min(ready, key=key))
        ready.remove(ordered[-1])
        sorter.done(ordered[-1])
    return ordered


def lyapunov_values(region: Region, initial_sets: Sequence[frozenset[int]],
                    point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Evaluate each initial-set function at a closure point of the region."""
    bary = barycentric_coordinates(region, point)
    return tuple(sum((bary[v] for v in sorted(s)), Fraction(0)) for s in initial_sets)


# -- presentation -----------------------------------------------------------------


_DOT_STYLE = {
    ("p", 1): "",
    ("f", NARROW): ' [color="forestgreen"]',
    ("f", WIDE): ' [color="red", penwidth=2]',
    ("d", INSTANT): ' [color="gray40", style=dashed]',
    ("d", FAST): ' [color="red", penwidth=2]',
    ("d", SLOW): ' [color="blue"]',
}


def export_dot(e: OrbitElement, automaton=None) -> str:
    """Bipartite (or cyclic) digraph; edge styles encode the entry labels."""
    if e.is_zero:
        return 'digraph orbit {\n  label="0 (no realizable run)";\n}\n'
    if e.is_one:
        return 'digraph orbit {\n  label="1 (empty path)";\n}\n'
    assert e.matrix is not None
    src_names = _vertex_names(automaton, e.src, len(e.matrix))
    cyclic = e.src == e.dst
    dst_names = src_names if cyclic else _vertex_names(automaton, e.dst, len(e.matrix[0]))
    lines = ["digraph orbit {", "  rankdir=LR;"]
    for i, nm in enumerate(src_names):
        lines.append(f'  s{i} [label="{nm}"];')
    if not cyclic:
        for j, nm in enumerate(dst_names):
            lines.append(f'  t{j} [label="{nm}"];')
    prefix = "s" if cyclic else "t"
    for i, row in enumerate(e.matrix):
        for j, v in enumerate(row):
            if v == 0:
                continue
            style = _DOT_STYLE.get((e.kind, v), "")
            extra = f' [label="{label(e.kind, v)}"]' if not style else style[:-1] \
                + f', label="{label(e.kind, v)}"]'
            if e.kind == "p":
                extra = ""
            lines.append(f"  s{i} -> {prefix}{j}{extra};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vertex_names(automaton, loc: Optional[str], count: int) -> list[str]:
    if automaton is not None and loc is not None:
        return [str(tuple(v)) for v in automaton.location_vertices(loc)]
    return [str(i) for i in range(count)]


def orbit_to_json(e: OrbitElement) -> dict:
    if e.tag != "elem":
        return {"kind": e.kind, "constant": "0" if e.is_zero else "1"}
    assert e.matrix is not None
    return {
        "src": e.src,
        "dst": e.dst,
        "kind": e.kind,
        "rows": [[label(e.kind, v) for v in row] for row in e.matrix],
    }
