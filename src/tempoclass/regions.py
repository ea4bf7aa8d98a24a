"""Clock-region algebra: equivalence classes, vertices, delay successors, resets.

Clocks are addressed by index here; callers map names to the automaton's clock
order.  A region stores, per clock, either the integer part (bounded by the
max constant) or an above-bound marker, plus the weak order of fractional
parts of the bounded clocks.  Bounded regions are simplices; their vertices
are the integer corner points, listed in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class Region:
    bound: int                                  # the constant the abstraction is relative to
    int_part: tuple[Optional[int], ...]         # None marks a clock above the bound
    frac_blocks: tuple[frozenset[int], ...]     # bounded clocks by increasing fractional part
    zero_first: bool                            # first block has fractional part exactly 0

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.frac_blocks:
            if not b or (b & seen):
                raise ValueError("fractional blocks must be disjoint and non-empty")
            seen |= b
        bounded = {i for i, v in enumerate(self.int_part) if v is not None}
        if seen != bounded:
            raise ValueError("fractional blocks must cover exactly the bounded clocks")
        for i in bounded:
            v = self.int_part[i]
            assert v is not None
            if not (0 <= v <= self.bound):
                raise ValueError("integer parts must lie in [0, bound]")
            if v == self.bound and not self._is_zero(i):
                raise ValueError("a clock at the bound must have zero fraction")

    def _is_zero(self, clock: int) -> bool:
        return self.zero_first and bool(self.frac_blocks) and clock in self.frac_blocks[0]

    # -- basic queries --------------------------------------------------------

    @property
    def clock_count(self) -> int:
        return len(self.int_part)

    @property
    def bounded(self) -> bool:
        return all(v is not None for v in self.int_part)

    @property
    def zero_fraction(self) -> frozenset[int]:
        return self.frac_blocks[0] if self.zero_first and self.frac_blocks else frozenset()

    @property
    def positive_blocks(self) -> tuple[frozenset[int], ...]:
        return self.frac_blocks[1:] if self.zero_first else self.frac_blocks

    @property
    def dimension(self) -> int:
        if not self.bounded:
            raise ValueError("dimension is defined for bounded regions only")
        return len(self.positive_blocks)

    def representative(self) -> tuple[Fraction, ...]:
        """An interior point; above-bound clocks are placed at bound + 1."""
        pos = self.positive_blocks
        denom = len(pos) + 1
        frac_of: dict[int, Fraction] = {}
        for rank, block in enumerate(pos, start=1):
            for c in block:
                frac_of[c] = Fraction(rank, denom)
        vals = []
        for i, ip in enumerate(self.int_part):
            if ip is None:
                vals.append(Fraction(self.bound + 1))
            else:
                vals.append(Fraction(ip) + frac_of.get(i, Fraction(0)))
        return tuple(vals)

    def vertices(self) -> tuple[Vertex, ...]:
        """The dim+1 integer corner points, sorted lexicographically."""
        return self._vertices

    @cached_property
    def _vertices(self) -> tuple[Vertex, ...]:
        # kept in the instance dict, outside the fields that eq and hash read
        if not self.bounded:
            raise ValueError("vertices are defined for bounded regions only")
        pos = self.positive_blocks
        d = len(pos)
        rank_of: dict[int, int] = {}
        for rank, block in enumerate(pos, start=1):
            for c in block:
                rank_of[c] = rank
        verts = []
        for k in range(d + 1):
            # blocks with rank > d-k have their fraction pushed up to 1
            v = tuple((self.int_part[i] or 0) + (1 if rank_of.get(i, 0) > d - k else 0)
                      for i in range(self.clock_count))
            verts.append(v)
        return tuple(sorted(verts))

    def contains(self, values: Sequence[Fraction]) -> bool:
        return region_of(values, self.bound) == self

    def closure_contains(self, values: Sequence[Fraction]) -> bool:
        """Membership in the topological closure (bounded regions only)."""
        if not self.bounded:
            raise ValueError("closure membership implemented for bounded regions only")
        if any(v < 0 or v > self.bound for v in values):
            return False
        inner = region_of(values, self.bound)
        return set(inner.vertices()) <= set(self.vertices())

    def reset(self, resets: Iterable[int]) -> "Region":
        """The region after setting the `resets` clocks to 0.

        Worked on the region's structure, with no point: the reset clocks
        get integer part 0 and join the zero-fraction block, and leave the
        positive blocks, a block left empty disappearing.  Any other clock
        keeps its integer part (or stays above the bound) and its place in
        the fractional order.
        """
        reset = frozenset(resets)
        if not reset:
            return self
        int_part = tuple(0 if i in reset else v for i, v in enumerate(self.int_part))
        zero = self.zero_fraction | reset
        positive = tuple(b - reset for b in self.positive_blocks)
        blocks = (zero,) + tuple(b for b in positive if b)
        return Region(self.bound, int_part, blocks, True)

    def delay_successor(self) -> Optional["Region"]:
        """The next region hit under pure delay; None when absorbing."""
        if not self.frac_blocks:
            return None  # every clock above the bound (or no clocks at all)
        int_part = list(self.int_part)
        if self.zero_first:
            # zero-fraction clocks pick up an infinitesimal positive fraction;
            # those already at the bound move above it
            moved = {c for c in self.frac_blocks[0] if int_part[c] == self.bound}
            for c in moved:
                int_part[c] = None
            fresh = self.frac_blocks[0] - moved
            blocks = ((fresh,) if fresh else ()) + self.frac_blocks[1:]
            return Region(self.bound, tuple(int_part), blocks, False)
        # the top fractional block reaches the next integer
        top = self.frac_blocks[-1]
        for c in top:
            assert int_part[c] is not None
            int_part[c] = int_part[c] + 1  # stays <= bound: positive fraction forced < bound
        return Region(self.bound, tuple(int_part), (top,) + self.frac_blocks[:-1], True)


def region_of(values: Sequence[Fraction], bound: int) -> Region:
    """Canonical region of a clock vector (componentwise non-negative)."""
    if any(v < 0 for v in values):
        raise ValueError("clock values must be non-negative")
    int_part: list[Optional[int]] = []
    fracs: dict[int, Fraction] = {}
    for i, v in enumerate(values):
        v = Fraction(v)
        if v > bound:
            int_part.append(None)
        else:
            ip = int(v)
            int_part.append(ip)
            fracs[i] = v - ip
    order: dict[Fraction, set[int]] = {}
    for i, f in fracs.items():
        order.setdefault(f, set()).add(i)
    blocks = tuple(frozenset(order[f]) for f in sorted(order))
    zero_first = bool(blocks) and Fraction(0) in order
    return Region(bound, tuple(int_part), blocks, zero_first)


def region_equivalent(x: Sequence[Fraction], y: Sequence[Fraction], bound: int) -> bool:
    """Direct three-clause definition, kept separate as an oracle for region_of."""
    n = len(x)
    x_inf = {i for i in range(n) if x[i] > bound}
    y_inf = {i for i in range(n) if y[i] > bound}
    if x_inf != y_inf:
        return False
    x_nat = {i for i in range(n) if Fraction(x[i]).denominator == 1} - x_inf
    y_nat = {i for i in range(n) if Fraction(y[i]).denominator == 1} - y_inf
    if x_nat != y_nat:
        return False
    rest = [i for i in range(n) if i not in x_inf]
    for i in rest:
        if int(x[i]) != int(y[i]):
            return False
    for i in rest:
        for j in rest:
            fx_i, fx_j = x[i] - int(x[i]), x[j] - int(x[j])
            fy_i, fy_j = y[i] - int(y[i]), y[j] - int(y[j])
            if (fx_i <= fx_j) != (fy_i <= fy_j):
                return False
    return True


def time_successor_chain(region: Region) -> list[Region]:
    """All regions swept under increasing delay, the start included.

    The chain is finite and ends in the absorbing all-above-bound region (the
    region itself when it has no bounded clock).
    """
    chain = [region]
    cur = region
    while True:
        nxt = cur.delay_successor()
        if nxt is None:
            return chain
        chain.append(nxt)
        cur = nxt


def singleton_region(values: Sequence[int], bound: int) -> Region:
    return region_of(tuple(Fraction(v) for v in values), bound)


# -- barycentric coordinates ---------------------------------------------------


def barycentric_coordinates(region: Region, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coordinates of a closure point w.r.t. the region's vertices (their order).

    Solves sum(l_v * v) = point, sum(l_v) = 1 exactly; the vertices of a region
    are affinely independent so the solution is unique.
    """
    verts = region.vertices()
    n = region.clock_count
    k = len(verts)
    # rows: one per clock plus the normalization row
    rows = [[Fraction(verts[j][i]) for j in range(k)] + [Fraction(point[i])]
            for i in range(n)]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    sol = _solve_exact(rows, k)
    if sol is None:
        raise ValueError("point is not in the affine hull of the region's vertices")
    if any(c < 0 for c in sol):
        raise ValueError("point is not in the closure of the region")
    return tuple(sol)


def _solve_exact(rows: list[list[Fraction]], unknowns: int) -> Optional[list[Fraction]]:
    m = [row[:] for row in rows]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(unknowns):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, len(m)):
        if m[i][-1] != 0:
            return None  # inconsistent
    if len(pivots) < unknowns:
        return None  # underdetermined; cannot happen for simplex vertices
    sol = [Fraction(0)] * unknowns
    for row, col in pivots:
        sol[col] = m[row][-1]
    return sol
