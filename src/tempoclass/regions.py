"""Clock-region algebra: equivalence classes, vertices, delay successors, resets.

Clocks are addressed by index here; callers map names to the automaton's clock
order.  A region stores, per clock, either the integer part (bounded by the
max constant) or an above-bound marker, plus the bounded clocks with
fractional part 0 and the blocks of the other bounded clocks, by increasing
fractional part.  Bounded regions are simplices; their vertices are the
integer corner points, listed in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class Region:
    bound: int                                   # the constant the abstraction is relative to
    int_part: tuple[Optional[int], ...]          # None marks a clock above the bound
    zero_fraction: frozenset[int]                # bounded clocks with fractional part 0
    positive_blocks: tuple[frozenset[int], ...]  # the others, by increasing fraction

    def __post_init__(self):
        seen = set(self.zero_fraction)
        for b in self.positive_blocks:
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
            if v == self.bound and i not in self.zero_fraction:
                raise ValueError("a clock at the bound must have zero fraction")

    # -- basic queries --------------------------------------------------------

    @property
    def clock_count(self) -> int:
        return len(self.int_part)

    @property
    def bounded(self) -> bool:
        return all(v is not None for v in self.int_part)

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
        return self._staircase

    @cached_property
    def _staircase(self) -> tuple[Vertex, ...]:
        """The vertices in lift order: vertex k adds 1 to the integer parts of
        the clocks in the top k positive blocks.  Each vertex lies
        componentwise below the next, so lift order is lexicographic order.
        Kept in the instance dict, outside the fields that eq and hash read."""
        if not self.bounded:
            raise ValueError("vertices are defined for bounded regions only")
        base = list(self.int_part)
        verts = [tuple(base)]
        for block in reversed(self.positive_blocks):
            for c in block:
                base[c] += 1
            verts.append(tuple(base))
        return tuple(verts)

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
        positive = (b - reset for b in self.positive_blocks)
        return Region(self.bound, int_part, self.zero_fraction | reset,
                      tuple(b for b in positive if b))

    def delay_successor(self) -> Optional["Region"]:
        """The next region hit under pure delay; None when absorbing."""
        if self.zero_fraction:
            # zero-fraction clocks pick up an infinitesimal positive fraction;
            # those already at the bound move above it
            moved = {c for c in self.zero_fraction if self.int_part[c] == self.bound}
            int_part = tuple(None if i in moved else v
                             for i, v in enumerate(self.int_part))
            fresh = self.zero_fraction - moved
            return Region(self.bound, int_part, frozenset(),
                          ((fresh,) if fresh else ()) + self.positive_blocks)
        if not self.positive_blocks:
            return None  # every clock above the bound (or no clocks at all)
        # the top fractional block reaches the next integer, which stays <= bound
        # because a positive fraction forces the integer part below it
        top = self.positive_blocks[-1]
        int_part = tuple(v + 1 if i in top else v for i, v in enumerate(self.int_part))
        return Region(self.bound, int_part, top, self.positive_blocks[:-1])


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
    zero = frozenset(order.pop(Fraction(0), ()))
    return Region(bound, tuple(int_part), zero,
                  tuple(frozenset(order[f]) for f in sorted(order)))


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


# -- barycentric coordinates ---------------------------------------------------


def barycentric_coordinates(region: Region, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Coordinates of a closure point w.r.t. the region's vertices (their order).

    The unique l with sum(l_v * v) = point and sum(l_v) = 1, read off the
    staircase: a point of the affine hull is the integer parts plus one offset
    per positive block (0 on the zero-fraction clocks), and with block 0 at
    offset 0 and block d+1 at offset 1, vertex k's coordinate is
    offset[d-k+1] - offset[d-k].
    """
    d = len(region.vertices()) - 1  # raises for an unbounded region
    offsets = [Fraction(0)]
    for block in region.positive_blocks:
        offset = {Fraction(point[c]) - region.int_part[c] for c in block}
        if len(offset) != 1:
            raise ValueError("point is not in the affine hull of the region's vertices")
        offsets.append(offset.pop())
    offsets.append(Fraction(1))
    if any(point[c] != region.int_part[c] for c in region.zero_fraction):
        raise ValueError("point is not in the affine hull of the region's vertices")
    coords = tuple(offsets[d - k + 1] - offsets[d - k] for k in range(d + 1))
    if any(c < 0 for c in coords):
        raise ValueError("point is not in the closure of the region")
    return coords
