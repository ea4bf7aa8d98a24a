"""Grid-discretized language enumeration and empirical bandwidth curves.

The enumerator walks the concrete semantics depth-first over a date grid,
capping per-step delays at the max constant plus one (longer waits move events
later without adding choices), trying only the delays inside some out-edge's
guard window, and collapsing words that differ only in the
order or multiplicity of simultaneous events (the pseudo-metric cannot tell
them apart).  The word cap bounds its search states, and the count of those
states is the only budget: each slice is compiled once, a second walker
counts its search states without building words (memoised per instant),
and `_counted_slice`, the one place that decides the cap, raises when the
count is over it, so a slice over the cap is never enumerated.  Both walkers
keep their own stack, so the horizon sets no depth limit.  A curve counts
its durations in increasing order up to the first slice over the cap and
enumerates only the last slice counted, once per grid: that is the slice its
rows report.  Capacity and entropy estimates come from the greedy
separated-set size over the slice, one flat loop over bitset words kept in
buckets keyed on letter set and the cell of the lowest set bit.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .ta import TAError
from .words import INF, TimedWord

DEFAULT_WORD_CAP = 400_000


class EnumerationCapExceeded(TAError):
    def __init__(self, cap: int):
        super().__init__(f"grid enumeration exceeded the cap of {cap} search states")
        self.cap = cap


def _power_of_two_grid(g: Fraction) -> None:
    num, den = g.numerator, g.denominator
    if num != 1 or den & (den - 1):
        raise TAError(f"grid must be 1/2^k, got {g}")


def enumerate_words(a, duration: Fraction, grid: Fraction,
                    cap: int = DEFAULT_WORD_CAP) -> list[TimedWord]:
    """Accepted words with dates on the grid, duration at most the bound, and
    per-step delays at most maxConstant + 1; sorted canonically.

    The language is enumerated up to the kernel of the pseudo-metric: two words
    with the same set of (letter, date) events are indistinguishable at every
    precision, so instant cycles that revisit a state without firing a new
    letter at the current date are cut (this is what keeps the search finite on
    automata with unguarded loops).  Every returned word is a genuine run
    witness and replays successfully.
    """
    grid = Fraction(grid)
    ordered = _grid_words(a, duration, grid, cap)
    scale = grid.denominator
    dates = {t: Fraction(t, scale) for t in {t for w in ordered for _, t in w}}
    return [TimedWord(tuple((l, dates[t]) for l, t in w)) for w in ordered]


class _Slice(NamedTuple):
    """A validated grid slice compiled for its two walkers, `_walk` and
    `_count_states`; clocks and dates are in grid units."""
    location: str                 # the start state
    clocks: tuple
    accepting: bool               # whether the start state accepts
    steps: Callable               # (location, clocks, date) -> list of moves


def _compile_slice(a, duration: Fraction, grid: Fraction, cap: int) -> Optional[_Slice]:
    """Check the slice's bounds and compile the automaton's guards to grid
    units; None when the automaton has no locations.

    `steps(loc, clocks, date)` lists the search's moves from a state as
    (delay, edge, clocks on landing, the edge's letter as a set, whether the
    state landed in accepts): delays ascending and, at each delay, the edges
    in declaration order whose guard holds, whose delay stays within
    maxConstant + 1 and the horizon, and whose target's starting region (if
    any) admits the landing clocks.  Each list is built once per slice and
    shared; callers must not change it."""
    grid = Fraction(grid)
    duration = Fraction(duration)
    _power_of_two_grid(grid)
    if duration < 0:
        raise TAError(f"duration bound must not be negative, got {duration}")
    _check_word_cap(cap)
    if duration % grid != 0:
        raise TAError("duration bound must be a multiple of the grid")
    if not a.locations:
        return None
    start = a.initial_state()
    scale = grid.denominator  # dates and clocks in integer grid units below
    horizon = int(duration * scale)
    max_delay = (a.max_constant + 1) * scale

    def units(x: Fraction) -> int:
        v = x * scale
        if v.denominator != 1:
            raise TAError("clock values must lie on the grid")
        return v.numerator

    def bounds(guard) -> tuple[tuple, tuple]:
        # the guard holds at clocks (grid units) iff clocks[i] >= b for every
        # (i, b) in lower and clocks[i] <= b for every (i, b) in upper
        lower, upper = [], []
        for clock, (lo, los, hi, his) in guard.windows.items():
            i = a.clock_index(clock)
            if lo or los:  # clocks are never negative
                lower.append((i, lo * scale + los))
            if hi is not None:
                upper.append((i, hi * scale - his))
        return tuple(lower), tuple(upper)

    compiled = {}
    for e in a.edges:
        resets = frozenset(a.clock_index(c) for c in e.resets)
        compiled[e.name] = (e, *bounds(e.guard), resets, frozenset((e.label,)))
    out_edges = {q: [compiled[e.name] for e in a.edges_from(q)] for q in a.locations}
    check_start = bool(getattr(a, "regions", None))
    accepting = {q: bounds(g) for q, g in a.accepting.items()}

    def accepts(loc: str, clocks: tuple) -> bool:
        acc = accepting.get(loc)
        if acc is None:
            return False
        lower, upper = acc
        for i, b in lower:
            if clocks[i] < b:
                return False
        for i, b in upper:
            if clocks[i] > b:
                return False
        return True

    # the moves depend on the date only through the longest delay it allows
    cache: dict[tuple, list] = {}

    def steps(loc: str, clocks: tuple, date: int) -> list[tuple]:
        longest = min(max_delay, horizon - date)
        key = (loc, clocks, longest)
        moves = cache.get(key)
        if moves is None:
            moves = cache[key] = moves_from(loc, clocks, longest)
        return moves

    def moves_from(loc: str, clocks: tuple, longest: int) -> list[tuple]:
        # each edge's window [lo, hi] of delays that satisfy its guard
        windows = []
        for edge, lower, upper, resets, label in out_edges[loc]:
            lo, hi = 0, longest
            for i, b in lower:
                if b - clocks[i] > lo:
                    lo = b - clocks[i]
            for i, b in upper:
                if b - clocks[i] < hi:
                    hi = b - clocks[i]
            if lo <= hi:
                windows.append((lo, hi, edge, resets, label))
        moves = []
        for k in _delays(windows):
            tested = tuple(x + k for x in clocks) if k else clocks
            for lo, hi, edge, resets, label in windows:
                if not lo <= k <= hi:
                    continue
                landed = tuple(0 if i in resets else v
                               for i, v in enumerate(tested)) if resets else tested
                if check_start and not a.starting_ok(
                        edge.dst, tuple(Fraction(v, scale) for v in landed)):
                    continue
                moves.append((k, edge, landed, label, accepts(edge.dst, landed)))
        return moves

    start_clocks = tuple(units(x) for x in start.clocks)
    return _Slice(start.location, start_clocks, accepts(start.location, start_clocks),
                  steps)


def _counted_slice(a, duration: Fraction, grid: Fraction, cap: int) -> Optional[_Slice]:
    """The compiled slice (None when the automaton has no locations) once its
    search states are counted within the cap; `EnumerationCapExceeded`
    otherwise.  This is the one place where the word cap is decided."""
    s = _compile_slice(a, duration, grid, cap)
    if s is not None and _count_states(s, cap) > cap:
        raise EnumerationCapExceeded(cap)
    return s


def _grid_words(a, duration: Fraction, grid: Fraction, cap: int) -> list[tuple]:
    """The words of `enumerate_words` as event tuples whose dates are in grid
    units (date times `grid.denominator`), in `_grid_key` order; the slice
    is walked only when `_counted_slice` admits it."""
    s = _counted_slice(a, duration, grid, cap)
    return [] if s is None else _walk(s)


def _walk(s: _Slice) -> list[tuple]:
    """Every word of the slice, depth-first and without a budget; one
    `steps` call per search state.  The stack holds one frame per open
    state, (its moves, its date, its instant's chain, the letters fired at
    that date), and `events` the path to the top frame's state."""
    steps = s.steps
    # canonical (sorted) event multiset -> a feasible firing order
    words: dict[tuple, tuple] = {}
    if s.accepting:
        words[()] = ()
    events: list[tuple] = []
    stack = [(iter(steps(s.location, s.clocks, 0)), 0,
              {(s.location, s.clocks, frozenset())}, frozenset())]
    while stack:
        moves, date, chain, letters = stack[-1]
        for k, edge, landed, label, accepted in moves:
            if k == 0:
                next_letters = letters | label
                key = (edge.dst, landed, next_letters)
                if key in chain:
                    continue
                chain.add(key)
                next_chain = chain
            else:
                next_chain = {(edge.dst, landed, label)}
                next_letters = label
            t = date + k
            events.append((edge.label, t))
            if accepted:
                words.setdefault(tuple(sorted(events)), tuple(events))
            stack.append((iter(steps(edge.dst, landed, t)), t, next_chain,
                          next_letters))
            break
        else:
            stack.pop()
            if stack:
                events.pop()
    # no two event multisets share a key
    return sorted(words.values(), key=_grid_key)


def _search_states(a, duration: Fraction, grid: Fraction, cap: int) -> int:
    """The number of search states `_walk` enters on the slice, or cap + 1
    once it exceeds the cap; the slice is checked like `_grid_words` does."""
    s = _compile_slice(a, duration, grid, cap)
    return 0 if s is None else _count_states(s, cap)


def _count_states(s: _Slice, cap: int) -> int:
    """`_walk`'s search states on the slice, saturated at cap + 1.

    The walk shares one chain set across an instant, so the states an
    instant enters are those its entry reaches by zero-delay moves, whatever
    the search order; each one is one state plus the instants its positive
    delays open.  An instant's count depends only on its entry (location,
    clocks, date, letter), which is the memo key.  Each instant is a
    generator that yields the entries it has not met yet and is sent their
    counts; a stack of them stands in for recursion."""
    steps, over = s.steps, cap + 1
    memo: dict[tuple, int] = {}

    def instant(entry: tuple, date: int):
        seen = {entry}
        todo = [entry]
        total = 0
        while todo:
            loc, clocks, letters = todo.pop()
            total += 1
            if total > cap:
                return over
            for k, edge, landed, label, _ in steps(loc, clocks, date):
                if k == 0:
                    key = (edge.dst, landed, letters | label)
                    if key not in seen:
                        seen.add(key)
                        todo.append(key)
                    continue
                key = ((edge.dst, landed, label), date + k)
                sub = memo.get(key)
                if sub is None:
                    sub = yield key
                total += sub
                if total > cap:
                    return over
        return total

    root = ((s.location, s.clocks, frozenset()), 0)
    stack = [(root, instant(*root))]
    count = None
    while True:
        key, counting = stack[-1]
        try:
            entry = counting.send(count)
        except StopIteration as done:
            count = memo[key] = done.value
            stack.pop()
            if not stack:
                return count
        else:
            stack.append((entry, instant(*entry)))
            count = None


def _grid_key(events: tuple) -> tuple:
    """`word_sort_key` of a word whose dates are in grid units (scaling keeps
    the order)."""
    return (events[-1][1] if events else 0, len(events), events)


def _delays(windows):
    """The delays lying in at least one (lo, hi, ...) window, ascending;
    overlapping and adjacent windows are merged into one range."""
    if len(windows) == 1:
        return range(windows[0][0], windows[0][1] + 1)
    spans: list[range] = []
    for lo, hi in sorted(w[:2] for w in windows):
        if spans and lo <= spans[-1].stop:
            if hi >= spans[-1].stop:
                spans[-1] = range(spans[-1].start, hi + 1)
        else:
            spans.append(range(lo, hi + 1))
    return itertools.chain.from_iterable(spans)


# -- integer-scaled distance for the greedy pass ------------------------------------


def _grid_units(t: Fraction, grid: Fraction) -> int:
    num = t.numerator * grid.denominator
    den = t.denominator * grid.numerator
    if num % den:
        raise TAError("word dates must lie on the grid")
    return num // den


def _check_word_cap(cap: int) -> None:
    if cap < 1:
        raise TAError(f"word cap must be a positive integer, got {cap}")


def _positive_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if eps <= 0:
        raise TAError(f"epsilon must be positive, got {eps}")
    return eps


def _checked_grid(eps: Fraction, grid: Optional[Fraction]) -> Fraction:
    grid = Fraction(grid) if grid is not None else eps / 2
    if grid > eps / 2:
        raise TAError("grid must be at most eps/2")
    return grid


@dataclass(frozen=True)
class CapacityEstimate:
    word_count: int
    separated_size: int
    capacity_bits: Optional[float]       # None for the empty slice

    @property
    def entropy_bits(self) -> Optional[float]:
        """A maximal separated set is also a net, so one greedy set bounds the
        eps-capacity from below and the eps-entropy from above."""
        return self.capacity_bits

    @property
    def empty(self) -> bool:
        return self.word_count == 0


def estimate_capacity(a, duration: Fraction, eps: Fraction,
                      grid: Optional[Fraction] = None,
                      cap: int = DEFAULT_WORD_CAP,
                      words: Optional[Sequence[TimedWord]] = None) -> CapacityEstimate:
    """Greedy separated-set size over the grid slice; its log2 bounds the
    eps-capacity from below and the eps-entropy from above.

    `words` replaces the enumeration of the slice.  It may come in any order
    (the greedy runs in `word_sort_key` order, so the size equals that of
    `words.greedy_separated(words, eps)`), but every date must lie on the
    grid; `TAError` is raised otherwise.
    """
    eps = _positive_eps(eps)
    grid = _checked_grid(eps, grid)
    if words is None:
        ordered = _grid_words(a, duration, grid, cap)
    else:
        ordered = sorted((tuple((letter, _grid_units(t, grid)) for letter, t in w.events)
                          for w in words), key=_grid_key)
    return _estimate(ordered, eps, grid)


def _estimate(ordered: Sequence[tuple], eps: Fraction, grid: Fraction) -> CapacityEstimate:
    if not ordered:
        return CapacityEstimate(0, 0, None)
    # distances between grid words are whole grid units, and an integer
    # exceeds eps/grid exactly when it exceeds its floor
    size = _greedy(ordered, math.floor(eps / grid))
    return CapacityEstimate(len(ordered), size, math.log2(size))


def _greedy(ordered: Sequence[tuple], cutoff: int) -> int:
    """Size of the set that keeps each word farther than the cutoff from
    everything kept before; `ordered` holds event tuples in grid units, in
    `_grid_key` order.

    A word is one integer with a lane of bits per letter, bit t of a lane
    set when that letter occurs at date t; the lanes are far enough apart
    that spreading every bit by the cutoff either way (the dilation) stays
    off the dates of other lanes.  w is within the cutoff of v exactly when
    w's bits lie inside v's dilation and v's inside w's: the distance only
    sees the set of (letter, date) events, so repeated and simultaneous
    events need no care.  Each event's bit and lane, and the shifts that
    build a dilation, are computed once per call.

    Kept words are bucketed by letter set and by the cell, of width
    cutoff + 1, of their lowest set bit: the first date of the letter with
    the lowest lane.  Two words within the cutoff have the same letter set,
    hence the same such letter, with first dates within the cutoff (each
    first occurrence must find a match no earlier than the other's), and
    durations within it (likewise for the final events), so only the
    trailing duration window of the buckets next to a word's own is
    scanned.  Nearness is a yes/no answer, so the scan order does not matter.
    """
    width = cutoff + 1
    stride = max((events[-1][1] for events in ordered if events), default=0) + width
    lanes: dict[str, int] = {}
    forms: dict[tuple, tuple[int, int]] = {}  # event -> (its bit, its lane)
    for events in ordered:
        for event in events:
            if event not in forms:
                i = lanes.setdefault(event[0], len(lanes))
                forms[event] = (1 << (i * stride + event[1]), 1 << i)
    shifts = []   # after shifting by these, bit t covers dates t .. t + cutoff
    reach = 0
    while reach < cutoff:
        shifts.append(min(reach + 1, cutoff - reach))
        reach += shifts[-1]
    kept: dict[int, dict[int, tuple[list, list]]] = {}
    size = 0
    for events in ordered:
        bits = letters = 0
        for event in events:
            bit, lane = forms[event]
            bits |= bit
            letters |= lane
        spread = bits
        for step in shifts:
            spread |= spread << step
        outside = ~(spread | spread >> cutoff)
        duration = events[-1][1] if events else 0
        cell = ((bits & -bits).bit_length() - 1) // width
        cells = kept.setdefault(letters, {})
        for c in (cell, cell - 1, cell + 1):
            bucket = cells.get(c)
            if bucket is not None:
                durations, words = bucket
                # latest first, where a near word is likelier
                for i in range(len(words) - 1,
                               bisect_left(durations, duration - cutoff) - 1, -1):
                    other, far = words[i]
                    if not (bits & far or other & outside):
                        break
                else:
                    continue
                break  # near a kept word
        else:
            durations, words = cells.setdefault(cell, ([], []))
            durations.append(duration)
            words.append((bits, outside))
            size += 1
    return size


# -- curves and asymptotic fits ------------------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    eps: Fraction
    duration: Fraction
    grid: Fraction
    capacity_bits: float
    entropy_bits: float
    word_count: int

    @property
    def bits_per_second(self) -> float:
        return self.capacity_bits / float(self.duration)


def bandwidth_curve(a, durations: Sequence[Fraction], epss: Sequence[Fraction],
                    grid: Optional[Fraction] = None,
                    cap: int = DEFAULT_WORD_CAP) -> list[CurveRow]:
    """One row per eps at the largest duration whose enumeration stays under
    the cap.  For each grid the aligned durations are counted in increasing
    order, up to the first slice over the cap, and only the last slice
    counted is enumerated: the word set grows with the duration, so an eps
    whose slice there is empty has an empty slice at every duration before
    it too.  The eps values that share a grid share that one enumeration."""
    ts = sorted(Fraction(t) for t in durations)
    if ts and ts[0] <= 0:
        raise TAError(f"duration bound must be positive, got {ts[0]}")
    if ts:
        try:
            float(ts[-1])  # bits per second divides by the duration as a float
        except OverflowError:
            raise TAError("duration bound is too large for a float") from None
    epss = [_positive_eps(eps) for eps in epss]
    _check_word_cap(cap)
    # the cap and every grid are checked before any slice, so a bad one fails
    # even when no duration aligns with a grid or a slice stops the curve
    by_grid: dict[Fraction, list[int]] = {}
    for k, eps in enumerate(epss):
        g = _checked_grid(eps, grid)
        _power_of_two_grid(g)
        by_grid.setdefault(g, []).append(k)
    best: list[Optional[CurveRow]] = [None] * len(epss)
    for g, members in by_grid.items():
        last = None
        for t in ts:
            if t % g != 0:
                continue  # this duration does not align with this grid
            try:
                last = t, _counted_slice(a, t, g, cap)
            except EnumerationCapExceeded:
                break
        if last is None or last[1] is None:
            continue
        t, s = last
        words = _walk(s)
        for k in members:
            est = _estimate(words, epss[k], g)
            if not est.empty:
                assert est.capacity_bits is not None and est.entropy_bits is not None
                best[k] = CurveRow(epss[k], t, g, est.capacity_bits,
                                   est.entropy_bits, est.word_count)
        del last, s, words
    return [row for row in best if row is not None]


def curve_csv(rows: Sequence[CurveRow]) -> str:
    from .words import format_rational
    lines = ["epsilon,T,grid,capacity_bits,entropy_bits,bits_per_second"]
    for r in rows:
        lines.append(",".join([
            format_rational(r.eps), format_rational(r.duration),
            format_rational(r.grid), f"{r.capacity_bits:.6g}",
            f"{r.entropy_bits:.6g}", f"{r.bits_per_second:.6g}"]))
    return "\n".join(lines) + "\n"


_MODELS = (
    ("O(1)", lambda eps: 1.0),
    ("log(1/eps)", lambda eps: math.log2(1.0 / eps)),
    ("1/eps", lambda eps: 1.0 / eps),
)

_CLASS_OF_MODEL = {"O(1)": "meager", "log(1/eps)": "normal", "1/eps": "obese"}

# a fit is conclusive when the runner-up's residual is at least this many
# times the winner's
RATIO_THRESHOLD = 2.0


@dataclass(frozen=True)
class FitReport:
    model: str
    constant: float
    residuals: dict[str, float]
    residual_ratio: float        # runner-up rss / best rss (inf when exact)
    conclusive: bool
    suggested_class: str

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "constant": self.constant,
            "residuals": {k: v for k, v in sorted(self.residuals.items())},
            "residualRatio": None if self.residual_ratio == INF
            else self.residual_ratio,
            "conclusive": self.conclusive,
            "suggestedClass": self.suggested_class,
        }


def fit_class(rows: Sequence[CurveRow]) -> FitReport:
    """Least-squares fit of bits/second against the three one-parameter shapes;
    the winner is flagged inconclusive when the runner-up is closer than
    `RATIO_THRESHOLD`."""
    if len(rows) < 3:
        raise TAError("need at least three epsilon points to fit a shape")
    pts = [(float(r.eps), r.bits_per_second) for r in rows]
    residuals: dict[str, float] = {}
    constants: dict[str, float] = {}
    for name, basis in _MODELS:
        num = sum(basis(e) * y for e, y in pts)
        den = sum(basis(e) ** 2 for e, y in pts)
        c = num / den if den else 0.0
        rss = sum((y - c * basis(e)) ** 2 for e, y in pts)
        residuals[name] = rss
        constants[name] = c
    ranked = sorted(residuals, key=lambda m: residuals[m])
    best, second = ranked[0], ranked[1]
    ratio = INF if residuals[best] == 0 else residuals[second] / residuals[best]
    return FitReport(best, constants[best], residuals, ratio,
                     ratio >= RATIO_THRESHOLD, _CLASS_OF_MODEL[best])
