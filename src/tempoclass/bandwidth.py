"""Grid-discretized language enumeration and empirical bandwidth curves.

The enumerator walks the concrete semantics depth-first over a date grid,
capping per-step delays at the max constant plus one (longer waits move events
later without adding choices), trying only the delays inside some out-edge's
guard window, and collapsing words that differ only in the
order or multiplicity of simultaneous events (the pseudo-metric cannot tell
them apart).  Capacity and entropy estimates come from the greedy
separated-set size over the slice.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ta import TAError
from .words import INF, TimedWord

DEFAULT_WORD_CAP = 400_000


class EnumerationCapExceeded(TAError):
    def __init__(self, cap: int, words_so_far: int):
        super().__init__(
            f"grid enumeration exceeded the cap of {cap} search states "
            f"({words_so_far} words found so far)")
        self.cap = cap
        self.words_so_far = words_so_far


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
    duration = Fraction(duration)
    _power_of_two_grid(grid)
    if duration < 0:
        raise TAError(f"duration bound must not be negative, got {duration}")
    if cap < 1:
        raise TAError(f"word cap must be a positive integer, got {cap}")
    if duration % grid != 0:
        raise TAError("duration bound must be a multiple of the grid")
    if not a.locations:
        return []
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
        for x in guard.atoms:
            i, b = a.clock_index(x.clock), x.bound * scale
            if x.relation in (">", ">="):
                lower.append((i, b + 1 if x.relation == ">" else b))
            else:
                upper.append((i, b - 1 if x.relation == "<" else b))
        return tuple(lower), tuple(upper)

    compiled = {}
    for e in a.edges:
        resets = frozenset(a.clock_index(c) for c in e.resets)
        compiled[e.name] = (e, *bounds(e.guard), resets)
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

    def landing_ok(dst: str, landed) -> bool:
        if not check_start:
            return True
        return a.starting_ok(dst, tuple(Fraction(v, scale) for v in landed))

    # canonical (sorted) event multiset -> a feasible firing order
    words: dict[tuple, tuple] = {}
    budget = [cap]

    def emit(events: list):
        words.setdefault(tuple(sorted(events)), tuple(events))

    start_clocks = tuple(units(x) for x in start.clocks)
    if a.is_accepting(start.location, start.clocks):
        emit([])

    def explore(loc: str, clocks: tuple, date: int, events: list,
                chain: set, letters: frozenset):
        budget[0] -= 1
        if budget[0] < 0:
            raise EnumerationCapExceeded(cap, len(words))
        # each edge's window [lo, hi] of delays that satisfy its guard
        longest = min(max_delay, horizon - date)
        windows = []
        for edge, lower, upper, resets in out_edges[loc]:
            lo, hi = 0, longest
            for i, b in lower:
                if b - clocks[i] > lo:
                    lo = b - clocks[i]
            for i, b in upper:
                if b - clocks[i] < hi:
                    hi = b - clocks[i]
            if lo <= hi:
                windows.append((lo, hi, edge, resets))
        for k in _delays(windows):
            t = date + k
            tested = tuple(x + k for x in clocks) if k else clocks
            for lo, hi, edge, resets in windows:
                if not lo <= k <= hi:
                    continue
                landed = tuple(0 if i in resets else v
                               for i, v in enumerate(tested)) if resets else tested
                if not landing_ok(edge.dst, landed):
                    continue
                if k == 0:
                    key = (edge.dst, landed, letters | {edge.label})
                    if key in chain:
                        continue
                    chain.add(key)
                    next_chain, next_letters = chain, letters | {edge.label}
                else:
                    next_chain = {(edge.dst, landed, frozenset((edge.label,)))}
                    next_letters = frozenset((edge.label,))
                events.append((edge.label, t))
                if accepts(edge.dst, landed):
                    emit(events)
                explore(edge.dst, landed, t, events, next_chain, next_letters)
                events.pop()

    explore(start.location, start_clocks, 0, [],
            {(start.location, start_clocks, frozenset())}, frozenset())
    # no two event multisets share a key
    ordered = sorted(words.values(), key=_grid_key)
    dates = {t: Fraction(t, scale) for t in {t for w in ordered for _, t in w}}
    return [TimedWord(tuple((l, dates[t]) for l, t in w)) for w in ordered]


def _grid_key(events: tuple) -> tuple:
    """`word_sort_key` of a word whose dates are in grid units (scaling keeps
    the order)."""
    return (events[-1][1] if events else 0, len(events), events)


def _delays(windows):
    """The delays lying in at least one (lo, hi, ...) window, ascending."""
    nxt = 0
    for lo, hi in sorted(w[:2] for w in windows):
        yield from range(max(nxt, lo), hi + 1)
        nxt = max(nxt, hi + 1)


# -- integer-scaled distance for the greedy pass ------------------------------------


def _grid_units(t: Fraction, grid: Fraction) -> int:
    num = t.numerator * grid.denominator
    den = t.denominator * grid.numerator
    if num % den:
        raise TAError("word dates must lie on the grid")
    return num // den


def _directed_gap(w: dict, v: dict, cutoff: int) -> bool:
    """True when the directed distance exceeds the cutoff (grid units); the
    two words have the same letter set."""
    for letter, dates in w.items():
        other = v[letter]
        j = 0
        last = len(other) - 1
        for t in dates:
            while j < last and other[j + 1] <= t:
                j += 1
            best = abs(t - other[j])
            if j < last:
                gap = other[j + 1] - t
                if gap < best:
                    best = gap
            if best > cutoff:
                return True
    return False


def _within(w: dict, v: dict, cutoff: int) -> bool:
    return not (_directed_gap(w, v, cutoff) or _directed_gap(v, w, cutoff))


def _positive_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if eps <= 0:
        raise TAError(f"epsilon must be positive, got {eps}")
    return eps


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
    grid = Fraction(grid) if grid is not None else eps / 2
    if grid > eps / 2:
        raise TAError("grid must be at most eps/2")
    if words is None:
        words = enumerate_words(a, duration, grid, cap)
    if not words:
        return CapacityEstimate(0, 0, None)
    # distances between grid words are whole grid units, and an integer
    # exceeds eps/grid exactly when it exceeds its floor
    cutoff = math.floor(eps / grid)
    keyed = sorted(_grid_key(tuple((letter, _grid_units(t, grid))
                                   for letter, t in w.events)) for w in words)
    size = _greedy(keyed, cutoff)
    return CapacityEstimate(len(words), size, math.log2(size))


def _greedy(keyed, cutoff: int) -> int:
    """Size of the set that keeps each word farther than the cutoff from
    everything kept before, in key order.  Words at finite distance have the
    same letter set, and two words within the cutoff have durations within
    it (the later final event must find a match), so only the kept words of
    one letter set in a trailing duration window need scanning.  They are
    scanned latest first, where a near word is likelier.
    """
    kept: dict[frozenset, tuple[list, list]] = {}
    size = 0
    for duration, _, events in keyed:
        form: dict[str, list[int]] = {}
        for letter, t in events:
            form.setdefault(letter, []).append(t)
        forms, durations = kept.setdefault(frozenset(form), ([], []))
        window = range(bisect_left(durations, duration - cutoff), len(forms))
        for i in reversed(window):
            if _within(form, forms[i], cutoff):
                break
        else:
            forms.append(form)
            durations.append(duration)
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
    the cap; durations are tried in increasing order.  The eps values that
    share a grid share each enumerated slice, which is dropped before the
    next one is enumerated."""
    ts = sorted(Fraction(t) for t in durations)
    if ts and ts[0] <= 0:
        raise TAError(f"duration bound must be positive, got {ts[0]}")
    if ts:
        try:
            float(ts[-1])  # bits per second divides by the duration as a float
        except OverflowError:
            raise TAError("duration bound is too large for a float") from None
    epss = [_positive_eps(eps) for eps in epss]
    by_grid: dict[Fraction, list[int]] = {}
    for k, eps in enumerate(epss):
        g = Fraction(grid) if grid is not None else eps / 2
        by_grid.setdefault(g, []).append(k)
    best: list[Optional[CurveRow]] = [None] * len(epss)
    for g, members in by_grid.items():
        _power_of_two_grid(g)
        for t in ts:
            if t % g != 0:
                continue  # this duration does not align with this grid
            try:
                words = enumerate_words(a, t, g, cap)
            except EnumerationCapExceeded:
                break
            for k in members:
                est = estimate_capacity(a, t, epss[k], g, words=words)
                if not est.empty:
                    assert est.capacity_bits is not None and est.entropy_bits is not None
                    best[k] = CurveRow(epss[k], t, g, est.capacity_bits,
                                       est.entropy_bits, est.word_count)
            del words
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
