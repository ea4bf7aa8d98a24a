"""Timed words, the observation pseudo-metric, and epsilon-net machinery.

The distance matches letters exactly but dates only up to the observer's
precision: each event must find a same-letter event of the other word nearby,
with min over an empty candidate set read as infinity.  Distances are computed
exactly in rationals; infinity is the explicit float sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

INF = float("inf")

Event = tuple[str, Fraction]
Distance = Union[Fraction, float]


@dataclass(frozen=True)
class TimedWord:
    events: tuple[Event, ...]

    def __post_init__(self):
        last = Fraction(0)
        for _, t in self.events:
            if t < 0:
                raise ValueError("dates must be non-negative")
            if t < last:
                raise ValueError("dates must be non-decreasing")
            last = t

    @property
    def duration(self) -> Fraction:
        return self.events[-1][1] if self.events else Fraction(0)

    def __len__(self) -> int:
        return len(self.events)

    def letters(self) -> str:
        return "".join(a for a, _ in self.events)

    def text(self) -> str:
        return " ".join(f"({a},{t})" for a, t in self.events) if self.events else "(empty)"


def timed_word(events: Iterable[tuple[str, Union[Fraction, int, str]]]) -> TimedWord:
    return TimedWord(tuple((a, Fraction(t)) for a, t in events))


def directed_distance(w: TimedWord, v: TimedWord) -> Distance:
    """Max over w's events of the nearest same-letter date in v (min of an
    empty set is infinite; the max over no events is 0)."""
    worst: Distance = Fraction(0)
    for a, t in w.events:
        best: Distance = INF
        for b, s in v.events:
            if a == b:
                gap = abs(t - s)
                if gap < best:
                    best = gap
        if best > worst:
            worst = best
        if worst is INF:
            return INF
    return worst


def distance(w: TimedWord, v: TimedWord) -> Distance:
    d1 = directed_distance(w, v)
    if d1 is INF:
        return INF
    d2 = directed_distance(v, w)
    return d1 if d1 >= d2 else d2


def word_sort_key(w: TimedWord):
    return (w.duration, len(w), w.events)


def greedy_separated(words: Iterable[TimedWord], eps: Fraction) -> list[TimedWord]:
    """A maximal-by-inclusion subset with pairwise distances strictly above eps,
    grown in the deterministic (duration, length, events) insertion order.
    Being maximal, it is also an eps-net of the input: a word farther than eps
    from all of it could still be added."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    chosen: list[TimedWord] = []
    for w in sorted(set(words), key=word_sort_key):
        if all(distance(w, m) > eps for m in chosen):
            chosen.append(w)
    return chosen


_EXACT_LIMIT = 20


def exact_max_separated(words: Sequence[TimedWord], eps: Fraction) -> list[TimedWord]:
    """A maximum eps-separated subset by branch-and-bound over the
    compatibility graph; exponential, limited to small instances."""
    items = sorted(set(words), key=word_sort_key)
    if not items:
        raise ValueError("empty word set")
    if len(items) > _EXACT_LIMIT:
        raise ValueError(f"exact search limited to {_EXACT_LIMIT} words")
    n = len(items)
    compat = [[distance(items[i], items[j]) > eps for j in range(n)] for i in range(n)]
    best: list[int] = []

    def extend(chosen: list[int], candidates: list[int]):
        nonlocal best
        if len(chosen) + len(candidates) <= len(best):
            return
        if not candidates:
            if len(chosen) > len(best):
                best = chosen[:]
            return
        head, *rest = candidates
        extend(chosen + [head], [c for c in rest if compat[head][c]])
        extend(chosen, rest)

    extend([], list(range(n)))
    return [items[i] for i in best]


def exact_min_net(words: Sequence[TimedWord], eps: Fraction) -> list[TimedWord]:
    """A minimum covering net drawn from the set itself.

    Nets may live anywhere in the universe, but any maximal separated subset of
    the set is itself a net, so restricting candidates to the set preserves the
    capacity/entropy bracketing.
    """
    items = sorted(set(words), key=word_sort_key)
    if not items:
        raise ValueError("empty word set")
    if len(items) > _EXACT_LIMIT:
        raise ValueError(f"exact search limited to {_EXACT_LIMIT} words")
    n = len(items)
    covers = [sum(1 << j for j in range(n) if distance(items[i], items[j]) <= eps)
              for i in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for i in combo:
                mask |= covers[i]
            if mask == full:
                return [items[i] for i in combo]
    raise AssertionError("unreachable: the full set always covers itself")


def exact_capacity(words: Sequence[TimedWord], eps: Fraction) -> float:
    """log2 of the maximum eps-separated subset size."""
    return math.log2(len(exact_max_separated(words, eps)))


def exact_entropy(words: Sequence[TimedWord], eps: Fraction) -> float:
    """log2 of the minimum in-set eps-net size."""
    return math.log2(len(exact_min_net(words, eps)))


# -- word files --------------------------------------------------------------------


def parse_word(text: str) -> TimedWord:
    """One event per line: `<letter> <date>` with decimal or p/q dates."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<letter> <date>'")
        events.append((parts[0], Fraction(parts[1])))
    return timed_word(events)


def format_rational(x: Union[Fraction, float]) -> str:
    """Decimal when the denominator is 2^a 5^b, else p/q; inf passes through."""
    if x is INF or x == float("-inf"):
        return "inf" if x is INF else "-inf"
    x = Fraction(x)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    shift = max(twos, fives)
    scaled = x * 10 ** shift
    digits = f"{scaled.numerator:0{shift + 1}d}" if scaled >= 0 \
        else "-" + f"{-scaled.numerator:0{shift + 1}d}"
    if shift == 0:
        return digits
    sign = "-" if digits.startswith("-") else ""
    digits = digits.lstrip("-")
    return f"{sign}{digits[:-shift] or '0'}.{digits[-shift:]}"
