"""Difference-bound matrices for the timing polytopes of closed paths.

Entry (i, j) bounds t_j - t_i with t_0 = 0.  Every bound is closed (t_j - t_i
<= value): orbit entries are read off the closure of a path language, so no
system the library builds has a strict bound.  Addition saturates at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class Bound:
    """Either a finite closed bound (value) or infinity (value None)."""

    value: Optional[Fraction]

    @staticmethod
    def inf() -> "Bound":
        return _INF

    @staticmethod
    def of(value) -> "Bound":
        return Bound(Fraction(value))

    @property
    def infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "Bound") -> "Bound":
        if self.infinite or other.infinite:
            return _INF
        return Bound(self.value + other.value)

    def tighter_than(self, other: "Bound") -> bool:
        """Strict order: self admits strictly fewer values than other."""
        if other.infinite:
            return not self.infinite
        if self.infinite:
            return False
        return self.value < other.value

    def min(self, other: "Bound") -> "Bound":
        return self if self.tighter_than(other) else other

    def negative(self) -> bool:
        """True when a cycle of this weight is infeasible (sum < 0)."""
        return not self.infinite and self.value < 0

    def text(self) -> str:
        return "inf" if self.infinite else str(self.value)


_INF = Bound(None)
ZERO_BOUND = Bound(Fraction(0))


@dataclass(frozen=True)
class Interval:
    """Projection of a zone onto one variable, closed at both ends."""

    lo: Fraction
    hi: Optional[Fraction]          # None = unbounded above

    @property
    def punctual(self) -> bool:
        return self.lo == self.hi

    def covers_unit(self) -> bool:
        """Whether the interval contains [0, 1]."""
        return self.lo <= 0 and (self.hi is None or self.hi >= 1)


class Dbm:
    """(n+1) x (n+1) matrix of bounds on t_j - t_i."""

    def __init__(self, n: int, entries: Optional[list[list[Bound]]] = None):
        self.n = n
        if entries is None:
            entries = [[ZERO_BOUND if i == j else _INF for j in range(n + 1)]
                       for i in range(n + 1)]
        self.entries = entries

    def copy(self) -> "Dbm":
        return Dbm(self.n, [row[:] for row in self.entries])

    def tighten(self, i: int, j: int, bound: Bound) -> None:
        self.entries[i][j] = self.entries[i][j].min(bound)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dbm) and self.n == other.n and self.entries == other.entries

    def dump(self) -> str:
        return "\n".join(",".join(b.text() for b in row) for row in self.entries)


def canonicalize(d: Dbm) -> Optional[Dbm]:
    """All-pairs shortest-path closure; None when some cycle is negative."""
    c = d.copy()
    m = c.entries
    size = c.n + 1
    for k in range(size):
        row_k = m[k]
        for i in range(size):
            ik = m[i][k]
            if ik.infinite:
                continue
            row_i = m[i]
            for j in range(size):
                via = ik + row_k[j]
                if via.tighter_than(row_i[j]):
                    row_i[j] = via
    for i in range(size):
        if m[i][i].negative():
            return None
        m[i][i] = ZERO_BOUND
    return c


def project(d: Dbm, i: int) -> Interval:
    """Feasible values of t_i in a canonical, non-empty DBM."""
    if not (1 <= i <= d.n):
        raise ValueError("projection index out of range")
    up = d.entries[0][i]
    down = d.entries[i][0]
    if down.infinite:
        raise ValueError("projection is unbounded below; timing DBMs always bound t_i >= 0")
    return Interval(-down.value, up.value)


def project_raw(d: Dbm, i: int) -> tuple[Bound, Bound]:
    """(upper bound on t_i, upper bound on -t_i) for callers that need ±inf."""
    return d.entries[0][i], d.entries[i][0]


# -- path-timing DBMs -----------------------------------------------------------


def path_timing_dbm(automaton, path, x: Sequence[Fraction], y: Sequence[Fraction]) -> Dbm:
    """Timing polytope of the closure of `path` from clock vector x to y.

    The translation follows the run constraints: guard atoms become entries via
    the last reset of the tested clock, final clock values pin border entries,
    and date monotonicity contributes the zero bounds below the diagonal.  All
    guards are taken closed.  Returns a non-canonical `Dbm` (canonicalize to
    decide emptiness).
    """
    clocks = automaton.clocks
    n = len(path)
    for a, b in zip(path, path[1:]):
        if a.dst != b.src:
            raise ValueError("edge sequence is not a path")
    d = Dbm(n)

    if n == 0:
        if tuple(x) != tuple(y):
            d.tighten(0, 0, Bound.of(-1))  # infeasible marker: negative self-loop
        return d

    # dates are non-decreasing, and t_1 >= t_0 = 0
    for j in range(1, n + 1):
        d.tighten(j, j - 1, ZERO_BOUND)

    last_reset = {c: 0 for c in range(len(clocks))}  # 0 = "never reset" sentinel
    reset_by_step = [frozenset(automaton.clock_index(c) for c in e.resets) for e in path]

    for j, edge in enumerate(path, start=1):
        for atom in edge.guard.atoms:
            c = automaton.clock_index(atom.clock)
            i = last_reset[c]
            b = Fraction(atom.bound)
            upper = atom.relation in ("<", "<=")
            if i == 0:
                # value tested is x_c + t_j
                if upper:
                    d.tighten(0, j, Bound(b - x[c]))
                else:
                    d.tighten(j, 0, Bound(x[c] - b))
            else:
                # value tested is t_j - t_i
                if upper:
                    d.tighten(i, j, Bound(b))
                else:
                    d.tighten(j, i, Bound(-b))
        for c in reset_by_step[j - 1]:
            last_reset[c] = j

    for c in range(len(clocks)):
        i = last_reset[c]
        if i == 0:
            # never reset: y_c = x_c + t_n
            d.tighten(0, n, Bound(y[c] - x[c]))
            d.tighten(n, 0, Bound(x[c] - y[c]))
        else:
            # reset last at step i: t_n - t_i = y_c
            d.tighten(i, n, Bound(Fraction(y[c])))
            d.tighten(n, i, Bound(-Fraction(y[c])))

    return d


# -- language-class queries ------------------------------------------------------


@dataclass(frozen=True)
class LanguageClass:
    """Shape of the closed-path language between two region vertices."""

    kind: str                                # "empty" | "singleton" | "wide"
    duration: Optional[Interval] = None      # absent for empty

    @property
    def empty(self) -> bool:
        return self.kind == "empty"


def language_class(automaton, path, v, v_prime) -> LanguageClass:
    """Classify L over the closed path from vertex v to vertex v': empty,
    a single timed word, or a wide set with its exact duration interval."""
    x = tuple(Fraction(c) for c in v)
    y = tuple(Fraction(c) for c in v_prime)
    d = canonicalize(path_timing_dbm(automaton, path, x, y))
    if d is None:
        return LanguageClass("empty")
    n = d.n
    if n == 0:
        return LanguageClass("singleton", Interval(Fraction(0), Fraction(0)))
    projections = [project(d, i) for i in range(1, n + 1)]
    kind = "singleton" if all(p.punctual for p in projections) else "wide"
    return LanguageClass(kind, projections[-1])
