"""Difference-bound matrices for the timing polytopes of closed paths.

Entry (i, j) bounds t_j - t_i with t_0 = 0: an exact rational entry v (an
`int` or a `Fraction`) means t_j - t_i <= v, and None means the difference is
unbounded.  Every bound is closed: orbit entries are read off the closure of a
path language, so no system the library builds has a strict bound.

Guard bounds are naturals and the constants the translation adds are 0 and -1,
so a query between integer vertices, which is every query the
`path_orbit_direct` oracle makes, builds and closes a matrix of plain `int`s.
`Fraction` inputs mix in exactly: the entries they touch become `Fraction`s.

No runtime path builds a DBM or a `LanguageClass`: the edge table maps each
edge's delay interval to its entries (`orbits.edge_orbit_table`).  This
module is the reference that `path_orbit_direct` and the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Optional, Sequence


@dataclass(frozen=True)
class Interval:
    """Projection of a zone onto one variable, closed at both ends."""

    lo: Rational
    hi: Optional[Rational]          # None = unbounded above

    @property
    def punctual(self) -> bool:
        return self.lo == self.hi

    def covers_unit(self) -> bool:
        """Whether the interval contains [0, 1]."""
        return self.lo <= 0 and (self.hi is None or self.hi >= 1)


class Dbm:
    """(n+1) x (n+1) matrix of bounds on t_j - t_i (None = unbounded)."""

    def __init__(self, n: int, entries: Optional[list[list[Optional[Rational]]]] = None):
        self.n = n
        if entries is None:
            entries = [[0 if i == j else None for j in range(n + 1)]
                       for i in range(n + 1)]
        self.entries = entries

    def copy(self) -> "Dbm":
        return Dbm(self.n, [row[:] for row in self.entries])

    def tighten(self, i: int, j: int, bound: Rational) -> None:
        """Lower entry (i, j) to `bound` unless it is already at most that."""
        old = self.entries[i][j]
        if old is None or bound < old:
            self.entries[i][j] = bound

    def __eq__(self, other) -> bool:
        return isinstance(other, Dbm) and self.n == other.n and self.entries == other.entries

    def dump(self) -> str:
        return "\n".join(",".join("inf" if b is None else str(b) for b in row)
                         for row in self.entries)


def canonicalize(d: Dbm) -> Optional[Dbm]:
    """All-pairs shortest-path closure; None when some cycle is negative."""
    c = d.copy()
    m = c.entries
    size = c.n + 1
    for k in range(size):
        row_k = m[k]
        for i in range(size):
            ik = m[i][k]
            if ik is None:
                continue
            row_i = m[i]
            for j in range(size):
                kj = row_k[j]
                if kj is None:
                    continue
                via = ik + kj
                ij = row_i[j]
                if ij is None or via < ij:
                    row_i[j] = via
    if any(m[i][i] < 0 for i in range(size)):
        return None
    return c


def project(d: Dbm, i: int) -> Interval:
    """Feasible values of t_i in a canonical, non-empty DBM."""
    if not (1 <= i <= d.n):
        raise ValueError("projection index out of range")
    down = d.entries[i][0]
    if down is None:
        raise ValueError("projection is unbounded below; timing DBMs always bound t_i >= 0")
    return Interval(-down, d.entries[0][i])


def project_raw(d: Dbm, i: int) -> tuple[Optional[Rational], Optional[Rational]]:
    """(upper bound on t_i, upper bound on -t_i), None where unbounded."""
    return d.entries[0][i], d.entries[i][0]


# -- path-timing DBMs -----------------------------------------------------------


def path_timing_dbm(automaton, path, x: Sequence[Rational], y: Sequence[Rational]) -> Dbm:
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
            d.tighten(0, 0, -1)  # infeasible marker: negative self-loop
        return d

    # dates are non-decreasing, and t_1 >= t_0 = 0
    for j in range(1, n + 1):
        d.tighten(j, j - 1, 0)

    last_reset = {c: 0 for c in range(len(clocks))}  # 0 = "never reset" sentinel
    reset_by_step = [frozenset(automaton.clock_index(c) for c in e.resets) for e in path]

    for j, edge in enumerate(path, start=1):
        for atom in edge.guard.atoms:
            c = automaton.clock_index(atom.clock)
            i = last_reset[c]
            b = atom.bound
            upper = atom.relation in ("<", "<=")
            if i == 0:
                # value tested is x_c + t_j
                if upper:
                    d.tighten(0, j, b - x[c])
                else:
                    d.tighten(j, 0, x[c] - b)
            else:
                # value tested is t_j - t_i
                if upper:
                    d.tighten(i, j, b)
                else:
                    d.tighten(j, i, -b)
        for c in reset_by_step[j - 1]:
            last_reset[c] = j

    for c in range(len(clocks)):
        i = last_reset[c]
        if i == 0:
            # never reset: y_c = x_c + t_n
            d.tighten(0, n, y[c] - x[c])
            d.tighten(n, 0, x[c] - y[c])
        else:
            # reset last at step i: t_n - t_i = y_c
            d.tighten(i, n, y[c])
            d.tighten(n, i, -y[c])

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
    a single timed word, or a wide set with its exact duration interval.

    The vertices are used as given: integer vertices keep every entry and the
    duration an `int`, and `Fraction` ones give the same values as
    `Fraction`s."""
    d = canonicalize(path_timing_dbm(automaton, path, v, v_prime))
    if d is None:
        return LanguageClass("empty")
    n = d.n
    if n == 0:
        return LanguageClass("singleton", Interval(0, 0))
    projections = [project(d, i) for i in range(1, n + 1)]
    kind = "singleton" if all(p.punctual for p in projections) else "wide"
    return LanguageClass(kind, projections[-1])
