"""Timed-automaton data model, textual format, determinism check, concrete runs.

Clock values and dates are exact rationals (`fractions.Fraction`); no floating
point enters the semantics, so guard and region-membership tests are exact.
Guards are read through one window per clock (`Guard.windows`) with `int`
bounds.  Clocks are never negative, so `x <= 0` pins `x` to 0 as `x = 0`
does, and `fatnessApplicable` reads both as punctual.

The text format is read through one tokenizer, one keyword-section reader
(`_sections`) and one `lhs relation rhs` atom reader (`_atoms`); a
`ParseError` names the line and character column of the token it blames.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

RELATIONS = ("<", "<=", ">", ">=")


class TAError(Exception):
    """Base error for this package."""


class ParseError(TAError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ClockConstraint:
    """A single atom `clock ~ bound` with ~ in {<, <=, >, >=} and bound a natural."""

    clock: str
    relation: str
    bound: int

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"bad relation {self.relation!r}")
        if self.bound < 0:
            raise ValueError("bounds must be naturals")

    def holds(self, value: Fraction, closed: bool = False) -> bool:
        rel = self.relation
        if closed:
            rel = {"<": "<=", ">": ">="}.get(rel, rel)
        if rel == "<":
            return value < self.bound
        if rel == "<=":
            return value <= self.bound
        if rel == ">":
            return value > self.bound
        return value >= self.bound

    def text(self) -> str:
        return f"{self.clock} {self.relation} {self.bound}"


# Window of values one clock may take under a guard: (lo, lo_strict, hi,
# hi_strict) with `int` bounds, hi None when unbounded.  Clocks are never
# negative, so lo starts at 0, non-strict.
_Window = tuple[int, bool, Optional[int], bool]


def _window_point(w: _Window) -> Optional[Fraction]:
    """A value in the window, or None when it is empty."""
    lo, los, hi, his = w
    if hi is None:
        return Fraction(lo + los)
    if lo < hi:
        return Fraction(lo + hi, 2)
    if lo == hi and not (los or his):
        return Fraction(lo)
    return None


@dataclass(frozen=True)
class Guard:
    """Conjunction of clock constraints; the empty conjunction is true."""

    atoms: tuple[ClockConstraint, ...] = ()

    @cached_property
    def windows(self) -> dict[str, _Window]:
        """The window of each clock some atom constrains: the tightest lower
        and upper bounds, strict where a strict atom gives the bound."""
        out: dict[str, _Window] = {}
        for a in self.atoms:
            lo, los, hi, his = out.get(a.clock, (0, False, None, False))
            b = a.bound
            if a.relation == ">":
                if b >= lo:
                    lo, los = b, True
            elif a.relation == ">=":
                if b > lo:
                    lo, los = b, False
            elif a.relation == "<":
                if hi is None or b <= hi:
                    hi, his = b, True
            elif hi is None or b < hi:
                hi, his = b, False
            out[a.clock] = (lo, los, hi, his)
        return out

    def holds(self, values: Mapping[str, Fraction], closed: bool = False) -> bool:
        return all(a.holds(values[a.clock], closed) for a in self.atoms)

    def witness(self, clocks: Sequence[str]) -> Optional[dict[str, Fraction]]:
        """A clock vector satisfying the guard, or None."""
        points = {c: _window_point(w) for c, w in self.windows.items()}
        if None in points.values():
            return None
        return {c: points.get(c, Fraction(0)) for c in clocks}

    def conjoin(self, other: "Guard") -> "Guard":
        return Guard(self.atoms + other.atoms)

    def max_bound(self) -> int:
        return max((a.bound for a in self.atoms), default=0)

    def text(self) -> str:
        return ", ".join(a.text() for a in self.atoms)


TRUE_GUARD = Guard()


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    dst: str
    label: str
    guard: Guard = TRUE_GUARD
    resets: frozenset[str] = frozenset()

    def text(self) -> str:
        parts = [f"edge {self.src} -> {self.dst} on {self.label}"]
        if self.guard.atoms:
            parts.append(f"guard {self.guard.text()}")
        if self.resets:
            parts.append("reset " + ", ".join(sorted(self.resets)))
        return " ".join(parts)


ClockVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class State:
    """A location, the clock values (in automaton clock order) and the date."""

    location: str
    clocks: ClockVector
    date: Fraction = Fraction(0)


@dataclass
class TimedAutomaton:
    name: str
    clocks: tuple[str, ...]
    alphabet: tuple[str, ...]
    locations: tuple[str, ...]
    edges: tuple[Edge, ...]
    initial: dict[str, ClockVector]        # I: location -> the unique initial vector
    accepting: dict[str, Guard]            # F: only locations that can accept appear

    def __post_init__(self):
        self._index = {c: i for i, c in enumerate(self.clocks)}
        out: dict[str, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
        self._out = {q: tuple(es) for q, es in out.items()}
        self.validate()

    # -- bookkeeping ---------------------------------------------------------

    def validate(self) -> None:
        for what, names in (("clock", self.clocks), ("letter", self.alphabet)):
            for i, x in enumerate(names):
                if x in names[:i]:
                    raise TAError(f"duplicate {what} {x!r}")
        locs = set(self.locations)
        for e in self.edges:
            if e.src not in locs or e.dst not in locs:
                raise TAError(f"edge {e.name} uses undeclared location")
            if e.label not in self.alphabet:
                raise TAError(f"edge {e.name} uses undeclared letter {e.label!r}")
            for a in e.guard.atoms:
                if a.clock not in self._index:
                    raise TAError(f"edge {e.name} guards undeclared clock {a.clock!r}")
            if not e.resets <= set(self.clocks):
                raise TAError(f"edge {e.name} resets undeclared clocks")
        for q in list(self.initial) + list(self.accepting):
            if q not in locs:
                raise TAError(f"constraint on undeclared location {q!r}")
        for q, g in self.accepting.items():
            for a in g.atoms:
                if a.clock not in self._index:
                    raise TAError(f"accepting guard of {q!r} uses undeclared clock "
                                  f"{a.clock!r}")

    @property
    def max_constant(self) -> int:
        m = 0
        for e in self.edges:
            m = max(m, e.guard.max_bound())
        for g in self.accepting.values():
            m = max(m, g.max_bound())
        for v in self.initial.values():
            for x in v:
                if x == int(x):
                    m = max(m, int(x))
        return m

    def clock_index(self, clock: str) -> int:
        return self._index[clock]

    def values(self, clocks: ClockVector) -> dict[str, Fraction]:
        return dict(zip(self.clocks, clocks))

    def edges_from(self, loc: str) -> tuple[Edge, ...]:
        """The edges leaving `loc`, in `edges` order."""
        return self._out.get(loc, ())

    def edge_named(self, name: str) -> Edge:
        for e in self.edges:
            if e.name == name:
                return e
        raise TAError(f"no edge named {name!r}")

    # -- semantics helpers ---------------------------------------------------

    def initial_state(self) -> State:
        if len(self.initial) != 1:
            raise TAError("automaton does not have a unique initial location")
        (loc, vec), = self.initial.items()
        return State(loc, vec, Fraction(0))

    def starting_ok(self, loc: str, clocks: ClockVector, closed: bool = False) -> bool:
        """Every location admits every clock vector; a region-split automaton
        confines each location to its region."""
        return True

    def is_accepting(self, loc: str, clocks: ClockVector) -> bool:
        g = self.accepting.get(loc)
        if g is None:
            return False
        return g.holds(self.values(clocks))


# -- determinism --------------------------------------------------------------


@dataclass(frozen=True)
class DeterminismViolation:
    kind: str                       # "initial" or "guards"
    edges: tuple[str, ...]          # names of offending edges, may be empty
    witness: Optional[dict[str, Fraction]] = None
    detail: str = ""


@dataclass(frozen=True)
class DeterminismReport:
    deterministic: bool
    violations: tuple[DeterminismViolation, ...]


def check_deterministic(a: TimedAutomaton) -> DeterminismReport:
    """Unique initial state plus pairwise-disjoint guards on same-label edges.

    Disjointness is required for every pair of distinct same-source same-label
    edges; a satisfiable conjunction is reported together with a clock vector
    witnessing the overlap.
    """
    violations: list[DeterminismViolation] = []
    if len(a.initial) != 1:
        violations.append(DeterminismViolation(
            "initial", (), None,
            f"{len(a.initial)} locations carry an initial constraint (need exactly 1)"))
    by_key: dict[tuple[str, str], list[Edge]] = {}
    for e in a.edges:
        by_key.setdefault((e.src, e.label), []).append(e)
    for group in by_key.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                g = group[i].guard.conjoin(group[j].guard)
                w = g.witness(a.clocks)
                if w is not None:
                    violations.append(DeterminismViolation(
                        "guards", (group[i].name, group[j].name), w))
    return DeterminismReport(not violations, tuple(violations))


# -- concrete runs -------------------------------------------------------------


def step(a: TimedAutomaton, s: State, edge: Edge, t: Fraction,
         closed: bool = False) -> Optional[State]:
    """One transition at absolute date t; None when any run constraint fails."""
    if t < s.date or edge.src != s.location:
        return None
    delay = t - s.date
    tested = tuple(x + delay for x in s.clocks)
    if not edge.guard.holds(a.values(tested), closed):
        return None
    landed = tuple(Fraction(0) if c in edge.resets else v
                   for c, v in zip(a.clocks, tested))
    if not a.starting_ok(edge.dst, landed, closed):
        return None
    return State(edge.dst, landed, t)


@dataclass(frozen=True)
class RunResult:
    ok: bool
    word: tuple[tuple[str, Fraction], ...]
    accepted: bool
    reason: str = ""
    failed_step: Optional[int] = None


def check_run(a: TimedAutomaton, start: State,
              steps: Sequence[tuple[Edge, Fraction]],
              closed: bool = False) -> RunResult:
    """Replay a run and report its word plus acceptance.

    Acceptance requires the start state to be the automaton's initial state and
    the final state to satisfy the final constraint of its location.
    """
    if not a.starting_ok(start.location, start.clocks, closed):
        return RunResult(False, (), False, "start state violates starting constraint", 0)
    s = start
    word: list[tuple[str, Fraction]] = []
    for i, (edge, t) in enumerate(steps):
        nxt = step(a, s, edge, t, closed)
        if nxt is None:
            return RunResult(False, tuple(word), False,
                             f"step {i + 1} via {edge.name} at {t} infeasible", i + 1)
        word.append((edge.label, t))
        s = nxt
    initial_ok = (start.location in a.initial
                  and a.initial[start.location] == start.clocks
                  and start.date == 0)
    accepted = initial_ok and a.is_accepting(s.location, s.clocks)
    return RunResult(True, tuple(word), accepted)


# -- relabeling nondeterministic automata --------------------------------------


def relabel_deterministic(a: TimedAutomaton) -> tuple[TimedAutomaton, dict[str, str]]:
    """Rename conflicting same-label edges apart so the result is deterministic.

    Returns the relabeled automaton over an enlarged alphabet and the renaming
    back onto the original letters.  Identity when the input is already
    deterministic.  Initial-state nondeterminism cannot be repaired this way
    and raises.
    """
    report = check_deterministic(a)
    if report.deterministic:
        return a, {letter: letter for letter in a.alphabet}
    if any(v.kind == "initial" for v in report.violations):
        raise TAError("cannot relabel: initial constraint is not unique")

    conflicted: set[tuple[str, str]] = set()
    for v in report.violations:
        e = a.edge_named(v.edges[0])
        conflicted.add((e.src, e.label))

    used = set(a.alphabet)
    renaming: dict[str, str] = {letter: letter for letter in a.alphabet}
    new_edges: list[Edge] = []
    counters: dict[str, int] = {}
    for e in a.edges:
        if (e.src, e.label) in conflicted:
            k = counters.get(e.label, 0) + 1
            fresh = f"{e.label}{k}"
            while fresh in used:
                k += 1
                fresh = f"{e.label}{k}"
            counters[e.label] = k
            used.add(fresh)
            renaming[fresh] = e.label
            new_edges.append(Edge(e.name, e.src, e.dst, fresh, e.guard, e.resets))
        else:
            new_edges.append(e)
    letters = tuple(sorted(used))
    out = TimedAutomaton(a.name + "_det", a.clocks, letters, a.locations,
                         tuple(new_edges), dict(a.initial), dict(a.accepting))
    # drop letters that no edge uses any more (renamed-away originals)
    live = {e.label for e in out.edges}
    renaming = {g: s for g, s in renaming.items() if g in live}
    out.alphabet = tuple(sorted(live))
    return out, renaming


# -- parsing --------------------------------------------------------------------

_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_'.]*$")
_TOKEN = re.compile(r"->|<=|>=|[<>=,]|[^\s<>=,]+")
_RELS = (*RELATIONS, "=")


class _LineParser:
    """The tokens of one line with its comment cut off.  An error names the
    character column where the token it blames starts (one past the last
    token at the end of the line), found only when an error is raised."""

    def __init__(self, line: str, lineno: int):
        self.line = line
        self.toks = _TOKEN.findall(line)
        self.pos = 0
        self.lineno = lineno

    def error(self, msg: str, at: Optional[int] = None):
        at = self.pos - 1 if at is None else at  # by default the token last taken
        starts = [m.start() + 1 for m in _TOKEN.finditer(self.line)]
        column = starts[at] if at < len(starts) else len(self.line.rstrip()) + 1
        raise ParseError(msg, self.lineno, column)

    def peek(self, ahead: int = 0) -> Optional[str]:
        return self.toks[self.pos + ahead] if self.pos + ahead < len(self.toks) else None

    def take(self) -> str:
        if self.pos >= len(self.toks):
            self.error("unexpected end of line", self.pos)
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, token: str):
        t = self.take()
        if t != token:
            self.error(f"expected {token!r}, found {t!r}")

    def ident(self) -> str:
        t = self.take()
        if not _ID.match(t):
            self.error(f"expected identifier, found {t!r}")
        return t

    def nat(self) -> int:
        t = self.take()
        if not t.isdecimal():
            self.error(f"expected natural number, found {t!r}")
        return int(t)

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def distinct(self, read, what: str) -> tuple[str, ...]:
        """The rest of the line, read token by token, with no item twice."""
        got: list[str] = []
        while not self.done():
            t = read()
            if t in got:
                self.error(f"duplicate {what} {t!r}")
            got.append(t)
        return tuple(got)


def _atoms(p: _LineParser, stop, lhs, rhs, loose: bool = False) -> list[tuple]:
    """Atoms `lhs relation rhs` as (index of the first token, lhs, relation,
    rhs) up to the end of the line or a word of `stop` no relation follows,
    with an optional comma after each (`loose`: and stray commas skipped)."""
    atoms: list[tuple] = []
    while True:
        while loose and p.peek() == ",":
            p.take()
        if p.done() or p.peek() in stop and p.peek(1) not in _RELS:
            return atoms
        i, left, rel = p.pos, lhs(), p.take()
        if rel not in _RELS:
            p.error(f"expected relation, found {rel!r}")
        atoms.append((i, left, rel, rhs()))
        if p.peek() == ",":
            p.take()


def _sections(p: _LineParser, what: str, words: tuple[str, str]) -> dict[str, object]:
    """Keyword sections up to the end of the line, in any order, each at most
    once: `reset` takes a list of clocks, any other keyword a list of atoms."""
    got: dict[str, object] = {}
    while not p.done():
        kw = p.take()
        if kw not in words:
            p.error(f"unexpected token {kw!r}")
        if kw in got:
            p.error(f"duplicate {kw!r} on one {what} line")
        if kw == "reset":
            clocks = [p.ident()]
            while p.peek() == ",":
                p.take()
                clocks.append(p.ident())
                if clocks[-1] in clocks[:-1]:
                    p.error(f"duplicate clock {clocks[-1]!r}")
            got[kw] = frozenset(clocks)
        else:
            got[kw] = _atoms(p, words, p.ident, p.nat)
    return got


def _guard(p: _LineParser, atoms: list[tuple]) -> Guard:
    """The guard the atoms conjoin, `x = k` as `x <= k, x >= k`.  An atom
    written with `=` whose clock the guard leaves no value is an error."""
    guard = Guard(tuple(ClockConstraint(c, r, k) for _, c, rel, k in atoms
                        for r in (("<=", ">=") if rel == "=" else (rel,))))
    for i, c, rel, _ in atoms:
        if rel == "=" and _window_point(guard.windows[c]) is None:
            p.error(f"unsatisfiable equality constraints on clock {c!r}", i)
    return guard


def parse_automaton(text: str):
    """Parse the line-oriented automaton format.

    Returns a `TimedAutomaton`, or a `RegionSplitAutomaton` when the source
    carries `starting` region lines (see `tempoclass.splitting`).
    """
    name = None
    clocks: tuple[str, ...] = ()
    alphabet: tuple[str, ...] = ()
    locations: list[str] = []
    edges: list[Edge] = []
    accepting: dict[str, Guard] = {}
    initial_atoms: dict[str, tuple[_LineParser, list[tuple]]] = {}
    starting: dict[str, tuple[_LineParser, list[tuple]]] = {}
    heads: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        p = _LineParser(raw.split("#", 1)[0], lineno)
        if p.done():
            continue
        head = p.take()
        if head in ("automaton", "clocks", "alphabet"):
            if head in heads:
                p.error(f"duplicate {head!r} line")
            heads.add(head)
        if head == "automaton":
            name = p.ident()
        elif head == "clocks":
            clocks = p.distinct(p.ident, "clock")
        elif head == "alphabet":
            alphabet = p.distinct(p.take, "letter")
        elif head == "location":
            loc = p.ident()
            if loc in locations:
                p.error(f"duplicate location {loc!r}")
            locations.append(loc)
            parts = _sections(p, head, ("initial", "accepting"))
            if "initial" in parts:
                seen: set[str] = set()
                for i, c, rel, _ in parts["initial"]:
                    if rel != "=":
                        p.error(f"expected '=', found {rel!r}", i + 1)
                    if c in seen:
                        p.error(f"duplicate initial value for clock {c!r}", i)
                    seen.add(c)
                initial_atoms[loc] = (p, parts["initial"])
            if "accepting" in parts:
                accepting[loc] = _guard(p, parts["accepting"])
        elif head == "edge":
            src = p.ident()
            p.expect("->")
            dst = p.ident()
            p.expect("on")
            labels = [p.take()]
            while p.peek() == ",":
                p.take()
                labels.append(p.take())
            parts = _sections(p, head, ("guard", "reset"))
            guard = _guard(p, parts["guard"]) if "guard" in parts else TRUE_GUARD
            for lbl in labels:
                edges.append(Edge(f"d{len(edges) + 1}", src, dst, lbl, guard,
                                  parts.get("reset", frozenset())))
        elif head == "starting":
            loc = p.ident()
            if loc in starting:
                p.error(f"duplicate starting line for location {loc!r}")
            starting[loc] = (p, _atoms(p, (), p.take, p.take, loose=True))
        else:
            p.error(f"unknown directive {head!r}")

    if name is None:
        raise ParseError("missing 'automaton' line", 1, 1)
    initial: dict[str, ClockVector] = {}
    for loc, (p, atoms) in initial_atoms.items():
        for i, c, _, _ in atoms:
            if c not in clocks:
                p.error(f"initial value for undeclared clock {c!r}", i)
        values = {c: k for _, c, _, k in atoms}
        initial[loc] = tuple(Fraction(values.get(c, 0)) for c in clocks)

    ta = TimedAutomaton(name, clocks, alphabet, tuple(locations), tuple(edges),
                        initial, accepting)
    if starting:
        from .splitting import attach_starting_regions
        return attach_starting_regions(ta, starting)
    return ta


def serialize_automaton(a) -> str:
    """Textual form; `parse_automaton` of the output reproduces the structure."""
    out = [f"automaton {a.name}"]
    if a.clocks:
        out.append("clocks " + " ".join(a.clocks))
    out.append("alphabet " + " ".join(a.alphabet))
    for q in a.locations:
        parts = [f"location {q}"]
        if q in a.initial:
            vec = a.initial[q]
            parts.append("initial")
            if a.clocks:
                parts.append(",".join(f"{c}={int(v)}" for c, v in zip(a.clocks, vec)))
        if q in a.accepting:
            parts.append("accepting")
            g = a.accepting[q]
            if g.atoms:
                parts.append(g.text())
        out.append(" ".join(parts))
    starting_regions = getattr(a, "regions", None)
    if starting_regions:
        from .splitting import region_expr_text
        for q in a.locations:
            out.append(f"starting {q} {region_expr_text(a, starting_regions[q])}")
    for e in a.edges:
        out.append(e.text())
    return "\n".join(out) + "\n"
