"""Instances, operations and goldens of the tempoclass benchmark.

Every instance is generated here as automaton text; there are no data files
besides the goldens.  Each operation calls only public tempoclass functions.
An operation comes in two forms: untraced (one library call, as a user would
make it) and traced (the same pipeline spelled out call by call, each call
inside a span, with counts recorded at the same boundaries).

The library is imported from the checkout's own ``src`` directory; the caller
puts it on ``sys.path`` first.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from tempoclass import classify, parse_automaton, region_split
from tempoclass.bandwidth import (CurveRow, EnumerationCapExceeded,
                                  bandwidth_curve, enumerate_words,
                                  estimate_capacity, fit_class)
from tempoclass.classify import (is_structurally_meager, is_structurally_obese,
                                 is_thick, saturate)
from tempoclass.corpus import SOURCES as CORPUS_SOURCES
from tempoclass.orbits import KINDS, edge_orbit

GOLDENS = Path(__file__).with_name("goldens.json")

WORKLOADS = ("corpus", "saturation", "lab")


# -- instances ---------------------------------------------------------------------


def fam(k: int) -> str:
    """The scaling family fam(K, 2): two clocks, constants up to K."""
    return f"""\
automaton fam_{k}_2
clocks x y
alphabet a b c
location q initial accepting
location p accepting
edge q -> p on a guard x < {k} reset x
edge p -> q on b guard y > 1, y < {k} reset y
edge q -> q on c guard x < 1
"""


def ring3(name: str, guard_a: str, guard_b: str, guard_c: str) -> str:
    """A three-location cycle q -> p -> r -> q, one clock reset per edge."""
    return f"""\
automaton {name}
clocks x y z
alphabet a b c
location q initial
location p accepting
location r accepting
edge q -> p on a guard {guard_a} reset x
edge p -> r on b guard {guard_b} reset y
edge r -> q on c guard {guard_c} reset z
"""


def saturation_sources() -> dict[str, str]:
    out = {f"fam_{k}_2": fam(k) for k in range(2, 7)}
    # normal and thick; f monoid of about 2 * 10^4 elements
    out["ring3_zx"] = ring3("ring3_zx", "x < 2", "y > 1, y < 2", "z < 2, x < 1")
    # obese (type I) and thick; f monoid of about 1.4 * 10^4 elements
    out["ring3_y2"] = ring3("ring3_y2", "x < 2", "y < 2", "z < 1")
    return out


# The criterion-7 fit plan of the acceptance tests, cut to three epsilons (the
# fewest a fit accepts) and tighter word caps on a1 and a6, so that one pass
# of the plan takes seconds rather than minutes.  Each automaton still hits
# its cap on some duration, and a4 at 1/8 still spends most of its time in
# the greedy separated set.
EPS_SCHEDULE = (F(1, 2), F(1, 4), F(1, 8))
LAB_PLAN = {
    "a1": ((F(3, 16), F(3, 8), F(3, 4), F(3, 2)), 5_000),
    "a5": ((F(40),), 100_000),
    "a4": ((F(10),), 500_000),
    "a6": ((F(2), F(4), F(6)), 20_000),
}


def sources(workload: str) -> dict[str, str]:
    if workload == "corpus":
        return dict(CORPUS_SOURCES)
    if workload == "saturation":
        return saturation_sources()
    if workload == "lab":
        return {name: CORPUS_SOURCES[name] for name in LAB_PLAN}
    raise ValueError(f"unknown workload {workload!r}")


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


# -- outcomes compared against the goldens -----------------------------------------


def verdict_key(cls: str, obesity_type, fatness: str) -> list:
    return [cls, obesity_type, fatness]


def curve_key(rows, fit) -> dict:
    return {"rows": [[str(r.eps), str(r.duration), r.word_count,
                      round(2 ** r.capacity_bits)] for r in rows],
            "model": fit.model}


# -- untraced operations -------------------------------------------------------------


def classify_op(text: str, mode: str) -> list:
    v = classify(parse_automaton(text), mode=mode)
    return verdict_key(v.classification, v.obesity_type, v.fatness)


def curve_op(name: str, text: str) -> dict:
    durations, cap = LAB_PLAN[name]
    rows = bandwidth_curve(parse_automaton(text), durations, EPS_SCHEDULE, cap=cap)
    return curve_key(rows, fit_class(rows))


# -- tracing -------------------------------------------------------------------------


class Tracer:
    """Spans and counts kept in memory.

    A span is ``[name, start, end, parent, op, note]``: ``parent`` is the index
    of the enclosing span (``None`` at the root), ``op`` the id of the
    operation it belongs to, ``note`` a marker such as ``"cap"`` for an
    enumeration that hit its cap.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op += 1
        rec = [name, time.perf_counter(), None, parent, self._op, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def saturate_products(rs, reach) -> int:
    """``orbit_compose`` calls ``saturate`` made, counted from its result: the
    unit is extended by every edge, any other element by the out-edges of its
    target location."""
    out_degree = Counter(e.src for e in rs.edges)
    return sum(len(rs.edges) if elem.tag == "one" else out_degree[elem.dst]
               for elem in reach)


def language_class_calls(rs) -> int:
    """``language_class`` calls behind one edge orbit of every edge."""
    return sum(len(rs.location_vertices(e.src)) * len(rs.location_vertices(e.dst))
               for e in rs.edges)


# -- traced operations ---------------------------------------------------------------


def traced_classify_op(tr: Tracer, text: str, mode: str) -> list:
    """``classify`` spelled out: parse, region split, then either edge orbits,
    saturation per kind and the checks on the saturated monoids (bfs), or the
    savitch-mode checks."""
    with tr.span(f"bench.classify_{mode}"):
        with tr.span("ta.parse"):
            a = parse_automaton(text)
        with tr.span("splitting.region_split"):
            rs = region_split(a)
        tr.count("splitting.locations", len(rs.locations))
        tr.count("splitting.edges", len(rs.edges))
        if not rs.locations:
            return verdict_key("meager", None, "thin")
        if mode == "savitch":
            with tr.span("classify.savitch"):
                meager = is_structurally_meager(rs, mode="savitch")
                obese = is_structurally_obese(rs, mode="savitch")
                thick = is_thick(rs)
        else:
            reach = {}
            for kind in KINDS:
                with tr.span(f"orbits.edge_orbit_{kind}"):
                    for e in rs.edges:
                        edge_orbit(rs, e, kind)
                tr.count("orbits.edge_orbit_calls", len(rs.edges))
                tr.count("dbm.language_class_calls", language_class_calls(rs))
                with tr.span(f"classify.saturate_{kind}"):
                    reach[kind] = saturate(rs, kind)
                tr.count(f"classify.saturate_{kind}_elements", len(reach[kind]))
                tr.count(f"classify.saturate_{kind}_products",
                         saturate_products(rs, reach[kind]))
            with tr.span("classify.checks"):
                meager = is_structurally_meager(rs, reach=reach["f"])
                obese = is_structurally_obese(rs, reach_d=reach["d"],
                                              reach_p=reach["p"])
                thick = is_thick(rs, reach=reach["p"])
    cls = "meager" if meager.meager else "obese" if obese.obese else "normal"
    return verdict_key(cls, obese.obesity_type if obese.obese else None,
                       "thick" if thick.thick else "thin")


def traced_curve_op(tr: Tracer, name: str, text: str) -> dict:
    """``bandwidth_curve`` and ``fit_class`` spelled out: per epsilon, one
    enumeration and one greedy separated set per aligned duration, stopping
    at the first enumeration that hits the cap."""
    durations, cap = LAB_PLAN[name]
    with tr.span("bench.curve"):
        with tr.span("ta.parse"):
            a = parse_automaton(text)
        rows = []
        for eps in EPS_SCHEDULE:
            grid = eps / 2
            best = None
            for t in sorted(durations):
                if t % grid != 0:
                    continue
                with tr.span("bandwidth.enumerate") as sp:
                    try:
                        words = enumerate_words(a, t, grid, cap)
                    except EnumerationCapExceeded:
                        words = None
                        sp[5] = "cap"
                if words is None:
                    tr.count("bandwidth.enumerate_cap_hits")
                    break
                with tr.span("bandwidth.greedy"):
                    est = estimate_capacity(a, t, eps, grid, cap, words=words)
                tr.count("bandwidth.words", est.word_count)
                tr.count("bandwidth.kept", est.separated_size)
                if est.empty:
                    continue
                best = CurveRow(eps, t, grid, est.capacity_bits,
                                est.entropy_bits, est.word_count)
            if best is not None:
                rows.append(best)
        with tr.span("bandwidth.fit"):
            fit = fit_class(rows)
    return curve_key(rows, fit)


# -- passes --------------------------------------------------------------------------


def pass_ops(workload: str, order: list[str]) -> list[tuple[str, str]]:
    """The (instance, mode) operations of one pass, in order.  A corpus pass
    classifies every automaton in bfs mode and then again in savitch mode."""
    if workload == "corpus":
        return [(n, "bfs") for n in order] + [(n, "savitch") for n in order]
    if workload == "saturation":
        return [(n, "bfs") for n in order]
    return [(n, "curve") for n in order]


def run_op(tr, workload: str, name: str, mode: str, text: str):
    """One operation, traced when ``tr`` is a Tracer."""
    if workload == "lab":
        return curve_op(name, text) if tr is None else traced_curve_op(tr, name, text)
    if tr is None:
        return classify_op(text, mode)
    return traced_classify_op(tr, text, mode)
