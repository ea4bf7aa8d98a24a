"""The tempoclass benchmark: one stdlib-only command.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One single-threaded process drives the library in a closed loop: each call
starts when the previous one returns.  The run repeats passes over the
workload's operations until ``--seconds`` have elapsed; the seed permutes the
order of the operations within each pass and never changes the amount of
work.  Every result is checked against ``perfbench/goldens.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; its spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes:
    --setup-only      import the library and build the instances, then exit
                      (what ``setup_s`` times, in a fresh interpreter)
    --write-goldens   record the outcome of one untraced pass per workload
    --write-manifest  write BENCHMARK.json and perfbench/METRICS.md
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_SECONDS = 30
SETUP_PROBES = 7

WORKLOAD_WHY = {
    "corpus": "the ten corpus automata in bfs and then savitch mode; small "
              "monoids, so per-edge DBM work and the two uses of orbit_compose "
              "dominate",
    "saturation": "fam(K,2) for K=2..6 and two three-clock rings with 10^4-size "
                  "monoids; product and memory cost of saturation dominate",
    "lab": "bandwidth curves and fits of the criterion-7 plan on three epsilons; "
           "grid enumeration and the greedy separated set, no saturation or DBM",
}

# name, unit, better, bound, meaning
END_TO_END = [
    ("pass_s", "s", "lower", 0.25,
     "median wall seconds of one pass: bfs then savitch classify of the ten "
     "automata (corpus), bfs classify of every instance (saturation), every "
     "curve and fit of the plan (lab)"),
    ("op_geo_ms", "ms", "lower", 0.25,
     "geometric mean over the pass's operations of each one's median time, "
     "so small instances are not hidden behind the largest"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the benchmark process"),
    ("setup_s", "s", "lower", 0.25,
     f"median over {SETUP_PROBES} fresh interpreters of the time to import the "
     "library and build the workload's instances"),
]

_GEO = "pass_s, op_geo_ms"
# name, unit, better, end-to-end metric it should move, workloads
PER_LAYER = [
    ("ta.parse_s", "s", "lower", "pass_s (expected negligible)", "corpus, lab"),
    ("splitting.region_split_s", "s", "lower", "pass_s", "corpus, saturation"),
    ("splitting.locations", "count", "lower", "pass_s", "corpus, saturation"),
    ("splitting.edges", "count", "lower", "pass_s", "corpus, saturation"),
    ("orbits.edge_orbit_s", "s", "lower", _GEO,
     "corpus (dominant), saturation (minor)"),
    ("orbits.edge_orbit_calls", "count", "lower", _GEO, "corpus, saturation"),
    ("orbits.edge_orbit_us_per_call", "us", "lower", _GEO, "corpus, saturation"),
    ("dbm.language_class_calls", "count", "lower", _GEO,
     "corpus (dominant), saturation (minor)"),
]
for _k in "pfd":
    PER_LAYER += [
        (f"classify.saturate_{_k}_s", "s", "lower", _GEO,
         "saturation (dominant), corpus (minor)"),
        (f"classify.saturate_{_k}_self_s", "s", "lower", _GEO,
         "saturation; derived: saturate time minus this kind's edge-orbit time"),
        (f"classify.saturate_{_k}_elements", "count", "lower", "peak_rss_mb",
         "saturation"),
        (f"classify.saturate_{_k}_products", "count", "lower", _GEO,
         "saturation (dominant), corpus (minor)"),
        (f"classify.saturate_{_k}_new_ratio", "ratio", "higher", _GEO,
         "saturation (dominant), corpus (minor)"),
        (f"classify.saturate_{_k}_elements_per_s", "1/s", "higher", _GEO,
         "saturation (dominant), corpus (minor)"),
    ]
PER_LAYER += [
    ("classify.checks_s", "s", "lower", "pass_s", "saturation"),
    ("classify.savitch_s", "s", "lower", "pass_s (the savitch half)", "corpus"),
    ("bandwidth.enumerate_s", "s", "lower", "pass_s, peak_rss_mb", "lab"),
    ("bandwidth.words", "count", "lower", "pass_s, peak_rss_mb", "lab"),
    ("bandwidth.enumerate_cap_hits", "count", "lower", "pass_s", "lab"),
    ("bandwidth.enumerate_cap_s", "s", "lower", "pass_s", "lab"),
    ("bandwidth.greedy_s", "s", "lower", "pass_s", "lab"),
    ("bandwidth.kept", "count", "higher", "pass_s", "lab"),
    ("bandwidth.kept_ratio", "ratio", "higher", "pass_s", "lab"),
    ("bandwidth.fit_s", "s", "lower", "pass_s (expected negligible)", "lab"),
    ("bench.self_s", "s", "lower", "none: harness time inside operation spans",
     "all"),
    ("trace.spans", "count", "lower", "none: spans recorded per traced pass", "all"),
    ("trace.pass_s", "s", "lower", "none: median traced pass", "all"),
    ("trace.untraced_pass_s", "s", "lower",
     "none: median untraced pass of the same run", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced pass",
     "all"),
    ("trace.net_overhead_ratio", "ratio", "lower",
     "none: as overhead_ratio, without the edge orbits the traced run computes "
     "outside saturate", "all"),
]


# -- environment ---------------------------------------------------------------------


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": commit()}


# -- statistics ----------------------------------------------------------------------


def geomean(values) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    text = f"median {statistics.median(s):.6g} of n={len(s)}"
    if len(s) > 10:
        k = len(s) - 11
        text += f", p{100 * (k + 1) // len(s)} {s[k]:.6g}"
    return text


def ratio(num, den) -> float:
    return num / den if den else 0.0


# -- passes --------------------------------------------------------------------------


class Run:
    """Outcomes and timings of the passes of one run."""

    def __init__(self, workload: str, texts: dict, goldens: dict):
        self.workload = workload
        self.texts = texts
        self.goldens = goldens[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.pass_times: list[float] = []
        # (untraced pass, instance, mode, start, seconds) of each operation
        self.samples: list[tuple[int, str, str, float, float]] = []

    def one_pass(self, order: list[str], tr=None) -> float:
        import workloads

        gc.collect()
        bfs: dict[str, list] = {}
        t_pass = time.perf_counter()
        for name, mode in workloads.pass_ops(self.workload, order):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                got = workloads.run_op(tr, self.workload, name, mode,
                                       self.texts[name])
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failures.append(f"{name} {mode}: {type(exc).__name__}: {exc}")
                continue
            if tr is None:
                self.samples.append((len(self.pass_times), name, mode, t0,
                                     time.perf_counter() - t0))
            if got != self.goldens[name]:
                self.failures.append(f"{name} {mode}: got {got}, golden "
                                     f"{self.goldens[name]}")
            elif mode == "bfs":
                bfs[name] = got
            elif mode == "savitch" and name in bfs and got != bfs[name]:
                self.failures.append(f"{name}: savitch {got} != bfs {bfs[name]}")
        elapsed = time.perf_counter() - t_pass
        if tr is None:
            self.pass_times.append(elapsed)
        return elapsed

    def op_medians(self, mode=None) -> list[float]:
        """Median time of each operation, of one mode or of all."""
        ops: dict[tuple[str, str], list[float]] = {}
        for _, name, m, _, dt in self.samples:
            if mode in (None, m):
                ops.setdefault((name, m), []).append(dt)
        return [statistics.median(v) for v in ops.values()]

    def mode_pass_times(self, mode: str) -> list[float]:
        """Per untraced pass, the summed time of its operations in one mode."""
        per_pass: dict[int, float] = {}
        for i, _, m, _, dt in self.samples:
            if m == mode:
                per_pass[i] = per_pass.get(i, 0.0) + dt
        return list(per_pass.values())


def layer_values(tr, traced_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    import workloads

    total: dict[str, float] = {}
    cap_s = 0.0
    for name, start, end, _parent, _op, note in tr.spans:
        total[name] = total.get(name, 0.0) + end - start
        if note == "cap":
            cap_s += end - start
    bench_self = sum(own for s, own in zip(tr.spans, workloads.self_times(tr.spans))
                     if s[0].startswith("bench."))
    c = tr.counts
    edge_s = sum(total.get(f"orbits.edge_orbit_{k}", 0.0) for k in "pfd")
    v = {
        "ta.parse_s": total.get("ta.parse", 0.0),
        "splitting.region_split_s": total.get("splitting.region_split", 0.0),
        "splitting.locations": c["splitting.locations"],
        "splitting.edges": c["splitting.edges"],
        "orbits.edge_orbit_s": edge_s,
        "orbits.edge_orbit_calls": c["orbits.edge_orbit_calls"],
        "orbits.edge_orbit_us_per_call": 1e6 * ratio(edge_s,
                                                     c["orbits.edge_orbit_calls"]),
        "dbm.language_class_calls": c["dbm.language_class_calls"],
        "classify.checks_s": total.get("classify.checks", 0.0),
        "classify.savitch_s": total.get("classify.savitch", 0.0),
        "bandwidth.enumerate_s": total.get("bandwidth.enumerate", 0.0),
        "bandwidth.words": c["bandwidth.words"],
        "bandwidth.enumerate_cap_hits": c["bandwidth.enumerate_cap_hits"],
        "bandwidth.enumerate_cap_s": cap_s,
        "bandwidth.greedy_s": total.get("bandwidth.greedy", 0.0),
        "bandwidth.kept": c["bandwidth.kept"],
        "bandwidth.kept_ratio": ratio(c["bandwidth.kept"], c["bandwidth.words"]),
        "bandwidth.fit_s": total.get("bandwidth.fit", 0.0),
        "bench.self_s": bench_self,
        "trace.spans": len(tr.spans),
        "trace.pass_s": traced_s,
        "trace.edge_orbit_s": edge_s,
    }
    for k in "pfd":
        sat = total.get(f"classify.saturate_{k}", 0.0)
        elements = c[f"classify.saturate_{k}_elements"]
        products = c[f"classify.saturate_{k}_products"]
        v[f"classify.saturate_{k}_s"] = sat
        v[f"classify.saturate_{k}_self_s"] = sat - total.get(f"orbits.edge_orbit_{k}", 0.0)
        v[f"classify.saturate_{k}_elements"] = elements
        v[f"classify.saturate_{k}_products"] = products
        v[f"classify.saturate_{k}_new_ratio"] = ratio(elements, products)
        v[f"classify.saturate_{k}_elements_per_s"] = ratio(elements, sat)
    return v


def setup_times(workload: str) -> list[float]:
    """Wall time of fresh interpreters that only set up (``--setup-only``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    texts = workloads.sources(workload)
    run = Run(workload, texts, workloads.load_goldens())
    rng = random.Random(seed)
    names = list(texts)
    report: dict = {"human": {}, "metrics": {}}
    if not trace:
        setup = setup_times(workload)
    traced: list[tuple[object, float]] = []
    deadline = time.perf_counter() + seconds
    # Passes until the deadline; with tracing, untraced and traced passes
    # alternate, and the run holds at least one of each.
    while True:
        order = names[:]
        rng.shuffle(order)
        if trace and len(traced) < len(run.pass_times):
            tr = workloads.Tracer()
            traced.append((tr, run.one_pass(order, tr)))
        else:
            run.one_pass(order)
        if time.perf_counter() >= deadline and len(traced) >= trace:
            break

    h = report["human"]
    h["passes"] = len(run.pass_times)
    for mode, label in (("bfs", "classify_s"), ("savitch", "savitch_s"),
                        ("curve", "curve_s")):
        times = run.mode_pass_times(mode)
        if times:
            h[label] = statistics.median(times)
            h[label + "_tail"] = tail(times)
    if workload != "lab":
        h["classify_geo_ms"] = 1000 * geomean(run.op_medians("bfs"))
    h["pass_s_tail"] = tail(run.pass_times)

    if trace:
        per_pass = [layer_values(tr, t) for tr, t in traced]
        m = {name: statistics.median(p[name] for p in per_pass)
             for name, *_ in PER_LAYER if not name.startswith("trace.")}
        untraced = statistics.median(run.pass_times)
        traced_med = statistics.median(t for _, t in traced)
        edge_med = statistics.median(p["trace.edge_orbit_s"] for p in per_pass)
        m["trace.spans"] = per_pass[0]["trace.spans"]
        m["trace.pass_s"] = traced_med
        m["trace.untraced_pass_s"] = untraced
        m["trace.overhead_ratio"] = traced_med / untraced
        m["trace.net_overhead_ratio"] = (traced_med - edge_med) / untraced
        counts = {name for name, unit, *_ in PER_LAYER if unit == "count"}
        if any(p[name] != per_pass[0][name] for p in per_pass for name in counts):
            run.failures.append("counts differ between traced passes")
        units = {name: unit for name, unit, *_ in PER_LAYER}
        report["spans"] = [[i, *s] for i, (tr, _) in enumerate(traced)
                           for s in tr.spans]
    else:
        m = {"pass_s": statistics.median(run.pass_times),
             "op_geo_ms": 1000 * geomean(run.op_medians()),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "setup_s": statistics.median(setup)}
        h["setup_s_tail"] = tail(setup)
        units = {name: unit for name, unit, *_ in END_TO_END}
    h["failed_frac"] = ratio(len(run.failures), run.attempted)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in m.items()}
    report["samples"] = run.samples
    report["attempted"] = run.attempted
    report["failures"] = run.failures
    return report


# -- manifest and goldens ------------------------------------------------------------


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOAD_WHY],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


def metrics_markdown() -> str:
    lines = ["# perfbench metrics", "",
             "Written by `python3 perfbench/run.py --write-manifest`; "
             "the tables live in `perfbench/run.py`.", "",
             "## Workloads", "", "| workload | why |", "|---|---|"]
    lines += [f"| `{w}` | {why} |" for w, why in WORKLOAD_WHY.items()]
    lines += ["", "## End-to-end metrics (`--trace 0`, every workload)", "",
              "| metric | unit | better | bound | meaning |", "|---|---|---|---|---|"]
    lines += [f"| `{n}` | {u} | {b} | {bound} | {what} |"
              for n, u, b, bound, what in END_TO_END]
    lines += ["", "## Per-layer metrics (`--trace 1`, sums over one traced pass, "
              "median over passes)", "",
              "| metric | unit | better | moves | on workload |", "|---|---|---|---|---|"]
    lines += [f"| `{n}` | {u} | {b} | {moves} | {on} |"
              for n, u, b, moves, on in PER_LAYER]
    lines += ["", "## Reading a run", "",
              "`pass_s` is `curve_s` on `lab` and `classify_s` on `saturation`; on "
              "`corpus` it is a bfs pass plus a savitch pass.  Every "
              "untraced run also prints `classify_s` and `classify_geo_ms` (bfs "
              "operations only), `savitch_s` (corpus), `curve_s` (lab), each with "
              "its sample count, and `failed_frac`: failed operations (an "
              "exception, such as a saturation cap hit, or a result that differs "
              "from its golden) over attempted ones.  Enumeration cap hits inside "
              "a curve are part of `bandwidth_curve` and do not fail.  Layer "
              "spans have no child spans, so each layer time is its self time; "
              "`bench.self_s` is the harness's own time inside operation spans.  A layer a workload never calls reports 0.",
              "", "Predicted bypasses: a saturation or DBM change leaves `pass_s` "
              "on `lab` unchanged; a greedy or enumeration change leaves "
              "`pass_s` on `corpus` and `saturation` unchanged."]
    return "\n".join(lines) + "\n"


def write_goldens() -> None:
    import workloads

    goldens = {}
    for workload in workloads.WORKLOADS:
        texts = workloads.sources(workload)
        goldens[workload] = {
            name: workloads.run_op(None, workload, name, mode, texts[name])
            for name, mode in workloads.pass_ops(workload, list(texts))
            if mode != "savitch"}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


# -- command line --------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("corpus", "saturation", "lab"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-goldens", action="store_true")
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        (HERE / "METRICS.md").write_text(metrics_markdown())
        return 0
    if not (SRC / "tempoclass" / "__init__.py").is_file():
        print(f"perfbench: no tempoclass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tempoclass
    import workloads

    if Path(tempoclass.__file__).resolve().parent != SRC / "tempoclass":
        print(f"perfbench: imported tempoclass from {tempoclass.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.write_goldens:
        write_goldens()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        workloads.sources(args.workload)
        workloads.load_goldens()
        return 0

    info = machine()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, v in report["human"].items():
        print(f"{k} {v}")
    for k, v in report["metrics"].items():
        print(f"{k} {v['value']!r} {v['unit']}")
    for line in report["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "machine": info, **report}, indent=1) + "\n")

    failed = len(report["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": report["attempted"],
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
