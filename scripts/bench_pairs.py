"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; the side that goes first alternates from pair to pair.
Both sides run with the same workload and seed, and with the run length
that ``perfbench/run.py`` sets itself.  For every workload and end-to-end
metric of ``BENCHMARK.json`` the script prints each side's median and
quartiles, the relative change of the median, the number of pairs the change
won (ties count for neither side) and two verdicts:

* ``gain`` when the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's interquartile range;
* ``REGRESSION`` when the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` when the parent's interquartile range exceeds the metric's
  bound relative to its median, so the runs spread too widely to tell, and
  not every run of the change beats every run of the parent.

It also prints the failed and attempted operations of each side.  With
``--out FILE`` it also writes all of this, with every run's value, as
JSON to FILE, rewritten after each workload.  The exit status is 1 when
some workload fails `workload_ok` (a metric reads ``REGRESSION``, either
side's outputs are incorrect, or the change failed more operations than
the parent) and 0 otherwise.  Standard library only; a parent checkout can
be made with ``git worktree add`` or ``git archive``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`; the JSON object of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' values, medians and quartiles, the change's wins and the
    verdicts of one end-to-end metric."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else 0.0
    gain = cm < pm - (p3 - p1) if lower else cm > pm + (p3 - p1)
    worse = rel > metric["bound"] if lower else -rel > metric["bound"]
    spread = (p3 - p1) / pm if pm else 0.0
    clear = max(change) < min(parent) if lower else min(change) > max(parent)
    verdict = []
    if gain and 10 * wins >= 9 * len(parent):
        verdict.append("gain")
    if worse:
        verdict.append("REGRESSION")
    if spread > metric["bound"] and not clear:
        verdict.append("unresolved")
    return {"unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "parent": {"values": parent, "median": pm, "quartiles": [p1, p3]},
            "change": {"values": change, "median": cm, "quartiles": [c1, c3]},
            "relative_change": rel, "wins": wins, "pairs": len(parent),
            "verdict": verdict}


def workload_ok(entry: dict) -> bool:
    """Whether one workload's results pass: no metric reads ``REGRESSION``,
    both sides' outputs are correct, and the change failed no more
    operations than the parent."""
    ops = entry["operations"]
    return (ops["parent"]["correct"] and ops["change"]["correct"]
            and ops["change"]["failed"] <= ops["parent"]["failed"]
            and not any("REGRESSION" in m["verdict"] for m in entry["metrics"].values()))


def summary_line(name: str, s: dict) -> str:
    (p1, p3), (c1, c3) = s["parent"]["quartiles"], s["change"]["quartiles"]
    return (f"  {name:<12} parent {s['parent']['median']:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {s['change']['median']:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{100 * s['relative_change']:+.1f}%  wins {s['wins']}/{s['pairs']}  "
            f"bound {s['bound']:.0%}"
            + (f"  {' '.join(s['verdict'])}" if s["verdict"] else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable); default: every one")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path,
                   help="also write the results as JSON to this file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    manifest = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {"pairs": args.pairs, "seed": args.seed,
              "run_seconds": manifest["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_once(sides[side], workload, args.seed)
                runs[side].append(out)
                print(f"{workload} pair {i + 1} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                    flush=True)
        print(f"{workload}: {args.pairs} pairs, seed {args.seed}")
        entry: dict = {"operations": {}, "metrics": {}}
        for side, outs in runs.items():
            ops = {"failed": sum(o["failed"] for o in outs),
                   "attempted": sum(o["attempted"] for o in outs),
                   "correct": all(o["correct"] for o in outs)}
            entry["operations"][side] = ops
            print(f"  {side} failed {ops['failed']} of {ops['attempted']} operations"
                  + ("" if ops["correct"] else ", INCORRECT outputs"))
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            s = summarize(metric, [o["metrics"][name]["value"] for o in runs["parent"]],
                          [o["metrics"][name]["value"] for o in runs["change"]])
            entry["metrics"][name] = s
            print(summary_line(name, s))
        report["workloads"][workload] = entry
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = [w for w, entry in report["workloads"].items() if not workload_ok(entry)]
    print("FAIL: " + ", ".join(failed) if failed else "pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
