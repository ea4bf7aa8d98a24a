"""Command-line surface: validate, regionize, orbit, classify, distance, bandwidth.

Every command prints a human summary, or a versioned JSON report with --json.
Reports are byte-stable across runs on identical inputs except for the
wallTimeMs stat.  Exit codes: classify returns 0 for meager, 1 for normal,
2 for obese; any error exits with code 10 or higher.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bandwidth as bw
from . import words as wd
from .classify import classify
from .orbits import export_dot, orbit_to_json, path_orbit
from .splitting import (DEFAULT_CAP, RegionSplitAutomaton, as_region_split,
                        region_split)
from .ta import TAError, ParseError, check_deterministic, parse_automaton, \
    serialize_automaton

SCHEMA_VERSION = 1
ERROR_EXIT = 10


class UsageError(TAError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> tuple[str, str]:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        raise UsageError(f"{path} is not UTF-8 text: {ex.reason} at byte {ex.start}")
    return text, hashlib.sha256(data).hexdigest()


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise UsageError(f"bad rational {text!r}: {ex}")


def _word(path: str, text: str) -> wd.TimedWord:
    try:
        return wd.parse_word(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise UsageError(f"bad word file {path}: {ex}")


def _fraction_list(flag: str, text: str) -> list[Fraction]:
    values = [_fraction(part) for part in text.split(",") if part]
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    return values


def _report(command: str, path: Optional[str], digest: Optional[str],
            result: dict, stats: Optional[dict] = None,
            warnings: Optional[list[str]] = None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "input": {"path": path, "sha256": digest},
        "result": result,
        "stats": stats or {},
        "warnings": warnings or [],
    }


def _emit(args, report: dict, human: str) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(human)


def _load_automaton(path: str):
    text, digest = _read(path)
    return parse_automaton(text), digest


# -- commands -----------------------------------------------------------------------


def cmd_validate(args) -> int:
    a, digest = _load_automaton(args.file)
    report = check_deterministic(a)
    result = {
        "name": a.name,
        "locations": len(a.locations),
        "clocks": list(a.clocks),
        "alphabet": list(a.alphabet),
        "edges": len(a.edges),
        "maxConstant": a.max_constant,
        "deterministic": report.deterministic,
        "violations": [
            {"kind": v.kind, "edges": list(v.edges), "detail": v.detail,
             "witness": None if v.witness is None else
             {c: wd.format_rational(x) for c, x in sorted(v.witness.items())}}
            for v in report.violations],
    }
    lines = [f"{a.name}: {len(a.locations)} locations, {len(a.clocks)} clocks, "
             f"{len(a.edges)} edges, max constant {a.max_constant}"]
    if report.deterministic:
        lines.append("deterministic: yes")
    else:
        lines.append("deterministic: NO")
        for v in report.violations:
            if v.kind == "guards":
                lines.append(f"  edges {v.edges[0]} and {v.edges[1]} overlap at "
                             + ", ".join(f"{c}={wd.format_rational(x)}"
                                         for c, x in sorted(v.witness.items())))
            else:
                lines.append(f"  {v.detail}")
    _emit(args, _report("validate", args.file, digest, result), "\n".join(lines))
    return 0


def cmd_regionize(args) -> int:
    a, digest = _load_automaton(args.file)
    rsta = a if isinstance(a, RegionSplitAutomaton) else region_split(a)
    text = serialize_automaton(rsta)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    result = {
        "locations": len(rsta.locations),
        "edges": len(rsta.edges),
        "regions": len(set(rsta.regions.values())),
        "out": args.out,
    }
    human = text if not args.out else (
        f"wrote {len(rsta.locations)} locations / {len(rsta.edges)} edges to {args.out}")
    _emit(args, _report("regionize", args.file, digest, result), human)
    return 0


def cmd_orbit(args) -> int:
    a, digest = _load_automaton(args.file)
    rsta = as_region_split(a)
    wanted = [p for p in args.path.split(",") if p]
    if not wanted:
        raise UsageError("--path needs at least one edge name")
    known = {e.name for e in rsta.edges}
    if set(wanted) <= known:
        paths = [[rsta.edge_named(n) for n in wanted]]
    else:
        # original edge names: every region-split path projecting onto them
        paths = _expand_paths(rsta, wanted)
        if not paths:
            raise UsageError(f"no path of {args.file} matches {args.path!r}")
    orbits = sorted(((path_orbit(rsta, p, args.kind), [x.name for x in p])
                     for p in paths), key=lambda o: (not o[0].cyclic, o[1]))
    entries = [{"path": names, "cyclic": e.cyclic, "orbit": orbit_to_json(e)}
               for e, names in orbits]
    if args.dot:
        # cyclic orbits sort first, so this is the first cyclic one if any
        Path(args.dot).write_text(export_dot(orbits[0][0], rsta), encoding="utf-8")
    human = []
    for d in entries:
        human.append(" ".join(d["path"]) + (" (cycle)" if d["cyclic"] else ""))
        orbit = d["orbit"]
        if "rows" in orbit:
            human.append(f"  {orbit['src']} -> {orbit['dst']}")
            for row in orbit["rows"]:
                human.append("   (" + ", ".join(row) + ")")
        else:
            human.append(f"  constant {orbit['constant']}")
    _emit(args, _report("orbit", args.file, digest,
                        {"kind": args.kind, "orbits": entries}), "\n".join(human))
    return 0


def _expand_paths(rsta, wanted: list[str]) -> list[list]:
    origin = {e.name: e.name.rsplit(".", 1)[0] for e in rsta.edges}
    paths = [[e] for e in rsta.edges if origin[e.name] == wanted[0]]
    for name in wanted[1:]:
        paths = [p + [e] for p in paths for e in rsta.edges_from(p[-1].dst)
                 if origin[e.name] == name]
    return paths


def cmd_classify(args) -> int:
    a, digest = _load_automaton(args.file)
    verdict = classify(a, cap=args.cap, mode=args.mode)
    result = verdict.to_json()
    human = [f"class: {verdict.classification}"
             + (f" (type {verdict.obesity_type})" if verdict.obesity_type else ""),
             f"fatness: {verdict.fatness}"
             + ("" if verdict.fatness_applicable else
                " (guards unbounded or punctual; comparison not guaranteed)")]
    for w in verdict.witnesses:
        human.append(f"  witness[{w.kind}] cycle {'.'.join(w.cycle) or '(empty)'} "
                     f"at {w.position}")
    _emit(args, _report("classify", args.file, digest, result,
                        stats=result["stats"]), "\n".join(human))
    return verdict.exit_code


def cmd_distance(args) -> int:
    t1, d1 = _read(args.word1)
    t2, d2 = _read(args.word2)
    w1, w2 = _word(args.word1, t1), _word(args.word2, t2)
    fwd, back = wd.directed_distance(w1, w2), wd.directed_distance(w2, w1)
    dist = wd.distance(w1, w2)
    result = {
        "directed": [wd.format_rational(fwd), wd.format_rational(back)],
        "distance": wd.format_rational(dist),
    }
    report = _report("distance", args.word1, d1, result)
    report["input2"] = {"path": args.word2, "sha256": d2}
    _emit(args, report, wd.format_rational(dist))
    return 0


def cmd_bandwidth(args) -> int:
    a, digest = _load_automaton(args.file)
    durations = _fraction_list("--T", args.T)
    epss = _fraction_list("--eps", args.eps)
    grid = _fraction(args.grid) if args.grid else None
    rows = bw.bandwidth_curve(a, durations, epss, grid, cap=args.word_cap)
    csv = bw.curve_csv(rows)
    warnings = []
    fit = None
    if len(rows) >= 3:
        fit = bw.fit_class(rows)
        if not fit.conclusive:
            warnings.append("fit is inconclusive (residual ratio below "
                            f"{bw.RATIO_THRESHOLD:g})")
    else:
        warnings.append("not enough feasible epsilon points to fit a shape")
    result = {
        "rows": [{
            "epsilon": wd.format_rational(r.eps),
            "T": wd.format_rational(r.duration),
            "grid": wd.format_rational(r.grid),
            "capacityBits": r.capacity_bits,
            "entropyBits": r.entropy_bits,
            "bitsPerSecond": r.bits_per_second,
            "words": r.word_count,
        } for r in rows],
        "fit": fit.to_json() if fit else None,
    }
    human = csv + (f"fit: {fit.model} (constant {fit.constant:.4g}, "
                   f"ratio {fit.residual_ratio:.3g}, "
                   f"{'conclusive' if fit.conclusive else 'inconclusive'}) "
                   f"-> suggested class {fit.suggested_class}" if fit else "no fit")
    _emit(args, _report("bandwidth", args.file, digest, result,
                        warnings=warnings), human)
    return 0


# -- wiring -------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tempoclass",
                     description="bandwidth classification of timed automata")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and check determinism")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("regionize", help="write the region-split form")
    p.add_argument("file")
    p.add_argument("--out", help="output path (default: print)")
    p.set_defaults(func=cmd_regionize)

    p = sub.add_parser("orbit", help="orbit of a path or cycle")
    p.add_argument("file")
    p.add_argument("--path", required=True,
                   help="comma-separated edge names (original or region-split)")
    p.add_argument("--kind", choices=("p", "f", "d"), default="p")
    p.add_argument("--dot", help="write a DOT rendering to this file")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("classify", help="meager / normal / obese verdict")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="cap on orbit saturation and region splitting")
    p.add_argument("--mode", choices=("bfs", "savitch"), default="bfs")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("distance", help="pseudo-distance between two word files")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("bandwidth", help="empirical capacity curve and shape fit")
    p.add_argument("file")
    p.add_argument("--T", required=True, help="comma-separated duration bounds")
    p.add_argument("--eps", required=True, help="comma-separated precisions")
    p.add_argument("--grid", help="grid step (default eps/2 per point)")
    p.add_argument("--word-cap", type=int, default=bw.DEFAULT_WORD_CAP)
    p.set_defaults(func=cmd_bandwidth)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return ERROR_EXIT
    except TAError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return ERROR_EXIT
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
