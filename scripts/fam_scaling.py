#!/usr/bin/env python3
"""Classify one member of the scaling family fam(K, c) breadth-first.

    python3 scripts/fam_scaling.py K C

fam(K, c) has two locations, q (initial, accepting) and p (accepting), and
the edges

* q -> p on a, guard x < K, reset x;
* p -> q on b, guard y > 1, y < K, reset y;
* q -> q on c, guard x < 1;
* for c = 3 clocks, also p -> p on c, guard z < K, reset z.

The script runs ``classify`` (bfs mode) in a fresh Python process that
imports the library from this checkout's ``src`` directory, so the numbers
do not depend on what ran before.  It prints the JSON report without its
``wallTimeMs`` stat, the seconds the child spent parsing and classifying,
and the child's peak resident set size.  When the library stops the run (a
cap hit), it prints the seconds, the peak and the message instead, and
exits 10, as the ``tempoclass`` command does.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from tempoclass.corpus import fam  # noqa: E402

CHILD = """\
import json, sys, time
from tempoclass import classify, parse_automaton
from tempoclass.ta import TAError
t0 = time.perf_counter()
try:
    result = {"report": classify(parse_automaton(sys.stdin.read())).to_json()}
    del result["report"]["stats"]["wallTimeMs"]
except TAError as ex:
    result = {"error": str(ex)}
result["seconds"] = time.perf_counter() - t0
print(json.dumps(result))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("k", type=int, help="the largest constant K")
    parser.add_argument("clocks", type=int, choices=(2, 3),
                        help="the number of clocks c")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          input=fam(args.k, args.clocks), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    result = json.loads(proc.stdout)
    # ru_maxrss is in kibibytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    name = f"fam({args.k},{args.clocks})"
    if "error" in result:
        print(f"{name}: exit 10 after {result['seconds']:.2f} s, "
              f"peak RSS {peak_mb:.1f} MB: {result['error']}")
        return 10
    print(json.dumps(result["report"], sort_keys=True))
    print(f"{name}: {result['seconds']:.2f} s, peak RSS {peak_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
