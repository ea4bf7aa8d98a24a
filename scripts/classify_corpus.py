#!/usr/bin/env python3
"""Classify the ten benchmark automata and print one table row apiece."""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tempoclass.classify import classify  # noqa: E402
from tempoclass.corpus import NAMES, automaton  # noqa: E402


def main() -> None:
    print(f"{'automaton':<10} {'class':<8} {'type':<5} {'fatness':<7} "
          f"{'locs':>4} {'monoid':>6} {'ms':>6}")
    rows = {}
    for name in NAMES:
        t0 = time.monotonic()
        v = classify(automaton(name))
        ms = int((time.monotonic() - t0) * 1000)
        print(f"{name:<10} {v.classification:<8} {v.obesity_type or '-':<5} "
              f"{v.fatness:<7} {v.stats['locations']:>4} "
              f"{v.stats['monoidSize']:>6} {ms:>6}")
        rows[name] = v.to_json()
    with open("corpus_verdicts.json", "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
    print("verdicts written to corpus_verdicts.json")


if __name__ == "__main__":
    main()
