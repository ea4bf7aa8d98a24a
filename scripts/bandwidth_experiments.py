#!/usr/bin/env python3
"""Empirical capacity curves for four benchmark automata, with shape fits.

Writes one CSV per automaton plus a combined fit report.  The duration
schedules keep grid enumeration within the word cap; a6's flat asymptote is
out of reach at these scales (its slices keep gaining resolvable timing
detail as eps shrinks), so its fit is reported as a disagreement with the
structural verdict rather than reconciled.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tempoclass.bandwidth import bandwidth_curve, curve_csv, fit_class  # noqa: E402
from tempoclass.classify import classify  # noqa: E402
from tempoclass.corpus import FIT_EPS, FIT_PLAN, automaton  # noqa: E402


def main() -> None:
    report = {}
    for name, (durations, cap) in FIT_PLAN.items():
        t0 = time.monotonic()
        a = automaton(name)
        rows = bandwidth_curve(a, durations, FIT_EPS, cap=cap)
        fit = fit_class(rows)
        verdict = classify(a).classification
        csv_path = f"curve_{name}.csv"
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(curve_csv(rows))
        agrees = fit.suggested_class == verdict
        report[name] = {
            "fit": fit.to_json(),
            "structuralClass": verdict,
            "agreesWithStructural": agrees,
            "csv": csv_path,
            "seconds": round(time.monotonic() - t0, 1),
        }
        flag = "agrees" if agrees else "DISAGREES with structural verdict"
        print(f"{name}: fit {fit.model} (ratio {fit.residual_ratio:.3g}) -> "
              f"{fit.suggested_class}; structural {verdict} [{flag}]")
    with open("bandwidth_fits.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print("fit report written to bandwidth_fits.json")


if __name__ == "__main__":
    main()
