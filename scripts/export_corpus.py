#!/usr/bin/env python3
"""Write the ten benchmark automata as .ta files for use with the CLI."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tempoclass.corpus import SOURCES  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="automata",
                        help="output directory (default: ./automata)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in SOURCES.items():
        (out / f"{name}.ta").write_text(text, encoding="utf-8")
    print(f"wrote {len(SOURCES)} automata to {out}/")


if __name__ == "__main__":
    main()
