"""One cold set-up of homefetch, timed in a fresh interpreter.

Set-up is what a user waits for before the first session starts: importing
the package, building the layout and building its occupancy grid.  Prints
one JSON line: the raw wall time and the reference loops around it.

    python3 perfbench/setup_probe.py
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from drift import reference_loop

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    before = reference_loop()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import homefetch.cli  # noqa: F401  (the user's entry point)
    from homefetch.layouts import make_environment
    from homefetch.planner import grid_for
    grid_for(make_environment("default"))
    raw = time.perf_counter() - t0
    after = reference_loop()
    print(json.dumps({"raw_s": raw, "ref_s": [before, after]}))


if __name__ == "__main__":
    main()
