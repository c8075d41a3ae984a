#!/usr/bin/env python3
"""Entry point of the repository benchmark (see ``perfbench/README.md``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 30 --trace 0

The benchmark runs the program from its source tree, ``src/`` next to
this directory, and refuses to run without it.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'repro'}; run from a checkout root")
    sys.path[:0] = [str(SRC), str(HERE)]
    from bench import main

    sys.exit(main())
