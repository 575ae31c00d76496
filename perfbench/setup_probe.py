"""One set-up of the knotslope benchmark, timed from outside by run.py.

Usage: python3 perfbench/setup_probe.py ROOT [PRESENTATION_FILE ...]

Imports knotslope from ROOT/src, loads the bundled presentations (which
runs their numeric checks), parses each generated presentation file and
prints ``time.perf_counter()``: the clock is system-wide, so the caller
can subtract the moment it started this interpreter.
"""

import sys
import time
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))

import knotslope  # noqa: E402

for name in knotslope.builtin_names():
    knotslope.load_builtin(name)
for path in sys.argv[2:]:
    knotslope.parse_presentation(Path(path).read_text(encoding="utf-8"))
print(time.perf_counter())
