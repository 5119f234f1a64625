"""perfbench: the end-to-end + per-layer benchmark of this repository.

One command (``python -m perfbench run``) drives five workloads over
the simulator and over the live TCP + real-fsync deployment, measures
the program from outside (public counters, plus ``perf_counter_ns``
spans wrapped around each layer's public entry points in a separate
traced run), checks that the outputs are correct, and prints every
metric named in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

import sys
from pathlib import Path

#: The checkout root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parent.parent

# BENCHMARK.json's command may name nothing outside perfbench/, so the
# package finds the program under test itself rather than relying on
# PYTHONPATH=src.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
