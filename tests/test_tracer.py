"""The benchmark tracer still finds every name it patches."""

import subprocess
import sys
from pathlib import Path


def test_tracer_instruments_the_package():
    # perfbench/tracer.py patches functions and classes of fraclap by name, so
    # a rename breaks every traced benchmark pass; instrument them all once
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = [%r, %r]; "
            "from tracer import Tracer, instrument; instrument(Tracer())"
            % (str(root / "perfbench"), str(root / "src")))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
