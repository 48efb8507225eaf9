"""The benchmark's tracer still finds every name it wraps in `maxsub`.

`perfbench/tracing.py` patches functions and methods by name; a name that
was deleted or renamed makes `Tracer.install` raise.  It runs in a fresh
interpreter, so the patches do not leak into other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    code = ("import sys\n"
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, "
            f"{str(ROOT / 'perfbench')!r}]\n"
            "import tracing\n"
            "tracing.Tracer().install()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
