import os
import subprocess
import sys
from pathlib import Path

import fsilab


def test_public_names_resolve_once():
    names = fsilab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(fsilab, name)] == []


def test_import_loads_no_process_pool():
    # only a sweep on several workers needs the pool; every other process
    # would pay ~1.4 MB and ~15 ms for multiprocessing
    src = str(Path(fsilab.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, fsilab, fsilab.cli, fsilab.harness; "
            "assert fsilab.__file__.startswith(sys.argv[1]), fsilab.__file__; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
