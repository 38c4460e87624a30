"""The harness the bench scripts share: this checkout against a parent commit.

The parent is ``git archive REV`` of this repository unpacked in a temporary
directory (default ``HEAD``: the working tree's change against its last
commit; pass ``HEAD~1`` once the change is committed).  The parent and this
checkout take turns, one fresh process at a time, the parent going first in
even repeats and this checkout in odd ones, so that a drift of the host's
speed falls on both alike.  A fresh process is the script itself run with
``--one ...``: it imports the program from the ``src`` of the checkout it
is given and prints its measurement as JSON on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def checkouts(rev: str):
    """Yield (the commit REV names, {"parent": its unpacked archive, "this": ROOT})."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield commit, {"parent": Path(tmp), "this": ROOT}


def alternate(checkouts: dict, repeats: int, run) -> dict:
    """{name: [run(name, r) for r in range(repeats)]}, each repeat's calls
    in turn: the first checkout first in even repeats, the last in odd ones."""
    runs = {name: [] for name in checkouts}
    for r in range(repeats):
        for name in (list(checkouts) if r % 2 == 0 else list(reversed(checkouts))):
            runs[name].append(run(name, r))
    return runs


def fresh(script, *args):
    """The JSON on the last stdout line of ``python script --one *args``."""
    out = subprocess.run([sys.executable, str(script), "--one", *map(str, args)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def write(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
