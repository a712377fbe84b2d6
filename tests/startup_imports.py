"""Check what ``import qgame, qgame.cli`` loads beyond numpy.

Run it with the interpreter and the qgame under test, e.g.
``PYTHONPATH=src python tests/startup_imports.py``.  It exits non-zero if
qgame's start-up loads a module that only one command needs (``hashlib``,
``fractions``), that no record needs (``dataclasses``), or that bundled data
files do not need (``importlib.resources``, which pulls in ``zipfile`` and
``tempfile``).  Diffing against
``import numpy`` keeps it valid on numpy versions that load any of them.
"""

import sys

import numpy

before = set(sys.modules)
import qgame
import qgame.cli

LAZY = ("dataclasses", "hashlib", "fractions", "importlib.resources")
loaded = sorted(set(LAZY) & (set(sys.modules) - before))
if loaded:
    sys.exit(f"qgame start-up ({qgame.__file__}) imports {', '.join(loaded)}")
print(f"qgame start-up ({qgame.__file__}) imports none of {', '.join(LAZY)}")
