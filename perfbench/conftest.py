"""Test set-up for the benchmark's own tests: ``python -m pytest perfbench``.

The benchmark's modules and the checkout's ``src/`` go on the import path,
as they do when ``run.py`` runs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
