"""Make ``repro`` importable from the source tree and ``perfbench``
from the repository root when these tests run by explicit path
(``python -m pytest perfbench/tests``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
