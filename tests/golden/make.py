"""Regenerate tests/golden/bands.json from the current code.

Run from the repository root:  PYTHONPATH=src python tests/golden/make.py
Only regenerate when an output change is intended; test_golden.py compares
against the committed file and never runs this script.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, digests  # noqa: E402

GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
print(f"wrote {GOLDEN}")
