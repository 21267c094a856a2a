"""Regenerate tests/golden/bands.json from the current code.

Run from the repository root:  PYTHONPATH=src python tests/golden/make.py
Only regenerate when an output change is intended; test_golden.py compares
against the committed file and never runs this script.  Before writing, the
script lists every key whose digest differs from the file on disk (added,
removed or changed) and counts them by kind, the function or command name
before the opening parenthesis.
"""

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, digests  # noqa: E402

new = digests()
old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
changed = [key for key in new if old.get(key) != new[key]]
removed = [key for key in old if key not in new]
for key in changed:
    print(f"{'changed' if key in old else 'added'}  {key}")
for key in removed:
    print(f"removed  {key}")
kinds = Counter(key.split("(")[0] for key in changed + removed)
if kinds:
    print(", ".join(f"{kind} {count}" for kind, count in kinds.items()))
print(f"{len(changed) + len(removed)} of {len(new)} digests differ from {GOLDEN}")
GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
print(f"wrote {GOLDEN}")
