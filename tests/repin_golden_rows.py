"""Rewrites tests/golden_rows.json from the current code and prints how far
each golden case moved against the rows stored there.

Run from the root of the repository:

    PYTHONPATH=src python tests/repin_golden_rows.py

For each case of tests/test_golden.py it prints the largest relative
movement of any CSV value against the stored rows (inf when a line that is
not a number changed) and the case's SHA-256, then the largest movement of
all cases, and writes the new rows. A change that moves numbers re-pins
GOLDEN in tests/test_golden.py with those hashes and quotes the maximum in
that file's docstring.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import test_golden  # noqa: E402


def main():
    path = test_golden.ROWS_PATH
    stored = json.loads(path.read_text()) if path.exists() else {}
    rows, worst = {}, 0.0
    for name in sorted(test_golden.CASES):
        text = test_golden.csv_text(name)
        rows[name] = text.splitlines()
        moved = (test_golden.max_movement(stored[name], rows[name]) if name in stored
                 else float("inf"))
        worst = max(worst, moved)
        print(f"{name}: moved {moved:.3g}, sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"largest movement: {worst:.3g}")
    path.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
