"""Rewrites the stored golden rows from the current code and prints how far
each golden output moved against them: tests/golden_rows.json, the run CSVs
of tests/test_golden.py; tests/golden_sweep_rows.json, the outputs of the
sweep of tests/test_config_cli.py; and tests/golden_topo_rows.json, the
`walkmeta topo` outputs of tests/test_topo_golden.py.

Run from the root of the repository:

    PYTHONPATH=src python tests/repin_golden_rows.py

For each golden case and each sweep output it prints the largest relative
movement of any value against the stored rows (inf when a line that is not
a number changed) and its SHA-256, then the largest movement of each set,
and writes the new rows. A change that moves numbers re-pins GOLDEN in
tests/test_golden.py, SWEEP_GOLDEN in tests/test_config_cli.py and GOLDEN
in tests/test_topo_golden.py with those hashes and quotes the maxima
beside them.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import test_config_cli  # noqa: E402
import test_golden  # noqa: E402
import test_topo_golden  # noqa: E402


def repin(path: Path, outputs: dict[str, bytes], movement=test_golden.max_movement):
    """Prints each output's movement against the rows stored at path and its
    hash, then the largest movement, and stores the outputs' rows there."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    rows, worst = {}, 0.0
    for name in sorted(outputs):
        rows[name] = outputs[name].decode().splitlines()
        moved = movement(stored[name], rows[name]) if name in stored else float("inf")
        worst = max(worst, moved)
        print(f"{name}: moved {moved:.3g}, sha256 {hashlib.sha256(outputs[name]).hexdigest()}")
    print(f"{path.name}: largest movement {worst:.3g}")
    path.write_text(json.dumps(rows, indent=1) + "\n")


def main():
    repin(test_golden.ROWS_PATH, {name: test_golden.csv_text(name).encode()
                                  for name in test_golden.CASES})
    with tempfile.TemporaryDirectory() as tmp:
        repin(test_config_cli.SWEEP_ROWS_PATH, test_config_cli.sweep_outputs(Path(tmp)))
    repin(test_topo_golden.ROWS_PATH, {name: test_topo_golden.topo_stdout(name).encode()
                                       for name in test_topo_golden.CASES},
          test_topo_golden.movement)


if __name__ == "__main__":
    main()
