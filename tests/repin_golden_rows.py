"""Rewrites the stored golden rows from the current code and prints how far
each golden output moved against them: tests/golden_rows.json, the run CSVs
of tests/test_golden.py; tests/golden_sweep_rows.json, the outputs of the
sweep of tests/test_config_cli.py; and tests/golden_topo_rows.json, the
`walkmeta topo` outputs of tests/test_topo_golden.py.

Run from the root of the repository:

    PYTHONPATH=src python tests/repin_golden_rows.py

For each golden case and each sweep output it prints the largest relative
movement of any value against the stored rows (inf when a line that is not
a number changed) and its SHA-256, marked when it differs from the output's
pin: GOLDEN in tests/test_golden.py, SWEEP_GOLDEN in tests/test_config_cli.py
or GOLDEN in tests/test_topo_golden.py. It prints the largest movement of
each set, writes the new rows, and ends by listing every pin that moved. A
change that moves numbers re-pins those with the printed hashes and quotes
the maxima beside them.
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


def repin(path: Path, outputs: dict[str, bytes], pins: dict[str, str],
          movement=test_golden.max_movement) -> list[str]:
    """Prints each output's movement against the rows stored at path and its
    hash, marked where it differs from its pin, then the largest movement;
    stores the outputs' rows there and returns the names whose pin moved."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    rows, worst, unpinned = {}, 0.0, []
    for name in sorted(outputs):
        rows[name] = outputs[name].decode().splitlines()
        moved = movement(stored[name], rows[name]) if name in stored else float("inf")
        worst = max(worst, moved)
        digest, mark = hashlib.sha256(outputs[name]).hexdigest(), ""
        if pins.get(name) != digest:
            unpinned.append(name)
            mark = f" (pinned {pins.get(name)})"
        print(f"{name}: moved {moved:.3g}, sha256 {digest}{mark}")
    print(f"{path.name}: largest movement {worst:.3g}")
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return unpinned


def main():
    moved = {"test_golden.GOLDEN": repin(
        test_golden.ROWS_PATH, {name: test_golden.csv_text(name).encode()
                                for name in test_golden.CASES}, test_golden.GOLDEN)}
    with tempfile.TemporaryDirectory() as tmp:
        moved["test_config_cli.SWEEP_GOLDEN"] = repin(
            test_config_cli.SWEEP_ROWS_PATH, test_config_cli.sweep_outputs(Path(tmp)),
            test_config_cli.SWEEP_GOLDEN)
    moved["test_topo_golden.GOLDEN"] = repin(
        test_topo_golden.ROWS_PATH, {name: test_topo_golden.topo_stdout(name).encode()
                                     for name in test_topo_golden.CASES},
        test_topo_golden.GOLDEN, test_topo_golden.movement)
    print(f"pins that moved: {sum(map(len, moved.values()))}")
    for pins, names in moved.items():
        for name in names:
            print(f"  {pins}[{name!r}]")


if __name__ == "__main__":
    main()
