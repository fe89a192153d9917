"""walkmeta benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a walkmeta checkout; the library is imported from its
`src/`. Set-up time is measured over several fresh interpreters, each paired
with a reference interpreter that only imports numpy, then the workload runs
once in another fresh interpreter. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). See perfbench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sine_d1761", "sine_private_d25", "blob_sweep", "topo_n300")
SETUP_PAIRS = 9
# setup_s is reported at the speed at which the reference interpreter (start,
# import numpy) takes BASELINE_S. The host's speed drifts by up to a half
# between runs; scaling each set-up by the reference interpreter run just
# before it took the 10-run spread of setup_s from 0.07-0.32 to 0.02-0.07.
BASELINE_S = 0.15
TIME_LIMIT_S = 170.0

# Failures present at the baseline commit. They count in `failed` and in
# ok_share, but do not make the run incorrect. A failed operation is known
# when each of its "; "-separated causes is. Both are defects of src/, to be
# fixed there.
#
# cli.cmd_sweep formats numpy scalars with !r, which numpy 2 prints as
# np.float64(...), so the summary CSV holds fields that are not numbers.
SUMMARY_REPRS = re.compile(r"summary seed=\d+: \d+ fields are numpy reprs, not "
                           r"numbers, e\.g\. 'np\.float64\([^']*\)' in row '\w+'")
# Above 64 nodes topology.sigma2 runs a power iteration that stops when
# successive estimates differ by less than 1e-10; where the spectral gap
# below sigma2 is small it stops 1e-6 to 1e-4 short. scan_sigma2.py lists
# the cases in sigma2_known.txt; in the scanned seed range only those are
# known. Beyond it the defect is recognised by its form: a seeded family
# (small_world or regular) and an error below 1e-4.
SIGMA2_MISS = re.compile(r"topo (\w+)/(\w+) seed=(\d+): sigma2 \S+ is (\S+) "
                         r"from the eigvalsh reference \S+")


def load_sigma2_known(path: Path) -> tuple[range, set]:
    scanned, cases = range(0), set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# scanned config seeds "):
            start, stop = map(int, line.split()[-2:])
            scanned = range(start, stop)
        elif not line.startswith("#"):
            seed, family, scheme, _ = line.split()
            cases.add((int(seed), family, scheme))
    return scanned, cases


def is_known(name: str, cause: str, sigma2_known: tuple[range, set]) -> bool:
    scanned, cases = sigma2_known
    for part in cause.split("; "):
        text = f"{name}: {part}"
        if SUMMARY_REPRS.fullmatch(text):
            continue
        m = SIGMA2_MISS.fullmatch(text)
        if not m:
            return False
        family, scheme, seed, err = m[1], m[2], int(m[3]), float(m[4])
        if seed in scanned:
            if (seed, family, scheme) not in cases:
                return False
        elif family not in ("small_world", "regular") or err >= 1e-4:
            return False
    return True


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    # one core, as the README promises: the bundled OpenBLAS would
    # otherwise start a thread per core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], timeout: float) -> str:
    """Run worker.py to completion and return its last stdout line."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {args[0]} exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} exited with code {proc.returncode}")
    return out.strip().splitlines()[-1]


def spawn_time(args: list[str], deadline: float) -> float:
    """Seconds from spawning worker.py to the clock reading it prints."""
    t0 = time.monotonic()
    return float(spawn(args, deadline - t0)) - t0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True, timeout=30)
    return res.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="benchmark seed; picks the panel of config seeds (default 0)")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "walkmeta" / "__init__.py").is_file():
        print(f"no walkmeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups, bases = [], []
        for _ in range(0 if args.trace else SETUP_PAIRS):
            bases.append(spawn_time(["baseline"], deadline))
            setups.append(spawn_time(["setup", "--workload", args.workload,
                                      "--seed", str(args.seed)], deadline))
        res = json.loads(spawn(
            ["run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)], deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = res["metrics"]
    ops = res["ops"]
    failed = [(name, cause) for name, cause in ops if cause]
    sigma2_known = load_sigma2_known(HERE / "sigma2_known.txt")
    unexpected = [(name, cause) for name, cause in failed
                  if not is_known(name, cause, sigma2_known)]
    if not args.trace:
        metrics["setup_s"] = (BASELINE_S * statistics.median(
            s / b for s, b in zip(setups, bases)), "s")
        metrics["ok_share"] = (1.0 - len(failed) / len(ops), "ratio")

    info = res["info"]
    if setups:
        info.update(unscaled_setup_s=statistics.median(setups),
                    baseline_s=statistics.median(bases))
    info["env"].update(nproc=os.cpu_count(), python=platform.python_version(),
                       git_sha=git_sha(), seed=args.seed, workload=args.workload)
    print("# env " + json.dumps(info.pop("env"), sort_keys=True))
    print("# run " + json.dumps(info, sort_keys=True))
    for name, cause in failed:
        known = "" if (name, cause) in unexpected else " (known)"
        print(f"# failed{known}: {name}: {cause}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
