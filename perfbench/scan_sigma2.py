"""Lists the topo_n300 cases on which topology.sigma2 misses the eigvalsh
reference by more than the check's 1e-6, over a range of config seeds.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 \
        python3 perfbench/scan_sigma2.py 0 4000 > perfbench/sigma2_known.txt

Run from the root of a checkout. run.py reads the file it writes: a failure
of the sigma2 check on a listed case is a known defect of src/; on any
other case with a config seed in the scanned range, it is not. Ring and star
do not depend on the seed and are checked once.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from walkmeta import topology  # noqa: E402
from walkmeta.config import parse_config_text  # noqa: E402
from workloads import (SIGMA2_TOLERANCE, TOPO_CONFIG, TOPO_FAMILIES,  # noqa: E402
                       TOPO_LAZINESS, TOPO_N, TOPO_SCHEMES, reference_spectrum)

SEEDLESS = ("ring", "star")


def sigma2_error(family: str, scheme: str, seed: int) -> float:
    cfg = parse_config_text(TOPO_CONFIG.format(
        family=family, scheme=scheme, n=TOPO_N, laziness=TOPO_LAZINESS, seed=seed))
    ref, _ = reference_spectrum(cfg.build_graph().adj, scheme)
    return abs(topology.sigma2(cfg.build_transition()) - ref)


def main() -> None:
    start, stop = int(sys.argv[1]), int(sys.argv[2])
    print("# topo_n300 cases where topology.sigma2 is more than 1e-6 from the")
    print("# eigvalsh reference; written by scan_sigma2.py: seed family scheme error")
    print(f"# scanned config seeds {start} {stop}")
    for family in SEEDLESS:
        for scheme in TOPO_SCHEMES:
            err = sigma2_error(family, scheme, 0)
            if err > SIGMA2_TOLERANCE:
                raise SystemExit(f"{family}/{scheme} fails for every seed ({err:.2e})")
    for seed in range(start, stop):
        for family in TOPO_FAMILIES:
            if family in SEEDLESS:
                continue
            for scheme in TOPO_SCHEMES:
                err = sigma2_error(family, scheme, seed)
                if err > SIGMA2_TOLERANCE:
                    print(f"{seed} {family} {scheme} {err:.3g}", flush=True)


if __name__ == "__main__":
    main()
