"""Byte-level guard on run CSVs.

The SHA-256 of each CSV below was first recorded before the model core was
rewritten on raw arrays with a leading client axis. All twelve were
re-pinned when the finite-difference Hessian-vector product gave way to the
exact R-operator: against the previous rows, every case moved by at most
1.6e-7 relative on the metrics and 1.4e-6 on grad_norm_sq, and the
quadratic-head cases by about 2e-12, the finite-difference rounding that is
now gone. The ten non-quadratic cases were re-pinned again when each
layer's bias moved into its products (a layer stored as one block [W^T; b],
each layer input with a ones column): a bias add and a bias-gradient sum
became part of a BLAS product, and against the previous rows every value
moved by at most 4.7e-16 relative; the quadratic cases kept their bytes.
Those pins were taken under OpenBLAS 0.3.31 with its SkylakeX core and its
default thread count, two threads on a 2-core x86 host; other cores and
thread counts fail some pins (see ROADMAP item 2). Any change to the
arithmetic order of the forward pass, the gradient, the Hessian-vector
product, the meta-gradient or evaluation shows up here as a different
hash, and `test_csv_rows_within_tolerance` then says whether the values
moved by more than rounding: tests/repin_golden_rows.py rewrites the rows
it reads and prints the largest movement, for the next re-pin. T is a
multiple of eval_every, so the rows do not depend on where the last
evaluation falls.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from walkmeta import simulator, tasks
from walkmeta.config import ExperimentConfig, TopologySpec
from walkmeta.optimizer import HyperParams
from walkmeta.privacy import PrivacyParams

METHODS = ("lodmeta", "lodmeta_sgd", "lodmeta_basic", "centralized_maml")

# Defaults: 20 training and 6 unseen clients, so evaluation covers full and
# partial client blocks; sine uses the (40, 40) net (d=1761), blob the
# 5-way xent net with 64 hidden units (d=517).
SINE = ExperimentConfig(T=10, eval_every=5, seed=3)
BLOB = ExperimentConfig(task=tasks.TaskConfig(kind="blob"), T=10, eval_every=5,
                        seed=4)
PRIVATE = ExperimentConfig(
    hidden=(8,), T=40, eval_every=20, seed=5,
    hyper=HyperParams(eta=0.001, lam=1.0),
    privacy=PrivacyParams(epsilon=0.5, delta=0.3, m_meta=1.0, enabled=True))
QUADRATIC = ExperimentConfig(
    topology=TopologySpec(family="complete", n=3, laziness=0.0),
    n_training=3, n_unseen=2, head="quadratic",
    hyper=HyperParams(eta=0.1, alpha=0.1, K=2), T=12, eval_every=4, seed=6)

CASES = {f"sine-{m}": replace(SINE, method=m) for m in METHODS}
CASES.update({f"blob-{m}": replace(BLOB, method=m) for m in METHODS})
CASES["sine-centralized_maml-n6"] = replace(SINE, method="centralized_maml",
                                            n_active=6)
CASES["sine-private-d25"] = PRIVATE
CASES["quadratic-lodmeta"] = QUADRATIC
CASES["quadratic-centralized_maml"] = replace(QUADRATIC, method="centralized_maml",
                                              n_active=3)

GOLDEN = {
    "blob-centralized_maml": "68f6842748083f083d36d748b8b4dd63cea3c636344715828019ec5482c49347",
    "blob-lodmeta": "dc2bac6a0db086cb192eb7f45668f647b4e25b925295ce0997005eb30487dfb0",
    "blob-lodmeta_basic": "8ac59f0fddb230de9fe985060c637a6cc33a6e736cc273a20385f5846925b521",
    "blob-lodmeta_sgd": "76b1f12d1b2d633166c93b431831f0d4e94a3ebb8092fcd23461365f2f01fe52",
    "quadratic-centralized_maml": "95deb4f6867e40dcd419dabb4481190d39c5e66dc866923db9da24e548e45bf4",
    "quadratic-lodmeta": "d5d1fdcc5907d2a1363ee978bfadeaba2a6dd000a414accda0ebbd1f49358d3f",
    "sine-centralized_maml": "3d4f0ea04d41bb8e7ab0da1e9546eb3926e4e73b22cf92c58b51572513edd481",
    "sine-centralized_maml-n6": "1c9c9caccd3c5d212bd4aed05ea5fd49e8a4d7a3acc100a3256247417301646a",
    "sine-lodmeta": "d1f243498e6d18aa8415ae33a69041ca4adda148925827ad67174aa7c0fa32a9",
    "sine-lodmeta_basic": "fe82245c0cc1f9c9eaf9fd091f395d753095343cda064bd2b39350a04d31ff1f",
    "sine-lodmeta_sgd": "32111ec257261578722455405ade82b1c36ed0efc10e101e5eae23e481b947e0",
    "sine-private-d25": "e5f7a7d61a68e0f769fcd31b6306e98d4ac13d4a0adc7476affe887eeda3e386",
}


# every line of each case's CSV, as tests/repin_golden_rows.py last wrote them
ROWS_PATH = Path(__file__).with_name("golden_rows.json")
# fixed before the rows were first compared with another build
ROW_TOL = 1e-12


def csv_text(name: str) -> str:
    return simulator.run(CASES[name]).to_csv()


def max_movement(old: list[str], new: list[str]) -> float:
    """The largest relative movement |a - b| / max(|a|, |b|) of a CSV value
    between two versions of one case's lines; inf when a line or a field
    that is not a number differs."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a_line, b_line in zip(old, new):
        a_fields, b_fields = a_line.split(","), b_line.split(",")
        if len(a_fields) != len(b_fields):
            return math.inf
        for a, b in zip(a_fields, b_fields):
            if a == b:
                continue
            try:
                a, b = float(a), float(b)
            except ValueError:
                return math.inf
            if not (math.isfinite(a) and math.isfinite(b)):
                return math.inf
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_pinned(name):
    text = csv_text(name)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_rows_within_tolerance(name):
    """Every value of the case's CSV within ROW_TOL relative of the stored
    rows, every other field equal: a hash failure that this test passes is
    rounding, and this test names how far a value moved when it is not."""
    stored = json.loads(ROWS_PATH.read_text())[name]
    assert max_movement(stored, csv_text(name).splitlines()) <= ROW_TOL
