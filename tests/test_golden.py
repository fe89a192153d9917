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
Seven were re-pinned again when the inner step size alpha moved into the
support heads' divisor and the softmax head took p = e / sum(e) with its
class sums as products: every value moved by at most 5.3e-16 relative
(5.25e-16, sine-lodmeta), and blob-lodmeta_basic, blob-lodmeta_sgd,
sine-private-d25 and the quadratic cases kept their bytes. Those pins were taken under OpenBLAS 0.3.31 with its SkylakeX core and its
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
    "blob-centralized_maml": "8a491773ffda59d268f08e83787cdf53cde01730ae53923844cb054f0e092ace",
    "blob-lodmeta": "4284a0b08584c74a9a3524122bda91be12cdeb1af57ab9ab27056dc5eb7fe038",
    "blob-lodmeta_basic": "8ac59f0fddb230de9fe985060c637a6cc33a6e736cc273a20385f5846925b521",
    "blob-lodmeta_sgd": "76b1f12d1b2d633166c93b431831f0d4e94a3ebb8092fcd23461365f2f01fe52",
    "quadratic-centralized_maml": "95deb4f6867e40dcd419dabb4481190d39c5e66dc866923db9da24e548e45bf4",
    "quadratic-lodmeta": "d5d1fdcc5907d2a1363ee978bfadeaba2a6dd000a414accda0ebbd1f49358d3f",
    "sine-centralized_maml": "afe22454f86ece8244f9ee53fdf57a026b1d0cd5b90e9a87fb4f24320fb2b50d",
    "sine-centralized_maml-n6": "06324b808ae4dc4aaec9dc73ff4f1b471672bf9d8cab807167440b1113fab404",
    "sine-lodmeta": "ca04bd09c5164882ce53b2f25347bf95ccef5ccc5ea38c9f2c76ea0093763e14",
    "sine-lodmeta_basic": "450e5f292202847ce6ddb8a3ad967eadf0a1fab9067a71301a5e4266f998efcd",
    "sine-lodmeta_sgd": "571727fbd1d73aa72f759321c4b575624f112c04f68b6e1ac776867d6e66d74b",
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
