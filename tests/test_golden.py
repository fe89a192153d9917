"""Byte-level guard on run CSVs.

The SHA-256 of each CSV below was first recorded before the model core was
rewritten on raw arrays with a leading client axis. All twelve were
re-pinned when the finite-difference Hessian-vector product gave way to the
exact R-operator: against the previous rows, every case moved by at most
1.6e-7 relative on the metrics and 1.4e-6 on grad_norm_sq, and the
quadratic-head cases by about 2e-12, the finite-difference rounding that is
now gone. Any change to the arithmetic order of the forward pass, the
gradient, the Hessian-vector product, the meta-gradient or evaluation shows
up here as a different hash. T is a multiple of eval_every, so the rows do
not depend on where the last evaluation falls.
"""

import hashlib
from dataclasses import replace

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
    "blob-centralized_maml": "4ff8a8b0bf44294868ef251e577502498433dcb23aba11e76d775cdaede3a5d2",
    "blob-lodmeta": "5cac10c92fc15f439a73b14e57d970e4b41b547abf336d957b4e1ec59411efae",
    "blob-lodmeta_basic": "c2c8c4c97db84c087543b46aae72dc8ffe15c2e18123e4ba90596b404f6fdbac",
    "blob-lodmeta_sgd": "8fb66de6b1f5b228cbdf44e85822ed8fc8dc729d5b3a4b771115fe6b8247db06",
    "quadratic-centralized_maml": "95deb4f6867e40dcd419dabb4481190d39c5e66dc866923db9da24e548e45bf4",
    "quadratic-lodmeta": "d5d1fdcc5907d2a1363ee978bfadeaba2a6dd000a414accda0ebbd1f49358d3f",
    "sine-centralized_maml": "193baef0505f09b58335e485f83681bf417feaf8ceae9d1b8ec0c5801aa617bc",
    "sine-centralized_maml-n6": "d51c52349a9f2872fbd63a05d8f2fc55ce209d53577328fa8f3073f79edc0dca",
    "sine-lodmeta": "ba1f0b2fbd00431bfdda8b6da4f9f942cb80419bf410d5c330c3f198b41f8a67",
    "sine-lodmeta_basic": "79b295f45d6a3eef0b4308b59e7bdb8f4313e53a564fb248f297014f68597b7b",
    "sine-lodmeta_sgd": "fefec6f6b81457b73c8d4d115bbbb769348993598aefac657a2dfc09d595177c",
    "sine-private-d25": "e8db9b18c0dc9de83e68991d1652f54550cc2678edc11950f13f206523adbd75",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_pinned(name):
    text = simulator.run(CASES[name]).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
