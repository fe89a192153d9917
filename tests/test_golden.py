"""Byte-level guard on run CSVs.

The SHA-256 of each CSV below was recorded before the model core was
rewritten on raw arrays with a leading client axis. Any change to the
arithmetic order of the forward pass, the gradient, the Hessian-vector
product, the meta-gradient or evaluation shows up here as a different hash.
T is a multiple of eval_every, so the rows do not depend on where the last
evaluation falls.
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
    "blob-centralized_maml": "3dbf3ff55ec9758f663ce99c6c0f33af3597cf4c0614f3aabeb21bb76624ffb3",
    "blob-lodmeta": "214ab1a72f004a01c18fb642391d268b90d08a9183d695c7993f5e75b75d0732",
    "blob-lodmeta_basic": "b34fe5a35afc195ec3cddcaee1740303d6e9935201b9b134b1797637bb6fb850",
    "blob-lodmeta_sgd": "41ed147711e2b42f4326cdf4d7d37494893a2e811cc3a7016f75d20340f4316e",
    "quadratic-centralized_maml": "4fbdcd1551b1edb46cfe7611a17e2cd2b7fb566cd95b850026527cc7e292cc89",
    "quadratic-lodmeta": "719b3168168a3db2ddde206b4c7d91ab2d061dd774ca039760e4a97a28079498",
    "sine-centralized_maml": "1730ac644d436023e5a7b56120a3d3820ebbee4fa23f40e6942ff2b7606f8860",
    "sine-centralized_maml-n6": "8d4dd3f92f7f7c31a7afff2541c7bd8a9380606e47e41068df0fa9b281e5d01a",
    "sine-lodmeta": "1154fd6413cc64c616a028837e9182b1759926139aafde0be5487415440dc0a8",
    "sine-lodmeta_basic": "d28e89a953e7cc9a974ff8482086e1699666ebe3ec755130a335ba096bc94401",
    "sine-lodmeta_sgd": "6046832514bba19806a85e441ab52bfae377e820226ae4d32937bb3a60e1707b",
    "sine-private-d25": "a6921e76a8cc7f5a0a6129dd7ad335451055b16e686102b16bf6ca92ed82d957",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_pinned(name):
    text = simulator.run(CASES[name]).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
