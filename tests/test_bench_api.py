"""The names the frozen benchmark harness reaches into: `perfbench/tracer.py`
wraps every function in its TARGETS by attribute lookup, and perfbench scores
a run by `metalearn.meta_loss` on its `final_params`. Deleting or retyping one
of them breaks `perfbench/run.py --trace 1` or the benchmark's scoring."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import walkmeta
from walkmeta import metalearn, model, simulator, tasks
from walkmeta.config import ExperimentConfig, TopologySpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.TARGETS


def test_every_traced_target_resolves(targets):
    import walkmeta.cli  # noqa: F401  (the tracer loads every module through it)
    missing = []
    for module, attr in targets:
        owner = getattr(walkmeta, module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_final_params_score_through_meta_loss():
    cfg = ExperimentConfig(topology=TopologySpec(family="ring", n=4), n_training=4,
                           n_unseen=0, hidden=(8,),
                           task=tasks.TaskConfig(kind="sine", shots=5, query_size=10),
                           T=2, eval_every=1, seed=0)
    rec = simulator.run(replace(cfg, method="lodmeta"))
    assert isinstance(rec.final_params, model.ParamVector)
    task = cfg.build_assignment().training[0]
    h = cfg.hyper
    assert np.isfinite(metalearn.meta_loss(rec.final_params, task, h.alpha, h.K))
