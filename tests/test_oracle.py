"""The exact meta-gradient is exact: checked against tests/oracle.py, which
shares no code with the tapes, by complex-step differentiation.

At the shapes runs use (sine d=25 and d=1761, mse; blob d=517, xent; K=5
and real client batches) and for alpha 0.01, 0.5 and 5.0, the directional
derivative <g, v> of the meta-gradient g of a lone `Programs.step` and of
each row of a 4-row block, along random v, equals the oracle's complex
step of the adapted query loss; so does a lone step and each row of a
2-row block on archs drawn by hypothesis (1-3 hidden layers, mse or xent,
K 1-3, random batches of 1-6 examples). The oracle's gradient, and
model.grad and model.hvp (which carry no alpha), are checked against it too.

Tolerances. A value a of the package agrees with the oracle's b when
|a - b| <= REL * s + FLOOR * n:
- s is the magnitude sum of the terms of a (sum |g_i v_i|), or the largest
  magnitude of a vector;
- REL = 1e-10 leaves a margin of about a thousand over the rounding of one
  pass or of a well-conditioned K=5 trajectory (1e-13 and below);
- for the meta-gradient, b is the oracle's complex step in extended
  precision (clongdouble, 11 more bits on x86) and n how far the same
  complex step in double precision lands from it: a trajectory that
  amplifies rounding, as a sine net's inner steps at alpha=5 do (the
  double oracle is 1e-4 off there), moves any double computation of its
  derivative by about that much;
- FLOOR = 100.
REL and FLOOR were fixed before the first comparison. The first n, the
spread of the double oracle under a one-rounding move of the point,
underestimated how far double computations stray at sine d=25, alpha=5.
Taking alpha out of one support head, dropping <p, R(z)> from the xent
R-operator, or summing the softmax over the examples in place of the
classes each fail these checks by orders of magnitude.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmeta import metalearn, model, simulator, tasks
from walkmeta.config import ExperimentConfig

import oracle
from test_blocks import random_batch, random_rows

REL, FLOOR = 1e-10, 100.0

SHAPES = {
    "sine_d25": ExperimentConfig(hidden=(8,)),
    "blob_d517": ExperimentConfig(task=tasks.TaskConfig(kind="blob")),
    "sine_d1761": ExperimentConfig(),
}


def setup(name, alpha=None):
    """The arch, its dims, K, four prepared clients, four points near
    initialisation and four directions."""
    cfg = SHAPES[name]
    arch = cfg.build_arch()
    h = cfg.hyper if alpha is None else replace(cfg.hyper, alpha=alpha)
    clients = simulator.Clients(tasks.assign_clients(4, 0, cfg.task, seed=0), arch, h)
    rng = np.random.default_rng(7)
    d = arch.param_count
    rows = np.stack([model.init_params(arch, s).values + 0.1 * rng.standard_normal(d)
                     for s in range(4)])
    dims = [arch.input_dim, *arch.hidden, arch.output_dim]
    return arch, dims, h.K, [clients.training[i] for i in range(4)], rows, \
        rng.standard_normal((4, d))


def assert_steps_equal_complex_step(ws, arch, K, alpha, clients, rows, dirs):
    """<g, v> of a lone step for client 0 and of each row of a block of all
    clients, from ws, against the oracle's complex step, within the bound."""
    dims = [arch.input_dim, *arch.hidden, arch.output_dim]
    for lead in [(), (len(clients),)]:
        n = lead[0] if lead else 1
        programs = ws.programs(lead)
        with model.quiet():
            programs.load(rows[:n].reshape(lead + (-1,)), clients[:n])
            programs.step()
        g = programs.query.dir.reshape(n, -1)
        for i, (support, query, *_) in enumerate(clients[:n]):
            def f(w):
                return oracle.adapted_query_loss(w, dims, arch.head, support, query,
                                                 alpha, K)
            want = oracle.derivative(f, rows[i], dirs[i], np.clongdouble)
            double = oracle.derivative(f, rows[i], dirs[i])
            got = g[i] @ dirs[i]
            bound = REL * np.abs(g[i] * dirs[i]).sum() + FLOOR * abs(double - want)
            assert abs(got - want) <= bound, (lead, i, got, want, bound)


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
    reason="the oracle's reference needs an extended-precision longdouble")


@needs_longdouble
@pytest.mark.parametrize("alpha", [0.01, 0.5, 5.0])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_meta_gradient_equals_complex_step(name, alpha):
    arch, _, K, prepared, rows, dirs = setup(name, alpha)
    assert_steps_equal_complex_step(prepared[0].workspace, arch, K, alpha, prepared,
                                    rows, dirs)


@st.composite
def drawn_cases(draw):
    """An arch with 1-3 hidden layers and an mse or xent head, support and
    query sizes, K, alpha, and the generator of its batches and points."""
    head = draw(st.sampled_from([model.HEAD_MSE, model.HEAD_XENT]))
    hidden = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    out = draw(st.integers(2, 4)) if head == model.HEAD_XENT else draw(st.integers(1, 2))
    arch = model.Arch(draw(st.integers(1, 3)), hidden, out, head)
    sizes = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return (arch, sizes, draw(st.integers(1, 3)), draw(st.sampled_from([0.01, 0.5, 5.0])),
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@needs_longdouble
@settings(max_examples=100, deadline=None)
@given(drawn_cases())
def test_meta_gradient_equals_complex_step_on_drawn_archs(case):
    arch, (m_support, m_query), K, alpha, rng = case
    clients = [tuple(model.check_batch(arch, random_batch(rng, arch, m))
                     for m in (m_support, m_query)) for _ in range(2)]
    ws = metalearn.Workspace(arch, m_support, m_query, K, alpha, 2)
    assert_steps_equal_complex_step(ws, arch, K, alpha, clients, random_rows(rng, arch, 2),
                                    rng.standard_normal((2, arch.param_count)))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_oracle_gradient_and_model_grad_and_hvp(name):
    """The oracle's gradient is the complex step of its loss; model.grad is
    the oracle's gradient and model.hvp the complex step of it."""
    arch, dims, _, prepared, rows, dirs = setup(name)
    for (support, *_), w, v in zip(prepared[:2], rows, dirs):
        g = oracle.grad(w, dims, arch.head, support)
        step = oracle.derivative(lambda u: oracle.loss(u, dims, arch.head, support), w, v)
        assert abs(g @ v - step) <= REL * np.abs(g * v).sum()
        p = model.ParamVector(w, arch)
        assert np.abs(model.grad(p, support).values - g).max() <= REL * np.abs(g).max()
        hv = model.hvp(p, support, p.with_values(v)).values
        step = oracle.derivative(lambda u: oracle.grad(u, dims, arch.head, support), w, v)
        assert np.abs(hv - step).max() <= REL * np.abs(step).max()
