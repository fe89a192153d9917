"""A block of clients through the array core equals each client alone, bit
for bit: gradients, Hessian-vector products, losses and exact
meta-gradients, for every head, and evaluation against a per-client loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmeta import metalearn, model, simulator, tasks
from walkmeta.errors import NumericalError
from walkmeta.optimizer import HyperParams

HEADS = (model.HEAD_MSE, model.HEAD_XENT, model.HEAD_QUADRATIC)


@st.composite
def blocks(draw):
    head = draw(st.sampled_from(HEADS))
    # widths up to 32 give d in the hundreds, where summation order shows
    hidden = tuple(draw(st.lists(st.integers(1, 32), min_size=1, max_size=2)))
    if head == model.HEAD_QUADRATIC:
        arch = model.Arch(1, (), draw(st.integers(1, 6)), head)
    else:
        out = draw(st.integers(2, 4)) if head == model.HEAD_XENT else draw(st.integers(1, 2))
        arch = model.Arch(draw(st.integers(1, 3)), hidden, out, head)
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return arch, n, m, rng


def random_batch(rng, arch, m):
    x = rng.uniform(-2, 2, size=(m, max(arch.input_dim, 1)))
    if arch.head == model.HEAD_XENT:
        return x, rng.integers(0, arch.output_dim, size=m)
    if arch.output_dim == 1:
        return x, rng.standard_normal(m)
    return x, rng.standard_normal((m, arch.output_dim))


def random_rows(rng, arch, n):
    return np.stack([model.init_params(arch, rng.integers(2**32)).values
                     + 0.1 * rng.standard_normal(arch.param_count) for _ in range(n)])


def stacked(arch, batches):
    return model.stack_batches([model.check_batch(arch, b) for b in batches])


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_grad_hvp_loss_rows_equal_single_calls(case):
    arch, n, m, rng = case
    rows = random_rows(rng, arch, n)
    batches = [random_batch(rng, arch, m) for _ in range(n)]
    dirs = rng.standard_normal((n, arch.param_count))
    dirs[rng.integers(n)] = 0.0   # a zero direction gives zeros, not NaN
    x, t = stacked(arch, batches)
    with model.quiet():
        g, tape = model.taped_grads(rows, arch, x, t)
        hv = model.hvps(tape, dirs)
        losses = model.losses(rows, arch, x, t)
    for i, batch in enumerate(batches):
        p = model.ParamVector(rows[i], arch)
        assert np.array_equal(g[i], model.grad(p, batch).values)
        assert np.array_equal(hv[i], model.hvp(p, batch, p.with_values(dirs[i])).values)
        assert losses[i] == model.loss(p, batch)
        if not dirs[i].any():
            assert np.array_equal(hv[i], np.zeros(arch.param_count))
    assert np.all(np.isfinite(hv))


@settings(max_examples=40, deadline=None)
@given(blocks(), st.integers(1, 3))
def test_meta_gradient_rows_equal_single_calls(case, K):
    arch, n, m, rng = case
    rows = random_rows(rng, arch, n)
    tasks_ = [tasks.TaskInstance("sine", random_batch(rng, arch, m),
                                 random_batch(rng, arch, m + 1)) for _ in range(n)]
    support = stacked(arch, [tk.support for tk in tasks_])
    query = stacked(arch, [tk.query for tk in tasks_])
    with model.quiet():
        states, tapes = metalearn.trajectory(rows, arch, support, 0.05, K)
        g = metalearn.exact_from_trajectory(states, tapes, arch, query, 0.05)
    for i, tk in enumerate(tasks_):
        p = model.ParamVector(rows[i], arch)
        assert np.array_equal(g[i], metalearn.meta_gradient_exact(p, tk, 0.05, K).values)
        assert np.array_equal(states[K][i],
                              metalearn.adapt_unseen(p, tk.support, 0.05, K).values)


@pytest.mark.parametrize("head", [model.HEAD_MSE, model.HEAD_XENT])
def test_overflowing_row_raises(head):
    arch = model.Arch(2, (4,), 3 if head == model.HEAD_XENT else 1, head)
    rng = np.random.default_rng(0)
    rows = random_rows(rng, arch, 3)
    rows[1] = 1e308   # the output layer sums past the largest float
    batches = [random_batch(rng, arch, 5) for _ in range(3)]
    x, t = stacked(arch, batches)
    with model.quiet(), pytest.raises(NumericalError):
        model.grads(rows, arch, x, t)
    with pytest.raises(NumericalError):
        model.grad(model.ParamVector(rows[1], arch), batches[1])


def per_client_evaluate(w, assignment, h):
    """Reference: every client alone through the ParamVector API, in the
    order evaluation has always used."""
    def metric(p, task):
        if p.arch.head == model.HEAD_XENT:
            x, y = task.query
            return float(np.mean(model.predict(p, x).argmax(axis=1) == y.astype(int)))
        return model.loss(p, task.query)

    def group(ts):
        vals = [metric(metalearn.adapt_unseen(w, t.support, h.alpha, h.K), t)
                for t in ts.values()]
        return float(np.mean(vals)) if vals else float("nan")

    gsum = np.zeros_like(w.values)
    for t in assignment.training.values():
        gsum += metalearn.meta_gradient_exact(w, t, h.alpha, h.K).values
    gmean = gsum / assignment.n_training
    return group(assignment.training), group(assignment.unseen), float(gmean @ gmean)


@pytest.mark.parametrize("kind,hidden", [("sine", (8, 8)), ("blob", (6,))])
def test_evaluate_equals_per_client_reference(kind, hidden):
    cfg = tasks.TaskConfig(kind=kind, shots=4, query_size=7, ways=3,
                           query_per_class=2)
    assignment = tasks.assign_clients(9, 6, cfg, seed=2)
    # a client with other batch shapes starts a block of its own
    odd = tasks.TaskConfig(kind=kind, shots=3, query_size=5, ways=3,
                           query_per_class=3)
    assignment.training[4] = tasks.assign_clients(5, 0, odd, seed=8).training[4]
    dim = 1 if kind == "sine" else 2
    arch = model.Arch(dim, hidden, 1 if kind == "sine" else 3,
                      model.HEAD_MSE if kind == "sine" else model.HEAD_XENT)
    w = model.init_params(arch, seed=1)
    h = HyperParams(alpha=0.05, K=3)
    assert simulator.evaluate(w, assignment, h) == per_client_evaluate(w, assignment, h)
