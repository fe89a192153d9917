"""A block of clients through the array core equals each client alone, bit
for bit: gradients, Hessian-vector products, losses and exact
meta-gradients, for every head, and evaluation against a per-client loop.
A workspace reused across calls gives the same bits as fresh arrays, and
nothing a call returns lives in it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmeta import metalearn, model, simulator, tasks
from walkmeta.config import ExperimentConfig
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
        model.taped_grads(rows, arch, x, t)
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


@st.composite
def workspace_calls(draw):
    """One or two workspace setups (arch, support size, query size, K) and a
    sequence of calls, each on one setup with 1-4 rows or a lone vector."""
    setups = []
    for _ in range(draw(st.integers(1, 2))):
        arch, _, m, rng = draw(blocks())
        setups.append((arch, m, draw(st.integers(1, 7)), draw(st.integers(1, 3)), rng))
    calls = draw(st.lists(st.tuples(st.integers(0, len(setups) - 1),
                                    st.sampled_from([(), (1,), (2,), (3,), (4,)])),
                          min_size=2, max_size=6))
    return setups, calls


@settings(max_examples=40, deadline=None)
@given(workspace_calls())
def test_reused_workspace_equals_fresh_single_calls(case):
    setups, calls = case
    workspaces = [metalearn.Workspace(arch, m_s, m_q, K, simulator._CLIENT_BLOCK)
                  for arch, m_s, m_q, K, _ in setups]
    for which, lead in calls:
        arch, m_s, m_q, K, rng = setups[which]
        n = lead[0] if lead else 1
        rows = random_rows(rng, arch, n)
        tasks_ = [tasks.TaskInstance("sine", random_batch(rng, arch, m_s),
                                     random_batch(rng, arch, m_q)) for _ in range(n)]
        if lead:
            w = rows
            support = stacked(arch, [tk.support for tk in tasks_])
            query = stacked(arch, [tk.query for tk in tasks_])
        else:
            w = rows[0]
            support = model.check_batch(arch, tasks_[0].support)
            query = model.check_batch(arch, tasks_[0].query)
        ws = workspaces[which]
        with model.quiet():
            states, tapes = metalearn.trajectory(w, arch, support, 0.05, K, ws)
            metrics = model.losses(states[K], arch, *query, ws.cut(lead)[1])
            g = metalearn.exact_from_trajectory(states, tapes, arch, query, 0.05, ws)
        for i, tk in enumerate(tasks_):
            p = model.ParamVector(rows[i], arch)
            u = metalearn.adapt_unseen(p, tk.support, 0.05, K)
            assert np.array_equal(g.reshape(n, -1)[i],
                                  metalearn.meta_gradient_exact(p, tk, 0.05, K).values)
            assert np.array_equal(states[K].reshape(n, -1)[i], u.values)
            assert metrics[i] == model.loss(u, tk.query)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(),                                   # sine, widths 40, d=1761
    ExperimentConfig(hidden=(8,)),                        # sine, d=25
    ExperimentConfig(task=tasks.TaskConfig(kind="blob")),  # xent, width 64, d=517
], ids=["sine_d1761", "sine_d25", "blob_d517"])
def test_lone_equals_block_row_at_run_shapes(cfg):
    """A lone (d,) pass multiplies with np.dot and a block with np.matmul.
    At the shapes runs use (widths 40 and 64; 10, 15, 50 and 75 examples),
    with real client batches and the run's workspace, the lone gradient,
    HVP, inner states and exact meta-gradient equal row 0 of a 1-row and a
    4-row block bit for bit."""
    arch, h = cfg.build_arch(), cfg.hyper
    clients = simulator._Clients(tasks.assign_clients(4, 0, cfg.task, seed=0), arch, h.K)
    prepared = [clients.training[i] for i in range(4)]
    ws = prepared[0][2]
    rng = np.random.default_rng(5)
    rows = random_rows(rng, arch, 4)
    dirs = rng.standard_normal((4, arch.param_count))

    def row0(lead):
        n = lead[0] if lead else 1
        if lead:
            w, v = rows[:n], dirs[:n]
            support = model.stack_batches([c[0] for c in prepared[:n]])
            query = model.stack_batches([c[1] for c in prepared[:n]])
        else:
            w, v, (support, query, _) = rows[0], dirs[0], prepared[0]
        with model.quiet():
            g, tape = model.taped_grads(w, arch, *support, ws.cut(lead)[0][0])
            hv = model.hvps(tape, v)
            states, tapes = metalearn.trajectory(w, arch, support, h.alpha, h.K, ws)
            mg = metalearn.exact_from_trajectory(states, tapes, arch, query, h.alpha, ws)
        return [a.reshape(n, -1)[0] for a in [g, hv, *states[1:], mg]]

    lone = row0(())
    for lead in [(1,), (4,)]:
        for a, b in zip(lone, row0(lead), strict=True):
            assert np.array_equal(a, b)


def test_results_do_not_alias_the_workspace():
    arch = model.Arch(2, (6,), 3, model.HEAD_XENT)
    rng = np.random.default_rng(3)
    ws = metalearn.Workspace(arch, 5, 7, 2, simulator._CLIENT_BLOCK)

    def meta_gradient(n):
        rows = random_rows(rng, arch, n)
        support = stacked(arch, [random_batch(rng, arch, 5) for _ in range(n)])
        query = stacked(arch, [random_batch(rng, arch, 7) for _ in range(n)])
        with model.quiet():
            states, tapes = metalearn.trajectory(rows, arch, support, 0.05, 2, ws)
            return states + [metalearn.exact_from_trajectory(states, tapes, arch, query,
                                                             0.05, ws)]
    returned = meta_gradient(4)
    kept = [a.copy() for a in returned]
    meta_gradient(4)
    meta_gradient(2)
    for a, b in zip(returned, kept):
        assert np.array_equal(a, b)


def test_warm_block_meta_gradient_allocates_little():
    """The tapes live in the run's workspace, so a warm call allocates little
    beyond what it returns or keeps. Over a 4-client blob block (d=517, 50
    support and 75 query examples) that is its states and gradients, about
    0.2 MB, where fresh tapes took 1.9 MB. A lone client's walk step runs
    its cut's bound program and copies out only the meta-gradient, so its
    peak is that (d,) array plus 2.6 kB: the call's Python objects and
    numpy's own transient iterator buffers for broadcast and reduce ops (at
    most 2.1 kB at d=25). Checked for the default sine step (d=1761) and at
    d=25, where one broadcast op that allocated its (10, 8) result would
    show."""
    blob = ExperimentConfig(task=tasks.TaskConfig(kind="blob"))
    for cfg, n_clients, bound in [(blob, 4, 0.5e6), (ExperimentConfig(), 1, None),
                                  (ExperimentConfig(hidden=(8,)), 1, None)]:
        arch = cfg.build_arch()
        bound = bound or arch.param_count * 8 + 2.6e3
        clients = simulator._Clients(tasks.assign_clients(n_clients, 0, cfg.task, seed=0),
                                     arch, cfg.hyper.K)
        block = list(clients.training.values())
        w = model.init_params(arch, seed=0)
        simulator._mean_meta_gradient(w.values, arch, block, cfg.hyper)
        tracemalloc.start()
        try:
            simulator._mean_meta_gradient(w.values, arch, block, cfg.hyper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (arch.param_count, n_clients, peak, bound)
