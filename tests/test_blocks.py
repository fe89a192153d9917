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
    """Batches of equal shapes, checked, as one batch with a leading client
    axis, for the per-pass reference."""
    xs, ts = zip(*[model.check_batch(arch, b) for b in batches])
    return np.stack(xs), None if ts[0] is None else np.stack(ts)


def run_programs(ws, w, clients):
    """ws's programs for w's leading axes, loaded with one checked
    (support, query) per row: `adapt`, after which the tapes hold u_1 .. u_K
    and the query tape the adapted query losses, then `exact`. Returns u_0
    .. u_K, those losses and the meta-gradient, copied out."""
    programs = ws.programs(w.shape[:-1])
    programs.load(w, clients)
    programs.adapt()
    q = programs.query
    states = [w] + [t.point.copy() for t in programs.support[1:] + [q]]
    losses = model.head_losses(q.arch, q.point, q.z, q.t)
    programs.exact()
    return states, losses, q.dir.copy()


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


def mixed_clients(kind, hidden):
    """Nine training and six unseen clients, training client 4 with other
    batch sizes; their arch, a starting point and the step sizes."""
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
    return assignment, arch, model.init_params(arch, seed=1), HyperParams(alpha=0.05, K=3)


MIXED = pytest.mark.parametrize("kind,hidden", [("sine", (8, 8)), ("blob", (6,))])


@MIXED
def test_evaluate_equals_per_client_reference(kind, hidden):
    assignment, arch, w, h = mixed_clients(kind, hidden)
    assert (simulator.evaluate(w.values, simulator.Clients(assignment, arch, h))
            == per_client_evaluate(w, assignment, h))


@MIXED
def test_training_step_over_mixed_workspaces(kind, hidden):
    """A centralized round over clients 2 .. 6, client 4 in a workspace of
    its own, averages their per-client exact meta-gradients bit for bit,
    summed in client order."""
    assignment, arch, w, h = mixed_clients(kind, hidden)
    clients = simulator.Clients(assignment, arch, h)
    ids = range(2, 7)
    assert len({clients.training[i][2] for i in ids}) == 2
    gsum = np.zeros_like(w.values)
    for i in ids:
        gsum += metalearn.meta_gradient_exact(w, assignment.training[i], h.alpha, h.K).values
    g = simulator._mean_meta_gradient(w.values, [clients.training[i] for i in ids],
                                      np.empty(arch.param_count))
    assert np.array_equal(g, gsum / 5)


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
    workspaces = [metalearn.Workspace(arch, m_s, m_q, K, 0.05, simulator._CLIENT_BLOCK)
                  for arch, m_s, m_q, K, _ in setups]
    for which, lead in calls:
        arch, m_s, m_q, K, rng = setups[which]
        n = lead[0] if lead else 1
        rows = random_rows(rng, arch, n)
        tasks_ = [tasks.TaskInstance("sine", random_batch(rng, arch, m_s),
                                     random_batch(rng, arch, m_q)) for _ in range(n)]
        w = rows if lead else rows[0]
        clients = [(model.check_batch(arch, tk.support), model.check_batch(arch, tk.query))
                   for tk in tasks_]
        with model.quiet():
            states, metrics, g = run_programs(workspaces[which], w, clients)
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
    with real client batches, the lone gradient and HVP over a fresh tape,
    and the HVP over the run's workspace's first support tape, inner states
    and exact meta-gradient from its programs, equal row 0 of a 1-row and a
    4-row block bit for bit."""
    arch, h = cfg.build_arch(), cfg.hyper
    clients = simulator.Clients(tasks.assign_clients(4, 0, cfg.task, seed=0), arch, h)
    prepared = [clients.training[i] for i in range(4)]
    ws = prepared[0][2]
    rng = np.random.default_rng(5)
    rows = random_rows(rng, arch, 4)
    dirs = rng.standard_normal((4, arch.param_count))

    def row0(lead):
        n = lead[0] if lead else 1
        if lead:
            w, v, support = rows[:n], dirs[:n], stacked(arch, [c[0] for c in prepared[:n]])
        else:
            w, v, support = rows[0], dirs[0], prepared[0][0]
        with model.quiet():
            g, tape = model.taped_grads(w, arch, *support)
            hv = model.hvps(tape, v)
            states, _, mg = run_programs(ws, w, prepared[:n])
            taped_hv = model.hvps(ws.programs(lead).support[0], v)
        return [a.reshape(n, -1)[0] for a in [g, hv, taped_hv, *states[1:], mg]]

    lone = row0(())
    for lead in [(1,), (4,)]:
        for a, b in zip(lone, row0(lead), strict=True):
            assert np.array_equal(a, b)


def test_results_do_not_alias_the_workspace():
    arch = model.Arch(2, (6,), 3, model.HEAD_XENT)
    rng = np.random.default_rng(3)
    ws = metalearn.Workspace(arch, 5, 7, 2, 0.05, simulator._CLIENT_BLOCK)

    def meta_gradient(n):
        clients = [(model.check_batch(arch, random_batch(rng, arch, 5)),
                    model.check_batch(arch, random_batch(rng, arch, 7)), ws)
                   for _ in range(n)]
        return simulator._mean_meta_gradient(random_rows(rng, arch, 1)[0], clients,
                                             np.empty(arch.param_count))
    returned = [meta_gradient(1), meta_gradient(4)]
    kept = [a.copy() for a in returned]
    meta_gradient(1)
    meta_gradient(4)
    meta_gradient(2)
    for a, b in zip(returned, kept):
        assert np.array_equal(a, b)


def test_warm_block_meta_gradient_allocates_little():
    """The tapes live in the run's workspace, and each client's batches are
    copied straight into its row, so a warm call allocates little beyond
    what it returns or keeps. Over a 4-client blob block (d=517, 50 support
    and 75 query examples) the peak is 30.6 kB, 25 kB of it numpy's
    transient iterator buffer for the one-hot `equal` of the (4, 75) query
    labels. The bound, 38.6 kB, is that peak plus a margin of 8 kB fixed
    before it was measured. A block took 58 kB while biases were added by
    broadcasting (52 kB of it the bias add's iterator buffer), 70 kB when
    it stacked its clients' batches on every call, and 1.9 MB with fresh
    tapes. A lone client's walk step runs its cut's bound program and
    copies only the meta-gradient out, into the (d,) array g made inside
    the traced call, so its peak is that array plus 2.6 kB: the call's
    Python objects and numpy's own transient iterator buffers (1.1 kB in
    all at d=25). Checked for the default sine step (d=1761) and at d=25,
    where one broadcast op that allocated its (10, 8) result would show."""
    blob = ExperimentConfig(task=tasks.TaskConfig(kind="blob"))
    for cfg, n_clients, bound in [(blob, 4, 38.6e3), (ExperimentConfig(), 1, None),
                                  (ExperimentConfig(hidden=(8,)), 1, None)]:
        arch = cfg.build_arch()
        bound = bound or arch.param_count * 8 + 2.6e3
        clients = simulator.Clients(tasks.assign_clients(n_clients, 0, cfg.task, seed=0),
                                    arch, cfg.hyper)
        block = list(clients.training.values())
        w = model.init_params(arch, seed=0)
        simulator._mean_meta_gradient(w.values, block, np.empty(arch.param_count))
        tracemalloc.start()
        try:
            simulator._mean_meta_gradient(w.values, block, np.empty(arch.param_count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (arch.param_count, n_clients, peak, bound)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(),
    ExperimentConfig(hidden=(8,)),
    ExperimentConfig(task=tasks.TaskConfig(kind="blob")),
], ids=["sine_d1761", "sine_d25", "blob_d517"])
def test_bound_passes_add_no_bias_and_sum_no_examples(cfg):
    """Biases ride in the layer products (see the array core's comment):
    no op of a bound program, lone or in the (4,) and (2,) cuts at run
    shapes, broadcasts an operand along the example axis of the array it
    writes, as a bias add did, or reduces over the example axis, as a
    bias-gradient sum did. The one-hot label mask, which broadcasts the
    class indices over the examples, is written by `load`, not by a
    program."""
    arch, h = cfg.build_arch(), cfg.hyper
    clients = simulator.Clients(tasks.assign_clients(4, 0, cfg.task, seed=0), arch, h)
    ws = clients.training[0][2]
    for lead in [(), (4,), (2,)]:
        programs = ws.programs(lead)
        for f, operands in programs.step.ops:
            if isinstance(getattr(f, "__self__", None), np.ufunc) and f.__name__ == "reduce":
                a, axis = operands[:2]
                assert axis % a.ndim == a.ndim - 1, (f, lead, a.shape, axis)
                continue
            if f is np.copyto:
                out, *ins = operands
            elif isinstance(f, np.ufunc) and f.signature is None:   # not matmul
                *ins, out = operands
            else:
                continue
            for a in ins:
                if not isinstance(a, np.ndarray) or a.ndim == 0 or out.ndim < 2:
                    continue
                stride = np.broadcast_to(a, out.shape).strides[-2]
                assert out.shape[-2] == 1 or stride != 0, (f, lead, a.shape, out.shape)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(),
    ExperimentConfig(hidden=(8,)),
    ExperimentConfig(task=tasks.TaskConfig(kind="blob")),
    ExperimentConfig(head=model.HEAD_QUADRATIC),
], ids=["sine_d1761", "sine_d25", "blob_d517", "quadratic"])
def test_warm_program_ops_write_only_their_operands(cfg):
    """Every op of a warm program (`adapt`, `exact`, `step`), lone and with
    4 rows at run shapes, returns None or one of its own operands: none
    allocates its result, however small. A peak-memory bound cannot see a
    (10, 8) result beside numpy's transient iterator buffers. And `step`
    is `adapt` then `exact`, op for op."""
    arch, h = cfg.build_arch(), cfg.hyper
    clients = simulator.Clients(tasks.assign_clients(4, 0, cfg.task, seed=0), arch, h)
    prepared = [clients.training[i] for i in range(4)]
    ws = prepared[0][2]
    w = model.init_params(arch, seed=0).values
    for lead in [(), (4,)]:
        programs = ws.programs(lead)
        assert programs.step.ops == programs.adapt.ops + programs.exact.ops
        with model.quiet():
            programs.load(np.broadcast_to(w, lead + w.shape),
                          prepared[:lead[0] if lead else 1])
            programs.step()
            for program in (programs.adapt, programs.exact, programs.step):
                for f, operands in program.ops:
                    out = f(*operands)
                    assert out is None or any(out is a for a in operands), (f, operands)
