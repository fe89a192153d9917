"""The step's tail after the meta-gradient, bound once per run
(`simulator._Tail`), equals the reference functions the loop once called
on fresh arrays, bit for bit: `optimizer.clip`,
`privacy.sample_perturbation`, then `optimizer.adam_step` or
`optimizer.sgd_step`, then w + delta. The run-level tests swap the bound
tail for `ReferenceTail`, which calls those functions, and compare whole
records, aborts included. A last group guards the mechanism: no op a walk
step runs has a Python-float operand, a lone cut's products are bound
`ndarray.dot` calls, no op list calls `np.dot`, `np.vdot` or `np.copyto`
(copies are bound `__setitem__`), the mse heads divide by m k / 2 with no
doubling op, a walk draws its T - 1 moves by `topology.sample_next`, and
its clients share the lone `step` and keep only their own loads."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkmeta import metalearn, model, optimizer, privacy, simulator, tasks, topology
from walkmeta.config import METHOD_TABLE, ExperimentConfig, TopologySpec
from walkmeta.errors import NumericalError
from walkmeta.optimizer import AuxState, HyperParams
from walkmeta.privacy import PrivacyParams


class ReferenceTail:
    """The tail as the loop ran it before it was bound: the reference
    functions on fresh arrays, with m/v as an AuxState per owner."""

    def __init__(self, w, h, adam, private=None, rng=None):
        self.w, self.g, self.aux = w, np.empty(w.size), {}
        self._h, self._adam, self._private, self._rng = h, adam, private, rng

    def __call__(self, owner):
        g, noise = self.g, 0.0
        if self._private is not None:
            g = optimizer.clip(g, self._private.m_meta)
            noise = privacy.sample_perturbation(privacy.noise_sigma(self._private), g.size,
                                                self._rng)
        if self._adam:
            state = self.aux.get(owner, AuxState.zeros(g.size))
            self.aux[owner], delta = optimizer.adam_step(state, g, noise, self._h)
        else:
            delta = optimizer.sgd_step(g, self._h.eta)
        self.delta = delta
        np.copyto(self.w, self.w + delta)
        return bool(np.isfinite(self.w).all())


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


KINDS = ["below", "at", "above", "zero", "-0", "overflow", "inf", "nan"]


def gradient(rng, kind, g_at):
    """A meta-gradient of one kind, against the clip bound M = |g_at|, the
    norm as clip computes it: |g| below or above M, exactly M (g_at with
    random signs, whose norm is the same sum of the same squares), +0 or -0
    (after a negative m, theta = 0 makes m -0, which noiseless Adam's
    `+ 0.0` turns into +0 in delta), an overflowing |g| (finite entries of
    1e200), an infinite entry (a centralized mean of finite rows can
    overflow) or a NaN entry."""
    d = g_at.size
    g = rng.standard_normal(d)
    norm, bound = math.sqrt(g @ g), math.sqrt(g_at @ g_at)
    if kind == "at":
        return g_at * rng.choice([-1.0, 1.0], d)
    if kind in ("below", "above"):
        return g * (bound / norm * (0.5 if kind == "below" else 3.0))
    if kind in ("zero", "-0"):
        return np.zeros(d) * (-1.0 if kind == "-0" else 1.0)
    if kind == "overflow":
        return g / np.abs(g).max() * 1e200
    g[rng.integers(d)] = np.inf if kind == "inf" else np.nan
    return g


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(method=st.sampled_from(sorted(METHOD_TABLE)), noisy=st.booleans(),
       d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       theta=st.sampled_from([0.0, 0.5, 0.9]), beta=st.sampled_from([0.0, 0.9, 0.99]),
       lam=st.sampled_from([1e-8, 1.0]), eta=st.sampled_from([1e-3, 0.5, 1e300]),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=10))
@example(method="lodmeta_basic", noisy=False, d=4, seed=0, theta=0.0, beta=0.9, lam=1e-8,
         eta=1e-3, kinds=["below", "-0", "below"])
def test_bound_tail_equals_reference_functions(method, noisy, d, seed, theta, beta, lam,
                                               eta, kinds):
    """Steps by owners in turn, so from the m/v states earlier steps left,
    for each method's optimizer with noise on and off, over every kind of
    gradient above: each step gives the reference's outcome (w finite or
    not, or adam_step's abort message, with w unmoved), w, delta, m and v
    bits, and leaves the noise stream where the reference leaves it. Only
    lodmeta runs with noise, but the bound tail takes it with any optimizer.
    The one input where the two differ is a NaN gradient under clip and SGD:
    clip makes every entry NaN, the bound factor keeps the others. No run
    reaches it: a walk step's meta-gradient is checked finite, and a mean of
    finite rows is finite or infinite, never NaN. Bound steps run inside
    model.quiet() and warn of nothing."""
    spec = METHOD_TABLE[method]
    adam = spec.aux is not None
    rng = np.random.default_rng(seed)
    g_at = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
    private = (PrivacyParams(0.5, 0.3, m_meta=math.sqrt(g_at @ g_at), enabled=True)
               if noisy else None)
    h = HyperParams(eta=eta, theta=theta, beta=beta, lam=lam)
    w = rng.standard_normal(d)
    noise_rngs = [np.random.default_rng([seed, 1]) for _ in range(2)]
    bound, ref = (cls(w.copy(), h, adam, private, r)
                  for cls, r in zip((simulator._Tail, ReferenceTail), noise_rngs))
    for kind in kinds:
        if kind == "nan" and noisy and not adam:
            continue
        g = gradient(rng, kind, g_at)
        owner = int(rng.integers(3)) if spec.aux == "client" else -1
        outcomes = []
        for tail, errstate in ((bound, model.quiet()), (ref, np.errstate(all="ignore"))):
            np.copyto(tail.g, g)
            with errstate:
                try:
                    outcomes.append(tail(owner))
                except NumericalError as e:
                    outcomes.append(str(e))
        assert outcomes[0] == outcomes[1], (kind, outcomes)
        assert same_bits(bound.w, ref.w), kind
        if isinstance(outcomes[1], str):   # the run ends, w unmoved
            assert outcomes[1] == "non-finite gradient passed to adam_step"
            assert same_bits(bound.w, w)
            break
        assert same_bits(bound.delta, ref.delta), kind
        if adam:
            assert same_bits(bound.aux[owner][0], ref.aux[owner].m), kind
            assert same_bits(bound.aux[owner][1], ref.aux[owner].v), kind
        if not outcomes[1]:   # w is non-finite: the run ends
            break
        w = ref.w.copy()
    assert noise_rngs[0].random() == noise_rngs[1].random()


def small_cfg(**kw):
    base = dict(topology=TopologySpec(family="ring", n=6, laziness=0.1), n_training=6,
                n_unseen=2, hidden=(8,), n_active=3, record_trace=True,
                task=tasks.TaskConfig(kind="sine", shots=5, query_size=10),
                T=12, eval_every=4, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def run_both(monkeypatch, cfg, inject=None):
    """cfg's record with the bound tail and with ReferenceTail. `inject`
    (step, kind) overwrites the meta-gradient of that step, as `gradient`
    makes it, before the tail reads it."""
    real = simulator._mean_meta_gradient
    records = []
    for tail in (simulator._Tail, ReferenceTail):
        calls = []

        def mean_meta_gradient(w, clients, g):
            real(w, clients, g)
            if inject is not None and len(calls) == inject[0]:
                np.copyto(g, gradient(np.random.default_rng(0), inject[1], g))
            calls.append(1)
            return g
        monkeypatch.setattr(simulator, "_Tail", tail)
        monkeypatch.setattr(simulator, "_mean_meta_gradient", mean_meta_gradient)
        records.append(simulator.run(cfg))
    return records


def assert_same_records(bound, ref):
    assert bound.to_csv() == ref.to_csv()
    assert (bound.aborted, bound.abort_reason) == (ref.aborted, ref.abort_reason)
    assert same_bits(bound.final_params.values, ref.final_params.values)
    assert bound.trace.active == ref.trace.active
    assert all(same_bits(a, b) for a, b in zip(bound.trace.w, ref.trace.w, strict=True))


PRIVATE = PrivacyParams(epsilon=0.5, delta=0.3, m_meta=1.0, enabled=True)


@pytest.mark.parametrize("method", sorted(METHOD_TABLE))
@pytest.mark.parametrize("private", [False, True], ids=["plain", "private"])
def test_runs_equal_reference_tail_runs(monkeypatch, method, private):
    """Whole runs of every method, with privacy on and off (only lodmeta
    adds noise), give the same CSV, trace and final parameters with the
    bound tail as with the reference functions."""
    cfg = small_cfg(method=method, privacy=PRIVATE if private else PrivacyParams())
    bound, ref = run_both(monkeypatch, cfg)
    assert not bound.aborted
    assert_same_records(bound, ref)


# (method, private, what the step-2 meta-gradient is overwritten with, or a
# diverging eta) and the abort reason
ABORTS = [
    ("lodmeta", True, "inf", "non-finite gradient passed to adam_step"),
    ("lodmeta", False, "inf", "non-finite gradient passed to adam_step"),
    ("lodmeta_basic", False, "nan", "non-finite gradient passed to adam_step"),
    ("centralized_maml", False, "inf", "non-finite gradient passed to adam_step"),
    ("lodmeta_sgd", False, "inf", "non-finite parameters at iteration 2"),
    ("lodmeta", True, 1e308, "non-finite parameters at iteration 0"),
    ("lodmeta_sgd", False, 1e308, "non-finite parameters at iteration 0"),
    ("centralized_maml", False, 1e308, "non-finite parameters at round 0"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:eta=.* exceeds 2/m_meta")
@pytest.mark.parametrize("method,private,cause,reason", ABORTS)
def test_aborts_equal_reference_tail_aborts(monkeypatch, method, private, cause, reason):
    """Each way the tail aborts a run (adam_step's check of g, read before
    w moves, and the check of w after it moves, per iteration or per
    round) gives the reference's message, rows and final parameters; no
    op that runs on past a non-finite value warns."""
    cfg = small_cfg(method=method, privacy=PRIVATE if private else PrivacyParams())
    if isinstance(cause, float):
        bound, ref = run_both(monkeypatch, replace(cfg, hyper=HyperParams(eta=cause)))
    else:
        bound, ref = run_both(monkeypatch, cfg, inject=(2, cause))
    assert bound.aborted and bound.abort_reason == reason
    assert_same_records(bound, ref)


@pytest.mark.parametrize("method", ["lodmeta", "centralized_maml"])
def test_overflowing_norm_equals_reference(monkeypatch, method):
    """A meta-gradient of finite entries whose norm overflows is clipped to
    signed zeros in a private walk, and makes Adam's v infinite and its
    update zero in a centralized round; either way the run goes on as the
    reference's does."""
    cfg = small_cfg(method=method, privacy=PRIVATE)
    bound, ref = run_both(monkeypatch, cfg, inject=(2, "overflow"))
    assert not bound.aborted
    assert_same_records(bound, ref)


# ---------------------------------------------------------------------
# the mechanism

RUN_SHAPES = [
    ExperimentConfig(),                                   # sine, d=1761
    ExperimentConfig(hidden=(8,)),                        # sine, d=25
    ExperimentConfig(task=tasks.TaskConfig(kind="blob")),  # xent, d=517
    ExperimentConfig(head=model.HEAD_QUADRATIC),
]
RUN_SHAPE_IDS = ["sine_d1761", "sine_d25", "blob_d517", "quadratic"]


def bound_tails(cfg):
    """The op lists of a bound tail for each optimizer, with and without
    noise, each bound for one owner."""
    w = np.zeros(cfg.build_arch().param_count)
    for adam in (True, False):
        for private in (None, PRIVATE):
            tail = simulator._Tail(w, cfg.hyper, adam, private, np.random.default_rng(0))
            np.copyto(tail.g, 1.0)
            with model.quiet():
                tail(0)
            yield tail._ops[0] + tail._move


def is_bound_dot(f):
    return isinstance(getattr(f, "__self__", None), np.ndarray) and f.__name__ == "dot"


@pytest.mark.parametrize("cfg", RUN_SHAPES, ids=RUN_SHAPE_IDS)
def test_walk_step_ops_dispatch_lean(cfg):
    """No op of a bound program (`step`, lone and in the (4,) and (2,)
    cuts at run shapes) or of a bound tail has a Python float operand:
    each scalar is a 0-d array. No op list calls np.dot or np.vdot, nor
    np.equal: the xent label masks are written when labels are. Every
    product of the lone cut is its left operand's bound ndarray.dot: it
    makes one for each np.matmul of a block cut, and the finiteness checks
    are bound dots in both."""
    arch, h = cfg.build_arch(), cfg.hyper
    clients = simulator.Clients(tasks.assign_clients(4, 0, cfg.task, seed=0), arch, h)
    ws = clients.training[0][2]
    lists = {lead: ws.programs(lead).step.ops for lead in [(), (4,), (2,)]}
    lists["tail"] = [op for ops in bound_tails(cfg) for op in ops]
    for name, ops in lists.items():
        for f, operands in ops:
            assert not any(isinstance(a, float) for a in operands), (name, f, operands)
            assert f is not np.dot and f is not np.vdot, (name, f)
            assert f is not np.equal, (name, f)   # label masks are written by load

    def count(ops, test):
        return sum(1 for f, _ in ops if test(f))
    lone, block = lists[()], lists[(4,)]
    assert count(lone, lambda f: f is np.matmul) == 0
    assert count(block, lambda f: f is np.matmul) > 0 or arch.head == model.HEAD_QUADRATIC
    assert (count(lone, is_bound_dot)
            == count(block, lambda f: f is np.matmul) + count(block, is_bound_dot))


def test_pass_products_are_bound_dots_when_lone():
    """A lone tape's passes multiply only with bound ndarray.dot, a block
    tape's only with np.matmul."""
    arch = model.Arch(2, (5, 4), 3, model.HEAD_XENT)
    for lead, lone in [((), True), ((3,), False)]:
        tape = model.Tape(arch, lead, 6)
        ops = tape.forward + tape.backward + tape.rop
        dots, matmuls = (sum(1 for f, _ in ops if test(f))
                         for test in (is_bound_dot, lambda f: f is np.matmul))
        assert (dots > 0, matmuls > 0) == (lone, not lone)


def is_copy(f):
    """Whether f is an array's bound __setitem__, the copy of an op list."""
    return isinstance(getattr(f, "__self__", None), np.ndarray) and f.__name__ == "__setitem__"


@pytest.mark.parametrize("cfg", RUN_SHAPES, ids=RUN_SHAPE_IDS)
def test_no_walk_or_block_op_calls_copyto(cfg):
    """A walk iteration (a client's kept rows, the lone step and the tail)
    and a block (its rows, bound per round or kept for evaluation, and
    programs) copy by bound __setitem__ only: no op calls np.copyto."""
    cfg = replace(cfg, T=6, eval_every=3)
    arch, h = cfg.build_arch(), cfg.hyper
    clients = simulator.Clients(cfg.build_assignment(), arch, h)
    simulator.run(cfg, clients)
    ws = clients.training[0][2]
    lone = ws.programs(())
    lists = [lone.step.ops, *(ops for c in clients.training.values() for ops in c.lone)]
    lists += [rows for _, rows, _ in clients.blocks]
    for lead in [(4,), (2,)]:
        programs = ws.programs(lead)
        lists += [programs.step.ops, programs.rows(list(clients.training.values())[:lead[0]])]
    lists += list(bound_tails(cfg))
    assert len(clients.training) > 1
    for ops in lists:
        assert all(f is not np.copyto for f, _ in ops)
    assert sum(is_copy(f) for ops in lists for f, _ in ops) > 0


@pytest.mark.parametrize("lead", [(), (3,)])
def test_mse_heads_divide_by_half_count_with_no_doubling(lead):
    """The mse head's 2 (z - t) / (m k) and its R-head's 2 R(z) / (m k)
    are each one division by m k / 2: no op of either multiplies by 2. The
    only doubling left is R(tanh') = -2 h R(h), one per hidden layer."""
    arch = model.Arch(2, (5, 4), 3)
    m = 7
    tape = model.Tape(arch, lead, m)
    for ops in (tape.backward, tape.rop):
        divides = [a for f, a in ops if f is np.divide]
        assert divides and all(float(a[1]) == m * 3 / 2 for a in divides)

    def doubling(ops):
        return [a for _, a in ops if any(x is model._TWO for x in a)]
    assert doubling(tape.backward) == []
    hidden = range(len(arch.hidden), 0, -1)   # R-backward's order
    assert [a[1] for a in doubling(tape.rop)] == [tape.hs[li] for li in hidden]


def test_walk_of_T_steps_draws_T_minus_1_moves(monkeypatch):
    """The loop moves the token by topology.sample_next, once per step after
    the first, so a tracer wrapping it counts T - 1 calls."""
    calls = []
    real = topology.sample_next
    monkeypatch.setattr(topology, "sample_next",
                        lambda *args: calls.append(1) or real(*args))
    rec = simulator.run(small_cfg(T=12))
    assert not rec.aborted and len(calls) == 11


def test_walk_clients_share_the_step_and_keep_only_their_copies(monkeypatch):
    """Every iteration of a walk, whatever its client, runs the one lone
    `step` list; what a client keeps is its rows alone: the copies of its
    batches and, for xent, the label masks."""
    for task in (tasks.TaskConfig(kind="sine", shots=5, query_size=10),
                 tasks.TaskConfig(kind="blob")):
        cfg = small_cfg(task=task)
        clients = simulator.Clients(cfg.build_assignment(), cfg.build_arch(), cfg.hyper)
        ran = []
        real = metalearn._Program.__call__
        monkeypatch.setattr(metalearn._Program, "__call__",
                            lambda self: ran.append(self.ops) or real(self))
        simulator.run(cfg, clients)
        monkeypatch.undo()
        lone = clients.training[0][2].programs(())
        assert sum(ops is lone.step.ops for ops in ran) == cfg.T
        kept = [ops for *_, [ops] in clients.training.values()]
        assert len(kept) > 1 and len({id(ops) for ops in kept}) == len(kept)
        for ops in kept:
            assert all(is_copy(f) or f is np.equal for f, _ in ops)
            assert len(ops) == 4 + 2 * (task.kind == "blob")
