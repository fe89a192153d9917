import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmeta import model, metalearn, simulator, tasks
from walkmeta.config import METHOD_TABLE, ExperimentConfig, TopologySpec
from walkmeta.errors import ConfigError, NumericalError, ParameterError
from walkmeta.optimizer import HyperParams
from walkmeta.privacy import PrivacyParams
from walkmeta.simulator import MethodKind, comm_cost

from test_golden import QUADRATIC


def small_cfg(**kw):
    """Fast sine config: 6 clients on a ring, tiny net."""
    base = dict(
        topology=TopologySpec(family="ring", n=6, laziness=0.1),
        n_training=6, n_unseen=2, hidden=(8,),
        task=tasks.TaskConfig(kind="sine", shots=5, query_size=10),
        T=40, eval_every=20, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def quadratic_cfg(**kw):
    """Scalar quadratic surrogate on the 2-clique: deterministic alternation."""
    base = dict(
        topology=TopologySpec(family="complete", n=2, laziness=0.0,
                              scheme="uniform"),
        n_training=2, n_unseen=0, head="quadratic",
        hyper=HyperParams(eta=0.1, theta=0.0, beta=0.99, lam=1e-8,
                          alpha=0.1, K=2),
        T=6, eval_every=100, seed=1, record_trace=True)
    base.update(kw)
    return ExperimentConfig(**base)


class TestCommCost:
    def test_table(self):
        assert comm_cost(MethodKind("lodmeta")) == 1
        assert comm_cost(MethodKind("lodmeta_sgd")) == 1
        assert comm_cost(MethodKind("lodmeta_basic")) == 3
        assert comm_cost(MethodKind("centralized_maml", n_active=4)) == 8
        assert comm_cost(MethodKind("centralized_maml", n_active=1)) == 2

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            MethodKind("gossip")


class TestRunBasics:
    def test_t_zero_single_row(self):
        rec = simulator.run(replace(small_cfg(T=0), method="lodmeta"))
        assert len(rec.rows) == 1
        assert rec.rows[0].iteration == 0
        assert rec.rows[0].comm_units == 0

    def test_eta_zero_freezes_w(self):
        cfg = small_cfg(hyper=HyperParams(eta=0.0), record_trace=True)
        rec = simulator.run(replace(cfg, method="lodmeta"))
        for w in rec.trace.w:
            assert np.array_equal(w, rec.trace.w[0])

    def test_comm_ledger(self):
        def units(cfg, method):
            return simulator.run(replace(cfg, method=method)).rows[-1].comm_units
        assert units(small_cfg(), "lodmeta") == 40
        assert units(small_cfg(), "lodmeta_sgd") == 40
        assert units(small_cfg(), "lodmeta_basic") == 120
        cfg = small_cfg(method="centralized_maml", n_active=3)
        assert units(cfg, "centralized_maml") == 240

    @pytest.mark.parametrize("method", ["lodmeta", "centralized_maml"])
    def test_last_row_is_iteration_t(self, method):
        cfg = small_cfg(method=method, n_active=2, T=120, eval_every=50)
        rec = simulator.run(cfg)
        assert [r.iteration for r in rec.rows] == [0, 50, 100, 120]
        units = comm_cost(MethodKind(method, 2))
        assert rec.rows[-1].comm_units == 120 * units

    def test_reproducible_bitwise(self):
        a = simulator.run(replace(small_cfg(T=60), method="lodmeta"))
        b = simulator.run(replace(small_cfg(T=60), method="lodmeta"))
        assert a.rows == b.rows
        assert np.array_equal(a.final_params.values, b.final_params.values)

    def test_seed_changes_run(self):
        a = simulator.run(replace(small_cfg(T=30), method="lodmeta"))
        b = simulator.run(replace(small_cfg(T=30, seed=1), method="lodmeta"))
        assert not np.array_equal(a.final_params.values, b.final_params.values)


class TestHandBuiltAssignment:
    """A hand-built assignment must carry exactly the training ids
    0 .. n_training-1 the config describes, under every method."""

    @pytest.mark.parametrize("method, n_active, ids", [
        ("lodmeta", 1, (5, 6, 7)),
        ("centralized_maml", 1, (5, 6, 7)),
        ("centralized_maml", 2, (0,)),
        ("lodmeta_sgd", 1, (0, 1)),
        ("lodmeta_basic", 1, (0, 1, 2, 3)),
    ])
    def test_mismatch_names_both(self, method, n_active, ids):
        cfg = small_cfg(topology=TopologySpec(family="complete", n=3), n_training=3,
                        n_unseen=0, method=method, n_active=n_active, T=2)
        task = tasks.gen_sine_task(np.random.default_rng(0), 5, 10)
        assignment = tasks.ClientAssignment({i: task for i in ids}, {})
        with pytest.raises(ParameterError) as e:
            simulator.run(cfg, simulator.Clients(assignment, cfg.build_arch(), cfg.hyper))
        assert str(e.value) == ("assignment training ids must be 0 .. 2 "
                                f"(clients.n_training=3), got {list(ids)}")


class TestPreparedClients:
    """Clients prepared once serve every run of their arch, K and alpha, and
    evaluate each initial point once."""

    @staticmethod
    def prepared(cfg):
        return simulator.Clients(cfg.build_assignment(), cfg.build_arch(), cfg.hyper)

    @pytest.mark.parametrize("name, change", [
        ("arch", dict(hidden=(4,))),
        ("K", dict(hyper=HyperParams(K=3))),
        ("alpha", dict(hyper=HyperParams(alpha=0.02))),
    ])
    def test_clients_for_other_arch_k_or_alpha_rejected(self, name, change):
        cfg = small_cfg(T=2)
        with pytest.raises(ParameterError, match=rf"^{name}: clients must be prepared "):
            simulator.run(replace(cfg, **change), self.prepared(cfg))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16))
    def test_row_0_same_for_every_method(self, seed):
        """Every method starts from the same point on the same clients, so
        row 0's metrics are one triple, bit for bit, with or without
        sharing the clients."""
        cfg = small_cfg(seed=seed, T=0)
        clients = self.prepared(cfg)
        fresh, shared = [], []
        for method in METHOD_TABLE:
            fresh.append(simulator.run(replace(cfg, method=method)).rows[0])
            shared.append(simulator.run(replace(cfg, method=method), clients).rows[0])
        assert list(map(repr, shared)) == list(map(repr, fresh))
        triples = {np.array([r.train_metric, r.unseen_metric, r.grad_norm_sq]).tobytes()
                   for r in fresh}
        assert len(triples) == 1

    @staticmethod
    def count_binds(monkeypatch):
        """(cut's leading axes, clients) per call of Programs.rows, in order."""
        bound = []
        real = metalearn.Programs.rows
        monkeypatch.setattr(metalearn.Programs, "rows", lambda self, clients: bound.append(
            (self.query.point.shape[:-1], clients)) or real(self, clients))
        return bound

    def test_rows_bound_once_per_client_set(self, monkeypatch):
        """A Clients binds each evaluation block's rows when it is prepared,
        and a client's lone rows on its first walk step: the first walk run
        on it binds each client it visits once, in the lone cut, and a
        second run binds nothing; their CSVs are those of runs on fresh
        clients, byte for byte."""
        cfg = small_cfg(T=12, eval_every=4, record_trace=True)
        methods = ("lodmeta", "lodmeta_basic")
        bound = self.count_binds(monkeypatch)
        clients = self.prepared(cfg)
        n_blocks = len(clients.blocks)
        assert ([lead for lead, _ in bound]
                == [p.query.point.shape[:-1] for p, *_ in clients.blocks])
        shared = [simulator.run(replace(cfg, method=methods[0]), clients)]
        visited = sorted(set(shared[0].trace.active))
        assert 1 < len(visited) < len(shared[0].trace.active)   # clients revisited
        lone = bound[n_blocks:]
        assert [lead for lead, _ in lone] == [()] * len(visited)
        assert (sorted(id(c) for _, [c] in lone)
                == sorted(id(clients.training[i]) for i in visited))
        shared.append(simulator.run(replace(cfg, method=methods[1]), clients))
        assert len(bound) == n_blocks + len(visited)
        monkeypatch.undo()
        assert ([r.to_csv() for r in shared]
                == [simulator.run(replace(cfg, method=m)).to_csv() for m in methods])

    def test_quadratic_lone_rows_bound_once_per_client(self, monkeypatch):
        """The quadratic head's lone rows are empty, and still bound once: the
        golden quadratic walk binds as many lone cuts as it visits clients."""
        cfg = replace(QUADRATIC, record_trace=True)
        clients = self.prepared(cfg)
        bound = self.count_binds(monkeypatch)
        rec = simulator.run(cfg, clients)
        assert 1 < len(set(rec.trace.active)) < len(rec.trace.active)   # clients revisited
        assert [lead for lead, _ in bound] == [()] * len(set(rec.trace.active))
        assert all(c.lone == [[]] for c in clients.training.values())

    @pytest.mark.parametrize("change", [dict(T=0), dict(method="centralized_maml")],
                             ids=["T0", "centralized_maml"])
    def test_runs_that_never_walk_bind_no_lone_rows(self, monkeypatch, change):
        """A T=0 run and a centralized run (4 active clients a round) bind
        rows only for client blocks, never for the lone cut."""
        bound = self.count_binds(monkeypatch)
        rec = simulator.run(small_cfg(**{"T": 8, "eval_every": 4, **change}))
        assert not rec.aborted and bound
        assert [lead for lead, _ in bound if lead == ()] == []

    @pytest.mark.parametrize("kind", ["sine", "blob"])
    def test_evaluation_leaves_no_point_behind(self, kind):
        """Whoever runs a block writes its w, so evaluating w1, w2 and w1
        again on one Clients gives, bit for bit, the evaluations of each
        point on fresh clients."""
        cfg = small_cfg(task=tasks.TaskConfig(kind=kind))
        w1, w2 = (model.init_params(cfg.build_arch(), seed).values for seed in (0, 1))
        clients = self.prepared(cfg)
        shared = [simulator.evaluate(w, clients) for w in (w1, w2, w1)]
        fresh = [simulator.evaluate(w, self.prepared(cfg)) for w in (w1, w2, w1)]
        assert np.array(shared).tobytes() == np.array(fresh).tobytes()
        assert shared[0] != shared[1]

    @pytest.fixture
    def calls(self, monkeypatch):
        """The points simulator.evaluate is called at, in order."""
        calls = []
        real_evaluate = simulator.evaluate

        def evaluate(w, clients):
            calls.append(w.copy())
            return real_evaluate(w, clients)
        monkeypatch.setattr(simulator, "evaluate", evaluate)
        return calls

    def test_initial_evaluation_kept_by_bits(self, calls):
        cfg = small_cfg()
        clients = self.prepared(cfg)
        w = model.init_params(cfg.build_arch(), np.random.SeedSequence(0)).values
        first = clients.evaluate_initial(w)
        assert clients.evaluate_initial(w.copy()) is first
        assert len(calls) == 1 and np.array_equal(calls[0], w)
        zero = np.zeros_like(w)
        signed = zero.copy()
        signed[0] = -0.0
        clients.evaluate_initial(zero)
        clients.evaluate_initial(signed)   # equal to zero, but not in its bits
        assert len(calls) == 3 and np.signbit(calls[2][0])

    def test_failed_initial_evaluation_not_kept(self, calls):
        cfg = small_cfg()
        clients = self.prepared(cfg)
        w = np.full(cfg.build_arch().param_count, np.nan)
        for _ in range(2):
            with pytest.raises(NumericalError):
                clients.evaluate_initial(w)
        assert len(calls) == 2


class TestWalkValidity:
    def test_transitions_on_edges_or_lazy(self):
        cfg = small_cfg(topology=TopologySpec(family="small_world", n=6, k=2,
                                              p_rewire=0.3, laziness=0.1),
                        T=300, record_trace=True)
        rec = simulator.run(replace(cfg, method="lodmeta"))
        g = cfg.build_graph()
        seq = rec.trace.active
        assert len(seq) == 300
        for a, b in zip(seq, seq[1:]):
            assert a == b or g.adj[a, b]


class TestAuxLocality:
    def test_stateless_variants_coincide_bitwise(self):
        hp = HyperParams(eta=0.01, theta=0.0, beta=0.0)
        cfg = small_cfg(hyper=hp, T=100, record_trace=True)
        local = simulator.run(replace(cfg, method="lodmeta"))
        basic = simulator.run(replace(cfg, method="lodmeta_basic"))
        assert len(local.trace.w) == len(basic.trace.w) == 101
        for wa, wb in zip(local.trace.w, basic.trace.w):
            assert np.array_equal(wa, wb)

    def test_two_client_alternating_hand_trace(self):
        cfg = quadratic_cfg()
        local = simulator.run(replace(cfg, method="lodmeta"))
        basic = simulator.run(replace(cfg, method="lodmeta_basic"))
        h = cfg.hyper
        # quadratic surrogate: meta-gradient is (1-alpha)^(2K) * w, exactly
        c = (1.0 - h.alpha) ** (2 * h.K)
        w0 = float(local.trace.w[0][0])
        assert basic.trace.w[0][0] == local.trace.w[0][0]

        def hand(localized):
            w = w0
            v = {0: 0.0, 1: 0.0}
            v_tok = 0.0
            out = [w]
            for t, i in enumerate(local.trace.active):
                g = c * w
                if localized:
                    v[i] = h.beta * v[i] + (1 - h.beta) * g * g
                    vv = v[i]
                else:
                    v_tok = h.beta * v_tok + (1 - h.beta) * g * g
                    vv = v_tok
                w = w - h.eta * g / math.sqrt(vv + h.lam)
                out.append(w)
            return out

        hand_local, hand_basic = hand(True), hand(False)
        for t in range(7):
            assert abs(local.trace.w[t][0] - hand_local[t]) < 1e-12
            assert abs(basic.trace.w[t][0] - hand_basic[t]) < 1e-12
        # walk alternates on the 2-clique, so the shared preconditioner first
        # bites on the second update: traces agree through w_1, split at w_2
        assert local.trace.active[0] != local.trace.active[1]
        assert local.trace.w[1][0] == basic.trace.w[1][0]
        assert local.trace.w[2][0] != basic.trace.w[2][0]


class TestProtocolCollapse:
    def test_single_task_walk_equals_sequential_adam_maml(self):
        cfg = small_cfg(topology=TopologySpec(family="complete", n=3),
                        n_training=3, n_unseen=0,
                        hyper=HyperParams(eta=0.01, theta=0.0, beta=0.0),
                        T=25, record_trace=True)
        task = tasks.gen_sine_task(np.random.default_rng(42), 5, 10)
        assignment = tasks.ClientAssignment({0: task, 1: task, 2: task}, {})
        rec = simulator.run(replace(cfg, method="lodmeta"),
                            simulator.Clients(assignment, cfg.build_arch(), cfg.hyper))

        h = cfg.hyper
        w = model.ParamVector(rec.trace.w[0].copy(), cfg.build_arch())
        for t in range(25):
            g = metalearn.meta_gradient_exact(w, task, h.alpha, h.K).values
            w = w.with_values(w.values - h.eta * g / np.sqrt(g * g + h.lam))
            assert np.max(np.abs(w.values - rec.trace.w[t + 1])) < 1e-12

    def test_sgd_equivalence_with_dominant_lambda(self):
        lam = 1e6
        cfg_adam = small_cfg(hyper=HyperParams(eta=0.001, theta=0.0,
                                               beta=0.0, lam=lam),
                             T=50, record_trace=True)
        cfg_sgd = small_cfg(hyper=HyperParams(eta=0.001 / math.sqrt(lam)),
                            T=50, record_trace=True)
        a = simulator.run(replace(cfg_adam, method="lodmeta"))
        b = simulator.run(replace(cfg_sgd, method="lodmeta_sgd"))
        for wa, wb in zip(a.trace.w, b.trace.w):
            assert np.max(np.abs(wa - wb)) < 1e-9


class TestSgd:
    def test_one_step_is_plain_gradient(self):
        cfg = small_cfg(T=1, record_trace=True,
                        hyper=HyperParams(eta=0.05, theta=0.0, beta=0.0))
        rec = simulator.run(replace(cfg, method="lodmeta_sgd"))
        i0 = rec.trace.active[0]
        task = cfg.build_assignment().training[i0]
        w0 = model.ParamVector(rec.trace.w[0].copy(), cfg.build_arch())
        g = metalearn.meta_gradient_exact(w0, task, cfg.hyper.alpha,
                                          cfg.hyper.K).values
        assert np.max(np.abs(rec.trace.w[1] - (rec.trace.w[0] - 0.05 * g))) < 1e-15


class TestCentralized:
    def test_full_batch_matches_average_oracle(self):
        cfg = small_cfg(topology=TopologySpec(family="complete", n=4),
                        n_training=4, n_unseen=0, method="centralized_maml",
                        n_active=4, T=1, record_trace=True,
                        hyper=HyperParams(eta=0.01, theta=0.0, beta=0.0))
        rec = simulator.run(replace(cfg, method="centralized_maml"))
        assignment = cfg.build_assignment()
        w0 = model.ParamVector(rec.trace.w[0].copy(), cfg.build_arch())
        gsum = np.zeros_like(w0.values)
        for t in assignment.training.values():
            gsum += metalearn.meta_gradient_exact(w0, t, cfg.hyper.alpha,
                                                  cfg.hyper.K).values
        g = gsum / 4
        expected = rec.trace.w[0] - 0.01 * g / np.sqrt(g * g + cfg.hyper.lam)
        assert np.max(np.abs(rec.trace.w[1] - expected)) < 1e-12

    def test_single_active_client_cost(self):
        cfg = small_cfg(method="centralized_maml", n_active=1, T=20)
        rec = simulator.run(replace(cfg, method="centralized_maml"))
        assert rec.rows[-1].comm_units == 40

    def test_validates_the_method_that_runs(self):
        # cfg names a walk method, for which n_active > n_training is fine;
        # the server-sampled run must still reject it
        cfg = small_cfg(n_active=8)
        assert simulator.run(cfg).rows
        with pytest.raises(ConfigError, match=r"^method\.n_active: "):
            simulator.run(replace(cfg, method="centralized_maml"))


class TestEvaluate:
    def test_pure(self):
        cfg = small_cfg()
        arch = cfg.build_arch()
        w = model.init_params(arch, seed=0)
        assignment = cfg.build_assignment()
        clients = simulator.Clients(assignment, arch, cfg.hyper)
        a = simulator.evaluate(w.values, clients)
        b = simulator.evaluate(w.values, clients)
        assert a == b

    def test_quadratic_stationary_point(self):
        arch = model.Arch(1, (), 4, model.HEAD_QUADRATIC)
        w = model.ParamVector(np.zeros(4), arch)
        dummy = (np.zeros((1, 1)), np.zeros(1))
        task = tasks.TaskInstance("sine", dummy, dummy)
        assignment = tasks.ClientAssignment({0: task}, {})
        _, _, gsq = simulator.evaluate(w.values,
                                       simulator.Clients(assignment, arch, HyperParams()))
        assert gsq < 1e-12

    def test_blob_accuracy_metric(self):
        cfg = small_cfg(task=tasks.TaskConfig(kind="blob", ways=3, shots=5,
                                              query_per_class=5, dim=2,
                                              spread=0.1),
                        hidden=(8,), T=0)
        rec = simulator.run(replace(cfg, method="lodmeta"))
        assert 0.0 <= rec.rows[0].train_metric <= 1.0

    def test_non_finite_unseen_query_raises(self):
        """An unseen client's query forward pass is checked as every other
        one is, so a NaN input raises rather than scoring NaN logits."""
        cfg = small_cfg(task=tasks.TaskConfig(kind="blob"), hidden=(8,))
        arch = cfg.build_arch()
        assignment = cfg.build_assignment()
        cid = sorted(assignment.unseen)[0]
        task = assignment.unseen[cid]
        x = task.query[0].copy()
        x[0, 0] = np.nan
        assignment.unseen[cid] = replace(task, query=(x, task.query[1]))
        w = model.init_params(arch, seed=0).values
        with pytest.raises(NumericalError, match="non-finite forward values"):
            simulator.evaluate(w, simulator.Clients(assignment, arch, cfg.hyper))


class TestMeanMetaGradient:
    @pytest.mark.parametrize("n", [1, 4])
    def test_warm_call_builds_no_views(self, monkeypatch, n):
        """A run's tapes make their per-layer views when its workspaces are
        built or a cut is first used; a warm walk step or client block then
        builds none."""
        cfg = small_cfg()
        arch = cfg.build_arch()
        clients = simulator.Clients(cfg.build_assignment(), arch, cfg.hyper)
        block = list(clients.training.values())[:n]
        w = model.init_params(arch, seed=0)
        simulator._mean_meta_gradient(w.values, block, np.empty(arch.param_count))
        calls = []
        real = model._layer_views
        monkeypatch.setattr(model, "_layer_views",
                            lambda *args: calls.append(args) or real(*args))
        simulator._mean_meta_gradient(w.values, block, np.empty(arch.param_count))
        assert calls == []
        metalearn.Workspace(arch, 5, 10, cfg.hyper.K, 0.1, 1)  # the wrapper does count
        assert calls

    def test_workspace_builds_only_the_cuts_a_run_uses(self, monkeypatch):
        """The default sine run steps one client at a time and evaluates its
        20 training and 6 unseen clients in blocks of 4, 4, ... and 2. Its
        one workspace builds K + 1 tapes of 4 rows, then K + 1 of the lone
        cut and of the 2-row cut on their first use, and none of 1 or 3."""
        leads = []
        real = model.Tape.__init__

        def counting(self, arch, lead=(), m=0, **kw):
            leads.append(lead)
            real(self, arch, lead, m, **kw)
        monkeypatch.setattr(model.Tape, "__init__", counting)
        cfg = ExperimentConfig(T=3, eval_every=3)
        simulator.run(cfg)
        built = cfg.hyper.K + 1
        assert sorted(leads) == [()] * built + [(2,)] * built + [(4,)] * built


class TestPrivacyIntegration:
    def test_dp_report_emitted(self):
        cfg = small_cfg(privacy=PrivacyParams(epsilon=0.5, delta=0.3,
                                              m_meta=1.0, enabled=True),
                        hyper=HyperParams(lam=1.0), T=10)
        rec = simulator.run(replace(cfg, method="lodmeta"))
        assert rec.dp_report is not None
        assert rec.dp_report.t == 10 and rec.dp_report.n == 6
        csv = rec.to_csv()
        assert "dp.epsilon_prime=" in csv

    @pytest.mark.parametrize("method", ["lodmeta_sgd", "lodmeta_basic",
                                        "centralized_maml"])
    def test_no_dp_report_for_noiseless_methods(self, method):
        # these chains add no noise, so no network-DP guarantee holds for them
        cfg = small_cfg(method=method, n_active=2, T=4,
                        privacy=PrivacyParams(epsilon=0.5, delta=0.3,
                                              m_meta=1.0, enabled=True))
        rec = simulator.run(cfg)
        assert rec.dp_report is None
        assert "# dp." not in rec.to_csv()

    def test_noise_changes_trajectory(self):
        quiet = small_cfg(T=10, record_trace=True)
        noisy = small_cfg(T=10, record_trace=True,
                          privacy=PrivacyParams(epsilon=0.5, delta=0.3,
                                                m_meta=1.0, enabled=True))
        a = simulator.run(replace(quiet, method="lodmeta"))
        b = simulator.run(replace(noisy, method="lodmeta"))
        assert not np.array_equal(a.trace.w[-1], b.trace.w[-1])

    def test_disabled_privacy_never_draws_noise(self):
        a = simulator.run(replace(small_cfg(T=10), method="lodmeta"))
        b = simulator.run(replace(small_cfg(T=10), method="lodmeta"))
        assert np.array_equal(a.final_params.values, b.final_params.values)


class TestRawArrayLoop:
    @pytest.mark.parametrize("method", ["lodmeta", "lodmeta_sgd", "lodmeta_basic",
                                        "centralized_maml"])
    def test_steps_build_no_param_vector(self, monkeypatch, method):
        """The loop carries a raw (d,) array: a ParamVector is built for the
        initial point and the final wrap, not per step or evaluation row."""
        private = PrivacyParams(epsilon=0.5, delta=0.3, m_meta=1.0,
                                enabled=method == "lodmeta")
        cfg = small_cfg(method=method, n_active=2, T=50, eval_every=25, privacy=private)
        built = []
        real = model.ParamVector.__post_init__
        monkeypatch.setattr(model.ParamVector, "__post_init__",
                            lambda self: built.append(1) or real(self))
        rec = simulator.run(cfg)
        assert not rec.aborted and len(rec.rows) == 3
        assert len(built) == 2


class TestAbort:
    def test_divergence_aborts_with_partial_record(self):
        cfg = small_cfg(hyper=HyperParams(eta=1e8), T=30, eval_every=10)
        rec = simulator.run(replace(cfg, method="lodmeta_sgd"))
        assert rec.aborted
        assert rec.abort_reason
        assert math.isnan(rec.rows[-1].train_metric)
        assert "# aborted=" in rec.to_csv()

    @pytest.mark.parametrize("eta,seed", [(1e3, 0), (1e3, 1), (1e6, 2)])
    def test_overflowing_meta_gradient_aborts(self, eta, seed):
        # these runs once raised ParameterError from inside the meta-gradient
        cfg = small_cfg(task=tasks.TaskConfig(), method="lodmeta_sgd", seed=seed,
                        eval_every=2, hyper=HyperParams(eta=eta, alpha=0.5, theta=0.5))
        rec = simulator.run(cfg)
        assert rec.aborted
        assert math.isnan(rec.rows[-1].grad_norm_sq)
        assert rec.rows[-1].iteration < cfg.T

    # (task kind, eta, alpha, seed, eval_every) of lodmeta_sgd runs that
    # diverge, with where the first non-finite check fails (a lone walk step,
    # or an evaluation block after a step), its message, the number of rows
    # and the abort row's (iteration, comm_units, active_client). The values
    # are those of the per-pass meta-gradient code, kept as the reference.
    # The alpha=50 runs fail at inner step 1: the support heads' divisor
    # carries alpha, so their deltas overflow in the first backward pass.
    ABORTS = [
        (("blob", 1e306, 5.0, 2, 1000), "walk", "non-finite forward values", 2, (2, 2, 3)),
        (("sine", 100.0, 50.0, 0, 1000), "walk", "non-finite inner state at step 1", 2,
         (6, 6, 1)),
        (("sine", 1e4, 0.5, 0, 1000), "walk", "non-finite meta-gradient", 2, (13, 13, 4)),
        (("blob", 1e306, 5.0, 2, 1), "evaluate", "non-finite forward values", 2, (1, 1, 4)),
        (("sine", 1e307, 0.1, 0, 1), "evaluate", "non-finite forward values", 2, (1, 1, 4)),
        (("sine", 100.0, 50.0, 0, 1), "evaluate", "non-finite inner state at step 1", 6,
         (5, 5, 2)),
        (("sine", 1e3, 0.5, 0, 1), "evaluate", "non-finite meta-gradient", 14, (13, 13, 4)),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case,where,reason,n_rows,row", ABORTS)
    def test_abort_reason_and_row_per_check(self, monkeypatch, case, where, reason,
                                            n_rows, row):
        """Each finiteness check of a meta-gradient (forward values, inner
        state at step k, the meta-gradient), failing in a walk step or in an
        evaluation block, aborts with its own message and the same abort row;
        no op that runs on past a non-finite value warns."""
        kind, eta, alpha, seed, eval_every = case
        failed_in = []
        real = simulator.evaluate

        def evaluate(*args, **kw):
            try:
                return real(*args, **kw)
            except NumericalError:
                failed_in.append("evaluate")
                raise
        monkeypatch.setattr(simulator, "evaluate", evaluate)
        task = tasks.TaskConfig() if kind == "sine" else tasks.TaskConfig(kind="blob")
        rec = simulator.run(small_cfg(task=task, method="lodmeta_sgd", seed=seed,
                                      eval_every=eval_every, T=30,
                                      hyper=HyperParams(eta=eta, alpha=alpha, theta=0.5)))
        assert rec.aborted and rec.abort_reason == reason
        assert (failed_in or ["walk"]) == [where]
        last = rec.rows[-1]
        assert len(rec.rows) == n_rows
        assert (last.iteration, last.comm_units, last.active_client) == row
        assert all(math.isnan(v) for v in (last.train_metric, last.unseen_metric,
                                           last.grad_norm_sq))


class TestCsv:
    def test_round_trip(self):
        rec = simulator.run(replace(small_cfg(T=20, eval_every=10), method="lodmeta"))
        header, rows = simulator.read_run_csv(rec.to_csv())
        assert header["run.T"] == "20"
        assert len(rows) == len(rec.rows)
        assert rows[-1].comm_units == rec.rows[-1].comm_units
        assert rows[-1].train_metric == rec.rows[-1].train_metric

    def test_comm_strictly_increasing(self):
        rec = simulator.run(replace(small_cfg(T=60, eval_every=20), method="lodmeta"))
        comms = [r.comm_units for r in rec.rows]
        assert all(a < b for a, b in zip(comms, comms[1:]))
