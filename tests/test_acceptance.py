"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with `pytest -s` or on failure). Criteria 7-11 run
full simulations over 5 seeds each; the whole file completes in a few
minutes on one CPU core.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from walkmeta import metalearn, model, privacy, simulator, tasks, topology
from walkmeta.config import ExperimentConfig, TopologySpec
from walkmeta.optimizer import HyperParams
from walkmeta.privacy import PrivacyParams


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print("\n" + line)
    assert ok, line


def first_at(rows, target, field):
    """First value of `field` at which train_metric reaches target."""
    for r in rows:
        if np.isfinite(r.train_metric) and r.train_metric <= target:
            return getattr(r, field)
    return None


@pytest.fixture(scope="module")
def default_runs():
    """Five seeds of the reference sine setup, token-walk method."""
    cfg = ExperimentConfig(T=2000, eval_every=50)
    return {s: simulator.run(replace(cfg, seed=s, method="lodmeta")) for s in range(5)}


@pytest.fixture(scope="module")
def basic_runs():
    cfg = ExperimentConfig(T=2000, eval_every=50, method="lodmeta_basic")
    return {s: simulator.run(replace(cfg, seed=s, method="lodmeta_basic"))
            for s in range(5)}


def test_c01_meta_gradient_oracle():
    t0 = time.time()
    arch = model.Arch(1, (8,), 1)  # 25 parameters
    alpha = 0.05
    worst = 0.0
    rng = np.random.default_rng(7)
    for trial in range(10):
        K = 1 + trial % 2
        w = model.init_params(arch, seed=100 + trial)
        task = tasks.gen_sine_task(rng, shots=6, query_size=8)
        exact = metalearn.meta_gradient_exact(w, task, alpha, K).values
        fd = np.zeros_like(w.values)
        h = 1e-5
        for j in range(w.values.size):
            e = np.zeros_like(w.values)
            e[j] = h
            lp = metalearn.meta_loss(w.with_values(w.values + e), task, alpha, K)
            lm = metalearn.meta_loss(w.with_values(w.values - e), task, alpha, K)
            fd[j] = (lp - lm) / (2 * h)
        worst = max(worst, np.linalg.norm(exact - fd) / np.linalg.norm(fd))

    # quadratic surrogate: Hessian = I, so the meta-gradient is exactly
    # (1 - alpha)^K * grad(u_K) = (1 - alpha)^(2K) * w
    qarch = model.Arch(1, (), 3, model.HEAD_QUADRATIC)
    wq = model.init_params(qarch, seed=5)
    dummy = (np.zeros((1, 1)), np.zeros(1))
    qtask = tasks.TaskInstance("sine", dummy, dummy)
    closed_err = 0.0
    for K in (1, 2, 5):
        got = metalearn.meta_gradient_exact(wq, qtask, alpha, K).values
        want = (1 - alpha) ** (2 * K) * wq.values
        closed_err = max(closed_err, float(np.max(np.abs(got - want))))
    elapsed = time.time() - t0
    report(1, "meta-gradient oracle",
           worst < 1e-3 and closed_err < 1e-10 and elapsed < 10,
           f"fd rel err {worst:.2e}, closed-form err {closed_err:.2e}, "
           f"{elapsed:.1f}s")


def test_c02_spectral_oracle():
    t0 = time.time()
    suite = []
    for n in (4, 5, 8, 16):
        suite.append(topology.gen_ring(n))
    for n in (3, 5, 10):
        suite.append(topology.gen_complete(n))
    for n in (5, 9, 33):
        suite.append(topology.gen_star(n))
    for seed in (0, 1):
        suite.append(topology.gen_small_world(20, 4, 0.3, seed))
    suite.append(topology.gen_small_world(40, 6, 0.2, 2))
    suite.append(topology.gen_small_world(80, 4, 0.5, 3))
    for n, d in ((10, 3), (20, 3), (50, 3), (80, 3)):
        suite.append(topology.gen_regular_expander(n, d, seed=n))

    cases = []
    for i, g in enumerate(suite):
        scheme = ("uniform", "metropolis")[i % 2]
        lazy = (0.0, 0.1, 0.5)[i % 3]
        if g.n > 64:
            lazy = max(lazy, 0.1)  # keep large chains aperiodic
        cases.append(topology.build_transition_matrix(g, scheme, lazy))
    # analytic anchors
    k5 = topology.build_transition_matrix(topology.gen_complete(5),
                                          "uniform", 0.0)
    lazy_ring4 = topology.build_transition_matrix(topology.gen_ring(4),
                                                  "uniform", 0.5)
    cases += [k5, lazy_ring4]
    assert len(cases) >= 30 - 11  # plus the loop below re-runs every case twice
    cases += [topology.build_transition_matrix(g, "metropolis", 0.2)
              for g in suite[:11]]
    assert len(cases) >= 30

    worst = 0.0
    for tm in cases:
        vals = np.linalg.eigvals(tm.P)
        rest = np.delete(vals, int(np.argmin(np.abs(vals - 1.0))))
        oracle = float(np.max(np.abs(rest)))
        worst = max(worst, abs(topology.sigma2(tm) - oracle))
    anchor_err = max(abs(topology.sigma2(k5) - 0.25),
                     abs(topology.sigma2(lazy_ring4) - 0.5))
    elapsed = time.time() - t0
    report(2, "spectral oracle",
           worst < 1e-8 and anchor_err < 1e-12 and elapsed < 5,
           f"{len(cases)} graphs, max |err| {worst:.2e}, "
           f"anchors err {anchor_err:.2e}, {elapsed:.1f}s")


def test_c03_noise_calibration():
    pp = PrivacyParams(epsilon=0.5, delta=0.3, m_meta=1.0)
    var = privacy.noise_sigma(pp)
    formula_err = abs(var - 32.0 * math.log(25.0 / 6.0))
    draws = privacy.sample_perturbation(var, 1_000_000,
                                        np.random.default_rng(12345))
    emp = float(np.var(draws))
    report(3, "noise calibration",
           formula_err < 1e-12 and abs(emp - var) <= 0.01 * var,
           f"sigma^2={var:.6f}, formula err {formula_err:.1e}, "
           f"empirical var {emp:.4f}")


def test_c04_accountant():
    hand = 1.7495562104128215
    got = privacy.account_network_dp(0.5, 0.3, 0.1, t=100, n=100).epsilon_prime
    mono = True
    eps_grid = np.linspace(0.1, 0.9, 5)
    t_grid = [10, 50, 200, 1000, 5000]
    n_grid = [5, 10, 40, 150, 600]
    for e in eps_grid:
        for n in n_grid:
            vals = [privacy.account_network_dp(e, 0.3, 0.1, t, n).epsilon_prime
                    for t in t_grid]
            mono &= all(a <= b for a, b in zip(vals, vals[1:]))
        for t in t_grid:
            vals = [privacy.account_network_dp(e, 0.3, 0.1, t, n).epsilon_prime
                    for n in n_grid]
            mono &= all(a >= b for a, b in zip(vals, vals[1:]))
    for t in t_grid:
        for n in n_grid:
            vals = [privacy.account_network_dp(e, 0.3, 0.1, t, n).epsilon_prime
                    for e in eps_grid]
            mono &= all(a <= b for a, b in zip(vals, vals[1:]))
    report(4, "network accountant",
           abs(got - hand) < 1e-9 and mono,
           f"eps'={got:.12f} vs hand {hand}, monotone grids {mono}")


def test_c05_communication_ledger():
    cfg = ExperimentConfig(
        topology=TopologySpec(family="ring", n=6, laziness=0.1),
        n_training=6, n_unseen=0, hidden=(8,),
        task=tasks.TaskConfig(kind="sine", shots=5, query_size=10),
        T=1000, eval_every=1000, n_active=4)

    def units(method):
        return simulator.run(replace(cfg, method=method)).rows[-1].comm_units

    got = {
        "lodmeta": units("lodmeta"),
        "lodmeta_sgd": units("lodmeta_sgd"),
        "lodmeta_basic": units("lodmeta_basic"),
        "centralized": units("centralized_maml"),
    }
    want = {"lodmeta": 1000, "lodmeta_sgd": 1000, "lodmeta_basic": 3000,
            "centralized": 2 * 4 * 1000}
    report(5, "communication ledger", got == want, f"{got}")


def test_c06_walk_correctness():
    g = topology.gen_small_world(20, 4, 0.3, seed=0)
    tm = topology.build_transition_matrix(g, "metropolis", laziness=0.1)
    rng = np.random.default_rng(2024)
    steps = 100_000
    counts = np.zeros(20, dtype=int)
    cur = 0
    on_graph = True
    for _ in range(steps):
        nxt = topology.sample_next(tm, cur, rng)
        on_graph &= (nxt == cur) or bool(g.adj[cur, nxt])
        counts[nxt] += 1
        cur = nxt
    freqs = counts / steps
    max_dev = float(np.max(np.abs(freqs - 1.0 / 20)))
    report(6, "walk correctness", on_graph and max_dev < 0.01,
           f"all transitions on edges/self-loops: {on_graph}, "
           f"max freq deviation {max_dev:.4f}")


def test_c07_end_to_end_convergence(default_runs):
    t0 = time.time()
    ratios = []
    unseen_ratios = []
    for seed, rec in default_runs.items():
        init = rec.rows[0].train_metric
        final = rec.rows[-1].train_metric
        ratios.append(final / init)

        cfg = ExperimentConfig(seed=seed)
        assignment = cfg.build_assignment()
        rand_w = model.init_params(cfg.build_arch(),
                                   np.random.SeedSequence([seed, 999]))
        clients = simulator.Clients(assignment, rand_w.arch, cfg.hyper)
        _, rand_unseen, _ = simulator.evaluate(rand_w.values, clients)
        unseen_ratios.append(rec.rows[-1].unseen_metric / rand_unseen)
    train_ok = all(r <= 0.5 for r in ratios)
    unseen_ok = float(np.mean(unseen_ratios)) <= 0.5
    elapsed = time.time() - t0
    report(7, "end-to-end convergence",
           train_ok and unseen_ok and elapsed < 300,
           f"train final/initial per seed {[f'{r:.3f}' for r in ratios]}, "
           f"unseen adapted/random mean {np.mean(unseen_ratios):.3f}")


def test_c08_local_aux_fidelity():
    cfg = ExperimentConfig(
        topology=TopologySpec(family="complete", n=2, laziness=0.0,
                              scheme="uniform"),
        n_training=2, n_unseen=0, head="quadratic",
        hyper=HyperParams(eta=0.1, theta=0.0, beta=0.99, lam=1e-8,
                          alpha=0.1, K=2),
        T=6, eval_every=100, seed=1, record_trace=True)
    local = simulator.run(replace(cfg, method="lodmeta"))
    basic = simulator.run(replace(cfg, method="lodmeta_basic"))
    h = cfg.hyper
    c = (1.0 - h.alpha) ** (2 * h.K)
    w0 = float(local.trace.w[0][0])

    def hand(localized):
        w, v_local, v_token = w0, {0: 0.0, 1: 0.0}, 0.0
        out = [w]
        for i in local.trace.active:
            g = c * w
            if localized:
                v_local[i] = h.beta * v_local[i] + (1 - h.beta) * g * g
                vv = v_local[i]
            else:
                v_token = h.beta * v_token + (1 - h.beta) * g * g
                vv = v_token
            w = w - h.eta * g / math.sqrt(vv + h.lam)
            out.append(w)
        return out

    hl, hb = hand(True), hand(False)
    table_err = max(max(abs(local.trace.w[t][0] - hl[t]) for t in range(7)),
                    max(abs(basic.trace.w[t][0] - hb[t]) for t in range(7)))
    split_ok = (local.trace.w[1][0] == basic.trace.w[1][0]
                and local.trace.w[2][0] != basic.trace.w[2][0])

    stateless = replace(cfg, hyper=HyperParams(eta=0.01, theta=0.0, beta=0.0),
                        T=100)
    a = simulator.run(replace(stateless, method="lodmeta"))
    b = simulator.run(replace(stateless, method="lodmeta_basic"))
    bitwise = all(np.array_equal(x, y) for x, y in zip(a.trace.w, b.trace.w))
    report(8, "local-aux fidelity",
           table_err < 1e-12 and split_ok and bitwise,
           f"hand-table err {table_err:.1e}, first split at w_2: {split_ok}, "
           f"theta=beta=0 bitwise for 100 steps: {bitwise}")


def test_c09_privacy_utility_direction():
    finals = {}
    for eps in (0.5, 0.8):
        vals = []
        for seed in range(5):
            cfg = ExperimentConfig(
                hidden=(8,), T=10_000, eval_every=2500, seed=seed,
                hyper=HyperParams(eta=0.001, lam=1.0),
                privacy=PrivacyParams(epsilon=eps, delta=0.3, m_meta=1.0,
                                      enabled=True))
            rec = simulator.run(replace(cfg, method="lodmeta"))
            vals.append(rec.rows[-1].train_metric)
        finals[eps] = float(np.mean(vals))
    report(9, "privacy-utility direction", finals[0.8] <= finals[0.5],
           f"mean final meta-loss eps=0.8: {finals[0.8]:.4f} "
           f"<= eps=0.5: {finals[0.5]:.4f}")


def test_c10_communication_advantage(default_runs, basic_runs):
    ratios = []
    for seed in range(5):
        rl, rb = default_runs[seed], basic_runs[seed]
        best = max(min(r.train_metric for r in rl.rows),
                   min(r.train_metric for r in rb.rows))
        target = 1.05 * best
        cl = first_at(rl.rows, target, "comm_units")
        cb = first_at(rb.rows, target, "comm_units")
        assert cl is not None and cb is not None
        ratios.append(cl / cb)
    mean_ratio = float(np.mean(ratios))
    report(10, "communication-normalized advantage", mean_ratio <= 0.5,
           f"mean comm ratio token/basic {mean_ratio:.3f} "
           f"(per seed {[f'{r:.2f}' for r in ratios]})")


def test_c11_topology_effect():
    iters = {"complete": [], "ring": []}
    for seed in range(5):
        recs = {}
        for fam, lazy in (("complete", 0.0), ("ring", 0.1)):
            topo_spec = TopologySpec(family=fam, n=20, laziness=lazy,
                                     scheme="metropolis")
            cfg = ExperimentConfig(topology=topo_spec, seed=seed,
                                   T=600, eval_every=25)
            recs[fam] = simulator.run(replace(cfg, method="lodmeta"))
        target = 0.5 * recs["complete"].rows[0].train_metric
        for fam in recs:
            it = first_at(recs[fam].rows, target, "iteration")
            assert it is not None
            iters[fam].append(it)
    m_complete = float(np.mean(iters["complete"]))
    m_ring = float(np.mean(iters["ring"]))
    report(11, "topology effect", m_complete <= m_ring,
           f"mean iterations-to-target K20 {m_complete:.0f} "
           f"<= lazy ring-20 {m_ring:.0f}")
