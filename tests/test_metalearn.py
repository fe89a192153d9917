import numpy as np
import pytest

from walkmeta import metalearn, model, tasks
from walkmeta.errors import ParameterError


def scalar_quadratic_task():
    """Quadratic-head surrogate: loss(u) = u^2/2, so grad = u, hessian = 1."""
    dummy = (np.zeros((1, 1)), np.zeros(1))
    return tasks.TaskInstance("sine", dummy, dummy), \
        model.Arch(1, (), 1, model.HEAD_QUADRATIC)


def sine_setup(seed, hidden=(8,)):
    arch = model.Arch(1, hidden, 1)
    w = model.init_params(arch, seed=seed)
    task = tasks.gen_sine_task(np.random.default_rng(seed), shots=5, query_size=10)
    return w, task


def fd_meta_grad(w, task, alpha, K, h=1e-5):
    out = np.zeros_like(w.values)
    for i in range(len(out)):
        vp, vm = w.values.copy(), w.values.copy()
        vp[i] += h
        vm[i] -= h
        out[i] = (metalearn.meta_loss(w.with_values(vp), task, alpha, K)
                  - metalearn.meta_loss(w.with_values(vm), task, alpha, K)) / (2 * h)
    return out


class TestInnerLoop:
    def test_alpha_zero_keeps_states(self):
        w, task = sine_setup(0)
        traj = metalearn.inner_loop(w, task.support, alpha=0.0, K=3)
        for u in traj:
            assert np.array_equal(u.values, w.values)

    def test_scalar_quadratic_one_step(self):
        task, arch = scalar_quadratic_task()
        w = model.ParamVector(np.array([1.0]), arch)
        traj = metalearn.inner_loop(w, task.support, alpha=0.1, K=1)
        assert abs(traj[1].values[0] - 0.9) < 1e-15

    def test_initial_state_is_input(self):
        w, task = sine_setup(1)
        traj = metalearn.inner_loop(w, task.support, alpha=0.01, K=2)
        assert np.array_equal(traj[0].values, w.values)

    def test_descent_on_support(self):
        for seed in range(20):
            w, task = sine_setup(seed)
            traj = metalearn.inner_loop(w, task.support, alpha=0.01, K=5)
            assert (model.loss(traj[5], task.support)
                    <= model.loss(traj[0], task.support) + 1e-12)

    def test_k_zero_rejected(self):
        w, task = sine_setup(2)
        with pytest.raises(ParameterError):
            metalearn.inner_loop(w, task.support, alpha=0.01, K=0)

    def test_deterministic(self):
        w, task = sine_setup(3)
        t1 = metalearn.inner_loop(w, task.support, alpha=0.01, K=4)
        t2 = metalearn.inner_loop(w, task.support, alpha=0.01, K=4)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.values, b.values)


class TestMetaGradient:
    def test_alpha_zero_collapse(self):
        w, task = sine_setup(4)
        exact = metalearn.meta_gradient_exact(w, task, 0.0, K=2).values
        plain = model.grad(w, task.query).values
        assert np.array_equal(exact, plain)

    def test_scalar_quadratic_closed_form(self):
        task, arch = scalar_quadratic_task()
        alpha, K = 0.1, 2
        w = model.ParamVector(np.array([1.3]), arch)
        g = metalearn.meta_gradient_exact(w, task, alpha, K).values[0]
        u_K = (1 - alpha) ** K * 1.3
        assert abs(g - (1 - alpha) ** K * u_K) < 1e-10

    @pytest.mark.parametrize("K", [1, 2])
    def test_matches_fd_oracle(self, K):
        for seed in range(5):
            w, task = sine_setup(seed)  # d = 25 <= 50
            g = metalearn.meta_gradient_exact(w, task, 0.1, K).values
            fd = fd_meta_grad(w, task, 0.1, K)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-3

    def test_exact_calls_hvp_k_times(self, monkeypatch):
        calls = []
        real = model.hvps
        monkeypatch.setattr(metalearn.model, "hvps",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        w, task = sine_setup(6)
        metalearn.meta_gradient_exact(w, task, 0.05, K=3)
        assert len(calls) == 3


class TestMetaLoss:
    def test_alpha_zero(self):
        w, task = sine_setup(7)
        assert metalearn.meta_loss(w, task, 0.0, K=1) == model.loss(w, task.query)

    def test_directional_derivative(self):
        w, task = sine_setup(8)
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(len(w.values))
        direction /= np.linalg.norm(direction)
        g = metalearn.meta_gradient_exact(w, task, 0.1, K=2).values
        h = 1e-5
        fd = (metalearn.meta_loss(w.with_values(w.values + h * direction), task, 0.1, 2)
              - metalearn.meta_loss(w.with_values(w.values - h * direction), task, 0.1, 2)
              ) / (2 * h)
        assert abs(g @ direction - fd) / max(abs(fd), 1e-12) < 1e-3


class TestAdaptUnseen:
    def test_alpha_zero_returns_input(self):
        w, task = sine_setup(9)
        adapted = metalearn.adapt_unseen(w, task.support, alpha=0.0, K=1)
        assert np.array_equal(adapted.values, w.values)

    def test_bitwise_equals_inner_loop(self):
        w, task = sine_setup(10)
        adapted = metalearn.adapt_unseen(w, task.support, 0.01, 5)
        traj = metalearn.inner_loop(w, task.support, 0.01, 5)
        assert np.array_equal(adapted.values, traj[5].values)


@pytest.mark.parametrize("alpha, K", [(0.01, 0), (-0.01, 2)])
@pytest.mark.parametrize("call", [
    lambda w, task, alpha, K: metalearn.meta_gradient_exact(w, task, alpha, K),
    lambda w, task, alpha, K: metalearn.meta_loss(w, task, alpha, K),
    lambda w, task, alpha, K: metalearn.adapt_unseen(w, task.support, alpha, K),
], ids=["meta_gradient_exact", "meta_loss", "adapt_unseen"])
def test_bad_alpha_or_k_rejected(call, alpha, K):
    w, task = sine_setup(11)
    with pytest.raises(ParameterError, match="alpha" if alpha < 0 else "K"):
        call(w, task, alpha, K)


class TestWorkspace:
    def test_program_refuses_other_batch_shapes(self):
        """A workspace call checks every shape before it copies or runs
        anything, as np.copyto would broadcast a (1, dim) batch silently."""
        arch = model.Arch(2, (6,), 1)
        rng = np.random.default_rng(2)
        ws = metalearn.Workspace(arch, 5, 7, 2, 4)
        w = model.init_params(arch, 0).values
        support = rng.uniform(-2, 2, (5, 2)), rng.standard_normal((5, 1))
        query = rng.uniform(-2, 2, (7, 2)), rng.standard_normal((7, 1))
        with model.quiet():
            states, tapes = metalearn.trajectory(w, arch, support, 0.1, 2, ws)
            for bad in [(support[0][:1], support[1][:1]), (support[0][:, :1], support[1]),
                        (support[0], support[1][:, 0])]:
                with pytest.raises(ParameterError, match="does not match the workspace"):
                    metalearn.trajectory(w, arch, bad, 0.1, 2, ws)
            with pytest.raises(ParameterError, match="does not match the workspace"):
                metalearn.exact_from_trajectory(states, tapes, arch, support, 0.1, ws)
            with pytest.raises(ParameterError, match="does not match the workspace"):
                metalearn.trajectory(w[:-1], arch, support, 0.1, 2, ws)
            g = metalearn.exact_from_trajectory(states, tapes, arch, query, 0.1, ws)
        task = tasks.TaskInstance("sine", support, query)
        p = model.ParamVector(w, arch)
        assert np.array_equal(g, metalearn.meta_gradient_exact(p, task, 0.1, 2).values)

    @pytest.mark.parametrize("head", [model.HEAD_MSE, model.HEAD_XENT])
    @pytest.mark.parametrize("hidden", [(6,), (5, 7)])
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_taped_hvp_survives_later_passes(self, head, hidden, lead):
        """tanh' and the hidden deltas belong to each tape: after the rest of
        a trajectory, the query pass and K HVPs over one workspace wrote the
        scratch its tapes share, an HVP over tape 0 equals, bit for bit, one
        over a fresh tape at the same point and batch."""
        out = 3 if head == model.HEAD_XENT else 1
        arch = model.Arch(2, hidden, out, head)
        rng = np.random.default_rng(5)
        K, m_support, m_query = 3, 5, 7
        n = lead[0] if lead else 1
        w = np.stack([model.init_params(arch, s).values for s in range(n)]
                     ).reshape(lead + (-1,))

        def batch(m):
            x = rng.uniform(-2, 2, size=lead + (m, 2))
            if head == model.HEAD_XENT:
                return x, rng.integers(0, out, size=lead + (m,))
            return x, rng.standard_normal(lead + (m, out))

        support, query = batch(m_support), batch(m_query)
        v = rng.standard_normal(w.shape)
        ws = metalearn.Workspace(arch, m_support, m_query, K, 4)
        with model.quiet():
            states, tapes = metalearn.trajectory(w, arch, support, 0.1, K, ws)
            metalearn.exact_from_trajectory(states, tapes, arch, query, 0.1, ws)
            taped = model.hvps(tapes[0], v)
            fresh = model.hvps(model.taped_grads(w, arch, *support)[1], v)
        assert np.array_equal(taped, fresh)
