import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmeta import model
from walkmeta.errors import ParameterError


def fd_grad(p, batch, h=1e-5):
    """Central-difference gradient oracle."""
    out = np.zeros_like(p.values)
    for i in range(len(out)):
        vp, vm = p.values.copy(), p.values.copy()
        vp[i] += h
        vm[i] -= h
        out[i] = (model.loss(p.with_values(vp), batch)
                  - model.loss(p.with_values(vm), batch)) / (2 * h)
    return out


def random_batch(rng, arch, m=8):
    x = rng.uniform(-2, 2, size=(m, arch.input_dim))
    if arch.head == model.HEAD_XENT:
        y = rng.integers(0, arch.output_dim, size=m)
    else:
        y = rng.standard_normal((m, arch.output_dim)).squeeze(-1)
    return x, y


class TestArch:
    def test_param_count_1_40_1(self):
        assert model.Arch(1, (40,), 1).param_count == 121

    def test_param_count_two_hidden(self):
        # 1*40+40 + 40*40+40 + 40*1+1
        assert model.Arch(1, (40, 40), 1).param_count == 1761

    def test_bad_head(self):
        with pytest.raises(ParameterError):
            model.Arch(1, (4,), 1, "huber")


class TestInit:
    def test_biases_zero(self):
        arch = model.Arch(3, (5,), 2)
        p = model.init_params(arch, seed=0)
        for _, _, _, b in arch.layers:
            assert np.all(p.values[b] == 0)

    def test_deterministic(self):
        arch = model.Arch(2, (8,), 1)
        a = model.init_params(arch, seed=11)
        b = model.init_params(arch, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_glorot_bounds(self):
        arch = model.Arch(4, (10,), 3)
        p = model.init_params(arch, seed=2)
        out, inp, w_slice, _ = arch.layers[0]
        assert (out, inp) == (10, 4)
        W1 = p.values[w_slice]
        bound = np.sqrt(6.0 / (4 + 10))
        assert np.all(np.abs(W1) <= bound)


class TestLossGrad:
    def test_mse_perfect_fit(self):
        arch = model.Arch(1, (6,), 1)
        p = model.init_params(arch, seed=1)
        x = np.linspace(-1, 1, 5).reshape(-1, 1)
        y = model.predict(p, x)[:, 0]
        assert model.loss(p, (x, y)) < 1e-28
        assert np.max(np.abs(model.grad(p, (x, y)).values)) < 1e-13

    def test_xent_uniform_logits(self):
        arch = model.Arch(2, (4,), 5, model.HEAD_XENT)
        p = model.init_params(arch, seed=0)
        p = p.with_values(np.zeros(arch.param_count))  # zero weights -> uniform
        x = np.random.default_rng(0).standard_normal((6, 2))
        y = np.array([0, 1, 2, 3, 4, 0])
        assert abs(model.loss(p, (x, y)) - np.log(5)) < 1e-12

    @pytest.mark.parametrize("head,out", [(model.HEAD_MSE, 1),
                                          (model.HEAD_XENT, 5)])
    def test_grad_matches_fd(self, head, out):
        rng = np.random.default_rng(17)
        arch = model.Arch(2, (6,), out, head)
        for trial in range(20):
            p = model.init_params(arch, seed=trial)
            batch = random_batch(rng, arch)
            g = model.grad(p, batch).values
            fd = fd_grad(p, batch)
            scale = np.maximum(np.abs(g), 1e-3 * np.max(np.abs(g)))
            assert np.max(np.abs(g - fd) / scale) < 1e-5

    def test_permutation_invariance(self):
        arch = model.Arch(2, (6,), 1)
        p = model.init_params(arch, seed=3)
        rng = np.random.default_rng(4)
        x, y = random_batch(rng, arch, m=10)
        perm = rng.permutation(10)
        assert abs(model.loss(p, (x, y)) - model.loss(p, (x[perm], y[perm]))) < 1e-12

    def test_shape_mismatch(self):
        arch = model.Arch(2, (4,), 1)
        p = model.init_params(arch, seed=0)
        with pytest.raises(ParameterError):
            model.loss(p, (np.zeros((3, 5)), np.zeros(3)))

    def test_non_integer_xent_labels_rejected(self):
        arch = model.Arch(2, (3,), 3, model.HEAD_XENT)
        p = model.init_params(arch, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy's cast can warn
            for y in ([0.5, 1.7], [0.0, np.nan], [0, 1e20], [0, -np.inf], ['0', '1']):
                with pytest.raises(ParameterError, match=r"integers in \[0, 3\)"):
                    model.loss(p, (x, np.array(y)))
        # integral floats name the same classes as their ints
        assert model.loss(p, (x, np.array([0.0, 1.0]))) == model.loss(p, (x, np.array([0, 1])))

    def test_empty_batch(self):
        arch = model.Arch(2, (4,), 1)
        p = model.init_params(arch, seed=0)
        with pytest.raises(ParameterError):
            model.loss(p, (np.zeros((0, 2)), np.zeros(0)))


class TestQuadraticHead:
    ARCH = model.Arch(1, (), 6, model.HEAD_QUADRATIC)
    BATCH = (np.zeros((1, 1)), np.zeros(1))

    def test_loss_and_grad(self):
        p = model.ParamVector(np.arange(6.0), self.ARCH)
        assert model.loss(p, self.BATCH) == 0.5 * float(np.arange(6.0) @ np.arange(6.0))
        assert np.array_equal(model.grad(p, self.BATCH).values, np.arange(6.0))

    def test_hvp_is_identity(self):
        p = model.ParamVector(np.random.default_rng(0).standard_normal(6), self.ARCH)
        v = p.with_values(np.random.default_rng(1).standard_normal(6))
        hv = model.hvp(p, self.BATCH, v)
        assert np.max(np.abs(hv.values - v.values)) < 1e-8

    def test_predict_names_head(self):
        p = model.init_params(self.ARCH, 0)
        x = np.zeros((2, 1))
        with pytest.raises(ParameterError, match="quadratic"):
            model.predict(p, x)
        with pytest.raises(ParameterError, match="quadratic"):
            model.predictions(p.values, self.ARCH, x)


class TestHvp:
    def setup_method(self):
        self.arch = model.Arch(1, (4,), 1)  # d = 13
        self.rng = np.random.default_rng(8)
        self.p = model.init_params(self.arch, seed=5)
        self.batch = random_batch(self.rng, self.arch, m=6)

    def test_zero_direction(self):
        v = self.p.with_values(np.zeros(13))
        assert np.all(model.hvp(self.p, self.batch, v).values == 0)

    def test_symmetry(self):
        a = self.p.with_values(self.rng.standard_normal(13))
        b = self.p.with_values(self.rng.standard_normal(13))
        ha = model.hvp(self.p, self.batch, a).values
        hb = model.hvp(self.p, self.batch, b).values
        lhs, rhs = ha @ b.values, hb @ a.values
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12) < 1e-4

    def test_against_dense_fd_hessian(self):
        d = 13
        h = 1e-5
        H = np.zeros((d, d))
        for i in range(d):
            vp, vm = self.p.values.copy(), self.p.values.copy()
            vp[i] += h
            vm[i] -= h
            H[:, i] = (model.grad(self.p.with_values(vp), self.batch).values
                       - model.grad(self.p.with_values(vm), self.batch).values) / (2 * h)
        v = self.p.with_values(self.rng.standard_normal(d))
        hv = model.hvp(self.p, self.batch, v).values
        ref = H @ v.values
        assert np.linalg.norm(hv - ref) / np.linalg.norm(ref) < 1e-4

    def test_linearity(self):
        a = self.p.with_values(self.rng.standard_normal(13))
        b = self.p.with_values(self.rng.standard_normal(13))
        combo = self.p.with_values(0.7 * a.values - 1.3 * b.values)
        lhs = model.hvp(self.p, self.batch, combo).values
        rhs = (0.7 * model.hvp(self.p, self.batch, a).values
               - 1.3 * model.hvp(self.p, self.batch, b).values)
        assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-12) < 1e-3


@st.composite
def hvp_points(draw):
    """A perturbed init of an mse or xent net with 1-2 hidden layers, a batch
    and a generator for directions."""
    head = draw(st.sampled_from((model.HEAD_MSE, model.HEAD_XENT)))
    hidden = tuple(draw(st.lists(st.integers(1, 16), min_size=1, max_size=2)))
    out = draw(st.integers(2, 4)) if head == model.HEAD_XENT else draw(st.integers(1, 2))
    arch = model.Arch(draw(st.integers(1, 3)), hidden, out, head)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = model.init_params(arch, rng.integers(2**32))
    p = p.with_values(p.values + 0.3 * rng.standard_normal(arch.param_count))
    m = draw(st.integers(1, 8))
    x = rng.uniform(-2, 2, size=(m, arch.input_dim))
    if head == model.HEAD_XENT:
        return p, (x, rng.integers(0, out, size=m)), rng
    return p, (x, rng.standard_normal((m, out))), rng


class TestHvpExact:
    """The R-operator HVP is exact: symmetry and linearity, which the
    finite-difference HVP was held to only 1e-4 and 1e-3 above, hold to
    rounding."""

    @settings(max_examples=80, deadline=None)
    @given(hvp_points())
    def test_symmetry(self, case):
        p, batch, rng = case
        a = p.with_values(rng.standard_normal(p.values.size))
        b = p.with_values(rng.standard_normal(p.values.size))
        hb = model.hvp(p, batch, b).values
        ha = model.hvp(p, batch, a).values
        # relative to the summed magnitudes of the products' terms, the scale
        # of their rounding: a product near zero has cancelled
        scale = max(np.abs(a.values) @ np.abs(hb), np.abs(b.values) @ np.abs(ha))
        assert abs(a.values @ hb - b.values @ ha) <= 1e-12 * scale

    @settings(max_examples=80, deadline=None)
    @given(hvp_points())
    def test_linearity(self, case):
        p, batch, rng = case
        a = rng.standard_normal(p.values.size)
        b = rng.standard_normal(p.values.size)
        ha = model.hvp(p, batch, p.with_values(a)).values
        hb = model.hvp(p, batch, p.with_values(b)).values
        lhs = model.hvp(p, batch, p.with_values(0.7 * a - 1.3 * b)).values
        rhs = 0.7 * ha - 1.3 * hb
        scale = np.linalg.norm(np.abs(0.7 * ha) + np.abs(1.3 * hb))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_quadratic_head_returns_v_bitwise(self, d, seed):
        rng = np.random.default_rng(seed)
        arch = model.Arch(1, (), d, model.HEAD_QUADRATIC)
        p = model.ParamVector(rng.standard_normal(d), arch)
        v = p.with_values(rng.standard_normal(d) * 10.0 ** rng.integers(-5, 6, d))
        assert np.array_equal(model.hvp(p, (np.zeros((1, 1)), np.zeros(1)), v).values,
                              v.values)



SPECIALS = (np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -0.0, 0.0)


@st.composite
def core_arrays(draw):
    """An array of a shape the core checks, (d,), (m, out) or (n, m, out),
    with special values injected at random entries."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 1800)),),
                                  (draw(st.integers(1, 12)), draw(st.integers(1, 5))),
                                  (draw(st.integers(1, 4)), draw(st.integers(1, 12)),
                                   draw(st.integers(1, 5)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = a.reshape(-1)
    for value in draw(st.lists(st.sampled_from(SPECIALS), max_size=4)):
        flat[rng.integers(flat.size)] = value
    return a


class TestFinite:
    @settings(max_examples=400, deadline=None)
    @given(core_arrays())
    def test_equals_isfinite(self, a):
        with model.quiet():
            assert model.finite(a, np.zeros(a.size)) == bool(np.isfinite(a).all())


class TestBatchInput:
    ARCH = model.Arch(3, (5,), 2)

    def test_predict_checks_inputs(self):
        p = model.init_params(self.ARCH, 0)
        for x in (np.zeros(3), np.zeros((5, 2)), np.zeros((0, 3)), np.zeros((2, 5, 3))):
            with pytest.raises(ParameterError, match="batch input"):
                model.predict(p, x)

    def test_tape_refuses_other_batch_shape(self):
        rng = np.random.default_rng(0)
        x, t = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        values = model.init_params(self.ARCH, 0).values
        tape = model.Tape.fresh(self.ARCH, x)
        for bad in (x[:1], x[:, :2], x[None]):
            with pytest.raises(ParameterError, match="batch input shape"):
                model.taped_grads(values, self.ARCH, bad, t, tape)

    def test_tape_owns_its_input(self):
        rng = np.random.default_rng(1)
        x, t = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        values = model.init_params(self.ARCH, 0).values
        v = rng.standard_normal(self.ARCH.param_count)
        with model.quiet():
            expected = model.hvps(model.taped_grads(values, self.ARCH, x, t)[1], v)
            tape = model.taped_grads(values, self.ARCH, x, t)[1]
            x[:] = 7.0
            assert np.array_equal(model.hvps(tape, v), expected)


class TestLazyPasses:
    @pytest.mark.parametrize("call,bound", [(model.loss, []), (model.grad, ["backward"])],
                             ids=["loss", "grad"])
    def test_fresh_tape_binds_only_the_passes_it_runs(self, monkeypatch, call, bound):
        tapes = []
        real = model.Tape.fresh.__func__
        monkeypatch.setattr(model.Tape, "fresh", classmethod(
            lambda cls, arch, x: tapes.append(real(cls, arch, x)) or tapes[-1]))
        arch = model.Arch(3, (5,), 2)
        rng = np.random.default_rng(0)
        call(model.init_params(arch, 0), (rng.standard_normal((4, 3)),
                                          rng.standard_normal((4, 2))))
        assert len(tapes) == 1
        assert [p for p in ("backward", "rop") if p in vars(tapes[0])] == bound
