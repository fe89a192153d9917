import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkmeta import optimizer
from walkmeta.errors import NumericalError, ParameterError
from walkmeta.optimizer import AuxState, HyperParams


class TestAdamStep:
    def test_fresh_state_theta_beta_zero(self):
        h = HyperParams(eta=0.1, theta=0.0, beta=0.0, lam=1e-8)
        g = np.array([1.0, -2.0, 0.5])
        state, delta = optimizer.adam_step(AuxState.zeros(3), g, np.zeros(3), h)
        expected = -0.1 * g / np.sqrt(g * g + 1e-8)
        assert np.allclose(delta, expected, atol=1e-15)
        assert state.step_count == 1

    def test_fresh_momentum_scaling(self):
        h = HyperParams(eta=0.1, theta=0.7, beta=0.9)
        g = np.array([3.0, -1.0])
        state, _ = optimizer.adam_step(AuxState.zeros(2), g, np.zeros(2), h)
        assert np.allclose(state.m, 0.3 * g, atol=1e-15)

    def test_zero_gradient_zero_delta(self):
        h = HyperParams(eta=0.1)
        _, delta = optimizer.adam_step(AuxState.zeros(4), np.zeros(4),
                                       np.zeros(4), h)
        assert np.all(delta == 0)

    def test_two_step_scalar_hand_trace(self):
        # hand-computed with plain floats, no vector code
        eta, theta, beta, lam = 0.1, 0.3, 0.9, 1e-8
        g1, g2 = 2.0, -1.0
        m1 = (1 - theta) * g1
        v1 = (1 - beta) * g1 * g1
        d1 = -eta * m1 / math.sqrt(v1 + lam)
        m2 = theta * m1 + (1 - theta) * g2
        v2 = beta * v1 + (1 - beta) * g2 * g2
        d2 = -eta * m2 / math.sqrt(v2 + lam)

        h = HyperParams(eta=eta, theta=theta, beta=beta, lam=lam)
        s, delta1 = optimizer.adam_step(AuxState.zeros(1), np.array([g1]),
                                        np.zeros(1), h)
        s, delta2 = optimizer.adam_step(s, np.array([g2]), np.zeros(1), h)
        assert abs(delta1[0] - d1) < 1e-15
        assert abs(delta2[0] - d2) < 1e-15
        assert abs(s.m[0] - m2) < 1e-15
        assert abs(s.v[0] - v2) < 1e-15

    def test_noise_in_numerator_only(self):
        h = HyperParams(eta=1.0, theta=0.0, beta=0.0, lam=1e-8)
        g = np.array([2.0])
        noise = np.array([0.5])
        state, delta = optimizer.adam_step(AuxState.zeros(1), g, noise, h)
        # v built from the unperturbed gradient
        assert np.allclose(state.v, g * g)
        assert np.allclose(delta, -(g + noise) / np.sqrt(g * g + 1e-8))

    def test_v_lower_bound(self):
        h = HyperParams(beta=0.95)
        rng = np.random.default_rng(0)
        state = AuxState.zeros(5)
        for _ in range(20):
            g = rng.standard_normal(5)
            state, _ = optimizer.adam_step(state, g, np.zeros(5), h)
            assert np.all(state.v >= (1 - h.beta) * g * g - 1e-18)
            assert np.all(state.v >= 0)

    def test_local_state_isolation(self):
        # interleaving two clients with separate states must reproduce each
        # client's solo trace exactly
        h = HyperParams(eta=0.05, theta=0.5, beta=0.9)
        rng = np.random.default_rng(1)
        ga = [rng.standard_normal(3) for _ in range(6)]
        gb = [rng.standard_normal(3) for _ in range(6)]

        def solo(gs):
            s = AuxState.zeros(3)
            deltas = []
            for g in gs:
                s, d = optimizer.adam_step(s, g, np.zeros(3), h)
                deltas.append(d)
            return deltas

        sa, sb = AuxState.zeros(3), AuxState.zeros(3)
        inter_a, inter_b = [], []
        for t in range(6):
            sa, da = optimizer.adam_step(sa, ga[t], np.zeros(3), h)
            sb, db = optimizer.adam_step(sb, gb[t], np.zeros(3), h)
            inter_a.append(da)
            inter_b.append(db)
        for x, y in zip(solo(ga), inter_a):
            assert np.array_equal(x, y)
        for x, y in zip(solo(gb), inter_b):
            assert np.array_equal(x, y)

    def test_nonfinite_gradient_rejected(self):
        h = HyperParams()
        with pytest.raises(NumericalError):
            optimizer.adam_step(AuxState.zeros(2), np.array([1.0, np.nan]),
                                np.zeros(2), h)


class TestSgdStep:
    def test_zero(self):
        assert np.all(optimizer.sgd_step(np.zeros(3), 1.0) == 0)

    def test_unit(self):
        e1 = np.array([1.0, 0.0])
        assert np.array_equal(optimizer.sgd_step(e1, 1.0), -e1)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        lhs = optimizer.sgd_step(2 * a + 3 * b, 0.5)
        rhs = 2 * optimizer.sgd_step(a, 0.5) + 3 * optimizer.sgd_step(b, 0.5)
        assert np.allclose(lhs, rhs, atol=1e-15)


class TestClip:
    def test_below_bound_unchanged(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        assert np.array_equal(optimizer.clip(g, 1.0), g)

    def test_above_bound_norm_exact(self):
        g = np.array([3.0, 4.0])  # norm 5
        c = optimizer.clip(g, 2.5)
        assert abs(np.linalg.norm(c) - 2.5) < 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(10) * 100
        c = optimizer.clip(g, 1.0)
        cos = (g @ c) / (np.linalg.norm(g) * np.linalg.norm(c))
        assert abs(cos - 1.0) < 1e-12

    def test_bad_bound(self):
        with pytest.raises(ParameterError):
            optimizer.clip(np.ones(2), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 25, 517, 1761]), st.integers(0, 2**32 - 1),
           st.floats(-5.0, 5.0), st.floats(1e-3, 1e3))
    def test_equals_norm_reference_bit_for_bit(self, d, seed, log_scale, bound):
        """clip's norm has the bits of np.linalg.norm: an over-bound g is
        scaled by exactly bound / np.linalg.norm(g), and one within bound is
        returned as it is."""
        g = np.random.default_rng(seed).standard_normal(d) * 10.0 ** log_scale
        norm = np.linalg.norm(g)
        c = optimizer.clip(g, bound)
        if norm <= bound:
            assert c is g
        else:
            assert np.array_equal(c, g * (bound / norm))


class TestHyperParams:
    @pytest.mark.parametrize("kw", [dict(eta=-1), dict(theta=1.0),
                                    dict(beta=-0.1), dict(lam=0.0),
                                    dict(K=0)])
    def test_bounds(self, kw):
        with pytest.raises(ParameterError):
            HyperParams(**kw)
