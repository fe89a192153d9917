import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from walkmeta import topology as topo
from walkmeta.config import ExperimentConfig, TopologySpec
from walkmeta.errors import DiagnosticError, GenerationError, ParameterError


def bfs_reaches_all(adj):
    """Independent connectivity oracle."""
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(n):
                if adj[i, j] and j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == n


def regular_by_pair_loop(n, d, seed):
    """Reference pairing model: the adjacency of the first simple, connected
    pairing, found pair by pair, or None when 100 attempts find none."""
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        adj = np.zeros((n, n), dtype=bool)
        simple = True
        for i, j in stubs.reshape(-1, 2):
            if i == j or adj[i, j]:
                simple = False
                break
            adj[i, j] = adj[j, i] = True
        if simple and bfs_reaches_all(adj):
            return adj
    return None


def small_world_by_loop(n, k, p_rewire, seed):
    """Reference Watts-Strogatz generator: the lattice set pair by pair and
    each rewire drawn with rng.choice; the adjacency of the first connected
    attempt, or None when 100 attempts find none."""
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for off in range(1, k // 2 + 1):
                j = (i + off) % n
                adj[i, j] = adj[j, i] = True
        for off in range(1, k // 2 + 1):
            for i in range(n):
                j = (i + off) % n
                if rng.random() < p_rewire:
                    candidates = np.flatnonzero(~adj[i])
                    candidates = candidates[candidates != i]
                    if candidates.size == 0:
                        continue
                    m = int(rng.choice(candidates))
                    adj[i, j] = adj[j, i] = False
                    adj[i, m] = adj[m, i] = True
        if topo._bfs_connected(adj):
            return adj
    return None


def dense_kernel(adj, scheme, laziness):
    """Reference kernel: every entry of the whole matrix worked out at once."""
    n = adj.shape[0]
    deg = adj.sum(axis=1).astype(float)
    if scheme == topo.SCHEME_UNIFORM:
        base = adj / deg[:, None]
    else:
        inv = 1.0 / deg
        base = np.where(adj, np.minimum(inv[:, None], inv[None, :]), 0.0)
        np.fill_diagonal(base, np.maximum(1.0 - base.sum(axis=1), 0.0))
    return laziness * np.eye(n) + (1.0 - laziness) * base


def dense_closed_form_pi(tm):
    """Reference closed-form pi, checked by detailed balance over every
    entry of P; None where that check rejects the kernel."""
    P = tm.P
    if tm.scheme == topo.SCHEME_METROPOLIS:
        pi = np.full(tm.n, 1.0 / tm.n)
    else:
        deg = np.count_nonzero(P, axis=1) - (P.diagonal() != 0)
        pi = deg / deg.sum()
    flux = pi[:, None] * P
    if not (pi > 0).all() or np.max(np.abs(flux - flux.T)) > 1e-12:
        return None
    return pi


class LargestDraw:
    """Stub rng whose every draw is 1 - 2**-53, the largest value
    `Generator.random` returns."""

    def random(self):
        return 1.0 - 2.0 ** -53


class FixedDraw:
    """Stub rng whose every draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def dense_sigma2(P):
    """Oracle: eigenvalue magnitudes minus one Perron eigenvalue."""
    vals = np.linalg.eigvals(P)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    rest = np.delete(vals, idx)
    return float(np.max(np.abs(rest)))


class TestSmallWorld:
    def test_p_zero_is_ring_lattice(self):
        g = topo.gen_small_world(6, 2, 0.0, seed=123)
        expected = topo.gen_ring(6)
        assert np.array_equal(g.adj, expected.adj)

    def test_p_zero_degrees(self):
        g = topo.gen_small_world(10, 4, 0.0, seed=0)
        assert np.all(g.degrees() == 4)

    def test_rewired_preserves_edge_count_and_connectivity(self):
        g = topo.gen_small_world(20, 4, 0.3, seed=7)
        assert g.num_edges() == 40
        assert bfs_reaches_all(g.adj)

    def test_deterministic(self):
        g1 = topo.gen_small_world(20, 4, 0.3, seed=5)
        g2 = topo.gen_small_world(20, 4, 0.3, seed=5)
        assert np.array_equal(g1.adj, g2.adj)

    @pytest.mark.parametrize("n,k,p", [(4, 4, 0.1), (10, 3, 0.1), (10, 4, 1.5)])
    def test_bad_params(self, n, k, p):
        with pytest.raises(ParameterError):
            topo.gen_small_world(n, k, p, seed=0)

    @pytest.mark.parametrize("n, k", [(n, k) for n in (5, 8, 20, 61, 300)
                                      for k in (2, 4, 6) if n > k])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_loop_with_choice(self, n, k, p):
        """The array-built lattice and the integers draws keep the graph,
        or the failure, of the pair-by-pair lattice and rng.choice."""
        for seed in range(6):
            ref = small_world_by_loop(n, k, p, seed)
            if ref is None:
                with pytest.raises(GenerationError):
                    topo.gen_small_world(n, k, p, seed)
            else:
                assert np.array_equal(topo.gen_small_world(n, k, p, seed).adj, ref)


class TestRegularExpander:
    def test_n4_d3_is_k4(self):
        g = topo.gen_regular_expander(4, 3, seed=99)
        assert np.array_equal(g.adj, topo.gen_complete(4).adj)

    def test_degrees_exact(self):
        g = topo.gen_regular_expander(38, 3, seed=1)
        assert np.all(g.degrees() == 3)
        assert bfs_reaches_all(g.adj)

    def test_lazy_walk_mixes(self):
        g = topo.gen_regular_expander(10, 3, seed=3)
        tm = topo.build_transition_matrix(g, topo.SCHEME_UNIFORM, laziness=0.1)
        assert bfs_reaches_all(g.adj)
        assert topo.sigma2(tm) < 1.0

    def test_odd_nd_rejected(self):
        with pytest.raises(ParameterError):
            topo.gen_regular_expander(5, 3, seed=0)

    @pytest.mark.parametrize("n, d", [(n, d) for n in (4, 5, 6, 9, 12, 20)
                                      for d in (1, 2, 3, 4, 5)
                                      if d < n and n * d % 2 == 0])
    def test_matches_per_pair_loop(self, n, d):
        """Setting all pairs at once keeps the graph, or the failure, that
        the pair-by-pair check gave."""
        for seed in range(6):
            ref = regular_by_pair_loop(n, d, seed)
            if ref is None:
                with pytest.raises(GenerationError):
                    topo.gen_regular_expander(n, d, seed)
            else:
                assert np.array_equal(topo.gen_regular_expander(n, d, seed).adj, ref)


@st.composite
def symmetric_adjacency(draw):
    """Random simple graphs on 1..24 nodes, sparse enough that many are
    disconnected."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        if i != j:
            adj[i, j] = adj[j, i] = True
    return adj


class TestConnectivity:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_adjacency())
    def test_frontier_bfs_matches_reference(self, adj):
        assert topo._bfs_connected(adj) == bfs_reaches_all(adj)


class TestFixedTopologies:
    def test_ring4(self):
        g = topo.gen_ring(4)
        assert g.num_edges() == 4
        assert np.all(g.degrees() == 2)

    def test_star5(self):
        g = topo.gen_star(5)
        assert g.num_edges() == 4
        assert g.degrees()[0] == 4
        assert np.all(g.degrees()[1:] == 1)

    def test_ring3_is_triangle(self):
        assert np.array_equal(topo.gen_ring(3).adj, topo.gen_complete(3).adj)

    def test_too_small(self):
        with pytest.raises(ParameterError):
            topo.gen_ring(2)
        with pytest.raises(ParameterError):
            topo.gen_star(1)

    def test_unknown_family(self):
        with pytest.raises(ParameterError, match=r"^family: must be one of \("):
            topo.check_family("torus", 5)


class TestTransitionMatrix:
    def test_k3_uniform(self):
        tm = topo.build_transition_matrix(topo.gen_complete(3),
                                          topo.SCHEME_UNIFORM, 0.0)
        expected = np.array([[0, .5, .5], [.5, 0, .5], [.5, .5, 0]])
        assert np.allclose(tm.P, expected, atol=1e-15)

    def test_star5_metropolis(self):
        tm = topo.build_transition_matrix(topo.gen_star(5),
                                          topo.SCHEME_METROPOLIS, 0.0)
        assert np.allclose(tm.P[0], [0, .25, .25, .25, .25], atol=1e-15)
        assert np.allclose(tm.P[1], [.25, .75, 0, 0, 0], atol=1e-15)
        # uniform stationarity oracle: pi P = pi
        pi = np.full(5, 0.2)
        assert np.max(np.abs(pi @ tm.P - pi)) < 1e-15

    def test_lazy_ring4_uniform(self):
        tm = topo.build_transition_matrix(topo.gen_ring(4),
                                          topo.SCHEME_UNIFORM, 0.5)
        assert np.allclose(np.diag(tm.P), 0.5)
        assert np.allclose(tm.P[0, [1, 3]], 0.25)

    @pytest.mark.parametrize("scheme", [topo.SCHEME_UNIFORM, topo.SCHEME_METROPOLIS])
    @pytest.mark.parametrize("laziness", [0.0, 0.1, 0.5])
    def test_invariants(self, scheme, laziness):
        for g in [topo.gen_ring(7), topo.gen_star(6), topo.gen_complete(5),
                  topo.gen_small_world(12, 4, 0.3, 3),
                  topo.gen_regular_expander(10, 3, 5)]:
            tm = topo.build_transition_matrix(g, scheme, laziness)
            assert np.max(np.abs(tm.P.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(tm.P >= 0) and np.all(tm.P <= 1)
            off = ~np.eye(g.n, dtype=bool)
            assert np.all(tm.P[off & ~g.adj] == 0)
            if laziness == 0 and scheme == topo.SCHEME_UNIFORM:
                assert np.all(np.diag(tm.P) == 0)

    def test_config_built_metropolis_entries_non_negative(self):
        """At laziness 0 a Metropolis diagonal, 1 minus its row's moves,
        would round to -2.2e-16 on some graphs; it is clamped at 0."""
        families = {"ring": {}, "star": {}, "complete": {}, "small_world": {"k": 4},
                    "regular": {"degree": 3}}
        for family, kw in families.items():
            for n in (6, 20, 100, 300):
                for seed in range(10):
                    spec = TopologySpec(family=family, n=n, laziness=0.0, **kw)
                    tm = ExperimentConfig(topology=spec, n_training=n,
                                          seed=seed).build_transition()
                    assert tm.P.min() >= 0, (family, n, seed)

    def test_mh_uniform_stationary(self):
        g = topo.gen_small_world(15, 4, 0.4, seed=2)
        tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.1)
        pi = np.full(g.n, 1.0 / g.n)
        assert np.max(np.abs(pi @ tm.P - pi)) < 1e-10

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        g = topo.Graph(4, adj)
        with pytest.raises(ParameterError):
            topo.build_transition_matrix(g, topo.SCHEME_UNIFORM, 0.0)

    def test_lone_node(self):
        """One node and no edge: the uniform walk has nowhere to move, and
        the Metropolis walk stays put; neither divides by its degree 0."""
        g = topo.Graph.from_edgelist("n 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="node 0 has no neighbour"):
                topo.build_transition_matrix(g, topo.SCHEME_UNIFORM, 0.1)
            tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.1)
        assert tm.P.tolist() == [[1.0]]

    @pytest.mark.parametrize("scheme, laziness, name", [
        ("foo", 0.0, "scheme"), (topo.SCHEME_UNIFORM, 1.0, "laziness")])
    def test_hand_built_kernel_checked_when_built(self, scheme, laziness, name):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError, match=rf"^{name}: "):
            topo.TransitionMatrix(P, scheme, laziness)

    @pytest.mark.parametrize("P", [
        np.full((2, 3), 1 / 3),                   # not square
        np.array([0.5, 0.5]),                     # not 2-D
        np.zeros((0, 0)),                         # no node
        np.array([[0.5, 0.7], [0.7, 0.5]]),       # rows sum to 1.2
        np.array([[1.5, -0.5], [0.5, 0.5]]),      # a negative entry
        np.array([[0.5, 0.5], [0.5, np.nan]]),    # NaN
        np.array([[0.5, 0.5 + 2e-8], [0.5, 0.5]]),  # a row off by 2e-8
        np.array([[1.0 + 1e-12, -1e-12], [0.5, 0.5]]),  # an entry of -1e-12
    ], ids=["2x3", "1d", "empty", "sum-1.2", "negative", "nan", "off-2e-8", "minus-1e-12"])
    def test_hand_built_non_kernel_rejected(self, P):
        with pytest.raises(ParameterError, match=r"^P: "):
            topo.TransitionMatrix(P, topo.SCHEME_METROPOLIS, 0.0)

    def test_graph_keeps_read_only_adjacency(self):
        g = topo.gen_ring(5)
        with pytest.raises(ValueError):
            g.adj[0, 2] = True


class TestSigma2:
    def test_k5_uniform(self):
        tm = topo.build_transition_matrix(topo.gen_complete(5),
                                          topo.SCHEME_UNIFORM, 0.0)
        assert abs(topo.sigma2(tm) - 0.25) < 1e-12

    def test_periodic_ring4_flags_nonmixing(self):
        tm = topo.build_transition_matrix(topo.gen_ring(4),
                                          topo.SCHEME_UNIFORM, 0.0)
        assert abs(topo.sigma2(tm) - 1.0) < 1e-12

    def test_lazy_ring4(self):
        tm = topo.build_transition_matrix(topo.gen_ring(4),
                                          topo.SCHEME_UNIFORM, 0.5)
        assert abs(topo.sigma2(tm) - 0.5) < 1e-12

    def test_matches_dense_oracle(self):
        graphs = [topo.gen_ring(n) for n in (5, 8)] + [
            topo.gen_star(6), topo.gen_complete(7),
            topo.gen_small_world(16, 4, 0.2, 1),
            topo.gen_regular_expander(12, 3, 2)]
        for g in graphs:
            for lz in (0.0, 0.2):
                tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, lz)
                assert abs(topo.sigma2(tm) - dense_sigma2(tm.P)) < 1e-8


# the oracles' eigvalsh, which a test may patch np.linalg.eigvalsh around
EIGVALSH = np.linalg.eigvalsh


def eigvalsh_sigma2(tm):
    """Oracle: the largest non-unit eigenvalue magnitude of D^1/2 P D^-1/2,
    D = diag of the reference pi, by one eigvalsh."""
    r = np.sqrt(dense_closed_form_pi(tm))
    eig = EIGVALSH(r[:, None] * tm.P / r)  # ascending, 1 last
    return float(np.max(np.abs(eig[:-1])))


def alternating_ring6():
    """A 6-cycle kernel with edge weights 0.6 and 0.3 in turn: symmetric, so
    reversible under uniform pi, but not the Metropolis kernel of the ring."""
    P = 0.1 * np.eye(6)
    i = np.arange(6)
    P[i, (i + 1) % 6] = P[(i + 1) % 6, i] = np.tile([0.6, 0.3], 3)
    return P


class TestClosedFormSigma2:
    """The builder's kernel on a cycle, star or complete graph takes sigma2
    from its closed form, with no eigvalsh; a hand-built kernel never does."""

    @pytest.mark.parametrize("scheme", topo.SCHEMES)
    @pytest.mark.parametrize("family", ["ring", "star", "complete"])
    def test_matches_eigvalsh(self, family, scheme, monkeypatch):
        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        gen = {"ring": topo.gen_ring, "star": topo.gen_star, "complete": topo.gen_complete}
        for n in [*range(topo._MIN_N[family], 65), 299, 300, 301]:
            g = gen[family](n)
            for laziness in (0.0, 0.1, 0.5, 0.9):
                tm = topo.build_transition_matrix(g, scheme, laziness)
                assert abs(topo.sigma2(tm) - eigvalsh_sigma2(tm)) <= 1e-13, (n, laziness)

    @pytest.mark.parametrize("P, scheme, laziness", [
        (alternating_ring6(), topo.SCHEME_METROPOLIS, 0.0),
        # a 4-node star whose leaves move to the hub at rates 0.2, 0.3 and 0.4
        (np.array([[0.1, 0.2, 0.3, 0.4], [0.2, 0.8, 0, 0], [0.3, 0, 0.7, 0],
                   [0.4, 0, 0, 0.6]]), topo.SCHEME_METROPOLIS, 0.0),
        # the uniform star's kernel without laziness, labelled with laziness 0.5
        (topo.build_transition_matrix(topo.gen_star(5), topo.SCHEME_UNIFORM, 0.0).P,
         topo.SCHEME_UNIFORM, 0.5),
        # the builder's own lazy ring, hand-built
        (topo.build_transition_matrix(topo.gen_ring(7), topo.SCHEME_METROPOLIS, 0.1).P,
         topo.SCHEME_METROPOLIS, 0.1),
    ], ids=["ring-weights", "star-weights", "star-mislabelled", "ring-builders"])
    def test_hand_built_kernel_takes_one_eigvalsh(self, P, scheme, laziness, monkeypatch):
        tm = topo.TransitionMatrix(P.copy(), scheme, laziness)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or EIGVALSH(a))
        assert abs(topo.sigma2(tm) - dense_sigma2(P)) < 1e-10
        assert len(calls) == 1


class TestStationary:
    def test_mh_is_uniform(self):
        g = topo.gen_regular_expander(12, 3, seed=4)
        tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.1)
        pi = topo.stationary_distribution(tm)
        assert np.max(np.abs(pi - 1.0 / 12)) < 1e-10

    def test_uniform_star_degree_proportional(self):
        tm = topo.build_transition_matrix(topo.gen_star(5),
                                          topo.SCHEME_UNIFORM, 0.5)
        pi = topo.stationary_distribution(tm)
        expected = np.array([4, 1, 1, 1, 1]) / 8.0
        assert np.max(np.abs(pi - expected)) < 1e-10
        assert np.max(np.abs(pi @ tm.P - pi)) < 1e-11

    def test_k3_uniform(self):
        tm = topo.build_transition_matrix(topo.gen_complete(3),
                                          topo.SCHEME_UNIFORM, 0.1)
        pi = topo.stationary_distribution(tm)
        assert np.allclose(pi, 1 / 3, atol=1e-10)

    def test_periodic_chain_diagnosed(self):
        tm = topo.build_transition_matrix(topo.gen_ring(4),
                                          topo.SCHEME_UNIFORM, 0.0)
        with pytest.raises(DiagnosticError):
            topo.stationary_distribution(tm)

    def test_irreversible_kernel_rejected(self):
        # a directed 3-cycle with laziness: doubly stochastic, so pi is
        # uniform, but the flow around the cycle breaks detailed balance
        P = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1)
        tm = topo.TransitionMatrix(P, topo.SCHEME_METROPOLIS, 0.5)
        with pytest.raises(DiagnosticError, match="not reversible"):
            topo.sigma2(tm)
        with pytest.raises(DiagnosticError, match="not reversible"):
            topo.stationary_distribution(tm)

    def test_isolated_node_rejected(self):
        # balanced, but node 0 has no neighbour, so its degree-given pi is 0
        P = np.array([[1.0, 0, 0], [0, .5, .5], [0, .5, .5]])
        tm = topo.TransitionMatrix(P, topo.SCHEME_UNIFORM, 0.0)
        with pytest.raises(DiagnosticError):
            topo.sigma2(tm)

    @pytest.mark.parametrize("scheme", [topo.SCHEME_UNIFORM, topo.SCHEME_METROPOLIS])
    @pytest.mark.parametrize("P", [
        0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1),   # directed 3-cycle
        np.array([[1.0, 0, 0], [0, .5, .5], [0, .5, .5]]),       # isolated node
        np.array([[0.0, 1, 0], [.5, 0, .5], [0, 1, 0]]),         # path, uniform walk
        np.array([[.5, .5, 0], [.5, 0, .5], [0, .5, .5]]),       # path, Metropolis
        np.array([[.5, .5 + 1e-9, 0], [.5, 0, .5], [0, .5, .5]]),  # off by 1e-9
        np.array([[.5, .5 + 1e-13, 0], [.5, 0, .5], [0, .5, .5]]),  # within tolerance
    ], ids=["cycle", "isolated", "path-uniform", "path-mh", "off-1e-9", "off-1e-13"])
    def test_balance_verdict_matches_dense_check(self, P, scheme):
        """The check over P's nonzeros rejects exactly the hand-built kernels
        the check over all of P rejects, and returns the same pi otherwise."""
        tm = topo.TransitionMatrix(P.copy(), scheme, 0.0)
        ref = dense_closed_form_pi(tm)
        if ref is None:
            with pytest.raises(DiagnosticError, match="not reversible"):
                topo._closed_form_pi(tm)
        else:
            assert np.array_equal(topo._closed_form_pi(tm), ref)


@st.composite
def graphs(draw):
    """A graph of any family the configs can name."""
    family = draw(st.sampled_from(["ring", "star", "complete", "small_world",
                                   "regular"]))
    seed = draw(st.integers(0, 2**16))
    try:
        if family == "ring":
            return topo.gen_ring(draw(st.integers(3, 40)))
        if family == "star":
            return topo.gen_star(draw(st.integers(2, 40)))
        if family == "complete":
            return topo.gen_complete(draw(st.integers(2, 20)))
        if family == "small_world":
            k = draw(st.sampled_from([2, 4, 6]))
            return topo.gen_small_world(draw(st.integers(k + 1, 40)), k,
                                        draw(st.floats(0.0, 1.0)), seed)
        d = draw(st.sampled_from([3, 4]))
        n = draw(st.integers(d + 1, 40).filter(lambda n: n * d % 2 == 0))
        return topo.gen_regular_expander(n, d, seed)
    except GenerationError:
        reject()


kernels = st.builds(topo.build_transition_matrix, graphs(),
                    st.sampled_from([topo.SCHEME_UNIFORM, topo.SCHEME_METROPOLIS]),
                    st.floats(0.0, 1.0, exclude_max=True))


class TestKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.sampled_from([topo.SCHEME_UNIFORM, topo.SCHEME_METROPOLIS]),
           st.sampled_from([0.0, 0.1, 0.5]))
    def test_bits_equal_dense_formula(self, g, scheme, laziness):
        """Built over the edges, the kernel keeps every bit of the dense
        formula, signed zeros included."""
        tm = topo.build_transition_matrix(g, scheme, laziness)
        ref = dense_kernel(g.adj, scheme, laziness)
        assert np.array_equal(tm.P.view(np.uint64), ref.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(kernels)
    def test_rows_sum_to_one(self, tm):
        assert np.max(np.abs(tm.P.sum(axis=1) - 1.0)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kernels)
    def test_cdf_rows_are_running_sums(self, tm):
        """sample_next searches the CDF the kernel keeps; each of its rows
        is the running sum of that row of P, bit for bit."""
        for i in range(tm.n):
            assert np.array_equal(tm.cdf[i], np.cumsum(tm.P[i]))

    @settings(max_examples=60, deadline=None)
    @given(kernels)
    def test_largest_draw_moves_along_a_positive_entry(self, tm):
        for i in range(tm.n):
            assert tm.P[i, topo.sample_next(tm, i, LargestDraw())] > 0

    @settings(max_examples=60, deadline=None)
    @given(kernels)
    def test_stationary_and_detailed_balance(self, tm):
        if dense_sigma2(tm.P) >= 1.0 - 1e-12:  # periodic: no stationary limit
            with pytest.raises(DiagnosticError):
                topo.stationary_distribution(tm)
            return
        pi = topo.stationary_distribution(tm)
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.max(np.abs(pi @ tm.P - pi)) < 1e-12
        flux = pi[:, None] * tm.P
        assert np.max(np.abs(flux - flux.T)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kernels)
    def test_sigma2_matches_eigvals_oracle(self, tm):
        assert abs(topo.sigma2(tm) - dense_sigma2(tm.P)) < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(st.integers(33, 100),
           # bipartite kernels without self-loops: even rings under both
           # schemes, stars under the uniform-neighbour walk only
           st.sampled_from([(topo.gen_ring, topo.SCHEME_UNIFORM),
                            (topo.gen_ring, topo.SCHEME_METROPOLIS),
                            (topo.gen_star, topo.SCHEME_UNIFORM)]))
    def test_periodic_chain_above_64_nodes_raises(self, half, case):
        gen, scheme = case
        tm = topo.build_transition_matrix(gen(2 * half), scheme, 0.0)
        with pytest.raises(DiagnosticError):
            topo.stationary_distribution(tm)


class TestSpectrumKept:
    """A kernel works out pi and sigma2 once, keeps them, and cannot be
    changed under them."""

    @staticmethod
    def kernel():
        return topo.build_transition_matrix(topo.gen_small_world(12, 4, 0.3, seed=2),
                                            topo.SCHEME_UNIFORM, 0.1)

    def test_sigma2_then_stationary_recompute_nothing(self, monkeypatch):
        tm = self.kernel()
        calls = []
        real_eigvalsh, real_pi = np.linalg.eigvalsh, topo._closed_form_pi
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append("eigvalsh") or real_eigvalsh(a))
        monkeypatch.setattr(topo, "_closed_form_pi",
                            lambda t: calls.append("pi") or real_pi(t))
        s2 = topo.sigma2(tm)
        pi = topo.stationary_distribution(tm)
        assert calls == ["pi", "eigvalsh"]
        assert topo.sigma2(tm) == s2
        assert np.array_equal(topo.stationary_distribution(tm), pi)
        assert calls == ["pi", "eigvalsh"]

    def test_returned_pi_is_the_callers(self):
        tm = self.kernel()
        pi = topo.stationary_distribution(tm)
        kept = pi.copy()
        pi[:] = -1.0
        assert np.array_equal(topo.stationary_distribution(tm), kept)

    def test_kernel_and_kept_pi_are_read_only(self):
        tm = self.kernel()
        with pytest.raises(ValueError):
            tm.P[0, 0] = 0.5
        with pytest.raises(ValueError):
            tm.spectrum[0][0] = 0.5


class TestSampleNext:
    def test_largest_draw_stays_on_graph(self):
        # row 4's CDF ends at 0.9999999999999999 and its last entry is 0, so
        # the largest draw passes the whole row; it lands on the last
        # neighbour, 15, not on node 19
        g = topo.gen_small_world(20, 4, 0.3, seed=1)
        tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.0)
        assert tm.cdf[4, -1] < 1.0 and tm.P[4, -1] == 0.0
        assert topo.sample_next(tm, 4, LargestDraw()) == 15

    def test_degenerate_row(self):
        P = np.array([[1.0, 0, 0], [1, 0, 0], [1, 0, 0]])
        tm = topo.TransitionMatrix(P, topo.SCHEME_UNIFORM, 0.0)
        rng = np.random.default_rng(0)
        assert all(topo.sample_next(tm, 1, rng) == 0 for _ in range(100))

    def test_k3_frequencies(self):
        tm = topo.build_transition_matrix(topo.gen_complete(3),
                                          topo.SCHEME_UNIFORM, 0.0)
        rng = np.random.default_rng(42)
        draws = np.array([topo.sample_next(tm, 0, rng) for _ in range(100_000)])
        for target in (1, 2):
            assert abs(np.mean(draws == target) - 0.5) < 0.01

    def test_lazy_self_transition_frequency(self):
        tm = topo.build_transition_matrix(topo.gen_ring(6),
                                          topo.SCHEME_UNIFORM, 0.3)
        rng = np.random.default_rng(7)
        stays = sum(topo.sample_next(tm, 2, rng) == 2 for _ in range(100_000))
        assert abs(stays / 100_000 - 0.3) < 0.01

    def test_empirical_within_three_sigma(self):
        g = topo.gen_small_world(10, 4, 0.3, seed=9)
        tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.1)
        rng = np.random.default_rng(1)
        N = 100_000
        draws = np.array([topo.sample_next(tm, 3, rng) for _ in range(N)])
        counts = np.bincount(draws, minlength=g.n)
        for j in range(g.n):
            p = tm.P[3, j]
            sd = np.sqrt(max(p * (1 - p) / N, 1e-12))
            assert abs(counts[j] / N - p) <= 3 * sd + 1e-9

    @staticmethod
    def searchsorted_next(tm, rows, draws):
        """The reference: each draw's position in its row's CDF array by
        np.searchsorted, clamped to the row's last positive entry."""
        last = tm.n - 1 - np.argmax(tm.P[:, ::-1] > 0, axis=1)
        out = np.empty(rows.size, dtype=int)
        for r in np.unique(rows):
            at = rows == r
            out[at] = np.minimum(tm.cdf[r].searchsorted(draws[at], "right"), last[r])
        return out

    # seeds fixed before any result was seen
    @pytest.mark.parametrize("family", ["ring", "star", "small_world"])
    @pytest.mark.parametrize("scheme", topo.SCHEMES)
    @pytest.mark.parametrize("laziness", [0.0, 0.2])
    def test_bisect_equals_searchsorted_position_for_position(self, family, scheme,
                                                             laziness):
        """10^5 steps of a walk by sample_next land where np.searchsorted
        over the kernel's CDF array puts the same draws (read from a twin
        of the walk's generator); so do draws of 0, of each of a row's CDF
        values (where bisecting left would differ) and the largest draw."""
        g = topo.gen_graph(family, 12, k=4, degree=1, p_rewire=0.3, seed=3)
        tm = topo.build_transition_matrix(g, scheme, laziness)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        starts, ends = [], [0]
        for _ in range(100_000):
            starts.append(ends[-1])
            ends.append(topo.sample_next(tm, ends[-1], rng))
        ref = self.searchsorted_next(tm, np.array(starts), twin.random(len(starts)))
        assert np.array_equal(ends[1:], ref)
        rows = np.repeat(np.arange(tm.n), tm.n + 2)
        draws = np.column_stack([np.zeros(tm.n), tm.cdf,
                                 np.full(tm.n, LargestDraw().random())]).ravel()
        got = [topo.sample_next(tm, r, FixedDraw(u))
               for r, u in zip(rows.tolist(), draws.tolist())]
        assert got == list(self.searchsorted_next(tm, rows, draws))

    def test_bisect_clamps_a_short_row_as_searchsorted(self):
        """Row 4's CDF ends below 1 (see above): draws past its total, the
        largest among them, land as in the searchsorted reference."""
        g = topo.gen_small_world(20, 4, 0.3, seed=1)
        tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.0)
        total = tm.cdf[4, -1]
        draws = np.array([0.0, total, np.nextafter(total, 1.0), LargestDraw().random()])
        rows = np.full(draws.size, 4)
        got = [topo.sample_next(tm, 4, FixedDraw(u)) for u in draws.tolist()]
        assert got == list(self.searchsorted_next(tm, rows, draws))
        assert got[1:] == [15, 15, 15]

    def test_walk_determinism(self):
        g = topo.gen_small_world(10, 4, 0.3, seed=9)
        tm = topo.build_transition_matrix(g, topo.SCHEME_METROPOLIS, 0.1)

        def walk():
            rng = np.random.default_rng(5)
            cur, seq = 0, []
            for _ in range(200):
                cur = topo.sample_next(tm, cur, rng)
                seq.append(cur)
            return seq

        assert walk() == walk()


class TestSerialization:
    def test_round_trip(self):
        g = topo.gen_small_world(12, 4, 0.5, seed=8)
        text = g.to_edgelist()
        g2 = topo.Graph.from_edgelist(text)
        assert np.array_equal(g.adj, g2.adj)

    def test_format(self):
        text = topo.gen_ring(3).to_edgelist()
        assert text == "n 3\n0 1\n0 2\n1 2\n"

    def test_no_nodes_rejected(self):
        with pytest.raises(ParameterError, match=r"^n: must be >= 1, got 0$"):
            topo.Graph(0, np.zeros((0, 0), dtype=bool))
        with pytest.raises(ParameterError, match=r"^n: must be >= 1, got 0$"):
            topo.Graph.from_edgelist("n 0\n")

    @pytest.mark.parametrize("text", [
        "n -1\n", "n x\n", "", "0 1\n", "n 3 4\n", "n 3\n0 1 2\n",
        "n 3\n0 x\n", "n 3\n-1 2\n", "n 3\n0 3\n", "n 3\n1 0\n"])
    def test_bad_input_names_line(self, text):
        """Each text's last line is its first bad one."""
        bad = (text.splitlines() or [""])[-1]
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            topo.Graph.from_edgelist(text)
