"""Communication graphs, Markov transition matrices and spectral diagnostics.

Graphs are simple, undirected and connected. A transition matrix turns a
graph into a random-walk schedule; its second-largest eigenvalue magnitude
controls how fast the walk mixes and therefore how evenly clients are
visited.

Every kernel built here is reversible (Levin, Peres and Wilmer, *Markov
Chains and Mixing Times*, ch. 12): pi is uniform for Metropolis-Hastings and
proportional to degree for the uniform-neighbour walk, laziness or not. With
D = diag(pi), D^1/2 P D^-1/2 is symmetric: sigma2 is one `eigvalsh` of it, or,
on the cycle, star and complete graph, a closed form (§12.3) no BLAS changes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DiagnosticError, GenerationError, ParameterError

SCHEME_UNIFORM = "uniform"
SCHEME_METROPOLIS = "metropolis"
SCHEMES = (SCHEME_UNIFORM, SCHEME_METROPOLIS)

_MAX_GEN_ATTEMPTS = 100
# largest |pi_i P_ij - pi_j P_ji| accepted as detailed balance
_BALANCE_TOL = 1e-12
# largest |row sum - 1| accepted in a walk kernel. Its entries must be >= 0
# exactly: build_transition_matrix clamps a Metropolis diagonal at 0, where
# 1 minus its row's moves would round to -2.2e-16
_STOCHASTIC_TOL = 1e-8


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1 with read-only boolean adjacency."""

    n: int
    adj: np.ndarray  # (n, n) bool, symmetric, zero diagonal

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n: must be >= 1, got {self.n}")
        a = self.adj
        if a.shape != (self.n, self.n):
            raise ParameterError(f"adjacency shape {a.shape} does not match n={self.n}")
        if a.dtype != np.bool_:
            raise ParameterError("adjacency must be boolean")
        if not np.array_equal(a, a.T):
            raise ParameterError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ParameterError("self-loops are not allowed")
        a.flags.writeable = False

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of each edge from both ends, row by row, by one 1-D scan: a
        2-D nonzero, or one of a float array, takes several times as long."""
        return divmod(np.flatnonzero(self.adj), self.n)

    @cached_property
    def _connected(self) -> bool:
        return _bfs_connected(self.adj)

    def degrees(self) -> np.ndarray:
        return np.bincount(self._arcs[0], minlength=self.n)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as (i, j) with i < j, in ascending order."""
        ii, jj = self._arcs
        return list(zip(ii[ii < jj].tolist(), jj[ii < jj].tolist()))

    def num_edges(self) -> int:
        return self._arcs[0].size // 2

    def is_connected(self) -> bool:
        return self._connected

    def to_edgelist(self) -> str:
        lines = [f"n {self.n}"]
        lines += [f"{i} {j}" for i, j in self.edges()]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_edgelist(text: str) -> "Graph":
        """The graph of a line "n <count>", then one line "i j" with
        0 <= i < j < count per edge; raises ParameterError naming the first
        line that breaks this."""
        lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
        head = lines[0].split()
        if not (len(head) == 2 and head[0] == "n" and head[1].isdecimal()):
            raise ParameterError(f"edge-list must start with 'n <count>', got {lines[0]!r}")
        n = int(head[1])
        adj = np.zeros((n, n), dtype=bool)
        for ln in lines[1:]:
            ij = [int(w) if w.isdecimal() else -1 for w in ln.split()]
            if len(ij) != 2 or not (0 <= ij[0] < ij[1] < n):
                raise ParameterError(f"bad edge line {ln!r}")
            i, j = ij
            adj[i, j] = adj[j, i] = True
        return Graph(n, adj)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic walk kernel over a graph's nodes; P is made read-only."""

    P: np.ndarray
    scheme: str
    laziness: float
    # "cycle", "star" or "complete": only the builder vouches that P is the scheme's kernel there
    _graph: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self):
        check_kernel(self.scheme, self.laziness)
        P = self.P
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
            raise ParameterError(f"P: must be a square (n, n) matrix, got shape {P.shape}")
        # NaN fails both tests
        if not (P.min() >= 0 and np.abs(P.sum(axis=1) - 1).max() <= _STOCHASTIC_TOL):
            raise ParameterError(f"P: must be non-negative with every row summing to 1 "
                                 f"to within {_STOCHASTIC_TOL}")
        P.flags.writeable = False

    @cached_property
    def cdf(self) -> np.ndarray:
        """Each row's running sum, worked out on the first walk step and kept."""
        return np.cumsum(self.P, axis=1)

    @cached_property
    def walk_rows(self) -> list[tuple[list[float], int]]:
        """Per row: its CDF as a list, to bisect, and its last positive entry,
        where a draw past the CDF's total lands."""
        last = self.n - 1 - np.argmax(self.P[:, ::-1] > 0, axis=1)
        return list(zip(self.cdf.tolist(), last.tolist()))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, float]:
        """(pi, sigma2), worked out on first use and kept: the closed-form pi,
        read-only, and sigma2: closed-form on a named graph, else one eigvalsh."""
        pi = _closed_form_pi(self)
        pi.flags.writeable = False
        if self._graph:
            return pi, _closed_form_sigma2(self)
        r = np.sqrt(pi)
        S = r[:, None] * self.P
        S /= r
        eig = np.linalg.eigvalsh(S)  # ascending, 1 last
        return pi, float(np.max(np.abs(eig[:-1]), initial=0.0))

    @property
    def n(self) -> int:
        return self.P.shape[0]


def _bfs_connected(adj: np.ndarray) -> bool:
    """Whether every node is reached from node 0, one whole frontier a step."""
    unseen = np.ones(adj.shape[0], dtype=bool)
    frontier = np.array([0])
    while len(frontier):
        unseen[frontier] = False
        frontier = (np.logical_or.reduce(adj[frontier], axis=0) & unseen).nonzero()[0]
    return not unseen.any()


# the least n of each family whose generator takes only n
_MIN_N = {"ring": 3, "star": 2, "complete": 2}


def check_family(family: str, n: int, k: int = 2, degree: int = 1,
                 p_rewire: float = 0.0) -> None:
    """The bounds of a family's generator, declared once for the generators
    and the config: raises ParameterError "<key>: <reason>", naming the
    [topology] key at fault. Keys the family does not use go unchecked."""
    if family not in FAMILIES:
        raise ParameterError(f"family: must be one of {FAMILIES}, got {family!r}")
    if family == "small_world":
        if not (n > k >= 2):
            raise ParameterError(f"k: need n > k >= 2, got n={n}, k={k}")
        if k % 2 != 0:
            raise ParameterError(f"k: must be even, got {k}")
        if not (0.0 <= p_rewire <= 1.0):
            raise ParameterError(f"p_rewire: must be in [0, 1], got {p_rewire}")
    elif family == "regular":
        if not (1 <= degree < n):
            raise ParameterError(f"degree: need 1 <= degree < n, got n={n}, degree={degree}")
        if (n * degree) % 2 != 0:
            raise ParameterError(f"degree: n*degree must be even, got n={n}, degree={degree}")
    elif n < _MIN_N[family]:
        raise ParameterError(f"n: {family} needs n >= {_MIN_N[family]}, got {n}")


def check_kernel(scheme: str, laziness: float) -> None:
    """Raises ParameterError "<field>: <reason>" for a scheme or laziness out of bounds."""
    if scheme not in SCHEMES:
        raise ParameterError(f"scheme: must be one of {SCHEMES}, got {scheme!r}")
    if not (0.0 <= laziness < 1.0):
        raise ParameterError(f"laziness: must be in [0, 1), got {laziness!r}")


def _attempt_rng(seed: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, attempt]))


def gen_small_world(n: int, k: int, p_rewire: float, seed: int) -> Graph:
    """Watts-Strogatz small-world graph: ring lattice with k neighbors per
    node, each edge rewired with probability p_rewire. Regenerated with a
    fresh derived seed until connected."""
    check_family("small_world", n, k=k, p_rewire=p_rewire)
    rows = np.arange(n)[:, None]
    cols = (rows + np.arange(1, k // 2 + 1)) % n
    lattice = np.zeros((n, n), dtype=bool)
    lattice[rows, cols] = lattice[cols, rows] = True
    for attempt in range(_MAX_GEN_ATTEMPTS):
        rng = _attempt_rng(seed, attempt)
        adj = lattice.copy()
        # rewire each lattice edge (i, i+off) independently
        for off in range(1, k // 2 + 1):
            for i in range(n):
                j = (i + off) % n
                if rng.random() < p_rewire:
                    candidates = np.flatnonzero(~adj[i])
                    candidates = candidates[candidates != i]
                    if candidates.size == 0:
                        continue
                    # takes from the stream what rng.choice(candidates) takes
                    m = candidates[rng.integers(candidates.size)]
                    adj[i, j] = adj[j, i] = False
                    adj[i, m] = adj[m, i] = True
        if (g := Graph(n, adj)).is_connected():
            return g
    raise GenerationError(
        f"no connected small-world graph after {_MAX_GEN_ATTEMPTS} attempts "
        f"(n={n}, k={k}, p_rewire={p_rewire}, seed={seed})"
    )


def gen_regular_expander(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph by the pairing model, retried until the
    pairing is simple and the graph connected."""
    check_family("regular", n, degree=d)
    for attempt in range(_MAX_GEN_ATTEMPTS):
        rng = _attempt_rng(seed, attempt)
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        adj = np.zeros((n, n), dtype=bool)
        adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = True
        # a self-loop or a repeated pair sets fewer than n*d entries
        if np.count_nonzero(adj) == n * d and (g := Graph(n, adj)).is_connected():
            return g
    raise GenerationError(
        f"no connected simple {d}-regular graph after {_MAX_GEN_ATTEMPTS} "
        f"attempts (n={n}, seed={seed})"
    )


def gen_ring(n: int) -> Graph:
    check_family("ring", n)
    adj = np.roll(np.eye(n, dtype=bool), 1, axis=1)  # i -> i+1 mod n
    return Graph(n, adj | adj.T)


def gen_star(n: int) -> Graph:
    """Star with node 0 as hub."""
    check_family("star", n)
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return Graph(n, adj)


def gen_complete(n: int) -> Graph:
    check_family("complete", n)
    adj = ~np.eye(n, dtype=bool)
    return Graph(n, adj)


# each family's generator over (n, k, degree, p_rewire, seed)
_GENERATORS = {
    "small_world": lambda n, k, degree, p_rewire, seed: gen_small_world(n, k, p_rewire, seed),
    "regular": lambda n, k, degree, p_rewire, seed: gen_regular_expander(n, degree, seed),
    "ring": lambda n, *_: gen_ring(n),
    "star": lambda n, *_: gen_star(n),
    "complete": lambda n, *_: gen_complete(n),
}
FAMILIES = tuple(_GENERATORS)


def gen_graph(family: str, n: int, k: int, degree: int, p_rewire: float,
              seed: int) -> Graph:
    """The graph of `family` on n nodes, from the parameters its generator reads."""
    check_family(family, n, k, degree, p_rewire)   # an unknown family raises here
    return _GENERATORS[family](n, k, degree, p_rewire, seed)


def build_transition_matrix(g: Graph, scheme: str = SCHEME_METROPOLIS,
                            laziness: float = 0.0) -> TransitionMatrix:
    """Build a row-stochastic walk kernel on g.

    uniform: move to a uniformly random neighbor. metropolis: accept moves
    with min(1/deg_i, 1/deg_j), which makes the stationary distribution
    uniform on any connected graph. laziness mixes in self-transitions,
    removing periodicity.
    """
    check_kernel(scheme, laziness)  # first: P's arithmetic warns on an infinite laziness
    if not g.is_connected():
        raise ParameterError("graph must be connected")
    n = g.n
    ii, jj = g._arcs
    deg = g.degrees()
    P = np.zeros((n, n))
    if scheme == SCHEME_UNIFORM:
        if not deg.all():
            raise ParameterError(f"uniform kernel: node {np.argmin(deg)} has no neighbour")
        P[ii, jj] = 1.0 / deg[ii]
    else:
        P[ii, jj] = 1.0 / np.maximum(deg[ii], deg[jj])  # = min(1/deg_i, 1/deg_j)
        # dense row sums: their pairwise order sets the diagonal's bits
        np.fill_diagonal(P, np.maximum(1.0 - P.sum(axis=1), 0.0))
    P *= 1.0 - laziness  # then the diagonal: the bits of laziness*I + (1-laziness)*P
    np.fill_diagonal(P, P.diagonal() + laziness)
    tm = TransitionMatrix(P=P, scheme=scheme, laziness=laziness)
    # named by a connected graph's degrees, K_n first: K_3 is also C_3
    object.__setattr__(tm, "_graph", "complete" if n > 1 and (deg == n - 1).all()
                       else "cycle" if (deg == 2).all()
                       else "star" if n > 2 and np.count_nonzero(deg == 1) == n - 1 else "")
    return tm


def _closed_form_sigma2(tm: TransitionMatrix) -> float:
    """max |laziness + (1 - laziness) mu| over the extreme non-unit eigenvalues
    mu of the scheme's kernel on the named graph without laziness (§12.3)."""
    a = 1.0 / (tm.n - 1)
    if tm._graph == "complete":  # both schemes coincide on a regular graph
        mus = (-a,)
    elif tm._graph == "cycle":
        mus = (math.cos(2 * math.pi / tm.n), math.cos(2 * math.pi * (tm.n // 2) / tm.n))
    elif tm.scheme == SCHEME_UNIFORM:  # the star is bipartite
        mus = (-1.0, 0.0)
    else:
        mus = (-a, 1.0 - a)
    return max(abs(tm.laziness + (1.0 - tm.laziness) * mu) for mu in mus)


def _closed_form_pi(tm: TransitionMatrix) -> np.ndarray:
    """The stationary distribution of the kernel's scheme, checked by
    detailed balance; raises DiagnosticError for a kernel that is not
    reversible with respect to it."""
    P = tm.P
    ii, jj = divmod(np.flatnonzero(P != 0), tm.n)  # P_ij = P_ji = 0 elsewhere
    if tm.scheme == SCHEME_METROPOLIS:
        pi = np.full(tm.n, 1.0 / tm.n)
    else:
        deg = np.bincount(ii[ii != jj], minlength=tm.n)
        pi = deg / deg.sum()
    imbalance = pi[ii] * P[ii, jj] - pi[jj] * P[jj, ii]
    if not (pi > 0).all() or np.max(np.abs(imbalance), initial=0.0) > _BALANCE_TOL:
        raise DiagnosticError(f"kernel is not reversible with respect to the "
                              f"stationary distribution of the {tm.scheme} scheme")
    return pi


def sigma2(tm: TransitionMatrix) -> float:
    """Second-largest eigenvalue magnitude of the walk kernel: 1.0 for
    periodic chains, which signals a non-mixing walk."""
    return tm.spectrum[1]


def stationary_distribution(tm: TransitionMatrix) -> np.ndarray:
    """Stationary vector pi with pi P = pi, in closed form; a new array."""
    pi, s2 = tm.spectrum
    if s2 >= 1.0 - 1e-12:
        raise DiagnosticError(
            "chain is periodic or reducible (second eigenvalue magnitude ~ 1); "
            "add laziness to make it mix"
        )
    return pi.copy()


def sample_next(tm: TransitionMatrix, current: int, rng: np.random.Generator) -> int:
    """Draw the next walk position from row `current` by inverse CDF."""
    cdf, last = tm.walk_rows[current]
    return min(bisect_right(cdf, rng.random()), last)
