import numpy as np
import pytest

from walkmeta import tasks
from walkmeta.errors import ParameterError


class TestSineTask:
    def test_targets_follow_latent(self):
        rng = np.random.default_rng(0)
        t = tasks.gen_sine_task(rng, shots=10, query_size=15)
        A, phi = t.latent["amplitude"], t.latent["phase"]
        for x, y in (t.support, t.query):
            assert np.allclose(y, A * np.sin(x[:, 0] + phi), atol=1e-12)

    def test_amplitude_bounds_targets(self):
        rng = np.random.default_rng(3)
        t = tasks.gen_sine_task(rng, shots=5, query_size=10_000)
        A = t.latent["amplitude"]
        assert np.all(np.abs(t.query[1]) <= A + 1e-12)
        assert np.mean(np.abs(t.query[1])) <= A

    def test_sizes(self):
        t = tasks.gen_sine_task(np.random.default_rng(1), shots=7, query_size=15)
        assert t.support[0].shape == (7, 1)
        assert t.query[0].shape == (15, 1)

    def test_bad_sizes(self):
        for shots, query_size, name in ((0, 5, "shots"), (5, 0, "query_size")):
            with pytest.raises(ParameterError, match=rf"^{name}: must be >= 1, got 0$"):
                tasks.gen_sine_task(np.random.default_rng(0), shots, query_size)


class TestBlobTask:
    def test_5way_1shot_sizes(self):
        t = tasks.gen_blob_task(np.random.default_rng(0), ways=5, shots=1,
                                query_per_class=15, dim=2, spread=0.5)
        assert t.support[0].shape == (5, 2)
        assert t.query[0].shape == (75, 2)

    def test_5way_5shot_support(self):
        t = tasks.gen_blob_task(np.random.default_rng(0), ways=5, shots=5,
                                query_per_class=15, dim=2, spread=0.5)
        assert t.support[0].shape == (25, 2)

    def test_zero_spread_separable(self):
        t = tasks.gen_blob_task(np.random.default_rng(5), ways=5, shots=1,
                                query_per_class=15, dim=3, spread=0.0)
        centroids = t.latent["centroids"]
        x, y = t.query
        dists = np.linalg.norm(x[:, None, :] - centroids[None], axis=2)
        assert np.all(dists.argmin(axis=1) == y.astype(int))

    def test_bad_params(self):
        rng = np.random.default_rng(0)
        good = dict(ways=3, shots=1, query_per_class=5, dim=2, spread=0.5)
        for bad in ({"ways": 1}, {"dim": 1}, {"shots": 0}, {"query_per_class": 0},
                    {"spread": np.nan}, {"spread": -0.5}):
            (name,) = bad
            with pytest.raises(ParameterError, match=rf"^{name}: "):
                tasks.gen_blob_task(rng, **{**good, **bad})


class TestAssignClients:
    CFG = tasks.TaskConfig(kind=tasks.KIND_SINE, shots=5, query_size=10)

    def test_id_ranges_disjoint(self):
        a = tasks.assign_clients(380, 120, self.CFG, seed=0)
        assert sorted(a.training) == list(range(380))
        assert sorted(a.unseen) == list(range(380, 500))
        assert not set(a.training) & set(a.unseen)

    def test_deterministic(self):
        a = tasks.assign_clients(5, 2, self.CFG, seed=3)
        b = tasks.assign_clients(5, 2, self.CFG, seed=3)
        for cid in a.training:
            assert np.array_equal(a.training[cid].support[0],
                                  b.training[cid].support[0])
            assert a.training[cid].latent == b.training[cid].latent

    def test_latents_distinct_across_seeds(self):
        amps = set()
        for seed in range(100):
            a = tasks.assign_clients(1, 1, self.CFG, seed=seed)
            amps.add(a.training[0].latent["amplitude"])
            amps.add(a.unseen[1].latent["amplitude"])
        assert len(amps) == 200

    def test_growth_keeps_existing_tasks(self):
        # adding clients must not reshuffle earlier clients' tasks
        small = tasks.assign_clients(3, 0, self.CFG, seed=7)
        big = tasks.assign_clients(10, 5, self.CFG, seed=7)
        for cid in range(3):
            assert np.array_equal(small.training[cid].support[0],
                                  big.training[cid].support[0])

    def test_support_query_distinct_objects(self):
        a = tasks.assign_clients(2, 1, self.CFG, seed=0)
        for t in a.training.values():
            assert t.support[0] is not t.query[0]


class TestDump:
    def test_dump_contains_every_client(self):
        a = tasks.assign_clients(3, 2, self.blob_cfg(), seed=1)
        text = tasks.dump_tasks(a)
        for cid in range(5):
            assert f"client {cid} " in text
        assert "latent centroids" in text

    @staticmethod
    def blob_cfg():
        return tasks.TaskConfig(kind=tasks.KIND_BLOB, ways=3, shots=1,
                                query_per_class=4, dim=2, spread=0.3)
