import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from walkmeta import cli, config
from walkmeta.config import ExperimentConfig, parse_config_text, serialize_config
from walkmeta.errors import ConfigError

FAST_CFG = """
[topology]
family = ring
n = 6
laziness = 0.1

[clients]
n_training = 6
n_unseen = 2

[task]
shots = 5
query_size = 10

[model]
hidden = 8

[run]
T = 20
eval_every = 10
seed = 0
"""


class TestParse:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()
        assert cfg.task.kind == "sine"
        assert cfg.topology.family == "small_world"
        assert cfg.topology.n == 20 and cfg.topology.k == 4
        assert cfg.topology.p_rewire == 0.3
        assert cfg.method == "lodmeta"
        assert cfg.T == 2000 and cfg.seed == 0
        assert cfg.hyper.eta == 0.001 and cfg.hyper.theta == 0.0
        assert cfg.hyper.beta == 0.99 and cfg.hyper.K == 5
        assert cfg.privacy.epsilon == 0.5 and cfg.privacy.delta == 0.3

    def test_epsilon_bound_named(self):
        with pytest.raises(ConfigError, match=r"privacy\.epsilon.*\(0, 1\)"):
            parse_config_text("[privacy]\nenabled = true\nepsilon = 1.5\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config_text("[run]\nepochs = 5\n")

    def test_bad_value_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("run.T = soon\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\n[run]\nT = 7  # trailing\n")
        assert cfg.T == 7

    def test_round_trip(self):
        cfg = parse_config_text(FAST_CFG)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_every_key_off_default(self):
        # every field differs from its default and from its neighbours, so a
        # key parsed onto the wrong field shows
        cfg = ExperimentConfig(
            topology=config.TopologySpec(family="regular", n=8, k=6, degree=5,
                                         p_rewire=0.2, laziness=0.2, scheme="uniform"),
            task=config.TaskConfig(kind="blob", shots=3, query_size=7, ways=4,
                                   query_per_class=9, dim=3, spread=0.7),
            n_training=8, n_unseen=2, method="centralized_maml", n_active=1,
            hidden=(5, 4), head="mse",
            hyper=config.HyperParams(eta=0.002, theta=0.1, beta=0.9, lam=1e-6,
                                     alpha=0.02, K=4),
            privacy=config.PrivacyParams(epsilon=0.4, delta=0.25, m_meta=2.5,
                                         enabled=True),
            delta_hat=0.05, T=30, eval_every=11, seed=12, output="x.csv",
            record_trace=True)
        assert parse_config_text(serialize_config(cfg)) == cfg.validate()

    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_topology_must_match_training_count(self):
        with pytest.raises(ConfigError, match="topology.n"):
            parse_config_text("[topology]\nn = 10\n[clients]\nn_training = 8\n")

    def test_eta_warning_when_privacy_tight(self):
        text = "[privacy]\nenabled = true\nm_meta = 10000\n"
        with pytest.warns(UserWarning, match="2/m_meta"):
            parse_config_text(text)


class TestCmdRun:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + f"\n[run]\noutput = {tmp_path}/out.csv\n")
        assert cli.main(["run", str(cfg_path)]) == 0
        text = (tmp_path / "out.csv").read_text()
        rows = [ln for ln in text.splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("iteration")]
        assert len(rows) == 20 // 10 + 1
        out = capsys.readouterr().out
        assert "train_metric=" in out

    def test_rerun_identical_bytes(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + f"\n[run]\noutput = {tmp_path}/out.csv\n")
        cli.main(["run", str(cfg_path)])
        first = (tmp_path / "out.csv").read_bytes()
        cli.main(["run", str(cfg_path)])
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_missing_config_exit_1(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_invalid_config_exit_1(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[privacy]\nepsilon = 2.0\n")
        assert cli.main(["run", str(p)]) == 1

    def test_numerical_failure_exit_2(self, tmp_path):
        p = tmp_path / "blowup.cfg"
        p.write_text(FAST_CFG + f"\n[hyper]\neta = 1e9\n"
                     f"[method]\nkind = lodmeta_sgd\n"
                     f"[run]\noutput = {tmp_path}/b.csv\n")
        assert cli.main(["run", str(p)]) == 2

    def test_overflowing_meta_gradient_exit_2_with_csv(self, tmp_path):
        p = tmp_path / "overflow.cfg"
        p.write_text("[topology]\nfamily = ring\nn = 6\n"
                     "[clients]\nn_training = 6\nn_unseen = 2\n"
                     "[model]\nhidden = 8\n[method]\nkind = lodmeta_sgd\n"
                     "[hyper]\neta = 1e6\nalpha = 0.5\ntheta = 0.5\n"
                     f"[run]\nT = 40\neval_every = 2\nseed = 2\n"
                     f"output = {tmp_path}/o.csv\n")
        assert cli.main(["run", str(p)]) == 2
        assert "# aborted=" in (tmp_path / "o.csv").read_text()


class _PoolWithDeadWorker:
    """In-process stand-in for ProcessPoolExecutor whose worker dies on every
    seed-1 cell."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        fut = Future()
        if job[1] == 1:
            fut.set_exception(BrokenProcessPool("worker died"))
        else:
            fut.set_result(fn(job))
        return fut


class TestCmdSweep:
    def test_dead_worker_counts_as_failed_cell(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _PoolWithDeadWorker)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,lodmeta_sgd", "--seeds", "2",
                         "--jobs", "2", "--outdir", str(tmp_path / "sw")]) == 0
        lines = (tmp_path / "sw" / "exp_method_summary.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["lodmeta", "2", "1"], ["lodmeta_sgd", "2", "1"]]
        for line in lines[1:]:
            assert all(np.isfinite(float(f)) for f in line.split(",")[3:])

    def test_method_sweep(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        rc = cli.main(["sweep", str(cfg_path), "--axis", "method",
                       "--values", "lodmeta,lodmeta_sgd", "--seeds", "2",
                       "--outdir", str(tmp_path / "sw")])
        assert rc == 0
        files = sorted(os.listdir(tmp_path / "sw"))
        cells = [f for f in files if "seed" in f]
        assert len(cells) == 4
        summary = (tmp_path / "sw" / "exp_method_summary.csv").read_text()
        assert "lodmeta," in summary and "lodmeta_sgd," in summary
        assert summary.splitlines()[0].startswith("value,n_seeds")

    def test_summary_fields_parse_as_floats(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,centralized_maml", "--seeds", "2",
                         "--outdir", str(tmp_path / "sw")]) == 0
        lines = (tmp_path / "sw" / "exp_method_summary.csv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            for field in line.split(",")[1:]:
                float(field)

    def test_epsilon_sweep_enables_privacy(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + "\n[hyper]\nlambda = 1.0\n")
        rc = cli.main(["sweep", str(cfg_path), "--axis", "epsilon",
                       "--values", "0.5,0.8", "--seeds", "1",
                       "--outdir", str(tmp_path / "sw")])
        assert rc == 0
        cell = (tmp_path / "sw" / "exp_epsilon-0.5_seed0.csv").read_text()
        assert "privacy.enabled=true" in cell.lower()
        assert "dp.epsilon_prime=" in cell

    def test_empty_values_usage_error(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "", "--outdir", str(tmp_path)]) == 1


class TestCmdReport:
    @pytest.fixture
    def run_csvs(self, tmp_path):
        paths = []
        for method in ("lodmeta", "lodmeta_basic"):
            cfg_path = tmp_path / f"{method}.cfg"
            cfg_path.write_text(FAST_CFG + f"\n[method]\nkind = {method}\n"
                                f"[run]\noutput = {tmp_path}/{method}.csv\n")
            assert cli.main(["run", str(cfg_path)]) == 0
            paths.append(str(tmp_path / f"{method}.csv"))
        return paths

    def test_one_polyline_per_csv(self, run_csvs, tmp_path):
        out = tmp_path / "plot.svg"
        rc = cli.main(["report", *run_csvs, "--metric", "train_metric",
                       "-o", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert svg.startswith("<svg")

    def test_deterministic_bytes(self, run_csvs, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli.main(["report", *run_csvs, "-o", str(a)])
        cli.main(["report", *run_csvs, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_csv_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("iteration,comm\n1,2,3\n")
        rc = cli.main(["report", str(bad), "-o", str(tmp_path / "x.svg")])
        assert rc == 1
        assert "bad.csv" in capsys.readouterr().err


class TestCmdTopo:
    def test_prints_spectral_info(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["topo", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "n=6 edges=6" in out
        assert "sigma2=" in out
        assert "stationary=" in out


class TestConfigEcho:
    def test_echo_covers_schema(self):
        cfg = ExperimentConfig()
        echo = config.config_echo(cfg)
        assert echo["hyper.eta"] == 0.001
        assert echo["topology.family"] == "small_world"
        assert set(echo) == set(config._SCHEMA)
