import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walkmeta import cli, config, simulator, topology
from walkmeta.config import ExperimentConfig, parse_config_text, serialize_config
from walkmeta.errors import ConfigError, GenerationError, ParameterError
from walkmeta.report import render_svg

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


def file_keys(text: str) -> list[str]:
    """The section.key names a config text sets, in order."""
    keys, section = [], ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            keys.append(f"{section}.{line.split(' = ')[0]}")
    return keys


def unit_floats(lo=0.0, hi=1.0, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


@st.composite
def valid_configs(draw):
    """Random configs that pass validate, every key drawn."""
    family = draw(st.sampled_from(config.FAMILIES))
    n = draw(st.integers(3, 40))
    degree = draw(st.integers(1, n - 1))
    assume(family != "regular" or n * degree % 2 == 0)
    kind = draw(st.sampled_from(["sine", "blob"]))
    method = draw(st.sampled_from(sorted(config.METHOD_TABLE)))
    return ExperimentConfig(
        topology=config.TopologySpec(
            family=family, n=n, k=2 * draw(st.integers(1, (n - 1) // 2)), degree=degree,
            p_rewire=draw(unit_floats()), laziness=draw(unit_floats(exclude_max=True)),
            scheme=draw(st.sampled_from(["uniform", "metropolis"]))),
        task=config.TaskConfig(
            kind=kind, shots=draw(st.integers(1, 50)), query_size=draw(st.integers(1, 50)),
            ways=draw(st.integers(2, 9)), query_per_class=draw(st.integers(1, 50)),
            dim=draw(st.integers(2, 9)), spread=draw(unit_floats(0.0, 10.0))),
        n_training=n, n_unseen=draw(st.integers(0, 20)), method=method,
        n_active=draw(st.integers(1, n if method == "centralized_maml" else 100)),
        hidden=draw(st.none() | st.lists(st.integers(1, 99), min_size=1, max_size=3)
                    .map(tuple)),
        head=draw(st.sampled_from([None, "mse", "xent", "quadratic"])),
        hyper=config.HyperParams(
            eta=draw(unit_floats(0.0, 1e3)), theta=draw(unit_floats(exclude_max=True)),
            beta=draw(unit_floats(exclude_max=True)),
            lam=draw(unit_floats(0.0, 1.0, exclude_min=True)),
            alpha=draw(unit_floats(0.0, 10.0)), K=draw(st.integers(1, 20))),
        privacy=config.PrivacyParams(
            epsilon=draw(unit_floats(exclude_min=True, exclude_max=True)),
            delta=draw(unit_floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
            m_meta=draw(unit_floats(0.0, 1e4, exclude_min=True)),
            enabled=draw(st.booleans())),
        delta_hat=draw(unit_floats(exclude_min=True, exclude_max=True)),
        T=draw(st.integers(0, 10**6)), eval_every=draw(st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        output=draw(st.text("abcxyz019_-./", max_size=20)),
        record_trace=draw(st.booleans()))


# one row per bounded key: a file with that key out of range
OUT_OF_RANGE = [
    ("topology.family", "[topology]\nfamily = torus\n"),
    ("topology.laziness", "[topology]\nlaziness = 1.0\n"),
    ("topology.scheme", "[topology]\nscheme = greedy\n"),
    ("topology.k", "[topology]\nk = 3\n"),
    ("topology.p_rewire", "[topology]\np_rewire = 1.5\n"),
    ("topology.degree",
     "[topology]\nfamily = regular\nn = 5\ndegree = 3\n[clients]\nn_training = 5\n"),
    ("topology.n", "[topology]\nn = 10\n"),
    ("task.kind", "[task]\nkind = spiral\n"),
    ("task.shots", "[task]\nshots = 0\n"),
    ("clients.n_training", "[clients]\nn_training = 0\n"),
    ("clients.n_unseen", "[clients]\nn_unseen = -1\n"),
    ("method.kind", "[method]\nkind = gossip\n"),
    ("method.n_active", "[method]\nn_active = 0\n"),
    ("method.n_active", "[method]\nkind = centralized_maml\nn_active = 21\n"),
    ("model.hidden", "[model]\nhidden = 0\n"),
    ("model.head", "[model]\nhead = huber\n"),
    ("hyper.eta", "[hyper]\neta = -1\n"),
    ("hyper.theta", "[hyper]\ntheta = 1.0\n"),
    ("hyper.beta", "[hyper]\nbeta = -0.1\n"),
    ("hyper.lambda", "[hyper]\nlambda = 0\n"),
    ("hyper.alpha", "[hyper]\nalpha = -0.1\n"),
    ("hyper.K", "[hyper]\nK = 0\n"),
    ("privacy.epsilon", "[privacy]\nepsilon = 1.5\n"),
    ("privacy.delta", "[privacy]\ndelta = 0.5\n"),
    ("privacy.m_meta", "[privacy]\nm_meta = 0\n"),
    ("privacy.delta_hat", "[privacy]\ndelta_hat = 1.0\n"),
    ("run.T", "[run]\nT = -1\n"),
    ("run.eval_every", "[run]\neval_every = 0\n"),
    ("run.seed", "[run]\nseed = -1\n"),
    ("task.query_size", "[task]\nquery_size = 0\n"),
    ("task.ways", "[task]\nkind = blob\nways = 1\n"),
    ("task.query_per_class", "[task]\nkind = blob\nquery_per_class = 0\n"),
    ("task.dim", "[task]\nkind = blob\ndim = 1\n"),
    ("topology.degree", "[topology]\nfamily = regular\ndegree = 0\n"),
    ("topology.degree", "[topology]\nfamily = regular\ndegree = 20\n"),
    ("topology.n", "[topology]\nfamily = ring\nn = 2\n[clients]\nn_training = 2\n"),
]


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

    def test_hyper_bound_names_section(self):
        with pytest.raises(ConfigError, match=r"^hyper\.eta: must be >= 0, got -1\.0$"):
            parse_config_text("[hyper]\neta = -1\n")

    def test_eta_warning_when_privacy_tight(self):
        text = "[privacy]\nenabled = true\nm_meta = 10000\n"
        with pytest.warns(UserWarning, match="2/m_meta"):
            parse_config_text(text)

    @pytest.mark.parametrize("method", ["lodmeta_sgd", "lodmeta_basic",
                                        "centralized_maml"])
    def test_no_eta_warning_for_methods_without_noise(self, method):
        text = f"[method]\nkind = {method}\n[privacy]\nenabled = true\nm_meta = 10000\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config_text(text)

    @pytest.mark.parametrize("key,text", OUT_OF_RANGE,
                             ids=[f"{k}-{i}" for i, (k, _) in enumerate(OUT_OF_RANGE)])
    def test_out_of_range_names_key(self, key, text):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            parse_config_text(text)

    @settings(max_examples=150, deadline=None)
    @given(valid_configs())
    def test_round_trip_random_valid_configs(self, cfg):
        text = serialize_config(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # eta above 2/m_meta is allowed
            assert parse_config_text(text) == cfg
        assert list(config.config_echo(cfg)) == file_keys(text)


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

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        p = tmp_path / "neg.cfg"
        p.write_text(FAST_CFG + f"\n[run]\nseed = -1\noutput = {tmp_path}/n.csv\n")
        assert cli.main(["run", str(p)]) == 1
        assert "run.seed: " in capsys.readouterr().err
        assert not (tmp_path / "n.csv").exists()

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


# SHA-256 of every file a FAST_CFG sweep over the four methods and 2 seeds
# writes, and of its stdout with the output directory written as OUT; computed
# while sweep cells could still run in a process pool, with --jobs 1
SWEEP_GOLDEN = {
    "exp_method-centralized_maml_seed0.csv":
        "655c37b2dd481eb38db8307982098f1a9df1d913a46235ad2b61c4c81cec95f7",
    "exp_method-centralized_maml_seed1.csv":
        "f25ecda452e64e4b50be73e6653d457d1ac9c4f7171bd48aa39c08d3235db134",
    "exp_method-lodmeta_basic_seed0.csv":
        "84ce83df5a80cdc59cf78aa8527a1ed1a8bef24f5865c624ad374196f4ec70fa",
    "exp_method-lodmeta_basic_seed1.csv":
        "9ab313f7d844d11961b0e4f79d3cfe541e7dc9c35b2942745a7d6af0f910405b",
    "exp_method-lodmeta_seed0.csv":
        "88bfca23b127304d5e39b42bb28d74810769b72e7e4fd0f4a0a6fe3aae59c76e",
    "exp_method-lodmeta_seed1.csv":
        "98322b7c34aeaa18d9d89737c7c60a8e392148655e71d90a2336d751c1eeabc2",
    "exp_method-lodmeta_sgd_seed0.csv":
        "328c3166db8af89d250e06a71c7429ad32776f44c98d56228961180bd82518a8",
    "exp_method-lodmeta_sgd_seed1.csv":
        "22d1ee1da1ccd1f62fe059e5da1c23e1ac9fd24c653322bf9ba7a43cddf997f9",
    "exp_method_summary.csv":
        "9102258818a036ebb5305af0e152ec97a06b67c14fe0b708853bcdbba6154ac6",
    "stdout": "bdf64131af318f1eb6f38a895099ec3c9a1684a77856e4599e808f021adac6f4",
}


def test_cli_import_stays_light():
    """Every CLI process, benchmark workers included, pays for what the import
    loads: no process pool, and no XML or HTTP stack before a report is drawn."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, walkmeta.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'xml', 'http')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


class TestCmdSweep:
    def test_outputs_match_golden_hashes(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["sweep", str(cfg_path), "--axis", "method", "--values",
                           "lodmeta,lodmeta_sgd,lodmeta_basic,centralized_maml",
                           "--seeds", "2", "--jobs", "1", "--outdir", str(tmp_path / "sw")])
        assert (rc, err.getvalue()) == (0, "")
        hashes = {name: hashlib.sha256((tmp_path / "sw" / name).read_bytes()).hexdigest()
                  for name in os.listdir(tmp_path / "sw")}
        hashes["stdout"] = hashlib.sha256(
            out.getvalue().replace(str(tmp_path), "OUT").encode()).hexdigest()
        assert hashes == SWEEP_GOLDEN

    def test_failing_cell_counts_as_failed(self, tmp_path, monkeypatch, capsys):
        real_run = simulator.run

        def run(cfg):
            if cfg.seed == 1:   # the seed-index-1 cells; FAST_CFG has seed 0
                raise GenerationError("no connected graph")
            return real_run(cfg)
        monkeypatch.setattr(simulator, "run", run)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,lodmeta_sgd", "--seeds", "2",
                         "--outdir", str(tmp_path / "sw")]) == 0
        lines = (tmp_path / "sw" / "exp_method_summary.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["lodmeta", "2", "1"], ["lodmeta_sgd", "2", "1"]]
        for line in lines[1:]:
            assert all(np.isfinite(float(f)) for f in line.split(",")[3:])
        # "wrote" names exactly the files on disk: the failed cells wrote none
        captured = capsys.readouterr()
        wrote = {os.path.basename(line.split(" ", 1)[1])
                 for line in captured.out.splitlines()
                 if line.startswith("wrote ")}
        assert wrote == set(os.listdir(tmp_path / "sw"))
        assert wrote == {"exp_method-lodmeta_seed0.csv", "exp_method-lodmeta_sgd_seed0.csv",
                         "exp_method_summary.csv"}
        assert captured.err == "".join(
            f"cell {tmp_path / 'sw' / f'exp_method-{m}_seed1.csv'} failed: no connected graph\n"
            for m in ("lodmeta", "lodmeta_sgd"))

    def test_unwritable_cell_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        (tmp_path / "sw" / "exp_method-lodmeta_seed0.csv").mkdir(parents=True)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method", "--values", "lodmeta",
                         "--seeds", "1", "--outdir", str(tmp_path / "sw")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_aborted_cells_still_write(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + "\n[hyper]\neta = 1e9\n")
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta_sgd", "--seeds", "1",
                         "--outdir", str(tmp_path / "sw")]) == 0
        cell = tmp_path / "sw" / "exp_method-lodmeta_sgd_seed0.csv"
        assert "# aborted=" in cell.read_text()
        assert f"wrote {cell}" in capsys.readouterr().out.splitlines()

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

    def test_negative_seed_runs_no_cell(self, tmp_path, monkeypatch, capsys):
        def run(cfg):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(simulator, "run", run)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + "\n[run]\nseed = -1\n")
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,lodmeta_sgd", "--seeds", "2",
                         "--outdir", str(tmp_path / "sw")]) == 1
        assert "run.seed: " in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_bad_epsilon_value_names_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "epsilon",
                         "--values", "0.5,1.5", "--seeds", "1",
                         "--outdir", str(tmp_path / "sw")]) == 1
        assert "error: privacy.epsilon: " in capsys.readouterr().err
        assert not os.listdir(tmp_path / "sw")

    def test_non_number_epsilon_names_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "epsilon",
                         "--values", "0.5,abc", "--seeds", "1",
                         "--outdir", str(tmp_path / "sw")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: privacy.epsilon: ") and "Traceback" not in err
        assert not os.listdir(tmp_path / "sw")

    def test_bad_task_value_runs_no_cell(self, tmp_path, monkeypatch, capsys):
        def run(cfg):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(simulator, "run", run)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + "\n[task]\nquery_size = 0\n")
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,lodmeta_sgd", "--seeds", "2",
                         "--outdir", str(tmp_path / "sw")]) == 1
        assert "error: task.query_size: " in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_empty_values_usage_error(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "", "--outdir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--values", "lodmeta,lodmeta_sgd,lodmeta", "--seeds", "2"],
         "sweep: --values repeats lodmeta"),
        (["--values", "lodmeta", "--jobs", "0"],
         "sweep: --jobs must be 1: cells run one at a time in this process"),
        (["--values", "lodmeta", "--jobs", "2"],
         "sweep: --jobs must be 1: cells run one at a time in this process"),
    ])
    def test_bad_flags_run_no_cell(self, tmp_path, monkeypatch, capsys, flags, message):
        def run(cfg):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(simulator, "run", run)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method", *flags,
                         "--outdir", str(tmp_path / "sw")]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "sw").exists()


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

    def test_escaped_label_and_aborted_run_parse(self, tmp_path):
        p = tmp_path / "overflow.cfg"
        p.write_text("[topology]\nfamily = ring\nn = 6\n"
                     "[clients]\nn_training = 6\nn_unseen = 2\n"
                     "[model]\nhidden = 8\n[method]\nkind = lodmeta_sgd\n"
                     "[hyper]\neta = 1e6\nalpha = 0.5\ntheta = 0.5\n"
                     f"[run]\nT = 40\neval_every = 2\nseed = 2\n"
                     f"output = {tmp_path}/a&b<c.csv\n")
        assert cli.main(["run", str(p)]) == 2
        assert cli.main(["report", str(tmp_path / "a&b<c.csv"),
                         "-o", str(tmp_path / "x.svg")]) == 0
        root = ET.parse(tmp_path / "x.svg").getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert [t.text for t in root.iter(ns + "text")][-1] == "a&b<c"
        points = root.find(ns + "polyline").get("points").split()
        assert points and all(np.isfinite(float(v)) for pt in points for v in pt.split(","))

    def test_series_without_finite_point_rejected(self):
        with pytest.raises(ParameterError, match="'dead' has no finite point"):
            render_svg([("ok", [0.0, 1.0], [1.0, 0.5]),
                        ("dead", [0.0, 1.0], [float("nan"), float("inf")])])

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

    def test_builds_graph_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = topology.gen_small_world
        monkeypatch.setattr(topology, "gen_small_world",
                            lambda *a: calls.append(a) or real(*a))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("[topology]\nfamily = small_world\nn = 8\nk = 4\n"
                            "[clients]\nn_training = 8\n")
        assert cli.main(["topo", str(cfg_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["ring", "small_world"])
    def test_one_spectrum_per_case(self, family, tmp_path, monkeypatch, capsys):
        """σ₂ and π come from one eigvalsh and one balance check."""
        calls = []
        real_eigvalsh, real_pi = np.linalg.eigvalsh, topology._closed_form_pi
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append("eigvalsh") or real_eigvalsh(a))
        monkeypatch.setattr(topology, "_closed_form_pi",
                            lambda tm: calls.append("pi") or real_pi(tm))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"[topology]\nfamily = {family}\nn = 8\n"
                            "[clients]\nn_training = 8\n")
        assert cli.main(["topo", str(cfg_path)]) == 0
        assert "stationary=" in capsys.readouterr().out
        assert calls == ["pi", "eigvalsh"]

    def test_generation_failure_exit_1(self, tmp_path, capsys):
        # valid, but no 1-regular graph on 20 nodes is connected
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("[topology]\nfamily = regular\ndegree = 1\n")
        assert cli.main(["topo", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no connected simple 1-regular graph")
        assert "Traceback" not in err


class TestConfigEcho:
    def test_echo_covers_schema(self):
        cfg = ExperimentConfig()
        echo = config.config_echo(cfg)
        assert echo["hyper.eta"] == 0.001
        assert echo["topology.family"] == "small_world"
        keys = file_keys(serialize_config(cfg))
        assert set(echo) == set(keys)
        for key in keys:  # the parser takes each key on its own
            assert parse_config_text(f"{key} = {echo[key]}\n") == cfg
