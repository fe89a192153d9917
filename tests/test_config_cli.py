import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from walkmeta import cli, config, metalearn, simulator, tasks, topology
from walkmeta.config import ExperimentConfig, parse_config_text, serialize_config
from walkmeta.errors import ConfigError, GenerationError, ParameterError
from walkmeta.report import render_svg

from test_golden import ROW_TOL, max_movement

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


def file_values(text: str) -> dict[str, object]:
    """The section.key -> parsed value a config text sets."""
    values, section = {}, ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            name, _, value = line.partition(" = ")
            values[f"{section}.{name}"] = config.parse_value(f"{section}.{name}", value)
    return values


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
    ("hyper.eta", "[hyper]\neta = nan\n"),
    ("hyper.eta", "[hyper]\neta = inf\n"),
    ("hyper.lambda", "[hyper]\nlambda = nan\n"),
    ("hyper.lambda", "[hyper]\nlambda = inf\n"),
    ("hyper.alpha", "[hyper]\nalpha = nan\n"),
    ("hyper.alpha", "[hyper]\nalpha = inf\n"),
    ("task.spread", "[task]\nkind = blob\nspread = nan\n"),
    ("task.spread", "[task]\nkind = blob\nspread = inf\n"),
    ("task.spread", "[task]\nkind = blob\nspread = -0.5\n"),
    ("privacy.m_meta", "[privacy]\nenabled = true\nm_meta = nan\n"),
    ("privacy.m_meta", "[privacy]\nm_meta = inf\n"),
]

# the task and topology rows that break one parameter's own bound; the row
# with n = 10 breaks validate's rule that topology.n equals clients.n_training
OWN_BOUND_ROWS = [(k, t) for k, t in OUT_OF_RANGE if k.startswith(("task.", "topology."))
                  and t != "[topology]\nn = 10\n"]


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

    @pytest.mark.parametrize("key,text", OWN_BOUND_ROWS,
                             ids=[f"{k}-{i}" for i, (k, _) in enumerate(OWN_BOUND_ROWS)])
    def test_library_bound_reads_as_config_bound(self, key, text):
        """One declaration per bound: the library entry point raises the
        config's error less its section prefix."""
        with pytest.raises(ConfigError) as from_config:
            parse_config_text(text)
        section, _, name = key.partition(".")
        values = {k.partition(".")[2]: v for k, v in file_values(text).items()
                  if k.startswith(f"{section}.")}
        with pytest.raises(ParameterError) as from_library:
            if section == "task":
                config.TaskConfig(**values)
            elif name in ("scheme", "laziness"):
                topology.build_transition_matrix(topology.gen_ring(3), **values)
            else:
                spec = {**dataclasses.asdict(config.TopologySpec()), **values}
                topology.check_family(spec["family"], spec["n"], spec["k"],
                                      spec["degree"], spec["p_rewire"])
        assert str(from_library.value) == str(from_config.value).removeprefix(f"{section}.")

    def test_unvalidated_unknown_family_raises(self):
        """build_graph dispatches through topology's family table, so even a
        config that was never validated cannot build a family it names
        wrongly."""
        cfg = ExperimentConfig(topology=config.TopologySpec(family="torus"))
        with pytest.raises(ParameterError, match=r"^family: must be one of \("):
            cfg.build_graph()

    def test_bounds_table_holds_only_top_level_fields(self):
        """Section types declare their own bounds; _BOUNDS keeps no copy."""
        top = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for key, _, _ in config._BOUNDS:
            path = config._KEYS[key][0]
            assert len(path) == 1 and path[0] in top, key

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
# while sweep cells could still run in a process pool, with --jobs 1. The
# files were re-pinned with tests/test_golden.py's hashes when layer biases
# moved into the layer products: their values moved by at most 5.0e-16
# relative (the summary's means by 1.3e-15), and stdout kept its bytes; and
# again when alpha moved into the support heads' divisor: at most 6.0e-16
# (tests/repin_golden_rows.py), with stdout and lodmeta seed 0 unchanged
SWEEP_GOLDEN = {
    "exp_method-centralized_maml_seed0.csv":
        "c42ec4d9366515efee5adfbf4fc75390a809e74affa3c3108e1d82074fc4c38d",
    "exp_method-centralized_maml_seed1.csv":
        "715abde857b0daa64b1bbc1f3b9f1ec8dc6dc12cea045e4ee1e68a6096fbb506",
    "exp_method-lodmeta_basic_seed0.csv":
        "b3a6c01e07d21f2d10fed93cce3c6948c9a712f1e3e1a992f37c79a1b5559914",
    "exp_method-lodmeta_basic_seed1.csv":
        "9d09e4b1f1d9f6a140777e8c6b5775ce4f9c9c61dbcdf3824114f53f1ab3b320",
    "exp_method-lodmeta_seed0.csv":
        "515fe655a27cae6f52e1d7281ffedb8d8f605c1ae1ce5d54b9ffb8c3b2cd83af",
    "exp_method-lodmeta_seed1.csv":
        "a70491f0985f7ad52dc0ba50ae2c66cf58fd5c5b9fee4f646e2d38d6b57edea8",
    "exp_method-lodmeta_sgd_seed0.csv":
        "3895ebc138122d2c90076330c097942c24cc7ba27391a4d1ccf2123e2f69b4c1",
    "exp_method-lodmeta_sgd_seed1.csv":
        "cb4d5b638e92012c3f1eaf4a4c5d3e7161dfca7b7f03040d700e3f657f20f4f0",
    "exp_method_summary.csv":
        "f2291a1129256c2d5699d64d58b334d2f9cc3eae86ecb9b8986248b9f9d91a8e",
    "stdout": "bdf64131af318f1eb6f38a895099ec3c9a1684a77856e4599e808f021adac6f4",
}
# every line of each of those outputs, as tests/repin_golden_rows.py last wrote them
SWEEP_ROWS_PATH = Path(__file__).with_name("golden_sweep_rows.json")


def sweep_outputs(tmp_path) -> dict[str, bytes]:
    """The bytes of every file a FAST_CFG sweep over the four methods and 2
    seeds writes into tmp_path, by name, and of its stdout, as "stdout",
    with tmp_path written as OUT."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(FAST_CFG)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["sweep", str(cfg_path), "--axis", "method", "--values",
                       "lodmeta,lodmeta_sgd,lodmeta_basic,centralized_maml",
                       "--seeds", "2", "--jobs", "1", "--outdir", str(tmp_path / "sw")])
    assert (rc, err.getvalue()) == (0, "")
    outputs = {name: (tmp_path / "sw" / name).read_bytes()
               for name in os.listdir(tmp_path / "sw")}
    outputs["stdout"] = out.getvalue().replace(str(tmp_path), "OUT").encode()
    return outputs


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
        hashes = {name: hashlib.sha256(data).hexdigest()
                  for name, data in sweep_outputs(tmp_path).items()}
        assert hashes == SWEEP_GOLDEN

    def test_outputs_within_tolerance(self, tmp_path):
        """Every value of every output within ROW_TOL relative of the stored
        rows, every other field equal: a hash failure that this test passes
        is rounding, and when it is not this test names each output that
        moved further, with how far (inf: a line that is not a number)."""
        stored = json.loads(SWEEP_ROWS_PATH.read_text())
        outputs = sweep_outputs(tmp_path)
        assert sorted(outputs) == sorted(stored)
        moved = {name: max_movement(stored[name], data.decode().splitlines())
                 for name, data in outputs.items()}
        assert {name: m for name, m in moved.items() if m > ROW_TOL} == {}

    def test_failing_cell_counts_as_failed(self, tmp_path, monkeypatch, capsys):
        real_run = simulator.run

        def run(cfg, clients=None):
            if cfg.seed == 1:   # the seed-index-1 cells; FAST_CFG has seed 0
                raise GenerationError("no connected graph")
            return real_run(cfg, clients)
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

    def test_unwritable_later_cell_names_earlier(self, tmp_path, capsys):
        """An OSError on the second cell still leaves the first cell's CSV
        named on stdout, and only that one."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        (tmp_path / "sw" / "exp_method-lodmeta_sgd_seed0.csv").mkdir(parents=True)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,lodmeta_sgd", "--seeds", "1",
                         "--outdir", str(tmp_path / "sw")]) == 1
        first = tmp_path / "sw" / "exp_method-lodmeta_seed0.csv"
        captured = capsys.readouterr()
        assert captured.out == f"wrote {first}\n"
        assert first.is_file() and captured.err.startswith("error: ")

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


def sweep(cfg_path, outdir, axis, values, seeds=2) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["sweep", str(cfg_path), "--axis", axis, "--values", values,
                         "--seeds", str(seeds), "--outdir", str(outdir)])


class TestSweepSharedPreparation:
    """The cells of one client set share its Clients and row 0, and one
    workspace per batch shape serves the whole sweep."""

    @pytest.mark.parametrize("extra, axis, values", [
        ("", "method", "lodmeta,lodmeta_sgd,lodmeta_basic,centralized_maml"),
        ("\n[hyper]\nlambda = 1.0\n", "epsilon", "0.5,0.8"),
        ("", "topology", "ring,complete,star"),
        # lodmeta_sgd aborts; the cells after it reuse its clients and workspace
        ("\n[hyper]\neta = 1e9\n", "method", "lodmeta_sgd,lodmeta,centralized_maml"),
    ], ids=["method", "epsilon", "topology", "abort"])
    def test_cells_equal_fresh_runs(self, tmp_path, extra, axis, values):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG + extra)
        assert sweep(cfg_path, tmp_path / "sw", axis, values) == 0
        cfg = config.parse_config(str(cfg_path))
        aborted = 0
        for value in values.split(","):
            for s in range(2):
                fresh = simulator.run(cli._sweep_cell_config(cfg, axis, value, s))
                got = (tmp_path / "sw" / f"exp_{axis}-{value}_seed{s}.csv").read_text()
                assert got == fresh.to_csv()
                aborted += fresh.aborted
        assert aborted == (2 if "eta" in extra else 0)

    def test_one_workspace_and_one_row_0_per_client_set(self, tmp_path, monkeypatch):
        workspaces, assignments, evaluations = [], [], []
        real_evaluate = simulator.evaluate

        class Workspace(metalearn.Workspace):
            def __init__(self, *args):
                workspaces.append(args)
                super().__init__(*args)

        def assign_clients(*args):
            assignments.append(args)
            return tasks.assign_clients(*args)

        def evaluate(w, clients):
            evaluations.append((clients, w.tobytes()))
            return real_evaluate(w, clients)

        monkeypatch.setattr(metalearn, "Workspace", Workspace)
        monkeypatch.setattr(config, "assign_clients", assign_clients)
        monkeypatch.setattr(simulator, "evaluate", evaluate)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert sweep(cfg_path, tmp_path / "sw", "method",
                     "lodmeta,lodmeta_sgd,lodmeta_basic,centralized_maml") == 0
        assert len(workspaces) == 1
        assert [a[-1] for a in assignments] == [0, 1]   # one per seed
        # rows 0, 10 and 20 of 8 cells: row 0 once per seed, no (clients, w) twice
        assert len(evaluations) == 2 + 8 * 2
        assert len(set(evaluations)) == len(evaluations)
        assert len({clients for clients, _ in evaluations}) == 2

    def test_failed_preparation_fails_only_its_cells(self, tmp_path, monkeypatch, capsys):
        def assign_clients(n_training, n_unseen, task, seed):
            if seed == 1:
                raise ParameterError("no clients for seed 1")
            return tasks.assign_clients(n_training, n_unseen, task, seed)
        monkeypatch.setattr(config, "assign_clients", assign_clients)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)
        assert cli.main(["sweep", str(cfg_path), "--axis", "method",
                         "--values", "lodmeta,lodmeta_sgd", "--seeds", "2",
                         "--outdir", str(tmp_path / "sw")]) == 0
        captured = capsys.readouterr()
        sw = tmp_path / "sw"
        assert captured.out == "".join(
            f"wrote {sw / name}\n" for name in ("exp_method-lodmeta_seed0.csv",
                                                "exp_method-lodmeta_sgd_seed0.csv",
                                                "exp_method_summary.csv"))
        assert captured.err == "".join(
            f"cell {sw / f'exp_method-{m}_seed1.csv'} failed: no clients for seed 1\n"
            for m in ("lodmeta", "lodmeta_sgd"))

    def test_sweep_peak_memory_near_one_cell(self, tmp_path):
        """A two-seed method sweep's traced peak stays within 10% of a
        one-cell sweep's: a second workspace, one per client set in place of
        one per batch shape, about doubles it."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(FAST_CFG)

        def peak(values, seeds, outdir):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert sweep(cfg_path, tmp_path / outdir, "method", values, seeds) == 0
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            peak("lodmeta", 1, "warm")   # what a process builds once
            one = peak("lodmeta", 1, "one")
            two = peak("lodmeta,lodmeta_sgd,lodmeta_basic,centralized_maml", 2, "two")
        finally:
            tracemalloc.stop()
        assert two <= 1.10 * one, (one, two)


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

    @pytest.mark.parametrize("family", ["ring", "star", "complete", "small_world", "regular"])
    def test_one_spectrum_per_case(self, family, tmp_path, monkeypatch, capsys):
        """π comes from one balance check, and σ₂ from its closed form on the
        ring, star and complete graph, else from one eigvalsh."""
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
        closed = family in ("ring", "star", "complete")
        assert calls == (["pi"] if closed else ["pi", "eigvalsh"])

    def test_shared_parser_matches_fresh_processes(self, tmp_path, monkeypatch):
        """main parses with one parser per process; a usage error and a
        library error in between leave later calls as a fresh process
        would run them."""
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text(FAST_CFG)
        b.write_text("[topology]\nfamily = small_world\nscheme = uniform\nn = 12\n"
                     "[clients]\nn_training = 12\n[run]\nseed = 3\n")
        calls = [["topo", str(a)], ["topo"], ["topo", str(tmp_path / "missing.cfg")],
                 ["topo", str(b)]]

        def in_process(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
            return code, out.getvalue(), err.getvalue()

        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage at
        src = os.path.dirname(os.path.dirname(cli.__file__))

        def fresh(argv):
            p = subprocess.run([sys.executable, "-m", "walkmeta.cli", *argv],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": src})
            return p.returncode, p.stdout, p.stderr

        got = [in_process(argv) for argv in calls]
        assert [code for code, _, _ in got] == [0, 2, 1, 0]
        assert got == [fresh(argv) for argv in calls]

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
