"""Byte-level guard on `walkmeta topo` output.

The SHA-256 of the standard output of each case below was recorded before
the kernel kept its stationary distribution and spectrum and before the
graph checks worked a whole frontier at a time. Any change to a generator's
draws, to the kernel's arithmetic, to σ₂ or π, or to how they are printed
shows up here as a different hash.

The n=300 cases are the four families and two schemes that `perfbench`'s
`topo_n300` workload runs, at two seeds. The n=20 cases cover every family
without laziness, so the periodic ring and star print their
`stationary: ...` error line instead of π.

The ring, star and complete cases take σ₂ from its closed form, so their
bytes hold under any OpenBLAS core and thread count, which
`test_closed_form_outputs_hold_across_blas` checks in fresh processes. The
small-world and regular cases take it from `eigvalsh`, whose result depends
on both: under OPENBLAS_NUM_THREADS=1 their n=300 hashes fail (see ROADMAP
item 2). `test_topo_outputs_within_tolerance` then says how far the printed
numbers moved: tests/golden_topo_rows.json holds every line of each output,
as tests/repin_golden_rows.py last wrote them.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from walkmeta import cli

from test_golden import ROW_TOL, max_movement

CONFIG = """\
[topology]
family = {family}
scheme = {scheme}
n = {n}
laziness = {laziness}
[clients]
n_training = {n}
[run]
seed = {seed}
"""

SCHEMES = ("metropolis", "uniform")
CASES = {f"n300-{family}-{scheme}-seed{seed}": (family, scheme, 300, 0.1, seed)
         for family in ("ring", "small_world", "regular", "star")
         for scheme in SCHEMES for seed in (0, 1)}
CASES.update({f"n20-{family}-{scheme}": (family, scheme, 20, 0.0, 2)
              for family in ("ring", "star", "complete", "small_world", "regular")
              for scheme in SCHEMES})

GOLDEN = {
    "n20-complete-metropolis":
        "cca3e7f943a246884e779425cfaaffc3cdda70afc43c7bb432754339a0ecd4cf",
    "n20-complete-uniform":
        "cca3e7f943a246884e779425cfaaffc3cdda70afc43c7bb432754339a0ecd4cf",
    "n20-regular-metropolis":
        "a3036cd529925191a440696f3238307a7af6025cb8ca008e7fdc68bab7412bd5",
    "n20-regular-uniform":
        "a3036cd529925191a440696f3238307a7af6025cb8ca008e7fdc68bab7412bd5",
    "n20-ring-metropolis":
        "938574f9ad016f35b64649705af6a4712c694e5b5dd0f3e7d984153a9153d1eb",
    "n20-ring-uniform":
        "938574f9ad016f35b64649705af6a4712c694e5b5dd0f3e7d984153a9153d1eb",
    "n20-small_world-metropolis":
        "9ebe185349acf4568b1ee9dc5bcfb69cc9690236d2c5a8477d9b30183437f8e4",
    "n20-small_world-uniform":
        "129b122ef88e155686d6d420da99341836fc3de7cd8159f8c5d730e7e62a552c",
    "n20-star-metropolis":
        "d19cc0a5c8428efc5332604e035c31be7ef8995326a08400fa4b645481ed53ad",
    "n20-star-uniform":
        "367b409df60c5899ea9c974ff12b3d1c27fd8a0460f2882e26a80cdbf7130e6c",
    "n300-regular-metropolis-seed0":
        "069f2a6615cb4d13c3215c68929ad7543cced1560202c06b9ec5f8f0412e8a03",
    "n300-regular-metropolis-seed1":
        "e2a908280419e1e7295750654bea261d51390f719319c1b4508be655978e4fb7",
    "n300-regular-uniform-seed0":
        "069f2a6615cb4d13c3215c68929ad7543cced1560202c06b9ec5f8f0412e8a03",
    "n300-regular-uniform-seed1":
        "e2a908280419e1e7295750654bea261d51390f719319c1b4508be655978e4fb7",
    "n300-ring-metropolis-seed0":
        "f420a1c217656f6c9e21f07889437d0a6d9ad9dcf5339d925027c308d96be2b8",
    "n300-ring-metropolis-seed1":
        "f420a1c217656f6c9e21f07889437d0a6d9ad9dcf5339d925027c308d96be2b8",
    "n300-ring-uniform-seed0":
        "f420a1c217656f6c9e21f07889437d0a6d9ad9dcf5339d925027c308d96be2b8",
    "n300-ring-uniform-seed1":
        "f420a1c217656f6c9e21f07889437d0a6d9ad9dcf5339d925027c308d96be2b8",
    "n300-small_world-metropolis-seed0":
        "bf922deb7f89143c75c561353b88fd80593aec3c70a6f4acc4da493224ea6c1b",
    "n300-small_world-metropolis-seed1":
        "5b60cbcdced44a1b059828035bf4945524847cb46feb0799d8a648b63e4e1320",
    "n300-small_world-uniform-seed0":
        "ea70e15a6de527d5bfd8978517209ab945b8794c4088155a0de045b8c344417d",
    "n300-small_world-uniform-seed1":
        "09fce941191bd917d26344a16f9eff637a44adee666e98619c7d1a81dbc4b97c",
    "n300-star-metropolis-seed0":
        "5629308e04d33e2bdea7c1bcbb32d64a7890a6bf39b0d2a198b9cfe442a22790",
    "n300-star-metropolis-seed1":
        "5629308e04d33e2bdea7c1bcbb32d64a7890a6bf39b0d2a198b9cfe442a22790",
    "n300-star-uniform-seed0":
        "17f0d4ffdb9e66c1ecfd60b344d1a05c481765e5d80f8f4ba346f10dc326bbcb",
    "n300-star-uniform-seed1":
        "17f0d4ffdb9e66c1ecfd60b344d1a05c481765e5d80f8f4ba346f10dc326bbcb",
}


ROWS_PATH = Path(__file__).with_name("golden_topo_rows.json")


@functools.cache   # both tests below read each output; it is computed once
def topo_stdout(name: str) -> str:
    """The standard output of `walkmeta topo` on case `name`."""
    family, scheme, n, laziness, seed = CASES[name]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "topo.cfg"
        path.write_text(CONFIG.format(family=family, scheme=scheme, n=n,
                                      laziness=laziness, seed=seed))
        assert cli.main(["topo", str(path)]) == 0
    return out.getvalue()


def movement(old: list[str], new: list[str]) -> float:
    """test_golden.max_movement with each space and "=" of a line read as a
    comma, so that σ₂, each entry of π and each count is a field of its own."""
    def fields(lines):
        return [re.sub("[ =]", ",", line) for line in lines]
    return max_movement(fields(old), fields(new))


@pytest.mark.parametrize("name", sorted(CASES))
def test_topo_stdout_pinned(name):
    assert hashlib.sha256(topo_stdout(name).encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_topo_outputs_within_tolerance(name):
    """Every number of the case's output within ROW_TOL relative of the
    stored rows, every other field equal: a hash failure that this test
    passes is rounding, and this test names how far a number moved when it
    is not. π is printed to 6 significant digits, so a rounding-level
    change moves it by 0 or, where it flips a printed digit, by about 1e-6."""
    stored = json.loads(ROWS_PATH.read_text())[name]
    assert movement(stored, topo_stdout(name).splitlines()) <= ROW_TOL


# the cases whose σ₂ has a closed form
CLOSED_FORM = sorted(name for name, case in CASES.items()
                     if case[0] in ("ring", "star", "complete"))


def test_closed_form_outputs_hold_across_blas():
    """Under one OpenBLAS thread and under the Haswell core, each in a fresh
    process, every ring, star and complete case prints its pinned bytes."""
    here = Path(__file__).parent
    code = ("import hashlib, sys, test_topo_golden as t; print(*(hashlib.sha256("
            "t.topo_stdout(name).encode()).hexdigest() for name in sys.argv[1:]))")
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    environments = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_CORETYPE": "Haswell"}]
    runs = [subprocess.Popen([sys.executable, "-c", code, *CLOSED_FORM], text=True,
                             stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": path, **env})
            for env in environments]
    for env, run in zip(environments, runs):
        out = run.communicate(timeout=120)[0]
        assert run.returncode == 0, env
        assert dict(zip(CLOSED_FORM, out.split())) == {n: GOLDEN[n] for n in CLOSED_FORM}, env
