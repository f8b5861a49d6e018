"""CLI JSON output at a fixed seed, byte for byte.

The first three files under ``data/golden`` were written by the scalar
IRLS loop before fitting was grouped by support; the two downhill files
were written by the one-table-at-a-time greedy search before the
searches of all replicates ran in lockstep; the chisq bootstrap and the
best-BIC ``fit`` files were written before the fits of different
(model, support) groups were stacked by design shape.  Any change to what a
command prints at a fixed seed, down to the last digit of a float,
fails here.
The least-squares stacks are split across the CPUs the process may use,
and the output must not depend on how many there are: the last test
runs one case in a child process pinned to one CPU.
The bytes depend on the numpy and BLAS build as well as on the code; a
file is rewritten with ``PYTHONPATH=src python -m mseboot.cli ARGS >
tests/data/golden/NAME`` only from a commit whose output is known good.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mseboot
from mseboot import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "korea_sweep_reps200_seed53.json": [
        "bootstrap", "--data", "fixture:korea", "--sweep", "--reps", "200", "--seed", "53",
    ],
    "table1_n1_ntop10_reps50_seed1.json": [
        "bootstrap", "--data", "fixture:table1_n1", "--ntop", "10", "--reps", "50", "--seed", "1",
    ],
    "korea_diagnose_reps200_seed42.json": [
        "diagnose", "--data", "fixture:korea", "--reps", "200", "--seed", "42",
    ],
    "korea_downhill_reps200_seed42_starts2.json": [
        "bootstrap", "--data", "fixture:korea", "--method", "downhill",
        "--reps", "200", "--seed", "42", "--starts", "2",
    ],
    "table1_n2_downhill_reps50_seed2.json": [
        "bootstrap", "--data", "fixture:table1_n2", "--method", "downhill",
        "--reps", "50", "--seed", "2",
    ],
    "korea_chisq_reps100_seed7.json": [
        "bootstrap", "--data", "fixture:korea", "--method", "chisq",
        "--reps", "100", "--seed", "7",
    ],
    "table1_n4_fit_best.json": [
        "fit", "--data", "fixture:table1_n4", "--model", "best",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(CASES[name]) == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_cpu_output_is_byte_identical():
    # the affinity mask limits the CPUs of the child alone, so its stacks
    # are solved unsplit
    name = "korea_sweep_reps200_seed53.json"
    env = {**os.environ, "PYTHONPATH": str(Path(mseboot.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "mseboot.cli", *CASES[name]],
        capture_output=True, check=True, env=env, timeout=120,
        preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}),
    )
    assert out.stdout == (GOLDEN / name).read_bytes()
