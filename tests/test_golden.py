"""SHA-256 digests pinned so any drift fails cheaply: the stdout of one `verma`
CLI call, the Gram matrices at levels 0..10 of each `VERMA_PARAMETERS` module,
and one `verify all` report."""

import hashlib
import subprocess
import sys

import pytest

from circlekit.verify import VERMA_PARAMETERS, run_suites
from circlekit.verma import VermaModule

VERMA_STDOUT = "4c00c20052189b7c0b5127a570704edf5068cd78c5c632ec15449865bc5d7387"

# one line per Gram matrix row, entries as str(Fraction) joined by spaces
GRAM_DIGESTS = {
    "1/2 0": "99ec664a5e6f76ef30c4d461e69f3b29e401ba4e5cdf8dc596321f5b45ed3524",
    "1/2 1/16": "821941b8f93ca4cbbaa96cc134defb6586f71065270735eceb160456f323501e",
    "1 1": "be2457533b8b27612670281dc79ad1c472af88af049e928af3778f0aba037bbe",
    "26 3/2": "9e0a55e17da8052582e7f1b1cdf06b21c26c156211df0f468abf5f950a192d65",
}

VERIFY_ALL_REPORT = "710c664da04d78f9031f77eeab3bed3a9ab26cf0484c01592fb1fad61ce25f6f"


def test_verma_cli_stdout_digest():
    argv = [sys.executable, "-m", "circlekit", "verma", "--c", "7/10", "--h", "3/8", "--level", "8"]
    proc = subprocess.run(argv, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERMA_STDOUT


@pytest.mark.parametrize("c, h", VERMA_PARAMETERS, ids=lambda x: str(x))
def test_gram_digests(c, h):
    module = VermaModule(c, h, max_level=10)
    digest = hashlib.sha256()
    for level in range(11):
        for row in module.gram_matrix(level):
            digest.update((" ".join(map(str, row)) + "\n").encode())
    assert digest.hexdigest() == GRAM_DIGESTS[f"{c} {h}"]


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_all_report_digest(threads):
    """The JSON of run_suites("all", 11, 4, 1024, threads), in process.  Taken
    under numpy 2.4.6 (Python 3.11.7, x86-64): residuals are printed to their
    last bit, so another numpy build or machine may read other bytes."""
    report = run_suites("all", 11, 4, 1024, threads)
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == VERIFY_ALL_REPORT
