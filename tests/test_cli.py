import json
import subprocess
import sys

import pytest

from circlekit import cli, errors, frag_diff
from circlekit.verify import CheckResult, RunReport

CMD = [sys.executable, "-m", "circlekit"]


def run(*args, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=600, **kwargs
    )


def test_fragment_diff_identity(tmp_path):
    r = run("fragment-diff", "--spec", "fourier:[]", "--out", str(tmp_path), "--json")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "reconstruction_error" in names
    for f in ("gamma.csv", "xi1.csv", "xi2.csv", "xi3.csv"):
        assert (tmp_path / f).exists()


def test_fragment_diff_small_perturbation(tmp_path):
    r = run("fragment-diff", "--spec", "fourier:[(1,0,0.005)]", "--out", str(tmp_path), "--json")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    rec = next(c for c in report["checks"] if c["name"] == "reconstruction_error")
    assert rec["residual"] < 1e-7
    # human-readable variant reports the blending coefficients
    r2 = run("fragment-diff", "--spec", "fourier:[(1,0,0.005)]", "--out", str(tmp_path))
    assert r2.returncode == 0
    assert "alpha1" in r2.stdout and "support xi1" in r2.stdout


def test_fragment_diff_outside_neighbourhood(tmp_path):
    r = run("fragment-diff", "--spec", "fourier:[(1,0,0.3)]", "--out", str(tmp_path))
    assert r.returncode == 2


def test_fragment_diff_malformed_config(tmp_path):
    cfg = tmp_path / "cover.json"
    cfg.write_text("{not json")
    r = run("fragment-diff", "--spec", "fourier:[]", "--config", str(cfg), "--out", str(tmp_path))
    assert r.returncode == 3


def test_fragment_diff_aliasing(tmp_path):
    r = run(
        "fragment-diff", "--spec", "fourier:[(1,0,0.005)]", "--grid", "16",
        "--out", str(tmp_path),
    )
    assert r.returncode == 4


def test_fragment_diff_bad_spec(tmp_path):
    r = run("fragment-diff", "--spec", "nonsense", "--out", str(tmp_path))
    assert r.returncode == 2


def test_fragment_loop(tmp_path):
    r = run("fragment-loop", "--spec", "exp:[(1,1,0,0.02)]", "--out", str(tmp_path), "--json")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["pass"] is True
    assert (tmp_path / "xi3.csv").exists()


def test_cocycle_bott_rotations():
    r = run("cocycle", "bott", "fourier:[]", "fourier:[]")
    assert r.returncode == 0
    assert abs(float(r.stdout)) < 1e-15


def test_cocycle_vect_monomials():
    r = run("cocycle", "vect", "monomial:2", "monomial:-2")
    assert r.returncode == 0
    assert float(r.stdout) == pytest.approx(-6.0, abs=1e-9)


def test_cocycle_omega():
    r = run("cocycle", "omega", "su2:[(1,1,1,0)]", "su2:[(1,1,0,1)]")
    assert r.returncode == 0
    # cos(t) X and sin(t) X pair to tr(X^2)/2 = -1
    assert float(r.stdout) == pytest.approx(-1.0, abs=1e-10)


def test_cocycle_parse_failure():
    r = run("cocycle", "vect", "garbage", "monomial:1")
    assert r.returncode == 2


def test_verma_gram_json():
    r = run("verma", "--c", "1/2", "--h", "1/16", "--level", "2")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["gram"] == [["1/2", "3/8"], ["3/8", "9/32"]]
    assert payload["determinant"] == "0"
    assert payload["basis"] == [[2], [1, 1]]


def test_verify_verma_exact():
    r = run("verify", "verma", "--trials", "1")
    assert r.returncode == 0, r.stdout + r.stderr


def test_verify_zero_trials():
    r = run("verify", "all", "--trials", "0", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["checks"] == [] and report["pass"] is True


def test_verify_deterministic_reports(tmp_path):
    args = ["verify", "cocycle", "--seed", "7", "--trials", "5", "--json"]
    first = run(*args)
    second = run(*args)
    threaded = run(*args, "--threads", "3")
    assert first.returncode == 0
    assert first.stdout == second.stdout == threaded.stdout


def test_fragment_diff_non_monotone(tmp_path):
    r = run("fragment-diff", "--spec", "fourier:[(1,0,2.0)]", "--out", str(tmp_path))
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_cocycle_bott_non_monotone():
    r = run("cocycle", "bott", "fourier:[(1,0,2.0)]", "fourier:[(2,0.003,0)]")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_fragment_loop_branch_cut(tmp_path):
    r = run("fragment-loop", "--spec", "exp:[(1,0,3.141592653589793,0)]", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_failed_check_exits_1(monkeypatch, capsys):
    failing = RunReport(command="verify", checks=[CheckResult("residual", 1.0, 0.5)])
    monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: failing)
    assert cli.main(["verify", "diff", "--trials", "1"]) == 1


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.DerivativeError, 2),
        (errors.BranchError, 2),
        (errors.TruncationError, 2),
        (errors.MassError, 3),
        (errors.ConvergenceError, 5),
    ],
)
def test_library_error_exit_codes(error, code, monkeypatch, capsys, tmp_path):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(frag_diff, "fragment", fail)
    argv = ["fragment-diff", "--spec", "fourier:[]", "--out", str(tmp_path)]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == "error: injected\n"


def test_every_library_error_has_an_exit_code():
    for error in errors.CirclekitError.__subclasses__():
        assert cli.exit_code(error("x")) in (2, 3, 4, 5)
