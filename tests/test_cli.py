import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from circlekit import cli, errors, frag_diff, verify, verma
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


@pytest.mark.parametrize(
    "args",
    [
        ["--level", "-1"],
        ["--level", "13"],
        ["--c", "1e5"],
        ["--h", "1E-3"],
        ["--c", "1/20000000000000000"],
        ["--h", "123456789012345678"],
        ["--c", "65536"],
        ["--c=-65536/3"],
        ["--h", "1/65536"],
    ],
)
def test_verma_budget_rejections(args):
    r = run("verma", *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_verma_budget_rejects_before_any_work(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the Gram matrix was computed before the budget check")

    monkeypatch.setattr(verma, "gram_matrix", fail)
    for argv in (["--level", "13"], ["--c", "1e99999999"], ["--h", "65536/3"]):
        assert cli.main(["verma", *argv]) == 2


def test_verma_budget_boundary():
    r = run("verma", "--c", "1/2", "--h", "1", "--level", "12")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert len(payload["basis"]) == len(payload["gram"]) == 77
    r = run("verma", "--c=-65535/65533", "--h", "65535", "--level", "1", "--max-level", "100000")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["gram"] == [["131070"]]


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


def test_verify_report_independent_of_blas_threads():
    """The stencil weights and a stage's boundary sums are BLAS products, so
    the report must not depend on how many threads BLAS runs."""
    args = ["verify", "all", "--seed", "11", "--trials", "4", "--json"]
    outs = [run(*args, env={**os.environ, "OPENBLAS_NUM_THREADS": str(k)}) for k in (1, 2)]
    assert outs[0].returncode == 0, outs[0].stderr
    assert outs[0].stdout == outs[1].stdout


# chain-valid, but chi2's plateau would start at a2 - 0.3 * 0.4 = 2.08, before I3 ends at 2.1
LOOP_UNUSABLE_COVER = {
    "I": [[0.3, 2.6], [2.2, 4.7], [4.3, 8.383185307179586]],
    "Ihat": [[0.45, 2.45], [2.35, 4.55], [4.45, 8.3]],
    "margin": 0.3,
}


@pytest.mark.parametrize("command, spec", [("fragment-diff", "fourier:[(1,0,0.005)]"), ("fragment-loop", "exp:[(1,1,0,0.02)]")])
def test_cover_without_loop_cutoffs_rejected(command, spec, tmp_path):
    cfg = tmp_path / "cover.json"
    cfg.write_text(json.dumps(LOOP_UNUSABLE_COVER))
    r = run(command, "--spec", spec, "--config", str(cfg), "--out", str(tmp_path))
    assert r.returncode == 3
    assert "margin 0.3 times the I1 & I2 overlap 0.4" in r.stderr


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
    monkeypatch.setattr(verify, "run_suites", lambda *args, **kwargs: failing)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["fragment-diff", "--spec", "fourier:[(1e400,0,0.001)]"],
        ["fragment-loop", "--spec", "exp:[(1,1e400,0,0)]"],
        ["cocycle", "omega", "su2:[(1,1e400,0,0)]", "su2:[]"],
        ["cocycle", "vect", "fourier:[(1" + "0" * 400 + ",0,1)]", "monomial:1" + "0" * 400],
    ],
)
def test_huge_fourier_terms_exit_2(argv, capsys, tmp_path):
    if argv[0].startswith("fragment"):
        argv = argv + ["--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse")


def _no_command_runs(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a command ran before the budget check")

    for name in ("cmd_fragment_diff", "cmd_fragment_loop", "cmd_cocycle", "cmd_verma", "cmd_verify"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize(
    "argv",
    [
        ["fragment-diff", "--spec", "fourier:[]", "--grid", "131072"],
        ["fragment-loop", "--spec", "exp:[]", "--grid", "65537"],
        ["cocycle", "bott", "fourier:[]", "fourier:[]", "--grid", "131072"],
        ["verify", "--grid", "131072", "--trials", "1"],
        ["verify", "--threads", "0"],
        ["verify", "--threads", "33"],
        ["verify", "--threads", "-4"],
        ["verify", "--trials", "1001"],
        ["verify", "--trials", "16", "--grid", "65536"],
        ["verify", "--trials", "126", "--grid", "8192"],
        ["verma", "--level", "13"],
        # --grid must be a power of two >= 16, as PeriodicFunction requires
        ["cocycle", "vect", "monomial:2", "monomial:1", "--grid", "3"],
        ["cocycle", "vect", "monomial:2", "monomial:1", "--grid", "0"],
        ["fragment-diff", "--spec", "fourier:[]", "--grid", "-8"],
        ["fragment-loop", "--spec", "exp:[]", "--grid", "1000"],
        ["verify", "--grid", "8", "--trials", "1"],
        ["verify", "all", "--trials", "-3", "--json"],
        # a negative seed is refused by the budget for every suite, not by numpy
        ["verify", "--seed", "-1"],
        *(["verify", suite, "--seed", "-1", "--trials", "1"] for suite in cli.VERIFY_SUITES),
    ],
)
def test_budget_rejected_before_any_work(argv, monkeypatch, capsys):
    _no_command_runs(monkeypatch)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --")


FRAGMENT_SPECS = {"fragment-diff": "fourier:[(1,0,0.005)]", "fragment-loop": "exp:[(1,1,0,0.02)]"}


@pytest.mark.parametrize("command", ["fragment-diff", "fragment-loop", "verify"])
@pytest.mark.parametrize("below_a_file", [False, True], ids=["file", "below-file"])
def test_unwritable_out_exits_2(command, below_a_file, capsys, tmp_path):
    # --out names an existing file (FileExistsError) or a path beneath one
    # (NotADirectoryError): an operand error, not a failed check
    target = tmp_path / "taken"
    target.write_text("")
    out = target / "x" if below_a_file else target
    argv = ["verify", "verma", "--trials", "1"] if command == "verify" else [command, "--spec", FRAGMENT_SPECS[command]]
    assert cli.main([*argv, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ")
    assert target.read_text() == ""


def test_unreadable_config_still_exits_3(capsys, tmp_path):
    argv = ["fragment-diff", "--spec", "fourier:[]", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error: cannot read cover configuration")


def test_verify_budget_boundary_admitted(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "run_suites", lambda *args, **kwargs: calls.append((args, kwargs)) or RunReport("verify"))
    for argv in (["--trials", "1000", "--threads", "32"], ["--trials", "125", "--grid", "8192", "--threads", "1"]):
        assert cli.main(["verify", *argv]) == 0
    assert [c[1]["threads"] for c in calls] == [32, 1]


def test_verify_threads_do_not_bound_the_grid(monkeypatch):
    # trials run one at a time, so --threads buys nothing and is not budgeted
    calls = []
    monkeypatch.setattr(verify, "run_suites", lambda *args, **kwargs: calls.append((args, kwargs)) or RunReport("verify"))
    for threads, trials in (("2", "15"), ("32", "2"), ("15", "15"), ("3", "3")):
        assert cli.main(["verify", "--threads", threads, "--trials", trials, "--grid", "65536"]) == 0
    assert [(c[1]["threads"], c[1]["n"]) for c in calls] == [(2, 65536), (32, 65536), (15, 65536), (3, 65536)]


@pytest.mark.parametrize(
    "argv",
    [
        ["cocycle", "bott", "fourier:[(1,1e308,1e308)]", "fourier:[]"],
        ["cocycle", "vect", "fourier:[(1,1e308,1e308)]", "fourier:[(2,1,0)]"],
        ["cocycle", "omega", "su2:[(1,1,1e308,1e308)]", "su2:[(1,1,1e308,1e308)]"],
        # samples that overflow on the grid itself
        ["cocycle", "omega", "su2:[(1,1,1e308,0),(1,2,1e308,0)]", "su2:[]"],
        ["cocycle", "vect", "monomial:1" + "0" * 308, "monomial:1"],
        ["fragment-loop", "--spec", "exp:[(1,1,1e308,0),(1,2,1e308,0)]"],
        # finite su(2) components whose exponential overflows
        ["fragment-loop", "--spec", "exp:[(1,1,0,1e300)]"],
        ["fragment-diff", "--spec", "fourier:[(1,1e308,0),(2,1e308,0)]"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_operands_exit_2(argv, capsys, tmp_path):
    # overflow is reported by the operand checks alone, never as a numpy warning
    if argv[0].startswith("fragment"):
        argv = argv + ["--out", str(tmp_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fragment-loop", "--spec", "exp:[(1,1,0,1e300)]"], "'exp:[(1,1,0,1e300)]': samples are not finite"),
        (
            ["fragment-loop", "--spec", "exp:[(1,1,1e308,0),(1,2,1e308,0)]"],
            "'exp:[(1,1,1e308,0),(1,2,1e308,0)]': samples are not finite",
        ),
        (
            ["cocycle", "bott", "fourier:[(1,1e308,1e308)]", "fourier:[]"],
            "gamma' is not finite at every grid point: the derivative overflows",
        ),
        (
            ["cocycle", "omega", "su2:[(1,1,1e200,0)]", "su2:[(1,1,0,1e200)]"],
            "omega cocycle of 'su2:[(1,1,1e200,0)]', 'su2:[(1,1,0,1e200)]' overflows to (nan+nanj)",
        ),
    ],
    ids=["exp-overflows", "exp-samples-overflow", "bott-transform-overflows", "omega-sum-overflows"],
)
def test_overflowing_operands_print_no_warning(argv, message, tmp_path):
    """The installed command's stderr is the one error line: numpy prints no
    RuntimeWarning (and no library source line) before it."""
    if argv[0].startswith("fragment"):
        argv = argv + ["--out", str(tmp_path)]
    r = run(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
    assert "Warning" not in r.stderr


@pytest.mark.parametrize(
    "spec, message",
    [
        # finite samples whose derivative's transform overflows to NaN
        ("fourier:[(3,1e307,0)]", "error: gamma' is not finite at every grid point: the derivative overflows\n"),
        # a finite derivative that changes sign is still named as such
        ("fourier:[(1,2,0)]", "error: gamma' must be positive at every grid point\n"),
    ],
    ids=["overflow-k3", "not-monotone"],
)
def test_diffeo_operand_names_an_overflowing_derivative(spec, message, capsys):
    assert cli.main(["cocycle", "bott", spec, "fourier:[]"]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv",
    [
        # mode numbers and axes are int literals, amplitudes int or float
        # literals: a float, a bool or a string is refused, never truncated
        ["cocycle", "bott", "fourier:[(1.5,0,0.004)]", "fourier:[(2,0.003,0)]"],
        ["cocycle", "bott", "fourier:[(True,0,0.004)]", "fourier:[(2,0.003,0)]"],
        ["cocycle", "bott", "fourier:[(1,'0.003',0)]", "fourier:[]"],
        ["cocycle", "bott", "fourier:[(1,False,0.004)]", "fourier:[]"],
        ["cocycle", "vect", "fourier:[(2.0,1,0)]", "monomial:2"],
        ["cocycle", "vect", "monomial:2.7", "monomial:1"],
        ["cocycle", "vect", "monomial:True", "monomial:1"],
        ["cocycle", "omega", "su2:[(1.9,1,1,0)]", "su2:[(1,1,0,1)]"],
        ["cocycle", "omega", "su2:[(True,1,1,0)]", "su2:[(1,1,0,1)]"],
        ["cocycle", "omega", "su2:[(1,1.0,1,0)]", "su2:[(1,1,0,1)]"],
        ["fragment-diff", "--spec", "fourier:[(1.0,0,0.005)]"],
        ["fragment-loop", "--spec", "exp:[(1,1,0,'0.02')]"],
    ],
)
def test_non_integer_mode_numbers_and_axes_exit_2(argv, capsys, tmp_path):
    if argv[0].startswith("fragment"):
        argv = argv + ["--out", str(tmp_path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot parse")


def test_int_amplitudes_read_as_floats(capsys):
    assert cli.main(["cocycle", "vect", "fourier:[(2,1,0)]", "fourier:[(2,0,1)]"]) == 0
    assert cli.main(["cocycle", "vect", "fourier:[(2,1.0,0.0)]", "fourier:[(2,0.0,1.0)]"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


@pytest.mark.parametrize("k, code", [(511, 0), (512, 4), (513, 4)])
@pytest.mark.parametrize(
    "operands",
    [
        lambda k: [f"monomial:{k}", f"monomial:{-k}"],
        lambda k: [f"fourier:[({k},1,0)]", f"fourier:[({k},0,1)]"],
    ],
    ids=["monomial", "fourier"],
)
def test_wavenumber_at_half_the_grid_exits_4(k, code, operands, capsys):
    assert cli.main(["cocycle", "vect", *operands(k)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err == f"error: wavenumber {k} aliases on the 1024-point grid (|k| must be below 512)\n"


def test_fragment_loop_error_names_the_typed_operand(capsys, tmp_path):
    spec = "exp:[(1,1e400,0,0)]"
    assert cli.main(["fragment-loop", "--spec", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {spec!r}") and "su2" not in err
    assert cli.main(["fragment-loop", "--spec", "su2:[]", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: expected 'exp:[...]', got 'su2:[]'\n"


def test_verma_zero_denominator(capsys):
    assert cli.main(["verma", "--c", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_verify_suite_choices_are_verify_suites():
    assert cli.VERIFY_SUITES == tuple(verify.SUITES)


# SHA-256 of each --help text at 80 columns, taken under Python 3.11.7,
# whose argparse lays them out; loading modules per command must not move a byte
HELP_DIGESTS = {
    "": "e1aa51ac27ca54bae41c143da27c5fa61f7dc35e0742f969c595ef02e94a968f",
    "fragment-diff": "2d77eace19a88c12337b7899e0b9e47f05b8a813ab97c801a7615bbe5aa5e770",
    "fragment-loop": "9b249417a63331abdc43f3a0b034a23c8835cd87f09bc00a09b9210bc1836672",
    "cocycle": "f3c5c328329fe00c4ac5d3fdd42e1a5a15dd3338402a0f383a2a7a835e78d447",
    "verma": "05ecb9c7fbb731f2c06a4ce770f134076c2530b3d0a25548101ec3eb4f8558af",
    "verify": "56847a5311f7b68c37369675affb10d67f92040b4d5dd39f7fff40575973da4a",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_digests(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


# runs cli.main on its arguments, then prints the exit code and the numpy and
# circlekit modules loaded, on one line of stderr
IMPORT_PROBE = textwrap.dedent(
    """
    import sys
    from circlekit import cli
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("circlekit"))
    print(code, *loaded, file=sys.stderr)
    """
)
BASE = {"circlekit", "circlekit.cli", "circlekit.errors"}
NUMERIC = BASE | {"numpy", "circlekit.diffeo", "circlekit.periodic"}
EVERY_MODULE = NUMERIC | {f"circlekit.{m}" for m in ("cocycles", "frag_diff", "loops", "report", "sampling", "verify", "verma")}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--help"], BASE),
        (["verma", "--c", "1/2", "--h", "1/16", "--level", "2"], BASE | {"circlekit.verma"}),
        (["cocycle", "bott", "fourier:[(1,0,0.004)]", "fourier:[(2,0.003,0)]"], NUMERIC | {"circlekit.cocycles"}),
        (["cocycle", "vect", "monomial:2", "monomial:-2"], NUMERIC | {"circlekit.cocycles"}),
        (["cocycle", "omega", "su2:[(1,1,1,0)]", "su2:[(1,1,0,1)]"], NUMERIC | {"circlekit.loops"}),
        (["fragment-diff", "--spec", "fourier:[(1,0,0.005)]", "--json"], NUMERIC | {"circlekit.frag_diff", "circlekit.report"}),
        (["fragment-loop", "--spec", "exp:[(1,1,0,0.02)]"], NUMERIC | {"circlekit.loops", "circlekit.report"}),
        (["verify", "all", "--seed", "42", "--trials", "1", "--json"], EVERY_MODULE),
    ],
    ids=["help", "verma", "cocycle-bott", "cocycle-vect", "cocycle-omega", "fragment-diff", "fragment-loop", "verify"],
)
def test_each_command_imports_only_what_it_runs(argv, modules, tmp_path):
    """The README's commands (verify with one trial) and --help, each in a
    fresh interpreter: --help and verma load no numpy, and no command loads
    a module it does not run."""
    if argv[0].startswith("fragment"):
        argv = argv + ["--out", str(tmp_path)]
    r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True, text=True, timeout=600)
    code, *loaded = r.stderr.splitlines()[-1].split()
    assert code == "0", r.stderr
    assert set(loaded) == modules
