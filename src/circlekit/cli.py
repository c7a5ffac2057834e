"""Command-line surface: fragmentation runs, cocycle evaluation, verification.

Exit codes:

0  success
1  a verification check failed
2  bad operands: unparsable, with samples or a cocycle value that overflow
   to inf or NaN, outside the admissible neighbourhood, not
   orientation preserving (DerivativeError), outside the principal branch of
   the loop logarithm (BranchError) or above a module's truncation
   (TruncationError); or an --out path that cannot be written (OSError)
3  bad geometry or malformed configuration, including cutoffs that cannot
   carry their prescribed mass (MassError)
4  spectral aliasing (AliasingError), including an operand wavenumber at or
   above --grid/2; raise --grid
5  a Newton inversion did not converge (ConvergenceError)

Budget, checked before any import or work (exit 2 otherwise):

- --grid a power of two, 16..65536, on every command (fragment-diff at 65536:
  0.9-1.3 s, 74 MB);
- verify: --seed and --trials at least 0, --threads 1..32 and --trials x
  --grid at most 1000 x 1024.  Trials run one at a time: --threads is
  accepted so that existing command lines keep their meaning, and changes
  nothing.  Worst admitted `verify all` (Python 3.11, Intel Xeon): 21 s,
  42 MB at --trials 1000; 12-17 s, 159 MB at --trials 15 --grid 65536, at
  --threads 1 and 15 alike;
- verma: --level 0..12, --c/--h fractions of at most 16 characters, no
  exponent, numerator and denominator below 2^16 in absolute value (level
  12 with 16-bit operands: 1.6-3.5 s, 39 MB, most of it the determinant);
  --max-level costs nothing.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    AliasingError,
    BranchError,
    CirclekitError,
    ConvergenceError,
    DerivativeError,
    GeometryError,
    MassError,
    NeighbourhoodError,
    TruncationError,
)

if TYPE_CHECKING:  # each command imports what it runs, so --help and verma load no numpy
    import numpy as np

    from . import loops
    from .diffeo import CircleDiffeo, CoverConfig
    from .periodic import PeriodicFunction
    from .report import RunReport

EXIT_FAIL = 1
EXIT_OPERAND = 2
EXIT_GEOMETRY = 3
EXIT_ALIASING = 4
EXIT_CONVERGENCE = 5

MAX_GRID = 65536
MAX_THREADS = 32
VERIFY_MAX_POINTS = 1000 * 1024  # --trials x --grid
VERMA_MAX_LEVEL = 12
VERMA_MAX_CHARS = 16
VERMA_MAX_BITS = 16
MIN_GRID = 16
# verify.SUITES' names in report order, kept here so --help need not import
# the suites (pinned by a test)
VERIFY_SUITES = ("diff", "loop", "cocycle", "verma")


class OperandError(ValueError):
    pass


# exit code of every error a command can raise (all CirclekitError subclasses)
_EXIT_CODES = (
    ((ValueError, OSError, NeighbourhoodError, DerivativeError, BranchError, TruncationError), EXIT_OPERAND),
    ((GeometryError, MassError), EXIT_GEOMETRY),
    ((AliasingError,), EXIT_ALIASING),
    ((ConvergenceError,), EXIT_CONVERGENCE),
)


def exit_code(exc: Exception) -> int:
    """Documented exit code for an error raised by a command."""
    return next(code for errors, code in _EXIT_CODES if isinstance(exc, errors))


# ---------------------------------------------------------------------------
# operand parsing
# ---------------------------------------------------------------------------


def _wavenumber(value) -> int:
    """Integer mode number k; k * 2 pi must be a finite float, since samples take k * t."""
    k = int(value)
    if not math.isfinite(2.0 * math.pi * float(k)):  # float(k) raises OverflowError first
        raise OverflowError(f"wavenumber {k} times 2 pi overflows")
    return k


def parse_fourier_terms(text: str, prefix: str, types=(_wavenumber, float, float)) -> list[tuple]:
    """Term tuples from "prefix:[(...),...]", each entry converted by types in turn."""
    if not text.startswith(prefix + ":"):
        raise OperandError(f"expected '{prefix}:[...]', got {text!r}")
    try:
        terms = ast.literal_eval(text[len(prefix) + 1 :])
        return [tuple(conv(x) for conv, x in zip(types, term, strict=True)) for term in terms]
    except (ValueError, SyntaxError, TypeError, OverflowError) as exc:
        raise OperandError(f"cannot parse {text!r}: {exc}") from exc


def _finite(samples: np.ndarray, text: str) -> np.ndarray:
    """The operand's samples, which overflow must not have made inf or NaN."""
    import numpy as np

    if not np.all(np.isfinite(samples)):
        raise OperandError(f"{text!r}: samples are not finite")
    return samples


def _operand_samples(text: str, n: int) -> np.ndarray:
    """Finite samples of "fourier:[(k,a,b),...]" on the n-point grid."""
    from .periodic import _fourier_samples

    return _finite(_fourier_samples(parse_fourier_terms(text, "fourier"), n), text)


def parse_diffeo(text: str, n: int) -> CircleDiffeo:
    """gamma(t) = t + sum a_k cos(k t) + b_k sin(k t), from "fourier:[(k,a,b),...]"."""
    from .diffeo import CircleDiffeo
    from .periodic import PeriodicFunction

    return CircleDiffeo(PeriodicFunction(_operand_samples(text, n)))


def parse_field(text: str, n: int) -> PeriodicFunction:
    """Vector field operand: "fourier:[(k,a,b),...]" or "monomial:k" for e^{ikt}."""
    import numpy as np

    from .periodic import PeriodicFunction, _require_resolved, grid

    if text.startswith("monomial:"):
        try:
            k = _wavenumber(text.split(":", 1)[1])
        except (ValueError, OverflowError) as exc:
            raise OperandError(f"cannot parse {text!r}") from exc
        _require_resolved(k, n)
        return PeriodicFunction(_finite(np.exp(1j * k * grid(n)), text))
    return PeriodicFunction(_operand_samples(text, n))


def parse_loop_algebra(text: str, n: int, prefix: str = "su2") -> loops.LoopAlgebraElement:
    """su(2) operand "su2:[(axis,k,a,b),...]": component on i*sigma_axis.  Errors
    quote the text as given, also under the "exp" prefix of parse_loop."""
    from . import loops
    from .periodic import _fourier_samples

    terms = parse_fourier_terms(text, prefix, (int, _wavenumber, float, float))
    if any(term[0] not in (1, 2, 3) for term in terms):
        raise OperandError("axis must be 1, 2 or 3")
    components = [_fourier_samples([term[1:] for term in terms if term[0] == axis], n) for axis in (1, 2, 3)]
    return loops.LoopAlgebraElement.from_components(*(_finite(x, text) for x in components))


def parse_loop(text: str, n: int) -> loops.LoopElement:
    """Loop operand "exp:[(axis,k,a,b),...]": pointwise exponential of an su(2) field."""
    from . import loops

    loop = loops.exp_loop(parse_loop_algebra(text, n, prefix="exp"))
    _finite(loop.samples, text)
    return loop


def parse_verma_operand(text: str, flag: str) -> Fraction:
    """A --c/--h fraction within the verma budget; the text is checked before
    Fraction parses it, since an exponent alone can build a huge integer."""
    if len(text) > VERMA_MAX_CHARS or "e" in text.lower():
        raise OperandError(f"{flag} {text!r}: at most {VERMA_MAX_CHARS} characters, no exponent")
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise OperandError(f"{flag} {text!r}: zero denominator") from exc
    if max(abs(value.numerator), value.denominator) >= 2**VERMA_MAX_BITS:
        raise OperandError(f"{flag} {value}: numerator and denominator must be below 2^{VERMA_MAX_BITS}")
    return value


def check_budget(args) -> None:
    """Reject a request beyond the CLI budget (exit 2) before any import or work."""
    grid = getattr(args, "grid", MIN_GRID)
    if grid > MAX_GRID:
        raise OperandError(f"--grid {grid}: at most {MAX_GRID}")
    if grid < MIN_GRID or grid & (grid - 1):
        raise OperandError(f"--grid {grid}: must be a power of two >= {MIN_GRID}")
    if args.command == "verify":
        if args.seed < 0:
            raise OperandError(f"--seed {args.seed}: must be at least 0")
        if args.trials < 0:
            raise OperandError(f"--trials {args.trials}: must be at least 0")
        if not 1 <= args.threads <= MAX_THREADS:
            raise OperandError(f"--threads {args.threads}: must lie in 1..{MAX_THREADS}")
        if args.trials * args.grid > VERIFY_MAX_POINTS:
            raise OperandError(f"--trials x --grid = {args.trials * args.grid}: at most {VERIFY_MAX_POINTS}")
    if args.command == "verma" and not 0 <= args.level <= VERMA_MAX_LEVEL:
        raise OperandError(f"--level {args.level}: must lie in 0..{VERMA_MAX_LEVEL}")


def load_cover(path: str | None) -> CoverConfig:
    from .diffeo import CoverConfig

    if path is None:
        return CoverConfig.default()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GeometryError(f"cannot read cover configuration: {exc}") from exc
    return CoverConfig.from_json(text)


def _emit(report: RunReport, as_json: bool) -> int:
    """Print the report as JSON or text; the command's exit code."""
    sys.stdout.write((report.to_json() if as_json else report.format_text()) + "\n")
    return 0 if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _fragment_report(args, factors, checks, start: float, **inputs) -> RunReport:
    """Write gamma, xi1, xi2 and xi3 as CSVs under --out; return the command's
    report of the (name, residual, tol) checks, timed from start."""
    from .periodic import _write_csv
    from .report import CheckResult, RunReport, digest_inputs

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, el in zip(("gamma", "xi1", "xi2", "xi3"), factors):
        _write_csv(el.samples, out / f"{name}.csv")
    report = RunReport(command=args.command)
    report.inputs_digest = digest_inputs(spec=args.spec, grid=args.grid, **inputs)
    report.checks = [CheckResult(*check) for check in checks]
    report.wall_time = time.perf_counter() - start
    return report


def cmd_fragment_diff(args) -> int:
    from . import frag_diff
    from .diffeo import support

    start = time.perf_counter()
    cover = load_cover(args.config)
    g = parse_diffeo(args.spec, args.grid)
    result = frag_diff.fragment(g, cover, eps=args.eps)
    outside, alpha_ratio, beta_ratio, deriv_gap = frag_diff.fragment_residuals(result, cover, args.eps)
    checks = [
        ("reconstruction_error", result.reconstruction_error, 1e-7),
        ("supports_inside_cover", outside, 1e-9),
        ("alpha1_bound_ratio", alpha_ratio, 1.0),
        ("beta1_bound_ratio", beta_ratio, 1.0),
        ("derivative_positive", deriv_gap, 0.0),
    ]
    report = _fragment_report(args, (g, result.xi1, result.xi2, result.xi3), checks, start, eps=args.eps)
    if not args.json:
        sys.stdout.write(
            f"alpha1 = {result.alpha1:.17g}\nbeta1  = {result.beta1:.17g}\n"
            f"alpha2 = {result.alpha2:.17g}\nbeta2  = {result.beta2:.17g}\n"
        )
        for name, xi in (("xi1", result.xi1), ("xi2", result.xi2), ("xi3", result.xi3)):
            arc = support(xi, tol=1e-9)
            desc = arc if isinstance(arc, str) else f"({arc.a:.6f}, {arc.b:.6f})"
            sys.stdout.write(f"support {name}: {desc}\n")
    return _emit(report, args.json)


def cmd_fragment_loop(args) -> int:
    from . import loops

    start = time.perf_counter()
    cover = load_cover(args.config)
    g = parse_loop(args.spec, args.grid)
    parts = loops.fragment_loop(g, cover)
    rec_err, outside = loops.fragment_loop_residuals(g, parts, cover)
    checks = [("reconstruction_error", rec_err, 1e-9), ("supports_inside_cover", outside, 1e-10)]
    return _emit(_fragment_report(args, (g, *parts), checks, start), args.json)


def cmd_cocycle(args) -> int:
    n = args.grid
    if args.kind == "omega":
        from . import loops

        value = loops.omega(parse_loop_algebra(args.operands[0], n), parse_loop_algebra(args.operands[1], n))
    else:
        from . import cocycles

        if args.kind == "bott":
            value = cocycles.bott(parse_diffeo(args.operands[0], n), parse_diffeo(args.operands[1], n))
        else:
            value = cocycles.vect_cocycle(parse_field(args.operands[0], n), parse_field(args.operands[1], n))
    if not cmath.isfinite(value):  # finite samples whose derivatives or sums overflow
        raise OperandError(f"{args.kind} cocycle of {args.operands[0]!r}, {args.operands[1]!r} overflows to {value}")
    if args.kind != "vect":
        sys.stdout.write(f"{value:.17g}\n")
    elif abs(value.imag) < 1e-13 * (1 + abs(value)):
        sys.stdout.write(f"{value.real:.17g}\n")
    else:
        sys.stdout.write(f"{value.real:.17g}{value.imag:+.17g}j\n")
    return 0


def cmd_verma(args) -> int:
    from . import verma

    c = parse_verma_operand(args.c, "--c")
    h = parse_verma_operand(args.h, "--h")
    matrix = verma.gram_matrix(args.level, c, h, args.max_level)
    det = verma.exact_determinant(matrix)
    payload = {
        "command": "verma",
        "c": str(c),
        "h": str(h),
        "level": args.level,
        "basis": [list(p) for p in verma.partitions(args.level)],
        "gram": [[str(x) for x in row] for row in matrix],
        "determinant": str(det),
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    start = time.perf_counter()
    report = verify.run_suites(args.suite, args.seed, args.trials, n=args.grid, threads=args.threads)
    report.wall_time = time.perf_counter() - start
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "report.json").write_text(report.to_json() + "\n")
    return _emit(report, args.json)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlekit",
        description="circle-diffeomorphism and loop-group arithmetic at spectral resolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fd = sub.add_parser("fragment-diff", help="fragment a circle diffeomorphism over a cover")
    fd.add_argument("--spec", required=True, help='diffeomorphism, e.g. "fourier:[(1,0,0.005)]"')
    fd.add_argument("--config", help="cover configuration JSON path")
    fd.add_argument("--grid", type=int, default=1024)
    fd.add_argument("--eps", type=float, default=0.01)
    fd.add_argument("--out", default=".")
    fd.add_argument("--json", action="store_true")
    fd.set_defaults(fn=cmd_fragment_diff)

    fl = sub.add_parser("fragment-loop", help="fragment an SU(2) loop over a cover")
    fl.add_argument("--spec", required=True, help='loop, e.g. "exp:[(1,1,0,0.02)]"')
    fl.add_argument("--config", help="cover configuration JSON path")
    fl.add_argument("--grid", type=int, default=1024)
    fl.add_argument("--out", default=".")
    fl.add_argument("--json", action="store_true")
    fl.set_defaults(fn=cmd_fragment_loop)

    co = sub.add_parser("cocycle", help="evaluate a cocycle on two operands")
    co.add_argument("kind", choices=["bott", "vect", "omega"])
    co.add_argument("operands", nargs=2)
    co.add_argument("--grid", type=int, default=1024)
    co.set_defaults(fn=cmd_cocycle)

    vm = sub.add_parser("verma", help="emit an exact Gram matrix as JSON")
    vm.add_argument("--c", default="1/2", help="central charge (fraction)")
    vm.add_argument("--h", default="0", help="lowest weight (fraction)")
    vm.add_argument("--level", type=int, default=2)
    vm.add_argument("--max-level", type=int, default=8)
    vm.set_defaults(fn=cmd_verma)

    vf = sub.add_parser("verify", help="run property suites")
    vf.add_argument("suite", nargs="?", default="all", choices=["all", *VERIFY_SUITES])
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--trials", type=int, default=200)
    vf.add_argument("--grid", type=int, default=1024)
    vf.add_argument("--threads", type=int, default=1)
    vf.add_argument("--out", help="directory for report.json")
    vf.add_argument("--json", action="store_true")
    vf.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_budget(args)
        return args.fn(args)
    except (CirclekitError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
