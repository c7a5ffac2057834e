"""Command-line surface: fragmentation runs, cocycle evaluation, verification.

Exit codes:

0  success
1  a verification check failed
2  bad operands: unparsable, outside the admissible neighbourhood, not
   orientation preserving (DerivativeError), outside the principal branch of
   the loop logarithm (BranchError) or above a module's truncation
   (TruncationError)
3  bad geometry or malformed configuration, including cutoffs that cannot
   carry their prescribed mass (MassError)
4  spectral aliasing (AliasingError); raise --grid
5  a Newton inversion did not converge (ConvergenceError)
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cocycles, frag_diff, loops, verma
from .diffeo import CircleDiffeo, CoverConfig, support
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
from .periodic import PeriodicFunction, grid
from .verify import CheckResult, RunReport, digest_inputs, run_suites

EXIT_FAIL = 1
EXIT_OPERAND = 2
EXIT_GEOMETRY = 3
EXIT_ALIASING = 4
EXIT_CONVERGENCE = 5


class OperandError(ValueError):
    pass


# exit code of every error a command can raise (all CirclekitError subclasses)
_EXIT_CODES = (
    ((ValueError, NeighbourhoodError, DerivativeError, BranchError, TruncationError), EXIT_OPERAND),
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


def parse_fourier_terms(text: str, prefix: str) -> list[tuple[int, float, float]]:
    if not text.startswith(prefix + ":"):
        raise OperandError(f"expected '{prefix}:[...]', got {text!r}")
    try:
        terms = ast.literal_eval(text[len(prefix) + 1 :])
        return [(int(k), float(a), float(b)) for k, a, b in terms]
    except (ValueError, SyntaxError, TypeError) as exc:
        raise OperandError(f"cannot parse {text!r}: {exc}") from exc


def parse_diffeo(text: str, n: int) -> CircleDiffeo:
    """gamma(t) = t + sum a_k cos(k t) + b_k sin(k t), from "fourier:[(k,a,b),...]"."""
    return CircleDiffeo.from_fourier(parse_fourier_terms(text, "fourier"), n)


def parse_field(text: str, n: int) -> PeriodicFunction:
    """Vector field operand: "fourier:[(k,a,b),...]" or "monomial:k" for e^{ikt}."""
    if text.startswith("monomial:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise OperandError(f"cannot parse {text!r}") from exc
        return PeriodicFunction(np.exp(1j * k * grid(n)))
    t = grid(n)
    f = np.zeros(n)
    for k, a, b in parse_fourier_terms(text, "fourier"):
        f += a * np.cos(k * t) + b * np.sin(k * t)
    return PeriodicFunction(f)


def parse_loop_algebra(text: str, n: int) -> loops.LoopAlgebraElement:
    """su(2) operand "su2:[(axis,k,a,b),...]": component on i*sigma_axis."""
    if not text.startswith("su2:"):
        raise OperandError(f"expected 'su2:[...]', got {text!r}")
    try:
        terms = [(int(x), int(k), float(a), float(b)) for x, k, a, b in ast.literal_eval(text[4:])]
    except (ValueError, SyntaxError, TypeError) as exc:
        raise OperandError(f"cannot parse {text!r}: {exc}") from exc
    t = grid(n)
    comps = np.zeros((3, n))
    for axis, k, a, b in terms:
        if axis not in (1, 2, 3):
            raise OperandError("axis must be 1, 2 or 3")
        comps[axis - 1] += a * np.cos(k * t) + b * np.sin(k * t)
    return loops.LoopAlgebraElement.from_components(*comps)


def parse_loop(text: str, n: int) -> loops.LoopElement:
    """Loop operand "exp:[(axis,k,a,b),...]": pointwise exponential of an su(2) field."""
    if not text.startswith("exp:"):
        raise OperandError(f"expected 'exp:[...]', got {text!r}")
    return loops.exp_loop(parse_loop_algebra("su2:" + text[4:], n))


def load_cover(path: str | None) -> CoverConfig:
    if path is None:
        return CoverConfig.default()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GeometryError(f"cannot read cover configuration: {exc}") from exc
    return CoverConfig.from_json(text)


def _diffeo_to_csv(g: CircleDiffeo, path: Path) -> None:
    t = grid(g.n)
    vals = g.samples
    with open(path, "w") as fh:
        for tk, v in zip(t, vals):
            fh.write(f"{tk:.17g},{v:.17g}\n")


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.format_text() + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fragment_diff(args) -> int:
    start = time.perf_counter()
    cover = load_cover(args.config)
    g = parse_diffeo(args.spec, args.grid)
    result = frag_diff.fragment(g, cover, eps=args.eps)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, el in [
        ("gamma", g),
        ("xi1", result.xi1),
        ("xi2", result.xi2),
        ("xi3", result.xi3),
    ]:
        _diffeo_to_csv(el, out / f"{name}.csv")

    a_bound = frag_diff.alpha1_bound(cover, args.eps)
    b_bound = frag_diff.beta1_bound(cover, args.eps)
    t = grid(args.grid)
    outside = max(
        float(np.abs(xi.periodic_part.samples[~arc.contains(t)]).max())
        for xi, arc in zip((result.xi1, result.xi2, result.xi3), cover.intervals)
    )
    report = RunReport(command="fragment-diff")
    report.inputs_digest = digest_inputs(spec=args.spec, grid=args.grid, eps=args.eps)
    report.checks = [
        CheckResult("reconstruction_error", result.reconstruction_error, 1e-7),
        CheckResult("supports_inside_cover", outside, 1e-9),
        CheckResult("alpha1_bound_ratio", abs(result.alpha1) / a_bound, 1.0),
        CheckResult("beta1_bound_ratio", abs(result.beta1) / b_bound, 1.0),
        CheckResult("derivative_positive", -min(
            result.xi1.deriv_samples.min(), result.xi2.deriv_samples.min()
        ), 0.0),
    ]
    report.wall_time = time.perf_counter() - start
    if not args.json:
        sys.stdout.write(
            f"alpha1 = {result.alpha1:.17g}\nbeta1  = {result.beta1:.17g}\n"
            f"alpha2 = {result.alpha2:.17g}\nbeta2  = {result.beta2:.17g}\n"
        )
        for name, xi in (("xi1", result.xi1), ("xi2", result.xi2), ("xi3", result.xi3)):
            arc = support(xi, tol=1e-9)
            desc = arc if isinstance(arc, str) else f"({arc.a:.6f}, {arc.b:.6f})"
            sys.stdout.write(f"support {name}: {desc}\n")
    _emit(report, args.json)
    return 0 if report.passed else EXIT_FAIL


def cmd_fragment_loop(args) -> int:
    start = time.perf_counter()
    cover = load_cover(args.config)
    g = parse_loop(args.spec, args.grid)
    xi1, xi2, xi3 = loops.fragment_loop(g, cover)
    rec = loops.multiply(xi1, loops.multiply(xi2, xi3, None), None)
    rec_err = float(np.abs(rec.samples - g.samples).max())
    t = grid(args.grid)
    outside = max(
        float(xi.distance_to_identity()[~arc.contains(t)].max())
        for xi, arc in zip((xi1, xi2, xi3), cover.intervals)
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, el in [("gamma", g), ("xi1", xi1), ("xi2", xi2), ("xi3", xi3)]:
        loops.loop_to_csv(el, out / f"{name}.csv")

    report = RunReport(command="fragment-loop")
    report.inputs_digest = digest_inputs(spec=args.spec, grid=args.grid)
    report.checks = [
        CheckResult("reconstruction_error", rec_err, 1e-9),
        CheckResult("supports_inside_cover", outside, 1e-10),
    ]
    report.wall_time = time.perf_counter() - start
    _emit(report, args.json)
    return 0 if report.passed else EXIT_FAIL


def cmd_cocycle(args) -> int:
    n = args.grid
    if args.kind == "bott":
        value = cocycles.bott(parse_diffeo(args.operands[0], n), parse_diffeo(args.operands[1], n))
        sys.stdout.write(f"{value:.17g}\n")
    elif args.kind == "vect":
        value = cocycles.vect_cocycle(parse_field(args.operands[0], n), parse_field(args.operands[1], n))
        if abs(value.imag) < 1e-13 * (1 + abs(value)):
            sys.stdout.write(f"{value.real:.17g}\n")
        else:
            sys.stdout.write(f"{value.real:.17g}{value.imag:+.17g}j\n")
    else:
        value = loops.omega(parse_loop_algebra(args.operands[0], n), parse_loop_algebra(args.operands[1], n))
        sys.stdout.write(f"{value:.17g}\n")
    return 0


def cmd_verma(args) -> int:
    c = Fraction(args.c)
    h = Fraction(args.h)
    max_level = max(args.max_level, args.level)
    matrix = verma.gram_matrix(args.level, c, h, max_level)
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
    start = time.perf_counter()
    report = run_suites(args.suite, args.seed, args.trials, n=args.grid, threads=args.threads)
    report.wall_time = time.perf_counter() - start
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "report.json").write_text(report.to_json() + "\n")
    _emit(report, args.json)
    return 0 if report.passed else EXIT_FAIL


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
    vf.add_argument("suite", nargs="?", default="all", choices=["all", "diff", "loop", "cocycle", "verma"])
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
        return args.fn(args)
    except (CirclekitError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
