"""The four workloads: what one round runs, how it is checked, what it reports.

A run repeats whole rounds, each the same fixed mix of operations on fresh
seeded inputs, until the run length is used up.  Inputs of a round are
generated before any of its operations is timed; every output is checked
right after its operation, outside the timed region.

Each workload maps its operations onto the same end-to-end slots
(primary_per_s, primary_ms_p50, secondary_ms_p50, tertiary_ms_p50) and also
reports them under the names of the quantities they are (frag_ms_p50,
gram_s, ...).

Times are scaled to a reference machine speed.  The machine this runs on
changes speed by 20-30 % over seconds to minutes (other tenants), and every
CPU-bound loop slows by about the same factor.  A fixed calibration loop,
run between operations, measures that factor: each timing is multiplied by
CAL_REF_S / (median of the CAL_WINDOW calibrations nearest to it in time),
i.e. reported as it would read on a machine where the loop takes CAL_REF_S.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

import independent as ind
import perfsetup

from circlekit import cocycles, diffeo, frag_diff, loops, sampling, verify, verma

N = 1024
EPS = perfsetup.EPS
GROUP_EPS = 0.05  # the eps of acceptance criterion 5 and the cocycle suite
PAIR_LEFT = (0.3, 3.6)
PAIR_RIGHT = (3.1, ind.TWO_PI + 0.8)
VERMA_TOP = 10  # Gram matrices and determinants at levels 1..VERMA_TOP
BRACKET_LEVEL = 8  # the commutator sweep of acceptance criterion 7
VERIFY_TRIALS = 10

CAL_REF_S = 0.0025  # reference duration of calibration_loop
CAL_EVERY_S = 0.05  # calibrate before an operation when this long has passed
CAL_WINDOW = 5
_CAL_SIGNAL = np.random.default_rng(0).normal(size=8192)


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of FFT round trips and interpreted bytecode,
    independent of circlekit."""
    start = time.perf_counter()
    for _ in range(10):
        np.fft.irfft(np.fft.rfft(_CAL_SIGNAL))
    acc = 0
    for i in range(10000):
        acc += i * i
    return time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    if len(values) < 2:
        return median(values)
    return float(np.quantile(values, q))


class Recorder:
    """Timings, attempted and failed counts, and check outcomes of one run.

    Per-operation timings are kept only until their round is folded into one
    fixed-size summary per kind (count, total, p50 and p90 at reference
    speed), so the benchmark's own memory does not grow with the number of
    rounds a run holds.  A round is folded once enough calibrations follow
    its last operation for every scale factor to be final."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.pending = defaultdict(list)  # (round, traced) -> [(kind, seconds, when)]
        self.folded = defaultdict(list)  # kind -> [(round, traced, count, total_s, p50_s, p90_s)]
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.worst: dict[str, float] = {}
        self.inputs_s = 0.0
        self.round = 0
        self.traced = False
        self.cal: list[float] = []  # calibration loop seconds
        self.cal_at: list[float] = []  # when each calibration ran
        self._local = None

    def calibrate(self) -> None:
        self.cal.append(calibration_loop())
        self.cal_at.append(time.perf_counter())
        self._local = None

    def scale(self, when) -> float:
        """Factor that brings a timing taken at perf_counter() == when to the
        reference speed."""
        if not self.cal:
            return 1.0
        if self._local is None:
            half = CAL_WINDOW // 2
            self._local = [median(self.cal[max(0, i - half) : i + half + 1]) for i in range(len(self.cal))]
        i = min(int(np.searchsorted(self.cal_at, when)), len(self.cal) - 1)
        return CAL_REF_S / self._local[i]

    def op(self, kinds, fn, *args, accept=None):
        """Run and time one operation; an exception or a refused output is a
        failed operation, and a failed operation's time is not recorded."""
        if not self.cal_at or time.perf_counter() - self.cal_at[-1] > CAL_EVERY_S:
            self.calibrate()
        self.attempted += 1
        tracing = self.tracer is not None and self.traced
        if tracing:
            self.tracer.active = True
        when = time.perf_counter()
        start = self.clock()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            sys.stderr.write(f"operation {kinds} failed:\n{traceback.format_exc()}")
            return None
        finally:
            elapsed = self.clock() - start
            if tracing:
                self.tracer.active = False
        if accept is not None and not accept(out):
            self.failed += 1
            return None
        for kind in (kinds,) if isinstance(kinds, str) else kinds:
            self.pending[(self.round, self.traced)].append((kind, elapsed, when))
        return out

    def fold(self, final=False) -> None:
        """Summarise every pending round whose scale factors are final (all
        of them when final): the CAL_WINDOW // 2 + 1 calibrations taken at or
        after its last operation exist."""
        for key in sorted(self.pending):
            last = self.pending[key][-1][2]
            after = len(self.cal_at) - int(np.searchsorted(self.cal_at, last))
            if not final and after <= CAL_WINDOW // 2:
                break
            by_kind = defaultdict(list)
            for kind, seconds, when in self.pending.pop(key):
                by_kind[kind].append(seconds * self.scale(when))
            for kind, values in by_kind.items():
                self.folded[kind].append((*key, len(values), sum(values), median(values), quantile(values, 0.9)))

    def check(self, ok, what: str) -> None:
        if not ok:
            if len(self.wrong) < 20:
                sys.stderr.write(f"check failed: {what}\n")
            self.wrong.append(what)

    def most(self, name, value) -> None:
        self.worst[name] = max(self.worst.get(name, value), value)

    def least(self, name, value) -> None:
        self.worst[name] = min(self.worst.get(name, value), value)

    @contextmanager
    def inputs(self):
        """Time input generation, which no operation's timing includes."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.inputs_s += time.perf_counter() - start

    # -- statistics at reference speed: medians over the folded untraced
    # rounds (all rounds of a --trace 0 run), or over the traced ones --

    def _rounds(self, kind, traced):
        return [entry for entry in self.folded[kind] if entry[1] == traced]

    def p50_ms(self, kind, traced=False):
        """Median over rounds of the round's median time of one operation."""
        return median([p50 for *_, p50, _ in self._rounds(kind, traced)]) * 1e3

    def p90_ms(self, kind):
        """Median over rounds of the round's 90th-percentile time."""
        return median([p90 for *_, p90 in self._rounds(kind, False)]) * 1e3

    def rate(self, *kinds):
        """Median over rounds of operations per second of their own time."""
        per_round = defaultdict(lambda: [0, 0.0])
        for kind in kinds:
            for r, _, count, total, _, _ in self._rounds(kind, False):
                per_round[r][0] += count
                per_round[r][1] += total
        return median([n / s for n, s in per_round.values() if s > 0])

    def round_total(self, *kinds):
        """Median over rounds of the summed time of these operations, in s."""
        per_round = defaultdict(float)
        for kind in kinds:
            for r, _, _, total, _, _ in self._rounds(kind, False):
                per_round[r] += total
        return median(list(per_round.values()))

    def speed(self) -> float:
        """Median calibration loop time of the run over the reference time."""
        return median(self.cal) / CAL_REF_S


def _periodic(g) -> np.ndarray:
    return g.periodic_part.samples


def _moved_outside(p: np.ndarray, arc) -> float:
    mask = ind.outside(arc[0], arc[1] - arc[0], len(p))
    return float(np.abs(p[mask]).max()) if mask.any() else 0.0


# ---------------------------------------------------------------------------
# frag_sweep
# ---------------------------------------------------------------------------


class FragSweep:
    """Fragmentations in the eps = 0.01 neighbourhood: 12 at N = 1024, 2 at
    N = 4096 and 2 two-interval fragment_pair calls per round."""

    name = "frag_sweep"
    warmup_rounds = 1

    def __init__(self, seed, state):
        self.seed = seed
        self.cover = state["cover"]
        self.fragmenters = state["fragmenters"]
        self.arcs = [(a.a, a.b) for a in self.cover.intervals]
        self.a_bound = frag_diff.alpha1_bound(self.cover, EPS)
        self.b_bound = frag_diff.beta1_bound(self.cover, EPS)
        self.pair_arcs = (diffeo.IntervalArc(*PAIR_LEFT), diffeo.IntervalArc(*PAIR_RIGHT))

    def round(self, rec: Recorder, r: int, stream: int = 0) -> None:
        rng = sampling.rng_for
        with rec.inputs():
            small = [sampling.random_diffeo(rng(self.seed, stream + 1, 12 * r + j), EPS, N) for j in range(12)]
            large = [sampling.random_diffeo(rng(self.seed, stream + 2, 2 * r + j), EPS, 4096) for j in range(2)]
            pairs = [sampling.random_diffeo(rng(self.seed, stream + 3, 2 * r + j), EPS, N) for j in range(2)]
        for half in range(2):
            for g in small[6 * half : 6 * half + 6]:
                self.fragment(rec, "frag1024", g)
            self.fragment(rec, "frag4096", large[half])
            self.pair(rec, pairs[half])

    def fragment(self, rec, kind, g):
        res = rec.op(kind, self.fragmenters[g.n].fragment, g, EPS)
        if res is None:
            return
        factors = [_periodic(x) for x in (res.xi1, res.xi2, res.xi3)]
        err = ind.recompose_error(_periodic(g), factors)
        rec.most("frag_rec_err_max", err)
        rec.check(err < 1e-7, f"{kind}: recomposed factors off by {err:.3e}")
        moved = max(_moved_outside(p, arc) for p, arc in zip(factors, self.arcs))
        rec.most("frag_diff.outside_support_max", moved)
        rec.check(moved < 1e-9, f"{kind}: factor moves {moved:.3e} outside its interval")
        ratio = max(abs(res.alpha1) / self.a_bound, abs(res.beta1) / self.b_bound)
        rec.most("frag_diff.bound_ratio_max", ratio)
        rec.check(ratio < 1.0, f"{kind}: coefficient bound ratio {ratio:.3f}")
        deriv = min(ind.min_derivative(factors[0]), ind.min_derivative(factors[1]))
        rec.least("frag_diff.min_localized_deriv", deriv)
        rec.check(deriv > 0.0, f"{kind}: localized derivative {deriv:.3e}")
        rec.most("frag_diff.self_reported_rec_max", res.reconstruction_error)

    def pair(self, rec, g):
        left, right = self.pair_arcs
        out = rec.op("pair", frag_diff.fragment_pair, g, left, right)
        if out is None:
            return
        factors = [_periodic(x) for x in out]
        err = ind.recompose_error(_periodic(g), factors)
        rec.most("pair_rec_err_max", err)
        rec.check(err < 1e-7, f"pair: recomposed factors off by {err:.3e}")
        moved = max(_moved_outside(factors[0], PAIR_LEFT), _moved_outside(factors[1], PAIR_RIGHT))
        rec.check(moved < 1e-9, f"pair: factor moves {moved:.3e} outside its arc")

    @staticmethod
    def named(rec):
        return {
            "frag_per_s": (rec.rate("frag1024"), "fragmentations/s"),
            "frag_ms_p50": (rec.p50_ms("frag1024"), "ms"),
            "frag_ms_p90": (rec.p90_ms("frag1024"), "ms"),
            "frag4096_ms_p50": (rec.p50_ms("frag4096"), "ms"),
            "pair_ms_p50": (rec.p50_ms("pair"), "ms"),
            "frag_rec_err_max": (rec.worst.get("frag_rec_err_max", 0.0), "rad"),
            "pair_rec_err_max": (rec.worst.get("pair_rec_err_max", 0.0), "rad"),
        }

    slots = {
        "primary_per_s": "frag_per_s",
        "primary_ms_p50": "frag_ms_p50",
        "secondary_ms_p50": "frag4096_ms_p50",
        "tertiary_ms_p50": "pair_ms_p50",
    }
    primary = "frag1024"


# ---------------------------------------------------------------------------
# group_laws
# ---------------------------------------------------------------------------


class GroupLaws:
    """Per round: 4 Bott cocycle-identity triples, 1 Virasoro associativity
    triple, 2 rotation pairs, 1 inverse, 4 SU(2) loops fragmented directly and
    sequentially, 2 omega identities under precompose, and the omega closed
    form for k = 1..4; all at N = 1024."""

    name = "group_laws"
    warmup_rounds = 3

    def __init__(self, seed, state):
        self.seed = seed
        self.cover = state["cover"]

    def round(self, rec: Recorder, r: int, stream: int = 0) -> None:
        rng = sampling.rng_for
        rd = sampling.random_diffeo
        with rec.inputs():
            triples = []
            for j in range(4):
                g = rng(self.seed, stream + 11, 4 * r + j)
                triples.append([rd(g, GROUP_EPS, N) for _ in range(3)])
            g = rng(self.seed, stream + 12, r)
            vir = [cocycles.VirasoroElement(g.normal(), rd(g, GROUP_EPS, N)) for _ in range(3)]
            rotations = []
            for j in range(2):
                g = rng(self.seed, stream + 13, 2 * r + j)
                rotations.append((sampling.random_rotation(g, N), sampling.random_rotation(g, N)))
            to_invert = rd(rng(self.seed, stream + 14, r), GROUP_EPS, N)
            loop_inputs = [
                loops.exp_loop(sampling.random_loop_algebra(rng(self.seed, stream + 15, 4 * r + j), 0.05, N))
                for j in range(4)
            ]
            omega_inputs = []
            for j in range(2):
                g = rng(self.seed, stream + 16, 2 * r + j)
                omega_inputs.append(
                    (sampling.random_loop_algebra(g, 0.5, N), sampling.random_loop_algebra(g, 0.5, N), rd(g, GROUP_EPS, N))
                )
            t = ind.grid(N)
            closed = [
                (
                    loops.LoopAlgebraElement.from_components(np.cos(k * t), np.zeros(N), np.zeros(N)),
                    loops.LoopAlgebraElement.from_components(np.sin(k * t), np.zeros(N), np.zeros(N)),
                )
                for k in range(1, 5)
            ]

        for g1, g2, g3 in triples:
            self.bott_triple(rec, g1, g2, g3)
        self.vir_triple(rec, vir)
        for r1, r2 in rotations:
            value = rec.op("rotation", lambda: cocycles.bott(r1, r2))
            if value is not None:
                rec.check(abs(value) < 1e-12, f"bott on rotations reads {value:.3e}")
        inv = rec.op("inverse", lambda: diffeo.inverse(to_invert))
        if inv is not None:
            err = ind.recompose_error(np.zeros(N), [_periodic(to_invert), _periodic(inv)])
            rec.check(err < 1e-8, f"g o inverse(g) off the identity by {err:.3e}")
        for g in loop_inputs:
            for kind, fn in (("loopfrag", loops.fragment_loop), ("loopfrag_seq", loops.fragment_loop_sequential)):
                parts = rec.op(kind, lambda: fn(g, self.cover))
                if parts is not None:
                    x1, x2, x3 = (p.samples for p in parts)
                    err = float(np.abs(x1 @ x2 @ x3 - g.samples).max())
                    rec.check(err < 1e-9, f"{kind}: matrix product off by {err:.3e}")
        for xi, eta, f in omega_inputs:
            out = rec.op(
                "omega_invariance",
                lambda: (loops.omega(loops.precompose(xi, f), loops.precompose(eta, f)), loops.omega(xi, eta)),
            )
            if out is not None:
                gap = abs(out[0] - out[1])
                rec.check(gap < 1e-8, f"omega not invariant under precompose: {gap:.3e}")
        values = rec.op("omega_closed", lambda: [loops.omega(x, y) for x, y in closed])
        if values is not None:
            for k, v in enumerate(values, start=1):
                rec.check(abs(v + k) < 1e-9, f"omega(cos {k}t, sin {k}t) = {v!r}, not {-k}")

    def bott_triple(self, rec, g1, g2, g3):
        def triple():
            g12 = diffeo.compose(g1, g2)
            g23 = diffeo.compose(g2, g3)
            return cocycles.bott(g1, g2), cocycles.bott(g12, g3), cocycles.bott(g1, g23), cocycles.bott(g2, g3)

        values = rec.op(("triple", "bott_triple"), triple)
        if values is None:
            return
        b12, b12_3, b1_23, b23 = values
        residual = abs(b12 + b12_3 - b1_23 - b23)
        rec.most("cocycle_residual_max", residual)
        rec.check(residual < 1e-8, f"Bott cocycle identity residual {residual:.3e}")
        ref = ind.bott_value(_periodic(g1), _periodic(g2))
        rec.check(abs(b12 - ref) < 1e-12, f"bott(g1, g2) = {b12!r}, direct sum {ref!r}")

    def vir_triple(self, rec, xs):
        def triple():
            vm = cocycles.vir_multiply
            return vm(vm(xs[0], xs[1]), xs[2]), vm(xs[0], vm(xs[1], xs[2]))

        out = rec.op(("triple", "vir_triple"), triple)
        if out is None:
            return
        left, right = out
        central = abs(left.a - right.a)
        rec.check(central < 1e-8, f"Virasoro associativity: central parts differ by {central:.3e}")
        gap = float(np.abs(_periodic(left.gamma) - _periodic(right.gamma)).max())
        rec.check(gap < 1e-8, f"Virasoro associativity: diffeomorphisms differ by {gap:.3e}")

    @staticmethod
    def named(rec):
        return {
            "triple_per_s": (rec.rate("triple"), "triples/s"),
            "bott_triple_ms_p50": (rec.p50_ms("bott_triple"), "ms"),
            "vir_triple_ms_p50": (rec.p50_ms("vir_triple"), "ms"),
            "loopfrag_per_s": (rec.rate("loopfrag", "loopfrag_seq"), "loop fragmentations/s"),
            "loopfrag_ms_p50": (rec.p50_ms("loopfrag"), "ms"),
            "cocycle_residual_max": (rec.worst.get("cocycle_residual_max", 0.0), "1"),
        }

    slots = {
        "primary_per_s": "triple_per_s",
        "primary_ms_p50": "bott_triple_ms_p50",
        "secondary_ms_p50": "loopfrag_ms_p50",
        "tertiary_ms_p50": "vir_triple_ms_p50",
    }
    primary = "bott_triple"


# ---------------------------------------------------------------------------
# verma_exact
# ---------------------------------------------------------------------------


class VermaExact:
    """Per round, for each (c, h) of verify.VERMA_PARAMETERS: a fresh module's
    Gram matrix and exact determinant at levels 1..VERMA_TOP, then the
    level-8 commutator sweep of acceptance criterion 7 on another fresh
    module.  The seed orders the four modules."""

    name = "verma_exact"
    warmup_rounds = 0  # cold on purpose: every CLI invocation pays the memo fill

    def __init__(self, seed, state):
        self.seed = seed
        self.params = [(Fraction(c), Fraction(h)) for c, h in verify.VERMA_PARAMETERS]
        self.kac = {
            (c, h, level): ind.kac_determinant(level, c, h)
            for c, h in self.params
            for level in range(1, VERMA_TOP + 1)
        }

    def round(self, rec: Recorder, r: int, stream: int = 0) -> None:
        with rec.inputs():
            order = sampling.rng_for(self.seed, stream + 21, r).permutation(len(self.params))
            params = [self.params[i] for i in order]
            sweeps = []
            for c, h in params:
                states = []
                for m in range(-4, 5):
                    for n in range(-4, 5):
                        for level in range(BRACKET_LEVEL - abs(m) - abs(n) + 1):
                            for part in verma.partitions(level):
                                states.append((m, n, verma.VermaState({part: Fraction(1)}, c, h)))
                sweeps.append(states)
        for c, h in params:
            module = verma.VermaModule(c, h, VERMA_TOP)
            for level in range(1, VERMA_TOP + 1):
                gram = rec.op("gram", module.gram_matrix, level)
                if gram is None:
                    continue
                symmetric = all(gram[i][j] == gram[j][i] for i in range(len(gram)) for j in range(i))
                rec.check(symmetric, f"Gram matrix of M({c}, {h}) at level {level} is not symmetric")
                det = rec.op("det", verma.exact_determinant, gram)
                if det is not None:
                    want = self.kac[(c, h, level)]
                    rec.check(det == want, f"det at level {level} of M({c}, {h}) is {det}, Kac gives {want}")
        for (c, h), states in zip(params, sweeps):
            module = verma.VermaModule(c, h, BRACKET_LEVEL)
            for m, n, state in states:
                ok = rec.op("bracket", module.commutator_check, m, n, state)
                if ok is not None:
                    rec.check(ok is True, f"[L_{m}, L_{n}] fails on {state} in M({c}, {h})")

    @staticmethod
    def named(rec):
        return {
            "gram_s": (rec.round_total("gram", "det"), "s"),
            "gram_only_ms": (rec.round_total("gram") * 1e3, "ms"),
            "det_only_ms": (rec.round_total("det") * 1e3, "ms"),
            "bracket_checks_per_s": (rec.rate("bracket"), "checks/s"),
            "bracket_ms_p50": (rec.p50_ms("bracket"), "ms"),
        }

    slots = {
        "primary_per_s": "bracket_checks_per_s",
        "primary_ms_p50": "bracket_ms_p50",
        "secondary_ms_p50": "gram_only_ms",
        "tertiary_ms_p50": "det_only_ms",
    }
    primary = "bracket"


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------


def _exit_ok(proc) -> bool:
    return proc.returncode == 0


def _exit_bad_operands(proc) -> bool:
    return proc.returncode == 2  # the documented exit code for bad operands


class CliSession:
    """Per round, one subprocess at a time: verify all --threads 2, six README
    examples, and two calls with operands outside the neighbourhood that must
    exit 2 (bad operands)."""

    name = "cli_session"
    warmup_rounds = 0  # every command is a cold process

    def __init__(self, seed, state):
        self.seed = seed
        self.root = state["root"]
        self.env = state["env"]
        self.out = self.root / ".bench_out" / "cli"
        t = ind.grid(N)
        self.bott_ref = ind.bott_value(0.004 * np.sin(t), 0.003 * np.cos(2 * t))
        self.verma_det = ind.kac_determinant(2, Fraction(1, 2), Fraction(1, 16))

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "circlekit", *args],
            capture_output=True, text=True, timeout=150, env=self.env, cwd=self.root,
        )

    def round(self, rec: Recorder, r: int, stream: int = 0) -> None:
        proc = rec.op(
            "verify", self.run, "verify", "all", "--seed", str(self.seed),
            "--trials", str(VERIFY_TRIALS), "--threads", "2", "--json", accept=_exit_ok,
        )
        if proc:
            rec.check(json.loads(proc.stdout)["pass"] is True, "verify all: pass is not true")
        demo = self.out / "demo"
        proc = rec.op(
            "short", self.run, "fragment-diff", "--spec", "fourier:[(1,0,0.005)]",
            "--out", str(demo), "--json", accept=_exit_ok,
        )
        if proc:
            rec.check(json.loads(proc.stdout)["pass"] is True, "fragment-diff: pass is not true")
            t = ind.grid(N)
            read = [np.loadtxt(demo / f"{name}.csv", delimiter=",")[:, 1] - t for name in ("gamma", "xi1", "xi2", "xi3")]
            err = ind.recompose_error(read[0], read[1:])
            rec.check(err < 1e-7, f"fragment-diff: factors written to CSV recompose to {err:.3e}")
        proc = rec.op(
            "short", self.run, "fragment-loop", "--spec", "exp:[(1,1,0,0.02)]",
            "--out", str(self.out / "loop"), "--json", accept=_exit_ok,
        )
        if proc:
            rec.check(json.loads(proc.stdout)["pass"] is True, "fragment-loop: pass is not true")
        proc = rec.op("short", self.run, "cocycle", "bott", "fourier:[(1,0,0.004)]", "fourier:[(2,0.003,0)]", accept=_exit_ok)
        if proc:
            value = float(proc.stdout)
            rec.check(abs(value - self.bott_ref) <= 1e-9 * abs(self.bott_ref), f"cocycle bott printed {value!r}, direct sum {self.bott_ref!r}")
        for operands, want in (
            (("vect", "monomial:2", "monomial:-2"), -6.0),
            (("omega", "su2:[(1,1,1,0)]", "su2:[(1,1,0,1)]"), -1.0),
        ):
            proc = rec.op("short", self.run, "cocycle", *operands, accept=_exit_ok)
            if proc:
                value = float(proc.stdout)
                rec.check(abs(value - want) < 1e-9, f"cocycle {operands[0]} printed {value!r}, not {want}")
        proc = rec.op("short", self.run, "verma", "--c", "1/2", "--h", "1/16", "--level", "2", accept=_exit_ok)
        if proc:
            payload = json.loads(proc.stdout)
            rec.check(Fraction(payload["determinant"]) == self.verma_det, f"verma level 2 determinant {payload['determinant']}")
        # a diffeomorphism with gamma' < 0: bad operands, documented exit code 2
        rec.op("bad", self.run, "fragment-diff", "--spec", "fourier:[(1,0,2.0)]", "--out", str(self.out / "bad"), accept=_exit_bad_operands)
        rec.op("bad", self.run, "cocycle", "bott", "fourier:[(1,0,2.0)]", "fourier:[(2,0.003,0)]", accept=_exit_bad_operands)

        if rec.traced:
            for suite in ("diff", "loop", "cocycle", "verma"):
                report = rec.tracer.span(f"verify.{suite}", verify.run_suites, suite, self.seed, VERIFY_TRIALS, N, 2)
                rec.check(report.passed, f"verify {suite} in process: a check failed")

    @staticmethod
    def named(rec):
        return {
            "verify_s": (rec.round_total("verify"), "s"),
            "cli_cmd_s": (rec.p50_ms("short") / 1e3, "s"),
            "cli_cmd_per_s": (rec.rate("short"), "commands/s"),
            "readme_s": (rec.round_total("short"), "s"),
        }

    slots = {
        "primary_per_s": "cli_cmd_per_s",
        "primary_ms_p50": ("cli_cmd_s", 1e3),
        "secondary_ms_p50": ("verify_s", 1e3),
        "tertiary_ms_p50": ("readme_s", 1e3),
    }
    primary = "short"


WORKLOADS = {w.name: w for w in (FragSweep, GroupLaws, VermaExact, CliSession)}


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
