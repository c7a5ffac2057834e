"""SHA-256 digests pinned so any drift fails cheaply: the stdout of one `verma`
CLI call, the Gram matrices at levels 0..10 of each `VERMA_PARAMETERS` module,
one `verify all` report, the CSV files the CLI and `to_csv` write, the
spectral operations of `PeriodicFunction` and the geometry of the
three-interval cover."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from circlekit import frag_diff, loops
from circlekit.cli import main
from circlekit.diffeo import CircleDiffeo, CoverConfig, IntervalArc
from circlekit.periodic import TWO_PI, PeriodicFunction, grid
from circlekit.sampling import random_diffeo, rng_for
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

VERIFY_ALL_REPORT = "de8df0e8002266bc1dd19dd43d28092a336815faa8dfad9e7d71ef20b280877c"

# the files one CLI run writes, by command
CSV_DIGESTS = {
    "fragment-diff": {
        "gamma": "9b0ed511c2bf5e44f3a6c8b885bc6c621f944296a8eb15759a18dafd1e665361",
        "xi1": "ffae899609f889da96d67bf6bc0814ab35fa9e95f3715db2e8d807cd7973dd67",
        "xi2": "218bda0943d8fb77e3ac0d955a12a1bb4dcb6305a3bd9e9530ee6950f2f102cd",
        "xi3": "d33d381395cc18b01862489a9b3dafbe826c7a5dfef87a07b3a00ed36a0a4cc5",
    },
    "fragment-loop": {
        "gamma": "199a433bf0a9d6c225dabfc001ced7563f5847e499a249a94a3365bee02e3285",
        "xi1": "1190e35baa493fdc89c7d4a3df9fc7af6c8cae2f54e0d841336c04278e8904c5",
        "xi2": "9108cf677954ca07665505eb18cde3b298dc01d6f2b27bcf397f38bfd0a18971",
        "xi3": "a339f9ebba57353a93052802a4e2b19fc4f987a2d86ebe4d07661338febd7447",
    },
}
CSV_SPECS = {
    "fragment-diff": "fourier:[(3,0.001,0.002),(5,0.0005,0)]",
    "fragment-loop": "exp:[(1,1,0,0.02),(2,2,0.01,0),(3,3,0,0.015)]",
}

# -sin 2t starts with a -0.0 sample, written "-0"
SCALAR_CSV_DIGESTS = {
    "real": "9bdb5c872985572000f65089eebaef8e598c73b4e239eb92f5a838964dde86ba",
    "complex": "7c2d75116925a0c7486c2f135961cdd583eca5b4eb9ff21b51dd49e0f0efd474",
}

# the bytes of every spectral operation of PeriodicFunction, see test_spectral_digest
SPECTRAL_DIGEST = "f767a8a4db8a68f7934e7df2a5729311229b572440cb1ce593fa0c28a0e5610d"

# the bytes of the cover geometry, see test_geometry_digest
GEOMETRY_DIGEST = "28bd1ca6f09d17f2c189ac01e2954a0dcca240a53d57d545a1a8333af336959a"


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



def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(CSV_SPECS))
def test_cli_csv_digests(command, tmp_path):
    """The four CSVs of one CLI run.  Taken under numpy 2.4.6 (Python 3.11.7,
    x86-64), as the report digest above."""
    assert main([command, "--spec", CSV_SPECS[command], "--out", str(tmp_path), "--json"]) == 0
    assert {name: _sha256(tmp_path / f"{name}.csv") for name in CSV_DIGESTS[command]} == CSV_DIGESTS[command]


@pytest.mark.parametrize("kind", sorted(SCALAR_CSV_DIGESTS))
def test_to_csv_digests(kind, tmp_path):
    """PeriodicFunction.to_csv of a real and a complex scalar on 16 points,
    taken under numpy 2.4.6."""
    t = grid(16)
    samples = -np.sin(2 * t) if kind == "real" else np.exp(1j * t) * (0.5 - 0.25j)
    PeriodicFunction(samples).to_csv(tmp_path / "f.csv")
    assert _sha256(tmp_path / "f.csv") == SCALAR_CSV_DIGESTS[kind]


def _spectral_inputs(n: int):
    """Four seeded inputs on n points: real, complex, real 2x3 and complex 2x2."""
    rng = np.random.default_rng(20260810 + n)
    shapes = [((n,), False), ((n,), True), ((n, 2, 3), False), ((n, 2, 2), True)]
    out = []
    for shape, complex_ in shapes:
        s = rng.normal(size=shape)
        out.append(s + 1j * rng.normal(size=shape) if complex_ else s)
    return out


def test_spectral_digest():
    """spectrum, tail, derivative(1, 2, 3), antiderivative, eval at 50 off-grid
    points, resample(4n) and resample(n/2) of the four inputs at n = 64 and
    1024, taken under numpy 2.4.6 (Python 3.11.7, x86-64).  The data resampled
    down is made antiperiodic, f(t + pi) = -f(t), so it has no mode at n/4,
    where the real and complex truncations fold a mode differently."""
    x = np.random.default_rng(7).uniform(-7.0, 7.0, 50)
    digest = hashlib.sha256()
    for n in (64, 1024):
        for s in _spectral_inputs(n):
            f = PeriodicFunction(s)
            down = PeriodicFunction(s - np.roll(s, n // 2, axis=0)).resample(n // 2)
            parts = [f.spectrum, np.float64(f.tail)]
            parts += [f.derivative(order).samples for order in (1, 2, 3)]
            parts += [f.antiderivative()[0].samples, f.eval(x), f.resample(4 * n).samples, down.samples]
            for a in parts:
                digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == SPECTRAL_DIGEST


def _geometry_covers():
    """The default cover at margins 0.1 and 0.3, and a cover read from JSON
    whose every endpoint differs from the default's."""
    custom = {
        "I": [[0.4, 2.8], [2.1, 4.9], [4.4, TWO_PI + 0.9]],
        "Ihat": [[0.55, 2.6], [2.3, 4.7], [4.6, TWO_PI + 0.75]],
        "margin": 0.2,
    }
    return [CoverConfig.default(), dataclasses.replace(CoverConfig.default(), margin=0.3), CoverConfig.from_json(json.dumps(custom))]


def test_geometry_covers_construct():
    """Every cover of the geometry digest passes CoverConfig's checks and
    builds its loop cutoffs."""
    covers = _geometry_covers()
    assert len(covers) == 3
    for cover in covers:
        loops.loop_cutoffs(cover)


def test_geometry_digest():
    """Loop cutoff weights at n = 256, interval membership on points spanning
    six periods, the stage arrays and epsilon1 of DiffeoFragmenter(cover, 1024),
    alpha1, beta1 and beta1_integral_form of three seeded diffeomorphisms and
    the fragment_pair factors on the verify suite's arcs, taken under numpy
    2.4.6 (Python 3.11.7, x86-64)."""
    digest = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())

    covers = _geometry_covers()
    x = np.linspace(-3 * TWO_PI, 3 * TWO_PI, 4001)
    for cover in covers:
        c1, c2, weights = loops._cutoff_weights(cover, 256)
        add(c1, c2, *weights)
        arcs = cover.intervals + cover.inner_intervals
        for arc in arcs:
            add(arc.contains(x), [arc.contains_arc(other) for other in arcs])
    for cover in covers[::2]:
        fragmenter = frag_diff.DiffeoFragmenter(cover, 1024)
        for stage in (fragmenter.stage1, fragmenter.stage2):
            left, right = np.zeros_like(stage.center_fine), np.zeros_like(stage.center_fine)
            left[stage.left_nodes] = stage.left_values
            right[stage.right_nodes] = stage.right_values
            add(stage.endpoints, stage.center_fine, left, right)
            add([stage.left_mass, stage.right_mass])
        add([fragmenter.epsilon1])
        for i in range(3):
            g = random_diffeo(rng_for(20260810, 3, i), 0.01, 1024)
            alpha = frag_diff.alpha1(g, cover)
            add([alpha, frag_diff.beta1(g, cover), frag_diff.beta1_integral_form(g, cover, alpha=alpha)])
    left, right = IntervalArc(0.3, 3.6), IntervalArc(3.1, TWO_PI + 0.8)
    for g in (CircleDiffeo.identity(1024), random_diffeo(rng_for(20260810, 4, 0), 0.01, 1024)):
        add(*(f.periodic_part.samples for f in frag_diff.fragment_pair(g, left, right)))
    assert digest.hexdigest() == GEOMETRY_DIGEST
