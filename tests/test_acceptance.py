"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -s` to see the lines as they appear.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from circlekit import cocycles, frag_diff, loops, verma
from circlekit.diffeo import CircleDiffeo, CoverConfig, IntervalArc, compose
from circlekit.periodic import PeriodicFunction, grid
from circlekit.sampling import (
    random_diffeo,
    random_loop_algebra,
    random_supported_diffeo,
    rng_for,
)

SEED = 20260810
N = 1024
T = grid(N)
COVER = CoverConfig.default()
ARCS = COVER.intervals
OUTSIDE_MASKS = [~arc.contains(T) for arc in ARCS]


def report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def diff_frag_sweep():
    """1000 seeded fragmentations shared by criteria 1 and 2."""
    fragmenter = frag_diff.DiffeoFragmenter(COVER, N)
    a_bound = frag_diff.alpha1_bound(COVER, 0.01)
    b_bound = frag_diff.beta1_bound(COVER, 0.01)
    worst = {"rec": 0.0, "outside": 0.0, "bound_ratio": 0.0, "min_deriv": np.inf}
    start = time.perf_counter()
    for i in range(1000):
        g = random_diffeo(rng_for(SEED, 1, i), 0.01, N)
        res = fragmenter.fragment(g, eps=0.01)
        worst["rec"] = max(worst["rec"], res.reconstruction_error)
        for xi, mask in zip((res.xi1, res.xi2, res.xi3), OUTSIDE_MASKS):
            worst["outside"] = max(
                worst["outside"], float(np.abs(xi.periodic_part.samples[mask]).max())
            )
        worst["bound_ratio"] = max(
            worst["bound_ratio"], abs(res.alpha1) / a_bound, abs(res.beta1) / b_bound
        )
        worst["min_deriv"] = min(
            worst["min_deriv"],
            float(res.xi1.deriv_samples.min()),
            float(res.xi2.deriv_samples.min()),
        )
    worst["seconds"] = time.perf_counter() - start
    return worst


def test_criterion_1_diff_fragmentation(diff_frag_sweep):
    w = diff_frag_sweep
    passed = w["rec"] < 1e-7 and w["outside"] < 1e-9 and w["seconds"] < 60.0
    report(
        1,
        passed,
        f"1000 trials: reconstruction {w['rec']:.3e} < 1e-7, "
        f"outside-support {w['outside']:.3e} < 1e-9, runtime {w['seconds']:.1f}s < 60s",
    )


def test_criterion_2_coefficient_bounds(diff_frag_sweep):
    w = diff_frag_sweep
    passed = w["bound_ratio"] < 1.0 and w["min_deriv"] > 0.0
    report(
        2,
        passed,
        f"bound ratio {w['bound_ratio']:.3f} < 1 strictly, "
        f"min localized derivative {w['min_deriv']:.3f} > 0",
    )


def test_criterion_3_support_refinements():
    fragmenter = frag_diff.DiffeoFragmenter(COVER, N)
    i12, _, i13 = COVER.overlaps
    out12, out13 = ~i12.contains(T), ~i13.contains(T)
    worst_refine = 0.0
    for i in range(50):
        g = random_supported_diffeo(rng_for(SEED, 3, i), COVER.i1, 0.01, N)
        res = fragmenter.fragment(g, eps=0.01)
        worst_refine = max(
            worst_refine,
            float(np.abs(res.xi2.periodic_part.samples[out12]).max()),
            float(np.abs(res.xi3.periodic_part.samples[out13]).max()),
        )
    gap = IntervalArc(COVER.i2.a, COVER.i1.b)
    gap_mask = gap.contains(T)
    arc = IntervalArc(COVER.i1.a + 0.05, COVER.i2.a - 0.05)
    worst_gap = 0.0
    for i in range(50):
        g = random_supported_diffeo(rng_for(SEED, 4, i), arc, 0.01, N)
        res = fragmenter.fragment(g, eps=0.01)
        worst_gap = max(
            worst_gap, float(np.abs(res.xi1.periodic_part.samples[gap_mask]).max())
        )
    passed = worst_refine < 1e-9 and worst_gap < 1e-9
    report(
        3,
        passed,
        f"refined supports {worst_refine:.3e} < 1e-9, "
        f"identity on overlap {worst_gap:.3e} < 1e-9",
    )


def test_criterion_4_loop_fragmentation():
    worst_rec = worst_out = worst_agree = 0.0
    for i in range(1000):
        xi = random_loop_algebra(rng_for(SEED, 5, i), 0.05, N)
        g = loops.exp_loop(xi)
        parts = loops.fragment_loop(g, COVER)
        rec = loops.multiply(parts[0], loops.multiply(parts[1], parts[2], None), None)
        worst_rec = max(worst_rec, float(np.abs(rec.samples - g.samples).max()))
        for xi_j, mask in zip(parts, OUTSIDE_MASKS):
            worst_out = max(worst_out, float(xi_j.distance_to_identity()[mask].max()))
        seq = loops.fragment_loop_sequential(g, COVER)
        worst_agree = max(
            worst_agree,
            max(float(np.abs(a.samples - b.samples).max()) for a, b in zip(parts, seq)),
        )
    passed = worst_rec < 1e-9 and worst_out < 1e-9 and worst_agree < 1e-9
    report(
        4,
        passed,
        f"1000 trials: reconstruction {worst_rec:.3e} < 1e-9, "
        f"supports {worst_out:.3e}, sequential agreement {worst_agree:.3e} < 1e-9",
    )


def test_criterion_5_group_cocycle():
    worst_res = 0.0
    for i in range(1000):
        rng = rng_for(SEED, 6, i)
        g1, g2, g3 = (random_diffeo(rng, 0.05, N) for _ in range(3))
        worst_res = max(
            worst_res, cocycles.cocycle_identity_residual(cocycles.bott, g1, g2, g3)
        )
    worst_vir = 0.0
    for i in range(100):
        rng = rng_for(SEED, 7, i)
        xs = [
            cocycles.VirasoroElement(rng.normal(), random_diffeo(rng, 0.05, N))
            for _ in range(3)
        ]
        left = cocycles.vir_multiply(cocycles.vir_multiply(xs[0], xs[1]), xs[2])
        right = cocycles.vir_multiply(xs[0], cocycles.vir_multiply(xs[1], xs[2]))
        worst_vir = max(worst_vir, abs(left.a - right.a))
    worst_rot = 0.0
    for i in range(20):
        rng = rng_for(SEED, 8, i)
        worst_rot = max(
            worst_rot,
            abs(
                cocycles.bott(
                    CircleDiffeo.rotation(rng.uniform(-np.pi, np.pi), N),
                    CircleDiffeo.rotation(rng.uniform(-np.pi, np.pi), N),
                )
            ),
        )
    passed = worst_res < 1e-8 and worst_vir < 1e-8 and worst_rot < 1e-12
    report(
        5,
        passed,
        f"cocycle identity {worst_res:.3e} < 1e-8 (1000 triples), "
        f"associativity {worst_vir:.3e} < 1e-8, rotations {worst_rot:.3e} < 1e-12",
    )


def test_criterion_6_algebra_cocycles():
    worst = 0.0
    for i in range(200):
        rng = rng_for(SEED, 9, i)
        xi, eta, zeta = (random_loop_algebra(rng, 0.5, N) for _ in range(3))
        worst = max(worst, abs(loops.omega(xi, eta) + loops.omega(eta, xi)))
        worst = max(
            worst,
            abs(
                loops.omega(loops.bracket(xi, eta), zeta)
                + loops.omega(loops.bracket(eta, zeta), xi)
                + loops.omega(loops.bracket(zeta, xi), eta)
            ),
        )
        f = random_diffeo(rng, 0.05, N)
        worst = max(
            worst,
            abs(
                loops.omega(loops.precompose(xi, f), loops.precompose(eta, f))
                - loops.omega(xi, eta)
            ),
        )
    worst_local = 0.0
    worst_vect_local = 0.0
    for i in range(100):
        rng = rng_for(SEED, 10, i)
        b1 = random_supported_diffeo(rng, IntervalArc(0.2, 2.0), 0.5, N).periodic_part
        b2 = random_supported_diffeo(rng, IntervalArc(2.4, 5.0), 0.5, N).periodic_part
        xi = random_loop_algebra(rng, 1.0, N).scaled(b1.samples)
        eta = random_loop_algebra(rng, 1.0, N).scaled(b2.samples)
        worst_local = max(worst_local, abs(loops.omega(xi, eta)))
        worst_vect_local = max(worst_vect_local, abs(cocycles.vect_cocycle(b1, b2)))
    mono = abs(
        cocycles.vect_cocycle(
            PeriodicFunction(np.exp(2j * T)), PeriodicFunction(np.exp(-2j * T))
        )
        - (-6.0)
    )
    passed = (
        max(worst, worst_local) < 1e-8 and worst_vect_local < 1e-10 and mono < 1e-9
    )
    report(
        6,
        passed,
        f"omega identities {worst:.3e} < 1e-8, locality {worst_local:.3e}, "
        f"algebra-cocycle locality {worst_vect_local:.3e} < 1e-10, "
        f"monomial value off by {mono:.3e} < 1e-9",
    )


def test_criterion_7_virasoro_bracket():
    start = time.perf_counter()
    pairs = [
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 16)),
        (Fraction(1), Fraction(1)),
        (Fraction(26), Fraction(3, 2)),
    ]
    checks = 0
    failures = 0
    gram_ok = True
    for c, h in pairs:
        module = verma.VermaModule(c, h, 8)
        for m in range(-4, 5):
            for n in range(-4, 5):
                for level in range(8 - abs(m) - abs(n) + 1):
                    for part in verma.partitions(level):
                        state = verma.VermaState({part: Fraction(1)}, c, h)
                        checks += 1
                        if not module.commutator_check(m, n, state):
                            failures += 1
        gram_ok = gram_ok and module.gram_matrix(1) == [[2 * h]]
    elapsed = time.perf_counter() - start
    passed = failures == 0 and gram_ok and elapsed < 30.0
    report(
        7,
        passed,
        f"{checks} exact bracket checks, {failures} failures, level-1 pairing "
        f"{'exact' if gram_ok else 'WRONG'}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_8_deterministic_verify():
    args = [
        sys.executable, "-m", "circlekit",
        "verify", "all", "--seed", "11", "--trials", "4", "--grid", "1024", "--json",
    ]
    outs = []
    for extra in ([], [], ["--threads", "2"]):
        proc = subprocess.run(args + extra, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(proc.stdout.encode())
    passed = outs[0] == outs[1] == outs[2]
    payload = json.loads(outs[0])
    passed = passed and payload["pass"] is True
    report(
        8,
        passed,
        f"{len(payload['checks'])} checks, byte-identical across runs and "
        f"thread counts: {outs[0] == outs[1] == outs[2]}",
    )
