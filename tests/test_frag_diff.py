import numpy as np
import pytest

from circlekit.diffeo import CircleDiffeo, CoverConfig, IntervalArc, compose, support
from circlekit.errors import NeighbourhoodError
from circlekit.frag_diff import (
    EpsilonNeighbourhood,
    alpha1,
    alpha1_bound,
    beta1,
    beta1_bound,
    beta1_integral_form,
    fragment,
    fragment_pair,
    solve_monotone,
    _fragmenter,
    _pair_stage,
    _solve_inside,
    _stage_localize,
)
from circlekit.periodic import TWO_PI, PeriodicFunction, _upsample_real, grid
from circlekit.sampling import random_diffeo, random_supported_diffeo, rng_for

N = 1024
COVER = CoverConfig.default()
T = grid(N)


def outside(g, arc):
    return float(np.abs(g.periodic_part.samples[~arc.contains(T)]).max())


def simpson(f, a, b, m=1_000_000):
    x = np.linspace(a, b, m + 1)
    y = f(x)
    return (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()) * (b - a) / (3 * m)


def test_alpha1_identity_is_zero():
    assert alpha1(CircleDiffeo.identity(N), COVER) == 0.0


def test_alpha1_vanishes_when_identity_below_b1():
    # gamma = id on [0, b1]: boundary term and integrand both vanish
    g = random_supported_diffeo(rng_for(11, 0), IntervalArc(3.0, 6.0), 0.01, N)
    assert abs(alpha1(g, COVER)) < 1e-9


def test_alpha1_against_simpson_oracle():
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.005)], N)
    frag = _fragmenter(COVER, N)
    dc = frag.stage1.bumps.center
    a, ha = COVER.i1.a, COVER.ihat1.a
    integral = simpson(lambda x: 0.005 * np.cos(x) * dc.values(x), 0.0, ha)
    expected = 2.0 / (ha - a) * ((ha + 0.005 * np.sin(ha)) - ha - integral)
    assert alpha1(g, COVER) == pytest.approx(expected, abs=1e-9)


def test_beta1_against_simpson_oracle():
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.005)], N)
    frag = _fragmenter(COVER, N)
    dc = frag.stage1.bumps.center
    hb, b = COVER.ihat1.b, COVER.i1.b
    integral = simpson(lambda x: 0.005 * np.cos(x) * dc.values(x), hb, b)
    expected = 2.0 / (b - hb) * (hb - (hb + 0.005 * np.sin(hb)) - integral)
    assert beta1(g, COVER) == pytest.approx(expected, abs=1e-9)


def test_beta1_forms_agree():
    for i in range(5):
        g = random_diffeo(rng_for(12, i), 0.01, N)
        a = alpha1(g, COVER)
        assert beta1(g, COVER) == pytest.approx(
            beta1_integral_form(g, COVER, alpha=a), abs=1e-9
        )


def test_neighbourhood_gate():
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.02)], N)
    with pytest.raises(NeighbourhoodError):
        alpha1(g, COVER, eps=0.01)
    with pytest.raises(NeighbourhoodError):
        fragment(g, COVER, eps=0.01)


def test_eps_above_positivity_threshold_rejected():
    frag = _fragmenter(COVER, N)
    g = CircleDiffeo.identity(N)
    with pytest.raises(NeighbourhoodError):
        frag.fragment(g, eps=frag.epsilon1 * 1.01)


def test_epsilon_neighbourhood_membership():
    hood = EpsilonNeighbourhood(0.01)
    assert hood.contains(CircleDiffeo.identity(N))
    assert hood.contains(CircleDiffeo.from_fourier([(1, 0.0, 0.004)], N))
    assert not hood.contains(CircleDiffeo.from_fourier([(3, 0.0, 0.004)], N))


def test_fragment_identity():
    res = fragment(CircleDiffeo.identity(N), COVER)
    assert res.reconstruction_error < 1e-12
    for xi in (res.xi1, res.xi2, res.xi3):
        assert xi.displacement() < 1e-12
    assert res.alpha1 == 0.0 and res.beta1 == 0.0


def test_fragment_random_element():
    g = random_diffeo(rng_for(13, 0), 0.01, N)
    res = fragment(g, COVER)
    assert res.reconstruction_error < 1e-7
    for xi, arc in zip((res.xi1, res.xi2, res.xi3), COVER.intervals):
        assert outside(xi, arc) < 1e-9
        assert support(xi, tol=1e-9) != "full"
    assert abs(res.alpha1) < alpha1_bound(COVER, 0.01)
    assert abs(res.beta1) < beta1_bound(COVER, 0.01)
    assert abs(res.alpha2) < 1e-7
    assert res.periodicity_defect < 1e-10
    # the coarse-grid composition of the factors also reconstructs gamma,
    # up to the factors' spectral tails
    rec = compose(res.xi1, compose(res.xi2, res.xi3))
    assert rec.distance(g) < 1e-6


def test_fragment_plateau_match():
    g = random_diffeo(rng_for(13, 1), 0.01, N)
    res = fragment(g, COVER)
    mask = COVER.ihat1.contains(T)
    diff = res.xi1.periodic_part.samples[mask] - g.periodic_part.samples[mask]
    assert np.abs(diff).max() < 1e-9
    # the remainder is the identity on the inner intervals of I1 and I2
    mask12 = COVER.ihat1.contains(T) | COVER.ihat2.contains(T)
    assert np.abs(res.xi3.periodic_part.samples[mask12]).max() < 1e-9


def test_fragment_supported_in_i1_refinement():
    g = random_supported_diffeo(rng_for(14, 0), COVER.i1, 0.01, N)
    res = fragment(g, COVER)
    i12 = IntervalArc(COVER.i2.a, COVER.i1.b)
    i13 = IntervalArc(COVER.i1.a, COVER.i3.b - TWO_PI)
    assert outside(res.xi2, i12) < 1e-9
    assert outside(res.xi3, i13) < 1e-9


def test_fragment_identity_on_overlap_when_support_avoids_it():
    # support misses (a2, b1), so the first factor fixes that gap pointwise
    arc = IntervalArc(COVER.i1.a + 0.05, COVER.i2.a - 0.05)
    g = random_supported_diffeo(rng_for(14, 1), arc, 0.01, N)
    res = fragment(g, COVER)
    gap = IntervalArc(COVER.i2.a, COVER.i1.b)
    assert np.abs(res.xi1.periodic_part.samples[gap.contains(T)]).max() < 1e-9


def test_fragment_continuity():
    base = random_diffeo(rng_for(15, 0), 0.009, N)
    wig = random_diffeo(rng_for(15, 1), 1e-5, N)
    moved = CircleDiffeo(
        PeriodicFunction(base.periodic_part.samples + wig.periodic_part.samples)
    )
    delta = max(
        np.abs(moved.periodic_part.samples - base.periodic_part.samples).max(),
        np.abs(moved.deriv.samples - base.deriv.samples).max(),
    )
    r1 = fragment(base, COVER)
    r2 = fragment(moved, COVER)
    spread = max(
        r1.xi1.distance(r2.xi1), r1.xi2.distance(r2.xi2), r1.xi3.distance(r2.xi3)
    )
    assert spread < 100 * delta


def test_fragment_pair():
    left = IntervalArc(0.3, 3.6)
    right = IntervalArc(3.1, TWO_PI + 0.8)
    assert fragment_pair(CircleDiffeo.identity(N), left, right)[0].displacement() == 0.0

    g = random_diffeo(rng_for(16, 0), 0.01, N)
    gl, gr = fragment_pair(g, left, right)
    assert compose(gl, gr).distance(g) < 1e-7
    assert outside(gl, left) < 1e-9
    assert outside(gr, right) < 1e-9

    # support only in the left arc: the right factor lands in the overlap
    gs = random_supported_diffeo(rng_for(16, 1), IntervalArc(1.0, 2.8), 0.01, N)
    _, gr = fragment_pair(gs, left, right)
    overlap_mask = left.contains(T) & right.contains(T)
    assert np.abs(gr.periodic_part.samples[~overlap_mask]).max() < 1e-9


@pytest.mark.parametrize("n", [1024, 4096])
def test_interval_restricted_solves_match_full_solves(n):
    # each factor is the identity off its interval, so Newton on the targets
    # inside it gives what Newton on every target gives
    frag = _fragmenter(COVER, n)
    t_fine = grid(n * frag.factor)
    for i in range(3):
        g = random_diffeo(rng_for(20260810, 1, i), 0.01, n)
        p1, _, _, _ = _stage_localize(g, frag.stage1, frag.factor)
        xi1 = CircleDiffeo(PeriodicFunction(p1))
        g_fine = t_fine + _upsample_real(g.periodic_part.samples, frag.factor)
        q = _solve_inside(xi1, COVER.i1, g_fine)
        assert np.abs(q - solve_monotone(xi1, g_fine)).max() < 1e-15
        q_fine = CircleDiffeo(PeriodicFunction(q - t_fine))
        p2, _, _, _ = _stage_localize(q_fine, frag.stage2, 1)
        xi2 = CircleDiffeo(PeriodicFunction(p2))
        q_coarse = q_fine.samples[:: frag.factor]
        xi3 = _solve_inside(xi2, COVER.i2, q_coarse)
        assert np.abs(xi3 - solve_monotone(xi2, q_coarse)).max() < 1e-15


def test_fragment_pair_cutoffs_memoized():
    left = IntervalArc(0.3, 3.6)
    right = IntervalArc(3.1, TWO_PI + 0.8)
    g = random_diffeo(rng_for(16, 2), 0.01, N)
    _pair_stage.cache_clear()
    first = fragment_pair(g, left, right)
    again = fragment_pair(g, left, right)
    assert _pair_stage.cache_info().hits == 1
    for a, b in zip(first, again):
        assert np.array_equal(a.periodic_part.samples, b.periodic_part.samples)


def test_coarse_factors_recompose_by_direct_sum():
    """reconstruction_error is measured through the fine factors; the coarse
    factors a caller gets recompose gamma up to their spectral tails."""

    def trig(p, x):
        c = np.fft.rfft(p) / len(p)
        w = np.full(len(c), 2.0)
        w[0] = w[-1] = 1.0
        return (np.exp(1j * np.outer(x, np.arange(len(c)))) @ (w * c)).real

    frag = _fragmenter(COVER, N)
    worst = 0.0
    for i in range(50):
        g = random_diffeo(rng_for(20260810, 1, i), 0.01, N)
        res = frag.fragment(g, eps=0.01)
        x3 = res.xi3.samples
        x2 = x3 + trig(res.xi2.periodic_part.samples, x3)
        x1 = x2 + trig(res.xi1.periodic_part.samples, x2)
        worst = max(worst, float(np.abs(x1 - g.samples).max()))
    assert worst < 1e-7
