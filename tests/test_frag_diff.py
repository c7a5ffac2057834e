import collections
import dataclasses

import numpy as np
import pytest

from circlekit import frag_diff
from circlekit.diffeo import CircleDiffeo, CoverConfig, IntervalArc, compose, support
from circlekit.errors import GeometryError, NeighbourhoodError
from circlekit.frag_diff import (
    BUILD_FACTOR,
    DiffeoFragmenter,
    EpsilonNeighbourhood,
    alpha1,
    alpha1_bound,
    beta1,
    beta1_bound,
    beta1_integral_form,
    fragment,
    fragment_pair,
    solve_monotone,
    _build_factor,
    _remainder,
    _stage,
    _stage_localize,
)
from circlekit.periodic import TWO_PI, PeriodicFunction, grid
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
    frag = DiffeoFragmenter(COVER, N)
    dc = frag.stage1.bumps.center
    a, ha = COVER.i1.a, COVER.ihat1.a
    integral = simpson(lambda x: 0.005 * np.cos(x) * dc.values(x), 0.0, ha)
    expected = 2.0 / (ha - a) * ((ha + 0.005 * np.sin(ha)) - ha - integral)
    assert alpha1(g, COVER) == pytest.approx(expected, abs=1e-9)


def test_beta1_against_simpson_oracle():
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.005)], N)
    frag = DiffeoFragmenter(COVER, N)
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
    frag = DiffeoFragmenter(COVER, N)
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
    i12, _, i13 = COVER.overlaps
    assert outside(res.xi2, i12) < 1e-9
    assert outside(res.xi3, i13) < 1e-9


def test_fragment_identity_on_overlap_when_support_avoids_it():
    # support misses (a2, b1), so the first factor fixes that gap pointwise
    arc = IntervalArc(COVER.i1.a + 0.05, COVER.i2.a - 0.05)
    g = random_supported_diffeo(rng_for(14, 1), arc, 0.01, N)
    res = fragment(g, COVER)
    gap = COVER.overlaps[0]
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


PAIR_ARCS = (IntervalArc(0.3, 3.6), IntervalArc(3.1, TWO_PI + 0.8))


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("site", ["first", "second", "pair"])
def test_remainder_solves_skip_the_plateau(site, n, monkeypatch):
    """Each factor equals its remainder's target on the inner interval, so
    every remainder solve takes each node there as its own preimage: the
    remainder vanishes exactly on those nodes, and Newton sees only what is
    left of the interval (all of it is 37 to 53 % of the grid).  The nodes it
    skips inside the interval are exactly the inner ones, where the factor and
    gamma agree to 1e-15, and the answer is the one Newton on every target
    gives."""
    solved, calls = [], []

    def counting_solve(g, targets):
        solved.append(np.array(targets))
        return solve_monotone(g, targets)

    def recording_remainder(xi_fine, stage, p):
        before = len(solved)
        out = _remainder(xi_fine, stage, p)
        calls.append((xi_fine, stage, p, out, np.concatenate(solved[before:])))
        return out

    monkeypatch.setattr(frag_diff, "solve_monotone", counting_solve)
    monkeypatch.setattr(frag_diff, "_remainder", recording_remainder)
    frag = DiffeoFragmenter(COVER, n)
    for i in range(3):
        calls.clear()
        g = random_diffeo(rng_for(777, n, i), 0.01, n)
        if site == "pair":
            fragment_pair(g, *PAIR_ARCS)
        else:
            frag.fragment(g)
        xi_fine, stage, p, out, newton = calls[site == "second"]
        t = grid(len(p))
        stride = xi_fine.n // len(p)
        _, ha, hb, _ = stage.endpoints
        plateau = IntervalArc(ha, hb).contains(t)
        assert np.all(out.periodic_part.samples[plateau] == 0.0)
        assert len(newton) <= (0.20 if site == "pair" else 0.15) * len(t)
        targets = t + p
        assert np.abs(out.samples - solve_monotone(xi_fine, targets)).max() <= 1e-15
        skipped = stage.interval.contains(targets) & ~np.isin(targets, newton)
        assert np.array_equal(skipped, plateau)
        assert np.abs(xi_fine.periodic_part.samples[::stride] - p)[plateau].max() <= 1e-15


def _count_transform_sizes(monkeypatch) -> collections.Counter:
    """Patch np.fft.rfft and irfft to count their calls by grid size: the
    input length of an rfft, the output length of an irfft."""
    sizes = collections.Counter()
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, n=None, *args, _original=original, _name=name, **kwargs):
            sizes[n if _name == "irfft" else len(a)] += 1
            return _original(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return sizes


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_fine_grid_transforms_per_fragmentation(n, monkeypatch):
    """A stage builds its factor from spectra it already holds: at most 8
    transforms on the construction grid per fragment and 3 per fragment_pair
    (14 and 6 when each factor was transformed back and re-derived).  At
    n = 16384 the construction grid is the input grid, so the count takes in
    the coarse factors' transforms too: 12 and 6, against 8 + 7 and 3 + 4 on
    two grids at n = 1024."""
    m = n * _build_factor(n)
    per_fragment, per_pair = (8, 3) if m > n else (12, 6)
    frag = DiffeoFragmenter(COVER, n)
    warm = random_diffeo(rng_for(17, n, 0), 0.01, n)
    frag.fragment(warm)
    fragment_pair(warm, *PAIR_ARCS)  # every stage built and cached
    g = random_diffeo(rng_for(17, n, 1), 0.01, n)
    sizes = _count_transform_sizes(monkeypatch)
    frag.fragment(g)
    assert 0 < sizes[m] <= per_fragment
    sizes.clear()
    fragment_pair(g, *PAIR_ARCS)
    assert 0 < sizes[m] <= per_pair


def test_construction_grid_size():
    """The construction grid holds min(8n, max(n, 16384)) nodes, so stage 2
    at n = 2048 and at n = 4096 is one cached stage."""
    sizes = {n: n * _build_factor(n) for n in (16, 1024, 2048, 4096, 8192, 16384, 65536)}
    assert sizes == {16: 128, 1024: 8192, 2048: 16384, 4096: 16384, 8192: 16384, 16384: 16384, 65536: 65536}
    assert DiffeoFragmenter(COVER, 2048).stage2 is DiffeoFragmenter(COVER, 4096).stage2


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_first_stage_coefficients_have_one_owner(n, monkeypatch):
    """alpha1, beta1 and beta1_integral_form read the fragmenter's own first
    stage, on its construction grid: alpha1 and beta1 equal the fragment's
    coefficients bit for bit."""
    frag = DiffeoFragmenter(COVER, n)
    g = random_diffeo(rng_for(21, n), 0.01, n)
    res = frag.fragment(g)
    read = []
    cached = frag_diff._stage
    monkeypatch.setattr(frag_diff, "_stage", lambda *key: read.append(cached(*key)) or read[-1])
    a = alpha1(g, COVER)
    assert a == res.alpha1 and beta1(g, COVER) == res.beta1
    assert abs(beta1_integral_form(g, COVER, alpha=a) - res.beta1) <= 1e-12
    assert len(read) == 3 and all(stage is frag.stage1 for stage in read)
    # without alpha, beta1_integral_form computes alpha1 itself
    assert beta1_integral_form(g, COVER) == beta1_integral_form(g, COVER, alpha=a)


def test_fine_factors_carry_their_construction(monkeypatch):
    """xi1_fine, xi2_fine and the fragment_pair factor are built with their
    spectra and derivative already known.  Both spectra match those of the
    same periodic part re-derived spectrally to 1e-14, and the derivative's
    has exactly zero mean and Nyquist entries, as a spectral derivative's
    has.  The derivative samples match the spectral derivative of the factor's
    samples taken in long double (80-bit on x86-64) to 1e-14.  The double
    re-derivation zeroes coefficients below 4 eps max|c_k|, part of the
    cutoffs' Gevrey tail, so it is held to 1e-12 only."""
    built = []

    def recording_localize(g, stage):
        out = _stage_localize(g, stage)
        xi = out[0]
        built.append((xi, xi.periodic_part._spectrum, xi.deriv._spectrum))
        return out

    monkeypatch.setattr(frag_diff, "_stage_localize", recording_localize)
    frag = DiffeoFragmenter(COVER, N)
    for i in range(3):
        g = random_diffeo(rng_for(18, i), 0.01, N)
        frag.fragment(g)
        fragment_pair(g, *PAIR_ARCS)
    assert len(built) == 9
    for xi, p_spec, d_spec in built:
        assert p_spec is not None and d_spec is not None  # no transform was needed
        fresh = CircleDiffeo(PeriodicFunction(xi.periodic_part.samples))
        assert np.abs(p_spec - fresh.periodic_part.spectrum).max() <= 1e-14
        assert np.abs(d_spec - fresh.deriv.spectrum).max() <= 1e-14
        assert d_spec[0] == 0.0 and d_spec[-1] == 0.0
        c = np.fft.rfft(xi.periodic_part.samples.astype(np.longdouble), norm="forward")
        c *= 1j * np.arange(len(c))
        c[-1] = 0.0
        extended = np.fft.irfft(c, xi.n, norm="forward")
        assert np.abs(xi.deriv.samples - extended).max() <= 1e-14
        assert np.abs(xi.deriv.samples - fresh.deriv.samples).max() <= 1e-12


def test_fragment_pair_is_rotation_equivariant(monkeypatch):
    """Rolling g by k nodes and turning both arcs by k h rolls the factors:
    each stage integrates from its own first node outside the left arc, which
    moves off 0 once the turned arc wraps through it."""
    left, right = PAIR_ARCS
    g = random_diffeo(rng_for(16, 3), 0.01, N)
    base = fragment_pair(g, left, right)
    h = TWO_PI / N
    origins = []

    def recording_localize(g, stage):
        origins.append(stage.theta0)
        return _stage_localize(g, stage)

    monkeypatch.setattr(frag_diff, "_stage_localize", recording_localize)
    for k in (0, 100, 300, 512, 700, 900, 1000):
        turned = [IntervalArc(arc.a + k * h, arc.b + k * h) for arc in PAIR_ARCS]
        gk = CircleDiffeo(PeriodicFunction(np.roll(g.periodic_part.samples, k)))
        factors = fragment_pair(gk, *turned)
        for f, f0 in zip(factors, base):
            assert np.abs(f.periodic_part.samples - np.roll(f0.periodic_part.samples, k)).max() <= 1e-14
        assert compose(*factors).distance(gk) < 1e-7
        assert outside(factors[0], turned[0]) < 1e-9
        assert outside(factors[1], turned[1]) < 1e-9
    # k = 512, 700 and 900 turn the left arc through 0
    assert [theta0 != 0.0 for theta0 in origins] == [False, False, False, True, True, True, False]


def test_fragment_pair_cutoffs_memoized():
    left = IntervalArc(0.3, 3.6)
    right = IntervalArc(3.1, TWO_PI + 0.8)
    g = random_diffeo(rng_for(16, 2), 0.01, N)
    _stage.cache_clear()
    first = fragment_pair(g, left, right)
    again = fragment_pair(g, left, right)
    assert _stage.cache_info().hits == 1
    for a, b in zip(first, again):
        assert np.array_equal(a.periodic_part.samples, b.periodic_part.samples)


def direct_sum(p, x):
    """The trigonometric interpolant of the samples p at the points x, summed
    over its rfft modes k: with k = q B + r, e^{ikx} = e^{iqBx} e^{irx}, so the
    sum is one (len(x) x B) @ (B x K/B) product and no len(x) x K table."""
    c = np.fft.rfft(p) / len(p)
    c[1:-1] *= 2.0
    block = 1 << (len(c).bit_length() // 2)
    c = np.concatenate([c, np.zeros(-len(c) % block)]).reshape(-1, block)
    inner = np.exp(1j * np.outer(x, np.arange(block))) @ c.T
    return (inner * np.exp(1j * np.outer(x, block * np.arange(len(c))))).sum(axis=1).real


def recompose_by_direct_sum(res):
    """xi1(xi2(xi3(t_k))) from the returned coarse factors, by direct sum."""
    x3 = res.xi3.samples
    x2 = x3 + direct_sum(res.xi2.periodic_part.samples, x3)
    return x2 + direct_sum(res.xi1.periodic_part.samples, x2)


def test_coarse_factors_recompose_by_direct_sum():
    """reconstruction_error is measured through the fine factors; the coarse
    factors a caller gets recompose gamma up to their spectral tails."""
    frag = DiffeoFragmenter(COVER, N)
    worst = 0.0
    for i in range(50):
        g = random_diffeo(rng_for(20260810, 1, i), 0.01, N)
        res = frag.fragment(g, eps=0.01)
        worst = max(worst, float(np.abs(recompose_by_direct_sum(res) - g.samples).max()))
    assert worst < 1e-7


@pytest.mark.parametrize("n", [4096, 8192, 16384])
def test_construction_grid_resolves_cutoffs(n):
    """The construction grid's 16384 nodes resolve the cutoffs' transitions
    above n = 2048, where it oversamples less than 8x (4x at 4096, none from
    16384 on): the returned factors recompose gamma by direct sum, vanish
    outside their intervals and reconstruct it through the fine factors to
    round-off.  An 8192-node floor fails it."""
    frag = DiffeoFragmenter(COVER, n)
    for i in range(3):
        g = random_diffeo(rng_for(777, n, i), 0.01, n)
        res = frag.fragment(g)
        assert np.abs(recompose_by_direct_sum(res) - g.samples).max() < (5e-12 if n == 4096 else 1e-14)
        assert frag_diff.fragment_residuals(res, COVER, 0.01)[0] <= 4.5e-16
        assert res.reconstruction_error <= 2e-15


def test_fragmenters_share_stages_across_margins():
    # no stage reads the margin, so covers that differ only there share the
    # stages of one bounded cache
    _stage.cache_clear()
    base = DiffeoFragmenter(CoverConfig.default(), 16)
    for k in range(20):
        frag = DiffeoFragmenter(dataclasses.replace(CoverConfig.default(), margin=0.1 + 0.01 * k), 16)
        assert frag.stage1 is base.stage1 and frag.stage2 is base.stage2
    assert _stage.cache_info().misses == 2
    assert _stage.cache_info().maxsize == 16


@pytest.mark.parametrize("n", [1024, 4096])
def test_gap_bumps_carry_half_the_gap(n):
    """The sampled masses of both stages' gap bumps, which beta_build divides
    by, are the nominal half gaps (ahat - a) / 2 and (b - bhat) / 2."""
    frag = DiffeoFragmenter(COVER, n)
    for stage in (frag.stage1, frag.stage2):
        a, ha, hb, b = stage.endpoints
        assert abs(stage.left_mass - 0.5 * (ha - a)) <= 1e-15
        assert abs(stage.right_mass - 0.5 * (b - hb)) <= 1e-15


def test_stage_origin_is_the_first_fine_node_outside():
    """A stage integrates from the first fine node outside its interval, also
    when the interval wraps through 0 or ends on a node; an interval whose
    complement holds no node has no origin and is refused."""
    tf = grid(16 * BUILD_FACTOR)
    h = tf[1]
    for a, b in [(0.3, 3.6), (0.0, 5.0), (3.44, TWO_PI + 0.46), (2.0, TWO_PI + 5 * h), (1.0, TWO_PI + 0.95)]:
        interval = IntervalArc(a, b)
        length = interval.length
        stage = _stage(interval, IntervalArc(a + 0.3 * length, a + 0.7 * length), 16, BUILD_FACTOR)
        assert stage.origin == np.flatnonzero(~interval.contains(tf))[0]
        assert stage.theta0 == tf[stage.origin]
    with pytest.raises(GeometryError, match="integration origin"):
        _stage(IntervalArc(0.9 * h, TWO_PI + 0.1 * h), IntervalArc(2.0, 4.0), 16, BUILD_FACTOR)


@pytest.mark.parametrize("n", [16, 1024, 4096])
def test_stage_phase_tables_match_direct_sum(n):
    """A stage on n * 8 points, and on the construction grid of n where that
    is smaller (16384 nodes at n = 4096), sums the antiderivative spectrum of
    its own integrand at its four boundary points from two tables of
    4 (K/B + B) entries, to 1e-15 sum|c_k| of the direct sum
    exp(i outer(theta, k)) c accumulated in long double (80-bit on x86-64).
    A double-precision direct sum is no reference there: on the 16384-node
    stage it reads up to 3.1e-18 off the long-double one, above that tolerance."""
    for factor in sorted({BUILD_FACTOR, _build_factor(n)}):
        stage = _stage(COVER.i1, COVER.ihat1, n, factor)
        k_max = n * factor // 2
        rows, block = len(stage.phase_coarse), len(stage.phase_fine)
        assert rows * block == k_max
        assert stage.phase_coarse.size + stage.phase_fine.size <= 4 * (k_max // block + block)
        theta = np.array([stage.theta0, *stage.endpoints[1:]]).astype(np.longdouble)
        k = np.arange(1, k_max + 1)
        for i in range(3):
            g = random_diffeo(rng_for(31, n, i), 0.01, n)
            c = PeriodicFunction(g.deriv._upsample(factor) * stage.center_fine)._antiderivative_spectrum()
            extended = (np.exp(1j * np.outer(theta, k)) * c[1:]).sum(axis=1)
            assert np.abs(stage.boundary_sums(c) - extended).max() <= 1e-15 * np.abs(c[1:]).sum()
