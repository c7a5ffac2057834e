import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circlekit import diffeo, periodic
from circlekit.diffeo import (
    BumpFunction,
    CircleDiffeo,
    CoverConfig,
    IntervalArc,
    compose,
    inverse,
    make_bump,
    make_normalized_bump,
    solve_monotone,
    support,
)
from circlekit.errors import AliasingError, ConvergenceError, DerivativeError, GeometryError, MassError
from circlekit.loops import loop_cutoffs
from circlekit.periodic import TWO_PI, PeriodicFunction, grid
from circlekit.sampling import random_diffeo, random_supported_diffeo, rng_for

N = 1024


def test_rotations_compose_additively():
    r = compose(CircleDiffeo.rotation(0.4, N), CircleDiffeo.rotation(0.3, N))
    assert r.distance(CircleDiffeo.rotation(0.7, N)) < 1e-10


def test_identity_is_neutral():
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.1), (2, 0.05, 0.0)], N)
    assert compose(g, CircleDiffeo.identity(N)).distance(g) == 0.0


def test_inverse_examples():
    assert inverse(CircleDiffeo.rotation(0.8, N)).distance(CircleDiffeo.rotation(-0.8, N)) < 1e-10
    assert inverse(CircleDiffeo.identity(N)).displacement() == 0.0
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.1)], N)
    gi = inverse(g)
    assert abs(gi.eval(g.eval(1.0)) - 1.0) < 1e-10
    assert compose(g, gi).displacement() < 1e-8


def test_inverse_reads_slope_on_the_stencil_of_p():
    # Nyquist content puts p on an oversampled cache, while the spectral
    # derivative drops that mode and is read from its own samples
    p = PeriodicFunction(1e-3 * (-1.0) ** np.arange(64))
    g = CircleDiffeo(p)
    assert len(p._fine_values()) != len(g.deriv._fine_values())
    u = inverse(g).samples
    assert np.abs(g.eval(u) - grid(64)).max() < 1e-12


def test_solve_monotone_reads_both_caches_at_the_factor_of_p(monkeypatch):
    # p certifies at 8x and its derivative, 20 times larger, at 16x: the
    # derivative is resampled onto p's 8x grid, not read from its own cache
    g = CircleDiffeo.from_fourier([(20, 0.0, 1e-3)], 64)
    p = g.periodic_part
    assert (len(p._fine_values()), len(g.deriv._fine_values())) == (8 * 64 + 9, 16 * 64 + 9)
    lengths = []
    real_apply = periodic._lagrange_apply

    def spy(stencil, *caches):
        lengths.append({len(c) for c in caches})
        return real_apply(stencil, *caches)

    monkeypatch.setattr(periodic, "_lagrange_apply", spy)
    y = grid(64) + 0.01
    u = solve_monotone(g, y)
    assert lengths and all(s == {8 * 64 + 9} for s in lengths)
    assert np.abs(u + p.eval(u) - y).max() < 1e-12
    # a fresh g: its derivative, certified at 16x, is upsampled once to 8x
    # and gets no cache of its own; the answer is the same bytes
    fresh = CircleDiffeo.from_fourier([(20, 0.0, 1e-3)], 64)
    assert np.array_equal(solve_monotone(fresh, y), u)
    assert fresh.deriv._fine is None


def test_solve_monotone_reads_the_slope_exactly_at_the_nodes(monkeypatch):
    # the slope's cache at p's 8x factor holds gamma' - 1 bit for bit at the
    # grid nodes, which the upsampling alone rounds
    g = CircleDiffeo.from_fourier([(20, 0.0, 1e-3)], 64)
    slopes = []
    real_apply = periodic._lagrange_apply

    def spy(stencil, *caches):
        slopes.extend(caches[1:])
        return real_apply(stencil, *caches)

    monkeypatch.setattr(periodic, "_lagrange_apply", spy)
    solve_monotone(g, grid(64) + 0.01)
    assert not np.array_equal(g.deriv._upsample(8)[::8], g.deriv.samples)
    assert slopes and all(np.array_equal(s[4 : 4 + 8 * 64 : 8], g.deriv.samples) for s in slopes)


@pytest.mark.parametrize("targets", [[np.nan], [0.5, np.inf], [-np.inf, 1.0]])
def test_solve_monotone_stalls_on_non_finite_targets(targets):
    # a non-finite target gets NaN weights and a base index that the % m of
    # _lagrange_weights keeps in range, so its residual stays NaN and Newton
    # stalls; nothing indexes out of range
    g = CircleDiffeo.from_fourier([(1, 0.0, 0.1), (2, 0.05, 0.0)], 64)
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError):
        solve_monotone(g, np.array(targets))


def test_diffeo_holds_no_interpolation_helper():
    """Evaluation caches and their stencils belong to PeriodicFunction: diffeo
    reads through its _cache, _cache_factor and _read, and the helpers that
    padded and measured caches outside it are gone."""
    helpers = {"_lagrange_weights", "_lagrange_apply", "_lagrange_eval", "_pad_fine", "_cache_length"}
    assert not helpers & set(vars(diffeo))
    assert not {"_lagrange_eval", "_pad_fine", "_cache_length"} & set(vars(periodic))


def test_diffeo_reduces_arrays_through_periodic():
    """The 2pi reduction of arrays has one owner, periodic._mod_two_pi: the one
    np.mod left in diffeo.py reduces an IntervalArc's scalar start."""
    tree = ast.parse(Path(diffeo.__file__).read_text())
    reductions = {"np.mod", "np.remainder", "np.fmod", "np.divmod"}
    calls = [ast.unparse(c) for c in ast.walk(tree) if isinstance(c, ast.Call) and ast.unparse(c.func) in reductions]
    assert calls == ["np.mod(self.a, TWO_PI)"]
    assert diffeo._mod_two_pi is periodic._mod_two_pi


@pytest.mark.parametrize("terms, n, factor", [([(1, 0, 0.1)], 16, 4), ([(1, 0, 0.3), (2, 0.05, 0)], 64, 2)])
def test_solve_monotone_upsamples_the_slope_even_when_it_certifies_alike(terms, n, factor):
    # p and gamma' - 1 both certify above 1x at the same factor; the slope is
    # still upsampled, its own cache is neither built nor read, and a cache
    # built beforehand changes no byte of the answer
    g = CircleDiffeo.from_fourier(terms, n)
    y = grid(n) + 0.01
    u = solve_monotone(g, y)
    assert len(g.periodic_part._fine_values()) == factor * n + 9
    assert g.deriv._fine is None
    assert np.abs(g.eval(u) - y).max() < 1e-14
    warm = CircleDiffeo.from_fourier(terms, n)
    assert len(warm.deriv._fine_values()) == factor * n + 9
    assert np.array_equal(solve_monotone(warm, y), u)


# Right operands whose sample points leave [0, 2pi), below 0 and above 2pi
OFF_THE_PERIOD = [[(0, -0.4, 0.0), (1, 0.0, 0.3)], [(0, 0.4, 0.0), (2, 0.1, 0.0)]]


@pytest.mark.parametrize("terms", OFF_THE_PERIOD)
def test_compose_equals_evaluation_at_the_points_of_g2(terms):
    """compose reads g1 through g2's kept stencil, bit for bit what
    g1.eval at g2's points gives, for caches of two lengths (1x and 4x)."""
    g2 = CircleDiffeo.from_fourier(terms, 64)
    assert g2.samples.min() < 0.0 or g2.samples.max() >= TWO_PI
    band_limited = CircleDiffeo.from_fourier([(1, 0.05, 0.1)], 64)
    oversampled = CircleDiffeo.from_fourier([(8, 0.0, 1e-4)], 64)
    for g1 in (band_limited, oversampled, band_limited):
        expected = g2.periodic_part.samples + g1.periodic_part.eval(g2.samples)
        assert np.array_equal(compose(g1, g2).periodic_part.samples, expected)
    assert sorted(g2._stencils) == [64, 4 * 64]


@pytest.mark.parametrize("n", [1024, 4096])
def test_solve_monotone_answer_depends_only_on_its_target(n):
    """Each target stops on its own residual, so solving it alone gives what
    solving it among 400 others gives.  Not bit for bit: the stencil weights
    come from one (M, 10) @ (10, 10) product in periodic._lagrange_weights,
    and BLAS sums a lone row in another order than a batch of rows, which
    moves a few answers by an ulp.  np.einsum would make every probe
    bit-equal, but it takes the weights 1.6 to 1.9 times as long."""
    for i in range(25):
        rng = rng_for(4242, n, i)
        g = random_diffeo(rng, 0.01, n)
        y = rng.uniform(0.0, TWO_PI, 400)
        together = solve_monotone(g, y)
        for j in np.linspace(0, len(y) - 1, 31).astype(int):
            assert abs(together[j] - solve_monotone(g, y[j : j + 1])[0]) <= 1e-15


def test_derivative_positivity_enforced():
    t = grid(N)
    with pytest.raises(DerivativeError):
        CircleDiffeo(PeriodicFunction(1.5 * np.sin(t)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_derivative_is_not_positive(bad):
    # a NaN derivative compares false both ways, so it must not pass as positive
    samples = 0.01 * np.sin(grid(64))
    samples[5] = bad
    with np.errstate(invalid="ignore"), pytest.raises(DerivativeError):
        CircleDiffeo(PeriodicFunction(samples))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DerivativeError):
        CircleDiffeo.from_fourier([(1, 1e308, 1e308)], 64)


@pytest.mark.parametrize("bad", [-1.0, -1.5, np.nan])
def test_from_parts_keeps_the_positivity_test(bad):
    """A factor built from a known derivative keeps it, unexamined but for
    the sample test 1 + deriv > 0, which a sample at or below -1 and a NaN
    both fail."""
    deriv = PeriodicFunction(0.01 * np.sin(grid(64)))
    assert CircleDiffeo._from_parts(PeriodicFunction.zero(64), deriv).deriv is deriv
    samples = deriv.samples.copy()
    samples[5] = bad
    with pytest.raises(DerivativeError):
        CircleDiffeo._from_parts(PeriodicFunction.zero(64), PeriodicFunction(samples))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_group_axioms(seed):
    rng = np.random.default_rng(seed)
    g1, g2, g3 = (random_diffeo(rng, 0.05, N) for _ in range(3))
    assoc = compose(compose(g1, g2), g3).distance(compose(g1, compose(g2, g3)))
    assert assoc < 1e-8
    assert compose(g1, inverse(g1)).displacement() < 1e-8


def test_support_classification():
    assert support(CircleDiffeo.identity(N)) == "empty"
    assert support(CircleDiffeo.rotation(0.3, N)) == "full"
    arc = IntervalArc(0.5, 1.5)
    g = random_supported_diffeo(rng_for(7, 0), arc, 0.02, N)
    got = support(g)
    h = TWO_PI / N
    assert got.a >= arc.a - h - 1e-12 and got.b <= arc.b + h + 1e-12


def test_disjointly_supported_elements_commute():
    rng = rng_for(3, 1)
    g1 = random_supported_diffeo(rng, IntervalArc(0.2, 2.2), 0.02, N)
    g2 = random_supported_diffeo(rng, IntervalArc(2.7, 5.5), 0.02, N)
    assert compose(g1, g2).distance(compose(g2, g1)) < 1e-10


def test_compose_aliasing_error():
    # a sharp diffeomorphism at a coarse grid cannot be resolved
    t = grid(32)
    g = CircleDiffeo(PeriodicFunction(0.1 * np.sin(9 * t)))
    with pytest.raises(AliasingError):
        compose(g, g)


# -- bumps ------------------------------------------------------------------


def test_make_bump_plateau_and_support():
    b = make_bump(IntervalArc(0.0, 1.0), IntervalArc(0.25, 0.75))
    assert b.values(np.array([0.5]))[0] == 1.0
    assert b.values(np.array([-0.1]))[0] == 0.0
    assert b.values(np.array([0.25]))[0] == 1.0
    # the profile is flat to all orders at the plateau edge
    delta = 1e-3
    fd = (b.values(np.array([0.25 + delta])) - b.values(np.array([0.25 - delta]))) / (2 * delta)
    assert abs(fd[0]) < 1e-8


def test_make_bump_symmetric():
    b = make_bump(IntervalArc(0.0, 1.0), IntervalArc(0.4, 0.6))
    x = np.linspace(0.01, 0.99, 201)
    vals = b.values(x)
    assert np.abs(vals - vals[::-1]).max() < 1e-12


def test_make_bump_rejects_bad_plateau():
    with pytest.raises(GeometryError):
        make_bump(IntervalArc(0.0, 1.0), IntervalArc(0.5, 1.0))


def test_normalized_bump_reaches_target():
    b = make_normalized_bump(IntervalArc(0.0, 1.0), 0.5)
    assert b.scale <= 1.0 + 1e-12
    assert b.integral() == pytest.approx(0.5, abs=1e-10)
    # spectral quadrature agrees
    assert b.periodic(N).integrate(0, TWO_PI) == pytest.approx(0.5, abs=1e-8)


def test_normalized_bump_mass_error():
    with pytest.raises(MassError):
        make_normalized_bump(IntervalArc(0.0, 1.0), 0.999)
    with pytest.raises(MassError):
        make_normalized_bump(IntervalArc(0.0, 1.0), 0.0)


def test_bump_integral_matches_midpoint_rule():
    """The closed form against a 2^16-point midpoint rule, which converges
    faster than any power of the step on the flat-ended profile, over 200
    seeded (support, plateau, scale) triples with off-centre plateaus."""
    rng = np.random.default_rng([20260810, 14])
    m = 1 << 16
    for _ in range(200):
        a, width = rng.uniform(0.0, TWO_PI), rng.uniform(0.2, 6.0)
        gap_left, gap_right = rng.uniform(0.05, 0.45, 2) * width
        plateau = IntervalArc(a + gap_left, a + width - gap_right)
        bump = BumpFunction(IntervalArc(a, a + width), plateau, rng.uniform(0.1, 2.0))
        x = bump.support.a + (np.arange(m) + 0.5) * (width / m)
        reference = bump.values(x).sum() * (width / m)
        assert bump.integral() == pytest.approx(reference, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a, b", [(0.3, 0.45), (2.45, 2.6), (4.3, 5.4), (5.0, 8.0)])
def test_normalized_bump_plateau_rule(a, b):
    support = IntervalArc(a, b)
    width = support.length
    # half the width as mass: the smallest plateau, 2% of the support
    half_gap = (1.0 - 0.02) * width / 2.0
    bump = make_normalized_bump(support, 0.5 * width)
    assert bump.plateau == IntervalArc(support.a + half_gap, support.b - half_gap)
    assert bump.integral() == pytest.approx(0.5 * width, rel=1e-15)
    # a larger target widens the plateau instead of scaling, reaching it exactly
    bump = make_normalized_bump(support, 0.9 * width)
    assert bump.plateau.length == pytest.approx(0.8 * width, rel=1e-14)
    assert abs(bump.integral() - 0.9 * width) <= 1e-15 * width
    for target in (0.0, 0.976 * width, width):
        with pytest.raises(MassError):
            make_normalized_bump(support, target)


def test_normalized_bump_evaluates_no_samples(monkeypatch):
    def refuse(self, t):
        raise AssertionError("make_normalized_bump sampled the profile")

    monkeypatch.setattr(BumpFunction, "values", refuse)
    bump = make_normalized_bump(IntervalArc(0.3, 0.45), 0.075)
    assert bump.integral() == pytest.approx(0.075, rel=1e-15)


# -- covers -----------------------------------------------------------------


def test_default_cover_satisfies_chain():
    cover = CoverConfig.default()
    chain = cover.chain()
    assert all(x < y for x, y in zip(chain, chain[1:]))


def test_default_cover_is_built_once():
    cover = CoverConfig.default()
    assert CoverConfig.default() is cover
    # a variant is a replace, which validates again
    assert dataclasses.replace(cover, margin=0.3).margin == 0.3
    with pytest.raises(GeometryError):
        dataclasses.replace(cover, margin=0.5)


def test_cover_rejects_permutations():
    cover = CoverConfig.default()
    with pytest.raises(GeometryError):
        CoverConfig(cover.i2, cover.i1, cover.i3, cover.ihat1, cover.ihat2, cover.ihat3)
    with pytest.raises(GeometryError):
        CoverConfig(cover.i1, cover.i3, cover.i2, cover.ihat1, cover.ihat3, cover.ihat2)


def test_cover_rejects_bad_margin():
    cover = CoverConfig.default()
    with pytest.raises(GeometryError):
        CoverConfig(cover.i1, cover.i2, cover.i3, cover.ihat1, cover.ihat2, cover.ihat3, 0.7)


def _random_chain_cover(rng):
    """A cover from 12 sorted uniform points read as the chain a1 < ahat1 <
    bhat3 < b3 < a2 < ahat2 < bhat1 < b1 < a3 < ahat3 < bhat2 < b2, margin in
    (0.05, 0.49)."""
    a1, ha1, hb3, b3, a2, ha2, hb1, b1, a3, ha3, hb2, b2 = np.sort(rng.uniform(0.0, TWO_PI, 12))
    arcs = [(a1, b1), (a2, b2), (a3, b3 + TWO_PI), (ha1, hb1), (ha2, hb2), (ha3, hb3 + TWO_PI)]
    return CoverConfig(*(IntervalArc(a, b) for a, b in arcs), rng.uniform(0.05, 0.49))


def test_accepted_covers_build_loop_cutoffs():
    """A cover CoverConfig accepts is one loop_cutoffs can use; of 200 seeded
    chain-valid covers, the plateau check rejects some."""
    rejected = 0
    for i in range(200):
        try:
            cover = _random_chain_cover(np.random.default_rng([20260810, i]))
        except GeometryError as exc:
            assert "times the I1 & I2 overlap" in str(exc)
            rejected += 1
            continue
        loop_cutoffs(cover)
    assert 0 < rejected < 200


def test_cover_json_roundtrip():
    cover = CoverConfig.default()
    back = CoverConfig.from_json(cover.to_json())
    assert back == cover


# every endpoint differs from the default cover's
JSON_COVER = json.dumps({
    "I": [[0.4, 2.8], [2.1, 4.9], [4.4, TWO_PI + 0.9]],
    "Ihat": [[0.55, 2.6], [2.3, 4.7], [4.6, TWO_PI + 0.75]],
    "margin": 0.2,
})


@pytest.mark.parametrize("cover", [CoverConfig.default(), CoverConfig.from_json(JSON_COVER)], ids=["default", "json"])
def test_cover_overlaps(cover):
    chain = cover.chain()
    a1, b3, a2, b1, a3, b2 = (chain[k] for k in (1, 4, 5, 8, 9, 12))
    assert [o.as_tuple() for o in cover.overlaps] == [(a2, b1), (a3, b2), (a1, b3)]
    t = grid(4096)
    i1, i2, i3 = (arc.contains(t) for arc in cover.intervals)
    for overlap, both in zip(cover.overlaps, (i1 & i2, i2 & i3, i3 & i1)):
        assert np.array_equal(overlap.contains(t), both)


def test_cover_json_malformed():
    with pytest.raises(GeometryError):
        CoverConfig.from_json("{not json")
    with pytest.raises(GeometryError):
        CoverConfig.from_json('{"I": [[0, 1]], "Ihat": [[0.1, 0.9]]}')


def test_interval_arc_wrapping():
    arc = IntervalArc(5.8, TWO_PI + 0.5)
    assert arc.contains(6.0)
    assert arc.contains(0.2)
    assert not arc.contains(1.0)
    with pytest.raises(GeometryError):
        IntervalArc(0.0, TWO_PI)


@pytest.mark.parametrize("a, b", [(5.8, TWO_PI + 0.5), (0.3, 2.6), (-1.0, 4.0)])
def test_arc_offset_and_contains_are_the_np_mod_formulas(a, b):
    """offset and contains give np.mod(t - a, 2pi)'s bytes and the membership
    read off it, on long, short and 2-d arrays and on scalars, at the arc's
    ends and their ulp neighbours, far out and at non-finite angles."""
    arc = IntervalArc(a, b)
    rng = rng_for(33)
    ends = [x + k * TWO_PI for x in (arc.a, arc.b) for k in (-1, 0, 1)]
    edges = np.array([y for x in ends for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))])
    long = np.concatenate([grid(4096), rng.uniform(-TWO_PI, 2.0 * TWO_PI, 1000), edges])
    arrays = [long, long.reshape(2, -1), grid(4096) - 2.0 * TWO_PI, rng.uniform(-30.0, 30.0, 700), edges]
    arrays += [np.append(long, np.nan), np.empty(0)]
    with np.errstate(invalid="ignore"):
        for t in arrays:
            ref = np.mod(t - arc.a, TWO_PI)
            assert arc.offset(t).tobytes() == ref.tobytes()
            assert np.array_equal(arc.contains(t), (ref > 0) & (ref < arc.length))
        for x in np.concatenate([edges, [-0.0, np.inf, np.nan]]):
            ref = np.mod(np.float64(x) - arc.a, TWO_PI)
            assert type(arc.offset(x)) is type(ref) and arc.offset(x).tobytes() == ref.tobytes()
            assert arc.contains(float(x)) == ((ref > 0) & (ref < arc.length))


def test_max_abs_outside():
    h = TWO_PI / 16
    values = np.arange(16.0) - 8.0
    assert IntervalArc(-h / 2, TWO_PI - 0.75 * h).max_abs_outside(values) == 0.0
    # grid points 0 and 15 (values -8 and 7) lie outside (0.5h, 14.5h)
    assert IntervalArc(h / 2, 14.5 * h).max_abs_outside(values) == 8.0
