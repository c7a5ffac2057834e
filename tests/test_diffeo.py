import numpy as np
import pytest
from hypothesis import given, strategies as st

from circlekit.diffeo import (
    BumpFunction,
    CircleDiffeo,
    CoverConfig,
    IntervalArc,
    compose,
    inverse,
    make_bump,
    make_normalized_bump,
    support,
)
from circlekit.errors import AliasingError, DerivativeError, GeometryError, MassError
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


def test_derivative_positivity_enforced():
    t = grid(N)
    with pytest.raises(DerivativeError):
        CircleDiffeo(PeriodicFunction(1.5 * np.sin(t)))


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
        compose(g, g, tail_tol=1e-12)


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
    assert b.max_value <= 1.0 + 1e-12
    assert b.integral() == pytest.approx(0.5, abs=1e-10)
    # spectral quadrature agrees
    assert b.periodic(N).integrate(0, TWO_PI) == pytest.approx(0.5, abs=1e-8)


def test_normalized_bump_mass_error():
    with pytest.raises(MassError):
        make_normalized_bump(IntervalArc(0.0, 1.0), 0.999)
    with pytest.raises(MassError):
        make_normalized_bump(IntervalArc(0.0, 1.0), 0.0)


# -- covers -----------------------------------------------------------------


def test_default_cover_satisfies_chain():
    cover = CoverConfig.default()
    chain = cover.chain()
    assert all(x < y for x, y in zip(chain, chain[1:]))


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


def test_cover_json_roundtrip():
    cover = CoverConfig.default()
    back = CoverConfig.from_json(cover.to_json())
    assert back == cover


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
