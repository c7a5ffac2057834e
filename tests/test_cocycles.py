import numpy as np
import pytest

from circlekit import periodic
from circlekit.cocycles import (
    VectField,
    VirasoroElement,
    bott,
    bott_mixed_derivative,
    cocycle_identity_residual,
    vect_bracket,
    vect_cocycle,
    vir_multiply,
)
from circlekit.diffeo import CircleDiffeo, IntervalArc, compose
from circlekit.errors import AliasingError
from circlekit.periodic import TWO_PI, PeriodicFunction, _fourier_samples, grid
from circlekit.sampling import random_diffeo, random_supported_diffeo, random_vect_field, rng_for

N = 1024
T = grid(N)


def test_bracket_alternating():
    f = VectField(PeriodicFunction(np.sin(T) + 0.3 * np.cos(2 * T)))
    assert np.abs(vect_bracket(f, f).samples).max() < 1e-14


def test_bracket_of_constant():
    one = VectField(PeriodicFunction.constant(1.0, N))
    g = VectField(PeriodicFunction(np.sin(2 * T)))
    # [f, g] = f'g - fg' with f constant leaves -g'
    expected = -2 * np.cos(2 * T)
    assert np.abs(vect_bracket(one, g).samples - expected).max() < 1e-12


def test_bracket_sin_cos():
    f = VectField(PeriodicFunction(np.sin(T)))
    g = VectField(PeriodicFunction(np.cos(T)))
    # f'g - fg' = cos^2 + sin^2 = 1
    assert np.abs(vect_bracket(f, g).samples - 1.0).max() < 1e-12


def test_vect_cocycle_self_vanishes():
    f = VectField(PeriodicFunction(np.sin(T) + 0.2 * np.cos(3 * T)))
    assert abs(vect_cocycle(f, f)) < 1e-10


def test_vect_cocycle_locality():
    rng = rng_for(30, 0)
    f = random_supported_diffeo(rng, IntervalArc(0.2, 2.0), 0.5, N).periodic_part
    g = random_supported_diffeo(rng, IntervalArc(2.4, 5.0), 0.5, N).periodic_part
    assert abs(vect_cocycle(f, g)) < 1e-10


def test_vect_cocycle_monomials():
    e_p1 = PeriodicFunction(np.exp(1j * T))
    e_m1 = PeriodicFunction(np.exp(-1j * T))
    assert abs(vect_cocycle(e_p1, e_m1)) < 1e-12
    e_p2 = PeriodicFunction(np.exp(2j * T))
    e_m2 = PeriodicFunction(np.exp(-2j * T))
    assert vect_cocycle(e_p2, e_m2) == pytest.approx(-6.0, abs=1e-9)


def test_vect_cocycle_imaginary_on_real_fields():
    rng = rng_for(30, 1)
    f = PeriodicFunction(rng.normal() * np.sin(T) + rng.normal() * np.cos(2 * T))
    g = PeriodicFunction(rng.normal() * np.sin(3 * T))
    val = vect_cocycle(f, g)
    assert abs(val.real) < 1e-12 * (1 + abs(val))
    assert isinstance((val / 1j).real, float)


def test_vect_cocycle_jacobi():
    rng = rng_for(30, 2)
    fields = [
        VectField(PeriodicFunction(sum(rng.normal() / k**2 * np.sin(k * T + rng.normal()) for k in range(1, 6))))
        for _ in range(3)
    ]
    f, g, h = fields
    total = (
        vect_cocycle(vect_bracket(f, g), h)
        + vect_cocycle(vect_bracket(g, h), f)
        + vect_cocycle(vect_bracket(h, f), g)
    )
    assert abs(total) < 1e-8


def test_bott_on_rotations():
    assert abs(bott(CircleDiffeo.rotation(0.9, N), CircleDiffeo.rotation(-1.7, N))) < 1e-12


def test_bott_unit_normalization():
    g = random_diffeo(rng_for(31, 0), 0.05, N)
    e = CircleDiffeo.identity(N)
    assert abs(bott(e, g)) < 1e-10
    assert abs(bott(g, e)) < 1e-12


def test_bott_cocycle_identity():
    rng = rng_for(31, 1)
    g1, g2, g3 = (random_diffeo(rng, 0.05, N) for _ in range(3))
    assert cocycle_identity_residual(bott, g1, g2, g3) < 1e-8
    assert cocycle_identity_residual(bott, g1, CircleDiffeo.identity(N), g3) < 1e-14
    rots = [CircleDiffeo.rotation(a, N) for a in (0.3, -0.4, 1.2)]
    assert cocycle_identity_residual(bott, *rots) < 1e-12


def test_vir_group_law():
    e = CircleDiffeo.identity(N)
    x = vir_multiply(VirasoroElement(1.0, e), VirasoroElement(2.0, e))
    assert x.a == pytest.approx(3.0, abs=1e-15)
    assert x.gamma.displacement() == 0.0

    r = vir_multiply(
        VirasoroElement(0.0, CircleDiffeo.rotation(0.4, N)),
        VirasoroElement(0.0, CircleDiffeo.rotation(0.5, N)),
    )
    assert abs(r.a) < 1e-12
    assert r.gamma.distance(CircleDiffeo.rotation(0.9, N)) < 1e-10


def test_vir_associativity():
    rng = rng_for(32, 0)
    xs = [VirasoroElement(rng.normal(), random_diffeo(rng, 0.05, N)) for _ in range(3)]
    left = vir_multiply(vir_multiply(xs[0], xs[1]), xs[2])
    right = vir_multiply(xs[0], vir_multiply(xs[1], xs[2]))
    assert abs(left.a - right.a) < 1e-8
    assert left.gamma.distance(right.gamma) < 1e-8
    # forgetting the central coordinate recovers plain composition
    assert vir_multiply(xs[0], xs[1]).gamma.distance(
        compose(xs[0].gamma, xs[1].gamma)
    ) == 0.0


# Right operands whose sample points leave [0, 2pi), below 0 and above 2pi
OFF_THE_PERIOD = [[(0, -0.4, 0.0), (1, 0.0, 0.3)], [(0, 0.4, 0.0), (2, 0.1, 0.0)]]


def _bott_by_evaluation(g1, g2):
    """bott with g1' read by PeriodicFunction.eval at g2's points."""
    d2 = g2.deriv_samples
    log_comp = np.log((1.0 + g1.deriv.eval(g2.samples)) * d2)
    ratio = g2.periodic_part.derivative(2).samples / d2
    return float((log_comp * ratio).mean() * TWO_PI * (-1.0 / (48.0 * np.pi)))


@pytest.mark.parametrize("terms", OFF_THE_PERIOD)
def test_bott_and_vir_multiply_equal_evaluation_at_the_points_of_g2(terms):
    """bott and vir_multiply read g1 through g2's kept stencils, bit for bit
    what evaluation at g2's points gives: g1' cached at 1x and 16x for bott,
    g1 at 1x and 4x for vir_multiply, whose composition gates the tail."""
    g2 = CircleDiffeo.from_fourier(terms, 64)
    band_limited = CircleDiffeo.from_fourier([(1, 0.05, 0.1)], 64)
    for g1 in (band_limited, CircleDiffeo.from_fourier([(20, 0.0, 1e-3)], 64), band_limited):
        assert bott(g1, g2) == _bott_by_evaluation(g1, g2)
    for g1 in (band_limited, CircleDiffeo.from_fourier([(8, 0.0, 1e-4)], 64)):
        x = vir_multiply(VirasoroElement(0.25, g1), VirasoroElement(-1.5, g2))
        assert x.a == 0.25 + -1.5 + _bott_by_evaluation(g1, g2)
        expected = g2.periodic_part.samples + g1.periodic_part.eval(g2.samples)
        assert np.array_equal(x.gamma.periodic_part.samples, expected)


def test_group_triples_build_one_stencil_per_right_operand(monkeypatch):
    """A Bott triple and a Virasoro triple each read three distinct right
    operands (g2, g3 and g2 o g3; x2, x3 and x1 x2): three stencil builds and
    three second derivatives each, where evaluating afresh at every call
    builds 6 and 8 stencils and takes 4 second derivatives."""
    rng = rng_for(33, 0)
    g1, g2, g3 = (random_diffeo(rng, 0.05, N) for _ in range(3))
    xs = [VirasoroElement(rng.normal(), random_diffeo(rng, 0.05, N)) for _ in range(3)]
    counts = {"stencils": 0, "second_derivatives": 0}
    real_weights, real_derivative = periodic._lagrange_weights, PeriodicFunction.derivative

    def weights(t, m):
        counts["stencils"] += 1
        return real_weights(t, m)

    def derivative(self, order=1):
        counts["second_derivatives"] += order == 2
        return real_derivative(self, order)

    monkeypatch.setattr(periodic, "_lagrange_weights", weights)
    monkeypatch.setattr(PeriodicFunction, "derivative", derivative)
    cocycle_identity_residual(bott, g1, g2, g3)
    assert counts == {"stencils": 3, "second_derivatives": 3}
    counts.update(stencils=0, second_derivatives=0)
    vir_multiply(vir_multiply(xs[0], xs[1]), xs[2])
    vir_multiply(xs[0], vir_multiply(xs[1], xs[2]))
    assert counts == {"stencils": 3, "second_derivatives": 3}


def test_bott_mixed_derivative_antisymmetric():
    f = PeriodicFunction(np.cos(2 * T))
    g = PeriodicFunction(np.sin(2 * T))
    dfg = bott_mixed_derivative(f, g)
    dgf = bott_mixed_derivative(g, f)
    assert np.isfinite(dfg)
    assert abs(dfg + dgf) < 1e-5
    # frozen finite-difference value for this pair: -1/(24 pi) * int f' g'' dt
    assert dfg == pytest.approx(-1.0 / 3.0, abs=1e-6)


def test_bott_mixed_derivative_is_one_over_24_pi_int_f_g3():
    # (1/24 pi) int f g''' dt: -1/3 for cos 2t, sin 2t; seeded 4-mode pairs at
    # n = 256, each relative to (1/24 pi) int |f g'''| dt
    assert bott_mixed_derivative(
        PeriodicFunction(np.cos(2 * T)), PeriodicFunction(np.sin(2 * T))
    ) == pytest.approx(-1.0 / 3.0, rel=1e-9)
    for i in range(4):
        rng = rng_for(26, i)
        f, g = random_vect_field(rng, 256, modes=4), random_vect_field(rng, 256, modes=4)
        integrand = f.samples * g.derivative(3).samples
        expected = integrand.mean() * TWO_PI / (24.0 * np.pi)
        scale = np.abs(integrand).mean() * TWO_PI / (24.0 * np.pi)
        assert abs(bott_mixed_derivative(f, g) - expected) < 1e-9 * scale


def test_vect_field_constructors():
    terms = [(1, 0.3, -0.2), (4, 0.0, 0.05)]
    f = VectField.from_fourier(terms, 64)
    assert f.n == 64 and np.array_equal(f.samples, _fourier_samples(terms, 64))
    t = grid(64)
    assert np.abs(f.samples - (0.3 * np.cos(t) - 0.2 * np.sin(t) + 0.05 * np.sin(4 * t))).max() < 1e-15
    with pytest.raises(AliasingError):
        VectField.from_fourier([(32, 1.0, 0.0)], 64)
    g = VectField.from_callable(np.sin, 32)
    assert g.n == 32 and np.array_equal(g.samples, np.sin(grid(32)))
    assert VectField.from_callable(np.cos).n == 1024
