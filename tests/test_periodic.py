import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circlekit.periodic import PeriodicFunction, _pad_fine, _stencil_error_bound, grid
from circlekit.sampling import random_diffeo, rng_for


def test_eval_reproduces_band_limited():
    t = grid(1024)
    f = PeriodicFunction(np.sin(t))
    assert abs(f.eval(np.pi / 2) - 1.0) < 1e-12
    g = PeriodicFunction(np.sin(3 * t))
    assert abs(g.eval(0.1) - math.sin(0.3)) < 1e-12


def test_eval_constant():
    f = PeriodicFunction.constant(3.0, 64)
    for t in (0.0, 1.7, 6.0, -2.5):
        assert f.eval(t) == pytest.approx(3.0, abs=1e-13)


def test_eval_exact_at_grid_points():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=256)
    f = PeriodicFunction(samples)
    assert np.array_equal(f.eval(grid(256)), samples)


def test_derivative_analytic():
    t = grid(1024)
    f = PeriodicFunction(np.sin(t))
    assert np.abs(f.derivative().samples - np.cos(t)).max() < 1e-12
    g = PeriodicFunction(np.sin(2 * t))
    assert np.abs(g.derivative(3).samples - (-8 * np.cos(2 * t))).max() < 1e-10
    c = PeriodicFunction.constant(4.0, 64)
    assert np.abs(c.derivative().samples).max() == 0.0


def test_derivative_order_validation():
    f = PeriodicFunction.zero(64)
    with pytest.raises(ValueError):
        f.derivative(4)


def test_integrate_full_and_partial():
    t = grid(1024)
    assert PeriodicFunction(np.cos(t) ** 2).integrate(0, 2 * np.pi) == pytest.approx(
        np.pi, abs=1e-10
    )
    assert abs(PeriodicFunction(np.sin(t)).integrate(0, 2 * np.pi)) < 1e-12
    assert PeriodicFunction(np.sin(t)).integrate(0, np.pi) == pytest.approx(2.0, abs=1e-10)


def test_integrate_bounds_validation():
    f = PeriodicFunction.zero(64)
    with pytest.raises(ValueError):
        f.integrate(1.0, 0.5)
    with pytest.raises(ValueError):
        f.integrate(0.0, 7.0)


def test_grid_size_validation():
    with pytest.raises(ValueError):
        PeriodicFunction(np.zeros(8))
    with pytest.raises(ValueError):
        PeriodicFunction(np.zeros(100))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_trig_polynomial_calculus(seed):
    """Random polynomials of degree <= N/4: eval, derivative and integrals
    match the analytic values to 1e-10."""
    n = 256
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, n // 4, size=3)
    amps = rng.normal(size=3)
    t = grid(n)
    f = PeriodicFunction(sum(a * np.sin(k * t) for a, k in zip(amps, ks)))
    x = rng.uniform(0, 2 * np.pi, 50)
    exact = sum(a * np.sin(k * x) for a, k in zip(amps, ks))
    assert np.abs(f.eval(x) - exact).max() < 1e-10
    d_exact = sum(a * k * np.cos(k * t) for a, k in zip(amps, ks))
    assert np.abs(f.derivative().samples - d_exact).max() < 1e-10
    a_exact = sum(a / k * (1 - np.cos(k * 2.0)) for a, k in zip(amps, ks))
    assert f.integrate(0.0, 2.0) == pytest.approx(a_exact, abs=1e-10)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_derivative_integrates_to_zero(seed):
    n = 128
    rng = np.random.default_rng(seed)
    g = PeriodicFunction(rng.normal(size=n))
    assert abs(g.derivative().integrate(0, 2 * np.pi)) < 1e-10


def test_resample_roundtrip():
    t = grid(256)
    f = PeriodicFunction(np.sin(3 * t) + 0.2 * np.cos(17 * t))
    back = f.resample(512).resample(256)
    assert np.abs(back.samples - f.samples).max() < 1e-12


def test_tail_indicator():
    t = grid(256)
    smooth = PeriodicFunction(np.sin(2 * t))
    assert smooth.tail < 1e-15
    rough = PeriodicFunction(np.sin(100 * t))
    assert rough.tail == pytest.approx(0.5, abs=1e-12)


def test_csv_export(tmp_path):
    t = grid(16)
    f = PeriodicFunction(np.sin(t))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 16
    t0, v0 = rows[1].split(",")
    assert float(t0) == pytest.approx(t[1])
    assert float(v0) == pytest.approx(np.sin(t[1]), abs=1e-16)


def test_matrix_valued_roundtrip():
    t = grid(64)
    samples = np.zeros((64, 2, 2), dtype=complex)
    samples[:, 0, 1] = np.exp(1j * t)
    samples[:, 1, 0] = np.exp(-1j * t)
    f = PeriodicFunction(samples)
    d = f.derivative()
    assert np.abs(d.samples[:, 0, 1] - 1j * np.exp(1j * t)).max() < 1e-12
    vals = f.eval(np.array([0.3, 1.1]))
    assert vals.shape == (2, 2, 2)
    assert abs(vals[0, 0, 1] - np.exp(0.3j)) < 1e-12


def direct_sum(samples, x):
    """Trigonometric interpolant of real samples summed mode by mode at x."""
    n = len(samples)
    c = np.fft.rfft(samples) / n
    w = np.full(len(c), 2.0)
    w[0] = w[-1] = 1.0
    return (np.exp(1j * np.outer(x, np.arange(len(c)))) @ (w * c)).real


def test_band_limited_cache_is_own_samples():
    g = random_diffeo(rng_for(20260810, 1, 0), 0.01, 1024)
    p = g.periodic_part
    assert _stencil_error_bound(p.spectrum, p.n) <= 1e-12
    assert np.array_equal(p._fine_values(), _pad_fine(p.samples))
    x = np.random.default_rng(1).uniform(0, 2 * np.pi, 500)
    assert np.abs(p.eval(x) - direct_sum(p.samples, x)).max() < 1e-12


def test_near_nyquist_content_is_oversampled():
    n = 8192
    t = grid(n)
    f = PeriodicFunction(np.sin(t) + 1e-5 * np.cos(4000 * t) + 1e-5 * np.sin(4090 * t))
    assert _stencil_error_bound(f.spectrum, n) > 1e-12
    assert len(f._fine_values()) == 8 * n + 9
    x = np.random.default_rng(2).uniform(0, 2 * np.pi, 500)
    assert np.abs(f.eval(x) - direct_sum(f.samples, x)).max() < 1e-12
