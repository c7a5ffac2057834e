import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circlekit import cocycles, loops
from circlekit.cocycles import vect_bracket
from circlekit.diffeo import CircleDiffeo, IntervalArc
from circlekit.errors import AliasingError
from circlekit.frag_diff import fragment, fragment_pair
from circlekit.loops import LoopAlgebraElement, exp_loop, multiply
from circlekit import periodic
from circlekit.periodic import (
    _MOD_CROSSOVER,
    _MODE_ERROR_CAP,
    _MONOMIAL,
    _OFFSETS,
    _REMAINDER,
    _SNAP,
    TWO_PI,
    PeriodicFunction,
    _lagrange_apply,
    _lagrange_weights,
    _mod_two_pi,
    _mode_factors,
    _stencil_error_bound,
    _stencil_mode_errors,
    grid,
)
from circlekit.sampling import random_diffeo, rng_for
from circlekit.verify import run_suites


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


def test_eval_reads_any_shape_of_angles():
    """An n-d array of angles reads as its flat array, reshaped; a scalar or
    0-d angle reads as the one entry of a 1-entry array."""
    t = grid(64)
    loop = exp_loop(LoopAlgebraElement.from_components(0.3 * np.cos(t), 0.2 * np.sin(2 * t), 0.0 * t))
    gamma = CircleDiffeo.from_fourier([(1, 0.02, 0.01), (3, 0.0, 0.005)], 64)
    angles = np.array([[0.1, -2.0, 7.5], [np.pi, 0.0, 1e-3]])
    for f in (PeriodicFunction(np.sin(t)), PeriodicFunction(np.sin(t) + 0.5j * np.cos(2 * t)), loop.pf, gamma):
        flat = f.eval(angles.ravel())
        out = f.eval(angles)
        assert out.shape == angles.shape + flat.shape[1:]
        assert out.tobytes() == flat.tobytes()
        for x in (0.1, np.float64(0.1), np.array(0.1)):
            assert np.asarray(f.eval(x)).tobytes() == f.eval(np.array([0.1]))[0].tobytes()
            assert np.shape(f.eval(x)) == flat.shape[1:]


@pytest.mark.parametrize("m", [16, 1024, 8192])
def test_stencil_sample_exact_at_and_near_nodes(m):
    """Nodes, nodes moved by half the snap distance either way, and points just
    below 2*pi, whose snap moves the last cell onto cell 0, read the samples
    bit for bit."""
    samples = np.random.default_rng(m).normal(size=m)
    cache = PeriodicFunction(samples)._cache(1)
    nodes = np.arange(m)
    for shift in (0.0, 0.5 * _SNAP, -0.5 * _SNAP):
        t = TWO_PI * (nodes + shift) / m
        [out] = _lagrange_apply(_lagrange_weights(t, m), cache)
        assert np.array_equal(out, samples)
    # 2*pi - 1e-13 lies within the snap distance of 2*pi for m = 16 only, so
    # finer grids take half the snap distance below 2*pi; and one ulp below
    t_end = np.array([TWO_PI - min(1e-13, 0.5 * _SNAP * TWO_PI / m), np.nextafter(TWO_PI, 0.0)])
    assert np.all(np.floor(t_end * (m / TWO_PI)) == m - 1)
    j0, _ = _lagrange_weights(t_end, m)
    assert np.array_equal(j0, [0, 0])
    [out] = _lagrange_apply(_lagrange_weights(t_end, m), cache)
    assert np.array_equal(out, [samples[0], samples[0]])


@pytest.mark.parametrize("m", [16, 1024, 8192])
def test_stencil_weights_partition_unity_and_reproduce_monomials(m):
    """Between the snap zones the weights sum to 1 and interpolate every
    polynomial of degree <= 9 on the 10 nodes, here (o/5)^d at offset o."""
    rng = np.random.default_rng(m + 1)
    u_in = np.concatenate([np.linspace(2 * _SNAP, 1.0 - 2 * _SNAP, 1001), rng.uniform(0.0, 1.0, 1000)])
    j = rng.integers(0, m, u_in.size)
    t = TWO_PI * (j + u_in) / m
    j0, w = _lagrange_weights(t, m)
    u = np.mod(t, TWO_PI) * (m / TWO_PI) - j0  # the offset the weights were built for
    keep = (u >= _SNAP) & (u <= 1.0 - _SNAP)
    assert keep.sum() > 1900
    w, u = w[keep], u[keep]
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-15
    for d in range(10):
        assert np.abs(w @ (_OFFSETS / 5.0) ** d - (u / 5.0) ** d).max() <= 1e-13, d


def _index_array_read(stencil, cache):
    """The read through an explicit (M, 10) index array, written out."""
    j0, w = stencil
    return np.einsum("ps,ps->p" if cache.ndim == 1 else "ps,ps...->p...", w, cache[j0[:, None] + np.arange(10)])


@pytest.mark.parametrize("factor", [1, 4])
def test_window_view_read_gives_the_index_array_reads_bytes(factor):
    """_lagrange_apply's window-view gather reads real, complex and matrix
    caches bit for bit as an index array does: in the first and last cells,
    within the snap distance of nodes either way, at negative angles and
    angles past 2*pi, and for 0, 1 and 1024 points."""
    n = 64
    rng = rng_for(32, factor)
    caches = [
        PeriodicFunction(samples)._cache(factor)
        for samples in (
            rng.normal(size=n) / np.arange(1, n + 1),
            rng.normal(size=n) + 1j * rng.normal(size=n),
            rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)),
        )
    ]
    m = factor * n
    h = TWO_PI / m
    edges = np.array([0.0, 0.3 * h, h - 1e-3 * h, TWO_PI - 0.5 * h, TWO_PI - 1e-3 * h, np.nextafter(TWO_PI, 0.0)])
    nodes = h * np.arange(m)
    near = np.concatenate([nodes + d * _SNAP * h for d in (0.5, -0.5, 2.0, -2.0)])
    spread = rng.uniform(0.0, TWO_PI, 1024)
    points = [
        np.empty(0),
        np.array([1.0]),
        spread,
        edges,
        near,
        spread - TWO_PI,
        -spread,
        spread + TWO_PI,
        np.concatenate([edges - 3 * TWO_PI, edges + 2 * TWO_PI, [TWO_PI]]),
    ]
    for t in points:
        stencil = _lagrange_weights(t, m)
        reads = _lagrange_apply(stencil, *caches)
        for cache, out in zip(caches, reads):
            ref = _index_array_read(stencil, cache)
            assert out.shape == ref.shape == (len(t),) + cache.shape[1:]
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


def test_eval_at_non_finite_points_is_nan():
    t = grid(64)
    for f in (PeriodicFunction(np.cos(3 * t)), PeriodicFunction(np.sin(t) + 0.5j * np.cos(2 * t))):
        with np.errstate(invalid="ignore"):
            out = f.eval(np.array([np.nan, np.inf, -np.inf, 1.0]))
            assert np.isnan(f.eval(np.nan))
        assert np.isnan(out[:3]).all() and np.isfinite(out[3])


def _around(x):
    """x and its two ulp neighbours."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# -0.0, +-2pi, +-4pi and their ulp neighbours, and negatives so small that
# adding 2pi rounds to 2pi: np.mod gives 2pi for those, not 0
_REDUCTION_EDGES = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, -1e-17, -1e-16, -2.0**-53, -2.0**-52]
    + [x for k in (-2, -1, 1, 2) for x in _around(k * TWO_PI)]
)
_NON_FINITE = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300])


def test_reduction_is_np_mod_bit_for_bit(monkeypatch):
    """_mod_two_pi gives np.mod(t, 2pi)'s bytes and type: on arrays inside
    [-4pi, 4pi) of at least _MOD_CROSSOVER entries by its own masked steps,
    with no call to np.mod, and on everything else by one np.mod."""
    rng = rng_for(33)
    bulk = rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI, _MOD_CROSSOVER)
    inside = (_REDUCTION_EDGES >= -2.0 * TWO_PI) & (_REDUCTION_EDGES < 2.0 * TWO_PI)
    fast = [
        bulk,
        np.concatenate([bulk, _REDUCTION_EDGES[inside]]),
        np.concatenate([rng.uniform(0.0, TWO_PI, _MOD_CROSSOVER), [-0.0, -1e-17]]),
        np.concatenate([rng.uniform(0.0, 2.0 * TWO_PI, _MOD_CROSSOVER), [-0.0, np.nextafter(2.0 * TWO_PI, 0.0)]]),
        np.concatenate([-bulk[bulk > 0], np.full(_MOD_CROSSOVER, -2.0 * TWO_PI)]),
    ]
    slow = [np.concatenate([bulk, [x]]) for x in np.concatenate([_REDUCTION_EDGES[~inside], _NON_FINITE])]
    slow += [np.empty(0), np.array([-1e-17]), _REDUCTION_EDGES, bulk[:63], bulk[: _MOD_CROSSOVER - 1]]
    slow += [np.float64(x) for x in np.concatenate([_REDUCTION_EDGES, _NON_FINITE])]
    slow += [np.array(-1e-17)]
    with np.errstate(invalid="ignore"):
        expected = [np.mod(t, TWO_PI) for t in fast + slow]
        calls, real_mod = [], np.mod
        monkeypatch.setattr(np, "mod", lambda x, y: calls.append(x) or real_mod(x, y))
        got = [_mod_two_pi(t) for t in fast + slow]
    assert len(calls) == len(slow)
    for t, out, ref in zip(fast + slow, got, expected):
        assert type(out) is type(ref) and out.tobytes() == ref.tobytes(), t


def _divmod_weights(t, m):
    """_lagrange_weights written with np.mod, np.floor and % m."""
    x = np.mod(t, TWO_PI) * (m / TWO_PI)
    x[x >= m] -= m
    j0 = np.floor(x).astype(np.intp)
    u = x - j0
    near1 = u > 1.0 - _SNAP
    j0 = (j0 + near1) % m
    u[(u < _SNAP) | near1] = 0.0
    powers = np.empty((10, len(u)))
    powers[0] = 1.0
    for d in range(1, 10):
        powers[d] = powers[d - 1] * u
    return j0, powers.T @ _MONOMIAL


@pytest.mark.parametrize("m", [16, 1024, 8192, 16384])
def test_stencil_gives_the_divmod_formulas_bytes(m):
    """Base indices and weights as np.mod, np.floor and % m give them, for
    short and long arrays of points: at and near nodes, at the reduction's
    edges, far out, and at NaN and +-inf, whose base index is 0."""
    rng = rng_for(33, m)
    h = TWO_PI / m
    nodes = h * rng.integers(1 - 2 * m, 2 * m - 1, 300)
    spread = rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI, 2 * _MOD_CROSSOVER)
    near = np.concatenate([nodes + d * _SNAP * h for d in (0.0, 0.5, -0.5, 2.0, -2.0)])
    edges = np.concatenate([_REDUCTION_EDGES, [np.nextafter(TWO_PI, 0.0) - 0.5 * _SNAP * h]])
    points = [spread, near, edges, rng.uniform(-30.0, 30.0, 700), np.concatenate([spread, near, edges])]
    points += [np.concatenate([t, _NON_FINITE]) for t in (spread, edges)]
    with np.errstate(invalid="ignore"):
        for t in points:
            (j0, w), (ref_j0, ref_w) = _lagrange_weights(t, m), _divmod_weights(t, m)
            assert j0.dtype == ref_j0.dtype and np.array_equal(j0, ref_j0)
            assert w.tobytes() == ref_w.tobytes()
        j0, w = _lagrange_weights(np.concatenate([spread, [np.nan, np.inf, -np.inf]]), m)
    assert np.array_equal(j0[-3:], [0, 0, 0]) and np.isnan(w[-3:]).all()


def test_constructor_copies_and_library_arrays_are_adopted_read_only():
    """PeriodicFunction(arr) copies a caller's array and leaves it writable;
    derivative() and _with_spectrum hold the array they are given, read-only."""
    samples = np.sin(grid(64))
    f = PeriodicFunction(samples)
    assert samples.flags.writeable and not np.shares_memory(f.samples, samples)
    samples[0] = 5.0
    assert f.samples[0] == 0.0
    with pytest.raises(ValueError):
        f.samples[0] = 1.0
    for df in (f.derivative(), PeriodicFunction(np.exp(1j * grid(64))).derivative(2)):
        assert not df.samples.flags.writeable and df.samples.flags.c_contiguous
        assert df.is_real == np.isrealobj(df.samples)
    fresh = samples.copy()
    g = PeriodicFunction._with_spectrum(fresh, np.fft.rfft(fresh, norm="forward"))
    assert g.samples is fresh and not fresh.flags.writeable and g.is_real and g.n == 64


def test_derivative_analytic():
    t = grid(1024)
    f = PeriodicFunction(np.sin(t))
    assert np.abs(f.derivative().samples - np.cos(t)).max() < 1e-12
    g = PeriodicFunction(np.sin(2 * t))
    assert np.abs(g.derivative(3).samples - (-8 * np.cos(2 * t))).max() < 1e-10
    c = PeriodicFunction.constant(4.0, 64)
    assert np.abs(c.derivative().samples).max() == 0.0


@pytest.mark.parametrize("n", [16, 1024, 16384])
def test_spectral_tables_give_the_direct_formulas_bytes(n):
    """derivative, the antiderivative spectrum and the stencil error bound
    read per-grid tables; they give the bytes of the formulas written out, on
    real, complex and matrix data.  The tables are shared, so read-only."""
    rng = rng_for(23, n)
    data = [rng.normal(size=n) / np.arange(1, n + 1), rng.normal(size=n) + 1j * rng.normal(size=n)]
    data.append(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    for samples in data:
        f = PeriodicFunction(samples)
        c = f.spectrum
        k = np.arange(n // 2 + 1) if f.is_real else np.fft.fftfreq(n, d=1.0 / n)
        k = k.reshape((-1,) + (1,) * (c.ndim - 1))
        for order in (1, 2, 3):
            d = c.copy()
            d[np.abs(d) < 4.0 * np.finfo(float).eps * np.abs(d).max()] = 0.0
            d *= (1j * k) ** order
            d[n // 2] = 0.0
            assert f.derivative(order).samples.tobytes() == f._from_spectrum(d).tobytes()
        anti = np.zeros_like(c)
        anti[1:] = c[1:] / (1j * k[1:])
        anti[n // 2] = 0.0
        assert f._antiderivative_spectrum().tobytes() == anti.tobytes()
    kh = np.arange(n // 2 + 1) * (TWO_PI / n)
    per_mode = np.minimum(_REMAINDER * kh**10, _MODE_ERROR_CAP) + _SNAP * kh
    c = PeriodicFunction(data[0]).spectrum
    assert _stencil_error_bound(c, n) == 2.0 * float(np.abs(c) @ per_mode)
    for table in (_mode_factors(n, True, 1), _mode_factors(n, False, -1), _stencil_mode_errors(n)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


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


def test_complex_resample_against_direct_sum():
    modes = {3: 1 + 0.5j, -7: 0.3j, 16: 0.2, -16: 0.1 - 0.4j, 20: 0.05, -25: 0.02j}

    def direct(t, keep=lambda k: True):
        return sum(c * np.exp(1j * k * t) for k, c in modes.items() if keep(k))

    f = PeriodicFunction(direct(grid(64)))
    assert np.abs(f.resample(128).samples - direct(grid(128))).max() < 1e-13
    # truncation drops |k| > 16; +16 and -16 fold onto the new Nyquist bin
    down = f.resample(32).samples
    assert np.abs(down - direct(grid(32), lambda k: abs(k) <= 16)).max() < 1e-13
    assert np.abs(down - direct(grid(32), lambda k: abs(k) < 16)).max() > 0.1
    # the old Nyquist mode is split evenly between +32 and -32
    nyquist = PeriodicFunction(0.3 * np.exp(32j * grid(64)))
    assert np.abs(nyquist.resample(128).samples - 0.3 * np.cos(32 * grid(128))).max() < 1e-13


def test_tail_indicator():
    t = grid(256)
    smooth = PeriodicFunction(np.sin(2 * t))
    assert smooth.tail < 1e-15
    rough = PeriodicFunction(np.sin(100 * t))
    assert rough.tail == pytest.approx(0.5, abs=1e-12)


def _tail_case(kind, k):
    t = grid(64)
    if kind == "real":
        return np.cos(k * t)
    if kind == "complex":
        return np.exp(1j * k * t)
    samples = np.zeros((64, 2, 2), dtype=complex)
    samples[:, 0, 1] = np.exp(1j * k * t)
    return samples


@pytest.mark.parametrize(
    "kind, k, tail",
    [
        ("real", 16, 0.5),
        ("real", 15, 0.0),
        ("complex", 16, 1.0),
        ("complex", -16, 1.0),
        ("complex", 15, 0.0),
        ("complex", -15, 0.0),
        ("complex matrix", -16, 1.0),
    ],
)
def test_tail_boundary(kind, k, tail):
    """The tail reads the modes n/4 <= |k| <= n/2, both ends included, in the
    rfft and the fft layout; a mode just below reads as FFT roundoff
    (about 1.1e-15 here)."""
    assert PeriodicFunction(_tail_case(kind, k)).tail == pytest.approx(tail, abs=1e-14)


@pytest.mark.parametrize("m", [16, 32])
@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["scalar", "matrix"])
def test_real_resample_down_keeps_new_nyquist_mode(shape, m):
    """Real data with modes |k| <= m/2, the new Nyquist mode included,
    resamples down to every (n/m)-th sample, as the same data held complex
    does."""
    n = 64
    t = grid(n)
    rng = np.random.default_rng(m)
    samples = sum(
        np.multiply.outer(np.cos(k * t), rng.normal(size=shape))
        + np.multiply.outer(np.sin(k * t), rng.normal(size=shape))
        for k in range(m // 2 + 1)
    )
    down = PeriodicFunction(samples).resample(m).samples
    assert np.abs(down - samples[:: n // m]).max() < 1e-13
    assert np.abs(down - PeriodicFunction(samples + 0j).resample(m).samples.real).max() < 1e-13


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


def test_real_matrix_samples_match_entrywise_scalars():
    rng = np.random.default_rng(5)
    t = grid(64)
    k = np.arange(6)
    modes = np.concatenate([np.cos(np.outer(k, t)), np.sin(np.outer(k[1:], t))])
    samples = np.einsum("mt,mij->tij", modes, rng.normal(size=(len(modes), 2, 3)))
    f = PeriodicFunction(samples)
    entries = [(i, j, PeriodicFunction(samples[:, i, j])) for i in range(2) for j in range(3)]
    x = rng.uniform(-7.0, 7.0, 50)
    vals = f.eval(x)
    assert vals.shape == (50, 2, 3) and f.eval(0.3).shape == (2, 3)
    for order in (1, 2, 3):
        d = f.derivative(order).samples
        for i, j, g in entries:
            assert np.abs(d[:, i, j] - g.derivative(order).samples).max() < 1e-11
    anti, up, down = f.antiderivative()[0].samples, f.resample(256).samples, f.resample(32).samples
    for i, j, g in entries:
        assert np.abs(vals[:, i, j] - g.eval(x)).max() < 1e-12
        assert np.abs(anti[:, i, j] - g.antiderivative()[0].samples).max() < 1e-12
        assert np.abs(up[:, i, j] - g.resample(256).samples).max() < 1e-12
        assert np.abs(down[:, i, j] - g.resample(32).samples).max() < 1e-12


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
    assert np.array_equal(p._fine_values(), np.concatenate([p.samples[-4:], p.samples, p.samples[:5]]))
    x = np.random.default_rng(1).uniform(0, 2 * np.pi, 500)
    assert np.abs(p.eval(x) - direct_sum(p.samples, x)).max() < 1e-12


@pytest.mark.parametrize("factor", [1, 2, 8])
@pytest.mark.parametrize("kind", ["real", "complex", "matrix"])
def test_cache_holds_the_samples_at_its_nodes_and_wraps_4_left_and_5_right(kind, factor):
    """_cache(F) is the F * n grid with every F-th entry the sample bit for
    bit, where the upsampling alone rounds them, padded by the grid's last 4
    entries on the left and its first 5 on the right."""
    rng = np.random.default_rng(factor)
    shape = (32, 2, 2) if kind == "matrix" else (32,)
    samples = rng.normal(size=shape) + (0.0 if kind == "real" else 1j * rng.normal(size=shape))
    f = PeriodicFunction(samples)
    cache, m = f._cache(factor), factor * f.n
    assert cache.shape == (m + 9,) + shape[1:]
    assert np.array_equal(cache[4 : 4 + m : factor], samples)
    assert factor == 1 or not np.array_equal(f._upsample(factor)[::factor], samples)
    assert np.array_equal(cache[:4], cache[m : m + 4])
    assert np.array_equal(cache[m + 4 :], cache[4:9])


def test_near_nyquist_content_is_oversampled():
    """Content near the Nyquist frequency keeps the caps: 64x for real data up
    to N = 2048, 8x above that and for complex data."""
    x = np.random.default_rng(2).uniform(0, 2 * np.pi, 500)
    for n, factor, fn in [
        (8192, 8, lambda t: np.sin(t) + 1e-5 * np.cos(4000 * t) + 1e-5 * np.sin(4090 * t)),
        (1024, 64, lambda t: np.sin(t) + np.cos(500 * t) + np.sin(510 * t)),
        (1024, 8, lambda t: np.exp(1j * t) + 1e-5 * np.exp(-500j * t) + 1e-5 * np.exp(-510j * t)),
    ]:
        f = PeriodicFunction.from_callable(fn, n)
        assert _stencil_error_bound(f.spectrum, n, f.is_real) > 1e-12
        assert len(f._fine_values()) == factor * n + 9
        if f.is_real:
            reference = direct_sum(f.samples, x)
        else:  # no Nyquist mode, so the fft coefficients sum directly
            reference = np.exp(1j * np.outer(x, np.fft.fftfreq(n, d=1.0 / n))) @ (np.fft.fft(f.samples) / n)
        assert np.abs(f.eval(x) - reference).max() < 1e-12


def test_every_verify_cache_sits_at_its_certified_factor(monkeypatch):
    """Each evaluation cache that run_suites("all", 11, 4) builds sits at the
    smallest power-of-two factor F whose stencil bound on the F * n grid,
    written out here mode by mode in the fft layout, is at most 1e-12, or at
    the cap: 64x for real data up to n = 2048, 8x otherwise."""
    fill = PeriodicFunction._fine_values
    caches = []

    def bound(f, factor):
        k = np.arange(f.n // 2 + 1) if f.is_real else np.abs(np.fft.fftfreq(f.n, d=1.0 / f.n))
        kh = k * TWO_PI / (f.n * factor)
        amplitude = np.abs(f.spectrum).reshape(len(k), -1).max(axis=1) * (2.0 if f.is_real else 1.0)
        return float(amplitude @ (np.minimum(_REMAINDER * kh**10, _MODE_ERROR_CAP) + _SNAP * kh))

    def spy(f):
        if f._fine is not None:
            return fill(f)
        cache = fill(f)
        factor = (len(cache) - 9) // f.n
        cap = 64 if f.is_real and f.n <= 2048 else 8
        caches.append((factor, cap, bound(f, factor), bound(f, factor // 2) if factor > 1 else math.inf))
        return cache

    monkeypatch.setattr(PeriodicFunction, "_fine_values", spy)
    run_suites("all", 11, 4, 1024)
    assert {factor for factor, *_ in caches} >= {1, 2}
    for factor, cap, at_factor, at_half in caches:
        assert factor in (1, 2, 4, 8, 16, 32, 64) and factor <= cap
        assert at_factor <= 1e-12 or factor == cap
        assert at_half > 1e-12


def _tail_gate_calls():
    """The operations gated on the spectral tail of their result, besides
    compose (test_diffeo), on inputs whose result tail is far above the
    default tolerance."""
    t64 = grid(64)
    zero = np.zeros(64)
    g14 = exp_loop(LoopAlgebraElement.from_components(0.1 * np.cos(14 * t64), zero, zero))
    g15 = exp_loop(LoopAlgebraElement.from_components(zero, 0.1 * np.sin(15 * t64), zero))
    f, g = PeriodicFunction(np.sin(10 * t64)), PeriodicFunction(np.cos(9 * t64))
    coarse = CircleDiffeo.from_fourier([(1, 0, 0.005)], 128)
    arcs = IntervalArc(0.3, 3.6), IntervalArc(3.1, TWO_PI + 0.8)
    return {
        "multiply": lambda **kw: multiply(g14, g15, **kw),
        "vect_bracket": lambda **kw: vect_bracket(f, g, **kw),
        "fragment": lambda **kw: fragment(coarse, **kw),
        "fragment_pair": lambda **kw: fragment_pair(coarse, *arcs, **kw),
    }


@pytest.mark.parametrize("operation", ["multiply", "vect_bracket", "fragment", "fragment_pair"])
def test_tail_gate_raises(operation):
    call = _tail_gate_calls()[operation]
    with pytest.raises(AliasingError, match="; raise the grid size$"):
        call()
    if operation == "multiply":
        assert call(tail_tol=None).pf.tail > 1e-3


def _mismatched_grid_calls():
    """Every operation on two operands, on grids of 16 and 32 points."""
    f16, f32 = PeriodicFunction.zero(16), PeriodicFunction.zero(32)
    x16, x32 = LoopAlgebraElement.zero(16), LoopAlgebraElement.zero(32)
    g16, g32 = loops.LoopElement.identity(16), loops.LoopElement.identity(32)
    v16, v32 = cocycles.VectField(f16), cocycles.VectField(f32)
    d16, d32 = CircleDiffeo.identity(16), CircleDiffeo.identity(32)
    return {
        "PeriodicFunction._binary": lambda: f16 * f32,
        "multiply": lambda: loops.multiply(g16, g32),
        "bracket": lambda: loops.bracket(x16, x32),
        "omega": lambda: loops.omega(x16, x32),
        "vect_bracket": lambda: cocycles.vect_bracket(v16, v32),
        "vect_cocycle": lambda: cocycles.vect_cocycle(f16, f32),
        "bott": lambda: cocycles.bott(d16, d32),
    }


@pytest.mark.parametrize("operation", sorted(_mismatched_grid_calls()))
def test_operands_on_two_grids_are_refused_in_one_place(operation):
    with pytest.raises(ValueError, match="^grid size mismatch$") as info:
        _mismatched_grid_calls()[operation]()
    assert info.traceback[-1].name == "_same_grid"


def test_arithmetic_is_sample_arithmetic():
    t = grid(32)
    for a, b in (
        (np.sin(t), np.cos(3 * t) + 0.5),
        (np.exp(1j * t), np.exp(-2j * t)),
        (np.full((32, 2, 2), 0.25) + 1j * np.cos(t)[:, None, None], np.ones((32, 2, 2)) * np.sin(t)[:, None, None]),
    ):
        f, g = PeriodicFunction(a), PeriodicFunction(b)
        for got, expected in (
            (f + g, a + b),
            (f - g, a - b),
            (f * g, a * b),
            (f + 1.5, a + 1.5),
            (f - 1.5, a - 1.5),
            (f * 1.5, a * 1.5),
            (1.5 * f, 1.5 * a),
            (-f, -a),
        ):
            assert np.array_equal(got.samples, expected)
            assert got.is_real == np.isrealobj(expected)
