"""Spectral engine for smooth 2pi-periodic functions on a uniform grid.

A function is held as N samples at t_k = 2*pi*k/N (N a power of two) and
identified with the unique trigonometric polynomial of degree < N/2 through
them.  Differentiation and full-period integration act on the Fourier
coefficients and are exact for band-limited data.  Evaluation between grid
points uses 10-point local Lagrange interpolation on a cached grid whose
resolution is chosen from the data.  The weights at cell offset u in [0, 1]
are (1, u, ..., u^9) times one constant 10x10 matrix, the monomial
coefficients of the Lagrange basis; on this fixed stencil the monomial form is
well conditioned (its entries sum to 10.6 in absolute value), so it needs no
per-point division.  A point within 1e-11 cells of a node is snapped onto it,
u = 0, where the weights are exactly one-hot: grid points evaluate
sample-exact.  The function's own spectrum certifies the interpolation error:
the cache is the zero-padded oversampling by the smallest power-of-two factor
F whose summed Lagrange remainder bound over the modes is at most 1e-12 on the
F * N grid, so F = 1 makes the samples themselves the cache.  Data that never
certifies stops at a cap (64x for real data up to N = 2048, 8x above that and
for complex data), which keeps modes up to the Nyquist frequency accurate to
~1e-13.

Scalar (real or complex) and matrix-valued samples are supported; all
spectral operations act along the first axis.

Real data is held in the rfft layout (wavenumbers 0..N/2), complex data in
the fft layout (fftfreq order); the Nyquist mode sits at index N/2 in both.
The choice is made once, in `PeriodicFunction.spectrum` (the one forward
transform), `_wavenumbers` and `_from_spectrum` (the one inverse), and every
spectral operation is written once on top of them.

Each Fourier formula is written once, here: `_fourier_samples` turns
(k, a_k, b_k) terms into samples, `PeriodicFunction._antiderivative_spectrum`
is the spectral antiderivative (also behind fragmentation's localization
stages), and `PeriodicFunction._upsample` is the zero-pad resampling behind
the evaluation caches, `resample` and fragmentation's fine grids.  Three more
helpers have one owner here: `_check_tail` is the spectral-tail gate of
every nonlinear operation, at the one threshold `DEFAULT_TAIL_TOL` unless a
caller switches it off, `_same_grid` refuses operands on two grids, and
`_write_csv` writes every sampled CSV file.  Evaluation caches have one owner
too: `PeriodicFunction._cache` builds and pads each, `_cache_factor` gives a
cache's factor and `_read` reads through a stencil the caller may keep.  A
read gathers whole 10-entry rows of a window view of the padded cache, whose
item j is the stencil row at base index j, so it allocates no index array,
and contracts a matrix cache's rows on their float64 view.  Angles are
reduced modulo 2pi in one helper, `_mod_two_pi`, with np.mod's bytes but,
on long arrays inside [-4pi, 4pi), by masked steps of 2pi that round only
where np.mod rounds, instead of numpy's float divmod; the stencil then
truncates the non-negative cell position and wraps its base index with a
power-of-two mask.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AliasingError

__all__ = ["PeriodicFunction", "grid"]

TWO_PI = 2.0 * np.pi

# Caps on the point-evaluation cache's oversampling, for data that never
# certifies: 64x for real data up to N = 2048, 8x for longer grids, which
# already resolve their content, and for complex data.
_EVAL_FACTOR_REAL = 64
_EVAL_FACTOR_COMPLEX = 8


_STENCIL = 10
_OFFSETS = np.arange(_STENCIL) - (_STENCIL // 2 - 1)  # -4 .. 5
_SNAP = 1e-11  # points this many cells from a node are snapped onto it


def _monomial_form() -> np.ndarray:
    """[d, s]: the u^d coefficient of the Lagrange basis polynomial of offset s.
    Numerators and denominators are exact integers, so each entry is rounded
    once; row 0, the basis at u = 0, is exactly one-hot."""
    offsets = _OFFSETS.tolist()
    columns = []
    for o in offsets:
        poly, denom = [1], 1  # lowest degree first
        for p in offsets:
            if p != o:
                poly = [a - p * b for a, b in zip([0] + poly, poly + [0])]  # times (u - p)
                denom *= o - p
        columns.append([float(o == 0)] + [c / denom for c in poly[1:]])
    return np.array(list(zip(*columns)))


_MONOMIAL = _monomial_form()

# Error of the stencil on one Fourier mode of unit amplitude, where kh is the
# mode's phase advance per cell.  The Lagrange remainder gives R (kh)^10 with
# R = max_{0<=u<=1} |prod(u - o)| / 10!, attained at u = 1/2 (about 2.4e-4);
# the mode plus the stencil's Lebesgue constant on its middle cell (1.563)
# caps it at 2.57; snapping moves a point by at most _SNAP cells, adding
# _SNAP kh.
_REMAINDER = float(np.prod(np.abs(0.5 - _OFFSETS))) / math.factorial(_STENCIL)
_MODE_ERROR_CAP = 2.57

# An evaluation cache is certified when its stencil error bound is at most this.
_OWN_SAMPLES_TOL = 1e-12

# Relative to its largest coefficient, derivative() zeroes coefficients below this.
_ROUNDOFF_FLOOR = 4.0 * np.finfo(float).eps


def grid(n: int) -> np.ndarray:
    """Sample points t_k = 2*pi*k/n."""
    return _nodes(np.arange(n), n)


def _nodes(indices: np.ndarray, m: int) -> np.ndarray:
    """Nodes 2*pi*k/m of the m-point grid at the indices k: grid and the
    construction grids of frag_diff read them here, so they agree bit for bit."""
    return TWO_PI * indices / m


def _check_grid_size(n: int) -> None:
    if n < 16 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")


def _same_grid(a, b) -> None:
    """ValueError unless the operands a and b, each with a grid size n, share one grid."""
    if a.n != b.n:
        raise ValueError("grid size mismatch")


def _wavenumbers(n: int, is_real: bool) -> np.ndarray:
    """Wavenumber at each index of the n-point spectrum; the Nyquist mode,
    +n/2 in the rfft layout and -n/2 in the fft layout, at index n/2."""
    return np.arange(n // 2 + 1) if is_real else np.fft.fftfreq(n, d=1.0 / n)


# Per-grid spectral tables, built once per (n, layout): read-only, since every
# caller shares them.  A table holds 16 (n/2 + 1) bytes for real data and 16 n
# for complex data, 0.5 and 1 MB at n = 65536.
@functools.lru_cache(maxsize=32)
def _mode_factors(n: int, is_real: bool, order: int) -> np.ndarray:
    """(ik)^order at each index of the n-point spectrum in its layout, for a
    derivative of order 1..3; for order -1, the antiderivative's 1/(ik), 0 at
    k = 0.  Numpy divides by 0 + ik as it multiplies by fl(1/k), so
    multiplying by this table gives the division's bytes."""
    k = _wavenumbers(n, is_real)
    if order > 0:
        table = (1j * k) ** order
    else:
        table = np.zeros(len(k), dtype=complex)
        table[1:] = 1 / (1j * k[1:])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _stencil_mode_errors(n: int, factor: int = 1) -> np.ndarray:
    """The stencil's error on each wavenumber 0..n/2 of the n-point grid, read on
    the factor * n grid (see _REMAINDER)."""
    kh = np.arange(n // 2 + 1) * (TWO_PI / (n * factor))
    table = np.minimum(_REMAINDER * kh**_STENCIL, _MODE_ERROR_CAP) + _SNAP * kh
    table.flags.writeable = False
    return table


def _stencil_error_bound(spectrum: np.ndarray, n: int, is_real: bool = True, factor: int = 1) -> float:
    """Bound on the 10-point interpolation error, on the factor * n grid, of data
    with this n-point spectrum: the stencil's error on each wavenumber 0..n/2
    times its amplitude, summed.  The amplitude is 2|c_k| for real data and
    |c_k| + |c_-k| for complex data, each the largest over a matrix's entries."""
    a = np.abs(spectrum)
    if a.ndim > 1:
        a = a.reshape(len(a), -1).max(axis=1)
    if not is_real:
        a, negative = a[: n // 2 + 1].copy(), a[: n // 2 : -1]
        a[1 : n // 2] += negative
    return (2.0 if is_real else 1.0) * float(a @ _stencil_mode_errors(n, factor))


def _along_first_axis(k: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per-frequency factors shaped to broadcast along the first axis of samples."""
    return k.reshape((-1,) + (1,) * (samples.ndim - 1))


def _require_resolved(k, n: int) -> None:
    """AliasingError unless the n-point grid resolves wavenumber k, i.e. |k| < n/2."""
    if 2 * abs(k) >= n:
        raise AliasingError(f"wavenumber {k} aliases on the {n}-point grid (|k| must be below {n // 2})")


def _fourier_samples(terms, n: int) -> np.ndarray:
    """Samples on the n-point grid of sum a cos(k t) + b sin(k t) over (k, a, b)
    terms; AliasingError for a wavenumber the grid cannot resolve."""
    t = grid(n)
    out = np.zeros(n)
    for k, a, b in terms:
        _require_resolved(k, n)
        out += a * np.cos(k * t) + b * np.sin(k * t)
    return out


# Results of nonlinear operations (composition, localization, loop products,
# brackets) must stay spectrally resolved.  The smooth-step cutoffs carry slow
# Gevrey tails, so localized elements on the default 1024-point grid
# legitimately sit in the 1e-9 .. 1e-8 band; the operational gate is therefore
# 1e-7 while the band-limited property suite monitors the stricter 1e-9 level.
DEFAULT_TAIL_TOL = 1e-7


def _check_tail(pf: "PeriodicFunction", tail_tol: float | None, subject: str) -> "PeriodicFunction":
    """pf, unless its spectral tail exceeds tail_tol (None disables the gate):
    AliasingError naming the subject."""
    if tail_tol is not None and pf.tail > tail_tol:
        raise AliasingError(f"{subject} tail {pf.tail:.3e} exceeds {tail_tol:.1e}; raise the grid size")
    return pf


def _write_csv(samples: np.ndarray, path) -> None:
    """Rows "t,columns" at the grid points, 17 significant digits: the sample's
    real columns, complex entries as re, im and matrices row-major."""
    n = samples.shape[0]
    cols = np.ascontiguousarray(samples).reshape(n, -1)
    if np.iscomplexobj(cols):
        cols = cols.view(float)
    fmt = ",".join(["{:.17g}"] * (cols.shape[1] + 1)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(fmt.format(*row) for row in np.column_stack([grid(n), cols]).tolist())


# Arrays shorter than this take one np.mod in _mod_two_pi.  Its steps cost
# about 3 us a call on angles in [0, 2pi) and 6 us when some need a shift,
# against 12 ns an entry for numpy's float divmod, so they break even between
# about 250 and 700 entries (numpy 2.4 on one Xeon core).
_MOD_CROSSOVER = 512


def _mod_two_pi(t):
    """np.mod(t, TWO_PI), bit for bit, for a float64 array or scalar t.

    On an array of at least _MOD_CROSSOVER entries inside [-4 pi, 4 pi), with
    masks read off t itself: 2 pi is subtracted where t >= 2 pi and added where
    t < -2 pi, both exact by Sterbenz's lemma as numpy's fmod is, and then
    added where t < 0, the one rounded step, which numpy's divmod takes too.
    Each step adds a mask times 2 pi, so elsewhere it adds an exact zero.
    Adding 0.0 first turns -0.0 into +0.0, as np.mod does.  NaN, infinities,
    farther angles, scalars and short arrays go to np.mod itself."""
    if t.ndim == 0 or t.size < _MOD_CROSSOVER:
        return np.mod(t, TWO_PI)
    lo, hi = np.minimum.reduce(t, axis=None), np.maximum.reduce(t, axis=None)
    if not (-2.0 * TWO_PI <= lo and hi < 2.0 * TWO_PI):  # NaN fails too
        return np.mod(t, TWO_PI)
    r = t + 0.0
    if hi >= TWO_PI:
        r -= (t >= TWO_PI) * TWO_PI
    if lo < -TWO_PI:
        r += (t < -TWO_PI) * TWO_PI
    if lo < 0.0:
        r += (t < 0.0) * TWO_PI
    return r


def _lagrange_weights(t: np.ndarray, m: int):
    """Stencil base indices into a padded cache and the 10 Lagrange weights,
    as the powers of the cell offset u times _MONOMIAL.

    Points within _SNAP cells of a fine-grid node (in particular every coarse
    grid point) are moved onto it, u = 0, where the weight row is exactly
    one-hot, so those evaluations are sample-exact.  A point just below a
    cell's right node moves to the next cell, which after the last cell is
    cell 0.  The reduced position x is at least 0 or NaN, so truncation is its
    floor, and m is a power of two, so the wrap is a mask; a non-finite point
    casts to the most negative index, which the mask sends to 0 as % m would.
    """
    x = _mod_two_pi(t)
    x *= m / TWO_PI
    x[x >= m] -= m  # mod can round up to the period boundary
    j0 = x.astype(np.intp)
    u = x - j0
    near1 = u > 1.0 - _SNAP
    j0 = (j0 + near1) & (m - 1)
    u[(u < _SNAP) | near1] = 0.0
    powers = np.empty((_STENCIL, len(u)))
    powers[0] = 1.0
    for d in range(1, _STENCIL):
        np.multiply(powers[d - 1], u, out=powers[d])
    return j0, powers.T @ _MONOMIAL


def _lagrange_apply(stencil, *caches: np.ndarray) -> list:
    """Interpolate padded caches of one length through a stencil that
    _lagrange_weights built for that length: one value array per cache.

    Each cache, C-contiguous as `_cache` builds it, is read through a window
    view that shares its buffer and whose item j is one whole stencil row,
    the 10 entries c[j : j + 10].  A base index is an item index of that
    view, so indexing it with j0 gathers the rows, one copy each, into the
    C-contiguous (M, 10[, ...]) array that c[j0 + arange(10)] gives, with no
    (M, 10) index array built.  A matrix cache's rows are contracted as
    their float64 view, (M, 10, k) with the real and imaginary parts of each
    entry side by side, and the (M, k) result is viewed back as the cache's
    dtype.  The complex contraction's products differ from these only in
    the sign of a zero, which sums started at +0 do not keep, so the bits
    are the same, in about a fifth of the time."""
    j0, w = stencil
    out = []
    for c in caches:
        rows = np.ndarray((len(c) - _STENCIL + 1,), (np.void, _STENCIL * c.strides[0]), c, 0, c.strides[:1])
        if c.ndim == 1:
            out.append(np.einsum("ps,ps->p", w, rows[j0].view(c.dtype).reshape(len(j0), _STENCIL)))
        else:
            gathered = rows[j0].view(np.float64).reshape(len(j0), _STENCIL, c.strides[0] // 8)
            out.append(np.einsum("ps,psk->pk", w, gathered).view(c.dtype).reshape((len(j0),) + c.shape[1:]))
    return out


class PeriodicFunction:
    """Samples of a smooth 2pi-periodic function with spectral interpolation."""

    __slots__ = ("samples", "n", "is_real", "_spectrum", "_fine")

    def __init__(self, samples) -> None:
        arr = np.asarray(samples)
        if arr.ndim not in (1, 3):
            raise ValueError("samples must be a vector or a stack of matrices")
        _check_grid_size(arr.shape[0])
        self._hold(arr.astype(complex if np.iscomplexobj(arr) else float, order="C"))

    def _hold(self, arr: np.ndarray) -> None:
        """Hold a float64 or complex128 array of grid samples, made read-only."""
        arr.flags.writeable = False
        self.samples = arr
        self.n = arr.shape[0]
        self.is_real = arr.dtype == np.float64
        self._spectrum = None
        self._fine = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_callable(cls, fn, n: int = 1024) -> "PeriodicFunction":
        return cls(fn(grid(n)))

    @classmethod
    def zero(cls, n: int = 1024) -> "PeriodicFunction":
        return cls(np.zeros(n))

    @classmethod
    def constant(cls, value: float, n: int = 1024) -> "PeriodicFunction":
        return cls(np.full(n, float(value)))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "PeriodicFunction":
        """The function of a float64 or complex128 array of grid samples that
        the library has just allocated and holds nowhere else: made read-only
        and held as the samples, not copied as the constructor copies."""
        pf = cls.__new__(cls)
        pf._hold(arr)
        return pf

    @classmethod
    def _with_spectrum(cls, samples: np.ndarray, spectrum: np.ndarray) -> "PeriodicFunction":
        """`_adopt` of these fresh samples, whose spectrum (in the layout and
        normalization of `spectrum`) the caller already knows, so the forward
        transform is skipped; nothing checks that the two agree."""
        pf = cls._adopt(samples)
        pf._spectrum = spectrum
        return pf

    # -- spectrum -----------------------------------------------------

    @property
    def spectrum(self) -> np.ndarray:
        """Two-sided Fourier coefficients c_k = fft(samples)/n (rfft layout for real data)."""
        if self._spectrum is None:
            fft = np.fft.rfft if self.is_real else np.fft.fft
            self._spectrum = fft(self.samples, axis=0, norm="forward")
        return self._spectrum

    def _from_spectrum(self, c: np.ndarray, m: int | None = None) -> np.ndarray:
        """Samples on the m-point grid (default n) of the coefficients c, given
        in this function's layout for m points."""
        ifft = np.fft.irfft if self.is_real else np.fft.ifft
        return ifft(c, m or self.n, axis=0, norm="forward")

    @property
    def tail(self) -> float:
        """Largest coefficient magnitude in the top octave of frequencies,
        n/4 <= |k| <= n/2 (the rfft layout ends at n/2)."""
        n = self.n
        return float(np.abs(self.spectrum[n // 4 : 3 * n // 4 + 1]).max())

    # -- evaluation ---------------------------------------------------

    def _fine_values(self) -> np.ndarray:
        """The function's evaluation cache: `_cache` at the smallest power-of-two
        factor whose certified stencil error is within _OWN_SAMPLES_TOL, or the cap."""
        if self._fine is None:
            cap = _EVAL_FACTOR_REAL if self.is_real and self.n <= 2048 else _EVAL_FACTOR_COMPLEX
            factor = 1
            while factor < cap and _stencil_error_bound(self.spectrum, self.n, self.is_real, factor) > _OWN_SAMPLES_TOL:
                factor *= 2
            self._fine = self._cache(factor)
        return self._fine

    def _cache(self, factor: int) -> np.ndarray:
        """Evaluation cache on the factor * n grid, grid nodes restored bit-exact,
        wrapped 4 entries on the left and 5 on the right so gathers skip the mod."""
        fine = self._upsample(factor)
        if factor > 1:
            fine[::factor] = self.samples
        return np.concatenate([fine[-4:], fine, fine[:5]], axis=0)

    def _cache_factor(self) -> int:
        """The factor that the function's evaluation cache took."""
        return (len(self._fine_values()) - _STENCIL + 1) // self.n

    def _read(self, t: np.ndarray, stencils: dict, *also: np.ndarray) -> list:
        """Values at the angles t of the function and of the caches `also` that
        `_cache` built at its factor, one array each, through the stencil of t
        for the cache length: taken from `stencils`, or built into it."""
        fine = self._fine_values()
        m = len(fine) - _STENCIL + 1
        if m not in stencils:
            stencils[m] = _lagrange_weights(t, m)
        return _lagrange_apply(stencils[m], fine, *also)

    def _upsample(self, factor: int) -> np.ndarray:
        """Samples on the factor * n grid: the spectrum zero-padded, with the
        Nyquist mode split evenly between +n/2 and -n/2."""
        if factor == 1:
            return self.samples
        c, m, h = self.spectrum, factor * self.n, self.n // 2
        padded = np.zeros((m // 2 + 1 if self.is_real else m,) + c.shape[1:], dtype=complex)
        padded[:h] = c[:h]
        padded[h] = 0.5 * c[h]
        if not self.is_real:
            padded[m - h] = padded[h]
            padded[m - h + 1 :] = c[h + 1 :]
        return self._from_spectrum(padded, m)

    def eval(self, t):
        """Trigonometric interpolant at angle(s) t of any shape, read as one
        flat array; exact at grid points."""
        t = np.asarray(t, dtype=float)
        [out] = self._read(t.ravel(), {})
        return out[0] if t.ndim == 0 else out.reshape(t.shape + out.shape[1:])

    __call__ = eval

    # -- calculus -----------------------------------------------------

    def derivative(self, order: int = 1) -> "PeriodicFunction":
        """Spectral derivative; exact for band-limited samples.  order in {1, 2, 3}.

        Coefficients below the roundoff floor are zeroed first, so the k^order
        amplification acts on signal, not on FFT noise.
        """
        if order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        c = self.spectrum.copy()
        a = np.abs(c)
        c[a < _ROUNDOFF_FLOOR * a.max()] = 0.0
        c *= _along_first_axis(_mode_factors(self.n, self.is_real, order), c)
        c[self.n // 2] = 0.0  # Nyquist mode dropped by convention
        return PeriodicFunction._adopt(self._from_spectrum(c))

    @property
    def mean(self):
        m = self.samples.mean(axis=0)
        return float(m) if self.is_real and self.samples.ndim == 1 else m

    def antiderivative(self) -> tuple["PeriodicFunction", float]:
        """Periodic part F of the antiderivative, normalized to F(0) = 0, plus the mean.

        The full antiderivative is theta -> mean * theta + F(theta), so
        partial integrals over [a, b] are mean*(b-a) + F(b) - F(a).
        """
        f = self._from_spectrum(self._antiderivative_spectrum())
        return PeriodicFunction(f - f[0]), self.mean

    def _antiderivative_spectrum(self) -> np.ndarray:
        """Coefficients of the zero-mean periodic antiderivative, in the
        spectrum's layout; the mean and the Nyquist mode are dropped."""
        c = self.spectrum
        out = c * _along_first_axis(_mode_factors(self.n, self.is_real, -1), c)
        out[[0, self.n // 2]] = 0.0
        return out

    def integrate(self, a: float, b: float):
        """Integral over [a, b] with a <= b <= a + 2*pi.

        The full period uses the trapezoid rule (spectrally exact for
        band-limited samples); partial intervals go through the spectral
        antiderivative with the zero mode handled linearly.
        """
        if b < a or b > a + TWO_PI + 1e-12:
            raise ValueError("require a <= b <= a + 2*pi")
        if abs((b - a) - TWO_PI) < 1e-12:
            return self.mean * TWO_PI
        f, mean = self.antiderivative()
        return mean * (b - a) + f.eval(b) - f.eval(a)

    # -- resampling and export ----------------------------------------

    def resample(self, m: int) -> "PeriodicFunction":
        """Spectral resampling to an m-point grid.

        Up, the spectrum is zero-padded (see _upsample).  Down, the modes with
        |k| < m/2 are kept and the modes +m/2 and -m/2 fold onto the new
        Nyquist bin as their sum c_{m/2} + c_{-m/2}, where c_{-k} = conj(c_k)
        for real data; so data with no mode above m/2 resamples to
        samples[::n // m].
        """
        _check_grid_size(m)
        n = self.n
        if m == n:
            return self
        if m > n:
            return PeriodicFunction(self._upsample(m // n))
        c, h = self.spectrum, m // 2
        if self.is_real:
            kept, partner = c[: h + 1].copy(), np.conj(c[h])
        else:
            kept, partner = np.concatenate([c[: h + 1], c[n - h + 1 :]]), c[n - h]
        kept[h] += partner
        return PeriodicFunction(self._from_spectrum(kept, m))

    def to_csv(self, path) -> None:
        """Write rows "t,value" (complex values as "t,re,im") at the grid points,
        17 significant digits."""
        if self.samples.ndim != 1:
            raise ValueError("CSV export is for scalar functions")
        _write_csv(self.samples, path)

    # -- arithmetic (pointwise, same grid) -----------------------------

    def _binary(self, other, op):
        if isinstance(other, PeriodicFunction):
            _same_grid(self, other)
            other = other.samples
        return PeriodicFunction(op(self.samples, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return PeriodicFunction(other * self.samples)

    def __neg__(self):
        return PeriodicFunction(-self.samples)

    def __repr__(self) -> str:
        kind = "real" if self.is_real else "complex"
        shape = "scalar" if self.samples.ndim == 1 else f"{self.samples.shape[1:]} matrix"
        return f"PeriodicFunction(n={self.n}, {kind} {shape}, tail={self.tail:.2e})"
