"""Spectral engine for smooth 2pi-periodic functions on a uniform grid.

A function is held as N samples at t_k = 2*pi*k/N (N a power of two) and
identified with the unique trigonometric polynomial of degree < N/2 through
them.  Differentiation and full-period integration act on the Fourier
coefficients and are exact for band-limited data.  Evaluation between grid
points uses 10-point local Lagrange interpolation on a cached grid whose
resolution is chosen from the data.  For real scalar data the function's own
spectrum certifies the interpolation error: when the summed Lagrange
remainder bound over its modes is at most 1e-12, the samples themselves are
the cache.  Otherwise, and for complex or matrix data, the cache is a
zero-padded oversampling (64x for real data up to N = 2048, 8x above that
and for complex data), which keeps modes up to the Nyquist frequency
accurate to ~1e-13.

Scalar (real or complex) and matrix-valued samples are supported; all
spectral operations act along the first axis.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PeriodicFunction", "grid"]

TWO_PI = 2.0 * np.pi

# Oversampling factors for the point-evaluation cache when the samples alone
# are not certified accurate enough.  Real scalar data is the
# accuracy-critical path (diffeomorphism arithmetic), matrix data only feeds
# tolerance checks at the 1e-8 level.  Long grids already resolve their
# content, so their cache oversamples less.
_EVAL_FACTOR_REAL = 64
_EVAL_FACTOR_COMPLEX = 8


def _eval_factor_real(n: int) -> int:
    return _EVAL_FACTOR_REAL if n <= 2048 else 8


_STENCIL = 10
_OFFSETS = np.arange(_STENCIL) - (_STENCIL // 2 - 1)  # -4 .. 5
_DENOM = np.array(
    [np.prod([o - p for p in _OFFSETS if p != o]) for o in _OFFSETS], dtype=float
)
_SNAP = 1e-11  # points this many cells from a node are snapped onto it

# Error of the stencil on one Fourier mode of unit amplitude, where kh is the
# mode's phase advance per cell.  The Lagrange remainder gives R (kh)^10 with
# R = max_{0<=u<=1} |prod(u - o)| / 10!, attained at u = 1/2 (about 2.4e-4);
# the mode plus the stencil's Lebesgue constant on its middle cell (1.563)
# caps it at 2.57; snapping moves a point by at most _SNAP cells, adding
# _SNAP kh.
_REMAINDER = float(np.prod(np.abs(0.5 - _OFFSETS))) / math.factorial(_STENCIL)
_MODE_ERROR_CAP = 2.57

# Real scalar data evaluates straight from its own samples when their
# certified stencil error is at most this.
_OWN_SAMPLES_TOL = 1e-12


def grid(n: int) -> np.ndarray:
    """Sample points t_k = 2*pi*k/n."""
    return TWO_PI * np.arange(n) / n


def _check_grid_size(n: int) -> None:
    if n < 16 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")


def _stencil_error_bound(spectrum: np.ndarray, n: int) -> float:
    """Bound on the 10-point interpolation error of real data on its own n-point
    grid, summed over its rfft coefficients c_k (each mode has amplitude 2|c_k|)."""
    kh = np.arange(len(spectrum)) * (TWO_PI / n)
    per_mode = np.minimum(_REMAINDER * kh**_STENCIL, _MODE_ERROR_CAP) + _SNAP * kh
    return 2.0 * float(np.abs(spectrum) @ per_mode)


def _upsample_real(samples: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return samples
    n = len(samples)
    c = np.fft.rfft(samples)
    padded = np.zeros(factor * n // 2 + 1, dtype=complex)
    padded[: n // 2 + 1] = c
    padded[n // 2] *= 0.5  # split the Nyquist bin symmetrically
    return np.fft.irfft(padded, factor * n) * factor


def _upsample_complex(samples: np.ndarray, factor: int) -> np.ndarray:
    n = samples.shape[0]
    m = factor * n
    c = np.fft.fft(samples, axis=0)
    padded = np.zeros((m,) + samples.shape[1:], dtype=complex)
    h = n // 2
    padded[:h] = c[:h]
    padded[m - h + 1 :] = c[h + 1 :]
    padded[h] = 0.5 * c[h]
    padded[m - h] = 0.5 * c[h]
    return np.fft.ifft(padded, axis=0) * factor


def _pad_fine(fine: np.ndarray) -> np.ndarray:
    """Wrap 4 samples on the left and 5 on the right so gathers skip the mod."""
    return np.concatenate([fine[-4:], fine, fine[:5]], axis=0)


def _lagrange_weights(t: np.ndarray, m: int):
    """Stencil base indices into a padded cache and the 10 barycentric weights.

    Points within rounding distance of a fine-grid node (in particular every
    coarse grid point) get a one-hot weight row, so those evaluations are
    sample-exact.
    """
    x = np.mod(t, TWO_PI) * (m / TWO_PI)
    x[x >= m] -= m  # mod can round up to the period boundary
    j0 = np.floor(x).astype(np.intp)
    u = x - j0
    near0 = u < _SNAP
    near1 = u > 1.0 - _SNAP
    u = np.where(near0, 0.0, u)
    du = u[:, None] - _OFFSETS[None, :]
    prod = du[:, 0].copy()
    for s in range(1, _STENCIL):
        prod *= du[:, s]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = prod[:, None] / (du * _DENOM[None, :])
    center = _STENCIL // 2 - 1  # the offset-0 column
    if near0.any():
        w[near0] = 0.0
        w[near0, center] = 1.0
    if near1.any():
        w[near1] = 0.0
        w[near1, center + 1] = 1.0
    return j0, w


def _lagrange_eval(padded: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Interpolate padded oversampled periodic data at angles t."""
    m = padded.shape[0] - _STENCIL + 1
    j0, w = _lagrange_weights(t, m)
    vals = padded[j0[:, None] + np.arange(_STENCIL)[None, :]]
    if vals.ndim > 2:
        return np.einsum("ps,ps...->p...", w, vals)
    return np.einsum("ps,ps->p", w, vals)


def _caches_on_one_stencil(f: "PeriodicFunction", g: "PeriodicFunction"):
    """f's evaluation cache and real g resampled to the same resolution, for
    _lagrange_eval_two; g's own cache is reused when it matches."""
    fine_f = f._fine_values()
    factor = (len(fine_f) - _STENCIL + 1) // f.n
    fine_g = g._fine_values() if factor > 1 else None
    if fine_g is None or len(fine_g) != len(fine_f):
        fine_g = _pad_fine(_upsample_real(g.samples, factor))
    return fine_f, fine_g


def _lagrange_eval_two(padded_a: np.ndarray, padded_b: np.ndarray, t: np.ndarray):
    """Evaluate two equally sampled functions at once, sharing the stencil."""
    m = padded_a.shape[0] - _STENCIL + 1
    j0, w = _lagrange_weights(t, m)
    idx = j0[:, None] + np.arange(_STENCIL)[None, :]
    return np.einsum("ps,ps->p", w, padded_a[idx]), np.einsum("ps,ps->p", w, padded_b[idx])


class PeriodicFunction:
    """Samples of a smooth 2pi-periodic function with spectral interpolation."""

    __slots__ = ("samples", "n", "is_real", "_spectrum", "_fine", "_antideriv")

    def __init__(self, samples) -> None:
        arr = np.asarray(samples)
        if arr.ndim not in (1, 3):
            raise ValueError("samples must be a vector or a stack of matrices")
        _check_grid_size(arr.shape[0])
        if np.iscomplexobj(arr):
            arr = arr.astype(complex)
            self.is_real = False
        else:
            arr = arr.astype(float)
            self.is_real = True
        arr.setflags(write=False)
        self.samples = arr
        self.n = arr.shape[0]
        self._spectrum = None
        self._fine = None
        self._antideriv = None

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

    # -- spectrum -----------------------------------------------------

    @property
    def spectrum(self) -> np.ndarray:
        """Two-sided Fourier coefficients c_k = fft(samples)/n (rfft layout for real data)."""
        if self._spectrum is None:
            if self.is_real:
                self._spectrum = np.fft.rfft(self.samples) / self.n
            else:
                self._spectrum = np.fft.fft(self.samples, axis=0) / self.n
        return self._spectrum

    @property
    def tail(self) -> float:
        """Largest coefficient magnitude in the top octave of frequencies."""
        c = self.spectrum
        n = self.n
        if self.is_real:
            mags = np.abs(c[n // 4 :])
        else:
            k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
            sel = np.abs(k) >= n // 4
            mags = np.abs(c[sel])
        return float(mags.max()) if mags.size else 0.0

    # -- evaluation ---------------------------------------------------

    def _fine_values(self) -> np.ndarray:
        """Padded cache backing arbitrary-point evaluation: the samples
        themselves when their certified stencil error is within
        _OWN_SAMPLES_TOL, an oversampled grid otherwise."""
        if self._fine is None:
            if (
                self.is_real
                and self.samples.ndim == 1
                and _stencil_error_bound(self.spectrum, self.n) <= _OWN_SAMPLES_TOL
            ):
                self._fine = _pad_fine(self.samples)
                return self._fine
            if self.is_real:
                factor = _eval_factor_real(self.n)
                fine = _upsample_real(self.samples, factor)
            else:
                factor = _EVAL_FACTOR_COMPLEX
                fine = _upsample_complex(self.samples, factor)
            fine[::factor] = self.samples  # keep grid nodes bit-exact
            self._fine = _pad_fine(fine)
        return self._fine

    def eval(self, t):
        """Trigonometric interpolant at angle(s) t; exact at grid points."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = _lagrange_eval(self._fine_values(), t_arr)
        if np.isscalar(t) or np.ndim(t) == 0:
            return out[0]
        return out

    __call__ = eval

    # -- calculus -----------------------------------------------------

    def derivative(self, order: int = 1) -> "PeriodicFunction":
        """Spectral derivative; exact for band-limited samples.  order in {1, 2, 3}.

        Coefficients below the roundoff floor are zeroed first, so the k^order
        amplification acts on signal, not on FFT noise.
        """
        if order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        n = self.n
        if self.is_real:
            c = self.spectrum.copy()
            c[np.abs(c) < 4.0 * np.finfo(float).eps * np.abs(c).max()] = 0.0
            c *= (1j * np.arange(n // 2 + 1)) ** order
            c[-1] = 0.0  # Nyquist mode dropped by convention
            return PeriodicFunction(np.fft.irfft(c) * n)
        k = np.fft.fftfreq(n, d=1.0 / n)
        if self.samples.ndim == 3:
            k = k[:, None, None]
        c = np.fft.fft(self.samples, axis=0)
        c[np.abs(c) < 4.0 * np.finfo(float).eps * np.abs(c).max()] = 0.0
        c *= (1j * k) ** order
        c[n // 2] = 0.0
        return PeriodicFunction(np.fft.ifft(c, axis=0))

    @property
    def mean(self):
        m = self.samples.mean(axis=0)
        return float(m) if self.is_real and self.samples.ndim == 1 else m

    def antiderivative(self) -> tuple["PeriodicFunction", float]:
        """Periodic part F of the antiderivative, normalized to F(0) = 0, plus the mean.

        The full antiderivative is theta -> mean * theta + F(theta), so
        partial integrals over [a, b] are mean*(b-a) + F(b) - F(a).
        """
        if self._antideriv is None:
            n = self.n
            if self.is_real:
                c = self.spectrum.copy()
                k = np.arange(n // 2 + 1)
                c[1:] = c[1:] / (1j * k[1:])
                c[0] = 0.0
                c[-1] = 0.0
                f = np.fft.irfft(c) * n
            else:
                k = np.fft.fftfreq(n, d=1.0 / n)
                kk = k[:, None, None] if self.samples.ndim == 3 else k
                c = np.fft.fft(self.samples, axis=0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    c = c / (1j * kk)
                c[0] = 0.0
                c[n // 2] = 0.0
                f = np.fft.ifft(c, axis=0)
            pf = PeriodicFunction(f - f[0])
            self._antideriv = (pf, self.mean)
        return self._antideriv

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
        """Spectral resampling to an m-point grid (zero-pad or truncate)."""
        _check_grid_size(m)
        n = self.n
        if m == n:
            return self
        if self.is_real:
            c = np.fft.rfft(self.samples)
            if m > n:
                out = np.zeros(m // 2 + 1, dtype=complex)
                out[: n // 2 + 1] = c
                out[n // 2] *= 0.5
            else:
                out = c[: m // 2 + 1].copy()
                out[-1] = out[-1].real  # keep the new Nyquist bin real
            return PeriodicFunction(np.fft.irfft(out, m) * (m / n))
        c = np.fft.fft(self.samples, axis=0)
        out_shape = (m,) + self.samples.shape[1:]
        out = np.zeros(out_shape, dtype=complex)
        h = min(n, m) // 2
        out[:h] = c[:h]
        out[m - h + 1 :] = c[n - h + 1 :]
        if m > n:
            out[h] = 0.5 * c[h]
            out[m - h] = 0.5 * c[h]
        else:
            out[h] = c[h] + c[n - h]
        return PeriodicFunction(np.fft.ifft(out, axis=0) * (m / n))

    def to_csv(self, path) -> None:
        """Write rows "t,value" at the grid points, 17 significant digits."""
        if self.samples.ndim != 1:
            raise ValueError("CSV export is for scalar functions")
        t = grid(self.n)
        with open(path, "w") as fh:
            if self.is_real:
                for tk, v in zip(t, self.samples):
                    fh.write(f"{tk:.17g},{v:.17g}\n")
            else:
                for tk, v in zip(t, self.samples):
                    fh.write(f"{tk:.17g},{v.real:.17g},{v.imag:.17g}\n")

    # -- arithmetic (pointwise, same grid) -----------------------------

    def _binary(self, other, op):
        if isinstance(other, PeriodicFunction):
            if other.n != self.n:
                raise ValueError("grid size mismatch")
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
