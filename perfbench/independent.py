"""Reference computations made apart from circlekit.

The benchmark checks circlekit's outputs against these: trigonometric
interpolants summed directly from numpy FFT coefficients (no cached
oversampled grid, no local interpolation), arc membership, spectral
derivatives, and the Kac determinant formula in exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

TWO_PI = 2.0 * np.pi


def grid(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def trig_eval(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Real trigonometric interpolant of periodic samples at arbitrary angles.

    Sums c_0 + 2 Re sum_{0<k<n/2} c_k e^{ik theta} + c_{n/2} cos(n theta / 2)
    by Horner's rule in z = e^{i theta}, which is exact up to rounding for
    |z| = 1.
    """
    n = len(samples)
    c = np.fft.rfft(samples) / n
    z = np.exp(1j * points)
    acc = np.zeros(len(points), dtype=complex)
    for ck in c[-2:0:-1]:
        np.multiply(acc, z, out=acc)
        acc += ck
    acc *= z
    return c[0].real + 2.0 * acc.real + c[-1].real * np.cos(0.5 * n * points)


def recompose_error(gamma: np.ndarray, factors: list[np.ndarray]) -> float:
    """max_k |(xi_1 o ... o xi_m)(t_k) - gamma(t_k)| over the grid.

    gamma and each factor are given by the periodic parts p of t + p(t); the
    innermost factor is read at the grid exactly, the others are evaluated by
    trig_eval.
    """
    t = grid(len(gamma))
    y = t + factors[-1]
    for p in reversed(factors[:-1]):
        y = y + trig_eval(p, y)
    return float(np.abs(y - (t + gamma)).max())


def outside(a: float, length: float, n: int) -> np.ndarray:
    """Grid points outside the open arc (a, a + length), taken circularly."""
    x = np.mod(grid(n) - a, TWO_PI)
    return ~((x > 0.0) & (x < length))


def min_derivative(p: np.ndarray) -> float:
    """min over the grid of 1 + p', with p' the spectral derivative."""
    n = len(p)
    c = np.fft.rfft(p) * (1j * np.arange(n // 2 + 1))
    c[-1] = 0.0
    return float(1.0 + np.fft.irfft(c, n).min())


def bott_value(p1: np.ndarray, p2: np.ndarray) -> float:
    """-1/(48 pi) int log((g1 o g2)') g2''/g2' dt for g_j = t + p_j.

    g1' is evaluated at g2(t) through trig_eval of its spectral derivative.
    """
    n = len(p2)
    k = np.arange(n // 2 + 1)

    def deriv(p, order):
        c = np.fft.rfft(p) * (1j * k) ** order
        c[-1] = 0.0
        return np.fft.irfft(c, n)

    d2 = 1.0 + deriv(p2, 1)
    d1_at = 1.0 + trig_eval(deriv(p1, 1), grid(n) + p2)
    integrand = np.log(d1_at * d2) * deriv(p2, 2) / d2
    return float(integrand.mean() * TWO_PI * (-1.0 / (48.0 * np.pi)))


# ---------------------------------------------------------------------------
# Kac determinant
# ---------------------------------------------------------------------------

# c = 13 - 6 (t + 1/t) for the central charges the benchmark uses
KAC_T = {Fraction(1, 2): Fraction(3, 4), Fraction(1): Fraction(1), Fraction(26): Fraction(-2, 3)}


def partition_counts(n: int) -> list[int]:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


def kac_determinant(level: int, c, h) -> Fraction:
    """Determinant of the level-L Gram matrix of M(c, h) by the Kac formula.

    prod_{rs <= L} ((2r)^s s!)^{p(L-rs) - p(L-r(s+1))} (h - h_{r,s})^{p(L-rs)},
    h_{r,s} = (r^2-1) t/4 - (rs-1)/2 + (s^2-1)/(4t).
    """
    c, h = Fraction(c), Fraction(h)
    t = KAC_T[c]
    if 13 - 6 * (t + 1 / t) != c:
        raise ValueError(f"t = {t} does not parametrize c = {c}")
    p = partition_counts(level)

    def count(m):
        return p[m] if m >= 0 else 0

    det = Fraction(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            h_rs = Fraction(r * r - 1) * t / 4 - Fraction(r * s - 1, 2) + Fraction(s * s - 1) / (4 * t)
            const = Fraction((2 * r) ** s * factorial(s))
            det *= const ** (count(level - r * s) - count(level - r * (s + 1)))
            det *= (h - h_rs) ** count(level - r * s)
    return det
