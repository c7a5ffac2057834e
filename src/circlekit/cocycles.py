"""Cocycles on vector fields and diffeomorphisms, and the extended group law.

The Lie-algebra side lives on smooth vector fields f(t) d/dt with bracket
[f, g] = f'g - fg' and the cocycle

    c(f, g) = -1/(2 pi i) * int f (g' + g''') dt,

which is purely imaginary on real fields (the suite works with c/i).  The
group side carries the real-valued cocycle

    B(g1, g2) = -1/(48 pi) * int log((g1 o g2)'(t)) * g2''(t)/g2'(t) dt,

which vanishes when either factor is a rotation and defines the extended
group law (a1, g1) (a2, g2) = (a1 + a2 + B(g1, g2), g1 o g2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffeo import CircleDiffeo, compose
from .periodic import DEFAULT_TAIL_TOL, TWO_PI, PeriodicFunction, _check_tail, _fourier_samples, _same_grid

__all__ = [
    "VectField",
    "VirasoroElement",
    "vect_bracket",
    "vect_cocycle",
    "bott",
    "vir_multiply",
    "cocycle_identity_residual",
    "bott_mixed_derivative",
]

MIXED_DERIVATIVE_STEP = 1e-3  # bott_mixed_derivative's coarser difference step


class VectField:
    """Smooth real vector field on the circle, f(t) d/dt."""

    __slots__ = ("pf",)

    def __init__(self, pf: PeriodicFunction) -> None:
        if pf.samples.ndim != 1:
            raise ValueError("vector fields are scalar functions")
        self.pf = pf

    @classmethod
    def from_callable(cls, fn, n: int = 1024) -> "VectField":
        return cls(PeriodicFunction.from_callable(fn, n))

    @classmethod
    def from_fourier(cls, terms, n: int = 1024) -> "VectField":
        return cls(PeriodicFunction(_fourier_samples(terms, n)))

    @property
    def samples(self) -> np.ndarray:
        return self.pf.samples

    @property
    def n(self) -> int:
        return self.pf.n

    def __repr__(self) -> str:
        return f"VectField(n={self.n}, sup={np.abs(self.samples).max():.3e})"


def _as_pf(f) -> PeriodicFunction:
    return f.pf if isinstance(f, VectField) else f


def vect_bracket(f, g) -> VectField:
    """[f, g] = f'g - fg'."""
    fp, gp = _as_pf(f), _as_pf(g)
    _same_grid(fp, gp)
    out = PeriodicFunction(
        fp.derivative().samples * gp.samples - fp.samples * gp.derivative().samples
    )
    return VectField(_check_tail(out, DEFAULT_TAIL_TOL, "bracket"))


def vect_cocycle(f, g) -> complex:
    """-1/(2 pi i) * int f (g' + g''') dt.

    Returns a complex number; on real fields the value is purely imaginary
    and the real quantity of interest is vect_cocycle(f, g) / i.  Complex
    samples (e.g. Fourier monomials) are accepted.
    """
    fp, gp = _as_pf(f), _as_pf(g)
    _same_grid(fp, gp)
    integrand = fp.samples * (gp.derivative().samples + gp.derivative(3).samples)
    integral = integrand.mean() * TWO_PI
    return complex(integral * (-1.0 / (2j * np.pi)))


def bott(g1: CircleDiffeo, g2: CircleDiffeo) -> float:
    """Group cocycle -1/(48 pi) * int log((g1 o g2)') d log g2'."""
    _same_grid(g1, g2)
    d2 = g2.deriv_samples
    # (g1 o g2)'(t) = g1'(g2(t)) * g2'(t), evaluated pointwise for accuracy
    d1_at = 1.0 + g2._pull_back(g1.deriv)
    log_comp = np.log(d1_at * d2)
    return float((log_comp * g2._log_deriv_slope()).mean() * TWO_PI * (-1.0 / (48.0 * np.pi)))


@dataclass(frozen=True)
class VirasoroElement:
    """Pair (central coordinate, diffeomorphism) under the extended group law."""

    a: float
    gamma: CircleDiffeo


def vir_multiply(x: VirasoroElement, y: VirasoroElement) -> VirasoroElement:
    """(a1, g1) (a2, g2) = (a1 + a2 + B(g1, g2), g1 o g2)."""
    return VirasoroElement(x.a + y.a + bott(x.gamma, y.gamma), compose(x.gamma, y.gamma))


def cocycle_identity_residual(cocycle, g1: CircleDiffeo, g2: CircleDiffeo, g3: CircleDiffeo) -> float:
    """|c(g1,g2) + c(g1 g2, g3) - c(g1, g2 g3) - c(g2, g3)| in additive form."""
    g12 = compose(g1, g2)
    g23 = compose(g2, g3)
    return abs(cocycle(g1, g2) + cocycle(g12, g3) - cocycle(g1, g23) - cocycle(g2, g3))


def bott_mixed_derivative(f, g) -> float:
    """Antisymmetrized mixed second derivative of the group cocycle at the identity.

    For the one-parameter families gamma_s = id + s f, gamma_t = id + t g,
    computes d^2/(ds dt) [B(gamma_s, gamma_t) - B(gamma_t, gamma_s)] at 0 by
    central differences at steps h = MIXED_DERIVATIVE_STEP and h/2,
    Richardson-extrapolated.  The value is antisymmetric in (f, g) and equals
    (1/24 pi) int f g''' dt, with no int f g' coboundary term; the
    verification suite pins this identity to a relative 1e-9.
    """
    fs = _as_pf(f).samples
    gs = _as_pf(g).samples

    def family(h, samples):
        return CircleDiffeo(PeriodicFunction(h * samples))

    def asym(h):
        total = 0.0
        for sf, sg, sign in ((h, h, 1), (h, -h, -1), ((-h), h, -1), ((-h), (-h), 1)):
            a = family(sf, fs)
            b = family(sg, gs)
            total += sign * (bott(a, b) - bott(b, a))
        return total / (4.0 * h * h)

    d1 = asym(MIXED_DERIVATIVE_STEP)
    d2 = asym(MIXED_DERIVATIVE_STEP / 2.0)
    return (4.0 * d2 - d1) / 3.0
