"""Seeded random elements for property suites and tests.

All generators are pure functions of a numpy Generator, so per-trial streams
derived from (seed, index) make every suite reproducible and independent of
execution order.
"""

from __future__ import annotations

import functools

import numpy as np

from .diffeo import CircleDiffeo, IntervalArc, _c1_distance, make_bump
from .loops import LoopAlgebraElement
from .periodic import PeriodicFunction, grid

__all__ = [
    "rng_for",
    "random_diffeo",
    "random_vect_field",
    "random_loop_algebra",
    "random_supported_diffeo",
    "random_rotation",
]


def rng_for(seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, *index])


# one (n, modes) basis is 16 n modes bytes, 8.4 MB at n = 65536 and 8 modes;
# a verify run reads three: (n, 8), (n, 6) and (256, 4)
@functools.lru_cache(maxsize=4)
def _basis(n: int, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos(k t) and sin(k t) on the n-point grid, k = 1..modes in columns."""
    kt = np.outer(grid(n), np.arange(1, modes + 1))
    cos, sin = np.cos(kt), np.sin(kt)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _band_limited(rng: np.random.Generator, n: int, modes: int) -> np.ndarray:
    k = np.arange(1, modes + 1)
    a = rng.normal(size=modes) / k**2
    b = rng.normal(size=modes) / k**2
    cos, sin = _basis(n, modes)
    return cos @ a + sin @ b


def _scaled_diffeo(p: np.ndarray, eps: float, fill: float) -> CircleDiffeo:
    """gamma = t + scale * p with C^1 distance fill * eps from the identity."""
    dp = PeriodicFunction(p).derivative().samples
    scale = fill * eps / max(_c1_distance(p, dp), 1e-300)
    return CircleDiffeo(PeriodicFunction(scale * p))


def random_diffeo(rng: np.random.Generator, eps: float, n: int = 1024, fill: float = 0.9) -> CircleDiffeo:
    """Element of the eps-neighbourhood at about fill * eps in C^1 norm, from 8 modes."""
    return _scaled_diffeo(_band_limited(rng, n, 8), eps, fill)


def random_rotation(rng: np.random.Generator, n: int = 1024) -> CircleDiffeo:
    return CircleDiffeo.rotation(rng.uniform(-np.pi, np.pi), n)


def random_vect_field(rng: np.random.Generator, n: int = 1024, modes: int = 6) -> PeriodicFunction:
    return PeriodicFunction(_band_limited(rng, n, modes))


def random_loop_algebra(rng: np.random.Generator, norm: float, n: int = 1024) -> LoopAlgebraElement:
    """su(2)-valued loop from 6 modes with sup operator norm about 0.9 * norm."""
    comps = np.stack([_band_limited(rng, n, 6) for _ in range(3)])
    point = np.sqrt((comps**2).sum(axis=0)).max()
    comps *= 0.9 * norm / max(point, 1e-300)
    return LoopAlgebraElement.from_components(*comps)


def random_supported_diffeo(
    rng: np.random.Generator, arc: IntervalArc, eps: float, n: int = 1024
) -> CircleDiffeo:
    """Element of the eps-neighbourhood at about 0.9 * eps in C^1 norm,
    supported strictly inside the arc.

    Transitions take at least a fifth of the arc, keeping the cutoff resolved
    on the default grid.
    """
    inset = rng.uniform(0.22, 0.35, size=2) * arc.length
    plateau = IntervalArc(arc.a + inset[0], arc.b - inset[1])
    bump = make_bump(arc, plateau)
    t = grid(n)
    wobble = 1.0 + 0.3 * np.sin(rng.integers(1, 4) * t + rng.uniform(0, 2 * np.pi))
    return _scaled_diffeo(bump.values(t) * wobble * rng.choice([-1.0, 1.0]), eps, 0.9)
