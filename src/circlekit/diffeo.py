"""Circle diffeomorphisms at finite resolution, interval covers and cutoffs.

Elements of the universal cover of the orientation-preserving diffeomorphism
group are stored as gamma(t) = t + p(t) with p a real PeriodicFunction and
gamma' > 0; the representation is 2pi-equivariant by construction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DerivativeError, GeometryError, MassError
from .periodic import (
    DEFAULT_TAIL_TOL,
    TWO_PI,
    PeriodicFunction,
    _cache_length,
    _check_tail,
    _fourier_samples,
    _lagrange_apply,
    _lagrange_eval,
    _lagrange_weights,
    _pad_fine,
    grid,
)

__all__ = [
    "IntervalArc",
    "CircleDiffeo",
    "BumpFunction",
    "CoverConfig",
    "compose",
    "inverse",
    "support",
    "make_bump",
    "make_normalized_bump",
    "DEFAULT_TAIL_TOL",
]

# Newton inversion stops at this residual, or fails after this many steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60

@dataclass(frozen=True)
class IntervalArc:
    """Proper open arc of the circle, stored lifted with a < b < a + 2*pi."""

    a: float
    b: float

    def __post_init__(self):
        length = self.b - self.a
        if not 0.0 < length < TWO_PI:
            raise GeometryError(f"arc must be proper and non-empty, got ({self.a}, {self.b})")
        a = float(np.mod(self.a, TWO_PI))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", a + length)

    @property
    def length(self) -> float:
        return self.b - self.a

    def offset(self, t):
        """Angle from the arc's start a to t, counterclockwise, modulo 2*pi."""
        return np.mod(np.asarray(t, dtype=float) - self.a, TWO_PI)

    def contains(self, t) -> np.ndarray:
        """Pointwise membership, circularly."""
        x = self.offset(t)
        return (x > 0) & (x < self.length)

    def max_abs_outside(self, values) -> float:
        """Largest |value| at the len(values)-point grid outside the arc; 0.0 if none."""
        values = np.asarray(values)
        outside = ~self.contains(grid(len(values)))
        return float(np.abs(values[outside]).max()) if outside.any() else 0.0

    def contains_arc(self, other: "IntervalArc") -> bool:
        x = self.offset(other.a)
        return x < self.length and x + other.length <= self.length

    def dilate(self, delta: float) -> "IntervalArc":
        if self.length + 2 * delta >= TWO_PI:
            raise GeometryError("dilated arc would cover the circle")
        return IntervalArc(self.a - delta, self.b + delta)

    def as_tuple(self) -> tuple[float, float]:
        return (self.a, self.b)


class CircleDiffeo:
    """Lift gamma(t) = t + p(t) of an orientation-preserving circle diffeomorphism."""

    __slots__ = ("periodic_part", "n", "deriv", "_stencils", "_log_slope")

    def __init__(self, periodic_part: PeriodicFunction) -> None:
        if not periodic_part.is_real or periodic_part.samples.ndim != 1:
            raise ValueError("periodic part must be a real scalar function")
        self._set_parts(periodic_part, periodic_part.derivative())

    def _set_parts(self, periodic_part: PeriodicFunction, deriv: PeriodicFunction) -> None:
        self.periodic_part = periodic_part
        self.n = periodic_part.n
        self.deriv = deriv  # gamma' - 1
        self._stencils = {}
        self._log_slope = None
        if not np.all(self.deriv_samples > 0.0):  # NaN fails too
            raise DerivativeError("gamma' must be positive at every grid point")

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_parts(cls, periodic_part: PeriodicFunction, deriv: PeriodicFunction) -> "CircleDiffeo":
        """gamma = t + p with gamma' - 1 = deriv supplied by a caller that
        already knows it, instead of re-derived spectrally; the positivity
        test still runs on deriv's samples."""
        g = cls.__new__(cls)
        g._set_parts(periodic_part, deriv)
        return g

    @classmethod
    def identity(cls, n: int = 1024) -> "CircleDiffeo":
        return cls(PeriodicFunction.zero(n))

    @classmethod
    def rotation(cls, angle: float, n: int = 1024) -> "CircleDiffeo":
        return cls(PeriodicFunction.constant(angle, n))

    @classmethod
    def from_fourier(cls, terms, n: int = 1024) -> "CircleDiffeo":
        """Build gamma(t) = t + sum a_k cos(k t) + b_k sin(k t) from (k, a_k, b_k) triples."""
        return cls(PeriodicFunction(_fourier_samples(terms, n)))

    # -- basic data -----------------------------------------------------

    @property
    def deriv_samples(self) -> np.ndarray:
        return 1.0 + self.deriv.samples

    @property
    def samples(self) -> np.ndarray:
        """gamma at the grid points."""
        return grid(self.n) + self.periodic_part.samples

    def eval(self, t):
        return np.asarray(t, dtype=float) + self.periodic_part.eval(t)

    __call__ = eval

    def _pull_back(self, f: PeriodicFunction) -> np.ndarray:
        """Samples of f o gamma: f.eval(self.samples), read through the
        stencil of gamma's sample points on f's evaluation cache.  The stencil
        depends only on those points and the cache's length, so it is built
        once per length and kept with gamma (88 KB at n = 1024)."""
        fine = f._fine_values()
        m = _cache_length(fine)
        stencil = self._stencils.get(m)
        if stencil is None:
            stencil = self._stencils[m] = _lagrange_weights(self.samples, m)
        [out] = _lagrange_apply(stencil, fine)
        return out

    def _log_deriv_slope(self) -> np.ndarray:
        """(log gamma')' = p'' / gamma' at the grid points, computed once."""
        if self._log_slope is None:
            self._log_slope = self.periodic_part.derivative(2).samples / self.deriv_samples
        return self._log_slope

    def displacement(self) -> float:
        """Sup-norm distance from the identity at the grid points."""
        return float(np.abs(self.periodic_part.samples).max())

    def distance(self, other: "CircleDiffeo") -> float:
        return float(np.abs(self.periodic_part.samples - other.periodic_part.samples).max())

    def __repr__(self) -> str:
        return f"CircleDiffeo(n={self.n}, |gamma-id|={self.displacement():.3e})"


def _c1_distance(p: np.ndarray, dp: np.ndarray) -> float:
    """max(|p|, |p'|) over the samples of p and its derivative dp: the C^1 distance of t + p from the identity."""
    return float(max(np.abs(p).max(), np.abs(dp).max()))


def compose(g1: CircleDiffeo, g2: CircleDiffeo) -> CircleDiffeo:
    """Composition gamma1 o gamma2, resampled onto the grid of gamma2."""
    p = g2.periodic_part.samples + g2._pull_back(g1.periodic_part)
    return CircleDiffeo(_check_tail(PeriodicFunction(p), DEFAULT_TAIL_TOL, "composition"))


def solve_monotone(g: CircleDiffeo, targets: np.ndarray) -> np.ndarray:
    """Solve gamma(u) = y per entry by safeguarded Newton iteration.

    Monotonicity of gamma makes u - y a bounded periodic quantity; the
    initial guess u = y - p(y) already has O(|p|^2) residual, so a couple of
    Newton steps reach the NEWTON_TOL residual target.  Each target stops on
    its own: it takes the step computed from its first residual below
    NEWTON_TOL, which carries it to round-off, and then leaves the set, so
    its answer does not depend on which other targets share the call.  Steps
    are clamped to a bracket that the displacement bound provides, which
    cannot fail while gamma' > 0.  The slope only scales the step, so it has
    one resolution rule: gamma' - 1 is upsampled to the factor of p's
    evaluation cache and read through the same stencil, whatever resolution
    its own cache would get.
    """
    p = g.periodic_part
    fine_p = p._fine_values()
    fine_dp = _pad_fine(g.deriv._upsample(_cache_length(fine_p) // p.n))
    y = np.asarray(targets, dtype=float)
    bound = min(g.displacement() * 1.5 + 1e-9, 1.5)
    u = y - p.eval(y)
    live = np.arange(len(y))
    for _ in range(NEWTON_MAX_ITER):
        ul, yl = u[live], y[live]
        pu, dpu = _lagrange_eval(ul, fine_p, fine_dp)
        r = ul + pu - yl
        u[live] = np.clip(ul - r / (1.0 + dpu), yl - bound, yl + bound)
        live = live[~(np.abs(r) < NEWTON_TOL)]  # NaN stays live and fails below
        if not live.size:
            return u
    raise ConvergenceError(f"Newton inversion stalled at residual {np.abs(r).max():.3e}")


def inverse(g: CircleDiffeo) -> CircleDiffeo:
    """Group inverse, sampled by solving gamma(u) = t_k at every grid point."""
    t = grid(g.n)
    return CircleDiffeo(PeriodicFunction(solve_monotone(g, t) - t))


def arc_of_moved_points(moved: np.ndarray, n: int):
    """Smallest arc containing the flagged grid points, dilated by one cell.

    Returns "empty" when nothing is flagged and "full" when everything is
    (or when the dilation would wrap the circle).
    """
    if not moved.any():
        return "empty"
    if moved.all():
        return "full"
    idx = np.nonzero(moved)[0]
    h = TWO_PI / n
    # largest circular gap between consecutive moved points; the support is
    # its complement
    gaps = np.diff(np.concatenate([idx, [idx[0] + n]]))
    j = int(np.argmax(gaps))
    start = idx[(j + 1) % len(idx)]
    end = idx[j]
    if end < start:
        end += n
    if end - start + 2 >= n:
        return "full"
    return IntervalArc(start * h - h, (end + 1) * h)


def support(g: CircleDiffeo, tol: float = 1e-10):
    """Smallest arc containing the grid points moved by more than tol."""
    return arc_of_moved_points(np.abs(g.periodic_part.samples) > tol, g.n)


# ---------------------------------------------------------------------------
# Smooth cutoffs
# ---------------------------------------------------------------------------


def _sigma(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """s(x) = sigma(x) / (sigma(x) + sigma(1-x)); 0 below 0, 1 above 1."""
    x = np.clip(x, 0.0, 1.0)
    a = _sigma(x)
    b = _sigma(1.0 - x)
    return a / (a + b)


@dataclass(frozen=True)
class BumpFunction:
    """Smooth cutoff: 'scale' on the plateau, 0 outside the support arc."""

    support: IntervalArc
    plateau: IntervalArc
    scale: float = 1.0

    def values(self, t) -> np.ndarray:
        """Exact closed-form samples at angles t."""
        a, b = self.support.a, self.support.b
        p = a + self.support.offset(self.plateau.a)
        q = p + self.plateau.length
        x = self.support.offset(t) + a
        out = np.zeros_like(x)
        rise = (x > a) & (x < p)
        out[rise] = _smoothstep((x[rise] - a) / (p - a))
        out[(x >= p) & (x <= q)] = 1.0
        fall = (x > q) & (x < b)
        out[fall] = _smoothstep((b - x[fall]) / (b - q))
        return self.scale * out

    def periodic(self, n: int = 1024) -> PeriodicFunction:
        return PeriodicFunction(self.values(grid(n)))

    def integral(self) -> float:
        """Full-period integral, scale * (|support| + |plateau|) / 2.

        Each transition is s(x) on [0, 1] stretched over its gap, and
        s(x) + s(1 - x) = 1 makes it integrate to half the gap's length.
        """
        return self.scale * (self.support.length + self.plateau.length) / 2.0


def make_bump(support: IntervalArc, plateau: IntervalArc) -> BumpFunction:
    """Cutoff equal to 1 on the plateau, supported in the open support arc."""
    rel = support.offset(plateau.a)
    if not (0.0 < rel and rel + plateau.length < support.length):
        raise GeometryError("plateau closure must lie strictly inside the support")
    return BumpFunction(support, plateau)


def make_normalized_bump(support: IntervalArc, target_integral: float) -> BumpFunction:
    """Cutoff with values in [0, 1] (to round-off) and prescribed full-period integral.

    The plateau covers the fraction max(0.02, 2T/W - 1) of the support width
    W: the smallest one, of at least 2%, whose unscaled bump integrates to the
    target T or more.  The profile is then scaled to T.  A small plateau keeps
    the transitions wide and spectrally tame.
    """
    width = support.length
    if not 0.0 < target_integral < width:
        raise MassError(
            f"target integral {target_integral} not achievable on an arc of length {width}"
        )
    fraction = max(0.02, 2.0 * target_integral / width - 1.0)
    if fraction > 0.95:
        raise MassError(
            f"target integral {target_integral} needs a plateau above 95% of the support"
        )
    half_gap = (1.0 - fraction) * width / 2.0
    bump = BumpFunction(support, IntervalArc(support.a + half_gap, support.b - half_gap))
    return BumpFunction(support, bump.plateau, scale=target_integral / bump.integral())


# ---------------------------------------------------------------------------
# Three-interval covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverConfig:
    """Three-interval cover {I_j} with inner intervals {Ihat_j}.

    The canonical configuration has 0 inside I3 only, I3 wrapping through 0,
    and the lifted endpoints forming the strictly increasing chain
    0 < a1 < ahat1 < bhat3 < b3 < a2 < ahat2 < bhat1 < b1 < a3 < ahat3
      < bhat2 < b2 < 2*pi
    (endpoints of I3 and Ihat3 taken modulo 2*pi).  The chain encodes all
    cover invariants at once: each point lies in at most two of the I_j and
    the inner intervals still cover the circle.  Beyond the chain, the loop
    cutoff chi2 needs a2 - margin * |I1 & I2| > b3 - 2*pi, so that its
    plateau starts after I3 ends (see loops.loop_cutoffs).
    """

    i1: IntervalArc
    i2: IntervalArc
    i3: IntervalArc
    ihat1: IntervalArc
    ihat2: IntervalArc
    ihat3: IntervalArc
    margin: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.margin < 0.5:
            raise GeometryError("margin must lie in (0, 1/2)")
        chain = self.chain()  # validates
        b3, a2, b1 = chain[4], chain[5], chain[8]
        start = a2 - self.margin * (b1 - a2)
        if start <= b3:
            raise GeometryError(
                f"margin {self.margin} times the I1 & I2 overlap {b1 - a2:.6g} reaches I3: "
                f"a2 - margin * overlap = {start:.6g} must exceed b3 - 2*pi = {b3:.6g}"
            )

    def chain(self) -> list[float]:
        """The lifted endpoint chain; raises GeometryError if out of order."""
        if self.i3.b <= TWO_PI or self.ihat3.b <= TWO_PI:
            raise GeometryError("I3 and Ihat3 must wrap through 0")
        values = [
            0.0,
            self.i1.a,
            self.ihat1.a,
            self.ihat3.b - TWO_PI,
            self.i3.b - TWO_PI,
            self.i2.a,
            self.ihat2.a,
            self.ihat1.b,
            self.i1.b,
            self.i3.a,
            self.ihat3.a,
            self.ihat2.b,
            self.i2.b,
            TWO_PI,
        ]
        if any(x >= y for x, y in zip(values, values[1:])):
            raise GeometryError("cover endpoints violate the ordering chain")
        return values

    @classmethod
    @functools.cache
    def default(cls) -> "CoverConfig":
        """The canonical cover, built once and shared (it is frozen)."""
        inset = 0.15
        i1 = IntervalArc(0.3, 2.6)
        i2 = IntervalArc(2.2, 4.7)
        i3 = IntervalArc(4.3, TWO_PI + 0.7)
        return cls(
            i1,
            i2,
            i3,
            IntervalArc(i1.a + inset, i1.b - inset),
            IntervalArc(i2.a + inset, i2.b - inset),
            IntervalArc(i3.a + inset, i3.b - inset),
        )

    @property
    def intervals(self) -> tuple[IntervalArc, IntervalArc, IntervalArc]:
        return (self.i1, self.i2, self.i3)

    @property
    def inner_intervals(self) -> tuple[IntervalArc, IntervalArc, IntervalArc]:
        return (self.ihat1, self.ihat2, self.ihat3)

    @property
    def overlaps(self) -> tuple[IntervalArc, IntervalArc, IntervalArc]:
        """The overlaps I1 & I2 = (a2, b1), I2 & I3 = (a3, b2) and
        I3 & I1 = (a1, b3 - 2*pi), read off the chain."""
        return (
            IntervalArc(self.i2.a, self.i1.b),
            IntervalArc(self.i3.a, self.i2.b),
            IntervalArc(self.i1.a, self.i3.b - TWO_PI),
        )

    # -- JSON configuration ---------------------------------------------

    def to_json(self) -> str:
        data = {
            "I": [list(i.as_tuple()) for i in self.intervals],
            "Ihat": [list(i.as_tuple()) for i in self.inner_intervals],
            "margin": self.margin,
        }
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "CoverConfig":
        try:
            data = json.loads(text)
            arcs = [IntervalArc(*pair) for pair in data["I"]]
            hats = [IntervalArc(*pair) for pair in data["Ihat"]]
            margin = float(data.get("margin", 0.1))
        except GeometryError:
            raise
        except Exception as exc:
            raise GeometryError(f"malformed cover configuration: {exc}") from exc
        if len(arcs) != 3 or len(hats) != 3:
            raise GeometryError("cover configuration needs three intervals and three inner intervals")
        return cls(*arcs, *hats, margin)
