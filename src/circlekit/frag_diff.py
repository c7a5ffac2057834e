"""Continuous fragmentation of circle diffeomorphisms over a three-interval cover.

A diffeomorphism close to the identity is written as a product of three
factors, each supported in one interval of the cover.  The first factor is
built by blending gamma' with smooth cutoffs:

    xi'(theta) = (gamma'(theta) - 1) Dc(theta) + 1 + alpha Dl(theta) + beta Dr(theta)

where Dc is 1 on the inner interval and supported in the full interval, and
Dl, Dr are mass-normalized cutoffs in the two gap zones whose coefficients
alpha, beta are chosen so that xi matches gamma at the start of the plateau
and returns to the identity at the right endpoint.  The same construction on
the remainder localizes to the second interval, and the final factor is the
exact group-theoretic remainder.

Construction integrals run on an oversampled grid: the cutoffs are only
Gevrey-regular, and quadrature at the working resolution would leak ~1e-8
into the region where the factors must equal the identity to 1e-9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diffeo import (
    DEFAULT_TAIL_TOL,
    BumpFunction,
    CircleDiffeo,
    CoverConfig,
    IntervalArc,
    compose,
    make_bump,
    make_normalized_bump,
    solve_monotone,
)
from .errors import AliasingError, DerivativeError, GeometryError, NeighbourhoodError
from .periodic import TWO_PI, PeriodicFunction, _upsample_real, grid

__all__ = [
    "EpsilonNeighbourhood",
    "IntervalBumps",
    "FragmentationResult",
    "DiffeoFragmenter",
    "fragment",
    "fragment_pair",
    "alpha1",
    "beta1",
    "beta1_integral_form",
    "alpha1_bound",
    "beta1_bound",
]

BUILD_FACTOR = 8  # oversampling for construction integrals


@dataclass(frozen=True)
class EpsilonNeighbourhood:
    """C^1 neighbourhood of the identity: |gamma(t) - t| and |gamma'(t) - 1| below epsilon."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def distance(self, g: CircleDiffeo) -> float:
        p = g.periodic_part
        return max(float(np.abs(p.samples).max()), float(np.abs(g.deriv.samples).max()))

    def contains(self, g: CircleDiffeo) -> bool:
        return self.distance(g) < self.epsilon


@dataclass(frozen=True)
class IntervalBumps:
    """The three cutoffs attached to one interval of the cover."""

    center: BumpFunction
    left: BumpFunction
    right: BumpFunction


def build_interval_bumps(interval: IntervalArc, inner: IntervalArc) -> IntervalBumps:
    """Cutoffs for one localization stage.

    The center bump is 1 on the inner interval; the left and right bumps sit
    in the gap zones and carry exactly half the gap length as total mass.
    """
    if not interval.contains_arc(inner):
        raise GeometryError("inner interval must sit inside the interval")
    a, b = interval.a, interval.b
    ha = a + np.mod(inner.a - a, TWO_PI)
    hb = ha + inner.length
    center = make_bump(interval, IntervalArc(ha, hb))
    left = make_normalized_bump(IntervalArc(a, ha), 0.5 * (ha - a))
    right = make_normalized_bump(IntervalArc(hb, b), 0.5 * (b - hb))
    return IntervalBumps(center, left, right)


@dataclass(frozen=True)
class FragmentationResult:
    """Factors xi1, xi2, xi3 with gamma = xi1 o xi2 o xi3 and their blending
    coefficients.

    reconstruction_error is max |xi1(xi2(xi3(t_k))) - gamma(t_k)| over the
    coarse grid, measured through the 8x-oversampled fine representations of
    xi1 and xi2, which resolve their spectral tails.  The returned coarse
    factors recomposed by direct trigonometric sum reconstruct gamma only up
    to those tails: at most 5.2e-8 over the 1000 acceptance trials.
    """

    xi1: CircleDiffeo
    xi2: CircleDiffeo
    xi3: CircleDiffeo
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    reconstruction_error: float
    periodicity_defect: float = 0.0


def alpha1_bound(cover: CoverConfig, eps: float) -> float:
    """A-priori bound on |alpha1| for elements of the epsilon-neighbourhood."""
    a, ha = cover.i1.a, cover.ihat1.a
    return 2.0 / (ha - a) * eps * (1.0 + ha)


def beta1_bound(cover: CoverConfig, eps: float) -> float:
    """A-priori bound on |beta1| for elements of the epsilon-neighbourhood."""
    hb, b = cover.ihat1.b, cover.i1.b
    return 2.0 / (b - hb) * eps * (1.0 + b - hb)


def _trig_sum_eval(coeffs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Evaluate sum_k 2 Re(c_k e^{ik theta}) for k >= 1 (c_0 ignored)."""
    k = np.arange(1, len(coeffs))
    phases = np.exp(1j * np.outer(thetas, k))
    return 2.0 * (phases @ coeffs[1:]).real


class _Stage:
    """Precomputed fine-grid data for localizing to one interval."""

    def __init__(self, interval: IntervalArc, inner: IntervalArc, n: int, factor: int):
        self.interval = interval
        self.inner = inner
        self.bumps = build_interval_bumps(interval, inner)
        tf = grid(n * factor)
        self.center_fine = self.bumps.center.values(tf)
        self.left_fine = self.bumps.left.values(tf)
        self.right_fine = self.bumps.right.values(tf)
        step = TWO_PI / len(tf)
        self.left_mass = self.left_fine.sum() * step
        self.right_mass = self.right_fine.sum() * step
        a = interval.a
        ha = a + np.mod(inner.a - a, TWO_PI)
        self.endpoints = (a, ha, ha + inner.length, interval.b)


def _stage_coefficients(g: CircleDiffeo, stage: _Stage, factor: int):
    """alpha, beta (boundary form), the beta used in the construction, and the
    fine-grid samples of (gamma' - 1) * Dc."""
    a, ha, hb, b = stage.endpoints
    d_fine = _upsample_real(g.deriv.samples, factor)
    integ = d_fine * stage.center_fine
    m = len(integ)
    c = np.fft.rfft(integ) / m
    mean = c[0].real
    k = np.arange(len(c))
    ca = np.zeros_like(c)
    ca[1:] = c[1:] / (1j * k[1:])
    ca[-1] = 0.0
    f_vals = _trig_sum_eval(ca, np.array([0.0, ha, hb, b]))

    def partial(theta, f_theta):
        return mean * theta + f_theta - f_vals[0]

    alpha = 2.0 / (ha - a) * (g.eval(ha) - ha - partial(ha, f_vals[1]))
    beta = 2.0 / (b - hb) * (
        hb - g.eval(hb) - (partial(b, f_vals[3]) - partial(hb, f_vals[2]))
    )
    # construction variant: cancel the full-period mean exactly, using the
    # measured bump masses, so the factor is 2pi-equivariant to roundoff
    beta_build = -(mean * TWO_PI + alpha * stage.left_mass) / stage.right_mass
    return alpha, beta, beta_build, integ


def _stage_localize(g: CircleDiffeo, stage: _Stage, factor: int):
    """Fine-grid periodic part of the localized factor, plus its coefficients."""
    alpha, beta, beta_build, integ = _stage_coefficients(g, stage, factor)
    g_fine = integ + alpha * stage.left_fine + beta_build * stage.right_fine
    if g_fine.min() <= -1.0:
        raise DerivativeError("localized factor has non-positive derivative")
    m = len(g_fine)
    c = np.fft.rfft(g_fine) / m
    defect = abs(c[0].real) * TWO_PI
    k = np.arange(len(c))
    ca = np.zeros_like(c)
    ca[1:] = c[1:] / (1j * k[1:])
    ca[-1] = 0.0
    f = np.fft.irfft(ca) * m
    return f - f[0], alpha, beta, defect


def _solve_inside(factor: CircleDiffeo, arc: IntervalArc, targets: np.ndarray) -> np.ndarray:
    """factor^{-1}(targets) for a factor that is the identity off arc and maps
    arc onto itself: Newton runs only on the targets inside arc, the others
    are their own preimages."""
    u = np.array(targets, dtype=float)
    inside = arc.contains(u)
    if inside.any():
        u[inside] = solve_monotone(factor, u[inside])
    return u


def _coarse_factor(p_fine: np.ndarray, stride: int, tail_tol: float) -> CircleDiffeo:
    pf = PeriodicFunction(p_fine[::stride])
    if tail_tol is not None and pf.tail > tail_tol:
        raise AliasingError(
            f"localized factor tail {pf.tail:.3e} exceeds {tail_tol:.1e}; raise the grid size"
        )
    return CircleDiffeo(pf)


class DiffeoFragmenter:
    """Fragmentation machinery bound to one cover and grid size."""

    def __init__(self, cover: CoverConfig, n: int = 1024, build_factor: int = BUILD_FACTOR):
        self.cover = cover
        self.n = n
        self.factor = build_factor
        self.stage1 = _Stage(cover.i1, cover.ihat1, n, build_factor)
        # the second stage consumes the remainder at fine resolution, where
        # the first factor's slow spectral tail is already resolved
        self.stage2 = _Stage(cover.i2, cover.ihat2, n * build_factor, 1)
        ka = (
            2.0 * (1.0 + self.stage1.endpoints[1])
            / (self.stage1.endpoints[1] - self.stage1.endpoints[0])
            * self.stage1.bumps.left.max_value
        )
        kb = (
            2.0 * (1.0 + self.stage1.endpoints[3] - self.stage1.endpoints[2])
            / (self.stage1.endpoints[3] - self.stage1.endpoints[2])
            * self.stage1.bumps.right.max_value
        )
        # below this threshold the blended derivative stays positive
        self.epsilon1 = 1.0 / (1.0 + ka + kb)

    # -- full fragmentation ----------------------------------------------

    def fragment(
        self, g: CircleDiffeo, eps: float = 0.01, tail_tol: float = DEFAULT_TAIL_TOL
    ) -> FragmentationResult:
        if g.n != self.n:
            raise ValueError("grid size mismatch with the fragmenter")
        if eps >= self.epsilon1:
            raise NeighbourhoodError(
                f"eps={eps} is not below the positivity threshold {self.epsilon1:.4f}"
            )
        hood = EpsilonNeighbourhood(eps)
        if not hood.contains(g):
            raise NeighbourhoodError(
                f"element at C^1 distance {hood.distance(g):.3e} is outside the {eps} neighbourhood"
            )
        p1_fine, a1, b1, defect1 = _stage_localize(g, self.stage1, self.factor)
        xi1 = _coarse_factor(p1_fine, self.factor, tail_tol)
        # remainder evaluated against the fine representation of the first
        # factor, so its samples carry no unresolved-tail noise
        xi1_fine = CircleDiffeo(PeriodicFunction(p1_fine))
        t_fine = grid(self.n * self.factor)
        g_fine = t_fine + _upsample_real(g.periodic_part.samples, self.factor)
        q_fine = CircleDiffeo(
            PeriodicFunction(_solve_inside(xi1_fine, self.cover.i1, g_fine) - t_fine)
        )

        p2_fine, a2, b2, defect2 = _stage_localize(q_fine, self.stage2, 1)
        xi2 = _coarse_factor(p2_fine, self.factor, tail_tol)
        xi2_fine = CircleDiffeo(PeriodicFunction(p2_fine))
        t = grid(self.n)
        q_coarse = q_fine.samples[:: self.factor]
        xi3_samples = _solve_inside(xi2_fine, self.cover.i2, q_coarse)
        xi3 = CircleDiffeo(PeriodicFunction(xi3_samples - t))

        # reconstruction measured through the fine representations, which
        # resolve the factors' spectral tails
        rec = xi1_fine.eval(xi2_fine.eval(xi3_samples))
        err = float(np.abs(rec - g.samples).max())
        return FragmentationResult(
            xi1, xi2, xi3, a1, b1, a2, b2, err, max(defect1, defect2)
        )


_FRAGMENTERS: dict = {}


def _fragmenter(cover: CoverConfig, n: int) -> DiffeoFragmenter:
    key = (cover, n)
    if key not in _FRAGMENTERS:
        _FRAGMENTERS[key] = DiffeoFragmenter(cover, n)
    return _FRAGMENTERS[key]


def fragment(
    g: CircleDiffeo,
    cover: CoverConfig | None = None,
    eps: float = 0.01,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> FragmentationResult:
    """Split g into three factors supported in the cover intervals."""
    cover = cover or CoverConfig.default()
    return _fragmenter(cover, g.n).fragment(g, eps=eps, tail_tol=tail_tol)


def _check_neighbourhood(g: CircleDiffeo, eps: float) -> None:
    hood = EpsilonNeighbourhood(eps)
    if not hood.contains(g):
        raise NeighbourhoodError(
            f"element at C^1 distance {hood.distance(g):.3e} is outside the {eps} neighbourhood"
        )


def alpha1(g: CircleDiffeo, cover: CoverConfig, bumps: IntervalBumps | None = None, eps: float = 0.01) -> float:
    """Left blending coefficient of the first localization stage."""
    _check_neighbourhood(g, eps)
    frag = _fragmenter(cover, g.n)
    value, _, _, _ = _stage_coefficients(g, frag.stage1, frag.factor)
    return value


def beta1(
    g: CircleDiffeo,
    cover: CoverConfig,
    bumps: IntervalBumps | None = None,
    alpha: float | None = None,
    eps: float = 0.01,
) -> float:
    """Right blending coefficient (boundary form)."""
    _check_neighbourhood(g, eps)
    frag = _fragmenter(cover, g.n)
    _, value, _, _ = _stage_coefficients(g, frag.stage1, frag.factor)
    return value


def beta1_integral_form(
    g: CircleDiffeo, cover: CoverConfig, bumps: IntervalBumps | None = None, alpha: float | None = None
) -> float:
    """Equivalent full-period expression for beta1.

    beta1 = -2/(b - bhat) * int_0^{2pi} ((gamma'(t)-1) Dc(t) + alpha1 Dl(t)) dt.
    """
    frag = _fragmenter(cover, g.n)
    stage = frag.stage1
    if alpha is None:
        alpha = alpha1(g, cover, bumps)
    d_fine = _upsample_real(g.deriv.samples, frag.factor)
    step = TWO_PI / (g.n * frag.factor)
    full = (d_fine * stage.center_fine).sum() * step + alpha * stage.left_mass
    _, _, hb, b = stage.endpoints
    return -2.0 / (b - hb) * full


# ---------------------------------------------------------------------------
# Two-interval refactoring
# ---------------------------------------------------------------------------


def fragment_pair(
    g: CircleDiffeo,
    left: IntervalArc,
    right: IntervalArc,
    margin: float = 0.1,
    eps: float = 0.01,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[CircleDiffeo, CircleDiffeo]:
    """Write g = g_left o g_right with supports in two arcs covering the circle.

    The arcs must overlap at both ends (their union is the whole circle).
    The left factor is the single-stage localization of g to the left arc,
    with the plateau covering everything the right arc misses; the right
    factor is the exact remainder.
    """
    if not (np.any(right.contains(left.a)) and np.any(right.contains(left.b))) or right.contains_arc(left):
        raise GeometryError("arcs must overlap at both ends and cover the circle")
    _check_neighbourhood(g, eps)
    core = IntervalArc(right.b, right.a + TWO_PI)  # part of the circle right misses
    gap_l = np.mod(core.a - left.a, TWO_PI)
    gap_r = np.mod(left.b - core.b, TWO_PI)
    plateau = IntervalArc(core.a - margin * gap_l, core.b + margin * gap_r)

    # shift the integration origin to a grid point outside the left arc
    n = g.n
    h = TWO_PI / n
    comp_mid = left.b + (TWO_PI - left.length) / 2.0
    k0 = int(round(np.mod(comp_mid, TWO_PI) / h)) % n
    theta0 = k0 * h
    if np.any(left.contains(theta0)):
        raise GeometryError("no admissible integration origin outside the left arc")
    shifted = CircleDiffeo(PeriodicFunction(np.roll(g.periodic_part.samples, -k0)))
    s_left = IntervalArc(left.a - theta0, left.b - theta0)
    s_plateau = IntervalArc(plateau.a - theta0, plateau.b - theta0)

    p_fine, _, _, _ = _stage_localize(shifted, _pair_stage(s_left, s_plateau, n), BUILD_FACTOR)
    p_fine = np.roll(p_fine, k0 * BUILD_FACTOR)
    g_left = _coarse_factor(p_fine, BUILD_FACTOR, tail_tol)
    t = grid(n)
    left_fine = CircleDiffeo(PeriodicFunction(p_fine))
    g_right = CircleDiffeo(PeriodicFunction(_solve_inside(left_fine, left, g.samples) - t))
    return g_left, g_right


@functools.lru_cache(maxsize=16)
def _pair_stage(left: IntervalArc, plateau: IntervalArc, n: int) -> _Stage:
    """Cutoffs of fragment_pair for shifted arcs, built once per (arcs, grid)."""
    return _Stage(left, plateau, n, BUILD_FACTOR)
