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

Construction integrals run on a finer grid: the cutoffs are only
Gevrey-regular, and quadrature at the working resolution would leak ~1e-8
into the region where the factors must equal the identity to 1e-9.  The
cutoffs' transitions have a fixed width in radians, so they need a fixed
number of nodes whatever n is: the construction grid holds
min(8n, max(n, 16384)) nodes (`_build_factor`), 8x oversampled up to
n = 2048 and not oversampled from n = 16384 on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diffeo import (
    NEWTON_TOL,
    BumpFunction,
    CircleDiffeo,
    CoverConfig,
    IntervalArc,
    _c1_distance,
    make_bump,
    make_normalized_bump,
    solve_monotone,
)
from .errors import GeometryError, NeighbourhoodError
from .periodic import DEFAULT_TAIL_TOL, TWO_PI, PeriodicFunction, _check_tail, _nodes, grid

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

BUILD_FACTOR = 8  # most oversampling for construction integrals
BUILD_NODES = 16384  # construction grids hold at least this many nodes
PAIR_MARGIN = 0.1  # fragment_pair's plateau reaches this fraction into each overlap


@dataclass(frozen=True)
class EpsilonNeighbourhood:
    """C^1 neighbourhood of the identity: |gamma(t) - t| and |gamma'(t) - 1| below epsilon."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def distance(self, g: CircleDiffeo) -> float:
        return _c1_distance(g.periodic_part.samples, g.deriv.samples)

    def contains(self, g: CircleDiffeo) -> bool:
        return self.distance(g) < self.epsilon


@dataclass(frozen=True)
class IntervalBumps:
    """The three cutoffs attached to one interval of the cover."""

    center: BumpFunction
    left: BumpFunction
    right: BumpFunction


@dataclass(frozen=True)
class FragmentationResult:
    """Factors xi1, xi2, xi3 with gamma = xi1 o xi2 o xi3 and their blending
    coefficients.

    reconstruction_error is max |xi1(xi2(xi3(t_k))) - gamma(t_k)| over the
    coarse grid, measured through the representations of xi1 and xi2 on the
    construction grid (min(8n, max(n, 16384)) nodes), which resolve their
    spectral tails.  The returned coarse factors recomposed by
    direct trigonometric sum reconstruct gamma only up to those tails: at
    most 5.2e-8 over the 1000 acceptance trials.
    """

    xi1: CircleDiffeo
    xi2: CircleDiffeo
    xi3: CircleDiffeo
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    reconstruction_error: float
    periodicity_defect: float


def alpha1_bound(cover: CoverConfig, eps: float) -> float:
    """A-priori bound on |alpha1| for elements of the epsilon-neighbourhood."""
    a, ha = cover.i1.a, cover.ihat1.a
    return 2.0 / (ha - a) * eps * (1.0 + ha)


def beta1_bound(cover: CoverConfig, eps: float) -> float:
    """A-priori bound on |beta1| for elements of the epsilon-neighbourhood."""
    hb, b = cover.ihat1.b, cover.i1.b
    return 2.0 / (b - hb) * eps * (1.0 + b - hb)


def fragment_residuals(
    result: FragmentationResult, cover: CoverConfig, eps: float
) -> tuple[float, float, float, float]:
    """Largest |xi_j| outside I_j, |alpha1| and |beta1| over their a-priori
    bounds, and -min xi' over the first two factors."""
    outside = max(
        arc.max_abs_outside(xi.periodic_part.samples)
        for xi, arc in zip((result.xi1, result.xi2, result.xi3), cover.intervals)
    )
    return (
        outside,
        abs(result.alpha1) / alpha1_bound(cover, eps),
        abs(result.beta1) / beta1_bound(cover, eps),
        -min(result.xi1.deriv_samples.min(), result.xi2.deriv_samples.min()),
    )


class _Stage:
    """Precomputed fine-grid data for localizing to one interval on the
    n * factor grid (the construction grid, see _build_factor), onto which
    gamma' is upsampled by factor.

    endpoints are the lifted a < ahat < bhat < b of the interval and its inner
    interval.  The center bump is 1 on the inner interval, whose fine nodes
    inner_fine marks, and is kept sampled on every fine node.  The left and
    right bumps sit in the gap zones and carry exactly half the gap length as
    mass, by the closed-form integral; their sampled masses agree to
    round-off.  Each is nonzero on a few percent of the nodes, so it is kept
    on the node window of its support only (left_nodes, left_values), plus
    the rfft spectrum of its samples (left_spec, normalized as
    PeriodicFunction.spectrum): the localized derivative is linear in the
    two, so its spectrum needs no transform of its own.

    Integrals start at theta0, the first fine node outside the interval (its
    index is origin), where the factor is the identity; as the interval is
    lifted to 0 <= a < 2pi, b - 2pi <= theta0 <= a.  The phases e^{ik theta}
    of the four boundary points theta = theta0, ahat, bhat, b, for the
    wavenumbers k = 1..K of the fine grid (K = n * factor / 2), are kept as
    two short tables: with k - 1 = q B + r and B the largest power of two not
    above sqrt(K), e^{ik theta} = e^{i q B theta} e^{i (r + 1) theta}, so
    phase_coarse[q] and phase_fine[r] hold 4 (K/B + B) entries in all.
    """

    def __init__(self, interval: IntervalArc, inner: IntervalArc, n: int, factor: int):
        if not interval.contains_arc(inner):
            raise GeometryError("inner interval must sit inside the interval")
        a, b = interval.a, interval.b
        ha = a + interval.offset(inner.a)
        hb = ha + inner.length
        self.endpoints = (a, ha, hb, b)
        self.factor = factor
        self.bumps = IntervalBumps(
            make_bump(interval, IntervalArc(ha, hb)),
            make_normalized_bump(IntervalArc(a, ha), 0.5 * (ha - a)),
            make_normalized_bump(IntervalArc(hb, b), 0.5 * (b - hb)),
        )
        m = n * factor
        step = TWO_PI / m
        # only nodes below b - 2pi can lie in the interval before the first
        # node outside it, which is therefore among the first few
        head = _nodes(np.arange(int(max(b - TWO_PI, 0.0) / step) + 2), m)
        outside = np.flatnonzero(~interval.contains(head))
        if not outside.size:
            raise GeometryError("no admissible integration origin outside the interval")
        self.interval = interval
        self.origin = int(outside[0])
        self.theta0 = float(head[self.origin])
        # the center bump and the inner mask vanish off the interval's nodes
        window = _arc_window(interval, m)
        t = _nodes(window, m)
        self.center_fine = np.zeros(m)
        self.center_fine[window] = self.bumps.center.values(t)
        self.inner_fine = np.zeros(m, dtype=bool)
        self.inner_fine[window] = inner.contains(t)
        self.left_nodes, self.left_values, self.left_spec, self.left_mass = _gap_cutoff(self.bumps.left, m)
        self.right_nodes, self.right_values, self.right_spec, self.right_mass = _gap_cutoff(self.bumps.right, m)
        k_max = m // 2
        block = 1 << (k_max.bit_length() - 1) // 2
        thetas = np.array([self.theta0, ha, hb, b])
        self.phase_fine = np.exp(1j * np.outer(np.arange(1, block + 1), thetas))
        self.phase_coarse = np.exp(1j * np.outer(np.arange(0, k_max, block), thetas))

    def integrand(self, g: CircleDiffeo) -> np.ndarray:
        """The localized integrand (gamma' - 1) * Dc on the fine grid."""
        return g.deriv._upsample(self.factor) * self.center_fine

    def boundary_sums(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_k c_k e^{ik theta} over k = 1..K at the four boundary points,
        for coefficients c_0..c_K in the fine grid's rfft layout (c_0 ignored):
        one (K/B x B) @ (B x 4) product, then a sum over its K/B rows."""
        inner = coeffs[1:].reshape(len(self.phase_coarse), -1) @ self.phase_fine
        return np.einsum("qp,qp->p", inner, self.phase_coarse)


def _arc_window(arc: IntervalArc, m: int) -> np.ndarray:
    """Indices of the m-point grid's nodes that the open arc can hold, with
    one node of slack at each end: every other node lies outside it."""
    step = TWO_PI / m
    first = int(arc.a / step) - 1
    return np.arange(first, min(int(arc.b / step) + 2, first + m)) % m


def _gap_cutoff(bump: BumpFunction, m: int):
    """A gap cutoff on the m-point grid: its support's node window (it is 0 at
    every other node), its samples there, and the spectrum and mass of all m
    samples, the mass summed over all m as a dense sum is."""
    window = _arc_window(bump.support, m)
    values = bump.values(_nodes(window, m))
    dense = np.zeros(m)
    dense[window] = values
    return window, values, PeriodicFunction(dense).spectrum, dense.sum() * (TWO_PI / m)


def _stage_coefficients(g: CircleDiffeo, stage: _Stage):
    """alpha, beta (boundary form), the beta used in the construction, and
    (gamma' - 1) * Dc on the fine grid."""
    a, ha, hb, b = stage.endpoints
    fine = PeriodicFunction._adopt(stage.integrand(g))
    mean = fine.spectrum[0].real
    f_vals = 2.0 * stage.boundary_sums(fine._antiderivative_spectrum()).real
    g_ha, g_hb = g.eval(np.array([ha, hb]))

    def partial(theta, f_theta):
        return mean * (theta - stage.theta0) + f_theta - f_vals[0]

    alpha = 2.0 / (ha - a) * (g_ha - ha - partial(ha, f_vals[1]))
    beta = 2.0 / (b - hb) * (hb - g_hb - (partial(b, f_vals[3]) - partial(hb, f_vals[2])))
    # construction variant: cancel the full-period mean exactly, using the
    # measured bump masses, so the factor is 2pi-equivariant to roundoff
    beta_build = -(mean * TWO_PI + alpha * stage.left_mass) / stage.right_mass
    return alpha, beta, beta_build, fine


def _stage_localize(g: CircleDiffeo, stage: _Stage):
    """The localized factor on the fine grid, plus its coefficients.

    Its derivative g_fine = integ + alpha Dl + beta Dr is linear in what the
    stage and _stage_coefficients hold, and so is its spectrum: the factor
    costs one inverse transform.  It keeps g_fine, less the mean and the
    Nyquist mode that the antiderivative drops, as gamma' - 1 instead of
    re-deriving it."""
    alpha, beta, beta_build, fine = _stage_coefficients(g, stage)
    g_spec = fine.spectrum + alpha * stage.left_spec
    g_spec += beta_build * stage.right_spec
    g_fine = fine.samples.copy()
    g_fine[stage.left_nodes] += alpha * stage.left_values
    g_fine[stage.right_nodes] += beta_build * stage.right_values
    mean, nyquist = g_spec[0].real, g_spec[-1].real
    g_spec[[0, -1]] = 0.0
    g_fine -= mean
    g_fine[::2] -= nyquist  # the Nyquist mode alternates in sign over the nodes
    g_fine[1::2] += nyquist
    deriv = PeriodicFunction._with_spectrum(g_fine, g_spec)
    antideriv = deriv._antiderivative_spectrum()
    f = deriv._from_spectrum(antideriv)
    antideriv[0] = -f[stage.origin]
    xi_fine = CircleDiffeo._from_parts(PeriodicFunction._with_spectrum(f - f[stage.origin], antideriv), deriv)
    return xi_fine, alpha, beta, abs(mean) * TWO_PI


def _remainder(xi_fine: CircleDiffeo, stage: _Stage, p: np.ndarray) -> CircleDiffeo:
    """xi^{-1} o gamma on p's grid, gamma = t + p, for the factor xi_fine that
    stage localized gamma to.  xi is the identity off the stage's interval and
    equals gamma on its inner interval, so every target outside the interval
    and every inner node where the samples of xi and gamma agree to NEWTON_TOL
    is its own preimage; Newton runs only on the targets left inside."""
    t = grid(len(p))
    stride = xi_fine.n // len(p)
    own = stage.inner_fine[::stride] & (np.abs(xi_fine.periodic_part.samples[::stride] - p) < NEWTON_TOL)
    u = t + p  # the targets gamma(t_k), replaced by their preimages
    u[own] = t[own]
    solve = ~own & stage.interval.contains(u)
    u[solve] = solve_monotone(xi_fine, u[solve])
    return CircleDiffeo(PeriodicFunction._adopt(u - t))


def _build_factor(n: int) -> int:
    """Oversampling of the construction grid for an n-point input: the grid
    holds min(BUILD_FACTOR * n, max(n, BUILD_NODES)) nodes."""
    return min(BUILD_FACTOR, max(1, BUILD_NODES // n))


@functools.lru_cache(maxsize=16)
def _stage(interval: IntervalArc, inner: IntervalArc, n: int, factor: int) -> _Stage:
    """The localization stage for (interval, inner interval, grid,
    oversampling), built once.  This is the module's one cache; it keys on the
    arcs a stage reads, so covers that differ only in margin share stages."""
    return _Stage(interval, inner, n, factor)


def _first_stage(cover: CoverConfig, n: int) -> _Stage:
    """The stage that localizes an n-point input to the cover's first interval."""
    return _stage(cover.i1, cover.ihat1, n, _build_factor(n))


def _coarse_factor(xi_fine: CircleDiffeo, n: int) -> CircleDiffeo:
    coarse = PeriodicFunction(xi_fine.periodic_part.samples[:: xi_fine.n // n])
    return CircleDiffeo(_check_tail(coarse, DEFAULT_TAIL_TOL, "localized factor"))


class DiffeoFragmenter:
    """Fragmentation machinery bound to one cover and grid size, built from
    the cached stages of the cover's first two intervals."""

    def __init__(self, cover: CoverConfig, n: int = 1024):
        self.cover = cover
        self.n = n
        self.stage1 = _first_stage(cover, n)
        # the second stage consumes the remainder at fine resolution, where
        # the first factor's slow spectral tail is already resolved
        self.stage2 = _stage(cover.i2, cover.ihat2, n * self.stage1.factor, 1)
        # below this threshold the blended derivative stays positive
        bumps = self.stage1.bumps
        self.epsilon1 = 1.0 / (
            1.0 + alpha1_bound(cover, 1.0) * bumps.left.scale + beta1_bound(cover, 1.0) * bumps.right.scale
        )

    # -- full fragmentation ----------------------------------------------

    def fragment(self, g: CircleDiffeo, eps: float = 0.01) -> FragmentationResult:
        if g.n != self.n:
            raise ValueError("grid size mismatch with the fragmenter")
        if eps >= self.epsilon1:
            raise NeighbourhoodError(
                f"eps={eps} is not below the positivity threshold {self.epsilon1:.4f}"
            )
        _check_neighbourhood(g, eps)
        xi1_fine, a1, b1, defect1 = _stage_localize(g, self.stage1)
        xi1 = _coarse_factor(xi1_fine, self.n)
        # remainder evaluated against the fine representation of the first
        # factor, so its samples carry no unresolved-tail noise
        q_fine = _remainder(xi1_fine, self.stage1, g.periodic_part._upsample(self.stage1.factor))

        xi2_fine, a2, b2, defect2 = _stage_localize(q_fine, self.stage2)
        xi2 = _coarse_factor(xi2_fine, self.n)
        xi3 = _remainder(xi2_fine, self.stage2, q_fine.periodic_part.samples[:: self.stage1.factor])

        # reconstruction measured through the fine representations, which
        # resolve the factors' spectral tails
        rec = xi1_fine.eval(xi2_fine.eval(xi3.samples))
        err = float(np.abs(rec - g.samples).max())
        return FragmentationResult(
            xi1, xi2, xi3, a1, b1, a2, b2, err, max(defect1, defect2)
        )


def fragment(g: CircleDiffeo, cover: CoverConfig | None = None, eps: float = 0.01) -> FragmentationResult:
    """Split g into three factors supported in the cover intervals."""
    return DiffeoFragmenter(cover or CoverConfig.default(), g.n).fragment(g, eps=eps)


def _check_neighbourhood(g: CircleDiffeo, eps: float) -> None:
    hood = EpsilonNeighbourhood(eps)
    if not hood.contains(g):
        raise NeighbourhoodError(
            f"element at C^1 distance {hood.distance(g):.3e} is outside the {eps} neighbourhood"
        )


def alpha1(g: CircleDiffeo, cover: CoverConfig, eps: float = 0.01) -> float:
    """Left blending coefficient of the first localization stage."""
    _check_neighbourhood(g, eps)
    value, _, _, _ = _stage_coefficients(g, _first_stage(cover, g.n))
    return value


def beta1(g: CircleDiffeo, cover: CoverConfig, eps: float = 0.01) -> float:
    """Right blending coefficient (boundary form)."""
    _check_neighbourhood(g, eps)
    _, value, _, _ = _stage_coefficients(g, _first_stage(cover, g.n))
    return value


def beta1_integral_form(g: CircleDiffeo, cover: CoverConfig, alpha: float | None = None) -> float:
    """Equivalent full-period expression for beta1.

    beta1 = -2/(b - bhat) * int_0^{2pi} ((gamma'(t)-1) Dc(t) + alpha1 Dl(t)) dt.
    """
    stage = _first_stage(cover, g.n)
    if alpha is None:
        alpha = alpha1(g, cover)
    step = TWO_PI / (g.n * stage.factor)
    full = stage.integrand(g).sum() * step + alpha * stage.left_mass
    _, _, hb, b = stage.endpoints
    return -2.0 / (b - hb) * full


# ---------------------------------------------------------------------------
# Two-interval refactoring
# ---------------------------------------------------------------------------


def fragment_pair(
    g: CircleDiffeo,
    left: IntervalArc,
    right: IntervalArc,
    eps: float = 0.01,
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
    gap_l = left.offset(core.a)
    gap_r = np.mod(left.b - core.b, TWO_PI)
    plateau = IntervalArc(core.a - PAIR_MARGIN * gap_l, core.b + PAIR_MARGIN * gap_r)
    stage = _stage(left, plateau, g.n, _build_factor(g.n))
    xi_fine, _, _, _ = _stage_localize(g, stage)
    return _coarse_factor(xi_fine, g.n), _remainder(xi_fine, stage, g.periodic_part.samples)
