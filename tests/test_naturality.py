"""Naturality under rotations by whole grid steps, and of the loop cocycle
under every diffeomorphism, checked to round-off.

The covariance cocycles are natural under the action of diffeomorphisms.
Rotation R by k grid steps is the one such action that a grid represents
exactly: conjugating a diffeomorphism by R, or precomposing a loop or a
field with R, rolls its samples by k.  So fragmenting over the cover turned
by k steps must roll the factors, and the cocycles must not change.  A bug in
an integration origin, a cover index or a quadrature offset breaks this far
above round-off, though a 1e-7 reconstruction bound would let it through.

The loop cocycle omega(X, Y) = (1/2pi) int tr(X dY) is moreover invariant
under any reparametrization, omega(X o phi, Y o phi) = omega(X, Y), by
substitution (Pressley & Segal 1986, 4.2).  For phi far from the identity
precompose reads the matrix caches between their nodes, so the test pins
those reads against an exact invariant.
"""

import numpy as np
import pytest

from circlekit.cocycles import bott, vect_cocycle
from circlekit.diffeo import CircleDiffeo, CoverConfig, IntervalArc
from circlekit.frag_diff import fragment
from circlekit.loops import exp_loop, fragment_loop, omega, precompose
from circlekit.periodic import TWO_PI, PeriodicFunction
from circlekit.sampling import random_diffeo, random_loop_algebra, random_vect_field, rng_for

N = 1024
COVER = CoverConfig.default()
TOL = 1e-14
TURNS = (1, -1, 5, -5, 20, -20)
INPUTS = 5


def turned(cover: CoverConfig, k: int) -> CoverConfig:
    """The cover rotated by k steps of the N-point grid."""
    arcs = (cover.i1, cover.i2, cover.i3, cover.ihat1, cover.ihat2, cover.ihat3)
    return CoverConfig(*(IntervalArc(arc.a + k * TWO_PI / N, arc.b + k * TWO_PI / N) for arc in arcs), cover.margin)


def conjugated(g: CircleDiffeo, k: int) -> CircleDiffeo:
    """R g R^-1 for the rotation R by k steps: g's periodic part rolled by k."""
    return CircleDiffeo(PeriodicFunction(np.roll(g.periodic_part.samples, k)))


def rolled(el, k: int):
    return type(el)(np.roll(el.samples, k, axis=0))


@pytest.mark.parametrize("k", TURNS)
def test_fragment_factors_roll_with_the_cover(k):
    cover = turned(COVER, k)
    for i in range(INPUTS):
        g = random_diffeo(rng_for(27, 1, i), 0.01, N)
        base, moved = fragment(g, COVER), fragment(conjugated(g, k), cover)
        for name in ("xi1", "xi2", "xi3"):
            want = np.roll(getattr(base, name).periodic_part.samples, k)
            assert np.abs(getattr(moved, name).periodic_part.samples - want).max() <= TOL


@pytest.mark.parametrize("k", TURNS)
def test_fragment_loop_factors_roll_with_the_cover(k):
    cover = turned(COVER, k)
    for i in range(INPUTS):
        g = exp_loop(random_loop_algebra(rng_for(27, 2, i), 1.5, N))
        for xi, xi0 in zip(fragment_loop(rolled(g, k), cover), fragment_loop(g, COVER)):
            assert np.abs(xi.samples - np.roll(xi0.samples, k, axis=0)).max() <= TOL


@pytest.mark.parametrize("k", TURNS)
def test_bott_is_invariant_under_conjugation_by_rotations(k):
    for i in range(INPUTS):
        g1, g2 = (random_diffeo(rng_for(27, j, i), 0.1, N) for j in (3, 4))
        value = bott(g1, g2)
        assert abs(bott(conjugated(g1, k), conjugated(g2, k)) - value) <= TOL * abs(value)


# vect_cocycle and omega are means over the grid that can cancel, so their
# round-off scale is the mean modulus of the integrand, which bounds |value|


@pytest.mark.parametrize("k", TURNS)
def test_vect_cocycle_is_invariant_under_a_node_shift(k):
    for i in range(INPUTS):
        f, g = (random_vect_field(rng_for(27, j, i), N) for j in (5, 6))
        scale = np.abs(f.samples * (g.derivative().samples + g.derivative(3).samples)).mean()
        shifted = vect_cocycle(*(PeriodicFunction(np.roll(x.samples, k)) for x in (f, g)))
        assert abs(shifted - vect_cocycle(f, g)) <= TOL * scale


@pytest.mark.parametrize("k", TURNS)
def test_omega_is_invariant_under_a_node_shift(k):
    for i in range(INPUTS):
        xi, eta = (random_loop_algebra(rng_for(27, j, i), 0.5, N) for j in (7, 8))
        scale = np.abs(np.einsum("tij,tji->t", xi.samples, eta.pf.derivative().samples)).mean()
        assert abs(omega(rolled(xi, k), rolled(eta, k)) - omega(xi, eta)) <= TOL * scale


@pytest.mark.parametrize("n", [1024, 4096])
def test_omega_is_invariant_under_reparametrization(n):
    for i in range(4):
        phi = random_diffeo(rng_for(5, i), 0.3, n)
        xi, eta = (random_loop_algebra(rng_for(28, j, i), 0.5, n) for j in (1, 2))
        scale = np.abs(np.einsum("tij,tji->t", xi.samples, eta.pf.derivative().samples)).mean()
        assert abs(omega(precompose(xi, phi), precompose(eta, phi)) - omega(xi, eta)) <= 1e-13 * scale
