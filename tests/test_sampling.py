"""The sampler contract: a sampled diffeomorphism arrives with the derivative
and the spectrum of its periodic part, both consistent with its samples, at
C^1 distance fill * eps from the identity, and a sampled su(2) loop has sup
operator norm 0.9 * norm.  "Consistent" means to round-off: a spectral
derivative's round-off grows with the top wavenumber n/2, so it is bounded
by n * eps relative to the C^1 size; the other quantities are bounded by a
few eps."""

import numpy as np
import pytest

from circlekit.diffeo import CoverConfig
from circlekit.frag_diff import EpsilonNeighbourhood
from circlekit.periodic import PeriodicFunction
from circlekit.sampling import random_diffeo, random_loop_algebra, random_supported_diffeo, rng_for

ARCS = CoverConfig.default().intervals
ROUND_OFF = 8 * np.finfo(float).eps


def _sampled(n, eps):
    for i in range(6):
        yield random_diffeo(rng_for(36, 1, i), eps, n)
        yield random_supported_diffeo(rng_for(36, 2, i), ARCS[i % 3], eps, n)


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.3])
def test_sampled_diffeos_carry_their_derivative_and_spectrum(n, eps):
    size = 0.9 * eps
    for g in _sampled(n, eps):
        p = g.periodic_part
        assert abs(EpsilonNeighbourhood(eps).distance(g) - size) <= ROUND_OFF * size
        fresh = PeriodicFunction(p.samples)
        assert np.abs(g.deriv.samples - fresh.derivative().samples).max() <= n * np.finfo(float).eps * size
        assert p._spectrum is not None  # cached by the sampler, not left to the first spectral call
        want = np.fft.rfft(p.samples, norm="forward")
        assert np.abs(p._spectrum - want).max() <= ROUND_OFF * np.abs(want).max()


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("norm", [0.05, 0.5, 1.5, 3.0])
def test_sampled_loops_have_the_requested_norm(n, norm):
    for i in range(6):
        xi = random_loop_algebra(rng_for(36, 3, i), norm, n)
        assert abs(xi.norm() - 0.9 * norm) <= ROUND_OFF * norm
