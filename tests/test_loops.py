import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, logm

from circlekit import loops
from circlekit.diffeo import CircleDiffeo, CoverConfig, IntervalArc
from circlekit.errors import BranchError
from circlekit.loops import (
    LoopAlgebraElement,
    LoopElement,
    bracket,
    exp_loop,
    fragment_loop,
    fragment_loop_sequential,
    inverse_loop,
    killing_form,
    log_loop,
    loop_cutoffs,
    loop_from_csv,
    loop_support,
    loop_to_csv,
    multiply,
    omega,
    precompose,
    su2_generators,
)
from circlekit.periodic import grid
from circlekit.sampling import random_diffeo, random_loop_algebra, random_supported_diffeo, rng_for

N = 1024
T = grid(N)
COVER = CoverConfig.default()


def test_multiply_identity_and_inverse():
    xi = random_loop_algebra(rng_for(20, 0), 0.4, N)
    g = exp_loop(xi)
    e = LoopElement.identity(N)
    assert np.abs(multiply(g, e).samples - g.samples).max() < 1e-14
    assert np.abs(multiply(g, inverse_loop(g)).samples - np.eye(2)).max() < 1e-10


def test_exp_matches_rodrigues_and_dense_oracle():
    g1, g2, g3 = su2_generators()
    theta = 0.37
    xi = LoopAlgebraElement(np.broadcast_to(theta * g3, (N, 2, 2)).copy())
    u = exp_loop(xi)
    expected = np.cos(theta) * np.eye(2) + np.sin(theta) * g3
    assert np.abs(u.samples - expected).max() < 1e-12
    # dense matrix exponential oracle on a non-constant loop
    eta = random_loop_algebra(rng_for(20, 1), 0.8, N)
    v = exp_loop(eta)
    for k in (0, 117, 800):
        assert np.abs(v.samples[k] - expm(eta.samples[k])).max() < 1e-12


def test_log_exp_roundtrip():
    assert log_loop(LoopElement.identity(N)).norm() == 0.0
    xi = random_loop_algebra(rng_for(21, 0), 0.9, N)
    assert (log_loop(exp_loop(xi)) - xi).norm() < 1e-9


def test_log_branch_error():
    g3 = su2_generators()[2]
    xi = LoopAlgebraElement(np.broadcast_to(np.pi * g3, (N, 2, 2)).copy())
    with pytest.raises(BranchError):
        log_loop(exp_loop(xi))


def test_killing_form_normalization():
    h = np.diag([1.0, -1.0]).astype(complex)
    assert killing_form(h, h) == 2.0
    g1, g2, _ = su2_generators()
    assert killing_form(g1, g1) == pytest.approx(-2.0)
    rng = np.random.default_rng(2)
    x = random_loop_algebra(rng, 1.0, 16).samples[0]
    y = random_loop_algebra(rng, 1.0, 16).samples[0]
    z = random_loop_algebra(rng, 1.0, 16).samples[0]
    assert killing_form(x, y) == pytest.approx(killing_form(y, x), abs=1e-13)
    assert killing_form(x + z, y) == pytest.approx(
        killing_form(x, y) + killing_form(z, y), abs=1e-13
    )


def test_omega_examples():
    g1 = su2_generators()[0]
    const = LoopAlgebraElement(np.broadcast_to(0.3 * g1, (N, 2, 2)).copy())
    xi = random_loop_algebra(rng_for(22, 0), 1.0, N)
    assert abs(omega(xi, const)) < 1e-13
    # xi = cos(t) X, eta = sin(t) X gives <X, X>/2
    x_cos = LoopAlgebraElement(np.cos(T)[:, None, None] * g1)
    x_sin = LoopAlgebraElement(np.sin(T)[:, None, None] * g1)
    assert omega(x_cos, x_sin) == pytest.approx(killing_form(g1, g1) / 2.0, abs=1e-10)


def test_omega_locality():
    rng = rng_for(22, 1)
    b1 = random_supported_diffeo(rng, IntervalArc(0.2, 2.0), 0.5, N).periodic_part.samples
    b2 = random_supported_diffeo(rng, IntervalArc(2.4, 5.0), 0.5, N).periodic_part.samples
    xi = random_loop_algebra(rng, 1.0, N).scaled(b1)
    eta = random_loop_algebra(rng, 1.0, N).scaled(b2)
    assert abs(omega(xi, eta)) < 1e-10


def test_omega_antisymmetry_jacobi_invariance():
    rng = rng_for(22, 2)
    xi, eta, zeta = (random_loop_algebra(rng, 0.5, N) for _ in range(3))
    assert abs(omega(xi, eta) + omega(eta, xi)) < 1e-10
    jac = (
        omega(bracket(xi, eta), zeta)
        + omega(bracket(eta, zeta), xi)
        + omega(bracket(zeta, xi), eta)
    )
    assert abs(jac) < 1e-9
    f = random_diffeo(rng, 0.05, N)
    assert abs(omega(precompose(xi, f), precompose(eta, f)) - omega(xi, eta)) < 1e-8


@pytest.mark.parametrize("terms", [[(0, -0.4, 0.0), (1, 0.0, 0.3)], [(0, 0.4, 0.0), (2, 0.1, 0.0)]])
def test_precompose_equals_evaluation_at_the_points_of_the_diffeo(terms):
    """precompose reads the loop through f's kept stencils, bit for bit what
    evaluation at f's points gives, on sample points that leave [0, 2pi)
    (below 0, above 2pi) and on complex caches of two lengths (8x and 2x)."""
    f = CircleDiffeo.from_fourier(terms, 64)
    t = grid(64)
    zero = np.zeros(64)
    fine = LoopAlgebraElement.from_components(1e-3 * np.cos(20 * t), 1e-3 * np.sin(3 * t), zero)
    smooth = exp_loop(LoopAlgebraElement.from_components(0.3 * np.cos(t), 0.1 * np.sin(t), zero))
    for el in (fine, smooth, fine):
        assert np.array_equal(precompose(el, f).samples, el.pf.eval(f.samples))
    assert sorted(f._stencils) == [2 * 64, 8 * 64]


def test_fragment_loop_identity():
    parts = fragment_loop(LoopElement.identity(N), COVER)
    for p in parts:
        assert p.distance_to_identity().max() == 0.0


def test_fragment_loop_reconstruction_and_supports():
    xi = random_loop_algebra(rng_for(23, 0), 0.05, N)
    g = exp_loop(xi)
    parts = fragment_loop(g, COVER)
    rec = multiply(parts[0], multiply(parts[1], parts[2], None), None)
    assert np.abs(rec.samples - g.samples).max() < 1e-9
    for xi_j, arc in zip(parts, COVER.intervals):
        assert xi_j.distance_to_identity()[~arc.contains(T)].max() < 1e-10
        sup = loop_support(xi_j)
        assert sup == "empty" or arc.contains_arc(sup)
    seq = fragment_loop_sequential(g, COVER)
    agree = max(np.abs(a.samples - b.samples).max() for a, b in zip(parts, seq))
    assert agree < 1e-9


def test_fragment_loop_supported_in_i1():
    rng = rng_for(23, 1)
    window = random_supported_diffeo(rng, COVER.i1, 0.5, N).periodic_part.samples
    window = window / np.abs(window).max()
    xi = random_loop_algebra(rng, 0.05, N).scaled(window)
    parts = fragment_loop(exp_loop(xi), COVER)
    i12, _, i13 = COVER.overlaps
    assert parts[1].distance_to_identity()[~i12.contains(T)].max() < 1e-10
    assert parts[2].distance_to_identity()[~i13.contains(T)].max() < 1e-10


def test_disjointly_supported_loops_commute():
    rng = rng_for(24, 0)
    b1 = random_supported_diffeo(rng, IntervalArc(0.2, 2.0), 0.5, N).periodic_part.samples
    b2 = random_supported_diffeo(rng, IntervalArc(2.4, 5.0), 0.5, N).periodic_part.samples
    g1 = exp_loop(random_loop_algebra(rng, 0.3, N).scaled(b1))
    g2 = exp_loop(random_loop_algebra(rng, 0.3, N).scaled(b2))
    assert np.abs(
        multiply(g1, g2, None).samples - multiply(g2, g1, None).samples
    ).max() < 1e-10


def test_loop_csv_roundtrip(tmp_path):
    xi = random_loop_algebra(rng_for(25, 0), 0.4, 64)
    g = exp_loop(xi)
    path = tmp_path / "loop.csv"
    loop_to_csv(g, path)
    back = loop_from_csv(path, kind="group")
    assert np.abs(back.samples - g.samples).max() < 1e-15


def test_su2_samples_carry_no_negative_zero(tmp_path):
    """from_components writes its samples as _su2_samples does, so a zero
    entry is +0 and the algebra loop's CSV has no "-0" field."""
    xi = random_loop_algebra(rng_for(27, 0), 0.5, N)
    entries = xi.samples.view(float)
    assert not np.signbit(entries[entries == 0.0]).any()
    path = tmp_path / "xi.csv"
    loop_to_csv(xi, path)
    fields = path.read_text().replace("\n", ",").split(",")
    assert [f for f in fields if f.startswith("-") and float(f) == 0.0] == []


def test_su2_norm_reads_only_real_trace_and_su2_part():
    """The 2x2 operator norm is exact on a I + su(2): X reads |X| and U - I
    reads 2 sin(t / 2) for U = exp(t X / |X|).  By design it reads 0 in the
    parts a sample admitted with check=False has outside a I + su(2)."""
    x = np.array([[0.3j, 0.4 - 1.2j], [-0.4 - 1.2j, -0.3j]])
    xi = LoopAlgebraElement(np.broadcast_to(x, (N, 2, 2)).copy())
    assert xi.norm() == pytest.approx(1.3, abs=1e-15)
    assert np.abs(exp_loop(xi).distance_to_identity() - 2.0 * np.sin(0.65)).max() <= 1e-15
    for outside in (1j * np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        samples = np.broadcast_to(outside.astype(complex), (N, 2, 2)).copy()
        assert LoopAlgebraElement(samples, check=False).norm() == 0.0


def test_invariant_validation():
    bad = np.zeros((N, 2, 2), dtype=complex)
    bad[:, 0, 0] = 1.0  # hermitian with trace, not in su(2)
    with pytest.raises(ValueError):
        LoopAlgebraElement(bad)
    with pytest.raises(ValueError):
        LoopElement(2.0 * np.broadcast_to(np.eye(2, dtype=complex), (N, 2, 2)).copy())


def _su3_loop_algebra(n, scale=1.0):
    t = grid(n)
    x = np.zeros((n, 3, 3), dtype=complex)
    x[:, 0, 1] = scale * (0.3 * np.cos(t) + 0.2j * np.sin(t))
    x[:, 1, 0] = -np.conj(x[:, 0, 1])
    x[:, 0, 0] = scale * 0.25j * np.sin(2 * t)
    x[:, 2, 2] = -x[:, 0, 0]
    return LoopAlgebraElement(x)


def test_su3_generic_path():
    xi = _su3_loop_algebra(64)
    g = exp_loop(xi)
    eye = np.eye(3)
    assert np.abs(np.conj(np.swapaxes(g.samples, 1, 2)) @ g.samples - eye).max() < 1e-10
    assert np.abs(np.linalg.det(g.samples) - 1.0).max() < 1e-10
    assert (log_loop(g) - xi).norm() < 1e-9
    coroot = np.diag([1.0, -1.0, 0.0]).astype(complex)
    assert killing_form(coroot, coroot) == pytest.approx(2.0)


def test_fragment_loop_su3():
    # SU(3) takes the logm/expm path: the factors still rebuild g, stay in
    # their intervals and agree with the stage-by-stage variant
    n = 64
    g = exp_loop(_su3_loop_algebra(n, 0.2))
    parts = fragment_loop(g, COVER)
    assert [part.dim for part in parts] == [3, 3, 3]
    rec = multiply(parts[0], multiply(parts[1], parts[2], None), None)
    assert np.abs(rec.samples - g.samples).max() < 1e-12
    for xi_j, arc in zip(parts, COVER.intervals):
        assert xi_j.distance_to_identity()[~arc.contains(grid(n))].max() < 1e-12
    seq = fragment_loop_sequential(g, COVER)
    assert max(np.abs(a.samples - b.samples).max() for a, b in zip(parts, seq)) < 1e-12


# ---------------------------------------------------------------------------
# SU(2) closed forms against the generic computations at n = 2
# ---------------------------------------------------------------------------

M = 32
EYE = np.eye(2)


def _svd_norms(x):
    return np.linalg.norm(x, ord=2, axis=(1, 2))


def _reference_log(u, branch_tol=1e-6):
    """The SU(2) logarithm as matrix arithmetic: (U - w I) / sinc(theta / pi)
    projected onto su(2), with BranchError at the same threshold."""
    w = np.clip(np.trace(u, axis1=1, axis2=2).real / 2.0, -1.0, 1.0)
    theta = np.arccos(w)
    if theta.max() >= np.pi - branch_tol:
        raise BranchError("branch cut")
    x = (1.0 / np.sinc(theta / np.pi))[:, None, None] * (u - w[:, None, None] * EYE)
    x = 0.5 * (x - np.conj(np.swapaxes(x, 1, 2)))
    return x - (np.trace(x, axis1=1, axis2=2) / 2.0)[:, None, None] * EYE


def _reference_exp(x):
    theta = np.sqrt(np.clip(-np.einsum("tij,tji->t", x, x).real / 2.0, 0.0, None))
    return np.cos(theta)[:, None, None] * EYE + np.sinc(theta / np.pi)[:, None, None] * x


def _reference_fragment(u, cover):
    """Log, scale by the three cutoff weights, exp: the composition the closed
    form of fragment_loop replaces."""
    chi1, chi2 = loop_cutoffs(cover)
    t = grid(len(u))
    c1, c2 = chi1.values(t), chi2.values(t)
    eta = _reference_log(u)
    return [_reference_exp(c[:, None, None] * eta) for c in (c1, c2 * (1.0 - c1), (1.0 - c1) * (1.0 - c2))]


@st.composite
def su2_loops(draw):
    """SU(2) samples cos(theta) I + sin(theta) n.(i sigma): angles up to pi minus
    a gap (at the identity, near the cut, or anywhere), some samples exactly
    the identity, plus an optional round-off perturbation off SU(2) of entry
    size at most eps.  Returns (samples, eps)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = draw(st.sampled_from([np.pi, 3.0, 1.0, 1e-2, 1e-5, 3e-6, 1.5e-6, 1e-6, 5e-7]))
    perturb = draw(st.sampled_from([0.0, 1e-16, 1e-13]))
    axis = rng.normal(size=(M, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    theta = rng.uniform(0.0, np.pi - gap, M)
    theta[0] = np.pi - gap
    theta[rng.random(M) < 0.2] = 0.0
    u = np.cos(theta)[:, None, None] * EYE + np.sin(theta)[:, None, None] * np.einsum(
        "ta,aij->tij", axis, np.array(su2_generators())
    )
    u += perturb * (rng.uniform(-1, 1, u.shape) + 1j * rng.uniform(-1, 1, u.shape))
    return u, 2.0 * perturb


@st.composite
def su2_algebra(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-8, 0.05, 1.0, 3.0]))
    comps = scale * rng.normal(size=(3, M))
    comps[:, rng.random(M) < 0.2] = 0.0
    return LoopAlgebraElement.from_components(*comps)


@settings(max_examples=60, deadline=None)
@given(su2_algebra())
def test_su2_exp_and_norm_match_expm_and_svd(xi):
    u = exp_loop(xi).samples
    svd = _svd_norms(xi.samples).max()
    assert np.abs(u - expm(xi.samples)).max() < 1e-14 * max(1.0, svd)
    assert np.abs(u - _reference_exp(xi.samples)).max() < 1e-15 * max(1.0, svd)
    assert abs(xi.norm() - svd) <= 1e-15 * svd


@settings(max_examples=60, deadline=None)
@given(su2_loops())
def test_su2_log_fragment_and_distance_match_generic(loop):
    u, eps = loop
    g = LoopElement(u, check=False)
    dist = g.distance_to_identity()
    svd = _svd_norms(u - EYE)
    # exact on SU(2); a perturbation of entry size eps moves either norm by at most 2 eps
    assert np.all(np.abs(dist - svd) <= 1e-15 * svd + 4.0 * eps)
    try:
        reference = _reference_fragment(u, COVER)
    except BranchError:
        with pytest.raises(BranchError):
            fragment_loop(g, COVER)
        with pytest.raises(BranchError):
            log_loop(g)
        return
    eta = log_loop(g).samples
    assert np.abs(eta - _reference_log(u)).max() < 1e-15 * (1.0 + np.abs(eta).max())
    safe = np.arccos(np.clip(np.trace(u, axis1=1, axis2=2).real / 2, -1, 1)) < 2.0
    for k in np.flatnonzero(safe)[:4]:
        assert np.abs(eta[k] - logm(u[k])).max() < 1e-14 + 10.0 * eps
    for part, ref in zip(fragment_loop(g, COVER), reference):
        assert np.abs(part.samples - ref).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(su2_loops(), su2_loops(), su2_algebra(), su2_algebra())
def test_su2_products_match_matmul(loop_u, loop_v, xi, eta):
    u, v = loop_u[0], loop_v[0]
    prod = multiply(LoopElement(u, check=False), LoopElement(v, check=False), None).samples
    assert np.abs(prod - u @ v).max() < 1e-15
    a, b = xi.samples, eta.samples
    comm = bracket(xi, eta).samples
    assert np.abs(comm - (a @ b - b @ a)).max() <= 1e-15 * max(1.0, np.abs(a).max() * np.abs(b).max())


def test_su2_identity_loop_is_exact():
    e = LoopElement.identity(M)
    assert all(np.array_equal(p.samples, e.samples) for p in fragment_loop(e, COVER))
    assert not log_loop(e).samples.any()
    assert not e.distance_to_identity().any()
    assert np.array_equal(exp_loop(LoopAlgebraElement.zero(M)).samples, e.samples)


def test_su2_zero_entries_are_positive_zeros():
    # as in the matrix arithmetic: a written loop carries no "-0"
    g = exp_loop(random_loop_algebra(rng_for(23, 2), 0.05, N))
    for part in (g, *fragment_loop(g, COVER), log_loop(g)):
        for x in (part.samples.real, part.samples.imag):
            assert not np.signbit(x[x == 0]).any()


def test_cutoff_weight_memo_is_bounded_and_read_only():
    loops._cutoff_weights.cache_clear()
    for k in range(20):
        fragment_loop(LoopElement.identity(16), dataclasses.replace(CoverConfig.default(), margin=0.05 + 0.01 * k))
    info = loops._cutoff_weights.cache_info()
    assert info.maxsize == 16 and info.currsize == 16
    c1, c2, weights = loops._cutoff_weights(COVER, 64)
    for arr in (c1, c2, *weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5


# ---------------------------------------------------------------------------
# SU(3) and SU(4) eigendecompositions against scipy's expm and logm
# ---------------------------------------------------------------------------


def _random_unitaries(rng, count, dim):
    """Haar-random unitaries: QR of complex Gaussians with the phases of R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim)))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _su(q, w):
    """Samples q diag(i w) q^H of su(n) for traceless real w, projected exactly."""
    x = (q * (1j * w)[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))
    x = 0.5 * (x - np.conj(np.swapaxes(x, 1, 2)))
    return x - (np.trace(x, axis1=1, axis2=2) / x.shape[1])[:, None, None] * np.eye(x.shape[1])


@st.composite
def sun_algebra(draw):
    """su(3) or su(4) samples q diag(i w) q^H with eigenvalue angles w up to
    2 in size, some with a repeated eigenvalue and some exactly zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([3, 4]))
    scale = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.5, 2.0]))
    w = rng.uniform(-1.0, 1.0, (M, dim))
    if draw(st.booleans()):
        w[:, 1] = w[:, 0]  # a repeated eigenvalue
    w -= w.mean(axis=1, keepdims=True)
    w *= scale / np.abs(w).max(axis=1, keepdims=True)
    x = _su(_random_unitaries(rng, M, dim), w)
    x[rng.random(M) < 0.2] = 0.0
    return LoopAlgebraElement(x)


@settings(max_examples=60, deadline=None)
@given(sun_algebra())
def test_sun_exp_log_and_fragment_match_expm_and_logm(xi):
    x = xi.samples
    eye = np.eye(xi.dim)
    zero = ~x.any(axis=(1, 2))
    g = exp_loop(xi)
    u = g.samples
    assert np.abs(u - np.stack([expm(m) for m in x])).max() <= 1e-13
    assert np.abs(u[zero] - eye).max(initial=0.0) <= 1e-15
    eta = log_loop(g).samples
    assert np.abs(eta - np.stack([logm(m) for m in u])).max() <= 1e-13
    assert np.abs(eta - x).max() <= 1e-13
    assert not log_loop(LoopElement(np.where(zero[:, None, None], eye, u))).samples[zero].any()
    weights = loops._cutoff_weights(COVER, M)[2]
    logs = np.stack([logm(m) for m in u])
    for part, c in zip(fragment_loop(g, COVER), weights):
        reference = np.stack([expm(ck * lk) for ck, lk in zip(c, logs)])
        assert np.abs(part.samples - reference).max() <= 1e-13


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 4]),
    st.sampled_from([4.0, 1.5, 1.01, 0.99, 0.5, 0.0]),
)
def test_sun_branch_error_at_branch_tol(seed, dim, gap):
    """An eigenvalue gap * BRANCH_TOL short of angle pi: log_loop and
    fragment_loop raise BranchError exactly when gap <= 1, as the angles of
    numpy's eigvals place it."""
    rng = np.random.default_rng(seed)
    theta = np.pi - gap * loops.BRANCH_TOL
    w = np.zeros((M, dim))
    w[:, 0] = rng.uniform(-1.0, 1.0, M)
    w[:, 1] = -w[:, 0]
    w[0, :2] = theta, -theta
    u = np.stack([expm(m) for m in _su(_random_unitaries(rng, M, dim), w)])
    g = LoopElement(u)
    at_cut = np.abs(np.angle(np.linalg.eigvals(u))).max() >= np.pi - loops.BRANCH_TOL
    assert at_cut == (gap <= 1.0)
    if at_cut:
        with pytest.raises(BranchError):
            log_loop(g)
        with pytest.raises(BranchError):
            fragment_loop(g, COVER)
    else:
        log_loop(g)
        fragment_loop(g, COVER)


def _angles_summing_to(rng, count, dim, winding, margin=0.05):
    """count rows of dim eigenvalue angles, each inside (-pi + margin, pi - margin),
    summing to 2 pi winding: the last angle closes the sum, and rows where it
    falls outside are drawn again."""
    rows = np.empty((0, dim))
    while len(rows) < count:
        w = rng.uniform(-np.pi + margin, np.pi - margin, (8 * count, dim))
        w[:, -1] = 2 * np.pi * winding - w[:, :-1].sum(axis=1)
        rows = np.vstack([rows, w[np.abs(w[:, -1]) < np.pi - margin]])
    return rows[:count]


def _sun_with_angles(rng, w):
    """Samples q diag(e^{i w}) q^H for Haar-random q: in SU(n) when each row of w sums to 2 pi m."""
    q = _random_unitaries(rng, len(w), w.shape[1])
    return (q * np.exp(1j * w)[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]), st.sampled_from([1, -1]), st.integers(1, M))
def test_sun_log_refuses_angles_off_the_principal_branch(seed, dim, winding, off_branch):
    """An SU(n) sample whose principal angles sum to 2 pi m, m = +-1, has a
    principal logarithm with trace 2 pi i m: log_loop, fragment_loop and
    fragment_loop_sequential raise BranchError when any sample is one.  The
    same loop with those samples' angles summing to 0 passes, and
    exp_loop(log_loop(g)) gives g back."""
    rng = np.random.default_rng(seed)
    w = _angles_summing_to(rng, M, dim, 0)
    moved = rng.permutation(M)[:off_branch]
    w[moved] = _angles_summing_to(rng, off_branch, dim, winding)
    u = _sun_with_angles(rng, w)
    assert np.abs(np.linalg.det(u) - 1).max() < 1e-12
    g = LoopElement(u)
    for call in (log_loop, lambda g: fragment_loop(g, COVER), lambda g: fragment_loop_sequential(g, COVER)):
        with pytest.raises(BranchError, match="sum to a nonzero multiple"):
            call(g)
    w[moved] = _angles_summing_to(rng, off_branch, dim, 0)
    g = LoopElement(_sun_with_angles(rng, w))
    assert np.abs(exp_loop(log_loop(g)).samples - g.samples).max() < 1e-12
    fragment_loop(g, COVER)
    fragment_loop_sequential(g, COVER)


def test_sun_log_refuses_constant_loop_off_the_principal_branch():
    # angles (2.5, 2.5, 2 pi - 5): each inside (-pi, pi), summing to 2 pi;
    # the projected principal logarithm lands 1.69 from g
    u = _sun_with_angles(np.random.default_rng(2601), np.array([[2.5, 2.5, 2 * np.pi - 5]]))
    g = LoopElement(np.repeat(u, 16, axis=0))
    for call in (log_loop, fragment_loop, fragment_loop_sequential):
        with pytest.raises(BranchError):
            call(g)


def test_fragment_loop_su4_agrees_with_sequential():
    n = 64
    t = grid(n)
    x = np.zeros((n, 4, 4), dtype=complex)
    x[:, 0, 3] = 0.05 * np.cos(t) + 0.03j * np.sin(2 * t)
    x[:, 1, 2] = 0.04 * np.sin(t)
    x[:, 3, 0] = -np.conj(x[:, 0, 3])
    x[:, 2, 1] = -np.conj(x[:, 1, 2])
    x[:, 0, 0] = 0.02j * np.cos(3 * t)
    x[:, 3, 3] = -x[:, 0, 0]
    g = exp_loop(LoopAlgebraElement(x))
    parts = fragment_loop(g, COVER)
    rec = multiply(parts[0], multiply(parts[1], parts[2], None), None)
    assert np.abs(rec.samples - g.samples).max() < 1e-13
    for xi_j, arc in zip(parts, COVER.intervals):
        assert xi_j.distance_to_identity()[~arc.contains(t)].max() < 1e-13
    seq = fragment_loop_sequential(g, COVER)
    assert max(np.abs(a.samples - b.samples).max() for a, b in zip(parts, seq)) < 1e-13


SCIPY_PROBE = """
import sys
import numpy as np
from circlekit import loops
from circlekit.periodic import grid
t = grid(64)
x = np.zeros((64, 3, 3), dtype=complex)
x[:, 0, 1] = 0.3 * np.cos(t) + 0.2j * np.sin(t)
x[:, 1, 0] = -np.conj(x[:, 0, 1])
g = loops.exp_loop(loops.LoopAlgebraElement(x))
loops.log_loop(g)
loops.fragment_loop(g)
loops.fragment_loop_sequential(g)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_sun_path_loads_no_scipy():
    """SU(3) exp_loop, log_loop, fragment_loop and fragment_loop_sequential in a
    fresh interpreter: scipy is a test dependency only."""
    env = {**os.environ, "PYTHONPATH": str(Path(loops.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True, env=env, timeout=600)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
