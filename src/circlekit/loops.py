"""Loops into SU(n) (default SU(2)): pointwise group and algebra arithmetic.

Loops are grids of matrices; the group operations act sample by sample.  For
SU(2) every operation is a closed form on the entries of a sample a I + X,
a = Re tr / 2 and X = [[i p, q], [-conj q, -i p]] in su(2): _su2_parts reads
(a, p, q), _su2_samples writes them and _su2_norm measures them.  log U is
X / sinc(theta / pi) with theta = arccos a, exp X is the axis-angle factor
cos(theta) I + sinc(theta / pi) X with theta = |X| = sqrt(p^2 + |q|^2), and
products are written out entry by entry.  a I + X is normal with eigenvalues
a +- i |X|, so both its singular values equal sqrt(a^2 + |X|^2): the
operator norm of X and of U - I.  SU(n) with n > 2 takes batched numpy
eigensolves (exp: eigh of the hermitian -i X; log: eig of U; fragment_loop:
the log's eig plus one eigh), batched matmul and SVD norms.  The invariant
bilinear form is tr(XY) in the defining representation, normalized so the
standard coroot diag(1, -1, 0, ...) has square length 2.
"""

from __future__ import annotations

import functools

import numpy as np

from .diffeo import CircleDiffeo, CoverConfig, IntervalArc, arc_of_moved_points, make_bump
from .errors import BranchError
from .periodic import DEFAULT_TAIL_TOL, PeriodicFunction, _check_tail, _same_grid, _write_csv, grid

__all__ = [
    "LoopElement",
    "LoopAlgebraElement",
    "su2_generators",
    "multiply",
    "inverse_loop",
    "exp_loop",
    "log_loop",
    "killing_form",
    "omega",
    "bracket",
    "precompose",
    "loop_support",
    "loop_cutoffs",
    "fragment_loop",
    "fragment_loop_sequential",
    "loop_to_csv",
    "loop_from_csv",
]

BRANCH_TOL = 1e-6  # the logarithm rejects rotation angles within this of pi


def su2_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anti-hermitian basis i*sigma_1, i*sigma_2, i*sigma_3 of su(2)."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return 1j * s1, 1j * s2, 1j * s3


class _Loop:
    """Grid samples of matrices, held as a PeriodicFunction; check=True runs
    the subclass's _check on them."""

    __slots__ = ("pf",)

    def __init__(self, samples, check: bool = True) -> None:
        if not isinstance(samples, PeriodicFunction):
            samples = np.asarray(samples, dtype=complex)
            if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
                raise ValueError("loop samples must have shape (N, n, n)")
            samples = PeriodicFunction(samples)
        self.pf = samples
        if check:
            self._check(self.pf.samples)

    @property
    def samples(self) -> np.ndarray:
        return self.pf.samples

    @property
    def n(self) -> int:
        return self.pf.n

    @property
    def dim(self) -> int:
        return self.pf.samples.shape[1]


class LoopAlgebraElement(_Loop):
    """Grid-sampled map from the circle into su(n)."""

    __slots__ = ()

    @staticmethod
    def _check(x: np.ndarray) -> None:
        herm = np.abs(x + np.conj(np.swapaxes(x, 1, 2))).max()
        tr = np.abs(np.trace(x, axis1=1, axis2=2)).max()
        if herm > 1e-12 or tr > 1e-12:
            raise ValueError(
                f"samples not in su(n): anti-hermiticity {herm:.2e}, trace {tr:.2e}"
            )

    @classmethod
    def zero(cls, n: int = 1024, dim: int = 2) -> "LoopAlgebraElement":
        return cls(np.zeros((n, dim, dim), dtype=complex), check=False)

    @classmethod
    def from_components(cls, cx, cy, cz) -> "LoopAlgebraElement":
        """su(2) element c_x i sigma_1 + c_y i sigma_2 + c_z i sigma_3: p = c_z, q = c_y + i c_x."""
        cx, cy, cz = (np.asarray(c, dtype=float) for c in (cx, cy, cz))
        return cls(_su2_samples(0.0, cz, cy + 1j * cx), check=False)

    def scaled(self, factors) -> "LoopAlgebraElement":
        """Pointwise multiplication by a real scalar function (cutoff)."""
        f = np.asarray(factors, dtype=float)
        return LoopAlgebraElement(self.samples * f[:, None, None], check=False)

    def norm(self) -> float:
        """Sup over the grid of the operator norm; for su(2), exact on su(2)
        samples and blind to any part outside a I + su(2) (see _su2_parts)."""
        return float(_operator_norms(self.samples).max())

    def __add__(self, other):
        return LoopAlgebraElement(self.samples + other.samples, check=False)

    def __sub__(self, other):
        return LoopAlgebraElement(self.samples - other.samples, check=False)

    def __repr__(self) -> str:
        return f"LoopAlgebraElement(n={self.n}, su({self.dim}), norm={self.norm():.3e})"


class LoopElement(_Loop):
    """Grid-sampled map from the circle into SU(n)."""

    __slots__ = ()

    @staticmethod
    def _check(u: np.ndarray) -> None:
        eye = np.eye(u.shape[1])
        unit = np.abs(np.conj(np.swapaxes(u, 1, 2)) @ u - eye).max()
        det = np.abs(np.linalg.det(u) - 1.0).max()
        if unit > 1e-10 or det > 1e-10:
            raise ValueError(
                f"samples not in SU(n): unitarity {unit:.2e}, determinant {det:.2e}"
            )

    @classmethod
    def identity(cls, n: int = 1024, dim: int = 2) -> "LoopElement":
        return cls(np.broadcast_to(np.eye(dim, dtype=complex), (n, dim, dim)).copy(), check=False)

    def distance_to_identity(self) -> np.ndarray:
        """Per-sample operator norm of U - I; for SU(2), blind as norm() is."""
        return _operator_norms(self.samples - np.eye(self.dim))

    def __repr__(self) -> str:
        return (
            f"LoopElement(n={self.n}, SU({self.dim}), "
            f"dist={self.distance_to_identity().max():.3e})"
        )


# ---------------------------------------------------------------------------
# SU(2) closed forms on the matrix entries
# ---------------------------------------------------------------------------


def _operator_norms(x: np.ndarray) -> np.ndarray:
    """Per-sample operator norm: _su2_norm for 2x2 samples, which every caller
    passes as a I + X with X in su(2) (X itself, or U - I with U in SU(2));
    the SVD norm for larger samples."""
    if x.shape[1] != 2:
        return np.linalg.norm(x, ord=2, axis=(1, 2))
    return _su2_norm(*_su2_parts(x))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample matrix product a @ b; 2x2 samples are written out entry by entry."""
    if a.shape[1] != 2:
        return a @ b
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    for i in (0, 1):
        for j in (0, 1):
            out[:, i, j] = a[:, i, 0] * b[:, 0, j] + a[:, i, 1] * b[:, 1, j]
    return out


def _su2_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, p, q) of 2x2 samples: a = Re tr x / 2 and the traceless anti-hermitian
    part [[i p, q], [-conj q, -i p]], the projection onto su(2), from the entries."""
    a = 0.5 * (x[:, 0, 0].real + x[:, 1, 1].real)
    p = 0.5 * (x[:, 0, 0].imag - x[:, 1, 1].imag)
    q = 0.5 * (x[:, 0, 1] - np.conj(x[:, 1, 0]))
    return a, p, q


def _su2_samples(w: np.ndarray | float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Samples w I + [[i p, q], [-conj q, -i p]].  Entries are written as x + 0
    and 0 - x, so a zero entry is +0, as in the matrix arithmetic, and a
    written loop carries no "-0"."""
    out = np.empty((len(p), 2, 2), dtype=complex)
    out.real[:, 0, 0] = out.real[:, 1, 1] = w
    out.imag[:, 0, 0] = p + 0.0
    out.imag[:, 1, 1] = 0.0 - p
    out[:, 0, 1] = q + 0.0
    out[:, 1, 0] = 0.0 - np.conj(q)
    return out


def _su2_log(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """su(2) parts (p, q) of the principal logarithm X / sinc(theta / pi) of SU(2)
    samples, theta = arccos(Re tr U / 2); BranchError when theta comes within
    BRANCH_TOL of pi."""
    w, p, q = _su2_parts(u)
    theta = np.arccos(np.clip(w, -1.0, 1.0))
    if theta.max() >= np.pi - BRANCH_TOL:
        raise BranchError(
            f"sample with rotation angle {theta.max():.6f} is at the branch cut"
        )
    factor = 1.0 / np.sinc(theta / np.pi)
    return factor * p, factor * q


def _su2_norm(a: np.ndarray | float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Operator norm sqrt(p^2 + |q|^2 + a^2) of the samples a I + [[i p, q], [-conj q, -i p]]."""
    return np.sqrt(p**2 + q.real**2 + q.imag**2 + a**2)


def _su2_exp(theta: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Axis-angle factor cos(theta) I + sinc(theta / pi) X of the su(2) samples
    X = [[i p, q], [-conj q, -i p]] of norm theta."""
    s = np.sinc(theta / np.pi)
    return _su2_samples(np.cos(theta), s * p, s * q)


# ---------------------------------------------------------------------------
# Group and algebra operations
# ---------------------------------------------------------------------------


def multiply(g1: LoopElement, g2: LoopElement, tail_tol: float = DEFAULT_TAIL_TOL) -> LoopElement:
    """Pointwise matrix product."""
    _same_grid(g1, g2)
    product = PeriodicFunction(_product(g1.samples, g2.samples))
    return LoopElement(_check_tail(product, tail_tol, "loop product"), check=False)


def inverse_loop(g: LoopElement) -> LoopElement:
    """Pointwise inverse (conjugate transpose)."""
    return LoopElement(np.conj(np.swapaxes(g.samples, 1, 2)), check=False)


def _unitary(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Samples v diag(e^{i w}) v^H: the exponential of the skew-hermitian
    v diag(i w) v^H, for real w and unitary v as eigh returns them."""
    return (v * np.exp(1j * w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))


def exp_loop(xi: LoopAlgebraElement) -> LoopElement:
    """Pointwise exponential.  SU(2) uses the closed axis-angle form, SU(n)
    the eigenbasis of the hermitian -i X: v diag(e^{i w}) v^H."""
    if xi.dim == 2:
        _, p, q = _su2_parts(xi.samples)
        return LoopElement(_su2_exp(_su2_norm(0.0, p, q), p, q), check=False)
    return LoopElement(_unitary(*np.linalg.eigh(-1j * xi.samples)), check=False)


def log_loop(g: LoopElement) -> LoopAlgebraElement:
    """Pointwise principal logarithm.  SU(n) takes it in U's eigenbasis,
    v diag(i phi) v^-1 with phi the eigenvalue angles, projected onto su(n).

    Raises BranchError when any sample has an eigenvalue within BRANCH_TOL (in
    angle) of -1, where the principal branch breaks down, and for n > 2 when
    a sample's angles sum to 2 pi m with m != 0: its principal logarithm then
    has trace 2 pi i m, and its projection onto su(n) is no logarithm of U.
    """
    u = g.samples
    if g.dim == 2:
        p, q = _su2_log(u)
        return LoopAlgebraElement(_su2_samples(0.0, p, q), check=False)
    eigenvalues, v = np.linalg.eig(u)
    phases = np.angle(eigenvalues)
    if np.abs(phases).max() >= np.pi - BRANCH_TOL:
        raise BranchError("sample with an eigenvalue at the branch cut")
    if np.rint(phases.sum(axis=1) / (2 * np.pi)).any():
        raise BranchError("sample whose eigenvalue angles sum to a nonzero multiple of 2 pi")
    x = (v * (1j * phases)[:, None, :]) @ np.linalg.inv(v)
    # project exactly onto su(n) to absorb roundoff
    x = 0.5 * (x - np.conj(np.swapaxes(x, 1, 2)))
    x = x - (np.trace(x, axis1=1, axis2=2) / g.dim)[:, None, None] * np.eye(g.dim)
    return LoopAlgebraElement(x, check=False)


def _real_if_roundoff(value: complex):
    """value.real when the imaginary part is below 1e-12 (1 + |value|), else value."""
    return value.real if abs(value.imag) < 1e-12 * (1.0 + abs(value)) else value


def killing_form(x: np.ndarray, y: np.ndarray):
    """Invariant form tr(XY), normalized so diag(1,-1,0,..) has square length 2.

    Real for su(n) arguments; complex values pass through for inputs in the
    complexification.
    """
    return _real_if_roundoff(complex(np.trace(np.asarray(x) @ np.asarray(y))))


def bracket(xi: LoopAlgebraElement, eta: LoopAlgebraElement) -> LoopAlgebraElement:
    """Pointwise commutator [xi, eta](t) = xi(t) eta(t) - eta(t) xi(t)."""
    _same_grid(xi, eta)
    a, b = xi.samples, eta.samples
    return LoopAlgebraElement(_product(a, b) - _product(b, a), check=False)


def omega(xi: LoopAlgebraElement, eta: LoopAlgebraElement):
    """Central-extension cocycle (1/2pi) * int tr(xi(t) eta'(t)) dt."""
    _same_grid(xi, eta)
    deta = eta.pf.derivative()
    integrand = np.einsum("tij,tji->t", xi.samples, deta.samples)
    return _real_if_roundoff(complex(integrand.mean()))


def precompose(el, diffeo: CircleDiffeo):
    """Reparametrize a loop (group or algebra element) by a diffeomorphism."""
    return type(el)(diffeo._pull_back(el.pf), check=False)


def loop_support(g: LoopElement, tol: float = 1e-10):
    """Smallest arc containing the samples away from the identity, as in diffeo.support."""
    return arc_of_moved_points(g.distance_to_identity() > tol, g.n)


# ---------------------------------------------------------------------------
# Fragmentation over a three-interval cover
# ---------------------------------------------------------------------------


def loop_cutoffs(cover: CoverConfig):
    """The two cutoff functions used to split a loop across the cover.

    chi1 is supported in I1 and equals 1 slightly beyond the part of I1 that
    meets neither I2 nor I3; chi2 is supported in (I1 minus I3) union I2 and
    equals 1 slightly beyond I2 minus I3.  "Slightly" is the cover margin
    times the width of the adjacent overlap.
    """
    m = cover.margin
    o12, o23, o31 = cover.overlaps
    chi1 = make_bump(cover.i1, IntervalArc(o31.b - m * o31.length, o12.a + m * o12.length))
    chi2 = make_bump(
        IntervalArc(o31.b, o23.b), IntervalArc(o12.a - m * o12.length, o23.a + m * o23.length)
    )
    return chi1, chi2


@functools.lru_cache(maxsize=16)
def _cutoff_weights(cover: CoverConfig, n: int):
    """Read-only samples of chi1 and chi2 on the n-point grid and the three
    fragment weights chi1, chi2 (1 - chi1), (1 - chi1)(1 - chi2), built once
    per (cover, grid)."""
    c1, c2 = (chi.values(grid(n)) for chi in loop_cutoffs(cover))
    weights = (c1, c2 * (1.0 - c1), (1.0 - c1) * (1.0 - c2))
    for arr in (c2, *weights):
        arr.flags.writeable = False
    return c1, c2, weights


def fragment_loop(
    g: LoopElement, cover: CoverConfig | None = None
) -> tuple[LoopElement, LoopElement, LoopElement]:
    """Split a loop near the identity into three factors supported in the cover.

    Uses the commuting closed form: all three exponents are pointwise
    multiples c eta of the same logarithm eta, so the product telescopes
    exactly.  For SU(2) eta and its norm theta are read once and each factor
    is the axis-angle factor of c eta, of angle c theta, built from its entries;
    for SU(n) one eigh of -i eta gives every factor as v diag(e^{i c w}) v^H.
    """
    cover = cover or CoverConfig.default()
    weights = _cutoff_weights(cover, g.n)[2]
    if g.dim == 2:
        p, q = _su2_log(g.samples)
        theta = _su2_norm(0.0, p, q)
        return tuple(LoopElement(_su2_exp(c * theta, c * p, c * q), check=False) for c in weights)
    w, v = np.linalg.eigh(-1j * log_loop(g).samples)
    return tuple(LoopElement(_unitary(c[:, None] * w, v), check=False) for c in weights)


def fragment_loop_sequential(
    g: LoopElement, cover: CoverConfig | None = None
) -> tuple[LoopElement, LoopElement, LoopElement]:
    """Stage-by-stage variant: peel the first factor, localize the remainder.

    Agrees with fragment_loop because the exponents commute pointwise.
    """
    cover = cover or CoverConfig.default()
    c1, c2, _ = _cutoff_weights(cover, g.n)
    xi1 = exp_loop(log_loop(g).scaled(c1))
    remainder = multiply(inverse_loop(xi1), g, tail_tol=None)
    xi2 = exp_loop(log_loop(remainder).scaled(c2))
    xi3 = multiply(inverse_loop(xi2), remainder, tail_tol=None)
    return xi1, xi2, xi3


def fragment_loop_residuals(g: LoopElement, parts: tuple, cover: CoverConfig) -> tuple[float, float]:
    """Largest entry error of xi1 xi2 xi3 against g, and largest distance to
    the identity of xi_j outside I_j."""
    rec = multiply(parts[0], multiply(parts[1], parts[2], None), None)
    outside = max(
        arc.max_abs_outside(xi.distance_to_identity()) for xi, arc in zip(parts, cover.intervals)
    )
    return float(np.abs(rec.samples - g.samples).max()), outside


# ---------------------------------------------------------------------------
# CSV export of sampled matrix entries
# ---------------------------------------------------------------------------


def loop_to_csv(el, path) -> None:
    """Rows: t then real/imag interleaved matrix entries, row-major."""
    _write_csv(el.samples, path)


def loop_from_csv(path, kind="group"):
    """Read a loop written by loop_to_csv; kind is "group" or "algebra"."""
    data = np.loadtxt(path, delimiter=",")
    n, cols = data.shape
    d = int(round(np.sqrt((cols - 1) // 2)))
    vals = data[:, 1:].reshape(n, d, d, 2)
    samples = vals[..., 0] + 1j * vals[..., 1]
    return LoopElement(samples) if kind == "group" else LoopAlgebraElement(samples)
