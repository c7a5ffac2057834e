"""Exact level-truncated lowest-weight modules for the Virasoro algebra.

Generators L_m with m in Z and a central element acting as the scalar c obey

    [L_m, L_n] = (m - n) L_{m+n} + (m^3 - m)/12 * delta_{m,-n} * c.

The module M(c, h) is spanned by ordered words L_{-n1} ... L_{-nk} |h> with
n1 >= ... >= nk >= 1 (partitions), where L_0 |h> = h |h> and L_m |h> = 0 for
m > 0.  All coefficients are exact rationals; states above the truncation
level are rejected rather than silently dropped.

Inside a module the arithmetic runs on Python ints over one denominator,
D = lcm(2 den c, den h), and on basis indices: the module numbers each
partition when it first meets one and records the index of its rest (the
partition minus its first part), so memo, accumulators and Gram rows key on
small ints.  With e(m) = max(m, 1) for m >= 0 and e(m) = 0 for m < 0, the
memo of L_m on basis words holds L_m e_nu times D^e(m): e is nondecreasing,
so the (m + n1) L_{m-n1} term of a commutator move rescales by the int
D^(e(m) - e(m-n1)), and the central term (m^3 - m)/12 c D^m is the int
(m^3 - m)/6 (c D/2) D^(m-1).  The fill is one flat loop per memo entry: it
reads memo hits directly and recurses only on a miss, adds rows into its
index -> int dict in place, takes the rescale from the module's table of
powers of D (grown to the largest first part filled, never to the
truncation, which is unbounded) and drops zero entries only when there are
any.  A state enters in one pass that numbers, grades and clears it, except
that the bracket check, being homogeneous, takes a single word with
coefficient 1.  `act` and the check's shift and central terms add scaled
word actions into one index -> int dict through `_add_scaled`; the check's
L_m L_n v - L_n L_m v adds into the same dict in one fused loop over the
memo, all at the scale D^(e(m) + e(n)), and the check passes when every
entry is zero.  On the diagonal m == n the two compositions are the same
memo rows and the shift and central terms vanish, so the check passes once
the truncation guard has.  Gram matrices recurse on mu's first part over
memoized lower levels, the level-L one held times D^L; each entry is a plain
loop over one memo row against one lower Gram row.  The Shapovalov form is
symmetric, so only the entries from the diagonal rightwards are computed and
the rest are mirrored.  `basis` and `gram_matrix` share one level check.
Partitions come back, and Fractions are built, only where values leave the
module (`act`, `gram_matrix`, one Fraction per mirrored pair).  Determinants
return 0 at once when a cleared row is zero, and otherwise run Bareiss
elimination on rows cleared by the LCM of their own denominators; on
symmetric input it updates only the upper triangle of the active block,
reading each lower entry back through the row scales, until a zero diagonal
pivot hands over to the general step with row swaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping

from .errors import TruncationError

__all__ = [
    "Partition",
    "VermaState",
    "VermaModule",
    "partitions",
    "act",
    "commutator_check",
    "gram_matrix",
    "exact_determinant",
]

Partition = tuple  # weakly decreasing tuple of positive ints

DEFAULT_MAX_LEVEL = 8


def partitions(level: int, max_part: int | None = None) -> Iterator[Partition]:
    """Weakly decreasing partitions of level, in lexicographically decreasing order."""
    if level == 0:
        yield ()
        return
    if max_part is None or max_part > level:
        max_part = level
    for head in range(max_part, 0, -1):
        for rest in partitions(level - head, head):
            yield (head,) + rest


def _clean(coeffs: dict) -> dict:
    return {p: c for p, c in coeffs.items() if c != 0}


def _add_scaled(acc: dict, factor, coeffs: Mapping) -> None:
    """acc += factor * coeffs in place, over basis indices or partitions; a key's first term creates it."""
    for k, v in coeffs.items():
        acc[k] = acc[k] + factor * v if k in acc else factor * v


@dataclass(frozen=True)
class VermaState:
    """Finitely supported rational combination of basis words: tuples of ints >= 1."""

    coeffs: Mapping[Partition, Fraction]
    c: Fraction
    h: Fraction

    def __post_init__(self):
        for part in self.coeffs:
            if type(part) is not tuple or not all(type(n) is int and n >= 1 for n in part):
                raise ValueError(f"basis word {part!r}: its parts must be ints >= 1")
        cleaned = _clean({p: v if type(v) is Fraction else Fraction(v) for p, v in self.coeffs.items()})
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def level(self) -> int:
        return max((sum(p) for p in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, part: Partition) -> Fraction:
        return self.coeffs.get(tuple(part), Fraction(0))

    def __add__(self, other: "VermaState") -> "VermaState":
        out = dict(self.coeffs)
        _add_scaled(out, 1, other.coeffs)
        return VermaState(out, self.c, self.h)

    def __sub__(self, other: "VermaState") -> "VermaState":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "VermaState":
        f = Fraction(factor)
        return VermaState({p: f * v for p, v in self.coeffs.items()}, self.c, self.h)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VermaState)
            and (self.c, self.h) == (other.c, other.h)
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "VermaState(0)"
        terms = " + ".join(f"{v}*{list(p)}" for p, v in sorted(self.coeffs.items()))
        return f"VermaState({terms})"


class VermaModule:
    """M(c, h) truncated at a maximal level, with memoized normal ordering
    on ints over the module's one denominator D (see the module docstring)."""

    def __init__(self, c, h, max_level: int = DEFAULT_MAX_LEVEL):
        self.c = c if type(c) is Fraction else Fraction(c)
        self.h = h if type(h) is Fraction else Fraction(h)
        self.max_level = int(max_level)
        self._D = math.lcm(2 * self.c.denominator, self.h.denominator)
        # basis words by index, () first; _rest[i] is the index of _parts[i][1:]
        self._index: dict = {(): 0}
        self._parts: list = [()]
        self._rest: list = [None]
        self._memo: dict = {}
        self._grams: dict = {0: {0: {0: 1}}}
        # D^0, D^1, ..., grown by the fill up to the largest first part it meets
        self._powers: list = [1]

    def lowest_weight_state(self) -> VermaState:
        return VermaState({(): Fraction(1)}, self.c, self.h)

    def _check_level(self, level: int) -> None:
        if level < 0:
            raise ValueError(f"level {level} is negative")
        if level > self.max_level:
            raise TruncationError(f"level {level} exceeds truncation {self.max_level}")

    def basis(self, level: int) -> list[Partition]:
        self._check_level(level)
        return list(partitions(level))

    # -- normal ordering -------------------------------------------------

    def _intern(self, part: Partition) -> int:
        """The index of a basis word, numbered (after its rest) on first sight."""
        i = self._index.get(part)
        if i is None:
            rest = self._intern(part[1:])
            i = self._index[part] = len(self._parts)
            self._parts.append(part)
            self._rest.append(rest)
        return i

    def _act_basis(self, m: int, i: int) -> dict:
        """L_m applied to basis word number i times D^e(m), as an index -> int dict.

        Words are reordered by commutator moves; each move either shortens
        the word or prepends a legal head, so the recursion terminates.  e is
        nondecreasing, so every term rescales up to D^e(m) by an int, read
        from the module's table of powers of D.  The fill reads memo hits
        itself and recurses only on a miss.
        """
        memo = self._memo
        hit = memo.get((m, i))
        if hit is not None:
            return hit
        part = self._parts[i]
        if m < 0 and (not part or -m >= part[0]):
            out = {self._intern((-m,) + part): 1}
        elif not part:
            out = {0: self.h.numerator * (self._D // self.h.denominator)} if m == 0 else {}
        else:
            n1, rest = part[0], self._rest[i]
            powers = self._powers
            while len(powers) <= n1:
                powers.append(powers[-1] * self._D)
            out = {}
            # L_m L_{-n1} = L_{-n1} L_m + (m + n1) L_{m-n1} + central; L_{-n1} carries D^0
            inner = memo.get((m, rest))
            if inner is None:
                inner = self._act_basis(m, rest)
            for mu, co in inner.items():
                row = memo.get((-n1, mu))
                if row is None:
                    row = self._act_basis(-n1, mu)
                for k, v in row.items():
                    out[k] = out[k] + co * v if k in out else co * v
            # (m + n1) D^(e(m) - e(m - n1)), with m + n1 > 0 since m <= -n1 prepends above
            if m < 0:
                weight = m + n1
            elif m < n1:
                weight = (m + n1) * powers[m or 1]
            elif m == n1:
                weight = 2 * m * powers[m - 1]
            else:
                weight = (m + n1) * powers[n1]
            lower = memo.get((m - n1, rest))
            if lower is None:
                lower = self._act_basis(m - n1, rest)
            for k, v in lower.items():
                out[k] = out[k] + weight * v if k in out else weight * v
            if m == n1:
                central = self._central(m, m)
                out[rest] = out[rest] + central if rest in out else central
            if not all(out.values()):
                out = {k: v for k, v in out.items() if v}
        memo[(m, i)] = out
        return out

    def _central(self, m: int, scale: int) -> int:
        """(m^3 - m)/12 c D^scale, scale >= 1, as the int (m^3 - m)/6 (c D/2) D^(scale-1)."""
        half_cd = self.c.numerator * (self._D // (2 * self.c.denominator))
        return (m**3 - m) // 6 * half_cd * self._D ** (scale - 1)

    def _indexed(self, state: VermaState) -> tuple[int, int, dict]:
        """(level, q, {index: q * coefficient}) in one pass, q the LCM of the
        state's denominators: entries met before a new denominator are rescaled."""
        level, q, ints = 0, 1, {}
        for part, x in state.coeffs.items():
            d = x.denominator
            if q % d:
                grow = d // math.gcd(q, d)
                q *= grow
                for i in ints:
                    ints[i] *= grow
            ints[self._intern(part)] = x.numerator * (q // d)
            level = max(level, sum(part))
        return level, q, ints

    def _require_own(self, state: VermaState) -> None:
        """ValueError unless the state's (c, h) equals the module's; callers skip it when both are its own objects."""
        if (state.c, state.h) != (self.c, self.h):
            raise ValueError(f"a state of M({state.c}, {state.h}) given to M({self.c}, {self.h})")

    # -- public operations -------------------------------------------------

    def act(self, m: int, state: VermaState) -> VermaState:
        """Apply the generator L_m; exact, rejecting levels above truncation and other modules' states."""
        if abs(m) > self.max_level:
            raise TruncationError(f"generator index {m} exceeds truncation {self.max_level}")
        if state.c is not self.c or state.h is not self.h:
            self._require_own(state)
        level, q, ints = self._indexed(state)
        if level - min(m, 0) > self.max_level:
            raise TruncationError(f"L_{m} on a level-{level} state reaches above truncation {self.max_level}")
        out: dict = {}
        for i, co in ints.items():
            _add_scaled(out, co, self._act_basis(m, i))
        scale = q * self._D ** _exponent(m)
        return VermaState({self._parts[i]: Fraction(v, scale) for i, v in out.items()}, self.c, self.h)

    def commutator_check(self, m: int, n: int, state: VermaState) -> bool:
        """Exact test of [L_m, L_n] = (m - n) L_{m+n} + central on the state.

        Every term is summed at the common scale D^(e(m) + e(n)) times the
        state's cleared denominator; a positive scale keeps the zero entries.
        The test is linear and homogeneous, so a single word is checked with
        coefficient 1 (VermaState holds no zero coefficients).  For m == n
        both compositions are the same memo rows and (m - n) and the central
        term vanish, so the diagonal passes once the truncation guard has.
        The L_m L_n double loop reads the memo, normal-orders only on a
        miss, and adds each composed row into the accumulator in place.
        """
        if state.c is not self.c or state.h is not self.h:
            self._require_own(state)
        if len(state.coeffs) == 1:
            (part,) = state.coeffs
            level, ints = sum(part), {self._intern(part): 1}
        else:
            level, _, ints = self._indexed(state)
        if level + abs(m) + abs(n) > self.max_level:
            raise TruncationError("commutator check would exceed the truncation level")
        if m == n:
            return True
        top = _exponent(m) + _exponent(n)
        shift = (n - m) * self._D ** (top - _exponent(m + n))
        memo, act_basis = self._memo, self._act_basis
        acc: dict = {}
        for i, co in ints.items():
            for outer, inner, weight in ((m, n, co), (n, m, -co)):
                for mu, x in act_basis(inner, i).items():
                    row = memo.get((outer, mu))
                    if row is None:
                        row = act_basis(outer, mu)
                    scale = weight * x
                    for k, v in row.items():
                        acc[k] = acc[k] + scale * v if k in acc else scale * v
            _add_scaled(acc, shift * co, act_basis(m + n, i))
        if m == -n:  # reads self.c now, not the c the memo was built with
            _add_scaled(acc, -self._central(m, top), ints)
        return not any(acc.values())

    def _gram(self, level: int) -> dict:
        """D^L G_L as {mu: {nu: int}} by index in basis order: sum_rho (L_{mu_1} e_nu)[rho] G_{L-mu_1}[mu_2...][rho].

        Only the entries from the diagonal rightwards are computed; the form
        is symmetric, so G[mu][nu] left of the diagonal is G[nu][mu].
        """
        gram = self._grams.get(level)
        if gram is None:
            memo, parts, rests = self._memo, self._parts, self._rest
            basis, gram = [self._intern(p) for p in partitions(level)], {}
            for k, mu in enumerate(basis):
                head = parts[mu][0]
                below = self._gram(level - head)[rests[mu]]
                row = gram[mu] = {nu: gram[nu][mu] for nu in basis[:k]}
                for nu in basis[k:]:
                    acted = memo.get((head, nu))
                    if acted is None:
                        acted = self._act_basis(head, nu)
                    total = 0
                    for r, x in acted.items():
                        total += x * below[r]
                    row[nu] = total
            self._grams[level] = gram
        return gram

    def gram_matrix(self, level: int) -> list[list[Fraction]]:
        """Pairings <L_{-mu} h, L_{-nu} h> under the adjoint L_m* = L_{-m}, as new row lists.

        Each Fraction is built once and the same object sits at [i][j] and [j][i].
        """
        self._check_level(level)
        scale = self._D**level
        out: list = []
        for i, row in enumerate(self._gram(level).values()):
            out.append([above[i] for above in out] + [Fraction(x, scale) for x in islice(row.values(), i, None)])
        return out


def _exponent(m: int) -> int:
    """e(m): the memo holds L_m e_nu times D^e(m)."""
    return max(m, 1) if m >= 0 else 0


# -- convenience wrappers with a per-(c, h, level) module cache --------------


def _module(c, h, max_level: int = DEFAULT_MAX_LEVEL) -> VermaModule:
    # equal (c, h) given as int, float, str or Fraction share one cache entry;
    # Fractions pass as given, so a state's own objects key (and fill) its module
    return _cached_module(
        c if type(c) is Fraction else Fraction(c), h if type(h) is Fraction else Fraction(h), max_level
    )


@functools.lru_cache(maxsize=16)
def _cached_module(c: Fraction, h: Fraction, max_level: int) -> VermaModule:
    return VermaModule(c, h, max_level)


def act(m: int, state: VermaState, max_level: int = DEFAULT_MAX_LEVEL) -> VermaState:
    return _module(state.c, state.h, max_level).act(m, state)


def commutator_check(m: int, n: int, state: VermaState, max_level: int = DEFAULT_MAX_LEVEL) -> bool:
    return _module(state.c, state.h, max_level).commutator_check(m, n, state)


def gram_matrix(level: int, c, h, max_level: int = DEFAULT_MAX_LEVEL) -> list[list[Fraction]]:
    return _module(c, h, max(max_level, level)).gram_matrix(level)


def exact_determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Each row cleared by the LCM of its own denominators, then Bareiss elimination on integers.

    A zero row gives 0 before any elimination or symmetry test.
    With row scales s_i the cleared rows are M = S A.  When A is symmetric
    (M_ij s_j == M_ji s_i, settled by an `is` test for mirrored entries) every
    Bareiss intermediate is a bordered minor of S A, so the active block stays
    S times a symmetric matrix: a step updates only the columns j >= i of each
    row i below the pivot and reads the lower entry M_ik as the exact integer
    M_ki s_i // s_k.  At the first zero diagonal pivot the active block's lower
    triangle is filled by that formula and the general step, with row swaps,
    runs to the end; non-symmetric input takes the general step throughout.

    Raises ValueError unless the matrix is square (the empty matrix has determinant 1).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"not a square matrix: {n} rows of lengths {[len(row) for row in matrix]}")
    scales = [math.lcm(*(x.denominator for x in row)) for row in matrix]
    rows = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(matrix, scales)]
    if not all(map(any, rows)):
        return Fraction(0)
    symmetric = all(
        matrix[i][j] is matrix[j][i] or rows[i][j] * scales[j] == rows[j][i] * scales[i]
        for i in range(n)
        for j in range(i)
    )
    prev = 1
    for col in range(n):
        if symmetric and not rows[col][col]:
            for i in range(col + 1, n):
                rows[i][col:i] = [rows[k][i] * scales[i] // scales[k] for k in range(col, i)]
            symmetric = False
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:  # a swap with one row negated keeps the determinant
            rows[col], rows[pivot] = rows[pivot], [-x for x in rows[col]]
        top = rows[col]
        for i, row in enumerate(rows[col + 1 :], col + 1):
            lead, first = (top[i] * scales[i] // scales[col], i) if symmetric else (row[col], col + 1)
            row[first:] = [(top[col] * a - lead * b) // prev for a, b in zip(row[first:], top[first:])]
        prev = top[col]
    return Fraction(prev, math.prod(scales))
