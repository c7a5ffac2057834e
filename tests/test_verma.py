import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from circlekit import verma
from circlekit.errors import TruncationError
from circlekit.verify import VERMA_PARAMETERS
from circlekit.verma import (
    VermaModule,
    VermaState,
    exact_determinant,
    gram_matrix,
    partitions,
)

HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def partition_count(n):
    """P(n), the number of partitions of n (0 for n < 0), by the coin-change recursion."""
    if n < 0:
        return 0
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p[n]


def kac_determinant(level, c, h):
    """det of the level-L Gram matrix of M(c, h) by the Kac formula

        prod_{rs <= L} ((2r)^s s!)^{p(L-rs) - p(L-r(s+1))} (h - h_{r,s})^{p(L-rs)},
        h_{r,s} = (r^2 - 1) t/4 + (s^2 - 1)/(4t) - (rs - 1)/2,  t + 1/t = (13 - c)/6.

    h_{r,s} and h_{s,r} enter only through their sum and product, paired in
    one quadratic factor, and h_{r,r} = (r^2 - 1)(1 - c)/24, so the formula
    stays rational for every rational c.
    """
    t_sum = (Fraction(13) - c) / 6  # t + 1/t
    det = Fraction(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            power = partition_count(level - r * s) - partition_count(level - r * (s + 1))
            det *= Fraction((2 * r) ** s * factorial(s)) ** power
            a, b, d = Fraction(r * r - 1, 4), Fraction(s * s - 1, 4), Fraction(r * s - 1, 2)
            if r == s:
                det *= (h - Fraction(r * r - 1, 24) * (1 - c)) ** partition_count(level - r * r)
            elif r < s:  # (h - h_{r,s}) (h - h_{s,r})
                total = (a + b) * t_sum - 2 * d
                product = a * b * (t_sum**2 - 2) + a * a + b * b - d * (a + b) * t_sum + d * d
                det *= (h * h - total * h + product) ** partition_count(level - r * s)
    return det


def adjoint_word_gram(module, level):
    """Reference Gram matrix, entry by entry: e_nu pushed through the whole
    adjoint word L_{mu_k} ... L_{mu_1}, largest index first."""
    basis = module.basis(level)
    rows = []
    for mu in basis:
        row = []
        for nu in basis:
            state = VermaState({nu: Fraction(1)}, module.c, module.h)
            for mi in mu:
                state = module.act(mi, state)
            row.append(state.coefficient(()))
        rows.append(row)
    return rows


def gaussian_determinant(matrix):
    """Reference determinant by Gaussian elimination in Fraction arithmetic."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def accumulate(acc, factor, coeffs):
    """acc += factor * coeffs, written apart from the module's accumulator."""
    for part, value in coeffs.items():
        acc[part] = acc.get(part, 0) + factor * value


class FractionReference:
    """The Fraction recursion the module used before its integer memo: L_m on
    partition-keyed basis words, states and Gram matrices, every value a
    Fraction.  It shares no code with the module it checks."""

    def __init__(self, c, h):
        self.c, self.h = Fraction(c), Fraction(h)
        self.memo = {}
        self.grams = {0: {(): {(): Fraction(1)}}}

    def act_basis(self, m, part):
        key = (m, part)
        if key not in self.memo:
            if m < 0 and (not part or -m >= part[0]):
                out = {(-m,) + part: Fraction(1)}
            elif not part:
                out = {(): self.h} if m == 0 else {}
            else:
                n1, rest = part[0], part[1:]
                out = {}
                for mu, co in self.act_basis(m, rest).items():
                    accumulate(out, co, self.act_basis(-n1, mu))
                accumulate(out, m + n1, self.act_basis(m - n1, rest))
                if m == n1:
                    accumulate(out, Fraction(m**3 - m, 12) * self.c, {rest: 1})
                out = {p: v for p, v in out.items() if v != 0}
            self.memo[key] = out
        return self.memo[key]

    def act(self, m, coeffs):
        out = {}
        for part, co in coeffs.items():
            accumulate(out, co, self.act_basis(m, part))
        return {p: v for p, v in out.items() if v != 0}

    def gram_rows(self, level):
        if level not in self.grams:
            basis, gram = list(partitions(level)), {}
            for mu in basis:
                below = self.gram_rows(level - mu[0])[mu[1:]]
                gram[mu] = {
                    nu: sum((x * below[r] for r, x in self.act_basis(mu[0], nu).items()), Fraction(0))
                    for nu in basis
                }
            self.grams[level] = gram
        return self.grams[level]

    def gram(self, level):
        return [list(row.values()) for row in self.gram_rows(level).values()]


def basis_state(part, c, h):
    return VermaState({tuple(part): Fraction(1)}, Fraction(c), Fraction(h))


def test_partitions_enumeration():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions(8))) == 22


def test_lowest_weight_relations():
    m = VermaModule(HALF, SIXTEENTH)
    v = m.lowest_weight_state()
    assert m.act(0, v) == v.scaled(SIXTEENTH)
    assert m.act(1, v).is_zero()
    assert m.act(3, v).is_zero()


def test_level_grading():
    m = VermaModule(1, 2)
    v = m.act(-3, m.act(-1, m.lowest_weight_state()))
    assert v.level == 4
    assert m.act(0, v) == v.scaled(Fraction(2 + 4))


def test_bracket_on_lowest_weight():
    c, h = HALF, SIXTEENTH
    m = VermaModule(c, h)
    v = m.lowest_weight_state()
    got = m.act(2, m.act(-2, v)) - m.act(-2, m.act(2, v))
    assert got == v.scaled(4 * h + c / 2)
    # central coefficient vanishes for the unit shift
    assert m.act(1, m.act(-1, v)) == v.scaled(2 * h)
    # (3, -3): (m - n) L_0 + (27 - 3)/12 c = 6 L_0 + 2c
    got = m.act(3, m.act(-3, v)) - m.act(-3, m.act(3, v))
    assert got == v.scaled(6 * h + 2 * c)


def test_state_refuses_words_with_parts_below_one():
    # L_{-n} with n <= 0 is no creation operator: (-1,) would read L_1 |h> = 0
    # as a word of level -1
    for word in ((-1,), (0,), (2, 0), (1.5,), (True,), 2):
        with pytest.raises(ValueError, match="basis word"):
            VermaState({word: 1}, HALF, SIXTEENTH)
    # an unsorted word of positive parts is normal-ordered when acted on:
    # L_{-1} L_{-2} = L_{-2} L_{-1} + L_{-3}
    state = VermaState({(1, 2): 1}, HALF, SIXTEENTH)
    assert state.level == 3
    want = VermaState({(2, 1): 1, (3,): 1}, HALF, SIXTEENTH)
    assert verma.act(0, state) == want.scaled(SIXTEENTH + 3)


def test_commutator_check_examples():
    m = VermaModule(HALF, SIXTEENTH)
    v = m.lowest_weight_state()
    assert m.commutator_check(3, -3, v)
    assert m.commutator_check(1, 2, v)
    assert m.commutator_check(-1, -2, v)
    # hand-reduced: [L_{-1}, L_{-2}] |h> = L_{-3} |h>
    lhs = m.act(-1, m.act(-2, v)) - m.act(-2, m.act(-1, v))
    assert lhs == basis_state((3,), HALF, SIXTEENTH)


def test_module_refuses_a_state_of_another_module():
    """A state of M(1, 1) is not relabelled into M(1/2, 0), where L_0 L_{-1}|h>
    would read 1*[1] instead of M(1, 1)'s 2*[1]; the module-level wrappers
    pick the state's own module, and equal values given as ints pass."""
    foreign = VermaState({(1,): 1}, 1, 1)
    module = VermaModule(HALF, Fraction(0))
    with pytest.raises(ValueError, match="M\\(1, 1\\) given to M\\(1/2, 0\\)"):
        module.act(0, foreign)
    with pytest.raises(ValueError, match="M\\(1, 1\\) given to M\\(1/2, 0\\)"):
        module.commutator_check(1, -1, foreign)
    with pytest.raises(ValueError, match="M\\(1/2, 1\\) given"):
        module.act(0, VermaState({(1,): 1}, HALF, 1))
    assert verma.act(0, foreign) == VermaState({(1,): 2}, 1, 1)
    assert verma.commutator_check(1, -1, foreign)
    own = VermaModule(Fraction(1), Fraction(1))
    assert own.c is not foreign.c and own.act(0, foreign) == VermaState({(1,): 2}, 1, 1)
    assert own.commutator_check(1, -1, foreign)


def test_module_keeps_a_fraction_argument_as_the_same_object():
    c, h = Fraction(7, 10), Fraction(3, 8)
    module = VermaModule(c, h)
    assert module.c is c and module.h is h
    assert VermaModule(1, "3/8").h == h


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([(), (1,), (2,), (1, 1), (2, 1)]),
)
def test_commutator_randomized(m_idx, n_idx, part):
    module = VermaModule(Fraction(7, 10), Fraction(3, 8), max_level=10)
    state = VermaState({part: Fraction(1)}, Fraction(7, 10), Fraction(3, 8))
    assert module.commutator_check(m_idx, n_idx, state)


def composed_check(module, m, n, state):
    """Reference bracket check built from whole states: act, scaled, + and -."""
    lhs = module.act(m, module.act(n, state)) - module.act(n, module.act(m, state))
    rhs = module.act(m + n, state).scaled(m - n)
    if m == -n:
        rhs = rhs + state.scaled(Fraction(m**3 - m, 12) * module.c)
    return lhs == rhs


low_partitions = [p for level in range(5) for p in partitions(level)]
module_parameters = st.one_of(st.sampled_from(VERMA_PARAMETERS), st.tuples(small_rationals, small_rationals))


@given(
    module_parameters,
    st.dictionaries(st.sampled_from(low_partitions), small_rationals.filter(bool), min_size=1, max_size=5),
    st.data(),
)
def test_commutator_check_matches_composed_acts(params, coeffs, data):
    c, h = params
    module = VermaModule(c, h, max_level=8)
    state = VermaState(coeffs, module.c, module.h)
    top = 8 - state.level
    m = data.draw(st.integers(-top, top))
    n = data.draw(st.integers(abs(m) - top, top - abs(m)))
    assert module.commutator_check(m, n, state) is composed_check(module, m, n, state) is True
    # a corrupted memo entry gives both the same answer; entries are addressed
    # by (m, partition) through the module's index
    index, parts = module._index, module._parts
    key = data.draw(st.sampled_from(sorted(((k, parts[i]) for k, i in module._memo), key=repr)))
    entry = (key[0], index[key[1]])
    module._memo[entry] = {**module._memo[entry], module._intern((1,) * 3): Fraction(1, 7)}
    assert module.commutator_check(m, n, state) is composed_check(module, m, n, state)


def test_commutator_check_can_fail():
    c, h = HALF, SIXTEENTH
    module = VermaModule(c, h)
    v = module.lowest_weight_state()
    assert module.commutator_check(2, -2, v)
    # L_2 L_{-2} |h> = (4h + c/2) |h>, held times D^2; one unit off on that scale must show
    entry = (2, module._index[(2,)])
    (stored,) = module._memo[entry].values()
    assert Fraction(stored, module._D**2) == 4 * h + c / 2
    module._memo[entry] = {module._index[()]: stored + 1}
    assert not module.commutator_check(2, -2, v)
    assert not composed_check(module, 2, -2, v)


def test_commutator_check_needs_its_central_term():
    module = VermaModule(HALF, SIXTEENTH)
    v = module.act(-1, module.lowest_weight_state())
    assert all(module.commutator_check(m, -m, v) for m in (1, 2, 3))
    # the memo keeps c = 1/2; with c read as 0 the check drops its own central
    # term (v is rebuilt with that c, or the module refuses it as foreign)
    module.c = Fraction(0)
    v = VermaState(v.coeffs, module.c, module.h)
    assert not module.commutator_check(3, -3, v)
    assert not module.commutator_check(2, -2, v)
    assert module.commutator_check(1, -1, v)  # (m^3 - m)/12 = 0 for m = 1


def test_generator_index_cap():
    m = VermaModule(1, 0, max_level=4)
    with pytest.raises(TruncationError):
        m.act(-5, m.lowest_weight_state())


def test_truncation_errors():
    m = VermaModule(1, 0, max_level=4)
    v = m.act(-4, m.lowest_weight_state())
    with pytest.raises(TruncationError):
        m.act(-1, v)
    with pytest.raises(TruncationError):
        m.commutator_check(4, -4, v)
    with pytest.raises(TruncationError):
        m.commutator_check(5, 0, m.lowest_weight_state())
    mixed = m.lowest_weight_state() + m.act(-2, m.lowest_weight_state())
    with pytest.raises(TruncationError):
        m.commutator_check(1, -2, mixed)
    assert m.commutator_check(1, -1, mixed)
    # the diagonal passes without arithmetic, but only below the truncation
    for n, state in ((1, v), (-1, v), (2, mixed), (3, m.lowest_weight_state())):
        with pytest.raises(TruncationError):
            m.commutator_check(n, n, state)
    assert m.commutator_check(2, 2, m.lowest_weight_state())
    # a state already above the truncation is rejected whatever m is
    above = VermaState({(5,): Fraction(1)}, m.c, m.h)
    for index in (0, 2, -1):
        with pytest.raises(TruncationError):
            m.act(index, above)
        with pytest.raises(TruncationError):
            m.commutator_check(index, index, above)


def test_gram_level_one():
    for c, h in [(HALF, Fraction(0)), (HALF, SIXTEENTH), (Fraction(26), Fraction(3, 2))]:
        g = gram_matrix(1, c, h)
        assert g == [[2 * h]]


def test_gram_level_two_frozen_values():
    # hand-computed: [[4h + c/2, 6h], [6h, 8h^2 + 4h]]
    g = gram_matrix(2, HALF, SIXTEENTH)
    assert g == [
        [HALF, Fraction(3, 8)],
        [Fraction(3, 8), Fraction(9, 32)],
    ]
    # the (1/2, 1/16) module is degenerate at level 2; a generic point is not
    assert exact_determinant(g) == 0
    assert exact_determinant(gram_matrix(2, HALF, Fraction(1))) == 15


def test_gram_symmetric_exactly():
    g = gram_matrix(3, Fraction(7, 10), Fraction(3, 8))
    size = len(g)
    assert size == len(list(partitions(3)))
    assert all(g[i][j] == g[j][i] for i in range(size) for j in range(size))


def test_exact_determinant():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert exact_determinant(m) == 3
    assert exact_determinant([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1


def test_full_sweep_small_truncation():
    """Every bracket relation holds exactly on every admissible basis state."""
    module = VermaModule(Fraction(1), Fraction(1), max_level=6)
    for m in range(-3, 4):
        for n in range(-3, 4):
            top = 6 - abs(m) - abs(n)
            for level in range(top + 1):
                for part in partitions(level):
                    state = VermaState({part: Fraction(1)}, Fraction(1), Fraction(1))
                    assert module.commutator_check(m, n, state)


@pytest.mark.parametrize("c, h", VERMA_PARAMETERS)
def test_kac_determinant_every_level(c, h):
    # every level the verma command admits, 0..12
    for level in range(13):
        assert exact_determinant(gram_matrix(level, c, h, 12)) == kac_determinant(level, c, h)


def test_kac_determinant_seeded_rationals():
    # 16-bit fractions, as the verma command admits, at levels 0..9
    rng = random.Random(20260810)

    def fraction():
        return Fraction(rng.randrange(-(2**16) + 1, 2**16), rng.randrange(1, 2**16))

    for _ in range(4):
        c, h = fraction(), fraction()
        for level in range(10):
            assert exact_determinant(gram_matrix(level, c, h, 9)) == kac_determinant(level, c, h)


@given(small_rationals, small_rationals)
def test_kac_determinant_random_parameters(c, h):
    module = VermaModule(c, h, max_level=6)
    for level in range(1, 7):
        assert exact_determinant(module.gram_matrix(level)) == kac_determinant(level, c, h)


def test_kac_formula_reference_values():
    # the level-2 closed form 2h (16h^2 + 2(c - 5)h + c), and a degenerate point
    c, h = Fraction(7, 10), Fraction(3, 8)
    assert kac_determinant(2, c, h) == 2 * h * (16 * h * h + 2 * (c - 5) * h + c)
    assert kac_determinant(3, HALF, SIXTEENTH) == 0


@given(small_rationals, small_rationals)
def test_gram_matches_adjoint_word_reference(c, h):
    module, reference = VermaModule(c, h, max_level=7), VermaModule(c, h, max_level=7)
    for level in range(8):
        gram = module.gram_matrix(level)
        assert gram == adjoint_word_gram(reference, level)
        assert all(type(x) is Fraction for row in gram for x in row)


def test_gram_copy_is_independent_of_memo():
    module = VermaModule(Fraction(7, 10), Fraction(3, 8))
    first = module.gram_matrix(3)
    want = [row[:] for row in first]
    first[0][0] = Fraction(99)
    first[1].append(Fraction(1))
    first.pop()
    assert module.gram_matrix(3) == want
    assert module.gram_matrix(4) == adjoint_word_gram(VermaModule(Fraction(7, 10), Fraction(3, 8)), 4)


def test_gram_above_truncation_raises():
    module = VermaModule(1, 0, max_level=4)
    for call in (lambda: module.gram_matrix(5), lambda: module.basis(5)):
        with pytest.raises(TruncationError, match="level 5 exceeds truncation 4"):
            call()


def test_powers_of_d_grow_with_the_levels_filled_not_the_truncation():
    # the truncation is not bounded, so the module's table of D^k must not be sized by it
    module = VermaModule(Fraction(7, 10), Fraction(3, 8), max_level=10**9)
    assert module.gram_matrix(3) == VermaModule(Fraction(7, 10), Fraction(3, 8)).gram_matrix(3)
    assert module._powers == [module._D**k for k in range(4)]


def test_negative_level_raises():
    module = VermaModule(HALF, SIXTEENTH, max_level=4)
    for call in (
        lambda: module.basis(-1),
        lambda: module.gram_matrix(-2),
        lambda: gram_matrix(-2, HALF, SIXTEENTH),
    ):
        with pytest.raises(ValueError, match="negative"):
            call()


# entries are zero about half the time, so zero pivots and row swaps are common
sparse_rationals = st.one_of(st.just(Fraction(0)), small_rationals)


def symmetrized(matrix, zero_diagonal=False):
    """A + A^T, optionally with its diagonal zeroed so that the first pivot is zero."""
    return [
        [Fraction(0) if zero_diagonal and i == j else x + matrix[j][i] for j, x in enumerate(row)]
        for i, row in enumerate(matrix)
    ]


def congruence(matrix, p):
    """P^T A P, symmetric when A is."""
    n = len(matrix)
    ap = [[sum((matrix[i][k] * p[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    return [[sum((p[k][i] * ap[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def matrices(max_size):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(sparse_rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@st.composite
def zero_pivot_matrices(draw):
    """U^T (S + Z) U with S symmetric, Z symmetric with a zero diagonal and U
    unit upper triangular.  Its leading principal minors are those of the
    block sum, so the symmetric elimination meets a zero pivot at Z's first
    row, after len(S) steps have left the lower triangle stale."""
    s = symmetrized(draw(matrices(3)))
    z = symmetrized(draw(matrices(3)), zero_diagonal=True)
    k, n, zero = len(s), len(s) + len(z), Fraction(0)
    block = [row + [zero] * (n - k) for row in s] + [[zero] * k + row for row in z]
    u = [[Fraction(1) if i == j else draw(sparse_rationals) if i < j else zero for j in range(n)] for i in range(n)]
    return congruence(block, u)


# symmetric matrices take the half-triangle elimination, and a zero diagonal
# pivot, first or after some steps, hands over to the general step
square_matrices = st.one_of(
    matrices(6),
    matrices(6).map(symmetrized),
    matrices(6).map(lambda m: symmetrized(m, zero_diagonal=True)),
    zero_pivot_matrices(),
)


@given(square_matrices, st.data())
def test_exact_determinant_matches_gaussian_reference(matrix, data):
    assert exact_determinant(matrix) == gaussian_determinant(matrix)
    # a row replaced by a rational combination of two others makes it singular
    if len(matrix) >= 3:
        i, j, k = data.draw(st.permutations(range(len(matrix))))[:3]
        a, b = data.draw(small_rationals), data.draw(small_rationals)
        singular = [row[:] for row in matrix]
        singular[k] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
        assert exact_determinant(singular) == 0 == gaussian_determinant(singular)
        # a congruence by that singular matrix is singular, and symmetric when the matrix is
        congruent = congruence(matrix, singular)
        assert exact_determinant(congruent) == 0 == gaussian_determinant(congruent)


@pytest.mark.parametrize(
    "matrix",
    [
        [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(4), Fraction(5), Fraction(6)]],
        [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)], [Fraction(5), Fraction(6)]],
        [[Fraction(1), Fraction(2)], [Fraction(3)]],
        [[Fraction(1)], [Fraction(2), Fraction(3)]],
        [[]],
    ],
    ids=["2x3", "3x2", "ragged-short", "ragged-long", "one-empty-row"],
)
def test_exact_determinant_rejects_non_square(matrix):
    with pytest.raises(ValueError, match="square"):
        exact_determinant(matrix)


def test_exact_determinant_edge_cases():
    F = Fraction
    assert exact_determinant([]) == 1
    assert exact_determinant([[F(-3, 7)]]) == F(-3, 7)
    assert exact_determinant([[F(0)]]) == 0
    # zero pivot in the first column and a zero pivot that appears after one step
    swap_first = [[F(0), F(2, 3), F(1)], [F(1, 2), F(1), F(0)], [F(1), F(0), F(5, 4)]]
    swap_later = [[F(1), F(2), F(3)], [F(2), F(4), F(5)], [F(1), F(3), F(7)]]
    for matrix in (swap_first, swap_later):
        assert exact_determinant(matrix) == gaussian_determinant(matrix) != 0
    assert exact_determinant(swap_later) == 1
    # the input is left untouched
    before = [row[:] for row in swap_first]
    exact_determinant(swap_first)
    assert swap_first == before
    assert type(exact_determinant([[F(2), F(1)], [F(1), F(2)]])) is Fraction


def test_exact_determinant_zero_rows_columns_and_entries():
    F = Fraction
    full = [[F(i * j + i + 1, j + 2) + (i == j) for j in range(5)] for i in range(5)]
    # a zero row first, in the middle or last gives an exact zero
    for where in (0, 2, 4):
        matrix = [row[:] for row in full]
        matrix[where] = [F(0)] * 5
        det = exact_determinant(matrix)
        assert det == 0 == gaussian_determinant(matrix) and type(det) is Fraction
    # as does a zero column with no zero row, through the elimination
    column = [[F(0)] + row[1:] for row in full]
    assert all(any(row) for row in column)
    assert exact_determinant(column) == 0 == gaussian_determinant(column)
    # zero entries alone leave the determinant alone, symmetric or not
    sparse = [[F(0), F(2), F(0)], [F(3), F(0), F(0)], [F(0), F(0), F(-5, 4)]]
    symmetric = [[F(2), F(0), F(1)], [F(0), F(3), F(0)], [F(1), F(0), F(4)]]
    assert exact_determinant(sparse) == gaussian_determinant(sparse) == F(15, 2)
    assert exact_determinant(symmetric) == gaussian_determinant(symmetric) == 21


def test_module_wrappers_keep_the_state_s_fraction_objects():
    # a fresh (c, h) key: the wrappers' module holds the state's own objects,
    # so repeated calls on the state pass the foreign-state check by identity
    verma._cached_module.cache_clear()
    state = VermaState({(1,): 1}, Fraction(5, 11), Fraction(2, 13))
    module = verma._module(state.c, state.h)
    assert module.c is state.c and module.h is state.h
    assert verma.act(0, state) == VermaModule(5 / Fraction(11), "2/13").act(0, state)
    assert verma.act(0, state) == VermaState({(1,): Fraction(15, 13)}, state.c, state.h)
    assert verma.commutator_check(2, -1, state) and verma.commutator_check(1, -1, state)
    assert verma._module(state.c, state.h) is module


def test_module_cache_is_bounded():
    for i in range(40):
        gram_matrix(1, Fraction(i, 7), Fraction(1, i + 2))
    assert verma._cached_module.cache_info().currsize <= 16
    # equal parameters in any exact spelling share one module
    assert verma._module(HALF, 1) is verma._module("1/2", Fraction(1)) is verma._module(0.5, "1")


@given(small_rationals, small_rationals)
def test_gram_matches_fraction_reference(c, h):
    module, reference = VermaModule(c, h), FractionReference(c, h)
    for level in range(9):
        gram = module.gram_matrix(level)
        assert gram == reference.gram(level)
        assert all(type(x) is Fraction for row in gram for x in row)
    # the memo and the stored Gram matrices hold ints on the module's scale
    assert all(type(v) is int for out in module._memo.values() for v in out.values())
    assert all(type(v) is int for gram in module._grams.values() for row in gram.values() for v in row.values())


def test_kac_determinant_worst_operands():
    # the worst admitted request: level 12 with 16-bit operands
    c, h = Fraction(-65519, 65521), Fraction(-65479, 65497)
    assert exact_determinant(gram_matrix(12, c, h, 12)) == kac_determinant(12, c, h) != 0


def test_gram_matches_fraction_reference_worst_operands():
    # 16-bit operands with coprime denominators: the largest admitted D and D^12
    c, h = Fraction(-65519, 65521), Fraction(-65479, 65497)
    gram = VermaModule(c, h, max_level=12).gram_matrix(12)
    assert gram == FractionReference(c, h).gram(12)
    assert all(type(x) is Fraction for row in gram for x in row)


@given(
    module_parameters,
    st.dictionaries(st.sampled_from(low_partitions), small_rationals.filter(bool), max_size=5),
    st.integers(-4, 4),
)
def test_act_matches_fraction_reference(params, coeffs, m):
    c, h = params
    module = VermaModule(c, h, max_level=8)
    got = module.act(m, VermaState(coeffs, module.c, module.h))
    assert got.coeffs == FractionReference(c, h).act(m, coeffs)
    assert all(type(x) is Fraction for x in got.coeffs.values())


@given(module_parameters, st.data())
def test_results_do_not_depend_on_fill_order(params, data):
    # basis indices are handed out in the order words are first met, so three
    # modules filled first by a bracket check, a Gram matrix and an action
    # number their words differently and must still agree on every result
    c, h = params
    top = 6
    m = data.draw(st.integers(-3, 3), label="m")
    n = data.draw(st.integers(abs(m) - 3, 3 - abs(m)), label="n")
    coeffs = data.draw(
        st.dictionaries(st.sampled_from(low_partitions[:7]), small_rationals.filter(bool), min_size=1, max_size=4),
        label="coeffs",
    )
    first_level = data.draw(st.integers(0, top), label="first Gram level")
    by_check, by_gram, by_act = (VermaModule(c, h, max_level=top) for _ in range(3))
    state = VermaState(coeffs, by_check.c, by_check.h)
    by_check.commutator_check(m, n, state)
    by_gram.gram_matrix(first_level)
    by_act.act(m, state)
    modules = (by_check, by_gram, by_act)
    for level in range(top + 1):
        grams = [module.gram_matrix(level) for module in modules]
        assert grams[0] == grams[1] == grams[2]
        assert len({exact_determinant(gram) for gram in grams}) == 1
    for index in range(-3, 4):
        acts = [module.act(index, state) for module in modules]
        # equal states, with their words in the same order
        assert [list(acted.coeffs.items()) for acted in acts[1:]] == [list(acts[0].coeffs.items())] * 2
    assert [module.commutator_check(m, n, state) for module in modules] == [True] * 3


# -- positive energy: Gram rank and signature against closed forms ----------
#
# At a degenerate point the Kac determinant is 0 from the first null vector
# up, so it says nothing about the Gram entries above it; the rank and the
# inertia do.  Both are computed here over Fractions, apart from verma.py.


def matrix_rank(matrix):
    """Exact rank by Gaussian elimination over Fractions."""
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / top[col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def inertia(matrix):
    """(positive, negative) directions of a symmetric Fraction matrix, by exact
    congruence: Sylvester's law of inertia keeps both counts."""
    a = [list(row) for row in matrix]
    positive = negative = 0
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), None)
            if pair is None:
                break
            # a_ii = a_jj = 0: e_i -> e_i + e_j makes the diagonal entry 2 a_ij
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            k = i
        pivot = a[k][k]
        if pivot > 0:
            positive += 1
        else:
            negative += 1
        a = [
            [x - row[k] * a[k][col] / pivot for col, x in enumerate(row) if col != k]
            for r, row in enumerate(a)
            if r != k
        ]
    return positive, negative


def minimal_model(p, pp, r, s):
    """(c, h_{r,s}) of the minimal model with coprime p < p'."""
    c = 1 - Fraction(6 * (p - pp) ** 2, p * pp)
    return c, Fraction((pp * r - p * s) ** 2 - (p - pp) ** 2, 4 * p * pp)


def irreducible_character(p, pp, r, s, level):
    """Level coefficient of the irreducible minimal-model character (Rocha-Caridi 1985):
    sum_k P(L - k(pp'k + p'r - ps)) - P(L - (pk + r)(p'k + s)).  Every |k| > L
    gives two negative arguments."""
    return sum(
        partition_count(level - k * (p * pp * k + pp * r - p * s))
        - partition_count(level - (p * k + r) * (pp * k + s))
        for k in range(-level, level + 1)
    )


MINIMAL_MODELS = [
    (HALF, SIXTEENTH, 3, 4, 1, 2),
    (HALF, HALF, 3, 4, 2, 1),
    (HALF, Fraction(0), 3, 4, 1, 1),
    (Fraction(4, 5), Fraction(1, 40), 5, 6, 2, 2),
    (Fraction(7, 10), Fraction(1, 10), 4, 5, 1, 2),
]
TOP = 9


def test_irreducible_character_reference_values():
    assert [irreducible_character(3, 4, 1, 2, level) for level in range(TOP + 1)] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8]
    # the Ising vacuum: 1 + q^2 + q^3 + 2q^4 + 2q^5 + 3q^6 + 3q^7 + 5q^8 + 5q^9
    assert [irreducible_character(3, 4, 1, 1, level) for level in range(TOP + 1)] == [1, 0, 1, 1, 2, 2, 3, 3, 5, 5]


@pytest.mark.parametrize("c, h, p, pp, r, s", MINIMAL_MODELS)
def test_gram_rank_is_the_irreducible_character(c, h, p, pp, r, s):
    assert minimal_model(p, pp, r, s) == (c, h)
    module = VermaModule(c, h, max_level=TOP)
    ranks = [matrix_rank(module.gram_matrix(level)) for level in range(TOP + 1)]
    assert ranks == [irreducible_character(p, pp, r, s, level) for level in range(TOP + 1)]


def test_gram_rank_at_c_one():
    # c = 1, h = n^2/4 with n = 2: the rank is P(L) - P(L - n - 1)
    module = VermaModule(1, 1, max_level=TOP)
    ranks = [matrix_rank(module.gram_matrix(level)) for level in range(TOP + 1)]
    assert ranks == [partition_count(level) - partition_count(level - 3) for level in range(TOP + 1)]


UNITARY_POINTS = [(c, h) for c, h, *_ in MINIMAL_MODELS] + [
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1, 3)),
    (Fraction(26), Fraction(3, 2)),
]


@pytest.mark.parametrize("c, h", UNITARY_POINTS)
def test_gram_has_no_negative_direction_on_the_unitary_points(c, h):
    # Friedan, Qiu & Shenker (1984); Goddard, Kent & Olive (1986): positive
    # semidefinite at every level on the discrete series and for c >= 1, h >= 0
    module = VermaModule(c, h, max_level=TOP)
    assert [inertia(module.gram_matrix(level))[1] for level in range(TOP + 1)] == [0] * (TOP + 1)


@pytest.mark.parametrize(
    "c, h, negatives",
    [
        (HALF, Fraction(1, 10), [0, 0, 1, 1, 2, 3, 4, 6, 9, 13]),
        (Fraction(7, 10), Fraction(1, 20), [0, 0, 0, 0, 0, 0, 1, 1, 2, 4]),
    ],
)
def test_gram_has_negative_directions_off_the_discrete_series(c, h, negatives):
    module = VermaModule(c, h, max_level=TOP)
    assert [inertia(module.gram_matrix(level))[1] for level in range(TOP + 1)] == negatives


@pytest.mark.parametrize(
    "c, h",
    [
        (Fraction(2), Fraction(1, 3)),
        (Fraction(26), Fraction(3, 2)),
        (HALF, Fraction(1, 10)),
        (Fraction(7, 10), Fraction(1, 20)),
        (Fraction(-3, 7), Fraction(-5, 11)),
    ],
)
def test_negative_count_parity_is_the_sign_of_the_kac_determinant(c, h):
    module = VermaModule(c, h, max_level=TOP)
    for level in range(TOP + 1):
        det = kac_determinant(level, c, h)
        positive, negative = inertia(module.gram_matrix(level))
        assert det != 0 and positive + negative == partition_count(level)
        assert (det < 0) == (negative % 2 == 1)
