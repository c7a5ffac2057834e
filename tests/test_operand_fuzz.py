"""Fuzzing of the CLI operand parsers: every input either parses or raises an
error that cli.exit_code maps to a documented exit code.  Exit 4 (aliasing)
is the answer exactly when the operand parses and one of its wavenumbers is
at least N/2.  The parsers run with RuntimeWarning as an error: overflow must
reach the caller as an operand error, not as a numpy warning."""

import json
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circlekit import cli
from circlekit.diffeo import CoverConfig
from circlekit.errors import CirclekitError

N = 16
LOOP_TYPES = (operator.index, cli._wavenumber, float, float)  # parse_loop_algebra's axis, k, a, b

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# number-like tokens, including ones past the float and int conversion limits
tokens = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e400", "1e308", "9" * 400, "True", "None", "'x'", "()", "1j", "[1,2]"]),
    st.text(alphabet="0123456789.e-+()[],'j ", max_size=8),
)
term_lists = st.lists(
    st.lists(tokens, max_size=5).map(lambda xs: "(" + ",".join(xs) + ")"), max_size=4
).map(lambda terms: "[" + ",".join(terms) + "]")


def operands(prefixes):
    return st.one_of(
        st.tuples(st.sampled_from(prefixes), term_lists).map(":".join),
        st.tuples(st.sampled_from(prefixes), st.text(max_size=12)).map(":".join),
        st.text(max_size=20),
    )


def parses_or_maps(parse, *args, aliased=False):
    """The parsed operand, or None when parse raised a mapped error."""
    try:
        parsed = parse(*args)
    except (CirclekitError, ValueError) as exc:
        assert cli.exit_code(exc) == 4 if aliased else cli.exit_code(exc) in (2, 3)
        return None
    assert not aliased
    return parsed


def aliased(text, prefix, types=(cli._wavenumber, float, float), k_at=0):
    """Whether the operand parses, axes included, with a wavenumber |k| >= N/2."""
    try:
        terms = cli.parse_fourier_terms(text, prefix, types)
    except cli.OperandError:
        return False
    if k_at and any(term[0] not in (1, 2, 3) for term in terms):
        return False
    return any(2 * abs(term[k_at]) >= N for term in terms)


def monomial_aliased(text):
    try:
        return 2 * abs(cli._wavenumber(int(text.split(":", 1)[1]))) >= N
    except (ValueError, OverflowError):
        return False


@settings(max_examples=200)
@given(operands(["fourier", "four", ""]))
@example("fourier:[(7,1,0),(-8,0,1)]")
@example("fourier:[(1,1e308,0),(2,1e308,0)]")  # samples that overflow
@example("fourier:[(1,1e308,1e308)]")  # finite samples whose derivative's transform overflows
@example("fourier:[(1.5,0,0.004)]")  # entries that int() or float() would have taken
@example("fourier:[(True,0,0.004)]")
@example("fourier:[(1,'0.003',0)]")
def test_fourier_operands(text):
    parses_or_maps(cli.parse_fourier_terms, text, "fourier")
    parses_or_maps(cli.parse_diffeo, text, N, aliased=aliased(text, "fourier"))


@settings(max_examples=200)
@given(st.one_of(operands(["fourier"]), st.tuples(st.just("monomial"), tokens).map(":".join)))
@example("monomial:-8")
@example("monomial:7")
@example("monomial:2.7")
@example("monomial:True")
def test_field_operands(text):
    alias = monomial_aliased(text) if text.startswith("monomial:") else aliased(text, "fourier")
    parses_or_maps(cli.parse_field, text, N, aliased=alias)


@settings(max_examples=200)
@given(operands(["su2", "exp"]))
@example("su2:[(1,7,0,0),(3,8,1,0)]")
@example("exp:[(2,-8,0,1)]")
@example("exp:[(4,8,0,1)]")
@example("exp:[(1,1,0,1e300)]")  # finite su(2) components whose exponential is not
@example("exp:[(1,1,1e308,0),(1,2,1e308,0)]")
@example("su2:[(1.9,1,1,0)]")
@example("su2:[(True,1,1,0)]")
def test_loop_operands(text):
    parses_or_maps(cli.parse_loop_algebra, text, N, aliased=aliased(text, "su2", LOOP_TYPES, k_at=1))
    loop = parses_or_maps(cli.parse_loop, text, N, aliased=aliased(text, "exp", LOOP_TYPES, k_at=1))
    assert loop is None or np.isfinite(loop.samples).all()


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=20), st.fractions().map(str), st.sampled_from(["1/0", "-0/0", "nan", "inf"])))
def test_verma_operands(text):
    parses_or_maps(cli.parse_verma_operand, text, "--c")


finite_or_not = st.one_of(st.floats(), st.integers(-10, 10), st.text(max_size=3), st.none())
arcs = st.lists(finite_or_not, max_size=3)
covers = st.fixed_dictionaries(
    {"I": st.lists(arcs, max_size=4), "Ihat": st.lists(arcs, max_size=4)},
    optional={"margin": finite_or_not},
).map(json.dumps)


@settings(max_examples=200)
@given(st.one_of(covers, st.text(max_size=30), st.just(CoverConfig.default().to_json())))
def test_cover_configurations(text):
    parses_or_maps(CoverConfig.from_json, text)
