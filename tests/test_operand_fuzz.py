"""Fuzzing of the CLI operand parsers: every input either parses or raises an
error that cli.exit_code maps to a documented exit code."""

import json

from hypothesis import given, settings, strategies as st

from circlekit import cli
from circlekit.diffeo import CoverConfig
from circlekit.errors import CirclekitError

N = 16

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


def parses_or_maps(parse, *args):
    try:
        parse(*args)
    except (CirclekitError, ValueError) as exc:
        assert cli.exit_code(exc) in (2, 3)


@settings(max_examples=200)
@given(operands(["fourier", "four", ""]))
def test_fourier_operands(text):
    parses_or_maps(cli.parse_fourier_terms, text, "fourier")
    parses_or_maps(cli.parse_diffeo, text, N)


@settings(max_examples=200)
@given(st.one_of(operands(["fourier"]), st.tuples(st.just("monomial"), tokens).map(":".join)))
def test_field_operands(text):
    parses_or_maps(cli.parse_field, text, N)


@settings(max_examples=200)
@given(operands(["su2", "exp"]))
def test_loop_operands(text):
    parses_or_maps(cli.parse_loop_algebra, text, N)
    parses_or_maps(cli.parse_loop, text, N)


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
