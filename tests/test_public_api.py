"""The public surface: every exported name resolves, and the package's names
stay those frozen here."""

import importlib
import types

import pytest

import circlekit

# the modules that declare __all__
MODULES = ["cocycles", "diffeo", "frag_diff", "loops", "periodic", "sampling", "verify", "verma"]

PACKAGE_NAMES = [
    "AliasingError", "BranchError", "BumpFunction", "CircleDiffeo", "CirclekitError",
    "ConvergenceError", "CoverConfig", "DerivativeError", "DiffeoFragmenter",
    "EpsilonNeighbourhood", "FragmentationResult", "GeometryError", "IntervalArc",
    "LoopAlgebraElement", "LoopElement", "MassError", "NeighbourhoodError",
    "PeriodicFunction", "TruncationError", "VectField", "VermaModule", "VermaState",
    "VirasoroElement", "act", "alpha1", "alpha1_bound", "beta1", "beta1_bound",
    "beta1_integral_form", "bott", "bott_mixed_derivative", "bracket",
    "cocycle_identity_residual", "commutator_check", "compose", "exact_determinant",
    "exp_loop", "fragment", "fragment_loop", "fragment_loop_sequential", "fragment_pair",
    "gram_matrix", "grid", "inverse", "inverse_loop", "killing_form", "log_loop",
    "loop_support", "make_bump", "make_normalized_bump", "multiply", "omega", "partitions",
    "precompose", "support", "vect_bracket", "vect_cocycle", "vir_multiply",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"circlekit.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_names_are_frozen():
    names = sorted(
        n for n, v in vars(circlekit).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PACKAGE_NAMES
