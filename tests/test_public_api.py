"""The public surface: every exported name resolves, and the package's names
stay those frozen here."""

import importlib
import inspect
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


# defaulted parameters of the exported callables, see test_defaulted_parameter_count
DEFAULTED_PARAMETERS = 49


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


def _defaulted(fn) -> int:
    return sum(p.default is not inspect.Parameter.empty for p in inspect.signature(fn).parameters.values())


def test_defaulted_parameter_count():
    """A ratchet on options: the defaulted parameters of every callable in a
    module's __all__, counting a class's constructor, public methods and
    classmethods.  Adding an option means raising DEFAULTED_PARAMETERS on
    purpose; removing one means lowering it."""
    counts = {}
    for name in MODULES:
        module = importlib.import_module(f"circlekit.{name}")
        for export in module.__all__:
            obj = getattr(module, export)
            if isinstance(obj, type):
                methods = [obj.__init__]
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        methods.append(member)
                counts[f"{name}.{export}"] = sum(map(_defaulted, methods))
            elif callable(obj):
                counts[f"{name}.{export}"] = _defaulted(obj)
    assert sum(counts.values()) == DEFAULTED_PARAMETERS, {k: v for k, v in counts.items() if v}
