"""The public surface: every exported name resolves, and the package's names
stay those frozen here."""

import importlib
import inspect
import json
import subprocess
import sys
import textwrap
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
    """dir() lists the public names, which the package resolves on first use."""
    names = [n for n in dir(circlekit) if not isinstance(getattr(circlekit, n), types.ModuleType)]
    assert names == PACKAGE_NAMES


# what a fresh interpreter sees of the package, as JSON
LAZY_PROBE = textwrap.dedent(
    """
    import json, pkgutil, sys
    import circlekit
    loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("circlekit."))
    frag_diff = circlekit.frag_diff.__name__, "fragment" in vars(circlekit.frag_diff)
    star = {}
    exec("from circlekit import *", star)
    submodules = [m.name for m in pkgutil.iter_modules(circlekit.__path__) if m.name != "__main__"]
    print(json.dumps({
        "loaded": loaded,
        "frag_diff": frag_diff,
        "dir": dir(circlekit),
        "star": sorted(n for n in star if n != "__builtins__"),
        "submodules": {m: getattr(circlekit, m).__name__ for m in submodules},
    }))
    """
)


def test_package_loads_names_on_first_use():
    r = subprocess.run([sys.executable, "-c", LAZY_PROBE], capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    probe = json.loads(r.stdout)
    assert probe["loaded"] == []
    assert probe["frag_diff"] == ["circlekit.frag_diff", True]
    assert probe["dir"] == probe["star"] == PACKAGE_NAMES
    assert probe["submodules"] == {m: f"circlekit.{m}" for m in probe["submodules"]}
    assert {"cli", "report", "verify"} <= set(probe["submodules"])


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        circlekit.no_such_name  # noqa: B018
    assert not hasattr(circlekit, "__main__")


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
