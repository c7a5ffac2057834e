"""Circle-diffeomorphism and loop-group arithmetic at spectral resolution.

Smooth periodic functions on power-of-two grids, the universal cover of the
orientation-preserving diffeomorphism group, SU(n) loop groups with their
central-extension cocycles, continuous fragmentation over three-interval
covers, and exact-rational checks of the Virasoro commutation relations on
truncated lowest-weight modules.

Names and submodules load on first use (PEP 562), so ``import circlekit``
imports neither numpy nor any submodule.
"""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "cocycles": (
        "VectField", "VirasoroElement", "bott", "bott_mixed_derivative", "cocycle_identity_residual",
        "vect_bracket", "vect_cocycle", "vir_multiply",
    ),
    "diffeo": (
        "BumpFunction", "CircleDiffeo", "CoverConfig", "IntervalArc", "compose", "inverse",
        "make_bump", "make_normalized_bump", "support",
    ),
    "errors": (
        "AliasingError", "BranchError", "CirclekitError", "ConvergenceError", "DerivativeError",
        "GeometryError", "MassError", "NeighbourhoodError", "TruncationError",
    ),
    "frag_diff": (
        "DiffeoFragmenter", "EpsilonNeighbourhood", "FragmentationResult", "alpha1", "alpha1_bound",
        "beta1", "beta1_bound", "beta1_integral_form", "fragment", "fragment_pair",
    ),
    "loops": (
        "LoopAlgebraElement", "LoopElement", "bracket", "exp_loop", "fragment_loop",
        "fragment_loop_sequential", "inverse_loop", "killing_form", "log_loop", "loop_support",
        "multiply", "omega", "precompose",
    ),
    "periodic": ("PeriodicFunction", "grid"),
    "verma": (
        "VermaModule", "VermaState", "act", "commutator_check", "exact_determinant", "gram_matrix",
        "partitions",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", *_EXPORTS, "report", "sampling", "verify")

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return list(__all__)
