"""Quantum error-detecting codes from weighted graphs and finite abelian groups.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import graphqec`` by itself imports neither numpy nor the
verdict, oracle and determinant modules.
"""

import importlib

_SOURCES = {
    "abelian": ("FiniteAbelianGroup", "Phase", "make_group", "parse_group"),
    "detector": (
        "DetectionVerdict",
        "SweepReport",
        "corrects_errors",
        "detects",
        "detects_errors",
        "input_exchange_check",
        "is_isometry_condition",
        "strong_detects",
    ),
    "graphcode": (
        "WeightedGraph",
        "matrix19_code",
        "parse_graph",
        "serialize_graph",
        "tenfold_code",
        "wheel_code",
    ),
    "oracle": ("CodeIsometry", "build_isometry", "check_isometry", "kl_detects", "omega_table"),
    "singleton": (
        "DeterminantReport",
        "Skeleton",
        "graph_census",
        "is_strongly_ec",
        "offdiag_subdets",
        "restricted_bad_primes",
        "search_weights",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
