"""Quantum error-detecting codes from weighted graphs and finite abelian groups.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import graphqec`` by itself imports neither numpy nor the
verdict, oracle and determinant modules.  Parsing graphs and groups and
building the built-in graphs loads neither numpy nor ``dataclasses``.
"""

import importlib

_SOURCES = {
    "abelian": ("FiniteAbelianGroup", "parse_group"),
    "detector": (
        "DetectionVerdict",
        "SweepReport",
        "corrects_errors",
        "detects",
        "detects_errors",
    ),
    "graphcode": (
        "WeightedGraph",
        "matrix19_code",
        "parse_graph",
        "serialize_graph",
        "tenfold_code",
        "wheel_code",
    ),
    "oracle": ("CodeIsometry", "build_isometry", "kl_detects"),
    "singleton": (
        "DeterminantReport",
        "Skeleton",
        "graph_census",
        "offdiag_subdets",
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
