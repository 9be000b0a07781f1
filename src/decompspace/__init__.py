"""Finite truncated simplicial sets with witness-producing certification
against the Segal, 2-Segal, decomposition-space and culf criteria.

The public names below, and the submodules that define them, are
imported on first use (PEP 562), so ``import decompspace`` and a command
line that needs only some of the modules load nothing else.
"""

import importlib as _importlib

#: Submodule -> the public names the package takes from it.
_EXPORTS = {
    "delta": (),
    "sset": (
        "CheckReport",
        "LevelError",
        "SimplicialMap",
        "SquareWitness",
        "StructuralError",
        "TruncatedSSet",
        "induce",
        "is_pullback_square",
        "opposite",
        "pullback_holds",
        "table_names",
        "truncate",
        "validate",
        "validate_map",
    ),
    "criteria": (
        "check_2segal_polygonal",
        "check_culf",
        "check_decomposition",
        "check_decomposition_direct",
        "check_lower_2segal",
        "check_segal",
        "check_segal_iterated",
        "check_upper_2segal",
        "check_upper_2segal_reduced",
    ),
    "operators": ("dec_bot", "dec_top", "map_decbot_to_sd", "map_dectop_op_to_sd", "sd"),
    "builders": (
        "DirectedGraph",
        "FiniteCategory",
        "OuterFaceComplex",
        "PartialCategory",
        "PartialMonoid",
        "bounded_words",
        "free_decomposition",
        "from_partial_category",
        "from_partial_monoid",
        "graph_paths",
        "length_map",
        "nerve",
        "terminal_complex",
        "twisted_arrow",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
