"""Finite truncated simplicial sets with witness-producing certification
against the Segal, 2-Segal, decomposition-space and culf criteria."""

from .delta import (
    SimplexMap,
    active_inert_pushout,
    classify,
    codegeneracy,
    coface,
    compose,
    enumerate_active,
    enumerate_inert,
    factor_active_inert,
    generator_decomposition,
)
from .sset import (
    CheckReport,
    LevelError,
    SimplicialMap,
    SquareWitness,
    StructuralError,
    TruncatedSSet,
    induce,
    induced_map,
    is_pullback_square,
    opposite,
    pullback_holds,
    table_names,
    truncate,
    validate,
    validate_map,
)
from .criteria import (
    check_2segal_polygonal,
    check_culf,
    check_decomposition,
    check_decomposition_direct,
    check_lower_2segal,
    check_segal,
    check_segal_iterated,
    check_upper_2segal,
    check_upper_2segal_reduced,
)
from .operators import dec_bot, dec_top, map_decbot_to_sd, map_dectop_op_to_sd, sd
from .builders import (
    DirectedGraph,
    FiniteCategory,
    OuterFaceComplex,
    PartialCategory,
    PartialMonoid,
    bounded_words,
    free_decomposition,
    from_partial_category,
    from_partial_monoid,
    graph_paths,
    length_map,
    nerve,
    terminal_complex,
    twisted_arrow,
)

__version__ = "0.1.0"
