"""Fuzzed JSON never escapes as a traceback.

Each example takes a valid object of one kind and plants one defect: a
value replaced by a random JSON value, a field deleted, or a row
shortened.  It then runs the object through its reader and, for a
builder input, through the builder (an sset or smap through validate).
The object must either load or raise one of the exceptions cli.main
maps to exit 2 or 3; any other exception would reach the user as a
traceback.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    arrow_category,
    input_obj,
    one_gap_pcategory,
    paper_graph,
    short_words_pmonoid,
)
from decompspace import builders, serialize
from decompspace.sset import LevelError, StructuralError, validate, validate_map

LEVEL = 3
EXPECTED = (serialize.SchemaError, StructuralError, LevelError, ValueError)


def _category(obj):
    C = serialize.category_from_obj(obj)
    builders.nerve(C, LEVEL)
    builders.nerve(builders.twisted_arrow(C), LEVEL)


def _graph(obj):
    ofc = builders.graph_paths(serialize.graph_from_obj(obj), 2)
    builders.free_decomposition(ofc, LEVEL)


WORDS = builders.bounded_words(("a", "b"), 1)

#: kind -> (a valid object, what the CLI does with one read from a file)
KINDS = {
    "sset": (
        serialize.sset_to_obj(builders.free_decomposition(WORDS, 2)),
        lambda obj: validate(serialize.sset_from_obj(obj)),
    ),
    "smap": (
        serialize.smap_to_obj(builders.length_map(WORDS, 2)),
        lambda obj: validate_map(serialize.smap_from_obj(obj)),
    ),
    "ofc": (
        serialize.ofc_to_obj(builders.graph_paths(paper_graph(), 2)),
        lambda obj: builders.free_decomposition(serialize.ofc_from_obj(obj), LEVEL),
    ),
    "category": (input_obj(arrow_category()), _category),
    "pcategory": (
        input_obj(one_gap_pcategory()),
        lambda obj: builders.from_partial_category(
            serialize.partial_category_from_obj(obj), LEVEL
        ),
    ),
    "pmonoid": (
        input_obj(short_words_pmonoid(2)),
        lambda obj: builders.from_partial_monoid(serialize.pmonoid_from_obj(obj), LEVEL),
    ),
    "graph": (input_obj(paper_graph()), _graph),
}


def places(value, path=()):
    """Every (path, value) below the top level of a JSON tree."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from places(child, path + (key,))


def names(value):
    return sorted({v for _, v in places(value) if isinstance(v, str)})


def json_values(obj):
    """Random JSON values, weighted to small indices and names obj uses."""
    leaves = (
        st.integers(-1, 4)
        | st.sampled_from(names(obj))
        | st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text(max_size=2)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=4,
    )


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    obj = copy.deepcopy(KINDS[kind][0])
    edit = draw(st.sampled_from(["replace", "delete", "shorten"]))
    spots = [
        path
        for path, value in places(obj)
        if edit == "replace"
        or (edit == "delete" and isinstance(path[-1], str))
        or (edit == "shorten" and isinstance(value, list) and value)
    ]
    path = draw(st.sampled_from(spots))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if edit == "replace":
        parent[path[-1]] = draw(json_values(obj))
    elif edit == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]].pop(draw(st.integers(0, len(parent[path[-1]]) - 1)))
    return kind, obj


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated())
def test_mutated_input_loads_or_is_rejected(case):
    kind, obj = case
    try:
        KINDS[kind][1](obj)
    except EXPECTED:
        pass
