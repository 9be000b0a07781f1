"""The errors of builder preconditions, readers and sset's constructors
that no other test reaches: each raises its own type with its own
message, and each that a file can carry ends in the CLI's exit code and
message, with no traceback and no output written."""

import json

import pytest

from corpus import arrow_category, input_obj, paper_graph, short_words_pmonoid
from decompspace import builders, serialize
from decompspace.builders import OuterFaceComplex
from decompspace.cli import main
from decompspace.serialize import SchemaError
from decompspace.sset import (
    LevelError,
    SimplicialMap,
    StructuralError,
    TruncatedSSet,
    compose_tables,
    is_pullback_square,
)
from oracles import identity_map


def arrow_obj(**changes) -> dict:
    """The arrow category's file, objects 0 and 1 and arrows [0,0], [0,1]
    and [1,1], with the fields changes gives; a field given as a callable
    is that callable of the field."""
    obj = input_obj(arrow_category())
    for field, change in changes.items():
        obj[field] = change(obj[field]) if callable(change) else change
    return obj


def without_row(pair):
    """A change of composition that drops the row of pair."""
    return lambda rows: [row for row in rows if row[:2] != list(pair)]


def with_composite(pair, composite):
    """A change of composition that gives pair another composite."""
    return lambda rows: [[*row[:2], composite] if row[:2] == list(pair) else row
                         for row in rows]


#: A build kind, its input file and the message of the precondition the
#: file fails, each ending in exit 3.
BUILDS = {
    "duplicate-carrier": (
        "pmonoid", {**input_obj(short_words_pmonoid(1)), "carrier": ["1", "a", "a"]},
        "duplicate carrier elements",
    ),
    "duplicate-object": (
        "pcategory", arrow_obj(objects=["0", "1", "0"]), "duplicate object names",
    ),
    "duplicate-morphism": (
        "pcategory", arrow_obj(morphisms=lambda rows: [*rows, rows[0]]),
        "duplicate morphism names",
    ),
    "identity-not-endomorphism": (
        "pcategory", arrow_obj(identities={"0": "[0,1]", "1": "[1,1]"}),
        "identity '[0,1]' is not an endomorphism of '0'",
    ),
    "non-composable": (
        "pcategory",
        arrow_obj(composition=lambda rows: [*rows, ["[0,1]", "[0,0]", "[0,1]"]]),
        "composite defined on non-composable pair ('[0,1]', '[0,0]')",
    ),
    "wrong-endpoints": (
        "pcategory", arrow_obj(composition=with_composite(("[0,0]", "[0,1]"), "[0,0]")),
        "composite '[0,0]' has wrong endpoints",
    ),
    "left-unit": (
        "pcategory", arrow_obj(composition=without_row(("[0,0]", "[0,1]"))),
        "left unit law fails for '[0,1]'",
    ),
    "right-unit": (
        "pcategory", arrow_obj(composition=without_row(("[0,1]", "[1,1]"))),
        "right unit law fails for '[0,1]'",
    ),
    "duplicate-vertex": (
        "graph-paths",
        {**input_obj(paper_graph()), "vertices": ["x", "y", "z", "x"]},
        "duplicate vertex names",
    ),
}

#: The library calls that build each file's object.
BUILDERS = {
    "pmonoid": (serialize.pmonoid_from_obj, builders.from_partial_monoid),
    "pcategory": (serialize.partial_category_from_obj, builders.from_partial_category),
    "graph-paths": (serialize.graph_from_obj, builders.graph_paths),
}


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_builder_precondition(case, tmp_path, capsys):
    kind, obj, message = BUILDS[case]
    read, build = BUILDERS[kind]
    with pytest.raises(StructuralError) as caught:
        build(read(obj), 2)
    assert str(caught.value) == message
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    size = ["--bound", "2"] if kind == "graph-paths" else ["--level", "2"]
    assert main(["build", kind, "--input", str(path), *size, "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


def test_ofc_grades_must_cover_its_degrees():
    # the file reader words this fault itself, so only a library caller
    # meets validate_ofc's test
    A = OuterFaceComplex(1, (("a",),), {}, {})
    with pytest.raises(StructuralError, match=r"^grades must cover 0\.\.bound$"):
        builders.free_decomposition(A, 2)


def test_reader_needs_an_object():
    # a file's top level and every nested set are tested to be objects
    # before the header is, so only a library caller meets this test
    with pytest.raises(SchemaError, match="^sset: expected an object$"):
        serialize.sset_from_obj(["kind", "sset"])


def test_map_components_must_cover_the_shared_levels(tmp_path, capsys):
    obj = serialize.smap_to_obj(identity_map(builders.nerve(arrow_category(), 2)))
    obj["components"] = obj["components"][:2]
    message = "smap: components must cover levels 0..2"
    with pytest.raises(SchemaError, match=f"^{message}$"):
        serialize.smap_from_obj(obj)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    assert main(["check", "culf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: components must cover levels 0..2\n"
    assert captured.out == ""


class TestConstructors:
    def test_cell_levels(self):
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            TruncatedSSet(-1, (), {}, {})
        with pytest.raises(ValueError, match="^expected 3 cell levels, got 2$"):
            TruncatedSSet(2, (("v",), ("v",)), {}, {})

    def test_missing_named_table(self):
        with pytest.raises(StructuralError, match="^missing table d_1 at level 1$"):
            TruncatedSSet.from_names(1, [["v"], ["e"]], {(1, 0): {"e": "v"}},
                                     {(0, 0): {"v": "e"}})

    def test_tables_beyond_the_truncation(self):
        X = builders.nerve(arrow_category(), 2)
        with pytest.raises(LevelError, match="^no face table d_0 at level 3$"):
            X.face(3, 0)
        with pytest.raises(LevelError, match="^no degeneracy table s_3 at level 2$"):
            X.degeneracy(2, 3)

    def test_composing_no_table(self):
        with pytest.raises(ValueError, match="^need at least one table$"):
            compose_tables()

    def test_component_count(self):
        X = builders.nerve(arrow_category(), 2)
        with pytest.raises(ValueError, match="^expected 3 components, got 2$"):
            SimplicialMap(X, X, identity_map(X).components[:2])


def test_failing_square_without_names_labels_by_index():
    # A = {0, 1} over B = C = 1 = D: both cells are the one pair (0, 0)
    report = is_pullback_square((0, 0), (0, 0), (0,), (0,), "doubled", (2, 1, 1, 0))
    assert not report.holds
    witness = report.witness
    assert (witness.square, witness.levels) == ("doubled", (2, 1, 1, 0))
    assert (witness.element, witness.preimage_count, witness.preimages) == (
        (0, 0), 2, (0, 1)
    )
