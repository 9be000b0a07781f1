"""File formats: byte-exact round trips, the writer against json's own
indenting encoder, schema rejection, and the reader's certificate: a
set or map that changes after it is read is tested as a fresh one."""

import copy
import dataclasses
import os
import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    arrow_category,
    boundary_sets,
    collapsed_triangle,
    doubled_degenerate_nerve,
    input_obj,
    one_gap_pcategory,
    paper_graph,
    point,
    short_words_pmonoid,
)
from decompspace import builders, criteria, operators, serialize, sset
from decompspace.cli import main
from decompspace.serialize import SchemaError
from decompspace.sset import SimplicialMap, TruncatedSSet, opposite, truncate
from oracles import reference_dumps


def words_sset():
    return builders.free_decomposition(builders.bounded_words(("a", "b"), 2), 3)


class TestRoundTrips:
    def test_sset_bytes_stable(self):
        X = words_sset()
        text = serialize.dumps(serialize.sset_to_obj(X))
        again = serialize.dumps(
            serialize.sset_to_obj(serialize.sset_from_obj(serialize.loads(text)))
        )
        assert text == again

    def test_sset_object_roundtrip(self):
        X = words_sset()
        assert serialize.sset_from_obj(serialize.sset_to_obj(X)) == X

    def test_ofc_roundtrip(self):
        A = builders.graph_paths(paper_graph(), 2)
        obj = serialize.ofc_to_obj(A)
        text = serialize.dumps(obj)
        B = serialize.ofc_from_obj(serialize.loads(text))
        assert B == A
        assert serialize.dumps(serialize.ofc_to_obj(B)) == text

    def test_smap_roundtrip(self):
        lm = builders.length_map(builders.bounded_words(("a",), 2), 3)
        obj = serialize.smap_to_obj(lm)
        text = serialize.dumps(obj)
        back = serialize.smap_from_obj(serialize.loads(text))
        assert back == lm
        assert serialize.dumps(serialize.smap_to_obj(back)) == text

    def test_write_read_file(self, tmp_path):
        path = tmp_path / "x.json"
        serialize.write_file(str(path), serialize.sset_to_obj(point(2)))
        assert serialize.sset_from_obj(serialize.read_file(str(path))) == point(2)


    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_written_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "x.json"
        old = os.umask(0o022)
        try:
            serialize.write_file(str(path), serialize.sset_to_obj(point(1)))
            serialize.write_file(str(path), serialize.sset_to_obj(point(2)))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


KEYS = st.text(max_size=3)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["", "\x00\n\t\"\\", "\u00e9\u2603", "\ud800", "\U0001f600"])
)
#: rows as the formats hold them, and rows that must not be read as index rows
ROWS = (
    st.lists(st.integers(-3, 300), max_size=6)
    | st.lists(st.integers(-3, 3) | st.booleans(), min_size=1, max_size=4)
    | st.lists(st.text(max_size=3), max_size=4)
)


def nested(inner):
    return (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=3)
    )


# a fixed depth draws far faster than st.recursive
LEAVES = SCALARS | ROWS
TREES = LEAVES | nested(LEAVES | nested(LEAVES))


class TestWriter:
    """dumps gives the text of json's indenting encoder, byte for byte."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.dictionaries(KEYS, TREES, max_size=4))
    def test_matches_json_on_trees(self, obj):
        assert serialize.dumps(obj) == reference_dumps(obj)

    def test_machine_report_with_witness(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "x.json"
        serialize.write_file(str(path), serialize.sset_to_obj(collapsed_triangle(3)))
        reports = []
        dumps = serialize.dumps
        monkeypatch.setattr(
            serialize, "dumps", lambda obj: reports.append(obj) or dumps(obj)
        )
        assert main(["check", "segal", str(path), "--format", "machine"]) == 1
        (report,) = reports
        assert report["holds"] is False and report["witness"] is not None
        assert capsys.readouterr().out == reference_dumps(report)


class TestSchemaErrors:
    def test_missing_field_points_at_it(self):
        obj = serialize.sset_to_obj(point(1))
        del obj["faces"]
        with pytest.raises(SchemaError, match="faces"):
            serialize.sset_from_obj(obj)

    def test_wrong_kind(self):
        obj = serialize.sset_to_obj(point(1))
        obj["kind"] = "ofc"
        with pytest.raises(SchemaError, match="kind"):
            serialize.sset_from_obj(obj)

    def test_index_out_of_range(self):
        obj = serialize.sset_to_obj(point(1))
        obj["faces"][0][0] = [7]
        with pytest.raises(SchemaError, match="out of range"):
            serialize.sset_from_obj(obj)

    def test_boolean_level_rejected(self):
        obj = serialize.sset_to_obj(point(1))
        obj["level"] = True
        with pytest.raises(SchemaError, match="'level' must be int"):
            serialize.sset_from_obj(obj)

    def test_boolean_bound_rejected(self):
        obj = serialize.ofc_to_obj(builders.terminal_complex(1))
        obj["bound"] = True
        with pytest.raises(SchemaError, match="'bound' must be int"):
            serialize.ofc_from_obj(obj)

    @pytest.mark.parametrize("field", ["faces", "degeneracies"])
    def test_boolean_index_rejected(self, field):
        obj = serialize.sset_to_obj(point(1))
        obj[field][0][0] = [False]
        with pytest.raises(SchemaError, match=rf"{field}\[0\]\[0\]: index False"):
            serialize.sset_from_obj(obj)

    def test_boolean_ofc_index_rejected(self):
        obj = serialize.ofc_to_obj(builders.terminal_complex(1))
        obj["d_bot"][0] = [False]
        with pytest.raises(SchemaError, match=r"d_bot\[0\]: index False"):
            serialize.ofc_from_obj(obj)

    def test_boolean_component_index_rejected(self):
        obj = serialize.smap_to_obj(builders.length_map(builders.bounded_words(("a",), 1), 1))
        obj["components"][0] = [False]
        with pytest.raises(SchemaError, match=r"components\[0\]: index False"):
            serialize.smap_from_obj(obj)

    def test_row_length_mismatch(self):
        obj = serialize.sset_to_obj(point(1))
        obj["faces"][0][0] = []
        with pytest.raises(SchemaError, match="faces"):
            serialize.sset_from_obj(obj)

    def test_not_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            serialize.loads("{nope")

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"level": ' + "9" * 5000 + "}"],
        ids=["deep", "long-int"],
    )
    def test_unreadable_json_is_schema_error(self, tmp_path, text):
        with pytest.raises(SchemaError, match="not valid JSON"):
            serialize.loads(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: not valid JSON"):
            serialize.read_file(str(path))

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            serialize.loads("[1,2]")

    @pytest.mark.parametrize(
        "read, source, field",
        [
            (serialize.category_from_obj, arrow_category(), "morphisms"),
            (serialize.category_from_obj, arrow_category(), "composition"),
            (serialize.partial_category_from_obj, one_gap_pcategory(), "morphisms"),
            (serialize.partial_category_from_obj, one_gap_pcategory(), "composition"),
            (serialize.pmonoid_from_obj, short_words_pmonoid(2), "product"),
            (serialize.graph_from_obj, paper_graph(), "edges"),
        ],
    )
    @pytest.mark.parametrize(
        "row", [[["a"], "a", "a"], [1, "x", "x"], ["e", ["x"], "x"], ["e", "x", None]]
    )
    def test_builder_row_of_non_strings(self, read, source, field, row):
        obj = input_obj(source)
        obj[field] = [row, *obj[field]]
        with pytest.raises(SchemaError, match=rf"{field}\[0\] must be .*three strings"):
            read(obj)

    @pytest.mark.parametrize(
        "read, source, field",
        [
            (serialize.category_from_obj, arrow_category(), "composition"),
            (serialize.partial_category_from_obj, one_gap_pcategory(), "composition"),
            (serialize.pmonoid_from_obj, short_words_pmonoid(2), "product"),
        ],
    )
    def test_repeated_pair_rejected(self, read, source, field):
        # a second row for the same pair would silently replace the first
        obj = input_obj(source)
        x, y, value = obj[field][0]
        other = next(r[2] for r in obj[field] if r[2] != value)
        obj[field] = [*obj[field], [x, y, other]]
        last = len(obj[field]) - 1
        message = f"{field}[{last}] repeats the pair {[x, y]!r}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            read(obj)
        obj[field][last] = [x, y, value]
        with pytest.raises(SchemaError, match="repeats the pair"):
            read(obj)


def _tiny_map():
    return builders.length_map(builders.bounded_words(("a",), 1), 1)


#: reader name -> (a valid object, the path to the object carrying the field)
VERSIONED = {
    "sset": (lambda: serialize.sset_to_obj(point(1)), ()),
    "ofc": (lambda: serialize.ofc_to_obj(builders.terminal_complex(1)), ()),
    "smap": (lambda: serialize.smap_to_obj(_tiny_map()), ()),
    "smap source": (lambda: serialize.smap_to_obj(_tiny_map()), ("source",)),
    "smap target": (lambda: serialize.smap_to_obj(_tiny_map()), ("target",)),
}
READ = {
    "sset": serialize.sset_from_obj,
    "ofc": serialize.ofc_from_obj,
    "smap": serialize.smap_from_obj,
}


class TestFormatVersion:
    @pytest.mark.parametrize("case", list(VERSIONED))
    @pytest.mark.parametrize(
        "value, message",
        [
            (None, "missing field 'format_version'"),
            ("1", "field 'format_version' must be int"),
            (True, "field 'format_version' must be int"),
            (2, "field 'format_version' must be 1"),
            (0, "field 'format_version' must be 1"),
        ],
    )
    def test_anything_but_1_rejected(self, case, value, message):
        make, path = VERSIONED[case]
        obj = make()
        inner = obj
        for key in path:
            inner = inner[key]
        if value is None:
            del inner["format_version"]
        else:
            inner["format_version"] = value
        where = ": ".join([case.split()[0], *path])
        with pytest.raises(SchemaError, match=re.escape(f"{where}: {message}")):
            READ[case.split()[0]](obj)


#: validate and every checker of a set, each at its defaults.
SET_CHECKS = (
    sset.validate,
    criteria.check_segal,
    criteria.check_segal_iterated,
    criteria.check_upper_2segal,
    criteria.check_lower_2segal,
    criteria.check_upper_2segal_reduced,
    criteria.check_decomposition,
    criteria.check_decomposition_direct,
    criteria.check_2segal_polygonal,
)
MAP_CHECKS = (sset.validate_map, criteria.check_culf)


def outcomes(checks, x):
    """What each check gives on x: its report, or its error's type and text."""
    results = []
    for check in checks:
        try:
            results.append(check(x))
        except Exception as exc:
            results.append((type(exc).__name__, str(exc)))
    return results


def read_back(X):
    return serialize.sset_from_obj(serialize.loads(serialize.dumps(serialize.sset_to_obj(X))))


def read_map_back(m):
    return serialize.smap_from_obj(serialize.loads(serialize.dumps(serialize.smap_to_obj(m))))


def fresh(X):
    """A set built from X's tables as they are now, with no certificate."""
    return TruncatedSSet(X.level, X.cells, dict(X.faces), dict(X.degeneracies))


#: Sets of bytes and of tuple tables, valid and not: the largest level of
#: largest-257 holds 257 cells.
CERTIFIED = {
    "words-L3": lambda: builders.free_decomposition(builders.bounded_words(("a", "b"), 2), 3),
    "nerve-arrow-L4": lambda: builders.nerve(arrow_category(), 4),
    "doubled-degenerate-L4": lambda: doubled_degenerate_nerve(4),
    "largest-257": lambda: boundary_sets()["largest-257"],
}


def checked(X, check):
    """X, once check has walked it and the walk has held."""
    check(X)
    assert "identities" in sset._current(X)
    return X


#: A set with a record, by case: a CERTIFIED set as read back from its
#: file (the bare name), or as built and then walked by validate or by a
#: checker's validation, whose verdict is remembered on it.
RECORDED = {
    name + suffix: (name, make)
    for name in CERTIFIED
    for suffix, make in (
        ("", read_back),
        ("-validated", lambda X: checked(X, sset.validate)),
        ("-checked", lambda X: checked(X, criteria.check_segal)),
    )
}


def recorded(case):
    name, make = RECORDED[case]
    return make(CERTIFIED[name]())


def with_bool(table):
    """table with its first 0 or 1 made False or True: an equal tuple."""
    j = next(j for j, v in enumerate(table) if v in (0, 1))
    return table[:j] + (bool(table[j]),) + table[j + 1 :]


#: A change to a table after reading: kind -> the new table, given the
#: table and the size of its target level.
TABLE_CHANGES = {
    "equal": lambda table, size: tuple(list(table)),
    "out-of-range": lambda table, size: table[:-1] + (size,),
    "bool": lambda table, size: with_bool(table),
    "list": lambda table, size: list(table),
}


def shape_tested(monkeypatch, name: str, key) -> list:
    """key(*args) of each call of sset's function name in which the one
    shape test, _index_problem, runs, whether or not it finds a fault."""
    tested, runs = [], [0]
    index_problem, inner = sset._index_problem, getattr(sset, name)

    def counted_problem(*args):
        runs[0] += 1
        return index_problem(*args)

    def counting(*args):
        before = runs[0]
        try:
            return inner(*args)
        finally:
            if runs[0] > before:
                tested.append(key(*args))

    monkeypatch.setattr(sset, "_index_problem", counted_problem)
    monkeypatch.setattr(sset, name, counting)
    return tested


@pytest.fixture
def shape_tests(monkeypatch):
    """The number of sets whose tables sset shape-tests, one by one."""
    return shape_tested(monkeypatch, "_checked_tables", lambda X, kind, *_: kind)


@pytest.fixture
def component_tests(monkeypatch):
    """The maps whose components sset shape-tests, one by one."""
    return shape_tested(monkeypatch, "_components", lambda m, *_: m)


class TestReaderCertificate:
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_read_set_reports_as_built_without_shape_test(self, name, shape_tests):
        X = CERTIFIED[name]()
        Y = read_back(X)
        assert Y == X and repr(Y) == repr(X)
        want = outcomes(SET_CHECKS, X)
        shape_tests.clear()
        assert outcomes(SET_CHECKS, Y) == want
        assert shape_tests == []

    @pytest.mark.parametrize("change", sorted(TABLE_CHANGES) + ["deleted"])
    @pytest.mark.parametrize("kind", ["faces", "degeneracies"])
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_changed_table_is_tested_as_fresh(self, name, kind, change, shape_tests):
        # the change in place raises TypeError and leaves every outcome
        # as a fresh copy's; a set made with the changed table is tested
        # as fresh: an equal new tuple once, and its walk remembered, a
        # defect or a deleted key by every check
        Y = recorded(name)
        tables = getattr(Y, kind)
        key = max(tables)
        n = key[0]
        if change == "deleted":
            changed = {k: t for k, t in tables.items() if k != key}
            with pytest.raises(TypeError):
                del tables[key]
        else:
            size = len(Y.cells[n - 1 if kind == "faces" else n + 1])
            changed = {**tables, key: TABLE_CHANGES[change](tables[key], size)}
            assert changed[key] is not tables[key]
            with pytest.raises(TypeError):
                tables[key] = changed[key]
        assert outcomes(SET_CHECKS, Y) == outcomes(SET_CHECKS, fresh(Y))
        Z = dataclasses.replace(Y, **{kind: changed})
        want = outcomes(SET_CHECKS, fresh(Z))
        shape_tests.clear()
        assert outcomes(SET_CHECKS, Z) == want
        if change == "equal":
            assert want[0].holds and shape_tests == ["d", "s"]
        else:
            assert want[0][0] == "StructuralError", want[0]
            assert len(shape_tests) >= len(SET_CHECKS)

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_replaced_cells_are_tested_as_fresh(self, name, shape_tests):
        # a set made with the top level one cell short, so its face tables
        # are too long; then one with equal cells in a new tuple, tested
        # once and remembered
        Y = recorded(name)
        Z = dataclasses.replace(Y, cells=Y.cells[:-1] + (Y.cells[-1][:-1],))
        want = outcomes(SET_CHECKS, fresh(Z))
        assert want[0][0] == "StructuralError", want[0]
        assert outcomes(SET_CHECKS, Z) == want
        Z = dataclasses.replace(Y, cells=tuple(list(Y.cells)))
        want = outcomes(SET_CHECKS, fresh(Z))
        shape_tests.clear()
        assert outcomes(SET_CHECKS, Z) == want
        assert want[0].holds and shape_tests == ["d", "s"]

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_changed_level_is_tested_as_fresh(self, name):
        # a set made one level down (the top tables then lie outside the
        # truncation) and one made a level up (its top tables are
        # missing), each against a copy without a record made the same way
        Y = recorded(name)
        for level, cells in (
            (Y.level - 1, Y.cells[:-1]),
            (Y.level + 1, (*Y.cells, ("new",))),
        ):
            Z = dataclasses.replace(Y, level=level, cells=cells)
            assert outcomes(SET_CHECKS, Z) == outcomes(SET_CHECKS, fresh(Z)), level

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_copies_and_operators_of_a_read_set(self, name):
        X = CERTIFIED[name]()
        Y = read_back(X)
        want = outcomes(SET_CHECKS, X)
        for Z in (copy.copy(Y), copy.deepcopy(Y)):
            assert outcomes(SET_CHECKS, Z) == want
        assert outcomes(SET_CHECKS, opposite(Y)) == outcomes(SET_CHECKS, opposite(X))
        top = X.level - 1
        assert outcomes(SET_CHECKS, truncate(Y, top)) == outcomes(SET_CHECKS, truncate(X, top))

    def test_only_the_reader_certifies(self):
        # the reader and a walk that holds record, and opposite and
        # truncate pass their input's record on, so that validate reports
        # on them what a walk of a fresh copy reports; nothing else that
        # makes a new set (a builder, sd, dataclasses.replace) carries a
        # record of its own, copy.copy shares its original's, and ==,
        # hash and repr do not see it
        X = CERTIFIED["words-L3"]()
        Y = read_back(X)
        assert "_as_read" not in vars(X)
        assert "_as_read" in vars(Y)
        for Y in (
            Y, checked(X, sset.validate), checked(read_back(X), criteria.check_segal)
        ):
            made = (operators.sd(Y), dataclasses.replace(Y), fresh(Y))
            assert ["_as_read" in vars(Z) for Z in made] == [False] * 3
            assert vars(copy.copy(Y))["_as_read"] is vars(Y)["_as_read"]
            for Z in (opposite(Y), truncate(Y, 2)):
                assert sset._current(Z) & {"identities"} == (
                    sset._current(Y) & {"identities"}
                )
                assert sset.validate(Z) == sset.validate(fresh(Z))
            Z = fresh(Y)
            assert Y == Z and repr(Y) == repr(Z)
            assert outcomes((hash,), Y) == outcomes((hash,), Z)

    def test_record_of_an_older_layout_is_not_read(self):
        # a record kept as a plain tuple, as an older version of sset
        # kept it and a set or map pickled then still carries: (cells,
        # tables, report) for a set, (source cells, target cells,
        # components) for a map.  It is not trusted, even with a holding
        # report on a set whose identities fail, and no check raises
        # anything a fresh copy does not
        X = CERTIFIED["words-L3"]()
        faces = {**X.faces, (2, 0): (0,) * len(X.cells[2])}
        X = TruncatedSSet(X.level, X.cells, faces, dict(X.degeneracies))
        tables = (*X.faces.values(), *X.degeneracies.values())
        holding = sset.CheckReport(holds=True, checked_level=X.level, squares_checked=1)
        want = outcomes(SET_CHECKS, fresh(X))
        assert not want[0].holds
        for report in (None, holding):
            object.__setattr__(X, "_as_read", (X.cells, tables, report))
            assert outcomes(SET_CHECKS, X) == want
        built = builders.length_map(builders.bounded_words(("a", "b"), 2), 3)
        m = read_map_back(built)
        object.__setattr__(m, "_as_read", tuple(vars(m)["_as_read"]))
        assert outcomes(MAP_CHECKS, m) == outcomes(MAP_CHECKS, built)

    @pytest.mark.parametrize("change", sorted(TABLE_CHANGES))
    def test_changed_component_is_tested_as_fresh(self, change):
        # the components are a tuple, which refuses the change; a map made
        # with the changed component is tested as one built with it on
        # ends without a record
        m = read_map_back(builders.length_map(builders.bounded_words(("a", "b"), 2), 3))
        components = list(m.components)
        n = m.shared_level
        components[n] = TABLE_CHANGES[change](components[n], len(m.target.cells[n]))
        with pytest.raises(TypeError):
            m.components[n] = components[n]
        changed = dataclasses.replace(m, components=tuple(components))
        want = outcomes(
            MAP_CHECKS, SimplicialMap(fresh(m.source), fresh(m.target), tuple(components))
        )
        defect = change != "equal"
        assert want[0][0] == "StructuralError" if defect else want[0].holds, want[0]
        assert outcomes(MAP_CHECKS, changed) == want

    @pytest.mark.parametrize("change", sorted(TABLE_CHANGES) + ["deleted"])
    def test_changed_end_of_a_read_map_is_tested_as_fresh(self, change):
        # the change in an end's faces raises TypeError and leaves the map
        # as it was read; a map made with a source changed so is tested as
        # one built with copies of its ends without a record
        built = builders.length_map(builders.bounded_words(("a", "b"), 2), 3)
        m = read_map_back(built)
        want = outcomes(MAP_CHECKS, built)
        assert outcomes(MAP_CHECKS, m) == want
        faces = m.source.faces
        key = max(faces)
        if change == "deleted":
            changed = {k: t for k, t in faces.items() if k != key}
            with pytest.raises(TypeError):
                del faces[key]
        else:
            size = len(m.source.cells[key[0] - 1])
            changed = {**faces, key: TABLE_CHANGES[change](faces[key], size)}
            with pytest.raises(TypeError):
                faces[key] = changed[key]
        assert outcomes(MAP_CHECKS, m) == want
        source = dataclasses.replace(m.source, faces=changed)
        want = outcomes(MAP_CHECKS, SimplicialMap(fresh(source), fresh(m.target), m.components))
        defect = change != "equal"
        assert want[0][0] == "StructuralError" if defect else want[0].holds, want[0]
        assert outcomes(MAP_CHECKS, dataclasses.replace(m, source=source)) == want

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_read_map_keeps_its_certificate(self, end, component_tests):
        # check_culf walks both ends of a read map, so the map keeps its
        # component certificate and remembers its naturality; a table of
        # one end cannot be replaced, and a map made with an end rebuilt
        # from equal new tuples has no record, so every check shape-tests
        # its components.  Each check gives what a fresh copy gives
        built = builders.length_map(builders.bounded_words(("a", "b"), 2), 3)
        m = read_map_back(built)
        record = sset._current(m)
        assert record == set()
        want = outcomes(MAP_CHECKS, built)
        component_tests.clear()
        for _ in range(2):
            assert outcomes(MAP_CHECKS, m) == want
        assert component_tests == []
        assert sset._current(m) is record and record == {"naturality"}
        assert {"identities"} <= sset._current(m.source)
        assert {"identities"} <= sset._current(m.target)
        X = getattr(m, end)
        key = max(X.faces)
        with pytest.raises(TypeError):
            X.faces[key] = tuple(list(X.faces[key]))
        assert outcomes(MAP_CHECKS, m) == want and component_tests == []
        rebuilt = dataclasses.replace(
            m, **{end: dataclasses.replace(X, faces={**X.faces, key: tuple(list(X.faces[key]))})}
        )
        want = outcomes(MAP_CHECKS, SimplicialMap(fresh(m.source), fresh(m.target), m.components))
        component_tests.clear()
        assert outcomes(MAP_CHECKS, rebuilt) == want
        assert component_tests == [rebuilt] * len(MAP_CHECKS)
        assert sset._current(rebuilt) is None
