"""The index-table core against the name-keyed representation it replaced.

validate composes whole index tables and finds the failing cell only on
a mismatch; reference_validate in oracles.py checks name-keyed tables
cell by cell.  On every corpus instance with one table entry perturbed
or one cell duplicated, the two must give the same report or the same
StructuralError message.  validate_map and reference_validate_map must
agree likewise on the corpus maps with one component perturbed.  validate
walks bytes copies of the tables when every level holds at most 256
cells and the tuples otherwise; on sets whose largest level sits at that
boundary, unperturbed or with one index entry planted, it must still
agree with reference_validate, and the encoding it takes is pinned, as
is that each checker converts each table once, in its validation.
validate_map checks naturality in the encoding its two ends select
together; maps on the boundary sets, one of them from a 256-cell set
into a 257-cell one, must agree with the references on each side, and
check_culf with reference_check_culf.  A fault planted in the first,
middle or last entry of each table of a level-4 free decomposition and
of a level-4 nerve, at every truncation, and of each component of their
decalage projections and length map, must give the references' report.
Files must round-trip byte for byte, in the text json's own indenting
encoder gives.
"""

import dataclasses
import pickle
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import boundary_sets, chain_category, corpus, direct_sweep_shape, point
from decompspace import builders, criteria, operators, serialize, sset
from decompspace.sset import (
    SimplicialMap,
    StructuralError,
    TruncatedSSet,
    truncate,
    validate,
    validate_map,
)
from oracles import (
    from_named,
    identity_map,
    named_sset,
    reference_check_culf,
    reference_dumps,
    reference_validate,
    reference_validate_map,
)

INSTANCES = corpus()
CORE = settings(max_examples=300, deadline=None, derandomize=True)
MUTATIONS = ["entry", "entry", "entry", "dangling", "undefined", "unknown", "duplicate"]


@st.composite
def mutated(draw):
    """A corpus instance in name-keyed form with one defect planted.

    entry: one table entry sent to another cell of the right level;
    dangling: one entry sent to a name that is no cell; undefined: one
    entry removed; unknown: one entry added for a name that is no cell;
    duplicate: one cell listed a second time at its level.
    """
    Y = named_sset(draw(st.sampled_from(INSTANCES)).X)
    tables = [
        (kind, key, target)
        for kind, group, step in (("d", Y.faces, -1), ("s", Y.degeneracies, 1))
        for key in sorted(group)
        for target in [Y.cells[key[0] + step]]
        if Y.cells[key[0]] and target
    ]
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "duplicate" or not tables:
        levels = [n for n in range(Y.level + 1) if Y.cells[n]]
        n = draw(st.sampled_from(levels))
        cells = list(Y.cells[n])
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(cells)))
        Y.cells = Y.cells[:n] + (tuple(cells),) + Y.cells[n + 1 :]
        return Y
    kind, key, target = draw(st.sampled_from(tables))
    table = (Y.faces if kind == "d" else Y.degeneracies)[key]
    cell = draw(st.sampled_from(Y.cells[key[0]]))
    if mutation == "entry":
        table[cell] = draw(st.sampled_from(target))
    elif mutation == "dangling":
        table[cell] = "ghost"
    elif mutation == "undefined":
        del table[cell]
    else:
        table["ghost"] = draw(st.sampled_from(target))
    return Y


def outcome(check, Y):
    try:
        return check(Y)
    except StructuralError as exc:
        return ("StructuralError", str(exc))


class TestValidateDifferential:
    @CORE
    @given(mutated())
    def test_matches_reference(self, Y):
        assert outcome(lambda Y: validate(from_named(Y)), Y) == outcome(
            reference_validate, Y
        )

    @pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
    def test_unperturbed_corpus_matches_reference(self, inst):
        assert validate(inst.X) == reference_validate(named_sset(inst.X))


def corpus_maps():
    """The identity, both decalage projections and, for the free
    instances, the length map of every corpus instance."""
    maps = []
    for inst in INSTANCES:
        maps.append(identity_map(inst.X))
        if inst.X.level >= 1:
            maps += [operators.dec_top(inst.X)[1], operators.dec_bot(inst.X)[1]]
        if inst.ofc is not None:
            maps.append(builders.length_map(inst.ofc, inst.X.level))
    return maps


MAPS = corpus_maps()
MAP_MUTATIONS = ["entry", "entry", "entry", "dangling", "length", "non-int", "bool"]


@st.composite
def mutated_map(draw):
    """A corpus map with one component perturbed.

    entry: one entry sent to another target cell; dangling: one entry
    sent past either end of the target level; length: one entry dropped
    or one added; non-int: one entry replaced by a str, a float or None;
    bool: one entry replaced by a bool.
    """
    m = draw(st.sampled_from(MAPS))
    levels = [n for n in range(m.shared_level + 1) if m.source.cells[n]]
    n = draw(st.sampled_from(levels))
    comp, size = list(m.components[n]), len(m.target.cells[n])
    j = draw(st.integers(0, len(comp) - 1))
    mutation = draw(st.sampled_from(MAP_MUTATIONS))
    if mutation == "entry":
        comp[j] = draw(st.integers(0, size - 1))
    elif mutation == "dangling":
        comp[j] = draw(st.sampled_from([-1, size, size + 3]))
    elif mutation == "length":
        extra = [draw(st.integers(0, size - 1))] if draw(st.booleans()) else []
        comp = comp + extra if extra else comp[:-1]
    elif mutation == "non-int":
        comp[j] = draw(st.sampled_from(["0", 0.0, None]))
    else:
        comp[j] = draw(st.booleans())
    components = m.components[:n] + (tuple(comp),) + m.components[n + 1 :]
    return SimplicialMap(m.source, m.target, components)


def boundary_maps() -> dict[str, SimplicialMap]:
    """Maps on the boundary sets: the identity and both decalage
    projections of each, the inclusion of each into the next one up
    (largest-256 into largest-257 has its ends on either side of the
    256-cell rule), and largest-257 onto largest-256, its last isolated
    vertex sent to the first."""
    sets, maps = boundary_sets(), {}
    for name, X in sets.items():
        maps[f"{name}-identity"] = identity_map(X)
        maps[f"{name}-dec_top"] = operators.dec_top(X)[1]
        maps[f"{name}-dec_bot"] = operators.dec_bot(X)[1]
    for a, b in ((255, 256), (256, 257)):
        X, Y = sets[f"largest-{a}"], sets[f"largest-{b}"]
        components = tuple(tuple(range(len(cs))) for cs in X.cells)
        maps[f"{a}-into-{b}"] = SimplicialMap(X, Y, components)
    X, Y = sets["largest-257"], sets["largest-256"]
    first_point = [cs.index("pt0") for cs in Y.cells]
    components = tuple(
        tuple(range(len(cs))) + (first,) for cs, first in zip(Y.cells, first_point)
    )
    maps["257-onto-256"] = SimplicialMap(X, Y, components)
    return maps


BOUNDARY_MAPS = boundary_maps()


def component_mutants(m: SimplicialMap):
    """m with its top nonempty component perturbed, its last entry in
    each way mutated_map draws; none when every component is empty."""
    levels = [n for n in range(m.shared_level + 1) if m.source.cells[n]]
    if not levels:
        return
    n = levels[-1]
    comp, size = m.components[n], len(m.target.cells[n])
    last = [(comp[-1] + 1) % size, -1, size, "0", 0.0, None, True, False]
    changed = [comp[:-1] + (value,) for value in last]
    for comp in [*changed, comp[:-1], comp + (0,)]:
        yield SimplicialMap(m.source, m.target, m.components[:n] + (comp,))


class TestValidateMapDifferential:
    @CORE
    @given(mutated_map())
    def test_matches_reference(self, m):
        assert outcome(validate_map, m) == outcome(reference_validate_map, m)

    def test_unperturbed_maps_match_reference(self):
        for m in MAPS:
            report = validate_map(m)
            assert report.holds and report == reference_validate_map(m)

    @pytest.mark.parametrize("name", sorted(BOUNDARY_MAPS))
    def test_boundary_maps_match_reference(self, name):
        # on bytes, on tuples, and from a 256-cell set into a 257-cell
        # one; the maps as they are through validate_map and check_culf,
        # then with one component perturbed through validate_map
        m = BOUNDARY_MAPS[name]
        report = validate_map(m)
        assert report.holds and report == reference_validate_map(m)
        assert criteria.check_culf(m) == reference_check_culf(m)
        for mutant in component_mutants(m):
            assert outcome(validate_map, mutant) == outcome(
                reference_validate_map, mutant
            )

    def test_map_across_the_rule_is_checked_on_tuples(self, monkeypatch):
        # the 257-cell target puts both ends and the components on tuples;
        # fresh copies of the ends carry no record of an earlier check
        m = BOUNDARY_MAPS["256-into-257"]
        m = SimplicialMap(*map(dataclasses.replace, (m.source, m.target)), m.components)
        calls = spy_encodings(monkeypatch)
        assert validate_map(m).holds
        ends = [len(X.faces) + len(X.degeneracies) for X in (m.source, m.target)]
        assert calls == {"_TUPLES": sum(ends) + len(m.components)}


class TestIndexTableShape:
    def test_short_table(self):
        X = point(1)
        faces = {**X.faces, (1, 0): ()}
        with pytest.raises(StructuralError, match="d_0 at level 1 is not a tuple"):
            validate(TruncatedSSet(1, X.cells, faces, X.degeneracies))

    def test_out_of_range_index(self):
        X = point(1)
        faces = {**X.faces, (1, 1): (5,)}
        with pytest.raises(StructuralError, match="sends '\\*' to dangling index 5"):
            validate(TruncatedSSet(1, X.cells, faces, X.degeneracies))

    def test_name_keyed_table_rejected(self):
        X = point(1)
        faces = {**X.faces, (1, 0): {"*": "*"}}
        with pytest.raises(StructuralError, match="not a tuple"):
            validate(TruncatedSSet(1, X.cells, faces, X.degeneracies))

    def test_non_integer_entry(self):
        X = point(1)
        faces = {**X.faces, (1, 0): ("0",)}
        with pytest.raises(StructuralError, match="not an int"):
            validate(TruncatedSSet(1, X.cells, faces, X.degeneracies))

    def test_dangling_component_index(self):
        X = point(1)
        with pytest.raises(StructuralError, match="component at level 1"):
            validate_map(SimplicialMap(X, X, ((0,), (1,))))

    @pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
    def test_from_names_inverts_the_name_accessors(self, inst):
        assert from_named(named_sset(inst.X)) == inst.X


BOUNDARY = boundary_sets()
#: One defect in an index table: another cell, past the end of the
#: target level, at 256, negative, a bool, a float, one entry short, or
#: the whole table missing.
BYTE_MUTATIONS = [
    "entry", "dangling-size", "dangling-256", "negative", "bool", "non-int", "short",
    "missing",
]


def planted(table, mutation: str, size: int):
    """table, into a level of size cells, with its last entry changed or
    dropped as mutation says; an empty table gains the entry instead."""
    if mutation == "short":
        return table[:-1]
    value = {
        "entry": size - 1 if table and table[-1] == 0 else 0,
        "dangling-size": size,
        "dangling-256": 256,
        "negative": -1,
        "bool": True,
        "non-int": 0.0,
    }[mutation]
    return table[:-1] + (value,)


def mutants(X: TruncatedSSet, mutation: str):
    """X with one table planted with mutation, for each table in turn."""
    for kind, tables, step in (("d", X.faces, -1), ("s", X.degeneracies, 1)):
        for key in sorted(tables):
            changed = dict(tables)
            if mutation == "missing":
                del changed[key]
            else:
                changed[key] = planted(tables[key], mutation, len(X.cells[key[0] + step]))
            faces, degeneracies = (
                (changed, X.degeneracies) if kind == "d" else (X.faces, changed)
            )
            yield (kind, key), TruncatedSSet(X.level, X.cells, faces, degeneracies)


class TestByteBoundary:
    @pytest.mark.parametrize("name", sorted(BOUNDARY))
    def test_unperturbed_matches_reference(self, name):
        X = BOUNDARY[name]
        report = validate(X)
        assert report.holds and report == reference_validate(X)

    @pytest.mark.parametrize("mutation", BYTE_MUTATIONS)
    @pytest.mark.parametrize("name", sorted(BOUNDARY))
    def test_mutants_match_reference(self, name, mutation):
        # each mutant as built, and made from a copy of the set after a
        # check held on it, whose record of that walk it does not carry:
        # the next check and validate give the mutant's own outcome.  The
        # walked copy refuses the mutation in place and still passes
        X = BOUNDARY[name]
        Z = TruncatedSSet(X.level, X.cells, dict(X.faces), dict(X.degeneracies))
        assert criteria.check_upper_2segal(Z).holds
        for where, Y in mutants(X, mutation):
            want = outcome(validate, Y)
            assert want == outcome(reference_validate, Y), where
            kind, key = where
            field = "faces" if kind == "d" else "degeneracies"
            own, planted = getattr(Z, field), getattr(Y, field)
            with pytest.raises(TypeError):
                own.pop(key)
            with pytest.raises(TypeError):
                own[key] = planted.get(key)
            M = dataclasses.replace(Z, **{field: planted})
            segal = outcome(criteria.check_segal, Y)
            assert outcome(criteria.check_segal, M) == segal, where
            assert outcome(validate, M) == want, where
            assert validate(Z).holds, where


#: A level-4 free decomposition, walked on tuples at level 4 (its top
#: level holds 383 cells) and on bytes below, and a level-4 nerve,
#: walked on bytes.
PLANTED = {
    inst.name: inst
    for inst in INSTANCES
    if inst.name in ("free-graph3-L4", "nerve-chain4-L4")
}


def shifted(table, size: int):
    """table with its first, middle and then last entry sent to the next
    cell of its target level of size cells, each in turn."""
    for j in sorted({0, len(table) // 2, len(table) - 1}):
        yield j, table[:j] + ((table[j] + 1) % size,) + table[j + 1 :]


class TestPlantedFaults:
    """validate walks runs of equations that share a table; a fault in the
    first, middle or last entry of each table, and of each component of a
    map, fails at the first equation of the walk that reads it, with the
    report or error the cell-by-cell references give."""

    @pytest.mark.parametrize("level", range(1, 5))
    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_shifted_tables_match_reference(self, name, level):
        # truncated to each level, so that the top tables, which only the
        # last families read, are planted at every level too
        X = truncate(PLANTED[name].X, level)
        for kind, tables, step in (("d", X.faces, -1), ("s", X.degeneracies, 1)):
            for key in sorted(tables):
                for j, table in shifted(tables[key], len(X.cells[key[0] + step])):
                    changed = {**tables, key: table}
                    faces, degeneracies = (
                        (changed, X.degeneracies) if kind == "d" else (X.faces, changed)
                    )
                    Y = TruncatedSSet(X.level, X.cells, faces, degeneracies)
                    where = kind, key, j
                    assert outcome(validate, Y) == outcome(reference_validate, Y), where

    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_shifted_components_match_reference(self, name):
        inst = PLANTED[name]
        maps = [operators.dec_top(inst.X)[1], operators.dec_bot(inst.X)[1]]
        if inst.ofc is not None:
            maps.append(builders.length_map(inst.ofc, inst.X.level))
        for m in maps:
            for n, comp in enumerate(m.components):
                for j, c in shifted(comp, len(m.target.cells[n])):
                    components = m.components[:n] + (c,) + m.components[n + 1 :]
                    mutant = SimplicialMap(m.source, m.target, components)
                    assert outcome(validate_map, mutant) == outcome(
                        reference_validate_map, mutant
                    ), (n, j)


def spy_encodings(monkeypatch) -> Counter:
    """Count the tables sset shape-tests, through its one shape test
    _index_problem, by the encoding of sset its call chose for them."""
    calls, chosen = Counter(), [None]
    encoding, index_problem = sset._encoding, sset._index_problem

    def choosing(*sets):
        code = encoding(*sets)
        chosen[0] = "_BYTES" if code is sset._BYTES else "_TUPLES"
        return code

    def counted(*args):
        calls[chosen[0]] += 1
        return index_problem(*args)

    monkeypatch.setattr(sset, "_encoding", choosing)
    monkeypatch.setattr(sset, "_index_problem", counted)
    return calls


@pytest.mark.parametrize(
    "X, largest, encoding",
    [
        (direct_sweep_shape(), 56, "_BYTES"),
        (BOUNDARY["largest-256"], 256, "_BYTES"),
        (BOUNDARY["largest-257"], 257, "_TUPLES"),
    ],
    ids=["56", "256", "257"],
)
def test_validate_encoding(monkeypatch, X, largest, encoding):
    # every table goes through the one encoding the largest level
    # selects, on a fresh copy of X, which carries no record of a walk;
    # validate on the same copy again returns the walk's report untested,
    # counted in closed form
    assert max(map(len, X.cells)) == largest
    X = dataclasses.replace(X)
    calls = spy_encodings(monkeypatch)
    report = validate(X)
    assert report.holds
    assert calls == {encoding: len(X.faces) + len(X.degeneracies)}
    calls.clear()
    assert validate(X) == report and calls == {}


@pytest.mark.parametrize(
    "X, encoding",
    [
        (direct_sweep_shape(), "_BYTES"),
        (BOUNDARY["largest-256"], "_BYTES"),
        (BOUNDARY["largest-257"], "_TUPLES"),
    ],
    ids=["56", "256", "257"],
)
def test_checkers_convert_each_table_once(monkeypatch, X, encoding):
    # a checker's squares read the tables its validation converted: one
    # conversion per table per call, and for culf one per component too,
    # each on a fresh copy of X, which carries no record of a walk; a
    # second checker on the same copy shape-tests no table
    calls = spy_encodings(monkeypatch)
    tables = len(X.faces) + len(X.degeneracies)
    for check in (
        criteria.check_segal,
        criteria.check_decomposition,
        criteria.check_decomposition_direct,
        criteria.check_2segal_polygonal,
    ):
        calls.clear()
        Y = dataclasses.replace(X)
        assert check(Y).holds != (check is criteria.check_segal)
        assert calls == {encoding: tables}, check.__name__
    calls.clear()
    assert not criteria.check_segal(Y).holds
    assert calls == {}
    assert criteria.check_culf(identity_map(dataclasses.replace(X))).holds
    assert calls == {encoding: tables + len(X.cells)}


def walked_decalage():
    """A set on which every family is proven, its top décalage and its
    projection."""
    X = builders.nerve(chain_category(3), 3)
    assert criteria.check_segal(X).holds
    assert criteria.check_decomposition_direct(X).holds
    return (X, *operators.dec_top(X))


def assert_checks_as_fresh(X, Y, f):
    set_checks = (validate, criteria.check_segal, criteria.check_decomposition)
    for check in set_checks:
        for Z in (X, Y):
            assert outcome(check, Z) == outcome(check, dataclasses.replace(Z))
    fresh = SimplicialMap(dataclasses.replace(Y), dataclasses.replace(X), f.components)
    for check in (validate_map, criteria.check_culf):
        assert outcome(check, f) == outcome(check, fresh)


def assert_read_only(*sets):
    for X in sets:
        for tables in (X.faces, X.degeneracies):
            assert type(tables) is sset._ReadOnly
            with pytest.raises(TypeError):
                tables[(0, 0)] = ()


#: The fields of a set's and of a map's record as older versions of sset
#: kept them, in named tuples sset._SetRecord and sset._MapRecord; the
#: version before that kept the first three and the first six.
OLD_SET_FIELDS = ("cells", "tables", "report", "families")
OLD_MAP_FIELDS = (
    "source_cells", "target_cells", "components", "source", "target", "report", "families"
)


def pickled_with_records(X, Y, f, records: tuple, classes: dict) -> bytes:
    """X, Y and f pickled as an older version of sset pickled them: with
    records, one each, of the named tuple classes that sset then defined,
    and their tables as plain dicts."""
    for x, record in zip((X, Y, f), records):
        object.__setattr__(x, "_as_read", record)
    reduce = sset._ReadOnly.__reduce__
    sset._ReadOnly.__reduce__ = lambda tables: (dict, (dict(tables),))
    for name, cls in classes.items():
        setattr(sset, name, cls)
    try:
        return pickle.dumps((X, Y, f))
    finally:
        sset._ReadOnly.__reduce__ = reduce
        for name in classes:
            delattr(sset, name)


def pickled_in_old_layout(X, Y, f, set_width: int, map_width: int) -> bytes:
    """walked_decalage's X, Y and f pickled with the records an older
    version of sset would have kept on them, of the first set_width and
    map_width fields: the cells and tables proven, the report of the
    walk, the square families, and for the projection the records of
    both ends and its culf squares."""
    module = sset.__name__
    SetRecord = namedtuple("_SetRecord", OLD_SET_FIELDS[:set_width], module=module)
    MapRecord = namedtuple("_MapRecord", OLD_MAP_FIELDS[:map_width], module=module)
    old = []
    for Z in (X, Y):
        tables = (*Z.faces.values(), *Z.degeneracies.values())
        fields = (Z.cells, tables, validate(Z), sset._current(Z) - {"identities"})
        old.append(SetRecord(*fields[:set_width]))
    culf = frozenset(sset._current(f) - {"naturality"})
    fields = (Y.cells, X.cells, f.components, old[1], old[0], validate_map(f), culf)
    records = (*old, MapRecord(*fields[:map_width]))
    classes = {"_SetRecord": SetRecord, "_MapRecord": MapRecord}
    return pickled_with_records(X, Y, f, records, classes)


def pickled_with_parts(X, Y, f) -> bytes:
    """walked_decalage's X, Y and f pickled with the records the version
    before read-only tables kept: a named tuple sset._Record(parts,
    facts), whose parts are a set's cells and tables, or a map's
    components and the records of its ends."""
    Record = namedtuple("_Record", ("parts", "facts"), module=sset.__name__)
    old = [
        Record((Z.cells, *Z.faces.values(), *Z.degeneracies.values()), sset._current(Z))
        for Z in (X, Y)
    ]
    records = (*old, Record((f.components, old[1], old[0]), sset._current(f)))
    return pickled_with_records(X, Y, f, records, {"_Record": Record})


def test_remembered_objects_pickle():
    # a walked set, its décalage and the projection come back from
    # pickle with read-only tables and the facts proven on them, and
    # each check gives what a copy with no record gives
    X, Y, f = pickle.loads(pickle.dumps(walked_decalage()))
    assert_read_only(X, Y, f.source, f.target)
    assert sset._current(X) == {"identities", "segal", "unit", "upper", "lower"}
    assert sset._current(Y) == {"identities", "segal"}
    assert sset._current(f) == {"naturality", "face", "degeneracy"}
    assert_checks_as_fresh(X, Y, f)
    # records pickled in the older layouts name classes that sset no
    # longer defines, so such a pickle fails to load, naming the class
    for pickled, name in (
        (pickled_in_old_layout(*walked_decalage(), 4, 7), "_SetRecord"),
        (pickled_in_old_layout(*walked_decalage(), 3, 6), "_SetRecord"),
        (pickled_with_parts(*walked_decalage()), "_Record"),
    ):
        with pytest.raises(AttributeError, match=f"attribute '{name}'"):
            pickle.loads(pickled)


def test_a_record_that_is_not_a_set_is_never_read():
    # whatever put it there, a record of any other type, even one that
    # holds the very facts proven, is not read: each set is walked afresh
    # and proves its families anew, and the projection is tested afresh
    X, Y, f = walked_decalage()
    for x in (X, Y, f):
        object.__setattr__(x, "_as_read", frozenset(sset._current(x)))
        assert sset._current(x) is None
    assert_checks_as_fresh(X, Y, f)
    assert sset._current(X) == {"identities", "segal", "upper", "lower"}
    assert sset._current(Y) == {"identities", "segal", "unit"}
    assert sset._current(f) is None


def serialized_forms(inst):
    """The sset of a corpus instance and every simplicial map derived from it."""
    forms = [serialize.sset_to_obj(inst.X)]
    if inst.X.level >= 1:
        for dec in (operators.dec_top, operators.dec_bot):
            forms.append(serialize.smap_to_obj(dec(inst.X)[1]))
    if inst.ofc is not None:
        forms.append(serialize.smap_to_obj(builders.length_map(inst.ofc, inst.X.level)))
    return forms


READERS = {
    "sset": (serialize.sset_from_obj, serialize.sset_to_obj),
    "smap": (serialize.smap_from_obj, serialize.smap_to_obj),
}


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_round_trip_bytes(inst):
    for obj in serialized_forms(inst):
        text = serialize.dumps(obj)
        read, write = READERS[obj["kind"]]
        assert serialize.dumps(write(read(serialize.loads(text)))) == text


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_writer_matches_json(inst):
    forms = serialized_forms(inst)
    if inst.ofc is not None:
        forms.append(serialize.ofc_to_obj(inst.ofc))
    for obj in forms:
        assert serialize.dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.name)
def test_written_file_is_dumps(inst, tmp_path):
    # write_file streams the pieces dumps joins
    path = tmp_path / "x.json"
    for obj in serialized_forms(inst):
        serialize.write_file(str(path), obj)
        assert path.read_bytes() == serialize.dumps(obj).encode()
