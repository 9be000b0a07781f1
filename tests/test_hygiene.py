"""Source hygiene, checked with the standard library's ast in place of a
linter: every module-level import of the package is used in its module,
every private module-level definition is read somewhere in the package,
one loop of criteria decides squares and one driver reports them, its
walks read the tables validate converted rather than a set's own, one
function of sset shape-tests a table, one loop of sset walks the
equations of validate and map naturality, and one function of sset
writes the record of what was proven of an object, for serialize's
readers, sset's validation and the operators' inheritance, to which only
criteria's driver adds the square families it proves."""

import ast
from pathlib import Path

import pytest

import decompspace

MODULES = sorted(Path(decompspace.__file__).resolve().parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def module_level(body):
    """The statements of a module body, with those nested in if and try."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for h in node.handlers for stmt in h.body]
            yield from module_level(node.body + handlers + node.orelse + node.finalbody)


def loaded(tree) -> set[str]:
    """The names a tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def imports(tree):
    """The names the module-level imports of a tree bind."""
    for node in module_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def private_definitions(tree):
    """The private, not dunder, names a tree defines at module level."""
    for node in module_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (t for t in targets if t.startswith("_") and not t.startswith("__"))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    assert [name for name in imports(tree) if name not in loaded(tree)] == []


#: The functions that write, read or pass on a record.
RECORD_FUNCTIONS = (
    ("sset.py", "_certify"),
    ("sset.py", "_current"),
    ("sset.py", "_inherit"),
    ("sset.py", "_proven"),
    ("sset.py", "_naturality"),
    ("sset.py", "_valid_call"),
    ("operators.py", "dec_top"),
    ("operators.py", "dec_bot"),
)


def test_every_private_definition_is_read():
    read = set().union(*map(loaded, TREES.values()))
    defined = [
        (module, name)
        for module, tree in sorted(TREES.items())
        for name in private_definitions(tree)
    ]
    assert len(defined) > 70
    assert [(module, name) for module, name in defined if name not in read] == []
    # a record is its facts alone: nothing is left that kept the parts it
    # was proven of (_Record, _parts, _table_keys), and no record function
    # takes the records of a map's ends
    assert not {"_Record", "_parts", "_table_keys"} & {name for _, name in defined}
    for module, name in RECORD_FUNCTIONS:
        (node,) = (n for n in TREES[module].body if getattr(n, "name", None) == name)
        assert "ends" not in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]


#: The names through which a square is decided: the public predicate, the
#: encodings' decide operation and the decisions behind it.
DECISIONS = {"pullback_holds", "decide", "_tuple_holds", "_byte_holds"}


def called_in(tree, called: str) -> set:
    """The module-level definitions of tree that call the name called."""
    return {
        getattr(node, "name", None)
        for node in tree.body
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == called
    }


def test_one_loop_decides_squares():
    # in criteria, only _first_failure reads a square decision, so that a
    # second decision loop, for one encoding or for one family, fails
    # here; and only the driver _decide, its budget's cut-off and the
    # iterated Segal check, which is no family of squares, build a
    # report, so that a certificate decided outside the driver fails too
    readers = set()
    for node in TREES["criteria.py"].body:
        for inner in ast.walk(node):
            name = getattr(inner, "id", None) or getattr(inner, "attr", None)
            if name in DECISIONS and isinstance(inner.ctx, ast.Load):
                readers.add(getattr(node, "name", None))
    assert readers == {"_first_failure"}
    assert called_in(TREES["criteria.py"], "CheckReport") == {
        "_decide", "_cut_off", "check_segal_iterated"
    }


def test_one_shape_test():
    # _index_problem is sset's one test of a table's shape, run by the
    # two functions that convert a set's tables and a map's components;
    # an encoding converts, and tests nothing
    assert called_in(TREES["sset.py"], "_index_problem") == {"_checked_tables", "_components"}
    (encoding,) = (n for n in TREES["sset.py"].body if getattr(n, "name", None) == "_Encoding")
    fields = [node.target.id for node in encoding.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["convert", "step", "operand", "identity", "decide"]


#: The attributes through which a set's own tables are read.
TABLE_READS = {
    "faces", "degeneracies", "face", "degeneracy", "face_names", "degeneracy_names"
}


def test_square_walks_read_the_call_rows():
    # in criteria, every walk, the iterated Segal check's spines among
    # them, reads the tables validate converted, held by the call, and
    # none reads a set's own tables (the class attribute
    # TruncatedSSet.degeneracy names an operator, not a table)
    readers = set()
    for node in TREES["criteria.py"].body:
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in TABLE_READS
                and isinstance(inner.ctx, ast.Load)
                and getattr(inner.value, "id", None) != "TruncatedSSet"
            ):
                readers.add(getattr(node, "name", None))
    assert readers == set()


#: The encoding operations through which a side of an equation is composed.
COMPOSITIONS = {"step", "identity"}

#: The nodes of a loop, a comprehension's among them.
LOOPS = (ast.For, ast.While, ast.comprehension)


def test_one_loop_walks_equations():
    # in sset, only _equations composes tables by an encoding's step or
    # identity, so that a second walk of the simplicial identities or of
    # map naturality fails here; the two that hand it their compiled
    # plans hold no loop of their own
    readers, bodies = set(), {}
    for node in TREES["sset.py"].body:
        bodies[getattr(node, "name", None)] = node
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in COMPOSITIONS
                and isinstance(inner.ctx, ast.Load)
            ):
                readers.add(getattr(node, "name", None))
    assert readers == {"_equations"}
    for name in ("_identities", "_naturality"):
        assert not any(isinstance(inner, LOOPS) for inner in ast.walk(bodies[name]))


#: The private attribute that holds an object's one record of what has
#: been proven of its very parts, for sset to trust while they are
#: unchanged.
CERTIFICATE = "_as_read"

#: The one function that writes it.
CERTIFY = "_certify"

#: The attribute of a check's call that holds the records of its sets.
FACTS = "facts"

#: The one function that reads a record.
CURRENT = "_current"

#: The methods through which a set, such as a record, grows or shrinks.
SET_MUTATORS = {"add", "update", "discard", "remove", "pop", "clear"}


def test_only_the_readers_certify():
    # one sset function sets the record, through object.__setattr__, and
    # only the set and map readers, sset's one validation entry and the
    # inheritance through which opposite, truncate and the decalages pass
    # their input's record on call it; only _current reads it, and only
    # validation, the map walk, opposite, truncate and the decalages
    # call that.  A builder, sd or any other function that certified its
    # own output would fail here.  A record's facts grow in place only
    # through criteria's driver _decide, for the families a whole walk or
    # certificate proves, and the two walks that add "identities" and
    # "naturality"; of a check's call, they are read by _decide, the
    # square walks and check_segal, and the culf check gets a map's from
    # _naturality
    setters, certifiers, readers = set(), set(), set()
    fact_writers, fact_readers, current_callers = set(), set(), set()
    for module, tree in TREES.items():
        for node in tree.body:
            where, set_here = (module, getattr(node, "name", None)), set()
            for inner in ast.walk(node):
                called = getattr(getattr(inner, "func", None), "id", None)
                if (
                    isinstance(inner, ast.Call)
                    and getattr(inner.func, "attr", None) in SET_MUTATORS
                    and FACTS in loaded(inner.func.value)
                ):
                    fact_writers.add(where)
                if isinstance(inner, ast.Call) and called == CERTIFY:
                    certifiers.add(where)
                if isinstance(inner, ast.Call) and called == CURRENT:
                    current_callers.add(where)
                if getattr(inner, "attr", None) == FACTS and isinstance(inner.ctx, ast.Load):
                    fact_readers.add(where)
                if (
                    isinstance(inner, ast.Call)
                    and ast.unparse(inner.func) == "object.__setattr__"
                    and len(inner.args) == 3
                    and getattr(inner.args[1], "value", None) == CERTIFICATE
                ):
                    setters.add(where)
                    set_here.add(inner.args[1])
            for inner in ast.walk(node):
                if inner not in set_here and CERTIFICATE in (
                    getattr(inner, "value", None),
                    getattr(inner, "attr", None),
                ):
                    readers.add(where)
    assert setters == {("sset.py", CERTIFY)}
    assert certifiers == {
        ("serialize.py", "sset_from_obj"),
        ("serialize.py", "smap_from_obj"),
        ("sset.py", "_proven"),
        ("sset.py", "_inherit"),
    }
    assert readers == {("sset.py", "_current")}
    # besides the driver, only the map walk adds a fact: "naturality",
    # to the map's own record
    assert fact_writers == {("criteria.py", "_decide"), ("sset.py", "_naturality")}
    assert current_callers == {
        ("sset.py", "_valid_call"),
        ("sset.py", "validate"),
        ("sset.py", "opposite"),
        ("sset.py", "truncate"),
        ("sset.py", "_naturality"),
        ("operators.py", "dec_top"),
        ("operators.py", "dec_bot"),
    }
    assert fact_readers == {
        ("criteria.py", "_decide"),
        ("criteria.py", "_pushout_squares"),
        ("criteria.py", "check_segal"),
    }
