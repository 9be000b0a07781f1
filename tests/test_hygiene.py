"""Source hygiene, checked with the standard library's ast in place of a
linter: every module-level import of the package is used in its module,
every private module-level definition is read somewhere in the package,
one loop of criteria decides squares, its walks read the tables
validate converted rather than a set's own, one loop of sset walks
the equations of validate and map naturality, and only serialize's
readers and sset's validation certify the tables they tested."""

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


def test_every_private_definition_is_read():
    read = set().union(*map(loaded, TREES.values()))
    defined = [
        (module, name)
        for module, tree in sorted(TREES.items())
        for name in private_definitions(tree)
    ]
    assert len(defined) > 70
    assert [(module, name) for module, name in defined if name not in read] == []


#: The names through which a square is decided: the public predicate, the
#: encodings' decide operation and the decisions behind it.
DECISIONS = {"pullback_holds", "decide", "_tuple_holds", "_byte_holds"}


def test_one_loop_decides_squares():
    # in criteria, only _first_failure reads a square decision, so that a
    # second decision loop, for one encoding or for one family, fails here
    readers = set()
    for node in TREES["criteria.py"].body:
        for inner in ast.walk(node):
            name = getattr(inner, "id", None) or getattr(inner, "attr", None)
            if name in DECISIONS and isinstance(inner.ctx, ast.Load):
                readers.add(getattr(node, "name", None))
    assert readers == {"_first_failure"}


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


#: The private attribute in which serialize's readers record the tables
#: they tested, sset's validation the report of a walk that held on
#: them, and sset's inheritance what an operator's output owes to its
#: input's record, for sset to trust while they are unchanged.
CERTIFICATE = "_as_read"


def test_only_the_readers_certify():
    # the set and map readers, sset's one validation entry and the two
    # sset functions through which opposite, truncate and the decalages
    # pass their input's record on set the record through
    # object.__setattr__; only sset reads it: the test of whether a set's
    # record is current, and the map naturality that reads a map's.  A
    # builder, sd or any other function that certified its own output
    # would fail here
    setters, readers = set(), set()
    for module, tree in TREES.items():
        for node in tree.body:
            where, set_here = (module, getattr(node, "name", None)), set()
            for inner in ast.walk(node):
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
    assert setters == {
        ("serialize.py", "sset_from_obj"),
        ("serialize.py", "smap_from_obj"),
        ("sset.py", "_proven"),
        ("sset.py", "_inherit"),
        ("sset.py", "_inherit_map"),
    }
    assert readers == {("sset.py", "_current"), ("sset.py", "_naturality")}
