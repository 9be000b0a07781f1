"""Deterministic JSON file formats for every object the CLI moves around.

Operator tables are stored as arrays of target indices (row j holds the
index of the image of the j-th cell), never as names, so files stay
compact and byte-stable: dumps(loads(text)) == text for every valid
file.  That is also the shape TruncatedSSet, SimplicialMap and
OuterFaceComplex hold their tables in, so reading checks each row and
keeps it as a tuple, and writing emits the rows as they are.  See
FORMATS.md for the documented schemas.

The check of each row is the shape test validate would run again (a
tuple of that many ints in range), so the set and the map readers
certify what they checked: each gives what it returns sset's one
private record (sset._certify), the set of facts proven of it, empty
here (no dataclass field, so ==, hash and repr do not see it).  A set's
tables are read-only and a map's components a tuple, so the objects the
reader tested are the ones sset later converts untested.  sset alone
adds facts to the record: its validation adds "identities" once the
simplicial identities hold (a map's naturality walk "naturality"), so
later checks skip the walk too, and the inheritance through which
opposite, truncate and the decalages give their output what the record
of their input proves (a set read and not yet walked gives outputs with
the shape test only).  A set that a builder, sd or dataclasses.replace
makes carries no record, and is tested as any other.

dumps writes the documented layout (two-space indents, sorted keys, a
final newline) directly, a whole row of indices or names at a time; the
text is the one json's indenting encoder gives, which the tests use as
the reference.  write_file writes the same pieces as they are made, so
no copy of the whole text is held, and read_file lets go of the raw
bytes once they are decoded.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from typing import TYPE_CHECKING, Any, Iterator

from .sset import SimplicialMap, Table, TruncatedSSet, _certify

if TYPE_CHECKING:
    # the readers that build these import them, so reading an sset or a
    # map never loads the builders
    from .builders import (
        DirectedGraph,
        FiniteCategory,
        OuterFaceComplex,
        PartialMonoid,
    )

FORMAT_VERSION = 1


class SchemaError(Exception):
    """The file violates a documented schema; the message points at the field."""


def _require(obj: dict, field: str, kind: type, where: str) -> Any:
    if field not in obj:
        raise SchemaError(f"{where}: missing field {field!r}")
    value = obj[field]
    # bool is a subclass of int, but JSON true/false is not a number
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where}: field {field!r} must be {kind.__name__}")
    return value


def _header(obj, kind: str, where: str) -> None:
    """Check that obj is an object of the given kind in this format version."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if _require(obj, "kind", str, where) != kind:
        raise SchemaError(f"{where}: kind must be {kind!r}")
    if _require(obj, "format_version", int, where) != FORMAT_VERSION:
        raise SchemaError(f"{where}: field 'format_version' must be {FORMAT_VERSION}")


_INT = {int}
_STR = {str}


def _table(row, size_from: int, size_to: int, where: str) -> Table:
    """A row of size_from indices into range(size_to), as a tuple."""
    if not isinstance(row, (list, tuple)) or len(row) != size_from:
        raise SchemaError(f"{where}: expected {size_from} indices")
    # bool is a subclass of int, but JSON true/false is not a number
    if row and (
        not _INT.issuperset(map(type, row)) or min(row) < 0 or max(row) >= size_to
    ):
        for j in row:
            if type(j) is not int:
                raise SchemaError(f"{where}: index {j!r} is not an integer")
            if not 0 <= j < size_to:
                raise SchemaError(f"{where}: index {j!r} out of range")
    return tuple(row)


def sset_to_obj(X: TruncatedSSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "sset",
        "level": X.level,
        "cells": [list(cs) for cs in X.cells],
        "faces": [
            [X.faces[(n, i)] for i in range(n + 1)] for n in range(1, X.level + 1)
        ],
        "degeneracies": [
            [X.degeneracies[(n, i)] for i in range(n + 1)] for n in range(X.level)
        ],
    }


def sset_from_obj(obj: dict, where: str = "sset") -> TruncatedSSet:
    _header(obj, "sset", where)
    level = _require(obj, "level", int, where)
    cells_raw = _require(obj, "cells", list, where)
    if level < 0 or len(cells_raw) != level + 1:
        raise SchemaError(f"{where}: cells must list levels 0..level")
    cells = _name_lists(cells_raw, "cells", where)
    faces_raw = _require(obj, "faces", list, where)
    degen_raw = _require(obj, "degeneracies", list, where)
    if len(faces_raw) != level:
        raise SchemaError(f"{where}: faces must cover levels 1..level")
    if len(degen_raw) != max(level, 0):
        raise SchemaError(f"{where}: degeneracies must cover levels 0..level-1")
    faces = _blocks(faces_raw, "faces", 1, -1, cells, where)
    degeneracies = _blocks(degen_raw, "degeneracies", 0, 1, cells, where)
    X = TruncatedSSet(level, cells, faces, degeneracies)
    # every table _table tested, and no fact, as no identity is walked yet
    _certify(X)
    return X


def _name_lists(raw: list, field: str, where: str) -> tuple[tuple[str, ...], ...]:
    """The cells of an sset or the grades of an ofc: lists of names."""
    for n, names in enumerate(raw):
        if not isinstance(names, list) or not _STR.issuperset(map(type, names)):
            raise SchemaError(f"{where}: {field}[{n}] must be a list of strings")
    return tuple(map(tuple, raw))


def _blocks(
    raw: list, field: str, first: int, step: int, cells: tuple, where: str
) -> dict:
    """The tables of an sset's faces (step -1) or degeneracies (step 1):
    raw[b] is the block of the n + 1 rows at level n = first + b, each
    sending cells[n] into cells[n + step]."""
    tables = {}
    for b, block in enumerate(raw):
        n = first + b
        if not isinstance(block, list) or len(block) != n + 1:
            raise SchemaError(f"{where}: {field}[{b}] must hold {n + 1} rows")
        for i in range(n + 1):
            at = f"{where}: {field}[{b}][{i}]"
            tables[(n, i)] = _table(block[i], len(cells[n]), len(cells[n + step]), at)
    return tables


def ofc_to_obj(A: OuterFaceComplex) -> dict:
    degrees = range(1, A.bound + 1)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "ofc",
        "bound": A.bound,
        "grades": [list(g) for g in A.grades],
        "d_bot": [A.d_bot[m] for m in degrees],
        "d_top": [A.d_top[m] for m in degrees],
    }


def ofc_from_obj(obj: dict, where: str = "ofc") -> OuterFaceComplex:
    from .builders import OuterFaceComplex

    _header(obj, "ofc", where)
    bound = _require(obj, "bound", int, where)
    grades_raw = _require(obj, "grades", list, where)
    if bound < 0 or len(grades_raw) != bound + 1:
        raise SchemaError(f"{where}: grades must list degrees 0..bound")
    grades = _name_lists(grades_raw, "grades", where)
    d_bot_raw = _require(obj, "d_bot", list, where)
    d_top_raw = _require(obj, "d_top", list, where)
    if len(d_bot_raw) != bound or len(d_top_raw) != bound:
        raise SchemaError(f"{where}: face tables must cover degrees 1..bound")
    d_bot, d_top = {}, {}
    for m in range(1, bound + 1):
        for tables, raw, name in (
            (d_bot, d_bot_raw, "d_bot"),
            (d_top, d_top_raw, "d_top"),
        ):
            at = f"{where}: {name}[{m - 1}]"
            tables[m] = _table(raw[m - 1], len(grades[m]), len(grades[m - 1]), at)
    return OuterFaceComplex(bound, grades, d_bot, d_top)


def smap_to_obj(f: SimplicialMap) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "smap",
        "source": sset_to_obj(f.source),
        "target": sset_to_obj(f.target),
        "components": list(f.components),
    }


def smap_from_obj(obj: dict, where: str = "smap") -> SimplicialMap:
    _header(obj, "smap", where)
    source = sset_from_obj(_require(obj, "source", dict, where), f"{where}: source")
    target = sset_from_obj(_require(obj, "target", dict, where), f"{where}: target")
    comp_raw = _require(obj, "components", list, where)
    shared = min(source.level, target.level)
    if len(comp_raw) != shared + 1:
        raise SchemaError(f"{where}: components must cover levels 0..{shared}")
    components = tuple(
        _table(
            comp_raw[n],
            len(source.cells[n]),
            len(target.cells[n]),
            f"{where}: components[{n}]",
        )
        for n in range(shared + 1)
    )
    m = SimplicialMap(source, target, components)
    # every component _table tested, as sset_from_obj's
    _certify(m)
    return m


def category_from_obj(obj: dict, where: str = "category") -> FiniteCategory:
    from .builders import FiniteCategory

    objects = tuple(_str_list(obj, "objects", where))
    morphisms = _arrow_list(obj, "morphisms", where)
    identities = _str_dict(obj, "identities", where)
    composition = _pair_table(obj, "composition", "[f, g, composite]", where)
    return FiniteCategory(objects, morphisms, identities, composition)


def partial_category_from_obj(obj: dict, where: str = "pcategory") -> FiniteCategory:
    """A partial category description, in the category format: the
    category reader with its own default where."""
    return category_from_obj(obj, where)


def pmonoid_from_obj(obj: dict, where: str = "pmonoid") -> PartialMonoid:
    from .builders import PartialMonoid

    carrier = tuple(_str_list(obj, "carrier", where))
    unit = _require(obj, "unit", str, where)
    product = _pair_table(obj, "product", "[x, y, xy]", where)
    return PartialMonoid(carrier, unit, product)


def graph_from_obj(obj: dict, where: str = "graph") -> DirectedGraph:
    from .builders import DirectedGraph

    vertices = tuple(_str_list(obj, "vertices", where))
    edges = _arrow_list(obj, "edges", where)
    return DirectedGraph(vertices, edges)


def _str_list(obj: dict, field: str, where: str) -> list[str]:
    raw = _require(obj, field, list, where)
    if not all(isinstance(x, str) for x in raw):
        raise SchemaError(f"{where}: field {field!r} must be a list of strings")
    return raw


def _triples(obj: dict, field: str, shape: str, where: str) -> list[tuple]:
    """The rows of a list field, each a list of three strings."""
    rows = _require(obj, field, list, where)
    for r, row in enumerate(rows):
        if not (
            isinstance(row, list) and len(row) == 3 and _STR.issuperset(map(type, row))
        ):
            raise SchemaError(f"{where}: {field}[{r}] must be {shape}, three strings")
    return [tuple(row) for row in rows]


def _arrow_list(obj: dict, field: str, where: str):
    return tuple(_triples(obj, field, "[name, source, target]", where))


def _str_dict(obj: dict, field: str, where: str) -> dict[str, str]:
    raw = _require(obj, field, dict, where)
    for k, v in raw.items():
        if not isinstance(v, str):
            raise SchemaError(f"{where}: field {field!r} must map strings to strings")
    return dict(raw)


def _pair_table(
    obj: dict, field: str, shape: str, where: str
) -> dict[tuple[str, str], str]:
    """The [x, y, value] rows of a list field keyed by the pair (x, y),
    which only one row may give."""
    table: dict[tuple[str, str], str] = {}
    for r, (x, y, value) in enumerate(_triples(obj, field, shape, where)):
        if (x, y) in table:
            raise SchemaError(f"{where}: {field}[{r}] repeats the pair {[x, y]!r}")
        table[(x, y)] = value
    return table


_encode_str = json.encoder.encode_basestring_ascii


def dumps(obj: dict) -> str:
    """obj as JSON with two-space indents and sorted keys, plus a newline.

    The text is exactly what json's own indenting encoder writes, but
    built by joining whole rows: that encoder writes every element of an
    indented list in pure Python, and a file is mostly rows of indices.
    Keys must be strings, as in every format.
    """
    return "".join(_encode(obj, "\n")) + "\n"


def _encode(value, newline: str) -> Iterator[str]:
    """The pieces of value as json writes it where the line break before
    its own closing bracket is newline: a line feed and the indent of
    that line.  A row of ints or strings is one piece."""
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(value.items()):
            yield sep + _encode_str(k) + ": "
            yield from _encode(v, inner)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = newline + "  "
        if _INT.issuperset(map(type, value)):
            items = map(int.__repr__, value)
        elif _STR.issuperset(map(type, value)):
            items = map(_encode_str, value)
        else:
            sep = "[" + inner
            for v in value:
                yield sep
                yield from _encode(v, inner)
                sep = "," + inner
            yield newline + "]"
            return
        yield "[" + inner + ("," + inner).join(items) + newline + "]"
    else:
        yield json.dumps(value)


def loads(text: str) -> dict:
    """A JSON object; malformed or too deeply nested text, or an integer
    of more digits than Python converts, is a SchemaError."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    return obj


def write_file(path: str, obj: dict, *also: tuple[str, dict]) -> None:
    """Write dumps(obj) to path, and each further (path, obj) pair in also
    to its path, each piece by piece to a temp file beside its target;
    then replace the targets.  A target that is a directory, or a temp
    file that cannot be written, fails before any target is touched.  A
    failure is an OSError naming the target path.  Each file gets the
    mode open(path, "w") would give a new file, 0o666 less the umask,
    rather than mkstemp's 0o600.
    """
    umask = os.umask(0o022)
    os.umask(umask)
    staged: list[tuple[str, str]] = []
    try:
        for path, obj in ((path, obj), *also):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".decompspace-")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.writelines(_encode(obj, "\n"))
                handle.write("\n")
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def read_file(path: str) -> dict:
    """Read a UTF-8 JSON object; other bytes, and text that loads rejects,
    are a SchemaError naming the path."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    del data
    try:
        return loads(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
