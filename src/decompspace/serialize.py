"""Deterministic JSON file formats for every object the CLI moves around.

Operator tables are stored as arrays of target indices (row j holds the
index of the image of the j-th cell), never as names, so files stay
compact and byte-stable: dumps(loads(text)) == text for every valid
file.  That is also the shape TruncatedSSet and SimplicialMap hold their
tables in, so reading checks each row and keeps it as a tuple, and
writing emits the rows as they are.  Only the outer face complex keeps
name-keyed tables in memory.  See FORMATS.md for the documented schemas.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from .builders import (
    DirectedGraph,
    FiniteCategory,
    OuterFaceComplex,
    PartialCategory,
    PartialMonoid,
)
from .sset import SimplicialMap, Table, TruncatedSSet, table_names

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


_INT = {int}


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
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if _require(obj, "kind", str, where) != "sset":
        raise SchemaError(f"{where}: kind must be 'sset'")
    level = _require(obj, "level", int, where)
    cells_raw = _require(obj, "cells", list, where)
    if level < 0 or len(cells_raw) != level + 1:
        raise SchemaError(f"{where}: cells must list levels 0..level")
    cells = []
    for n, cs in enumerate(cells_raw):
        if not isinstance(cs, list) or not all(isinstance(c, str) for c in cs):
            raise SchemaError(f"{where}: cells[{n}] must be a list of strings")
        cells.append(tuple(cs))
    faces_raw = _require(obj, "faces", list, where)
    degen_raw = _require(obj, "degeneracies", list, where)
    if len(faces_raw) != level:
        raise SchemaError(f"{where}: faces must cover levels 1..level")
    if len(degen_raw) != max(level, 0):
        raise SchemaError(f"{where}: degeneracies must cover levels 0..level-1")
    faces = {}
    for n in range(1, level + 1):
        block = faces_raw[n - 1]
        if not isinstance(block, list) or len(block) != n + 1:
            raise SchemaError(f"{where}: faces[{n - 1}] must hold {n + 1} rows")
        for i in range(n + 1):
            faces[(n, i)] = _table(
                block[i],
                len(cells[n]),
                len(cells[n - 1]),
                f"{where}: faces[{n - 1}][{i}]",
            )
    degeneracies = {}
    for n in range(level):
        block = degen_raw[n]
        if not isinstance(block, list) or len(block) != n + 1:
            raise SchemaError(f"{where}: degeneracies[{n}] must hold {n + 1} rows")
        for i in range(n + 1):
            degeneracies[(n, i)] = _table(
                block[i],
                len(cells[n]),
                len(cells[n + 1]),
                f"{where}: degeneracies[{n}][{i}]",
            )
    return TruncatedSSet(level, tuple(cells), faces, degeneracies)


def ofc_to_obj(A: OuterFaceComplex) -> dict:
    index = [{a: j for j, a in enumerate(g)} for g in A.grades]

    def rows(tables) -> list[list[int]]:
        return [
            [index[m - 1][tables[m][a]] for a in A.grades[m]]
            for m in range(1, A.bound + 1)
        ]

    return {
        "format_version": FORMAT_VERSION,
        "kind": "ofc",
        "bound": A.bound,
        "grades": [list(g) for g in A.grades],
        "d_bot": rows(A.d_bot),
        "d_top": rows(A.d_top),
    }


def ofc_from_obj(obj: dict, where: str = "ofc") -> OuterFaceComplex:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if _require(obj, "kind", str, where) != "ofc":
        raise SchemaError(f"{where}: kind must be 'ofc'")
    bound = _require(obj, "bound", int, where)
    grades_raw = _require(obj, "grades", list, where)
    if bound < 0 or len(grades_raw) != bound + 1:
        raise SchemaError(f"{where}: grades must list degrees 0..bound")
    grades = []
    for m, g in enumerate(grades_raw):
        if not isinstance(g, list) or not all(isinstance(a, str) for a in g):
            raise SchemaError(f"{where}: grades[{m}] must be a list of strings")
        grades.append(tuple(g))
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
            size, lower = len(grades[m]), len(grades[m - 1])
            row = _table(raw[m - 1], size, lower, f"{where}: {name}[{m - 1}]")
            tables[m] = table_names(row, grades[m], grades[m - 1])
    return OuterFaceComplex(bound, tuple(grades), d_bot, d_top)


def smap_to_obj(f: SimplicialMap) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "smap",
        "source": sset_to_obj(f.source),
        "target": sset_to_obj(f.target),
        "components": list(f.components),
    }


def smap_from_obj(obj: dict, where: str = "smap") -> SimplicialMap:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if _require(obj, "kind", str, where) != "smap":
        raise SchemaError(f"{where}: kind must be 'smap'")
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
    return SimplicialMap(source, target, components)


def category_from_obj(obj: dict, where: str = "category") -> FiniteCategory:
    objects = tuple(_str_list(obj, "objects", where))
    morphisms = _arrow_list(obj, "morphisms", where)
    identities = _str_dict(obj, "identities", where)
    composition = _composition_dict(obj, where)
    return FiniteCategory(objects, morphisms, identities, composition)


def partial_category_from_obj(obj: dict, where: str = "pcategory") -> PartialCategory:
    objects = tuple(_str_list(obj, "objects", where))
    morphisms = _arrow_list(obj, "morphisms", where)
    identities = _str_dict(obj, "identities", where)
    composition = _composition_dict(obj, where)
    return PartialCategory(objects, morphisms, identities, composition)


def pmonoid_from_obj(obj: dict, where: str = "pmonoid") -> PartialMonoid:
    carrier = tuple(_str_list(obj, "carrier", where))
    unit = _require(obj, "unit", str, where)
    product = {}
    for row in _require(obj, "product", list, where):
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError(f"{where}: product rows must be [x, y, xy]")
        product[(row[0], row[1])] = row[2]
    return PartialMonoid(carrier, unit, product)


def graph_from_obj(obj: dict, where: str = "graph") -> DirectedGraph:
    vertices = tuple(_str_list(obj, "vertices", where))
    edges = _arrow_list(obj, "edges", where)
    return DirectedGraph(vertices, edges)


def _str_list(obj: dict, field: str, where: str) -> list[str]:
    raw = _require(obj, field, list, where)
    if not all(isinstance(x, str) for x in raw):
        raise SchemaError(f"{where}: field {field!r} must be a list of strings")
    return raw


def _arrow_list(obj: dict, field: str, where: str):
    raw = _require(obj, field, list, where)
    out = []
    for row in raw:
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError(f"{where}: {field} rows must be [name, source, target]")
        out.append((row[0], row[1], row[2]))
    return tuple(out)


def _str_dict(obj: dict, field: str, where: str) -> dict[str, str]:
    raw = _require(obj, field, dict, where)
    for k, v in raw.items():
        if not isinstance(v, str):
            raise SchemaError(f"{where}: field {field!r} must map strings to strings")
    return dict(raw)


def _composition_dict(obj: dict, where: str) -> dict[tuple[str, str], str]:
    out = {}
    for row in _require(obj, "composition", list, where):
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError(f"{where}: composition rows must be [f, g, composite]")
        out[(row[0], row[1])] = row[2]
    return out


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    return obj


def write_file(path: str, obj: dict) -> None:
    """Serialize and atomically replace the target path.

    The file gets the mode open(path, "w") would give a new file, 0o666
    less the umask, rather than mkstemp's 0o600.
    """
    text = dumps(obj)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0o022)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".decompspace-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_file(path: str) -> dict:
    """Read a UTF-8 JSON file; other bytes are a SchemaError naming the path."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return loads(text)
