"""Truncated simplicial sets as finite operator tables.

A TruncatedSSet stores, for each level 0..L, an ordered tuple of cell
names together with total face and degeneracy tables.  A table is a
tuple of indices: entry j is the index of the image of the j-th cell of
its domain, the shape FORMATS.md gives tables on disk.  Everything
downstream (criteria, operators, builders) composes these tuples.  Cell
names appear only at the boundary (the from_names constructors, the
*_names accessors and serialize) and in the witnesses and details of
reports.  The pullback engine for squares of finite sets lives here
too, as do the report and witness types shared by every checker.

validate alone copies tables into another encoding, for the length of
one call: when every level of X holds at most 256 cells it walks the
simplicial identities on bytes copies, where composing two tables is
one bytes.translate and comparing them one memcmp; otherwise it walks
the tuples themselves.  Both encodings pass the same shape test and go
through the same walk, and a bytes table holds the same indices as its
tuple, so the report or StructuralError cannot depend on the encoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from . import delta

#: An operator table: entry j is the index of the image of cell j.
Table = tuple[int, ...]


class StructuralError(Exception):
    """The input object is malformed (dangling cells, bad tables, ...)."""


class LevelError(Exception):
    """An operation needs levels beyond the truncation."""


@dataclass(frozen=True)
class SquareWitness:
    """Why a square (or iterated fiber-product comparison) fails.

    square describes the four corners and leg labels; levels lists the
    simplicial levels involved; element is the fiber-product member with
    preimage_count != 1; preimages lists its preimages in source order.
    """

    square: str
    levels: tuple[int, ...]
    element: tuple
    preimage_count: int
    preimages: tuple[str, ...]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a criterion check at a finite truncation.

    A walk cut off by its square budget before it saw every square
    reports holds=False with inconclusive=True: it found no failure,
    but it did not check everything either.
    """

    holds: bool
    checked_level: int
    squares_checked: int
    witness: SquareWitness | None = None
    detail: str | None = None
    inconclusive: bool = False

    @property
    def verdict(self) -> str:
        if self.holds:
            return "holds-at-checked-depth"
        return "inconclusive" if self.inconclusive else "fails"


def table_names(
    table: Sequence[int], source: Sequence[str], target: Sequence[str]
) -> dict[str, str]:
    """An index table as a dict from source cell names to target cell names."""
    return dict(zip(source, map(target.__getitem__, table)))


def _check_cell_count(level: int, cells: tuple) -> None:
    if level < 0:
        raise ValueError("level must be nonnegative")
    if len(cells) != level + 1:
        raise ValueError(f"expected {level + 1} cell levels, got {len(cells)}")


def _name_row(
    table: Mapping[str, str],
    source: Sequence[str],
    target: Mapping[str, int],
    what: str,
    dangling: str,
) -> Table:
    """A name-keyed table as the index row of source into target, a dict
    from cell names to indices; what and dangling word the errors."""
    row = []
    for c in source:
        if c not in table:
            raise StructuralError(f"{what} undefined on {c!r}")
        j = target.get(table[c])
        if j is None:
            raise StructuralError(f"{what} sends {c!r} to {dangling} {table[c]!r}")
        row.append(j)
    return tuple(row)


def _check_distinct(cells: tuple[tuple[str, ...], ...]) -> None:
    for n, cs in enumerate(cells):
        if len(set(cs)) != len(cs):
            seen = set()
            for c in cs:
                if c in seen:
                    raise StructuralError(f"duplicate cell {c!r} at level {n}")
                seen.add(c)


@dataclass(frozen=True)
class TruncatedSSet:
    """A simplicial set known up to a finite level.

    cells[n] is the ordered tuple of level-n cell names.  faces maps
    (n, i) with 1 <= n <= level, 0 <= i <= n to the index table of
    d_i: cells[n] -> cells[n-1]; degeneracies maps (n, i) with
    0 <= n < level, 0 <= i <= n to that of s_i: cells[n] -> cells[n+1].
    Treat instances as immutable after construction; from_names builds
    one from name-keyed tables.
    """

    level: int
    cells: tuple[tuple[str, ...], ...]
    faces: Mapping[tuple[int, int], Table]
    degeneracies: Mapping[tuple[int, int], Table]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(cs) for cs in self.cells))
        _check_cell_count(self.level, self.cells)

    @classmethod
    def from_names(
        cls,
        level: int,
        cells: Sequence[Sequence[str]],
        faces: Mapping[tuple[int, int], Mapping[str, str]],
        degeneracies: Mapping[tuple[int, int], Mapping[str, str]],
    ) -> TruncatedSSet:
        """Build from tables that map cell names to cell names.

        Duplicate cells and missing, non-total, dangling or over-full
        tables raise StructuralError, checked in the order validate
        reports them; tables outside the truncation are dropped.
        """
        cells = tuple(tuple(cs) for cs in cells)
        _check_cell_count(level, cells)
        _check_distinct(cells)
        index = [{c: j for j, c in enumerate(cs)} for cs in cells]

        def convert(kind, tables, n, i, target_level) -> Table:
            if (n, i) not in tables:
                raise StructuralError(f"missing table {kind}_{i} at level {n}")
            table, what = tables[(n, i)], f"{kind}_{i} at level {n}"
            row = _name_row(table, cells[n], index[target_level], what, "dangling cell")
            if len(table) != len(row):
                for c in table:
                    if c not in index[n]:
                        raise StructuralError(f"{what} defined on unknown cell {c!r}")
            return row

        face_tables = {
            (n, i): convert("d", faces, n, i, n - 1)
            for n in range(1, level + 1)
            for i in range(n + 1)
        }
        degeneracy_tables = {
            (n, i): convert("s", degeneracies, n, i, n + 1)
            for n in range(level)
            for i in range(n + 1)
        }
        return cls(level, cells, face_tables, degeneracy_tables)

    def face(self, n: int, i: int) -> Table:
        try:
            return self.faces[(n, i)]
        except KeyError:
            raise LevelError(f"no face table d_{i} at level {n}") from None

    def degeneracy(self, n: int, i: int) -> Table:
        try:
            return self.degeneracies[(n, i)]
        except KeyError:
            raise LevelError(f"no degeneracy table s_{i} at level {n}") from None

    def face_names(self, n: int, i: int) -> dict[str, str]:
        """d_i at level n as a dict of cell names."""
        return table_names(self.face(n, i), self.cells[n], self.cells[n - 1])

    def degeneracy_names(self, n: int, i: int) -> dict[str, str]:
        """s_i at level n as a dict of cell names."""
        return table_names(self.degeneracy(n, i), self.cells[n], self.cells[n + 1])


_INT = {int}


def _index_problem(table, source: tuple[str, ...], size: int) -> str | None:
    """Why table is not a tuple of len(source) ints in range(size), or None."""
    if not isinstance(table, tuple) or len(table) != len(source):
        return f"is not a tuple of {len(source)} indices"
    if not table:
        return None
    if not _INT.issuperset(map(type, table)):
        return "holds an entry that is not an int"
    if min(table) < 0 or max(table) >= size:
        j = next(j for j, v in enumerate(table) if not 0 <= v < size)
        return f"sends {source[j]!r} to dangling index {table[j]}"
    return None


def _getter(first: Sequence[int]):
    """The callable second -> _then(first, second), to build once and reuse."""
    if len(first) > 1:
        return itemgetter(*first)
    if first:
        (x,) = first
        return lambda second: (second[x],)
    return lambda second: ()


def _then(first: Sequence[int], second: Sequence[int]) -> Table:
    """The table of second after first: entry j is second[first[j]]."""
    return _getter(first)(second)


def _first_difference(lhs: Sequence[int], rhs: Sequence[int]) -> int:
    return next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def _tuple_table(table, source: tuple[str, ...], size: int) -> Table | None:
    """table if it is a tuple of len(source) ints in range(size), else None."""
    return table if _index_problem(table, source, size) is None else None


#: Byte k is k; its first size bytes are the identity table on size cells.
_BYTE_RANGE = bytes(range(256))


def _byte_table(table, source: tuple[str, ...], size: int) -> bytes | None:
    """table as bytes if it is a tuple of len(source) ints in range(size),
    else None; size is at most 256.  The test of _index_problem, with
    bytes() in place of min and the deletion of every byte below size
    in place of max."""
    if not isinstance(table, tuple) or len(table) != len(source):
        return None
    if not _INT.issuperset(map(type, table)):
        return None
    try:
        row = bytes(table)
    except ValueError:
        return None
    return None if row.translate(None, _BYTE_RANGE[:size]) else row


class _Encoding(NamedTuple):
    """How validate holds the tables of X for one call.

    table(t, source, size) is t converted, or None when t is not a tuple
    of len(source) indices in range(size); step(t) is the callable
    u -> the table of u after t, and operand(t) the u those callables
    take; identity(size) is the identity table on size cells.
    """

    table: Callable
    step: Callable
    operand: Callable
    identity: Callable


_TUPLES = _Encoding(_tuple_table, _getter, tuple, lambda size: tuple(range(size)))
#: first.translate(second padded to 256 bytes) is second after first.
_BYTES = _Encoding(
    _byte_table,
    attrgetter("translate"),
    lambda row: row.ljust(256, b"\0"),
    lambda size: _BYTE_RANGE[:size],
)


def _checked_tables(X: TruncatedSSet, kind: str, encode=_tuple_table) -> list[list]:
    """X's face ("d") or degeneracy ("s") tables as rows[n][i], each
    checked to be a tuple of indices of the right length and range and
    converted by encode (_tuple_table or _byte_table)."""
    tables, levels, step = (
        (X.faces, range(1, X.level + 1), -1)
        if kind == "d"
        else (X.degeneracies, range(X.level), 1)
    )
    rows: list[list] = [[] for _ in X.cells]
    for n in levels:
        source, size = X.cells[n], len(X.cells[n + step])
        for i in range(n + 1):
            if (n, i) not in tables:
                raise StructuralError(f"missing table {kind}_{i} at level {n}")
            table = encode(tables[(n, i)], source, size)
            if table is None:
                problem = _index_problem(tables[(n, i)], source, size)
                raise StructuralError(f"{kind}_{i} at level {n} {problem}")
            rows[n].append(table)
    return rows


def validate(X: TruncatedSSet) -> CheckReport:
    """Check every simplicial identity instance inside the truncation.

    Duplicate cells and missing, short or out-of-range tables raise
    StructuralError; identity violations produce a failing report
    naming the identity, level and first failing cell.  Each identity
    is checked by composing whole tables.  When every level of X holds
    at most 256 cells, the tables are bytes copies made for this call
    and a composition is one bytes.translate; otherwise they are X's
    own tuples, each composing through one getter built per call.  A
    bytes copy has the entries of its tuple and a table fails the bytes
    shape test exactly when _index_problem finds a fault, which then
    words the error; the walk below is the same for both, so its order,
    squares_checked and every report are as well.
    """
    _check_distinct(X.cells)
    code = _BYTES if max(map(len, X.cells)) <= 256 else _TUPLES
    d = _checked_tables(X, "d", code.table)
    s = _checked_tables(X, "s", code.table)
    dg = [list(map(code.step, row)) for row in d]
    sg = [list(map(code.step, row)) for row in s]
    d = [list(map(code.operand, row)) for row in d]
    s = [list(map(code.operand, row)) for row in s]
    checked = 0

    def fail(name: str, n: int, lhs, rhs) -> CheckReport:
        j = _first_difference(lhs, rhs)
        return CheckReport(
            holds=False,
            checked_level=X.level,
            squares_checked=checked + j + 1,
            detail=f"identity {name} fails at level {n} on cell {X.cells[n][j]!r}",
        )

    # d_i d_j = d_{j-1} d_i for i < j, on X_n with n >= 2
    for n in range(2, X.level + 1):
        size, getters, below = len(X.cells[n]), dg[n], d[n - 1]
        for j in range(1, n + 1):
            for i in range(j):
                lhs = getters[j](below[i])
                rhs = getters[i](below[j - 1])
                if lhs != rhs:
                    return fail(f"d_{i} d_{j} = d_{j-1} d_{i}", n, lhs, rhs)
                checked += size
    # s_i s_j = s_{j+1} s_i for i <= j, on X_n with n + 2 <= level
    for n in range(X.level - 1):
        size, getters, above = len(X.cells[n]), sg[n], s[n + 1]
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = getters[j](above[i])
                rhs = getters[i](above[j + 1])
                if lhs != rhs:
                    return fail(f"s_{i} s_{j} = s_{j+1} s_{i}", n, lhs, rhs)
                checked += size
    # d_i s_j on X_n with n + 1 <= level
    for n in range(X.level):
        size, faces = len(X.cells[n]), d[n + 1]
        identity = code.identity(size)
        for j in range(n + 1):
            getter = sg[n][j]
            for i in range(n + 2):
                got = getter(faces[i])
                if i == j or i == j + 1:
                    want = identity
                elif i < j:
                    want = dg[n][i](s[n - 1][j - 1])
                else:
                    want = dg[n][i - 1](s[n - 1][j])
                if got != want:
                    return fail(_face_degeneracy_identity(i, j), n, got, want)
                checked += size
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def _require_valid(X: TruncatedSSet) -> None:
    """Raise StructuralError unless validate(X) holds."""
    report = validate(X)
    if not report.holds:
        raise StructuralError(f"input is not a simplicial set: {report.detail}")


def _face_degeneracy_identity(i: int, j: int) -> str:
    """The name of the identity validate checks for d_i s_j."""
    if i == j or i == j + 1:
        return f"d_{i} s_{j} = id"
    if i < j:
        return f"d_{i} s_{j} = s_{j-1} d_{i}"
    return f"d_{i} s_{j} = s_{j} d_{i-1}"


def induce(X: TruncatedSSet, target_rank: int, values: tuple[int, ...]) -> Table:
    """The contravariant action on cells of the simplex-category map
    [len(values) - 1] -> [target_rank] with the given values, which are
    trusted to be weakly monotone.

    Returns the index table cells[target_rank] -> cells[len(values) - 1],
    composed from X's face and degeneracy tables along the canonical
    generator word of the map.
    """
    source_rank = len(values) - 1
    if target_rank > X.level or source_rank > X.level:
        raise LevelError(f"map [{source_rank}]->[{target_rank}] exceeds level {X.level}")
    out = None
    for operator, n, i in _word_steps(target_rank, tuple(values)):
        table = operator(X, n, i)
        out = table if out is None else _then(out, table)
    return tuple(range(len(X.cells[source_rank]))) if out is None else out


@lru_cache(maxsize=8192)
def _word_steps(target_rank: int, values: tuple[int, ...]):
    """The generator word of the map as (operator, level, index) steps,
    operator TruncatedSSet.face or .degeneracy, outermost letter first.
    It depends only on the map, so it is computed once per process."""
    steps, level = [], target_rank
    for kind, i in delta.generator_word(values, target_rank):
        if kind == "delta":
            steps.append((TruncatedSSet.face, level, i))
            level -= 1
        else:
            steps.append((TruncatedSSet.degeneracy, level, i))
            level += 1
    return tuple(steps)


def opposite(X: TruncatedSSet) -> TruncatedSSet:
    """Reverse the operator order: d_k becomes d_{n-k}, s_k becomes s_{n-k}."""
    faces = {(n, i): X.faces[(n, n - i)] for (n, i) in X.faces}
    degeneracies = {(n, i): X.degeneracies[(n, n - i)] for (n, i) in X.degeneracies}
    return TruncatedSSet(X.level, X.cells, faces, degeneracies)


def truncate(X: TruncatedSSet, level: int) -> TruncatedSSet:
    """Forget everything above the given level."""
    if level > X.level:
        raise LevelError(f"cannot extend level {X.level} to {level}")
    faces = {(n, i): t for (n, i), t in X.faces.items() if n <= level}
    degeneracies = {
        (n, i): t for (n, i), t in X.degeneracies.items() if n + 1 <= level
    }
    return TruncatedSSet(level, X.cells[: level + 1], faces, degeneracies)


def compose_tables(*tables: Table) -> Table:
    """Compose index tables, first table applied first."""
    if not tables:
        raise ValueError("need at least one table")
    out = tuple(tables[0])
    for table in tables[1:]:
        out = _then(out, table)
    return out


def pullback_holds(f: Table, g: Table, p: Table, q: Table) -> bool:
    """Whether A is the fiber product of p: B -> D <- C : q, by counting.

    The verdict of is_pullback_square without its witness and errors: a
    square whose projections f: A -> B and g: A -> C disagree on their
    domain, or that does not commute, is not a pullback.  A commuting
    square maps a |-> (f(a), g(a)) into the fiber product, so it is a
    bijection iff the pairs, counted as f(a) * |C| + g(a), are distinct
    and |A| = sum over d of |p^-1(d)| * |q^-1(d)|, which is sum over b
    of |q^-1(p(b))|.
    """
    if len(f) != len(g) or _then(f, p) != _then(g, q):
        return False
    width = len(q)
    if len({b * width + c for b, c in zip(f, g)}) != len(f):
        return False
    return len(f) == sum(map(Counter(q).get, p, repeat(0)))


def is_pullback_square(
    f: Table,
    g: Table,
    p: Table,
    q: Table,
    square: str = "",
    levels: tuple[int, ...] = (),
    names: tuple[Sequence[str], Sequence[str], Sequence[str]] | None = None,
) -> CheckReport:
    """Decide whether A is the fiber product of p: B -> D <- C : q.

    f: A -> B and g: A -> C are the candidate projections, all four as
    index tables; the square must commute (p o f = q o g), otherwise a
    StructuralError is raised.  Holds iff a |-> (f(a), g(a)) is a
    bijection onto {(b, c) | p(b) = q(c)}, decided by pullback_holds.
    The fiber product is enumerated (b in the order of B, c in the order
    of C) only when that count fails, to find the witness: the first
    element whose preimage count is not 1, with its preimages in the
    order of A.  names = (A, B, C), the cell names of the three domains,
    label the witness and the error; without them the labels are
    indices.
    """
    if pullback_holds(f, g, p, q):
        return CheckReport(holds=True, checked_level=0, squares_checked=1)
    if len(f) != len(g):
        raise StructuralError("candidate projections disagree on their domain")
    via_b, via_c = _then(f, p), _then(g, q)
    if via_b != via_c:
        a = _first_difference(via_b, via_c)
        label = names[0][a] if names is not None else a
        raise StructuralError(
            f"square {square or '(unnamed)'} does not commute at {label!r}"
        )
    width = len(q)
    if names is None:
        names = (range(len(f)), range(len(p)), range(width))
    A, B, C = names
    preimages: dict[int, list[int]] = {}
    for a, (b, c) in enumerate(zip(f, g)):
        preimages.setdefault(b * width + c, []).append(a)
    qfibers: dict[int, list[int]] = {}
    for c, d in enumerate(q):
        qfibers.setdefault(d, []).append(c)
    for b, d in enumerate(p):
        for c in qfibers.get(d, ()):
            pre = preimages.get(b * width + c, [])
            if len(pre) != 1:
                witness = SquareWitness(
                    square=square,
                    levels=levels,
                    element=(B[b], C[c]),
                    preimage_count=len(pre),
                    preimages=tuple(A[a] for a in pre),
                )
                return CheckReport(
                    holds=False, checked_level=0, squares_checked=1, witness=witness
                )
    raise AssertionError("a square that fails the count has a witness")


def _check_component_count(source: TruncatedSSet, target: TruncatedSSet, count: int):
    shared = min(source.level, target.level)
    if count != shared + 1:
        raise ValueError(f"expected {shared + 1} components, got {count}")


@dataclass(frozen=True)
class SimplicialMap:
    """A level-indexed family of functions commuting with all operators.

    components[n] is the index table of the function source cells[n] ->
    target cells[n], for every shared level n <= min(source.level,
    target.level); from_names builds one from name-keyed components.
    """

    source: TruncatedSSet
    target: TruncatedSSet
    components: tuple[Table, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        _check_component_count(self.source, self.target, len(self.components))

    @classmethod
    def from_names(
        cls,
        source: TruncatedSSet,
        target: TruncatedSSet,
        components: Sequence[Mapping[str, str]],
    ) -> SimplicialMap:
        """Build from components that map cell names to cell names.

        A component undefined on a source cell, or sending one to a
        name that is not a target cell, raises StructuralError.
        """
        _check_component_count(source, target, len(components))
        rows = []
        for n, comp in enumerate(components):
            index = {c: j for j, c in enumerate(target.cells[n])}
            what = f"component at level {n}"
            rows.append(_name_row(comp, source.cells[n], index, what, "dangling"))
        return cls(source, target, tuple(rows))

    @property
    def shared_level(self) -> int:
        return len(self.components) - 1

    def component_names(self, n: int) -> dict[str, str]:
        """The level-n component as a dict of cell names."""
        return table_names(
            self.components[n], self.source.cells[n], self.target.cells[n]
        )


def validate_map(m: SimplicialMap) -> CheckReport:
    """Check totality and commutation with every generator in truncation.

    A table of either end of the wrong shape raises StructuralError
    naming the end."""
    for end, X in (("source", m.source), ("target", m.target)):
        try:
            for kind in "ds":
                _checked_tables(X, kind)
        except StructuralError as exc:
            raise StructuralError(f"map {end}: {exc}") from None
    return _validate_components(m)


def _validate_components(m: SimplicialMap) -> CheckReport:
    """validate_map once the ends' tables are known to have the right shape."""
    top = m.shared_level
    comps = m.components
    source, target = m.source, m.target
    for n in range(top + 1):
        problem = _index_problem(comps[n], source.cells[n], len(target.cells[n]))
        if problem is not None:
            raise StructuralError(f"component at level {n} {problem}")
    getters = list(map(_getter, comps))
    checked = 0

    def fail(kind: str, i: int, n: int, lhs: Table, rhs: Table) -> CheckReport:
        j = _first_difference(lhs, rhs)
        return CheckReport(
            holds=False,
            checked_level=top,
            squares_checked=checked + j + 1,
            detail=f"naturality fails for {kind}_{i} at level {n} on "
            f"{source.cells[n][j]!r}",
        )

    for kind, operator, levels, step in (
        ("d", TruncatedSSet.face, range(1, top + 1), -1),
        ("s", TruncatedSSet.degeneracy, range(top), 1),
    ):
        for n in levels:
            size, getter, other = len(comps[n]), getters[n], comps[n + step]
            for i in range(n + 1):
                lhs = getter(operator(target, n, i))
                rhs = _then(operator(source, n, i), other)
                if lhs != rhs:
                    return fail(kind, i, n, lhs, rhs)
                checked += size
    return CheckReport(holds=True, checked_level=top, squares_checked=checked)
