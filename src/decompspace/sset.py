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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Mapping, Sequence

from . import delta
from .delta import SimplexMap

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
            table = tables[(n, i)]
            target = index[target_level]
            row = []
            for c in cells[n]:
                if c not in table:
                    raise StructuralError(f"{kind}_{i} at level {n} undefined on {c!r}")
                j = target.get(table[c])
                if j is None:
                    raise StructuralError(
                        f"{kind}_{i} at level {n} sends {c!r} to dangling cell "
                        f"{table[c]!r}"
                    )
                row.append(j)
            if len(table) != len(row):
                for c in table:
                    if c not in index[n]:
                        raise StructuralError(
                            f"{kind}_{i} at level {n} defined on unknown cell {c!r}"
                        )
            return tuple(row)

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


def _check_indices(table, source: tuple[str, ...], size: int, what: str) -> None:
    """A tuple of len(source) ints in range(size), else StructuralError."""
    if not isinstance(table, tuple) or len(table) != len(source):
        raise StructuralError(f"{what} is not a tuple of {len(source)} indices")
    if not table:
        return
    if not _INT.issuperset(map(type, table)):
        raise StructuralError(f"{what} holds an entry that is not an int")
    if min(table) < 0 or max(table) >= size:
        j = next(j for j, v in enumerate(table) if not 0 <= v < size)
        raise StructuralError(
            f"{what} sends {source[j]!r} to dangling index {table[j]}"
        )


def _then(first: Sequence[int], second: Sequence[int]) -> Table:
    """The table of second after first: entry j is second[first[j]]."""
    if len(first) > 1:
        return itemgetter(*first)(second)
    return tuple(second[x] for x in first)


def _first_difference(lhs: Sequence[int], rhs: Sequence[int]) -> int:
    return next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def validate(X: TruncatedSSet) -> CheckReport:
    """Check every simplicial identity instance inside the truncation.

    Duplicate cells and missing, short or out-of-range tables raise
    StructuralError; identity violations produce a failing report
    naming the identity, level and first failing cell.  Each identity
    is checked by composing whole tables.
    """
    _check_distinct(X.cells)
    d: dict[tuple[int, int], Table] = {}
    s: dict[tuple[int, int], Table] = {}
    for kind, tables, out, levels, step in (
        ("d", X.faces, d, range(1, X.level + 1), -1),
        ("s", X.degeneracies, s, range(X.level), 1),
    ):
        for n in levels:
            for i in range(n + 1):
                if (n, i) not in tables:
                    raise StructuralError(f"missing table {kind}_{i} at level {n}")
                out[(n, i)] = tables[(n, i)]
                _check_indices(
                    out[(n, i)],
                    X.cells[n],
                    len(X.cells[n + step]),
                    f"{kind}_{i} at level {n}",
                )

    checked = 0

    def fail(name: str, n: int, lhs: Table, rhs: Table) -> CheckReport:
        j = _first_difference(lhs, rhs)
        return CheckReport(
            holds=False,
            checked_level=X.level,
            squares_checked=checked + j + 1,
            detail=f"identity {name} fails at level {n} on cell {X.cells[n][j]!r}",
        )

    # d_i d_j = d_{j-1} d_i for i < j, on X_n with n >= 2
    for n in range(2, X.level + 1):
        for j in range(1, n + 1):
            for i in range(j):
                lhs = _then(d[(n, j)], d[(n - 1, i)])
                rhs = _then(d[(n, i)], d[(n - 1, j - 1)])
                if lhs != rhs:
                    return fail(f"d_{i} d_{j} = d_{j-1} d_{i}", n, lhs, rhs)
                checked += len(lhs)
    # s_i s_j = s_{j+1} s_i for i <= j, on X_n with n + 2 <= level
    for n in range(X.level - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = _then(s[(n, j)], s[(n + 1, i)])
                rhs = _then(s[(n, i)], s[(n + 1, j + 1)])
                if lhs != rhs:
                    return fail(f"s_{i} s_{j} = s_{j+1} s_{i}", n, lhs, rhs)
                checked += len(lhs)
    # d_i s_j on X_n with n + 1 <= level
    for n in range(X.level):
        identity = tuple(range(len(X.cells[n])))
        for j in range(n + 1):
            for i in range(n + 2):
                got = _then(s[(n, j)], d[(n + 1, i)])
                if i == j or i == j + 1:
                    want, name = identity, f"d_{i} s_{j} = id"
                elif i < j:
                    want = _then(d[(n, i)], s[(n - 1, j - 1)])
                    name = f"d_{i} s_{j} = s_{j-1} d_{i}"
                else:
                    want = _then(d[(n, i - 1)], s[(n - 1, j)])
                    name = f"d_{i} s_{j} = s_{j} d_{i-1}"
                if got != want:
                    return fail(name, n, got, want)
                checked += len(got)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def induced_map(X: TruncatedSSet, alpha: SimplexMap) -> Table:
    """The contravariant action of a simplex-category map on cells.

    For alpha: [n] -> [m] returns the index table cells[m] -> cells[n],
    computed by composing face/degeneracy tables along the canonical
    generator word of alpha.
    """
    return induce(X, alpha.target_rank, alpha.values)


def induce(X: TruncatedSSet, target_rank: int, values: tuple[int, ...]) -> Table:
    """induced_map of the map [len(values) - 1] -> [target_rank] with the
    given value tuple, which is trusted to be weakly monotone."""
    source_rank = len(values) - 1
    if target_rank > X.level or source_rank > X.level:
        raise LevelError(f"map [{source_rank}]->[{target_rank}] exceeds level {X.level}")
    level = target_rank
    out = None
    for kind, i in delta.generator_word(values, target_rank):
        if kind == "delta":
            table = X.face(level, i)
            level -= 1
        else:
            table = X.degeneracy(level, i)
            level += 1
        out = table if out is None else _then(out, table)
    return tuple(range(len(X.cells[level]))) if out is None else out


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
            row = []
            for c in source.cells[n]:
                if c not in comp:
                    raise StructuralError(f"component at level {n} undefined on {c!r}")
                j = index.get(comp[c])
                if j is None:
                    raise StructuralError(
                        f"component at level {n} sends {c!r} to dangling {comp[c]!r}"
                    )
                row.append(j)
            rows.append(tuple(row))
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
    """Check totality and commutation with every generator in truncation."""
    top = m.shared_level
    comps = m.components
    for n in range(top + 1):
        _check_indices(
            comps[n],
            m.source.cells[n],
            len(m.target.cells[n]),
            f"component at level {n}",
        )
    checked = 0

    def fail(kind: str, i: int, n: int, lhs: Table, rhs: Table) -> CheckReport:
        j = _first_difference(lhs, rhs)
        return CheckReport(
            holds=False,
            checked_level=top,
            squares_checked=checked + j + 1,
            detail=f"naturality fails for {kind}_{i} at level {n} on "
            f"{m.source.cells[n][j]!r}",
        )

    for n in range(1, top + 1):
        for i in range(n + 1):
            lhs = _then(comps[n], m.target.face(n, i))
            rhs = _then(m.source.face(n, i), comps[n - 1])
            if lhs != rhs:
                return fail("d", i, n, lhs, rhs)
            checked += len(lhs)
    for n in range(top):
        for i in range(n + 1):
            lhs = _then(comps[n], m.target.degeneracy(n, i))
            rhs = _then(m.source.degeneracy(n, i), comps[n + 1])
            if lhs != rhs:
                return fail("s", i, n, lhs, rhs)
            checked += len(lhs)
    return CheckReport(holds=True, checked_level=top, squares_checked=checked)


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """Levelwise composite g after f."""
    if f.target != g.source:
        raise ValueError("compose_maps needs f.target == g.source")
    shared = min(f.shared_level, g.shared_level)
    components = tuple(
        compose_tables(f.components[n], g.components[n]) for n in range(shared + 1)
    )
    return SimplicialMap(f.source, g.target, components)


def identity_map(X: TruncatedSSet) -> SimplicialMap:
    return SimplicialMap(X, X, tuple(tuple(range(len(cs))) for cs in X.cells))


def find_isomorphism(X: TruncatedSSet, Y: TruncatedSSet) -> tuple[Table, ...] | None:
    """Search for a levelwise bijection commuting with every operator.

    Deterministic backtracking, pruned by color refinement and by the
    face images already fixed at lower levels.  Returns the components
    as index tables from X to Y, or None.  Intended for desk-scale
    objects.
    """
    if X.level != Y.level:
        return None
    if any(len(a) != len(b) for a, b in zip(X.cells, Y.cells)):
        return None

    def refine(Z: TruncatedSSet) -> list[list[int]]:
        color = [[n] * len(Z.cells[n]) for n in range(Z.level + 1)]
        for _ in range(Z.level + 2):
            sig = []
            for n in range(Z.level + 1):
                row = []
                for c in range(len(Z.cells[n])):
                    out = []
                    for i in range(n + 1):
                        if n >= 1:
                            face = Z.faces[(n, i)][c]
                            out.append(("d", i, color[n - 1][face]))
                        if n < Z.level:
                            degeneracy = Z.degeneracies[(n, i)][c]
                            out.append(("s", i, color[n + 1][degeneracy]))
                    row.append((color[n][c], tuple(sorted(out))))
                sig.append(row)
            signatures = sorted({s for row in sig for s in row})
            palette = {s: j for j, s in enumerate(signatures)}
            new = [[palette[s] for s in row] for row in sig]
            if new == color:
                break
            color = new
        return color

    cx, cy = refine(X), refine(Y)
    mapping: list[list[int | None]] = [[None] * len(cs) for cs in X.cells]

    def degeneracies_ok(n: int) -> bool:
        if n == 0:
            return True
        for i in range(n):
            sx = X.degeneracies[(n - 1, i)]
            sy = Y.degeneracies[(n - 1, i)]
            for c in range(len(X.cells[n - 1])):
                if mapping[n][sx[c]] != sy[mapping[n - 1][c]]:
                    return False
        return True

    def assign(n: int) -> bool:
        if n > X.level:
            return True
        used: set[int] = set()
        faces = range(n + 1) if n >= 1 else range(0)

        def target_key(d: int) -> tuple[int, ...]:
            return (cy[n][d], *(Y.faces[(n, i)][d] for i in faces))

        # targets must match refined color and already-assigned faces
        def candidates(c: int) -> list[int]:
            key = (cx[n][c], *(mapping[n - 1][X.faces[(n, i)][c]] for i in faces))
            return [
                d
                for d in range(len(Y.cells[n]))
                if d not in used and target_key(d) == key
            ]

        def place(c: int) -> bool:
            if c == len(X.cells[n]):
                if not degeneracies_ok(n):
                    return False
                return assign(n + 1)
            for d in candidates(c):
                mapping[n][c] = d
                used.add(d)
                if place(c + 1):
                    return True
                used.discard(d)
                mapping[n][c] = None
            return False

        return place(0)

    if not assign(0):
        return None
    return tuple(tuple(row) for row in mapping)


def are_isomorphic(X: TruncatedSSet, Y: TruncatedSSet) -> bool:
    return find_isomorphism(X, Y) is not None
