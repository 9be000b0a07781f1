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

_Encoding says how one call holds the tables of X, and one rule picks
it: when every level holds at most 256 cells (for a map, of both ends),
the tables are bytes copies made for the call, where composing two
tables is one bytes.translate and comparing them one memcmp; otherwise
they are the tuples themselves.  validate walks the simplicial
identities in that encoding: each table of a set with no record
meets the one shape test, _index_problem, before it is converted, and
both encodings go through the same walk, so the report or
StructuralError cannot depend on the encoding.  The identities, and the
naturality equations of a map, are compiled plans, cached by level, of
runs of equations on one level: consecutive table slots after one fixed
table equal one fixed table after consecutive slots, or the identity, so
a plan holds about 2.5 L^2 runs at level L rather than the L^3 / 2
equations.  A table's slot does not depend on the level.  One loop,
_equations, walks any such plan, stops at the first unequal pair, and
only then names its equation.  A check validates through _valid_call,
the one entry that builds a _Call: the encoding, chosen once over every
set of the check, the tables validate converted, and a memo in which the
fiber sizes of each q are kept.  The walks of criteria and map
naturality read those tables and compose and decide in that encoding, so
no table is converted twice in a call, and nothing in a call outlives
it.  A bytes table holds the same indices as its tuple, and a decision
on bytes is the counting test of pullback_holds, so no verdict depends
on the encoding either.  A square whose legs f and q are split monos (X
of a surjection of Delta, on a set validate has passed) is decided by
that test's count alone, as _tuple_holds says.

A set's tables are read-only (_ReadOnly): the constructor copies its
face and degeneracy tables once into that dict, whose every mutating
method raises TypeError, and the cells, the level and a map's components
are tuples and ints in frozen fields.  So a fact about an object's
tables holds for as long as the object lives.  _proven is the one place
that converts a set's tables, after the shape test of each when the set
has no record, and walks its identities.  What has been proven is kept
on the object itself, in one private record: the set of facts proven of
it, which grows in place, and _certify is the one writer of it.
serialize's set and map readers give what they read a record with no
fact, once they have shape-tested every table and component.  A walk of
a set's identities that holds adds "identities" (giving the set a record
first if it has none), and a walk of a map's naturality "naturality".
An object with a record (_current) has its tables converted untested,
and a proven walk is not walked again: no report is kept, since one that
held is counted from the plan that would walk it (_holding), so a set is
shape-tested and walked once however many checks read it.  Only what was
proven is remembered: each call still converts the tables for itself.

opposite, truncate and the decalages make their output of their input's
very tables, reindexed, so each identity of the output, and each
naturality equation of a decalage's projection, is one of the input's
on the same tables: _inherit gives each output what the input's record
proves, its facts mapped through one table per operator.

A record also holds the square families (Segal, upper and lower
2-Segal, unit) that the checkers in criteria have since proven whole on
those same tables: their one driver, criteria._decide, adds them to the
record of the call's first set.  The operators pass them on,
each rule proven in their docstrings: the opposite swaps upper and
lower, a truncation keeps every family, and a decalage gives its output
Segal squares and its projection culf squares from X's 2-Segal and unit
squares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, repeat
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


class _ReadOnly(dict):
    """A set's face or degeneracy tables: a dict whose every mutating
    method raises TypeError.  ==, repr and dict() read it as the plain
    dict of its entries, and it pickles and copies as one."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the tables of a TruncatedSSet are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    pop = popitem = clear = update = setdefault = _refuse

    def __reduce__(self):
        return _ReadOnly, (dict(self),)


@dataclass(frozen=True)
class TruncatedSSet:
    """A simplicial set known up to a finite level.

    cells[n] is the ordered tuple of level-n cell names.  faces maps
    (n, i) with 1 <= n <= level, 0 <= i <= n to the index table of
    d_i: cells[n] -> cells[n-1]; degeneracies maps (n, i) with
    0 <= n < level, 0 <= i <= n to that of s_i: cells[n] -> cells[n+1].
    Instances are immutable: the constructor copies faces and
    degeneracies into read-only dicts (an input that is one already is
    kept), and assigning, deleting or updating a key of either raises
    TypeError.  Overwriting a field through object.__setattr__ is
    unsupported.  from_names builds one from name-keyed tables.
    """

    level: int
    cells: tuple[tuple[str, ...], ...]
    faces: Mapping[tuple[int, int], Table]
    degeneracies: Mapping[tuple[int, int], Table]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(cs) for cs in self.cells))
        _check_cell_count(self.level, self.cells)
        for field in ("faces", "degeneracies"):
            tables = getattr(self, field)
            if type(tables) is not _ReadOnly:
                object.__setattr__(self, field, _ReadOnly(tables))

    def __setstate__(self, state: dict) -> None:
        """Load a pickle, whose tables are plain dicts if it was made
        before they were read-only, with read-only tables."""
        vars(self).update(state)
        self.__post_init__()

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


#: Byte k is k; its first size bytes are the identity table on size cells.
_BYTE_RANGE = bytes(range(256))


class _Encoding(NamedTuple):
    """How one call holds the tables of X.

    convert(t) is t converted, for a t that _index_problem passes;
    step(t) is the callable u -> the table of u after t, and operand(t)
    the u those callables take; identity(size) is the identity table on
    size cells; decide(memo, f, g, p, q, split=False) is pullback_holds
    on converted tables, by the count alone when split says f and q are
    injective.  memo is a dict of one call, in which decide keeps the
    fiber sizes of each q, so they are counted once per call.
    """

    convert: Callable
    step: Callable
    operand: Callable
    identity: Callable
    decide: Callable


def _fiber_sizes(memo: dict, q) -> Counter | bytes:
    """How many cells q sends to each target cell, counted once per
    memo: as the translate table of the counts for a bytes q of fewer
    than 256 cells, where every count fits a byte, else as a Counter.
    The entry under id(q) holds q, so that id stays q's."""
    entry = memo.get(id(q))
    if entry is None:
        if type(q) is bytes and len(q) < 256:
            row = bytearray(256)
            for d in q:
                row[d] += 1
            sizes = bytes(row)
        else:
            sizes = Counter(q)
        entry = memo[id(q)] = (q, sizes)
    return entry[1]


def _fiber_product_size(memo: dict, p, q) -> int:
    """|B x_D C| for p: B -> D <- C : q, the sum over b of |q^-1(p(b))|."""
    sizes = _fiber_sizes(memo, q)
    if type(sizes) is bytes:
        return sum(p.translate(sizes))
    return sum(map(sizes.get, p, repeat(0)))


def _tuple_holds(
    memo: dict, f: Table, g: Table, p: Table, q: Table, split: bool = False
) -> bool:
    """pullback_holds, with the fiber sizes of q kept in memo.

    With split, f and q are trusted to be injective, as X of a
    surjection of Delta is once X is validated: each degeneracy s_i has
    the left inverse d_i.  Then a |-> (f(a), g(a)) is injective, and q
    meets each fiber of p at most once, so a commuting square is a
    pullback iff |A| is the number of b with p(b) in the image of q,
    and neither the pairs nor the fiber sizes are needed."""
    if len(f) != len(g) or _then(f, p) != _then(g, q):
        return False
    if split:
        image = set(q)
        return len(f) == sum(map(image.__contains__, p))
    width = len(q)
    if len({b * width + c for b, c in zip(f, g)}) != len(f):
        return False
    return len(f) == _fiber_product_size(memo, p, q)


def _padded(table: bytes) -> bytes:
    """table padded to 256 bytes, the translate table that applies it."""
    return table.ljust(256, b"\0")


def _byte_holds(
    memo: dict, f: bytes, g: bytes, p: bytes, q: bytes, split: bool = False
) -> bool:
    """_tuple_holds on bytes: composing is one translate, comparing one
    memcmp (which fails too when f and g disagree on their domain), the
    pairs (f(a), g(a)) are pairs of bytes, and with split the b whose
    p(b) is not in the image of q are those p.translate keeps when it
    deletes the bytes of q."""
    if f.translate(_padded(p)) != g.translate(_padded(q)):
        return False
    if split:
        return len(f) == len(p) - len(p.translate(None, q))
    if len(set(zip(f, g))) != len(f):
        return False
    return len(f) == _fiber_product_size(memo, p, q)


_TUPLES = _Encoding(
    lambda table: table,
    _getter,
    lambda table: table,
    lambda size: tuple(range(size)),
    _tuple_holds,
)
#: first.translate(second padded to 256 bytes) is second after first.
_BYTES = _Encoding(
    bytes,
    attrgetter("translate"),
    _padded,
    lambda size: _BYTE_RANGE[:size],
    _byte_holds,
)


def _encoding(*sets: TruncatedSSet) -> _Encoding:
    """validate's choice for one call on sets: _BYTES when every level of
    every set holds at most 256 cells, else _TUPLES."""
    largest = max(map(len, chain.from_iterable(X.cells for X in sets)))
    return _BYTES if largest <= 256 else _TUPLES


def _checked_tables(X: TruncatedSSet, kind: str, convert, tested: bool) -> list[list]:
    """X's face ("d") or degeneracy ("s") tables, by n and then i, each
    converted by convert as rows[n][i]; with tested, each is first
    checked by _index_problem to be a tuple of indices of the right
    length and range, as a set without a record needs."""
    tables, levels, step = (
        (X.faces, range(1, X.level + 1), -1)
        if kind == "d"
        else (X.degeneracies, range(X.level), 1)
    )
    rows = [[] for _ in X.cells]
    for n in levels:
        source, size = X.cells[n], len(X.cells[n + step])
        for i in range(n + 1):
            try:
                table = tables[(n, i)]
            except KeyError:
                raise StructuralError(f"missing table {kind}_{i} at level {n}") from None
            problem = tested and _index_problem(table, source, size)
            if problem:
                raise StructuralError(f"{kind}_{i} at level {n} {problem}")
            rows[n].append(convert(table))
    return rows


def _certify(x: TruncatedSSet | SimplicialMap, facts=()) -> set:
    """Give x the record of facts, the one writer of _as_read, and return
    it.  x's tables and components cannot change (TruncatedSSet), so a
    fact proven of them holds for as long as x lives."""
    record = set(facts)
    object.__setattr__(x, "_as_read", record)
    return record


def _current(x: TruncatedSSet | SimplicialMap) -> set | None:
    """x's record, the set of facts proven of it, or None without one.
    A record of any other type, such as one of an older layout that a
    pickle made then holds, is never read."""
    record = vars(x).get("_as_read")
    return record if type(record) is set else None


def _proven(
    X: TruncatedSSet, record: set | None, code: _Encoding | None, walk: bool = True
):
    """(d, s, report, record): X's tables converted by code, as d[n][i]
    and s[n][i], after the shape test of each, with walk the report of
    validate's walk on them (else None), and X's record once they are
    proven.  Without code, as for validate alone, _encoding picks it, and
    the report of a remembered walk comes back without d and s.

    record is _current(X).  With it, the tables are converted untested,
    and once it holds "identities" the duplicate-cell test and the walk
    are skipped as well: the report is None, or for validate alone the
    one of the walk that held, counted from its plan (_holding).  A walk
    that holds adds "identities" to the record, or gives X one that
    holds it."""
    known = record is not None and "identities" in record
    if code is None:  # validate alone, which wants only the report
        if known:
            return None, None, _holding(_identity_plan(X.level), X.cells, X.level), record
        code = _encoding(X)
    walk = walk and not known
    if walk:
        _check_distinct(X.cells)
    d, s = (_checked_tables(X, k, code.convert, record is None) for k in "ds")
    if not walk:
        return d, s, None, record
    tables = _flat(X.level, d, s)
    report = _equations(_identity_plan(X.level), tables, code, X.cells, X.level)
    if report.holds:
        if record is None:
            record = _certify(X, ("identities",))
        else:
            record.add("identities")
    return d, s, report, record


class _Call:
    """The tables of one check, each converted once.

    code is the encoding, chosen once over every set of the check;
    rows[k] is (d, s), the converted tables of the k-th set as d[n][i]
    and s[n][i]; facts[k] is the k-th set's record once validated (as
    _current found it, or the one its walk set; None for a set with no
    record that was shape-tested only); memo keeps the fiber sizes of
    each q that decide counts, and decide is code's on that memo.
    Nothing in it outlives the check.
    """

    __slots__ = ("code", "rows", "facts", "memo", "decide", "__weakref__")

    def __init__(self, code: _Encoding, rows: list, facts: list) -> None:
        self.code, self.rows, self.facts, self.memo = code, rows, facts, {}
        self.decide = partial(code.decide, self.memo)


def _valid_call(
    *sets: TruncatedSSet, roles: tuple[str, ...] | None = None, walk: bool = True
) -> _Call:
    """The call of one check on sets, once each is validated (without
    walk, once each table has the right shape): StructuralError unless
    it is a simplicial set.  roles names the sets of a map in the errors
    ("map source: ..."); without it they are the input's.  A set given
    twice is read once."""
    code, rows, facts = _encoding(*sets), [], []
    for k, X in enumerate(sets):
        if k and X is sets[0]:
            rows.append(rows[0])
            facts.append(facts[0])
            continue
        who = "input" if roles is None else f"map {roles[k]}"
        try:
            d, s, report, record = _proven(X, _current(X), code, walk)
            rows.append((d, s))
            facts.append(record)
        except StructuralError as exc:
            if roles is None:
                raise
            raise StructuralError(f"{who}: {exc}") from None
        if report is not None and not report.holds:
            raise StructuralError(f"{who} is not a simplicial set: {report.detail}")
    return _Call(code, rows, facts)


def validate(X: TruncatedSSet) -> CheckReport:
    """Check every simplicial identity instance inside the truncation.

    Duplicate cells and missing, short or out-of-range tables raise
    StructuralError; identity violations produce a failing report
    naming the identity, level and first failing cell.  Each identity
    is checked by composing whole tables.  When every level of X holds
    at most 256 cells, the tables are bytes copies made for this call
    and a composition is one bytes.translate; otherwise they are X's
    own tuples, each composing through one getter built per call.  A
    bytes copy has the entries of its tuple, and is made only once
    _index_problem, which words any fault, has passed the table; the
    walk is the same for both, so its order, squares_checked and every
    report are as well.  A set on which a walk has held is not walked
    again: it gets the report of a walk that holds, its squares counted
    from the plan that walked them (_holding), as _proven says.
    """
    return _proven(X, _current(X), None)[2]


def _flat(top: int, d: list, s: list) -> list:
    """The tables d[n][i] and s[n][i] at the levels up to top, in slot
    order: block t = 1..top holds the tables between X_{t-1} and X_t,
    d_i on X_t and then s_i on X_{t-1}, so d_i on X_n is slot n*n - 1 + i
    and s_i on X_n is slot n*n + 3n + 2 + i, whatever top is."""
    return [*chain.from_iterable(chain.from_iterable(zip(d[1 : top + 1], s[:top])))]


def _bases(top: int) -> tuple[list, list]:
    """The slots _flat gives d_0 and s_0 on X_n, for n <= top."""
    levels = range(top + 1)
    return [n * n - 1 for n in levels], [n * n + 3 * n + 2 for n in levels]


#: How many levels of equation plans a process keeps.  One pass of a
#: benchmark workload reads at most five levels of identity plans (those
#: of lib-corpus, 1-5) and four of naturality plans, and a plan at level
#: 150 holds about 56,000 runs.
_PLAN_LEVELS = 8


@lru_cache(maxsize=_PLAN_LEVELS)
def _identity_plan(level: int) -> tuple:
    """validate's equations on a set of the given level, in walk order:
    d_i d_j = d_{j-1} d_i for i < j on X_n with n >= 2, then s_i s_j =
    s_{j+1} s_i for i <= j on X_n with n + 2 <= level, then d_i s_j on
    X_n with n + 1 <= level.

    A plan is (runs, firsts, seconds, words).  A run (n, f, g, h, k,
    count, name, i, j) holds count equations on X_n: for e < count, the
    table g + e after f equals the table k after h + e, or the identity
    of X_n when h and k are None, where f, g, h and k are slots into a
    call's tables.  With i + e for i, name.format(i, j, i - 1, j - 1,
    j + 1) words the equation, and words.format(that, n, cell) a failure
    on cell.  firsts and seconds slice the slots composed first (f and
    h) and those composed second (g and k).  Each family takes one run
    per (n, j), and d_i s_j three: i < j, the identity pair, and
    i > j + 1.  No run is empty."""
    (d, s), words = _bases(level), "identity {} fails at level {} on cell {!r}"
    dd, ss = "d_{0} d_{1} = d_{3} d_{0}", "s_{0} s_{1} = s_{4} s_{0}"
    below, split = "d_{0} s_{1} = s_{3} d_{0}", "d_{0} s_{1} = id"
    above = "d_{0} s_{1} = s_{1} d_{2}"
    runs = [(n, d[n] + j, d[n - 1], d[n], d[n - 1] + j - 1, j, dd, 0, j)
            for n in range(2, level + 1) for j in range(1, n + 1)]
    runs += [(n, s[n] + j, s[n + 1], s[n], s[n + 1] + j + 1, j + 1, ss, 0, j)
             for n in range(level - 1) for j in range(n + 1)]
    for n in range(level):
        for j in range(n + 1):
            f = s[n] + j
            if j:
                runs.append((n, f, d[n + 1], d[n], s[n - 1] + j - 1, j, below, 0, j))
            runs.append((n, f, d[n + 1] + j, None, None, 2, split, j, j))
            if j < n:
                g, h, k = d[n + 1] + j + 2, d[n] + j + 1, s[n - 1] + j
                runs.append((n, f, g, h, k, n - j, above, j + 2, j))
    return tuple(runs), slice(None), slice(None), words


def _holding(plan, cells, level: int) -> CheckReport:
    """The report of a walk of plan that holds, on a set whose levels
    hold cells: each run's count equations on X_n, each compared on every
    cell of X_n."""
    sizes = list(map(len, cells))
    squares = sum(run[5] * sizes[run[0]] for run in plan[0])
    return CheckReport(holds=True, checked_level=level, squares_checked=squares)


def _equations(plan, tables: list, code: _Encoding, cells, level) -> CheckReport:
    """The one loop that walks equations: the report of plan on tables,
    held in code, at the checked level, cells[n] the names of X_n; each
    table is made a getter or an operand once, and the identity of each
    X_n once.  The first unequal pair ends the walk, counted up to its
    first differing cell, and only then is the failing equation named."""
    runs, firsts, seconds, words = plan
    getters, operands = [None] * len(tables), [None] * len(tables)
    getters[firsts] = map(code.step, tables[firsts])
    operands[seconds] = map(code.operand, tables[seconds])
    sizes = list(map(len, cells))
    identities, checked = list(map(code.identity, sizes)), 0
    for n, f, g, h, k, count, name, i, j in runs:
        step = getters[f]
        operand = identities[n] if k is None else operands[k]
        for e in range(count):
            lhs = step(operands[g + e])
            rhs = operand if h is None else getters[h + e](operand)
            if lhs != rhs:
                break
        else:
            checked += count * sizes[n]
            continue
        cell = _first_difference(lhs, rhs)
        return CheckReport(
            holds=False, checked_level=level,
            squares_checked=checked + e * sizes[n] + cell + 1,
            detail=words.format(
                name.format(i + e, j, i + e - 1, j - 1, j + 1), n, cells[n][cell]
            ),
        )
    return CheckReport(holds=True, checked_level=level, squares_checked=checked)


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


#: The facts a set's record can hold, each kept by truncate: its
#: identities, and the square families, X's Segal squares, its upper and
#: lower 2-Segal squares and its unit squares (the elementary squares
#: whose alpha is a codegeneracy), each the whole family within X's
#: level, as check_segal, the 2-Segal checkers and the direct checker's
#: pasting certificate decide them.  Each identity and each square of a
#: family within level k is one within any level above k, on the same
#: tables.
_SAME = {fact: fact for fact in ("identities", "segal", "upper", "lower", "unit")}

#: The facts of X that its opposite holds, by the fact they become: its
#: identities, since d_k |-> d_{n-k} maps them onto themselves, and its
#: families.  d_k |-> d_{n-k} on X_n turns the Segal square of X^op at n
#: into X's at n, transposed: (d_0, d_{n+1}, d_n, d_0) of X^op is
#: (d_{n+1}, d_0, d_0, d_n) of X.  It turns the upper square (k, i) of X^op, (d_{i+1}, d_0,
#: d_0, d_i) on X_{k+1} over X_{k-1}, into (d_{k-i}, d_{k+1}, d_k,
#: d_{k-i}), X's lower square (k, k - i), and so the lower squares into
#: the upper ones.  A unit square, alpha the codegeneracy doubling j
#: pushed out along the outer coface at offset c, becomes X's unit square
#: doubling n - 1 - j at offset 1 - c.
_OPPOSITE = {**_SAME, "upper": "lower", "lower": "upper"}


def opposite(X: TruncatedSSet) -> TruncatedSSet:
    """Reverse the operator order: d_k becomes d_{n-k}, s_k becomes s_{n-k}.

    d_k |-> d_{n-k} maps X's simplicial identities onto themselves, so
    the opposite inherits what X's record proves (_inherit), with the
    upper and lower families swapped (_OPPOSITE)."""
    faces = {(n, i): X.faces[(n, n - i)] for (n, i) in X.faces}
    degeneracies = {(n, i): X.degeneracies[(n, n - i)] for (n, i) in X.degeneracies}
    Y = TruncatedSSet(X.level, X.cells, faces, degeneracies)
    _inherit(Y, _current(X), _OPPOSITE)
    return Y


def truncate(X: TruncatedSSet, level: int) -> TruncatedSSet:
    """Forget everything above the given level.  Its identities and its
    squares are some of X's, so it inherits what X's record proves
    (_inherit), every family included."""
    if level > X.level:
        raise LevelError(f"cannot extend level {X.level} to {level}")
    faces = {(n, i): t for (n, i), t in X.faces.items() if n <= level}
    degeneracies = {
        (n, i): t for (n, i), t in X.degeneracies.items() if n + 1 <= level
    }
    Y = TruncatedSSet(level, X.cells[: level + 1], faces, degeneracies)
    _inherit(Y, _current(X), _SAME)
    return Y


def _inherit(z: TruncatedSSet | SimplicialMap, record: set | None, facts) -> None:
    """Give z what record proves of it, record being _current(X) for the
    set X that opposite, truncate or a decalage made z of just now: each
    fact of X that facts maps becomes the fact of z it names, as the
    operator's docstring proves.  Nothing is given when record is None.

    Each of them makes z of X's very tables, reindexed: every table of
    z is one of X's, between levels of X of the sizes of z's, so it
    passes the same shape test; the levels of a set z are levels of X,
    so they hold no duplicate cell; and each simplicial identity of a
    set z, on each cell, is one of X's on the same tables and cells.
    So the reader's shape test carries over as a shape test, and
    "identities" as the identities a walk of z would find holding.  A
    projection's components are outer faces of X, and with "identities"
    each naturality equation of it is a simplicial identity of X on the
    same tables: for Dec_top, c_{n-1} d_i = d_i c_n is d_i d_{n+1} =
    d_n d_i and c_{n+1} s_i = s_i c_n is d_{n+2} s_i = s_i d_{n+1} on
    X_{n+1}, and the mirror images for Dec_bot."""
    if record is not None:
        _certify(z, [facts[f] for f in record if f in facts])


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
    return _tuple_holds({}, f, g, p, q)


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
    Instances are immutable, as a set's tables are; overwriting a field
    through object.__setattr__ is unsupported.
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
    call = _valid_call(m.source, m.target, roles=("source", "target"), walk=False)
    return _naturality(m, call)[1]


def _components(m: SimplicialMap, convert, tested: bool) -> list:
    """m's components converted by convert; with tested, each is first
    shape-tested by _index_problem, and one of the wrong shape raises
    StructuralError naming its level."""
    comps = []
    for n, comp in enumerate(m.components):
        problem = tested and _index_problem(comp, m.source.cells[n], len(m.target.cells[n]))
        if problem:
            raise StructuralError(f"component at level {n} {problem}")
        comps.append(convert(comp))
    return comps


def _naturality(m: SimplicialMap, call: _Call) -> tuple[list, CheckReport, set]:
    """m's components converted in the call of its ends, validate_map's
    report on them, composed as validate composes, and the facts of m's
    record (empty without one), among them the kinds of culf square
    proven to be pullbacks.

    m's record is set by serialize's map reader once it has shape-tested
    each component, and by _inherit on a decalage projection.  With it,
    m's components are converted untested, and once it holds
    "naturality" the report is the one of the walk that held, counted
    from its plan (_holding), with no walk; a walk that holds adds
    "naturality" to it."""
    facts, code, top = _current(m), call.code, m.shared_level
    comps = _components(m, code.convert, facts is None)
    if facts is None:
        facts = set()
    plan, cells = _naturality_plan(top), m.source.cells
    if "naturality" in facts:
        report = _holding(plan, cells, top)
    else:
        tables = [*_flat(top, *call.rows[0]), *comps, *_flat(top, *call.rows[1])]
        report = _equations(plan, tables, code, cells, top)
    if report.holds:
        facts.add("naturality")
    return comps, report, facts


@lru_cache(maxsize=_PLAN_LEVELS)
def _naturality_plan(top: int) -> tuple:
    """validate_map's equations on a map c of shared level top, in walk
    order: c_{n-1} d_i = d_i c_n on X_n for 1 <= n <= top, then c_{n+1}
    s_i = s_i c_n on X_n for n < top, each for i <= n, one run per
    (kind, n) as _identity_plan says.  The source's tables take the first slots, as _flat gives
    them, then c's components, then the target's tables, so that the
    slots composed first (the source's and c's) and those composed
    second (c's and the target's) are each one slice, and no getter is
    made for the target's tables."""
    (d, s), c = _bases(top), top * top + 2 * top
    Y, words = c + top + 1, "naturality fails for {} at level {} on {!r}"
    runs = [(n, c + n, Y + d[n], d[n], c + n - 1, n + 1, "d_{0}", 0, 0)
            for n in range(1, top + 1)]
    runs += [(n, c + n, Y + s[n], s[n], c + n + 1, n + 1, "s_{0}", 0, 0)
             for n in range(top)]
    return tuple(runs), slice(Y), slice(c, None), words
