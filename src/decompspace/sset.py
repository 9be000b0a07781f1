"""Truncated simplicial sets as finite operator tables.

A TruncatedSSet stores, for each level 0..L, an ordered tuple of cell
identifiers together with total face and degeneracy tables.  Everything
downstream (criteria, operators, builders) manipulates these tables;
the pullback engine for squares of finite sets lives here too, as do
the report and witness types shared by every checker.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from . import delta
from .delta import SimplexMap


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
    """Outcome of a criterion check at a finite truncation."""

    holds: bool
    checked_level: int
    squares_checked: int
    witness: SquareWitness | None = None
    detail: str | None = None

    @property
    def verdict(self) -> str:
        return "holds-at-checked-depth" if self.holds else "fails"


@dataclass(frozen=True)
class TruncatedSSet:
    """A simplicial set known up to a finite level.

    cells[n] is the ordered tuple of level-n cell identifiers.  faces
    maps (n, i) with 1 <= n <= level, 0 <= i <= n to the table of
    d_i: cells[n] -> cells[n-1]; degeneracies maps (n, i) with
    0 <= n < level, 0 <= i <= n to s_i: cells[n] -> cells[n+1].
    Treat instances as immutable after construction.
    """

    level: int
    cells: tuple[tuple[str, ...], ...]
    faces: Mapping[tuple[int, int], Mapping[str, str]]
    degeneracies: Mapping[tuple[int, int], Mapping[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(cs) for cs in self.cells))
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.cells) != self.level + 1:
            raise ValueError(
                f"expected {self.level + 1} cell levels, got {len(self.cells)}"
            )

    def face(self, n: int, i: int) -> Mapping[str, str]:
        try:
            return self.faces[(n, i)]
        except KeyError:
            raise LevelError(f"no face table d_{i} at level {n}") from None

    def degeneracy(self, n: int, i: int) -> Mapping[str, str]:
        try:
            return self.degeneracies[(n, i)]
        except KeyError:
            raise LevelError(f"no degeneracy table s_{i} at level {n}") from None


def _check_table(
    X: TruncatedSSet, kind: str, n: int, i: int, target_level: int
) -> Mapping[str, str]:
    tables = X.faces if kind == "d" else X.degeneracies
    if (n, i) not in tables:
        raise StructuralError(f"missing table {kind}_{i} at level {n}")
    table = tables[(n, i)]
    domain = set(X.cells[n])
    target = set(X.cells[target_level])
    for c in X.cells[n]:
        if c not in table:
            raise StructuralError(f"{kind}_{i} at level {n} undefined on {c!r}")
        if table[c] not in target:
            raise StructuralError(
                f"{kind}_{i} at level {n} sends {c!r} to dangling cell {table[c]!r}"
            )
    for c in table:
        if c not in domain:
            raise StructuralError(
                f"{kind}_{i} at level {n} defined on unknown cell {c!r}"
            )
    return table


def validate(X: TruncatedSSet) -> CheckReport:
    """Check every simplicial identity instance inside the truncation.

    Dangling or non-total tables raise StructuralError; identity
    violations produce a failing report naming the identity, level and
    cell.
    """
    for n in range(len(X.cells)):
        seen = set()
        for c in X.cells[n]:
            if c in seen:
                raise StructuralError(f"duplicate cell {c!r} at level {n}")
            seen.add(c)
    for n in range(1, X.level + 1):
        for i in range(n + 1):
            _check_table(X, "d", n, i, n - 1)
    for n in range(X.level):
        for i in range(n + 1):
            _check_table(X, "s", n, i, n + 1)

    checked = 0

    def fail(name: str, n: int, c: str) -> CheckReport:
        return CheckReport(
            holds=False,
            checked_level=X.level,
            squares_checked=checked,
            detail=f"identity {name} fails at level {n} on cell {c!r}",
        )

    # d_i d_j = d_{j-1} d_i for i < j, on X_n with n >= 2
    for n in range(2, X.level + 1):
        for j in range(1, n + 1):
            for i in range(j):
                di, dj = X.faces[(n - 1, i)], X.faces[(n, j)]
                dj1, di2 = X.faces[(n - 1, j - 1)], X.faces[(n, i)]
                for c in X.cells[n]:
                    checked += 1
                    if di[dj[c]] != dj1[di2[c]]:
                        return fail(f"d_{i} d_{j} = d_{j-1} d_{i}", n, c)
    # s_i s_j = s_{j+1} s_i for i <= j, on X_n with n + 2 <= level
    for n in range(X.level - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                si, sj = X.degeneracies[(n + 1, i)], X.degeneracies[(n, j)]
                sj1, si2 = X.degeneracies[(n + 1, j + 1)], X.degeneracies[(n, i)]
                for c in X.cells[n]:
                    checked += 1
                    if si[sj[c]] != sj1[si2[c]]:
                        return fail(f"s_{i} s_{j} = s_{j+1} s_{i}", n, c)
    # d_i s_j on X_n with n + 1 <= level
    for n in range(X.level):
        for j in range(n + 1):
            sj = X.degeneracies[(n, j)]
            for i in range(n + 2):
                di = X.faces[(n + 1, i)]
                for c in X.cells[n]:
                    checked += 1
                    got = di[sj[c]]
                    if i == j or i == j + 1:
                        ok = got == c
                        name = f"d_{i} s_{j} = id"
                    elif i < j:
                        ok = got == X.degeneracies[(n - 1, j - 1)][X.faces[(n, i)][c]]
                        name = f"d_{i} s_{j} = s_{j-1} d_{i}"
                    else:
                        ok = got == X.degeneracies[(n - 1, j)][X.faces[(n, i - 1)][c]]
                        name = f"d_{i} s_{j} = s_{j} d_{i-1}"
                    if not ok:
                        return fail(name, n, c)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def induced_map(X: TruncatedSSet, alpha: SimplexMap) -> dict[str, str]:
    """The contravariant action of a simplex-category map on cells.

    For alpha: [n] -> [m] returns the function cells[m] -> cells[n],
    computed by composing face/degeneracy tables along the canonical
    generator word of alpha.
    """
    if alpha.target_rank > X.level or alpha.source_rank > X.level:
        raise LevelError(
            f"map [{alpha.source_rank}]->[{alpha.target_rank}] exceeds level {X.level}"
        )
    level = alpha.target_rank
    out = {c: c for c in X.cells[level]}
    for kind, i in delta.generator_decomposition(alpha):
        if kind == "delta":
            table = X.face(level, i)
            level -= 1
        else:
            table = X.degeneracy(level, i)
            level += 1
        out = {c: table[v] for c, v in out.items()}
    return out


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


def compose_tables(*tables: Mapping[str, str]) -> dict[str, str]:
    """Compose operator tables, first table applied first."""
    if not tables:
        raise ValueError("need at least one table")
    out = {c: c for c in tables[0]}
    for table in tables:
        out = {c: table[v] for c, v in out.items()}
    return out


def is_pullback_square(
    f: Mapping[str, str],
    g: Mapping[str, str],
    p: Mapping[str, str],
    q: Mapping[str, str],
    square: str = "",
    levels: tuple[int, ...] = (),
) -> CheckReport:
    """Decide whether A is the fiber product of p: B -> D <- C : q.

    f: A -> B and g: A -> C are the candidate projections; the square
    must commute (p o f = q o g), otherwise a StructuralError is raised.
    Holds iff a |-> (f(a), g(a)) is a bijection onto
    {(b, c) | p(b) = q(c)}.  Since the square commutes, that map lands
    in the fiber product, so it is a bijection iff its pairs are
    distinct and |A| = sum over d of |p^-1(d)| * |q^-1(d)|; the verdict
    is decided by that count.  The fiber product is enumerated (b in the
    order of p, c in the order of q) only when the count fails, to find
    the witness: the first element whose preimage count is not 1, with
    its preimages in the order of f.
    """
    if f.keys() != g.keys():
        raise StructuralError("candidate projections disagree on their domain")
    pairs = set()
    for a, b in f.items():
        c = g[a]
        if p[b] != q[c]:
            raise StructuralError(
                f"square {square or '(unnamed)'} does not commute at {a!r}"
            )
        pairs.add((b, c))
    if len(pairs) == len(f):
        qsizes = Counter(q.values())
        size = sum(n * qsizes[d] for d, n in Counter(p.values()).items())
        if len(f) == size:
            return CheckReport(holds=True, checked_level=0, squares_checked=1)
    preimages: dict[tuple[str, str], list[str]] = {}
    for a in f:
        preimages.setdefault((f[a], g[a]), []).append(a)
    qfibers: dict[str, list[str]] = {}
    for c, v in q.items():
        qfibers.setdefault(v, []).append(c)
    for b in p:
        for c in qfibers.get(p[b], ()):
            pre = preimages.get((b, c), [])
            if len(pre) != 1:
                witness = SquareWitness(
                    square=square,
                    levels=levels,
                    element=(b, c),
                    preimage_count=len(pre),
                    preimages=tuple(pre),
                )
                return CheckReport(
                    holds=False, checked_level=0, squares_checked=1, witness=witness
                )
    return CheckReport(holds=True, checked_level=0, squares_checked=1)


@dataclass(frozen=True)
class SimplicialMap:
    """A level-indexed family of functions commuting with all operators.

    components[n] maps source cells[n] to target cells[n] for every
    shared level n <= min(source.level, target.level).
    """

    source: TruncatedSSet
    target: TruncatedSSet
    components: tuple[Mapping[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        shared = min(self.source.level, self.target.level)
        if len(self.components) != shared + 1:
            raise ValueError(
                f"expected {shared + 1} components, got {len(self.components)}"
            )

    @property
    def shared_level(self) -> int:
        return len(self.components) - 1


def validate_map(m: SimplicialMap) -> CheckReport:
    """Check totality and commutation with every generator in truncation."""
    top = m.shared_level
    for n in range(top + 1):
        comp = m.components[n]
        target_cells = set(m.target.cells[n])
        for c in m.source.cells[n]:
            if c not in comp:
                raise StructuralError(f"component at level {n} undefined on {c!r}")
            if comp[c] not in target_cells:
                raise StructuralError(
                    f"component at level {n} sends {c!r} to dangling {comp[c]!r}"
                )
    checked = 0
    for n in range(1, top + 1):
        for i in range(n + 1):
            src_d = m.source.face(n, i)
            tgt_d = m.target.face(n, i)
            for c in m.source.cells[n]:
                checked += 1
                if tgt_d[m.components[n][c]] != m.components[n - 1][src_d[c]]:
                    return CheckReport(
                        holds=False,
                        checked_level=top,
                        squares_checked=checked,
                        detail=f"naturality fails for d_{i} at level {n} on {c!r}",
                    )
    for n in range(top):
        for i in range(n + 1):
            src_s = m.source.degeneracy(n, i)
            tgt_s = m.target.degeneracy(n, i)
            for c in m.source.cells[n]:
                checked += 1
                if tgt_s[m.components[n][c]] != m.components[n + 1][src_s[c]]:
                    return CheckReport(
                        holds=False,
                        checked_level=top,
                        squares_checked=checked,
                        detail=f"naturality fails for s_{i} at level {n} on {c!r}",
                    )
    return CheckReport(holds=True, checked_level=top, squares_checked=checked)


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """Levelwise composite g after f."""
    if f.target != g.source:
        raise ValueError("compose_maps needs f.target == g.source")
    shared = min(f.shared_level, g.shared_level)
    components = tuple(
        {c: g.components[n][f.components[n][c]] for c in f.components[n]}
        for n in range(shared + 1)
    )
    return SimplicialMap(f.source, g.target, components)


def identity_map(X: TruncatedSSet) -> SimplicialMap:
    return SimplicialMap(
        X, X, tuple({c: c for c in X.cells[n]} for n in range(X.level + 1))
    )


def find_isomorphism(
    X: TruncatedSSet, Y: TruncatedSSet
) -> tuple[dict[str, str], ...] | None:
    """Search for a levelwise bijection commuting with every operator.

    Deterministic backtracking, pruned by color refinement and by the
    face images already fixed at lower levels.  Returns the component
    dicts or None.  Intended for desk-scale objects.
    """
    if X.level != Y.level:
        return None
    if any(len(a) != len(b) for a, b in zip(X.cells, Y.cells)):
        return None

    def refine(Z: TruncatedSSet) -> dict[tuple[int, str], int]:
        color = {(n, c): n for n in range(Z.level + 1) for c in Z.cells[n]}
        for _ in range(Z.level + 2):
            sig = {}
            for n in range(Z.level + 1):
                for c in Z.cells[n]:
                    out = []
                    for i in range(n + 1):
                        if n >= 1:
                            out.append(("d", i, color[(n - 1, Z.faces[(n, i)][c])]))
                        if n < Z.level:
                            out.append(
                                ("s", i, color[(n + 1, Z.degeneracies[(n, i)][c])])
                            )
                    sig[(n, c)] = (color[(n, c)], tuple(sorted(out)))
            palette = {s: j for j, s in enumerate(sorted(set(sig.values())))}
            new = {k: palette[sig[k]] for k in sig}
            if new == color:
                break
            color = new
        return color

    cx, cy = refine(X), refine(Y)
    mapping: dict[tuple[int, str], str] = {}

    def degeneracies_ok(n: int) -> bool:
        if n == 0:
            return True
        for i in range(n):
            sx = X.degeneracies[(n - 1, i)]
            sy = Y.degeneracies[(n - 1, i)]
            for c in X.cells[n - 1]:
                if mapping[(n, sx[c])] != sy[mapping[(n - 1, c)]]:
                    return False
        return True

    def assign(n: int) -> bool:
        if n > X.level:
            return True
        xs = list(X.cells[n])
        used: set[str] = set()

        # targets must match refined color and already-assigned faces
        def candidates(c: str) -> list[str]:
            if n >= 1:
                key = (cx[(n, c)],) + tuple(
                    mapping[(n - 1, X.faces[(n, i)][c])] for i in range(n + 1)
                )
            else:
                key = (cx[(n, c)],)
            outs = []
            for d in Y.cells[n]:
                if d in used:
                    continue
                if n >= 1:
                    dkey = (cy[(n, d)],) + tuple(
                        Y.faces[(n, i)][d] for i in range(n + 1)
                    )
                else:
                    dkey = (cy[(n, d)],)
                if dkey == key:
                    outs.append(d)
            return outs

        def place(idx: int) -> bool:
            if idx == len(xs):
                if not degeneracies_ok(n):
                    return False
                return assign(n + 1)
            c = xs[idx]
            for d in candidates(c):
                mapping[(n, c)] = d
                used.add(d)
                if place(idx + 1):
                    return True
                used.discard(d)
                del mapping[(n, c)]
            return False

        return place(0)

    if not assign(0):
        return None
    return tuple(
        {c: mapping[(n, c)] for c in X.cells[n]} for n in range(X.level + 1)
    )


def are_isomorphic(X: TruncatedSSet, Y: TruncatedSSet) -> bool:
    return find_isomorphism(X, Y) is not None
