"""Brute-force universal-property oracles for the simplex category, and
reference implementations of the square engine.

The simplex-category oracles work from the defining equations only
(pointwise determination plus monotone completion counting); they never
consult the closed-form pushout construction they are used to certify.
A map is its value tuple, as in the library: monotone_tuples lists the
maps [n] -> [m] and active_tuples and inert_tuples filter them by the
definitions, and a rank that a tuple does not show (the pushout rank of
a square) is an argument.
The reference pullback enumerates the whole fiber product of every
square, and the reference direct and polygonal walks check every square
through it, with no memo and no shortcut: the library's engine must
give reports identical to theirs.  reference_polygonal_reports gives
the polygonal reference in several modes at once, deciding each square
once.  The walk oracle decides the same
squares in the same order with the library's pullback engine and no
pasting certificate, which the direct checker must match wherever it
takes the certificate.  The 2-Segal references (upper, lower, reduced
and check_decomposition) read their squares off X's face and degeneracy
index tables, composing the reduced checker's composites, and decide
them with the library's pullback engine, as the walk oracle does; the
library walks the same squares as views of its plans.  The Segal and
culf references name X's tables and decide every square with the
reference pullback; the iterated Segal reference reads each edge of a
cell one face at a time and lists the chains of edges level by level.

The references work on tables keyed by cell name, the representation
the library held before its tables became index tuples: NamedSSet is a
simplicial set in that form, and reference_validate checks it cell by
cell as the library once did; given index tables, it first checks them
entry by entry and then names them.  reference_validate_map checks a
simplicial map's components entry by entry and its naturality squares
cell by cell on name-keyed tables.

reference_dumps is the documented file layout as json's own indenting
encoder writes it; serialize.dumps must give the same text.

reference_from_partial_monoid builds the simplicial set of a partial
monoid word by word, and reference_dec_bot reads the lower decalage off
X's tables directly, shifting every index down by one.  The library
builds the first as the chains of a one-object partial category and the
second as the dual of the upper decalage; both must write the same
bytes as these.

The last helpers serve the tests and nothing in the library:
evaluate_word composes a generator word, coface_values and
codegeneracy_values list the generators as value tuples, compose_maps
and identity_map build simplicial maps, and find_isomorphism and
are_isomorphic compare simplicial sets up to renaming.
"""

import json
from dataclasses import dataclass
from functools import cache

from decompspace import builders, delta
from decompspace.sset import (
    CheckReport,
    LevelError,
    SimplicialMap,
    SquareWitness,
    StructuralError,
    Table,
    TruncatedSSet,
    compose_tables,
    induce,
    is_pullback_square,
    pullback_holds,
    table_names,
)


@cache
def monotone_tuples(length, top):
    """All weakly increasing value tuples of the given length in 0..top,
    lexicographic: the maps [length - 1] -> [top]."""
    if length == 0:
        return ((),)
    return tuple(
        (v, *rest)
        for v in range(top + 1)
        for rest in monotone_tuples(length - 1, top)
        if not rest or v <= rest[0]
    )


def active_tuples(n, m):
    """The active maps [n] -> [m] by their definition, lexicographic."""
    return [t for t in monotone_tuples(n + 1, m) if t[0] == 0 and t[-1] == m]


def inert_tuples(n, k):
    """The inert maps [n] -> [k] by their definition, by offset."""
    return [
        t for t in monotone_tuples(n + 1, k) if all(b == a + 1 for a, b in zip(t, t[1:]))
    ]


def compose_values(outer, inner):
    return tuple(outer[v] for v in inner)


def cocone_factorizations(theta, phi, p, u_vals, v_vals, q):
    """Count w: [p] -> [q] with w o theta = u and w o phi = v.

    w is pinned pointwise wherever theta or phi hits; leftover slots (if
    any) range over all monotone completions.
    """
    pinned = [None] * (p + 1)
    for s, t in enumerate(theta):
        if pinned[t] is not None and pinned[t] != u_vals[s]:
            return 0
        pinned[t] = u_vals[s]
    for s, t in enumerate(phi):
        if pinned[t] is not None and pinned[t] != v_vals[s]:
            return 0
        pinned[t] = v_vals[s]

    def completions(idx, lo):
        if idx > p:
            return 1
        if pinned[idx] is not None:
            if pinned[idx] < lo:
                return 0
            return completions(idx + 1, pinned[idx])
        return sum(completions(idx + 1, v) for v in range(lo, q + 1))

    return completions(0, 0)


def assert_pushout(alpha, iota, theta, phi, p, max_cocone_rank):
    """Universal property of the square theta o alpha = phi o iota closing
    at rank p: every cocone factors through (theta, phi) once."""
    assert max(theta + phi) <= p
    assert compose_values(theta, alpha) == compose_values(phi, iota)
    m, k = len(theta) - 1, len(phi) - 1
    for q in range(max_cocone_rank + 1):
        for u in monotone_tuples(m + 1, q):
            through_alpha = compose_values(u, alpha)
            for v in monotone_tuples(k + 1, q):
                if compose_values(v, iota) != through_alpha:
                    continue
                assert cocone_factorizations(theta, phi, p, u, v, q) == 1, (
                    f"cocone u={u} v={v} at rank {q} does not factor uniquely "
                    f"through theta={theta}, phi={phi}"
                )


def assert_pullback(alpha, iota, theta, phi, p, max_cone_rank):
    """Universal property of the square theta o alpha = phi o iota closing
    at rank p: every cone factors through (alpha, iota) once.

    Since iota is injective a cone (u, v) admits at most one filler, so
    the check is existence: v must land in the image of iota and the
    unique preimage must compose to u.
    """
    assert max(theta + phi) <= p
    inverse = {val: s for s, val in enumerate(iota)}
    theta_inverse = {val: s for s, val in enumerate(theta)}
    for q in range(max_cone_rank + 1):
        for v in monotone_tuples(q + 1, len(phi) - 1):
            through_phi = compose_values(phi, v)
            if any(t not in theta_inverse for t in through_phi):
                continue  # no u makes (u, v) a cone
            u = tuple(theta_inverse[t] for t in through_phi)
            w = tuple(inverse.get(t) for t in v)
            assert None not in w and compose_values(alpha, w) == u, (
                f"cone u={u} v={v} at rank {q} does not factor through "
                f"alpha={alpha}, iota={iota}"
            )


def factorization_buckets(top_rank):
    """Bucket every inert-after-active composite [n] -> [m] by (values, m)."""
    buckets = {}
    for n in range(top_rank + 1):
        for j in range(top_rank + 1):
            actives = active_tuples(n, j)
            for m in range(j, top_rank + 1):
                for inert in inert_tuples(j, m):
                    for active in actives:
                        f = compose_values(inert, active)
                        buckets.setdefault((f, m), []).append((active, inert))
    return buckets


def reference_is_pullback_square(f, g, p, q, square="", levels=()):
    """Enumerate B x_D C and count the preimages of every element."""
    if set(f) != set(g):
        raise StructuralError("candidate projections disagree on their domain")
    for a in f:
        if p[f[a]] != q[g[a]]:
            raise StructuralError(
                f"square {square or '(unnamed)'} does not commute at {a!r}"
            )
    preimages = {}
    for a in f:
        preimages.setdefault((f[a], g[a]), []).append(a)
    qfibers = {}
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


def reference_check_decomposition_direct(X, rank_cap=None, max_squares=None):
    """Every active-inert square within the rank cap, each one induced
    afresh and decided by the reference pullback."""
    report = reference_validate(named_sset(X))
    if not report.holds:
        raise StructuralError(f"input is not a simplicial set: {report.detail}")
    if rank_cap is None:
        rank_cap = X.level
    if rank_cap > X.level:
        raise LevelError(f"rank cap {rank_cap} exceeds level {X.level}")
    checked = 0
    for n in range(0, rank_cap + 1):
        for k in range(n, X.level + 1):
            for m in range(0, min(X.level, rank_cap - k + n) + 1):
                for iota in inert_tuples(n, k):
                    for alpha in active_tuples(n, m):
                        if max_squares is not None and checked >= max_squares:
                            return CheckReport(
                                holds=False,
                                checked_level=X.level,
                                squares_checked=checked,
                                detail=f"stopped after {checked} squares "
                                f"(budget {max_squares})",
                                inconclusive=True,
                            )
                        theta, phi = delta.pushout_values(alpha, iota[0], k)
                        checked += 1
                        p = k - n + m
                        sub = reference_is_pullback_square(
                            induced_names(X, p, phi),
                            induced_names(X, p, theta),
                            induced_names(X, k, iota),
                            induced_names(X, m, alpha),
                            square=f"active-inert alpha={alpha} "
                            f"iota={iota}: X{p} over X{n}",
                            levels=(p, k, m, n),
                        )
                        if not sub.holds:
                            return CheckReport(
                                holds=False,
                                checked_level=X.level,
                                squares_checked=checked,
                                witness=sub.witness,
                            )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def walk_check_decomposition_direct(X, rank_cap=None, max_squares=None, tables=None):
    """The direct walk with no pasting certificate: every active-inert
    square within the rank cap, in the reference's order, decided by the
    library's pullback engine.  Much faster than the reference, for the
    differential tests that need thousands of calls.  X must be valid;
    tables memoizes the induced maps of X and may be shared between
    calls on the same X."""
    if rank_cap is None:
        rank_cap = X.level
    if tables is None:
        tables = {}

    def induce_once(target_rank, values):
        if (target_rank, values) not in tables:
            tables[(target_rank, values)] = induce(X, target_rank, values)
        return tables[(target_rank, values)]

    checked = 0
    for n in range(rank_cap + 1):
        for k in range(n, X.level + 1):
            for m in range(min(X.level, rank_cap - k + n) + 1):
                for alpha, iota, theta, phi in delta.active_inert_squares(n, k, m):
                    if max_squares is not None and checked >= max_squares:
                        return CheckReport(
                            holds=False,
                            checked_level=X.level,
                            squares_checked=checked,
                            detail=f"stopped after {checked} squares "
                            f"(budget {max_squares})",
                            inconclusive=True,
                        )
                    checked += 1
                    p = phi[-1]
                    legs = (
                        induce_once(p, phi),
                        induce_once(p, theta),
                        induce_once(k, iota),
                        induce_once(m, alpha),
                    )
                    if pullback_holds(*legs):
                        continue
                    sub = is_pullback_square(
                        *legs,
                        square=f"active-inert alpha={alpha} iota={iota}: X{p} over X{n}",
                        levels=(p, k, m, n),
                        names=(X.cells[p], X.cells[k], X.cells[m]),
                    )
                    return CheckReport(
                        holds=False,
                        checked_level=X.level,
                        squares_checked=checked,
                        witness=sub.witness,
                    )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def reference_check_2segal_polygonal(X, mode="full"):
    """The two-element-subset squares {i, j} inside [n], each one induced
    afresh and decided by the reference pullback."""
    return reference_polygonal_reports(X, (mode,))[0]


#: The squares {i, j} inside [n] that each polygonal mode keeps.
REFERENCE_POLYGONAL_MODES = {
    "full": lambda i, j, n: True,
    "restricted": lambda i, j, n: i == 0 or j == n,
    "upper": lambda i, j, n: j == n,
    "lower": lambda i, j, n: i == 0,
}


def reference_polygonal_reports(X, modes=tuple(REFERENCE_POLYGONAL_MODES)):
    """reference_check_2segal_polygonal of X in each of the modes, in a
    list: X is validated once, and each square is induced and decided
    once, when the first mode that keeps it reaches it."""
    report = reference_validate(named_sset(X))
    if not report.holds:
        raise StructuralError(f"input is not a simplicial set: {report.detail}")
    decided = {}

    def decide(n, i, j):
        if (n, i, j) not in decided:
            alpha, iota, k = (0, j - i), (i, i + 1), n - j + i + 1
            theta, phi = delta.pushout_values(alpha, i, k)
            decided[(n, i, j)] = reference_is_pullback_square(
                induced_names(X, n, phi),
                induced_names(X, n, theta),
                induced_names(X, k, iota),
                induced_names(X, j - i, alpha),
                square=f"polygonal n={n} i={i} j={j}: "
                f"X{n} -> X{k} / X{j - i} over X1",
                levels=(n, k, j - i, 1),
            )
        return decided[(n, i, j)]

    def walk(keep):
        checked = 0
        for n in range(1, X.level + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    if not keep(i, j, n):
                        continue
                    checked += 1
                    sub = decide(n, i, j)
                    if not sub.holds:
                        return CheckReport(
                            holds=False,
                            checked_level=X.level,
                            squares_checked=checked,
                            witness=sub.witness,
                        )
        return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)

    return [walk(REFERENCE_POLYGONAL_MODES[mode]) for mode in modes]


def _two_segal_square(X, n, i, upper):
    """The upper or lower 2-Segal square at (n, i) read off X's face
    tables: (legs, label, levels)."""
    d = X.faces
    if upper:
        # top d_{i+1}, left d_bot, right d_bot, bottom d_i
        legs = (d[(n + 1, i + 1)], d[(n + 1, 0)], d[(n, 0)], d[(n, i)])
        label = (
            f"upper n={n} i={i}: X{n + 1} -(d_{i + 1})-> X{n}, "
            f"X{n + 1} -(d_bot)-> X{n}, legs d_bot / d_{i} into X{n - 1}"
        )
    else:
        # top d_i, left d_top, right d_top, bottom d_i
        legs = (d[(n + 1, i)], d[(n + 1, n + 1)], d[(n, n)], d[(n, i)])
        label = (
            f"lower n={n} i={i}: X{n + 1} -(d_{i})-> X{n}, "
            f"X{n + 1} -(d_top)-> X{n}, legs d_top / d_{i} into X{n - 1}"
        )
    return legs, label, (n + 1, n, n, n - 1)


def _two_segal_squares(X, sides):
    return [
        _two_segal_square(X, n, i, upper)
        for n in range(2, X.level)
        for i in range(1, n)
        for upper in sides
    ]


def _reference_walk(X, squares):
    """Decide (legs, label, levels) squares in order with the library's
    pullback engine; the first failure is the report's witness.  X must
    be valid: the 2-Segal references do not validate it."""
    checked = 0
    for legs, label, levels in squares:
        checked += 1
        if pullback_holds(*legs):
            continue
        names = tuple(X.cells[n] for n in levels[:3])
        sub = is_pullback_square(*legs, square=label, levels=levels, names=names)
        return CheckReport(
            holds=False, checked_level=X.level, squares_checked=checked, witness=sub.witness
        )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def reference_check_upper_2segal(X):
    """The upper 2-Segal squares, 0 < i < n < level, from X's face tables."""
    return _reference_walk(X, _two_segal_squares(X, (True,)))


def reference_check_lower_2segal(X):
    """The lower 2-Segal squares, 0 < i < n < level, from X's face tables."""
    return _reference_walk(X, _two_segal_squares(X, (False,)))


def reference_check_upper_2segal_reduced(X):
    """The upper squares at i = 1, then the composite squares X_{n+1} ->
    X_2 along d_2^{n-1} over X_n -> X_1 along d_1^{n-1}, each composite
    composed from face tables."""
    d = X.faces
    squares = [_two_segal_square(X, n, 1, True) for n in range(2, X.level)]
    for n in range(2, X.level):
        top = compose_tables(*[d[(lvl, 2)] for lvl in range(n + 1, 2, -1)])
        bottom = compose_tables(*[d[(lvl, 1)] for lvl in range(n, 1, -1)])
        label = (
            f"upper composite n={n}: X{n + 1} -(d_2^{n - 1})-> X2, "
            f"X{n + 1} -(d_bot)-> X{n}, legs d_bot / d_1^{n - 1} into X1"
        )
        squares.append(((top, d[(n + 1, 0)], d[(2, 0)], bottom), label, (n + 1, 2, n, 1)))
    return _reference_walk(X, squares)


def reference_check_decomposition(X):
    """Upper and lower 2-Segal squares by n, then i, upper first; at level
    2 the two unit squares s_0: X_0 -> X_1 pushed out along d_2 and d_0
    of X_2, from X's face and degeneracy tables."""
    if X.level != 2:
        return _reference_walk(X, _two_segal_squares(X, (True, False)))
    d, s = X.faces, X.degeneracies
    squares = [
        ((s[(1, j)], d[(1, 1 - j)], d[(2, 2 * (1 - j))], s[(0, 0)]), label, (1, 2, 0, 1))
        for j, label in (
            (0, "active-inert alpha=(0, 0) iota=(0, 1): X1 over X1"),
            (1, "active-inert alpha=(0, 0) iota=(1, 2): X1 over X1"),
        )
    ]
    return _reference_walk(X, squares)


def _reference_named_walk(level, squares):
    """Decide (f, g, p, q, label, levels) squares of name dicts in order
    with the reference pullback; the first failure is the witness."""
    checked = 0
    for *legs, label, levels in squares:
        checked += 1
        sub = reference_is_pullback_square(*legs, square=label, levels=levels)
        if not sub.holds:
            return CheckReport(
                holds=False,
                checked_level=level,
                squares_checked=checked,
                witness=sub.witness,
            )
    return CheckReport(holds=True, checked_level=level, squares_checked=checked)


def reference_check_segal(X):
    """The outer-face squares X_{n+1} over X_{n-1}, 1 <= n < level, as
    name dicts decided by the reference pullback.  X must be valid."""
    d = X.face_names
    return _reference_named_walk(
        X.level,
        (
            (
                d(n + 1, 0),
                d(n + 1, n + 1),
                d(n, n),
                d(n, 0),
                f"segal n={n}: X{n + 1} -(d_bot)-> X{n} -(d_top)-> X{n - 1}, "
                f"X{n + 1} -(d_top)-> X{n} -(d_bot)-> X{n - 1}",
                (n + 1, n, n, n - 1),
            )
            for n in range(1, X.level)
        ),
    )


def reference_check_segal_iterated(X):
    """For each n from 2, X_n against the chains of n edges, each edge's
    end the next one's start.  A cell's i-th edge is read off X's face
    tables one face at a time, i - 1 bottom faces and then n - i top
    faces; the chains are listed by extending every shorter chain, in
    lexicographic order, by every edge.  X must be valid."""
    if X.level < 1:
        return CheckReport(holds=True, checked_level=X.level, squares_checked=0)
    d = X.faces
    edges = range(len(X.cells[1]))
    for n in range(2, X.level + 1):
        preimages = {}
        for c in range(len(X.cells[n])):
            spine = []
            for i in range(1, n + 1):
                x = c
                for level in range(n, n - i + 1, -1):
                    x = d[(level, 0)][x]
                for level in range(n - i + 1, 1, -1):
                    x = d[(level, level)][x]
                spine.append(x)
            preimages.setdefault(tuple(spine), []).append(c)
        chains = [(e,) for e in edges]
        for _ in range(n - 1):
            chains = [
                chain + (e,)
                for chain in chains
                for e in edges
                if d[(1, 1)][e] == d[(1, 0)][chain[-1]]
            ]
        for chain in chains:
            pre = preimages.get(chain, [])
            if len(pre) != 1:
                witness = SquareWitness(
                    square=f"segal iterated n={n}: X{n} -> X1 x_X0 ... x_X0 X1",
                    levels=(n, 1, 0),
                    element=tuple(X.cells[1][e] for e in chain),
                    preimage_count=len(pre),
                    preimages=tuple(X.cells[n][c] for c in pre),
                )
                return CheckReport(
                    holds=False,
                    checked_level=X.level,
                    squares_checked=n - 1,
                    witness=witness,
                )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=X.level - 1)


def reference_check_culf(f):
    """The naturality squares of f on inner faces, by level, then on all
    degeneracies, as name dicts decided by the reference pullback.  Both
    ends and f must be valid."""
    X, Y, top, c = f.source, f.target, f.shared_level, f.component_names
    faces = (
        (
            X.face_names(n, i),
            c(n),
            c(n - 1),
            Y.face_names(n, i),
            f"culf face n={n} i={i}: X{n} -(d_{i})-> X{n - 1} over "
            f"Y{n} -(d_{i})-> Y{n - 1}",
            (n, n - 1, n, n - 1),
        )
        for n in range(2, top + 1)
        for i in range(1, n)
    )
    degeneracies = (
        (
            X.degeneracy_names(n, j),
            c(n),
            c(n + 1),
            Y.degeneracy_names(n, j),
            f"culf degeneracy n={n} j={j}: X{n} -(s_{j})-> X{n + 1} "
            f"over Y{n} -(s_{j})-> Y{n + 1}",
            (n, n + 1, n, n + 1),
        )
        for n in range(top)
        for j in range(n + 1)
    )
    return _reference_named_walk(top, (*faces, *degeneracies))


@dataclass
class NamedSSet:
    """A truncated simplicial set whose tables map cell names to cell names."""

    level: int
    cells: tuple
    faces: dict
    degeneracies: dict


def named_sset(X: TruncatedSSet) -> NamedSSet:
    return NamedSSet(
        X.level,
        X.cells,
        {(n, i): X.face_names(n, i) for (n, i) in X.faces},
        {(n, i): X.degeneracy_names(n, i) for (n, i) in X.degeneracies},
    )


def from_named(Y: NamedSSet) -> TruncatedSSet:
    return TruncatedSSet.from_names(Y.level, Y.cells, Y.faces, Y.degeneracies)


def induced_names(X: TruncatedSSet, target_rank: int, values) -> dict:
    """induce as a dict of cell names."""
    return table_names(
        induce(X, target_rank, values), X.cells[target_rank], X.cells[len(values) - 1]
    )


def reference_induce(X: TruncatedSSet, target_rank: int, values) -> tuple:
    """induce along another generator word than the canonical one.

    Peels the smallest value missing from the image first (a face), and
    once the map is onto, its last repeated value (a degeneracy); the
    library composes the largest missing value first and the first
    repeat first.  On a simplicial set both words give the same table.
    """
    values, level = list(values), target_rank
    tables = [tuple(range(len(X.cells[level])))]
    while values != list(range(level + 1)):
        missing = [i for i in range(level + 1) if i not in values]
        if missing:
            i = missing[0]
            tables.append(X.faces[(level, i)])
            values = [v - (v > i) for v in values]
            level -= 1
        else:
            j = max(t for t in range(len(values) - 1) if values[t] == values[t + 1])
            tables.append(X.degeneracies[(level, values[j])])
            values = values[: j + 1] + [v + 1 for v in values[j + 1 :]]
            level += 1
    return compose_tables(*tables)


def pullback_by_names(f, g, p, q, square="", levels=()):
    """The library's is_pullback_square on a square given by name dicts.

    A = the keys of f, B = the keys of p and C = the keys of q, each in
    dict order; D lists the values of p and q.  A g whose keys are not
    those of f is indexed in its own key order; the squares tested give
    such a g another number of keys than f, which the engine rejects.
    """
    A, B, C = tuple(f), tuple(p), tuple(q)
    D = {d: j for j, d in enumerate(dict.fromkeys([*p.values(), *q.values()]))}
    b_index = {b: j for j, b in enumerate(B)}
    c_index = {c: j for j, c in enumerate(C)}
    g_keys = A if set(g) == set(f) else tuple(g)
    return is_pullback_square(
        tuple(b_index[f[a]] for a in A),
        tuple(c_index[g[a]] for a in g_keys),
        tuple(D[p[b]] for b in B),
        tuple(D[q[c]] for c in C),
        square=square,
        levels=levels,
        names=(A, B, C),
    )


def _reference_check_table(X, kind, n, i, target_level):
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


def _reference_check_index(table, what: str, source, target) -> None:
    """An index table checked entry by entry: a tuple of one entry per
    source cell, each an int (not a bool) naming a target cell."""
    if not isinstance(table, tuple) or len(table) != len(source):
        raise StructuralError(f"{what} is not a tuple of {len(source)} indices")
    if any(type(v) is not int for v in table):
        raise StructuralError(f"{what} holds an entry that is not an int")
    for c, v in zip(source, table):
        if not 0 <= v < len(target):
            raise StructuralError(f"{what} sends {c!r} to dangling index {v}")


def reference_validate(X) -> CheckReport:
    """Every simplicial identity, cell by cell, on name-keyed tables.

    X is a NamedSSet, or a TruncatedSSet whose index tables are checked
    entry by entry, after its cells and before they are named."""
    for n in range(len(X.cells)):
        seen = set()
        for c in X.cells[n]:
            if c in seen:
                raise StructuralError(f"duplicate cell {c!r} at level {n}")
            seen.add(c)
    if isinstance(X, TruncatedSSet):
        for kind, tables, levels, step in (
            ("d", X.faces, range(1, X.level + 1), -1),
            ("s", X.degeneracies, range(X.level), 1),
        ):
            for n in levels:
                for i in range(n + 1):
                    if (n, i) not in tables:
                        raise StructuralError(f"missing table {kind}_{i} at level {n}")
                    _reference_check_index(
                        tables[(n, i)],
                        f"{kind}_{i} at level {n}",
                        X.cells[n],
                        X.cells[n + step],
                    )
        X = named_sset(X)
    for n in range(1, X.level + 1):
        for i in range(n + 1):
            _reference_check_table(X, "d", n, i, n - 1)
    for n in range(X.level):
        for i in range(n + 1):
            _reference_check_table(X, "s", n, i, n + 1)

    checked = 0

    def fail(name, n, c):
        return CheckReport(
            holds=False,
            checked_level=X.level,
            squares_checked=checked,
            detail=f"identity {name} fails at level {n} on cell {c!r}",
        )

    for n in range(2, X.level + 1):
        for j in range(1, n + 1):
            for i in range(j):
                di, dj = X.faces[(n - 1, i)], X.faces[(n, j)]
                dj1, di2 = X.faces[(n - 1, j - 1)], X.faces[(n, i)]
                for c in X.cells[n]:
                    checked += 1
                    if di[dj[c]] != dj1[di2[c]]:
                        return fail(f"d_{i} d_{j} = d_{j-1} d_{i}", n, c)
    for n in range(X.level - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                si, sj = X.degeneracies[(n + 1, i)], X.degeneracies[(n, j)]
                sj1, si2 = X.degeneracies[(n + 1, j + 1)], X.degeneracies[(n, i)]
                for c in X.cells[n]:
                    checked += 1
                    if si[sj[c]] != sj1[si2[c]]:
                        return fail(f"s_{i} s_{j} = s_{j+1} s_{i}", n, c)
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


def reference_validate_map(m) -> CheckReport:
    """Every naturality square of a simplicial map, cell by cell.

    Each index component is first checked entry by entry: a tuple of one
    entry per source cell, each an int (not a bool) naming a target cell.
    Then the components and both ends' tables become dicts of cell names.
    """
    top = m.shared_level
    for n in range(top + 1):
        _reference_check_index(
            m.components[n],
            f"component at level {n}",
            m.source.cells[n],
            m.target.cells[n],
        )
    comps = [m.component_names(n) for n in range(top + 1)]
    X, Y = named_sset(m.source), named_sset(m.target)

    checked = 0

    def fail(kind, i, n, c):
        return CheckReport(
            holds=False,
            checked_level=top,
            squares_checked=checked,
            detail=f"naturality fails for {kind}_{i} at level {n} on {c!r}",
        )

    for n in range(1, top + 1):
        for i in range(n + 1):
            dX, dY = X.faces[(n, i)], Y.faces[(n, i)]
            for c in X.cells[n]:
                checked += 1
                if dY[comps[n][c]] != comps[n - 1][dX[c]]:
                    return fail("d", i, n, c)
    for n in range(top):
        for i in range(n + 1):
            sX, sY = X.degeneracies[(n, i)], Y.degeneracies[(n, i)]
            for c in X.cells[n]:
                checked += 1
                if sY[comps[n][c]] != comps[n + 1][sX[c]]:
                    return fail("s", i, n, c)
    return CheckReport(holds=True, checked_level=top, squares_checked=checked)


def reference_dumps(obj) -> str:
    """The file layout of FORMATS.md: two-space indents, sorted keys and
    a final newline, as json's indenting encoder writes it."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_from_partial_monoid(M, level: int) -> TruncatedSSet:
    """Words whose product is defined, built word by word: inner faces
    multiply adjacent entries, outer faces drop an end, degeneracies
    insert the unit."""
    builders.validate_partial_monoid(M)
    words = [[()]]
    fold = {(): M.unit}
    for n in range(1, level + 1):
        nxt = []
        for w in words[n - 1]:
            for x in M.carrier:
                value = M.product.get((fold[w], x))
                if value is None:
                    continue
                ext = w + (x,)
                fold[ext] = value
                nxt.append(ext)
        words.append(nxt)
    cells = tuple(
        tuple("(" + ",".join(w) + ")" for w in words[n]) for n in range(level + 1)
    )
    index = [{w: j for j, w in enumerate(level_words)} for level_words in words]
    faces, degeneracies = {}, {}
    for n in range(1, level + 1):
        for i in range(n + 1):
            row = []
            for w in words[n]:
                if i == 0:
                    out = w[1:]
                elif i == n:
                    out = w[:-1]
                else:
                    out = w[: i - 1] + (M.product[(w[i - 1], w[i])],) + w[i + 1 :]
                row.append(index[n - 1][out])
            faces[(n, i)] = tuple(row)
    for n in range(level):
        for i in range(n + 1):
            degeneracies[(n, i)] = tuple(
                index[n + 1][w[:i] + (M.unit,) + w[i:]] for w in words[n]
            )
    return TruncatedSSet(level, cells, faces, degeneracies)


def reference_dec_bot(X: TruncatedSSet):
    """Y_n = X_{n+1} with d_i = d_{i+1} and s_i = s_{i+1}, and the
    projection Y -> X given by the forgotten bottom face d_0."""
    if X.level < 1:
        raise LevelError("decalage needs level >= 1")
    level = X.level - 1
    faces = {
        (n, i): X.faces[(n + 1, i + 1)] for n in range(1, level + 1) for i in range(n + 1)
    }
    degeneracies = {
        (n, i): X.degeneracies[(n + 1, i + 1)] for n in range(level) for i in range(n + 1)
    }
    Y = TruncatedSSet(level, X.cells[1:], faces, degeneracies)
    return Y, SimplicialMap(Y, X, tuple(X.faces[(n + 1, 0)] for n in range(level + 1)))


# Helpers only the tests use: the library never needs to compose maps,
# evaluate a generator word, list the generators or search for an
# isomorphism.


def evaluate_word(word, source_rank: int) -> tuple[int, ...]:
    """Compose a generator word (outermost letter first) from
    [source_rank], as the values of the composite."""
    values, rank = tuple(range(source_rank + 1)), source_rank
    for kind, i in reversed(word):
        if kind == "sigma" and 0 <= i < rank:
            values, rank = tuple(v - (v > i) for v in values), rank - 1
        elif kind == "delta" and 0 <= i <= rank + 1:
            values, rank = tuple(v + (v >= i) for v in values), rank + 1
        else:
            raise ValueError(f"no generator {kind} {i} on [{rank}]")
    return values


def coface_values(top):
    """(n, i, the coface [n - 1] -> [n] skipping i) for 1 <= n <= top."""
    return [
        (n, i, tuple(v + (v >= i) for v in range(n)))
        for n in range(1, top + 1)
        for i in range(n + 1)
    ]


def codegeneracy_values(top):
    """(n, i, the codegeneracy [n + 1] -> [n] doubling i) for n <= top."""
    return [
        (n, i, tuple(v - (v > i) for v in range(n + 2)))
        for n in range(top + 1)
        for i in range(n + 1)
    ]


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
    """The identity simplicial map of X."""
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
