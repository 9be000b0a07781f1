"""Brute-force universal-property oracles for the simplex category, and
reference implementations of the square engine.

The simplex-category oracles work from the defining equations only
(pointwise determination plus monotone completion counting); they never
consult the closed-form pushout construction they are used to certify.
The reference pullback enumerates the whole fiber product of every
square, and the reference direct walk checks every active-inert square
through it, with no memo and no shortcut: the library's engine must
give reports identical to theirs.

The references work on tables keyed by cell name, the representation
the library held before its tables became index tuples: NamedSSet is a
simplicial set in that form, and reference_validate checks it cell by
cell as the library once did.
"""

from dataclasses import dataclass

from decompspace import delta
from decompspace.sset import (
    CheckReport,
    LevelError,
    SquareWitness,
    StructuralError,
    TruncatedSSet,
    compose_tables,
    induced_map,
    is_pullback_square,
    table_names,
)


def monotone_tuples(length, top):
    """All weakly increasing value tuples of the given length in 0..top."""
    if length == 0:
        return [()]
    out = []

    def rec(prefix):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, top + 1):
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def all_maps(n, m):
    return [delta.SimplexMap(n, m, vals) for vals in monotone_tuples(n + 1, m)]


def compose_values(outer, inner):
    return tuple(outer[v] for v in inner)


def cocone_factorizations(theta, phi, u_vals, v_vals, q):
    """Count w: [p] -> [q] with w o theta = u and w o phi = v.

    w is pinned pointwise wherever theta or phi hits; leftover slots (if
    any) range over all monotone completions.
    """
    p = theta.target_rank
    pinned = [None] * (p + 1)
    for s, t in enumerate(theta.values):
        if pinned[t] is not None and pinned[t] != u_vals[s]:
            return 0
        pinned[t] = u_vals[s]
    for s, t in enumerate(phi.values):
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


def assert_pushout(alpha, iota, theta, phi, max_cocone_rank):
    """Universal property: every cocone factors through (theta, phi) once."""
    assert delta.compose(theta, alpha).values == delta.compose(phi, iota).values
    m, k = alpha.target_rank, iota.target_rank
    for q in range(max_cocone_rank + 1):
        for u in monotone_tuples(m + 1, q):
            through_alpha = compose_values(u, alpha.values)
            for v in monotone_tuples(k + 1, q):
                if compose_values(v, iota.values) != through_alpha:
                    continue
                assert cocone_factorizations(theta, phi, u, v, q) == 1, (
                    f"cocone u={u} v={v} at rank {q} does not factor uniquely "
                    f"through theta={theta.values}, phi={phi.values}"
                )


def assert_pullback(alpha, iota, theta, phi, max_cone_rank):
    """Universal property: every cone factors through (alpha, iota) once.

    Since iota is injective a cone (u, v) admits at most one filler, so
    the check is existence: v must land in the image of iota and the
    unique preimage must compose to u.
    """
    inverse = {val: s for s, val in enumerate(iota.values)}
    theta_inverse = {val: s for s, val in enumerate(theta.values)}
    for q in range(max_cone_rank + 1):
        for v in monotone_tuples(q + 1, iota.target_rank):
            through_phi = compose_values(phi.values, v)
            if any(t not in theta_inverse for t in through_phi):
                continue  # no u makes (u, v) a cone
            u = tuple(theta_inverse[t] for t in through_phi)
            w = tuple(inverse.get(t) for t in v)
            assert None not in w and compose_values(alpha.values, w) == u, (
                f"cone u={u} v={v} at rank {q} does not factor through "
                f"alpha={alpha.values}, iota={iota.values}"
            )


def factorization_buckets(top_rank):
    """Bucket every inert-after-active composite by the resulting map."""
    buckets = {}
    for n in range(top_rank + 1):
        for j in range(top_rank + 1):
            for active in delta.enumerate_active(n, j):
                for m in range(j, top_rank + 1):
                    for inert in delta.enumerate_inert(j, m):
                        f = delta.compose(inert, active)
                        buckets.setdefault(f, []).append((active, inert))
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
                for iota in delta.enumerate_inert(n, k):
                    for alpha in delta.enumerate_active(n, m):
                        if max_squares is not None and checked >= max_squares:
                            return CheckReport(
                                holds=False,
                                checked_level=X.level,
                                squares_checked=checked,
                                detail=f"stopped after {checked} squares "
                                f"(budget {max_squares})",
                                inconclusive=True,
                            )
                        theta, phi = delta.active_inert_pushout(alpha, iota)
                        checked += 1
                        sub = reference_is_pullback_square(
                            induced_names(X, phi),
                            induced_names(X, theta),
                            induced_names(X, iota),
                            induced_names(X, alpha),
                            square=f"active-inert alpha={alpha.values} "
                            f"iota={iota.values}: X{theta.target_rank} over X{n}",
                            levels=(theta.target_rank, k, m, n),
                        )
                        if not sub.holds:
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
    report = reference_validate(named_sset(X))
    if not report.holds:
        raise StructuralError(f"input is not a simplicial set: {report.detail}")
    checked = 0
    for n in range(1, X.level + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if mode == "restricted" and not (i == 0 or j == n):
                    continue
                if (mode == "upper" and j != n) or (mode == "lower" and i != 0):
                    continue
                alpha = delta.SimplexMap(1, j - i, (0, j - i))
                iota = delta.inert_map(1, n - j + i + 1, i)
                theta, phi = delta.active_inert_pushout(alpha, iota)
                checked += 1
                sub = reference_is_pullback_square(
                    induced_names(X, phi),
                    induced_names(X, theta),
                    induced_names(X, iota),
                    induced_names(X, alpha),
                    square=f"polygonal n={n} i={i} j={j}: "
                    f"X{n} -> X{iota.target_rank} / X{j - i} over X1",
                    levels=(n, iota.target_rank, j - i, 1),
                )
                if not sub.holds:
                    return CheckReport(
                        holds=False,
                        checked_level=X.level,
                        squares_checked=checked,
                        witness=sub.witness,
                    )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


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


def induced_names(X: TruncatedSSet, alpha) -> dict:
    """induced_map as a dict of cell names."""
    return table_names(
        induced_map(X, alpha), X.cells[alpha.target_rank], X.cells[alpha.source_rank]
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


def reference_validate(X: NamedSSet) -> CheckReport:
    """Every simplicial identity, cell by cell, on name-keyed tables."""
    for n in range(len(X.cells)):
        seen = set()
        for c in X.cells[n]:
            if c in seen:
                raise StructuralError(f"duplicate cell {c!r} at level {n}")
            seen.add(c)
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
