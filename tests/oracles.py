"""Brute-force universal-property oracles for the simplex category, and
reference implementations of the square engine.

The simplex-category oracles work from the defining equations only
(pointwise determination plus monotone completion counting); they never
consult the closed-form pushout construction they are used to certify.
The reference pullback enumerates the whole fiber product of every
square, and the reference direct walk checks every active-inert square
through it, with no memo and no shortcut: the library's engine must
give reports identical to theirs.
"""

from decompspace import delta
from decompspace.sset import (
    CheckReport,
    LevelError,
    SquareWitness,
    StructuralError,
    induced_map,
    validate,
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
    report = validate(X)
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
                                holds=True,
                                checked_level=X.level,
                                squares_checked=checked,
                                detail=f"stopped after {checked} squares "
                                f"(budget {max_squares})",
                            )
                        theta, phi = delta.active_inert_pushout(alpha, iota)
                        checked += 1
                        sub = reference_is_pullback_square(
                            induced_map(X, phi),
                            induced_map(X, theta),
                            induced_map(X, iota),
                            induced_map(X, alpha),
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
    report = validate(X)
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
                    induced_map(X, phi),
                    induced_map(X, theta),
                    induced_map(X, iota),
                    induced_map(X, alpha),
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
