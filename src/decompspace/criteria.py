"""Pullback-square criteria over a truncated simplicial set.

Each checker re-validates its input, walks a deterministic family of
squares (smallest square first), and returns a CheckReport carrying the
first witness on failure.  An instance whose square would need a level
beyond the truncation is skipped; the report's checked_level records
the truncation the verdict is good for.

The active-inert walks (the direct and the polygonal checker) induce
each simplex-category map at most once per call: a memo keyed by
SimplexMap is built when the call starts and dropped when it returns,
so nothing is cached on the TruncatedSSet.  A square of theirs with an
identity leg is a pullback by construction; it is counted in
squares_checked (and against the budget) at its place in the walk, but
decided without building its fibers.

Every table here is an index table (see sset); cell names enter only
through the names a square hands is_pullback_square for its witness.
"""

from __future__ import annotations

from typing import Callable

from . import delta
from .sset import (
    CheckReport,
    LevelError,
    SimplicialMap,
    SquareWitness,
    StructuralError,
    Table,
    TruncatedSSet,
    compose_tables,
    induced_map,
    is_pullback_square,
    validate,
    validate_map,
)


def _require_valid(X: TruncatedSSet) -> None:
    report = validate(X)
    if not report.holds:
        raise StructuralError(f"input is not a simplicial set: {report.detail}")


def _fail(level: int, checked: int, sub: CheckReport) -> CheckReport:
    return CheckReport(
        holds=False, checked_level=level, squares_checked=checked, witness=sub.witness
    )


def _square(
    X: TruncatedSSet,
    f: Table,
    g: Table,
    p: Table,
    q: Table,
    square: str,
    levels: tuple[int, ...],
) -> CheckReport:
    """A square of X whose corners A, B, C, D sit at the given levels."""
    names = (X.cells[levels[0]], X.cells[levels[1]], X.cells[levels[2]])
    return is_pullback_square(f, g, p, q, square=square, levels=levels, names=names)


def check_segal(X: TruncatedSSet) -> CheckReport:
    """The outer-face squares X_{n+1} over X_{n-1}, for n+1 within level."""
    _require_valid(X)
    checked = 0
    for n in range(1, X.level):
        checked += 1
        sub = _square(
            X,
            X.faces[(n + 1, 0)],
            X.faces[(n + 1, n + 1)],
            X.faces[(n, n)],
            X.faces[(n, 0)],
            square=f"segal n={n}: X{n + 1} -(d_bot)-> X{n} -(d_top)-> X{n - 1}, "
            f"X{n + 1} -(d_top)-> X{n} -(d_bot)-> X{n - 1}",
            levels=(n + 1, n, n, n - 1),
        )
        if not sub.holds:
            return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def check_segal_iterated(X: TruncatedSSet) -> CheckReport:
    """Bijectivity of X_n onto the n-fold fiber power of X_1 over X_0."""
    _require_valid(X)
    checked = 0
    if X.level < 1:
        return CheckReport(holds=True, checked_level=X.level, squares_checked=0)
    d_bot1 = X.faces[(1, 0)]
    d_top1 = X.faces[(1, 1)]
    fibers: dict[int, list[int]] = {}
    for e, v in enumerate(d_top1):
        fibers.setdefault(v, []).append(e)
    for n in range(2, X.level + 1):
        checked += 1
        # the i-th edge: i - 1 bottom faces, then n - i top faces
        components = [
            compose_tables(
                *[X.faces[(n - step, 0)] for step in range(i - 1)],
                *[X.faces[(n - step, n - step)] for step in range(i - 1, n - 1)],
            )
            for i in range(1, n + 1)
        ]
        preimages: dict[tuple[int, ...], list[int]] = {}
        for c, key in enumerate(zip(*components)):
            preimages.setdefault(key, []).append(c)

        def tuples(prefix: tuple[int, ...]):
            if len(prefix) == n:
                yield prefix
                return
            for e in fibers.get(d_bot1[prefix[-1]], ()):
                yield from tuples(prefix + (e,))

        for e in range(len(X.cells[1])):
            for chain in tuples((e,)):
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
                        squares_checked=checked,
                        witness=witness,
                    )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def _two_segal_square(X: TruncatedSSet, n: int, i: int, upper: bool) -> CheckReport:
    if upper:
        # top d_{i+1}, left d_bot, right d_bot, bottom d_i
        return _square(
            X,
            X.faces[(n + 1, i + 1)],
            X.faces[(n + 1, 0)],
            X.faces[(n, 0)],
            X.faces[(n, i)],
            square=f"upper n={n} i={i}: X{n + 1} -(d_{i + 1})-> X{n}, "
            f"X{n + 1} -(d_bot)-> X{n}, legs d_bot / d_{i} into X{n - 1}",
            levels=(n + 1, n, n, n - 1),
        )
    # top d_i, left d_top, right d_top, bottom d_i
    return _square(
        X,
        X.faces[(n + 1, i)],
        X.faces[(n + 1, n + 1)],
        X.faces[(n, n)],
        X.faces[(n, i)],
        square=f"lower n={n} i={i}: X{n + 1} -(d_{i})-> X{n}, "
        f"X{n + 1} -(d_top)-> X{n}, legs d_top / d_{i} into X{n - 1}",
        levels=(n + 1, n, n, n - 1),
    )


def check_upper_2segal(X: TruncatedSSet) -> CheckReport:
    """Inner-face against bottom-face squares, all 0 < i < n in truncation."""
    _require_valid(X)
    checked = 0
    for n in range(2, X.level):
        for i in range(1, n):
            checked += 1
            sub = _two_segal_square(X, n, i, upper=True)
            if not sub.holds:
                return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def check_lower_2segal(X: TruncatedSSet) -> CheckReport:
    """Inner-face against top-face squares, all 0 < i < n in truncation."""
    _require_valid(X)
    checked = 0
    for n in range(2, X.level):
        for i in range(1, n):
            checked += 1
            sub = _two_segal_square(X, n, i, upper=False)
            if not sub.holds:
                return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def check_upper_2segal_reduced(X: TruncatedSSet) -> CheckReport:
    """Only the i=1 square per level plus the composite squares down to X_1.

    Equivalent to check_upper_2segal on every valid input; kept separate
    so the equivalence is testable.
    """
    _require_valid(X)
    checked = 0
    for n in range(2, X.level):
        checked += 1
        sub = _two_segal_square(X, n, 1, upper=True)
        if not sub.holds:
            return _fail(X.level, checked, sub)
    for n in range(2, X.level):
        # composite square: X_{n+1} -(d_2^{n-1})-> X_2 over X_n -(d_1^{n-1})-> X_1
        top = compose_tables(*[X.faces[(lvl, 2)] for lvl in range(n + 1, 2, -1)])
        bottom = compose_tables(*[X.faces[(lvl, 1)] for lvl in range(n, 1, -1)])
        checked += 1
        sub = _square(
            X,
            top,
            X.faces[(n + 1, 0)],
            X.faces[(2, 0)],
            bottom,
            square=f"upper composite n={n}: X{n + 1} -(d_2^{n - 1})-> X2, "
            f"X{n + 1} -(d_bot)-> X{n}, legs d_bot / d_1^{n - 1} into X1",
            levels=(n + 1, 2, n, 1),
        )
        if not sub.holds:
            return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


#: induced_map on one object, as the active-inert walks call it
_Induce = Callable[[delta.SimplexMap], Table]


def _memo_induced_map(X: TruncatedSSet) -> _Induce:
    """induced_map on X, computed once per SimplexMap for one checker call."""
    memo: dict[delta.SimplexMap, Table] = {}

    def induce(alpha: delta.SimplexMap) -> Table:
        table = memo.get(alpha)
        if table is None:
            table = memo[alpha] = induced_map(X, alpha)
        return table

    return induce


def _has_identity_leg(alpha: delta.SimplexMap, iota: delta.SimplexMap) -> bool:
    """Whether the active alpha or the inert iota is an identity map.

    The pushout leg opposite an identity is an identity too, so X sends
    the square to a pullback whatever X is.  A degenerate active map
    [n] -> [n], such as 0,0,2, is not an identity.
    """
    return iota.source_rank == iota.target_rank or alpha.values == tuple(
        range(alpha.target_rank + 1)
    )


def _pushout_square(
    X: TruncatedSSet,
    induce: _Induce,
    alpha: delta.SimplexMap,
    iota: delta.SimplexMap,
    square: str,
    levels: tuple[int, ...],
) -> CheckReport:
    """X applied to the pushout of active alpha along inert iota."""
    theta, phi = delta.active_inert_pushout(alpha, iota)
    return _square(
        X,
        induce(phi),
        induce(theta),
        induce(iota),
        induce(alpha),
        square=square,
        levels=levels,
    )


def _polygonal_pairs(n: int, mode: str):
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if mode == "restricted" and not (i == 0 or j == n):
                continue
            if mode == "upper" and j != n:
                continue
            if mode == "lower" and i != 0:
                continue
            yield i, j


def check_2segal_polygonal(X: TruncatedSSet, mode: str = "full") -> CheckReport:
    """The two-element-subset squares {i, j} inside [n], applied to X.

    mode "full" takes all 0 <= i < j <= n; "restricted" keeps only
    i = 0 or j = n (which already suffices); "upper"/"lower" keep the
    j = n (resp. i = 0) half, matching the upper (resp. lower) 2-Segal
    condition.
    """
    if mode not in ("full", "restricted", "upper", "lower"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_valid(X)
    induce = _memo_induced_map(X)
    checked = 0
    for n in range(1, X.level + 1):
        for i, j in _polygonal_pairs(n, mode):
            alpha = delta.SimplexMap(1, j - i, (0, j - i))
            iota = delta.inert_map(1, n - j + i + 1, i)
            checked += 1
            if _has_identity_leg(alpha, iota):
                continue
            sub = _pushout_square(
                X,
                induce,
                alpha,
                iota,
                square=f"polygonal n={n} i={i} j={j}: "
                f"X{n} -> X{iota.target_rank} / X{j - i} over X1",
                levels=(n, iota.target_rank, j - i, 1),
            )
            if not sub.holds:
                return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def check_decomposition(X: TruncatedSSet) -> CheckReport:
    """Upper and lower 2-Segal conditions jointly, smallest square first."""
    _require_valid(X)
    checked = 0
    for n in range(2, X.level):
        for i in range(1, n):
            for upper in (True, False):
                checked += 1
                sub = _two_segal_square(X, n, i, upper=upper)
                if not sub.holds:
                    return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def check_decomposition_direct(
    X: TruncatedSSet,
    rank_cap: int | None = None,
    max_squares: int | None = None,
) -> CheckReport:
    """Apply X to every active-inert pushout square within the rank cap.

    Enumerates active alpha: [n] -> [m] and inert iota: [n] -> [k] with
    all four ranks within the truncation and pushout rank
    p = k - n + m <= rank_cap, forms the pushout, and checks the induced
    square of cell sets.  max_squares cuts the walk off deterministically:
    a walk stopped before its last square reports holds=False and
    inconclusive=True, with the cut-off in the detail.  A negative
    rank_cap or max_squares raises ValueError.
    """
    if rank_cap is not None and rank_cap < 0:
        raise ValueError(f"rank cap {rank_cap} is negative")
    if max_squares is not None and max_squares < 0:
        raise ValueError(f"square budget {max_squares} is negative")
    _require_valid(X)
    if rank_cap is None:
        rank_cap = X.level
    if rank_cap > X.level:
        raise LevelError(f"rank cap {rank_cap} exceeds level {X.level}")
    induce = _memo_induced_map(X)
    checked = 0
    for n in range(0, rank_cap + 1):
        for k in range(n, X.level + 1):
            inerts = delta.enumerate_inert(n, k)
            for m in range(0, min(X.level, rank_cap - k + n) + 1):
                actives = delta.enumerate_active(n, m)
                p = k - n + m
                for iota in inerts:
                    for alpha in actives:
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
                        if _has_identity_leg(alpha, iota):
                            continue
                        sub = _pushout_square(
                            X,
                            induce,
                            alpha,
                            iota,
                            square=f"active-inert alpha={alpha.values} "
                            f"iota={iota.values}: X{p} over X{n}",
                            levels=(p, k, m, n),
                        )
                        if not sub.holds:
                            return _fail(X.level, checked, sub)
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


def check_culf(f: SimplicialMap) -> CheckReport:
    """Naturality squares of f on inner faces and all degeneracies."""
    report = validate_map(f)
    if not report.holds:
        raise StructuralError(f"input is not a simplicial map: {report.detail}")
    top = f.shared_level
    checked = 0
    for n in range(2, top + 1):
        for i in range(1, n):
            checked += 1
            sub = is_pullback_square(
                f.source.faces[(n, i)],
                f.components[n],
                f.components[n - 1],
                f.target.faces[(n, i)],
                square=f"culf face n={n} i={i}: X{n} -(d_{i})-> X{n - 1} over "
                f"Y{n} -(d_{i})-> Y{n - 1}",
                levels=(n, n - 1, n, n - 1),
                names=(f.source.cells[n], f.source.cells[n - 1], f.target.cells[n]),
            )
            if not sub.holds:
                return _fail(top, checked, sub)
    for n in range(top):
        for j in range(n + 1):
            checked += 1
            sub = is_pullback_square(
                f.source.degeneracies[(n, j)],
                f.components[n],
                f.components[n + 1],
                f.target.degeneracies[(n, j)],
                square=f"culf degeneracy n={n} j={j}: X{n} -(s_{j})-> X{n + 1} "
                f"over Y{n} -(s_{j})-> Y{n + 1}",
                levels=(n, n + 1, n, n + 1),
                names=(f.source.cells[n], f.source.cells[n + 1], f.target.cells[n]),
            )
            if not sub.holds:
                return _fail(top, checked, sub)
    return CheckReport(holds=True, checked_level=top, squares_checked=checked)
