"""Pullback-square criteria over a truncated simplicial set.

Every criterion here except the iterated Segal condition is a family of
squares that must be pullbacks, so each checker validates its input and
hands a generator of squares, smallest first, to one driver, _decide.
A square is its four index tables (see sset) and a describe callable.
The driver counts every square, in walk order and against the budget;
a square with an identity leg comes without tables, since it is a
pullback whatever X is, and is counted but not decided.  The rest are
decided by sset.pullback_holds; only the first that fails is described
(its label, the levels of its corners and the cell names of A, B and C)
and handed to is_pullback_square for its witness.  A square that would
need a level beyond the truncation is not generated; the report's
checked_level records the truncation the verdict is good for.

The active-inert walks (the direct and the polygonal checker) build
their squares from value tuples (delta.active_inert_squares,
delta.pushout_values) and induce each simplex-category map at most once
per call: a memo keyed by (target_rank, values) is built when the call
starts and dropped when it returns, so nothing is cached on the
TruncatedSSet.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

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
    induce,
    is_pullback_square,
    pullback_holds,
    validate,
    validate_map,
)

#: A square's label, the levels of its corners and the names of A, B, C.
Description = tuple[str, tuple[int, ...], tuple[Sequence[str], ...]]

#: (f, g, p, q): A -> B and A -> C over B -> D <- C, and the square's
#: describe callable; (None, None) for a square with an identity leg.
Square = tuple[
    tuple[Table, Table, Table, Table] | None, Callable[[], Description] | None
]


def _require_valid(X: TruncatedSSet) -> None:
    report = validate(X)
    if not report.holds:
        raise StructuralError(f"input is not a simplicial set: {report.detail}")


def _decide(
    level: int, squares: Iterable[Square], max_squares: int | None = None
) -> CheckReport:
    """The report of a family of squares that must all be pullbacks.

    max_squares cuts the walk off deterministically: a walk stopped
    before its last square reports holds=False and inconclusive=True,
    with the cut-off in the detail.  describe is called, if at all,
    before the next square is drawn, so it may read the loop variables
    of the generator that made it.
    """
    checked = 0
    for legs, describe in squares:
        if max_squares is not None and checked >= max_squares:
            return CheckReport(
                holds=False,
                checked_level=level,
                squares_checked=checked,
                detail=f"stopped after {checked} squares (budget {max_squares})",
                inconclusive=True,
            )
        checked += 1
        if legs is None or pullback_holds(*legs):
            continue
        square, levels, names = describe()
        sub = is_pullback_square(*legs, square=square, levels=levels, names=names)
        return CheckReport(
            holds=False, checked_level=level, squares_checked=checked, witness=sub.witness
        )
    return CheckReport(holds=True, checked_level=level, squares_checked=checked)


def _on(X: TruncatedSSet, square: str, levels: tuple[int, ...]) -> Description:
    """A square of X whose corners A, B, C, D sit at the given levels."""
    return square, levels, (X.cells[levels[0]], X.cells[levels[1]], X.cells[levels[2]])


def check_segal(X: TruncatedSSet) -> CheckReport:
    """The outer-face squares X_{n+1} over X_{n-1}, for n+1 within level."""
    _require_valid(X)
    d = X.faces

    def squares():
        for n in range(1, X.level):
            yield (d[(n + 1, 0)], d[(n + 1, n + 1)], d[(n, n)], d[(n, 0)]), lambda: _on(
                X,
                f"segal n={n}: X{n + 1} -(d_bot)-> X{n} -(d_top)-> X{n - 1}, "
                f"X{n + 1} -(d_top)-> X{n} -(d_bot)-> X{n - 1}",
                (n + 1, n, n, n - 1),
            )

    return _decide(X.level, squares())


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


def _two_segal(X: TruncatedSSet, n: int, i: int, upper: bool) -> Square:
    d = X.faces
    if upper:
        # top d_{i+1}, left d_bot, right d_bot, bottom d_i
        return (d[(n + 1, i + 1)], d[(n + 1, 0)], d[(n, 0)], d[(n, i)]), lambda: _on(
            X,
            f"upper n={n} i={i}: X{n + 1} -(d_{i + 1})-> X{n}, "
            f"X{n + 1} -(d_bot)-> X{n}, legs d_bot / d_{i} into X{n - 1}",
            (n + 1, n, n, n - 1),
        )
    # top d_i, left d_top, right d_top, bottom d_i
    return (d[(n + 1, i)], d[(n + 1, n + 1)], d[(n, n)], d[(n, i)]), lambda: _on(
        X,
        f"lower n={n} i={i}: X{n + 1} -(d_{i})-> X{n}, "
        f"X{n + 1} -(d_top)-> X{n}, legs d_top / d_{i} into X{n - 1}",
        (n + 1, n, n, n - 1),
    )


def _two_segal_squares(X: TruncatedSSet, sides: tuple[bool, ...]):
    """The squares of the given sides (True upper, False lower), 0 < i < n."""
    for n in range(2, X.level):
        for i in range(1, n):
            for upper in sides:
                yield _two_segal(X, n, i, upper)


def check_upper_2segal(X: TruncatedSSet) -> CheckReport:
    """Inner-face against bottom-face squares, all 0 < i < n in truncation."""
    _require_valid(X)
    return _decide(X.level, _two_segal_squares(X, (True,)))


def check_lower_2segal(X: TruncatedSSet) -> CheckReport:
    """Inner-face against top-face squares, all 0 < i < n in truncation."""
    _require_valid(X)
    return _decide(X.level, _two_segal_squares(X, (False,)))


def check_upper_2segal_reduced(X: TruncatedSSet) -> CheckReport:
    """Only the i=1 square per level plus the composite squares down to X_1.

    Equivalent to check_upper_2segal on every valid input; kept separate
    so the equivalence is testable.
    """
    _require_valid(X)
    d = X.faces

    def squares():
        for n in range(2, X.level):
            yield _two_segal(X, n, 1, upper=True)
        for n in range(2, X.level):
            # X_{n+1} -(d_2^{n-1})-> X_2 over X_n -(d_1^{n-1})-> X_1
            top = compose_tables(*[d[(lvl, 2)] for lvl in range(n + 1, 2, -1)])
            bottom = compose_tables(*[d[(lvl, 1)] for lvl in range(n, 1, -1)])
            yield (top, d[(n + 1, 0)], d[(2, 0)], bottom), lambda: _on(
                X,
                f"upper composite n={n}: X{n + 1} -(d_2^{n - 1})-> X2, "
                f"X{n + 1} -(d_bot)-> X{n}, legs d_bot / d_1^{n - 1} into X1",
                (n + 1, 2, n, 1),
            )

    return _decide(X.level, squares())


def check_decomposition(X: TruncatedSSet) -> CheckReport:
    """Upper and lower 2-Segal conditions jointly, smallest square first."""
    _require_valid(X)
    return _decide(X.level, _two_segal_squares(X, (True, False)))


def _pushout_squares(X: TruncatedSSet, squares, label) -> Iterator[Square]:
    """X applied to active-inert pushout squares given as value tuples.

    squares yields (alpha, iota, theta, phi): alpha: [n] -> [m] active,
    iota: [n] -> [k] inert, theta and phi their pushout into [p];
    label(alpha, iota, k, p) names the square.  Each map is induced once
    per call.  A square whose alpha or iota is an identity comes without
    tables: the pushout leg opposite an identity is an identity too.  A
    degenerate active map [n] -> [n], such as 0,0,2, is not an identity.
    """
    memo: dict[tuple[int, tuple[int, ...]], Table] = {}

    def induce_once(target_rank: int, values: tuple[int, ...]) -> Table:
        key = (target_rank, values)
        table = memo.get(key)
        if table is None:
            table = memo[key] = induce(X, target_rank, values)
        return table

    for alpha, iota, theta, phi in squares:
        n, m, k, p = len(alpha) - 1, alpha[-1], len(phi) - 1, phi[-1]
        if n == k or (n == m and alpha == tuple(range(m + 1))):
            yield None, None
            continue
        legs = (
            induce_once(p, phi),
            induce_once(p, theta),
            induce_once(k, iota),
            induce_once(m, alpha),
        )
        yield legs, lambda: _on(X, label(alpha, iota, k, p), (p, k, m, n))


def _polygonal_label(alpha, iota, k: int, p: int) -> str:
    i, j = iota[0], iota[0] + alpha[-1]
    return f"polygonal n={p} i={i} j={j}: X{p} -> X{k} / X{j - i} over X1"


def check_2segal_polygonal(X: TruncatedSSet, mode: str = "full") -> CheckReport:
    """The two-element-subset squares {i, j} inside [n], applied to X.

    mode "full" takes all 0 <= i < j <= n; "restricted" keeps only
    i = 0 or j = n (which already suffices); "upper"/"lower" keep the
    j = n (resp. i = 0) half, matching the upper (resp. lower) 2-Segal
    condition.  Each is the pushout of the active (0, j - i): [1] ->
    [j - i] along the inert [1] -> [n - j + i + 1] at offset i.
    """
    keep = {
        "full": lambda i, j, n: True,
        "restricted": lambda i, j, n: i == 0 or j == n,
        "upper": lambda i, j, n: j == n,
        "lower": lambda i, j, n: i == 0,
    }.get(mode)
    if keep is None:
        raise ValueError(f"unknown mode {mode!r}")
    _require_valid(X)
    squares = (
        ((0, j - i), (i, i + 1), *delta.pushout_values((0, j - i), i, n - j + i + 1))
        for n in range(1, X.level + 1)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        if keep(i, j, n)
    )
    return _decide(X.level, _pushout_squares(X, squares, _polygonal_label))


def _active_inert_label(alpha, iota, k: int, p: int) -> str:
    return f"active-inert alpha={alpha} iota={iota}: X{p} over X{len(alpha) - 1}"


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
    squares = chain.from_iterable(
        delta.active_inert_squares(n, k, m)
        for n in range(rank_cap + 1)
        for k in range(n, X.level + 1)
        for m in range(min(X.level, rank_cap - k + n) + 1)
    )
    return _decide(
        X.level, _pushout_squares(X, squares, _active_inert_label), max_squares
    )


def check_culf(f: SimplicialMap) -> CheckReport:
    """Naturality squares of f on inner faces and all degeneracies."""
    report = validate_map(f)
    if not report.holds:
        raise StructuralError(f"input is not a simplicial map: {report.detail}")
    top = f.shared_level
    X, Y, c = f.source, f.target, f.components

    def squares():
        for n in range(2, top + 1):
            for i in range(1, n):
                yield (X.faces[(n, i)], c[n], c[n - 1], Y.faces[(n, i)]), lambda: (
                    f"culf face n={n} i={i}: X{n} -(d_{i})-> X{n - 1} over "
                    f"Y{n} -(d_{i})-> Y{n - 1}",
                    (n, n - 1, n, n - 1),
                    (X.cells[n], X.cells[n - 1], Y.cells[n]),
                )
        for n in range(top):
            for j in range(n + 1):
                legs = (X.degeneracies[(n, j)], c[n], c[n + 1], Y.degeneracies[(n, j)])
                yield legs, lambda: (
                    f"culf degeneracy n={n} j={j}: X{n} -(s_{j})-> X{n + 1} "
                    f"over Y{n} -(s_{j})-> Y{n + 1}",
                    (n, n + 1, n, n + 1),
                    (X.cells[n], X.cells[n + 1], Y.cells[n]),
                )

    return _decide(top, squares())
