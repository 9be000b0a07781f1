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

Every checker but the Segal, iterated Segal and culf ones walks
active-inert squares built from value tuples
(delta.active_inert_squares, delta.elementary_squares,
delta.pushout_values); the 2-Segal family is a filtered, ordered view of
the elementary and polygonal plans.  The Delta side of a family depends
only on small ints, never on X, so it is planned once per process: the
elementary squares, the direct family's ranks and size (by level and
rank cap), the polygonal squares (by level and mode) and the 2-Segal
squares (by level and offsets) are cached here, as are each map's
generator word steps in sset.induce (by target rank and values), which
gives X's own table for a one-letter word.  X's tables live only in a
memo keyed by (target_rank, values) that is built when a call starts and
dropped when it returns, so each map is induced at most once per call
and nothing about X outlives the call; the full direct walk streams its
squares.

The direct checker first decides a pasting certificate: every
active-inert square is a pasting of elementary ones
(delta.elementary_squares: an outer coface against one codegeneracy or
one inner coface), and a pasting of pullbacks is a pullback
(Galvez-Carrillo, Kock and Tonks, arXiv:1512.07573).  A family square
whose alpha has a degeneracy pastes through elementary squares of
pushout rank up to k - 1, above its own p, so the elementary squares
within the rank cap settle the family only when rank_cap >= level - 1
or rank_cap <= 1; at other caps, and when an elementary square fails,
the whole family is walked, so a failure's report is always the walk's.
At level 2 check_decomposition decides the same unit squares the
certificate does there, since the 2-Segal squares need X_3.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, starmap
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
    _validate_components,
    compose_tables,
    induce,
    is_pullback_square,
    pullback_holds,
    validate,
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
            return _cut_off(level, max_squares)
        checked += 1
        if legs is None or pullback_holds(*legs):
            continue
        square, levels, names = describe()
        sub = is_pullback_square(*legs, square=square, levels=levels, names=names)
        return CheckReport(
            holds=False, checked_level=level, squares_checked=checked, witness=sub.witness
        )
    return CheckReport(holds=True, checked_level=level, squares_checked=checked)


def _cut_off(level: int, max_squares: int) -> CheckReport:
    """The report of a walk stopped by its budget before its last square."""
    return CheckReport(
        holds=False,
        checked_level=level,
        squares_checked=max_squares,
        detail=f"stopped after {max_squares} squares (budget {max_squares})",
        inconclusive=True,
    )


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


def _check_two_segal(X: TruncatedSSet, offsets: tuple[int, ...]) -> CheckReport:
    _require_valid(X)
    squares = _two_segal_plan(X.level, offsets)
    return _decide(X.level, _pushout_squares(X, squares, _two_segal_label))


def check_upper_2segal(X: TruncatedSSet) -> CheckReport:
    """Inner-face against bottom-face squares, all 0 < i < n in truncation;
    they need X_3, so below level 3 there are none."""
    return _check_two_segal(X, (1,))


def check_lower_2segal(X: TruncatedSSet) -> CheckReport:
    """Inner-face against top-face squares, all 0 < i < n in truncation;
    they need X_3, so below level 3 there are none."""
    return _check_two_segal(X, (0,))


def check_upper_2segal_reduced(X: TruncatedSSet) -> CheckReport:
    """Only the i=1 square per level plus the composite squares down to X_1.

    The composite at n is the polygonal square of {1, n + 1} inside
    [n + 1].  Equivalent to check_upper_2segal on every valid input;
    kept separate so the equivalence is testable.
    """
    _require_valid(X)
    # the upper squares at i = 1, whose alpha skips 1
    units = [sq for sq in _two_segal_plan(X.level, (1,)) if sq[0][1] == 2]
    composites = [
        sq for sq in _polygonal_plan(X.level, "upper") if sq[1] == (1, 2) and sq[3] > 2
    ]
    squares = chain(
        _pushout_squares(X, units, _two_segal_label),
        _pushout_squares(X, composites, _composite_label),
    )
    return _decide(X.level, squares)


def check_decomposition(X: TruncatedSSet) -> CheckReport:
    """Upper and lower 2-Segal conditions jointly, smallest square first.

    Their squares need X_3.  At level 2 the two unit squares into X_2
    are decided instead, X of the codegeneracy (0, 0): [1] -> [0]
    pushed out along each outer coface [1] -> [2], which is the direct
    walk's elementary family there, so the two checkers agree at every
    level.  From level 3 up the unit squares are not decided: an
    untruncated 2-Segal space is unital (Feller, Garner, Kock, Proulx
    and Weber, arXiv:1905.09580).
    """
    if X.level != 2:
        return _check_two_segal(X, (1, 0))
    _require_valid(X)
    return _decide(2, _pushout_squares(X, _elementary_plan(2, 2), _active_inert_label))


#: The memo key of X(alpha) for alpha: [len(values) - 1] -> [target_rank].
MapKey = tuple[int, tuple[int, ...]]


def _prepared(alpha, iota, theta, phi):
    """An active-inert square as _pushout_squares reads it.

    alpha: [n] -> [m] active, iota: [n] -> [k] inert, theta and phi
    their pushout into [p], as value tuples; the result is (alpha, iota,
    k, p, keys), keys the MapKeys of phi, theta, iota and alpha, or None
    when alpha or iota is an identity: the pushout leg opposite an
    identity is an identity too, so the square is a pullback whatever X
    is.  A degenerate active map [n] -> [n], such as 0,0,2, is not an
    identity.
    """
    n, m, k, p = len(alpha) - 1, alpha[-1], len(phi) - 1, phi[-1]
    if n == k or (n == m and alpha == tuple(range(m + 1))):
        return alpha, iota, k, p, None
    return alpha, iota, k, p, ((p, phi), (p, theta), (k, iota), (m, alpha))


def _pushout_squares(X: TruncatedSSet, squares, label) -> Iterator[Square]:
    """X applied to prepared active-inert pushout squares (_prepared).

    label(alpha, iota, k, p) names a square.  Each map is induced once
    per call, into a memo dropped when the walk ends; a square without
    keys comes without tables.
    """
    memo: dict[MapKey, Table] = {}

    def induce_once(key: MapKey) -> Table:
        table = memo.get(key)
        if table is None:
            table = memo[key] = induce(X, *key)
        return table

    for alpha, iota, k, p, keys in squares:
        if keys is None:
            yield None, None
            continue
        yield tuple(map(induce_once, keys)), lambda: _on(
            X, label(alpha, iota, k, p), (p, k, alpha[-1], len(alpha) - 1)
        )


def _polygonal_label(alpha, iota, k: int, p: int) -> str:
    i, j = iota[0], iota[0] + alpha[-1]
    return f"polygonal n={p} i={i} j={j}: X{p} -> X{k} / X{j - i} over X1"


#: The squares {i, j} inside [n] that each polygonal mode keeps.
_POLYGONAL_MODES = {
    "full": lambda i, j, n: True,
    "restricted": lambda i, j, n: i == 0 or j == n,
    "upper": lambda i, j, n: j == n,
    "lower": lambda i, j, n: i == 0,
}


@lru_cache(maxsize=256)
def _polygonal_plan(level: int, mode: str) -> tuple:
    """The prepared squares of check_2segal_polygonal, in walk order."""
    keep = _POLYGONAL_MODES[mode]
    return tuple(
        _prepared(
            (0, j - i), (i, i + 1), *delta.pushout_values((0, j - i), i, n - j + i + 1)
        )
        for n in range(1, level + 1)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        if keep(i, j, n)
    )


def check_2segal_polygonal(X: TruncatedSSet, mode: str = "full") -> CheckReport:
    """The two-element-subset squares {i, j} inside [n], applied to X.

    mode "full" takes all 0 <= i < j <= n; "restricted" keeps only
    i = 0 or j = n (which already suffices); "upper"/"lower" keep the
    j = n (resp. i = 0) half, matching the upper (resp. lower) 2-Segal
    condition.  Each is the pushout of the active (0, j - i): [1] ->
    [j - i] along the inert [1] -> [n - j + i + 1] at offset i.  Below
    level 3 every such square has an identity leg, so nothing is decided.
    """
    if mode not in _POLYGONAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    _require_valid(X)
    squares = _polygonal_plan(X.level, mode)
    return _decide(X.level, _pushout_squares(X, squares, _polygonal_label))


def _active_inert_label(alpha, iota, k: int, p: int) -> str:
    return f"active-inert alpha={alpha} iota={iota}: X{p} over X{len(alpha) - 1}"


def _two_segal_label(alpha, iota, k: int, p: int) -> str:
    i = k * (k + 1) // 2 - sum(alpha)
    side, top, leg = ("upper", i + 1, "bot") if iota[0] else ("lower", i, "top")
    return (
        f"{side} n={k} i={i}: X{p} -(d_{top})-> X{k}, "
        f"X{p} -(d_{leg})-> X{k}, legs d_{leg} / d_{i} into X{k - 1}"
    )


def _composite_label(alpha, iota, k: int, p: int) -> str:
    return (
        f"upper composite n={p - 1}: X{p} -(d_2^{p - 2})-> X2, "
        f"X{p} -(d_bot)-> X{p - 1}, legs d_bot / d_1^{p - 2} into X1"
    )


@lru_cache(maxsize=256)
def _two_segal_plan(level: int, offsets: tuple[int, ...]) -> tuple:
    """The prepared 2-Segal squares at (n, i), 0 < i < n < level: the
    elementary squares whose alpha is the inner coface [n - 1] -> [n]
    skipping i (so k = n = m), with iota at offset 1 (upper) or 0
    (lower), in walk order: by n, then i, then in the order of offsets."""
    squares = [sq for sq in _elementary_plan(level, level) if sq[0][-1] == sq[2]]
    squares = [sq for sq in squares if sq[1][0] in offsets]
    # for alpha skipping i, -sum(alpha) is i - k(k + 1)/2
    squares.sort(key=lambda sq: (sq[2], -sum(sq[0]), offsets.index(sq[1][0])))
    return tuple(squares)


def _direct_ranks(level: int, rank_cap: int) -> Iterator[tuple[int, int, int]]:
    """(n, k, m) of the direct family: all four ranks within level and
    the pushout rank p = k - n + m within rank_cap, in walk order."""
    for n in range(rank_cap + 1):
        for k in range(n, level + 1):
            for m in range(min(level, rank_cap - k + n) + 1):
                yield n, k, m


@lru_cache(maxsize=256)
def _elementary_plan(level: int, cap: int) -> tuple:
    """The prepared elementary squares with k <= level and p <= cap."""
    return tuple(starmap(_prepared, delta.elementary_squares(level, cap)))


@lru_cache(maxsize=256)
def _direct_plan(level: int, rank_cap: int):
    """(ranks, size, certificate) of the direct family: its _direct_ranks,
    its number of squares, and its prepared elementary squares when the
    rank-cap rule lets them settle it, else None."""
    ranks = tuple(_direct_ranks(level, rank_cap))
    size = sum((k - n + 1) * delta.count_active(n, m) for n, k, m in ranks)
    if 2 <= rank_cap <= level - 2:
        return ranks, size, None
    return ranks, size, _elementary_plan(level, rank_cap)


def check_decomposition_direct(
    X: TruncatedSSet,
    rank_cap: int | None = None,
    max_squares: int | None = None,
) -> CheckReport:
    """Apply X to every active-inert pushout square within the rank cap.

    The family is every active alpha: [n] -> [m] and inert iota: [n] ->
    [k] with all four ranks within the truncation and pushout rank
    p = k - n + m <= rank_cap; X must take each square to a pullback.
    max_squares cuts the walk off deterministically: a walk stopped
    before its last square reports holds=False and inconclusive=True,
    with the cut-off in the detail.  A negative rank_cap or max_squares
    raises ValueError.

    Pasting certificate.  Every square of the family is a pasting of
    elementary ones (delta.elementary_squares), and a pasting of
    pullbacks is a pullback.  A square with m < n pastes through
    elementary squares up to pushout rank max(p, k - 1), and k reaches
    min(level, 2 * rank_cap), so the elementary squares within the cap
    settle the family when rank_cap >= level - 1 or rank_cap <= 1.  At
    the caps in between they do not: the nerve of [1] at level R + 2
    with its degenerate top simplex doubled passes them at rank cap R
    and fails the family.  Where the certificate applies, the
    elementary squares are decided first; if they all hold, so does the
    family, and the report is the walk's: holds with the family's size,
    counted from the ranks, or the budget's cut-off when max_squares is
    smaller.  Otherwise, and whenever an elementary square fails, every
    square is walked in order, so the first failure and its witness are
    the walk's own.
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
    ranks, size, elementary = _direct_plan(X.level, rank_cap)
    if elementary is not None and all(
        legs is None or pullback_holds(*legs)
        for legs, _ in _pushout_squares(X, elementary, _active_inert_label)
    ):
        if max_squares is not None and max_squares < size:
            return _cut_off(X.level, max_squares)
        return CheckReport(holds=True, checked_level=X.level, squares_checked=size)
    squares = starmap(
        _prepared,
        chain.from_iterable(delta.active_inert_squares(n, k, m) for n, k, m in ranks),
    )
    return _decide(
        X.level, _pushout_squares(X, squares, _active_inert_label), max_squares
    )


def check_culf(f: SimplicialMap) -> CheckReport:
    """Naturality squares of f on inner faces and all degeneracies.

    The source and the target are validated first, then f itself; a
    malformed end raises StructuralError naming it.
    """
    ends = [("source", f.source)]
    if f.target is not f.source:
        ends.append(("target", f.target))
    for what, end in ends:
        try:
            report = validate(end)
        except StructuralError as exc:
            raise StructuralError(f"map {what}: {exc}") from None
        if not report.holds:
            raise StructuralError(
                f"map {what} is not a simplicial set: {report.detail}"
            )
    # validate_map less the shape of the ends' tables, checked just now
    report = _validate_components(f)
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
