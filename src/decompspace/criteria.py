"""Pullback-square criteria over a truncated simplicial set.

Every criterion here except the iterated Segal condition is a family of
squares that must be pullbacks, so each checker validates its input and
hands a generator of squares, smallest first, to one driver, _decide.
A square is its four index tables and a describe callable.  Each
checker validates through sset._valid_call, whose call holds the tables
validate converted, in the encoding it picks for the input (bytes when
every level holds at most 256 cells, for check_culf at both ends, else
tuples); every square, and every spine of the iterated Segal check, is
built from those tables.
The driver counts every square, in walk order and against the budget;
a square with an identity leg comes without tables, since it is a
pullback whatever X is, and is counted but not decided.  The rest are
decided by the call's decide, the counting test of
sset.pullback_holds.  A square whose alpha is surjective comes flagged
split, the flag set once per process when its plan is compiled: X
takes alpha and its pushout phi to composites of degeneracies, which
are injective once validate has checked d_i s_i = id, so the call
decides it by commutation and one count, without the pairs or the
fiber sizes; check_culf's degeneracy squares are split too.  Only the
first square that fails is described (its
label, the levels of its corners and the cell names of A, B and C) and
handed, its tables turned back into tuples, to is_pullback_square for
its witness.  A square that would need a level beyond the truncation
is not generated; the report's checked_level records the truncation
the verdict is good for.

Every checker but the Segal, iterated Segal and culf ones walks
active-inert squares built from value tuples
(delta.active_inert_squares, delta.elementary_squares,
delta.pushout_values); the 2-Segal family is a filtered, ordered view of
the elementary and polygonal squares.  The Delta side of a family
depends only on small ints, never on X, so it is planned and compiled
once per process: the elementary squares, the direct family's ranks and
size (by level and rank cap), the polygonal squares (by level and mode),
the 2-Segal squares (by level and sides) and the reduced checker's
squares (by level) are cached here as compiled plans, as are each map's
generator word steps in sset (by target rank and values).  A compiled
plan numbers its tables in walk order: a slot is one of X's own face or
degeneracy tables, or a shorter slot followed by one of them, and each
square names its four legs by slot.  One executor, _pushout_squares,
fills the slots of one walk as it first reaches a square that needs
them, from the call's tables, composing as validate composes, so each
map is composed at most once per walk, a walk that stops early
composes nothing past its stop, and nothing about X outlives the call;
the full direct walk compiles its squares as it streams them.

Two checkers hand _decide a cover with their walk: a pasting
certificate, squares such that the family holds if each of them is a
pullback, since a pasting of pullbacks is a pullback (Galvez-Carrillo,
Kock and Tonks, arXiv:1512.07573).  The driver decides
the cover first; if none of its squares fails, the family holds with
its closed-form size, and otherwise, or without a cover, the family is
walked, so a failure's report is always the walk's.  Every active-inert
square is a pasting of elementary ones (delta.elementary_squares: an
outer coface against one codegeneracy or one inner coface).  A family
square whose alpha has a degeneracy pastes through elementary squares
of pushout rank up to k - 1, above its own p, so the direct checker's
elementary squares within the rank cap are its cover only when rank_cap
>= level - 1 or rank_cap <= 1.  Each square of check_2segal_polygonal is
a pasting of upper and lower 2-Segal squares within the truncation
(Dyckerhoff and Kapranov, arXiv:1212.3563), the upper ones at i = n - 1
and the lower ones at i = 1, which _polygonal_plan compiles as its
cover; its docstring gives the pasting.  The cover and the walk are
decided in _first_failure, the one loop that does; a cover only asks
whether a square failed, so it builds no witness.
At level 2 check_decomposition decides the same unit squares the
direct cover does there, since the 2-Segal squares need X_3.

A square family is proven once per set.  When the Segal squares, the
upper or lower 2-Segal squares, or the unit squares hold whole, walked
or by a cover, and without a cut-off (check_segal; check_upper_2segal,
check_lower_2segal and check_decomposition; the latter's unit squares at
level 2 and the direct checker at rank cap = level), _decide adds the
family to the facts of the one record X was validated with, and X's
tables cannot change, so it holds for as long as X lives.  Each
compiled plan tags the squares a family proves with it (_family): the
elementary squares and the polygonal end squares, reduced's composites
among them.  A square of a family among the facts of X's record is
counted in walk order like an identity-leg square, not decided, and
fills no slot: every later checker reads it, and so do the decalages and
their projections, whose Segal and culf squares are X's 2-Segal and unit
squares on the same tables (operators.dec_top).  The first failure is
still decided and described by the walk, so every report, witness and
squares_checked is the one a fresh set gives.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, starmap
from typing import Callable, Iterable, Iterator, Sequence

from . import delta
from .sset import (
    CheckReport,
    LevelError,
    SimplicialMap,
    SquareWitness,
    StructuralError,
    TruncatedSSet,
    _Call,
    _naturality,
    _then,
    _valid_call,
    _word_steps,
    is_pullback_square,
)

#: A square's label, the levels of its corners and the names of A, B, C.
Description = tuple[str, tuple[int, ...], tuple[Sequence[str], ...]]

#: (f, g, p, q) or (f, g, p, q, split): A -> B and A -> C over B -> D <-
#: C, as tables of the call's encoding (tuples or bytes), split true when
#: f and q are split monos, and the square's describe callable; (None,
#: None) for a square with an identity leg.
Square = tuple[tuple | None, Callable[[], Description] | None]


def _decide(
    level: int,
    call: _Call,
    squares: Iterable[Square],
    cover: Iterable[Square] | None = None,
    size: int | None = None,
    max_squares: int | None = None,
    proves: tuple[str, ...] = (),
) -> CheckReport:
    """The report of a family of squares that must all be pullbacks,
    their tables held in the call's encoding.

    cover, when given, is a pasting certificate: squares such that the
    family holds if each of them is a pullback.  When none of them
    fails, the family holds with its size, the number of its squares,
    and is not walked; otherwise the squares are walked in order.
    max_squares cuts the family off deterministically: a family larger
    than it that holds (or whose first max_squares squares do) reports
    holds=False and inconclusive=True, with the cut-off in the detail;
    size is needed with a cover or a budget.  Only the square
    that fails is described, before another is drawn, and handed, its
    tables as tuples, to is_pullback_square for its witness.  A family
    that holds, with no cut-off, adds proves, the square families it
    includes whole, to the facts of the record X was validated with;
    X's tables cannot change, so they hold for as long as X lives.
    """
    checked = size
    if cover is None or _first_failure(call, cover)[1] is not None:
        checked, failed = _first_failure(call, islice(squares, max_squares))
        if failed is not None:
            square, levels, names = failed[1]()
            legs = map(tuple, failed[0][:4])
            sub = is_pullback_square(*legs, square=square, levels=levels, names=names)
            return CheckReport(
                holds=False, checked_level=level, squares_checked=checked, witness=sub.witness
            )
    if max_squares is not None and max_squares < size:
        return _cut_off(level, max_squares)
    call.facts[0].update(proves)
    return CheckReport(holds=True, checked_level=level, squares_checked=checked)


def _first_failure(
    call: _Call, squares: Iterable[Square]
) -> tuple[int, Square | None]:
    """The one loop that decides squares, their tables the call's: how
    many were counted, and the first that is not a pullback, which ends
    the count (None if every square is one).  Its describe is then
    called before another square is drawn, so it may read the loop
    variables of the generator that made it."""
    checked, decide = 0, call.decide
    for checked, (legs, describe) in enumerate(squares, 1):
        if legs is not None and not decide(*legs):
            return checked, (legs, describe)
    return checked, None


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
    call = _valid_call(X)
    d = call.rows[0][0]
    proven = "segal" in call.facts[0]

    def squares():
        for n in range(1, X.level):
            if proven:
                yield None, None
                continue
            yield (d[n + 1][0], d[n + 1][n + 1], d[n][n], d[n][0]), lambda: _on(
                X,
                f"segal n={n}: X{n + 1} -(d_bot)-> X{n} -(d_top)-> X{n - 1}, "
                f"X{n + 1} -(d_top)-> X{n} -(d_bot)-> X{n - 1}",
                (n + 1, n, n, n - 1),
            )

    return _decide(X.level, call, squares(), proves=("segal",))


def check_segal_iterated(X: TruncatedSSet) -> CheckReport:
    """Bijectivity of X_n onto the n-fold fiber power of X_1 over X_0.

    A cell of X_n maps to its spine, its n edges in order.  The spine of
    a cell is the spine of its top face followed by its last edge, and
    the last edge is that of its bottom face, so each level costs one
    composite of tables.  The chains of n edges, each edge's end the
    next one's start, are then walked in lexicographic order; the first
    whose number of preimages is not 1 is the witness.  They are built
    level by level, as the spines are: the chains of n edges extend
    those of n - 1 edges by each edge that starts where they end, and
    level n is built only once every chain of level n - 1 had one
    preimage, so for a Segal set they number |X_n|, like the spines.
    """
    d = _valid_call(X).rows[0][0]
    checked = 0
    if X.level < 1:
        return CheckReport(holds=True, checked_level=X.level, squares_checked=0)
    d_bot1, d_top1 = d[1]
    starts: dict[int, list[int]] = {}
    for e, v in enumerate(d_top1):
        starts.setdefault(v, []).append(e)
    spines = chains = [(e,) for e in range(len(d_bot1))]
    last = tuple(range(len(d_bot1)))
    for n in range(2, X.level + 1):
        checked += 1
        last = _then(d[n][0], last)
        spines = [spines[t] + (e,) for t, e in zip(d[n][n], last)]
        preimages: dict[tuple[int, ...], list[int]] = {}
        for c, key in enumerate(spines):
            preimages.setdefault(key, []).append(c)
        chains = [c + (e,) for c in chains for e in starts.get(d_bot1[c[-1]], ())]
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
                    squares_checked=checked,
                    witness=witness,
                )
    return CheckReport(holds=True, checked_level=X.level, squares_checked=checked)


#: The family of the 2-Segal squares of each side (iota at offset 1 or 0).
_SIDES = {1: "upper", 0: "lower"}


def _check_two_segal(X: TruncatedSSet, sides: tuple[int, ...]) -> CheckReport:
    call = _valid_call(X)
    squares = _pushout_squares(X, call, _two_segal_plan(X.level, sides), _two_segal_label)
    return _decide(X.level, call, squares, proves=tuple(map(_SIDES.get, sides)))


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

    The first composite, {1, 3} inside [3], is the first i=1 square, the
    upper square at k = 2, so the walk meets that square twice:
    squares_checked counts it twice, and on a set whose record does not
    hold "upper" it is decided twice.  The benchmark's golden records
    pin that count, so the duplicate is kept.
    """
    call = _valid_call(X)
    units, composites = _reduced_plan(X.level)
    squares = chain(
        _pushout_squares(X, call, units, _two_segal_label),
        _pushout_squares(X, call, composites, _composite_label),
    )
    return _decide(X.level, call, squares)


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
    call = _valid_call(X)
    squares = _pushout_squares(X, call, _elementary_plan(2, 2), _active_inert_label)
    return _decide(2, call, squares, proves=("unit",))


#: A map alpha: [len(values) - 1] -> [target_rank] as (target_rank, values).
MapKey = tuple[int, tuple[int, ...]]

#: A slot of a compiled plan: (prefix, kind, key), the table _then(slot
#: prefix, X's own table) or, when prefix is -1, X's own table itself,
#: where X's own table is X.faces[key] (kind 0) or X.degeneracies[key]
#: (kind 1).  A prefix is always an earlier slot.
Slot = tuple[int, int, tuple[int, int]]

#: A compiled plan: its slots, and its squares as (alpha, iota, k, p,
#: legs, filled), legs the slots of f, g, p and q, whether alpha is
#: surjective and the square's family (_family), None for a square with
#: an identity leg, and filled the number of slots the walk has filled
#: once it reaches the square.
Plan = tuple[Sequence[Slot], Iterable[tuple]]


def _prepared(alpha, iota, theta, phi):
    """An active-inert square as _compiled reads it.

    alpha: [n] -> [m] active, iota: [n] -> [k] inert, theta and phi
    their pushout into [p], as value tuples; the result is (alpha, iota,
    k, p, keys), keys the MapKeys of phi, theta, iota and alpha, or None
    when alpha or iota is an identity: the pushout leg opposite an
    identity is an identity too, so the square is a pullback whatever X
    is.  None of the four maps of a square with keys is an identity.  A
    degenerate active map [n] -> [n], such as 0,0,2, is not an identity.
    """
    n, m, k, p = len(alpha) - 1, alpha[-1], len(phi) - 1, phi[-1]
    if n == k or (n == m and alpha == tuple(range(m + 1))):
        return alpha, iota, k, p, None
    return alpha, iota, k, p, ((p, phi), (p, theta), (k, iota), (m, alpha))


def _family(alpha, iota, k: int) -> str | None:
    """The family of the square of alpha: [n] -> [m] and iota: [n] -> [k]
    whose proof a set's record may hold (sset._SAME), or None.

    The elementary squares are those with iota an outer coface, k = n +
    1: alpha a codegeneracy (m = n - 1) gives a unit square, and alpha an
    inner coface (m = n + 1) a 2-Segal square, upper when iota skips 0
    and lower when it skips k.  Any such square within a set's level is
    one of the family that check_upper_2segal, check_lower_2segal and
    the direct checker's pasting certificate decide at that level.

    The polygonal end squares, alpha = (0, m) with m >= 2 and iota the
    last edge (k - 1, k) or the first edge (0, 1), are the polygonal
    squares {k - 1, p} and {0, m} inside [p], p = k - 1 + m, reduced's
    composites among them.  The proof of check_2segal_polygonal pastes
    each {i, p} from the upper squares (N - 1, N - 2) with N <= p, so it
    is tagged upper, and each {0, j}, its mirror image, lower.  (m = 0
    gives a codegeneracy and m = 1 the identity, no polygonal square.)"""
    n, m = len(alpha) - 1, alpha[-1]
    elementary = k == n + 1 and m - n in (1, -1)
    polygonal_end = n == 1 and m >= 2 and iota[0] in (0, k - 1)
    if not (elementary or polygonal_end):
        return None
    return "unit" if m < n else _SIDES[iota[0] > 0]


def _compiled(squares, slots: list[Slot]) -> Iterator[tuple]:
    """Prepared squares (_prepared) as the squares of a compiled plan,
    whose new slots are appended to slots in walk order.

    A map's slot is that of its generator word (sset._word_steps): a
    word that extends a word already compiled by one letter gets one
    new slot, so a prefix two maps share is composed once.  Each square
    with legs is flagged split when alpha is surjective: then so is its
    pushout phi, and f = X(phi) and q = X(alpha) are composites of
    degeneracies, injective on a validated X, so the call decides it by
    the count alone (sset._tuple_holds).  Each square with legs is also
    tagged with its family (_family), once per process for a cached plan.
    """
    of_map: dict[MapKey, int] = {}
    of_step: dict[Slot, int] = {}

    def slot(key: MapKey) -> int:
        s = of_map.get(key)
        if s is None:
            s = -1
            for operator, n, i in _word_steps(*key):
                step = (s, int(operator is TruncatedSSet.degeneracy), (n, i))
                s = of_step.get(step, -1)
                if s < 0:
                    s = of_step[step] = len(slots)
                    slots.append(step)
            of_map[key] = s
        return s

    for alpha, iota, k, p, keys in squares:
        if keys is None:
            legs = None
        else:
            split = len(set(alpha)) == alpha[-1] + 1
            legs = (*map(slot, keys), split, _family(alpha, iota, k))
        yield alpha, iota, k, p, legs, len(slots)


def _plan(squares) -> Plan:
    """The compiled plan of an iterable of prepared squares."""
    slots: list[Slot] = []
    compiled = tuple(_compiled(squares, slots))
    return tuple(slots), compiled


def _pushout_squares(X: TruncatedSSet, call: _Call, plan: Plan, label) -> Iterator[Square]:
    """X applied to the squares of a compiled plan, in order, its tables
    the call's.

    label(alpha, iota, k, p) names a square.  The tables of the slots
    live in a list of one walk: the slots a square needs are filled
    when the walk reaches it, each one of X's own tables from the
    call's rows or its prefix's table composed with one, as validate
    composes, so a walk that stops early composes nothing past its
    stop.  The slots may still grow while the squares are drawn, as
    when the direct walk compiles its squares as it streams them.  A
    square without legs, or of a family that X's record holds proven,
    comes without tables and fills no slot; the others come with their
    split flag.
    """
    slots, squares = plan
    own, step, operand = call.rows[0], call.code.step, call.code.operand
    proven = call.facts[0]
    tables: list = []
    for alpha, iota, k, p, legs, filled in squares:
        if legs is None or legs[5] in proven:
            yield None, None
            continue
        for s in range(len(tables), filled):
            prefix, kind, (n, i) = slots[s]
            table = own[kind][n][i]
            tables.append(table if prefix < 0 else step(tables[prefix])(operand(table)))
        f, g, p_leg, q_leg, split, _ = legs
        yield (tables[f], tables[g], tables[p_leg], tables[q_leg], split), lambda: _on(
            X, label(alpha, iota, k, p), (p, k, alpha[-1], len(alpha) - 1)
        )


def _polygonal_label(alpha, iota, k: int, p: int) -> str:
    i, j = iota[0], iota[0] + alpha[-1]
    return f"polygonal n={p} i={i} j={j}: X{p} -> X{k} / X{j - i} over X1"


#: The squares {i, j} inside [n] that each polygonal mode keeps, and the
#: sides of the 2-Segal squares that settle them.
_POLYGONAL_MODES = {
    "full": (lambda i, j, n: True, (1, 0)),
    "restricted": (lambda i, j, n: i == 0 or j == n, (1, 0)),
    "upper": (lambda i, j, n: j == n, (1,)),
    "lower": (lambda i, j, n: i == 0, (0,)),
}


def _polygonal_squares(level: int, mode: str) -> Iterator[tuple]:
    """The prepared squares of check_2segal_polygonal, in walk order."""
    keep, _ = _POLYGONAL_MODES[mode]
    for n in range(1, level + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if keep(i, j, n):
                    theta, phi = delta.pushout_values((0, j - i), i, n - j + i + 1)
                    yield _prepared((0, j - i), (i, i + 1), theta, phi)


@lru_cache(maxsize=256)
def _polygonal_plan(level: int, mode: str) -> tuple[Plan, Plan]:
    """The plans of check_2segal_polygonal: the mode's squares, and the
    cover its proof pastes them from, the 2-Segal squares of the mode's
    sides at (n, n - 1) for the upper ones and at (n, 1) for the lower."""
    _, sides = _POLYGONAL_MODES[mode]
    cover = [
        sq
        for sq in _two_segal_squares(level, sides)
        # iota at offset 1 (upper) or 0 (lower), alpha skipping i
        if _skipped(sq[0]) == (sq[2] - 1 if sq[1][0] else 1)
    ]
    return _plan(_polygonal_squares(level, mode)), _plan(cover)


def check_2segal_polygonal(X: TruncatedSSet, mode: str = "full") -> CheckReport:
    """The two-element-subset squares {i, j} inside [n], applied to X.

    mode "full" takes all 0 <= i < j <= n; "restricted" keeps only
    i = 0 or j = n (which already suffices); "upper"/"lower" keep the
    j = n (resp. i = 0) half, matching the upper (resp. lower) 2-Segal
    condition.  Each is the pushout of the active (0, j - i): [1] ->
    [j - i] along the inert [1] -> [n - j + i + 1] at offset i.  Below
    level 3 every such square has an identity leg, so nothing is decided.

    Certificate.  The 2-Segal squares the proof below pastes within
    the truncation L are the cover _decide decides first: the upper
    ones at i = n - 1 for "upper", the lower ones at i = 1 for "lower",
    both otherwise.  If they all hold, so does every square of the
    mode, and the report is the walk's: holds, with the number of its
    squares.  If one fails, the mode's squares are walked in order, so a
    failure and its witness are the walk's own.

    Proof.  For S inside [n] write X_S for X_{|S| - 1}, reached from
    X_n by the faces that drop the vertices outside S, and [a, b] for
    {a, ..., b}.  The square {i, j} says X_[n] is the fiber product
    X_{[0, i] + [j, n]} x_{X_{i, j}} X_[i, j].  The upper 2-Segal square
    (N - 1, i) says X_[N] = X_{[N] - r} x_{X_{[N] - {0, r}}} X_{[N] - 0}
    with r = i + 1, and the lower one its mirror image; both exist for
    3 <= N <= L.  Pullbacks paste to pullbacks.
    - j = n: put Y_S = X_{S + n} for S inside [0, m], m = n - 1.  The
      upper square (N - 1, N - 2) on the face [a, b] + n, N = b - a + 1,
      says Y_[a, b] = Y_[a, b - 1] x_{Y_[a + 1, b - 1]} Y_[a + 1, b] for
      b - a >= 2.  Pasting these for [0, m], [1, m], ..., [i - 1, m]
      side by side gives Y_[0, m] = Y_[0, m - 1] x_{Y_[i, m - 1]}
      Y_[i, m] for 0 < i < m; on top of the square {i, n - 1} inside
      [n - 1] (induction on n) it gives Y_[0, m] = Y_[0, i] x_{Y_i}
      Y_[i, m], the square {i, n}.  The squares with i = 0 or i = m
      have an identity leg.
    - i = 0: the mirror image, from the lower squares (N - 1, 1).
    - 0 < i < j < n: X_[n] = X_{0 + [j, n]} x_{X_{0, j}} X_[0, j] is
      the square {0, j}; X_[0, j] = X_{[0, i] + j} x_{X_{i, j}} X_[i, j]
      is the square {i, j} inside the face [0, j]; and X_{[0, i] +
      [j, n]} = X_{0 + [j, n]} x_{X_{0, j}} X_{[0, i] + j} is the square
      {0, i + 1} inside that face.  The first two, then the inverse of
      the third, compose to the map of X_[n] to X_{[0, i] + [j, n]}
      x_{X_{i, j}} X_[i, j], which is so a bijection.
    Every square used sits in some X_m with m <= n <= L, and the 2-Segal
    squares used are the upper ones (N - 1, N - 2) and the lower ones
    (N - 1, 1) with N <= n, which the cover of _polygonal_plan(L, mode)
    holds: no square above X_L is needed, and no other one is decided.
    """
    if mode not in _POLYGONAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    call = _valid_call(X)
    plan, cover = _polygonal_plan(X.level, mode)
    return _decide(
        X.level,
        call,
        _pushout_squares(X, call, plan, _polygonal_label),
        _pushout_squares(X, call, cover, _two_segal_label),
        len(plan[1]),
    )


def _active_inert_label(alpha, iota, k: int, p: int) -> str:
    return f"active-inert alpha={alpha} iota={iota}: X{p} over X{len(alpha) - 1}"


def _skipped(alpha) -> int:
    """The i that an inner coface alpha: [k - 1] -> [k] skips."""
    k = alpha[-1]
    return k * (k + 1) // 2 - sum(alpha)


def _two_segal_label(alpha, iota, k: int, p: int) -> str:
    i = _skipped(alpha)
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


def _two_segal_squares(level: int, sides: tuple[int, ...]) -> list:
    """The prepared 2-Segal squares at (n, i), 0 < i < n < level: the
    elementary squares whose alpha is the inner coface [n - 1] -> [n]
    skipping i (so k = n = m), with iota at offset 1 (upper) or 0
    (lower), in walk order: by n, then i, then in the order of sides."""
    squares = [
        sq
        for sq in _elementary_squares(level, level)
        if sq[0][-1] == sq[2] and sq[1][0] in sides
    ]
    squares.sort(key=lambda sq: (sq[2], _skipped(sq[0]), sides.index(sq[1][0])))
    return squares


@lru_cache(maxsize=256)
def _two_segal_plan(level: int, sides: tuple[int, ...]) -> Plan:
    return _plan(_two_segal_squares(level, sides))


@lru_cache(maxsize=256)
def _reduced_plan(level: int) -> tuple[Plan, Plan]:
    """The plans of check_upper_2segal_reduced: the upper squares at i = 1,
    whose alpha skips 1, and its composites, the polygonal squares of
    {1, n + 1} inside [n + 1] for n >= 2."""
    units = [sq for sq in _two_segal_squares(level, (1,)) if sq[0][1] == 2]
    composites = [
        sq for sq in _polygonal_squares(level, "upper") if sq[1] == (1, 2) and sq[3] > 2
    ]
    return _plan(units), _plan(composites)


def _direct_ranks(level: int, rank_cap: int) -> Iterator[tuple[int, int, int]]:
    """(n, k, m) of the direct family: all four ranks within level and
    the pushout rank p = k - n + m within rank_cap, in walk order."""
    for n in range(rank_cap + 1):
        for k in range(n, level + 1):
            for m in range(min(level, rank_cap - k + n) + 1):
                yield n, k, m


def _elementary_squares(level: int, cap: int) -> Iterator[tuple]:
    """The prepared elementary squares with k <= level and p <= cap."""
    return starmap(_prepared, delta.elementary_squares(level, cap))


@lru_cache(maxsize=256)
def _elementary_plan(level: int, cap: int) -> Plan:
    return _plan(_elementary_squares(level, cap))


def _direct_squares(ranks) -> Iterator[tuple]:
    """The prepared squares of the direct family of the given ranks, in
    walk order."""
    squares = chain.from_iterable(starmap(delta.active_inert_squares, ranks))
    return starmap(_prepared, squares)


@lru_cache(maxsize=256)
def _direct_plan(level: int, rank_cap: int):
    """(ranks, size, certificate) of the direct family: its _direct_ranks,
    its number of squares, and the plan of its elementary squares when
    the rank-cap rule lets them settle it, else None."""
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
    elementary squares are the cover _decide decides first; if they all
    hold, so does the family, and the report is the walk's: holds with
    the family's size, counted from the ranks, or the budget's cut-off
    when max_squares is smaller.  Otherwise, and whenever an elementary
    square fails, every square is walked in order, so the first failure
    and its witness are the walk's own.
    """
    if rank_cap is not None and rank_cap < 0:
        raise ValueError(f"rank cap {rank_cap} is negative")
    if max_squares is not None and max_squares < 0:
        raise ValueError(f"square budget {max_squares} is negative")
    call = _valid_call(X)
    if rank_cap is None:
        rank_cap = X.level
    if rank_cap > X.level:
        raise LevelError(f"rank cap {rank_cap} exceeds level {X.level}")
    ranks, size, elementary = _direct_plan(X.level, rank_cap)
    slots: list[Slot] = []
    plan = slots, _compiled(_direct_squares(ranks), slots)
    walk = _pushout_squares(X, call, plan, _active_inert_label)
    cover = None
    if elementary is not None:
        cover = _pushout_squares(X, call, elementary, _active_inert_label)
    # at the full rank cap the family includes every elementary square
    proves = ("unit", "upper", "lower") if rank_cap == X.level else ()
    return _decide(X.level, call, walk, cover, size, max_squares, proves)


def check_culf(f: SimplicialMap) -> CheckReport:
    """Naturality squares of f on inner faces and all degeneracies.

    The source and the target are validated first, then f itself; a
    malformed end raises StructuralError naming it.  The degeneracy
    squares are split: their legs s_j of X and of Y are injective on
    validated ends, so each is decided by the count alone.  A decalage
    projection counts the squares its record's facts prove
    (sset._inherit), undecided.
    """
    call = _valid_call(f.source, f.target, roles=("source", "target"))
    c, report, proven = _naturality(f, call)
    if not report.holds:
        raise StructuralError(f"input is not a simplicial map: {report.detail}")
    top = f.shared_level
    X, Y = f.source, f.target
    (dX, sX), (dY, sY) = call.rows
    faces, degeneracies = "face" in proven, "degeneracy" in proven

    def squares():
        for n in range(2, top + 1):
            for i in range(1, n):
                if faces:
                    yield None, None
                    continue
                yield (dX[n][i], c[n], c[n - 1], dY[n][i]), lambda: (
                    f"culf face n={n} i={i}: X{n} -(d_{i})-> X{n - 1} over "
                    f"Y{n} -(d_{i})-> Y{n - 1}",
                    (n, n - 1, n, n - 1),
                    (X.cells[n], X.cells[n - 1], Y.cells[n]),
                )
        for n in range(top):
            for j in range(n + 1):
                if degeneracies:
                    yield None, None
                    continue
                yield (sX[n][j], c[n], c[n + 1], sY[n][j], True), lambda: (
                    f"culf degeneracy n={n} j={j}: X{n} -(s_{j})-> X{n + 1} "
                    f"over Y{n} -(s_{j})-> Y{n + 1}",
                    (n, n + 1, n, n + 1),
                    (X.cells[n], X.cells[n + 1], Y.cells[n]),
                )

    return _decide(top, call, squares())
