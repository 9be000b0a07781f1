"""Combinatorics of the simplex category.

Objects are the finite linear orders [n] = {0 < 1 < ... < n}; morphisms
are weakly monotone maps, represented by their value tuples.  A map is
*active* when it preserves both endpoints and *inert* when it is a
translation by a constant.  Every map factors uniquely as an active map
followed by an inert one, and the pushout of an active map along an
inert map exists in the category (and is also a pullback).  This module
implements the coface/codegeneracy generators, composition,
classification, the active-inert factorization and pushout, the
canonical generator normal form, and exhaustive enumeration at fixed
ranks.

The enumeration, the pushout and the generator word also come in
unvalidated value-tuple forms for the checkers' walks; the SimplexMap
functions are built on them, so each formula exists once.  So do the
elementary squares, an outer coface against one codegeneracy or one
inner coface, whose pastings give every active-inert square.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Literal

MapClass = Literal["active", "inert", "both", "neither"]

#: One letter of a generator word: ("delta", i) stands for the coface
#: map skipping i, ("sigma", j) for the codegeneracy doubling j.
Generator = tuple[Literal["delta", "sigma"], int]


@dataclass(frozen=True)
class SimplexMap:
    """A weakly monotone map [source_rank] -> [target_rank].

    values[k] is the image of k.  The tuple must be weakly increasing,
    have length source_rank + 1, and stay within 0..target_rank.
    """

    source_rank: int
    target_rank: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.source_rank < 0 or self.target_rank < 0:
            raise ValueError("ranks must be nonnegative")
        if len(self.values) != self.source_rank + 1:
            raise ValueError(
                f"expected {self.source_rank + 1} values, got {len(self.values)}"
            )
        for v in self.values:
            if not 0 <= v <= self.target_rank:
                raise ValueError(f"value {v} outside 0..{self.target_rank}")
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise ValueError(f"values {self.values} are not weakly increasing")

    def __call__(self, k: int) -> int:
        return self.values[k]

    def __repr__(self) -> str:
        vals = ",".join(str(v) for v in self.values)
        return f"SimplexMap([{self.source_rank}]->[{self.target_rank}]: {vals})"


def identity(n: int) -> SimplexMap:
    return SimplexMap(n, n, tuple(range(n + 1)))


def coface(n: int, i: int) -> SimplexMap:
    """The injective map [n-1] -> [n] whose image omits i."""
    if n < 1:
        raise ValueError("coface needs target rank n >= 1")
    if not 0 <= i <= n:
        raise ValueError(f"coface index {i} outside 0..{n}")
    return SimplexMap(n - 1, n, tuple(k if k <= i - 1 else k + 1 for k in range(n)))


def codegeneracy(n: int, i: int) -> SimplexMap:
    """The surjective map [n+1] -> [n] hitting i twice."""
    if n < 0 or not 0 <= i <= n:
        raise ValueError(f"codegeneracy index {i} outside 0..{n}")
    return SimplexMap(n + 1, n, tuple(k if k <= i else k - 1 for k in range(n + 2)))


def compose(g: SimplexMap, f: SimplexMap) -> SimplexMap:
    """Pointwise composite g after f."""
    if f.target_rank != g.source_rank:
        raise ValueError(
            f"cannot compose [{f.source_rank}]->[{f.target_rank}] "
            f"with [{g.source_rank}]->[{g.target_rank}]"
        )
    return SimplexMap(f.source_rank, g.target_rank, tuple(g.values[v] for v in f.values))


def is_active(f: SimplexMap) -> bool:
    """Endpoint preserving: f(0) = 0 and f(n) = m."""
    return f.values[0] == 0 and f.values[-1] == f.target_rank


def is_inert(f: SimplexMap) -> bool:
    """Distance preserving: f(i+1) = f(i) + 1 for all i."""
    return all(b == a + 1 for a, b in zip(f.values, f.values[1:]))


def classify(f: SimplexMap) -> MapClass:
    act, ine = is_active(f), is_inert(f)
    if act and ine:
        return "both"
    if act:
        return "active"
    if ine:
        return "inert"
    return "neither"


def inert_map(n: int, k: int, offset: int) -> SimplexMap:
    """The translation [n] -> [k] by the given constant."""
    if not 0 <= offset <= k - n:
        raise ValueError(f"offset {offset} outside 0..{k - n}")
    return SimplexMap(n, k, tuple(range(offset, offset + n + 1)))


def factor_active_inert(f: SimplexMap) -> tuple[SimplexMap, SimplexMap]:
    """The unique factorization of f as an active map followed by an inert one.

    The active part subtracts f(0) and lands in [f(n) - f(0)]; the inert
    part translates by f(0).
    """
    c = f.values[0]
    p = f.values[-1] - c
    active = SimplexMap(f.source_rank, p, tuple(v - c for v in f.values))
    inert = inert_map(p, f.target_rank, c)
    return active, inert


def active_inert_pushout(
    alpha: SimplexMap, iota: SimplexMap
) -> tuple[SimplexMap, SimplexMap]:
    """Push an active map out along an inert one.

    For active alpha: [n] -> [m] and inert iota: [n] -> [k] the square
    closes at rank p = k - n + m with an inert theta: [m] -> [p] and an
    active phi: [k] -> [p] satisfying theta o alpha = phi o iota.  The
    square is a pushout and a pullback; tests certify both against
    brute-force universal-property oracles.
    """
    if not is_active(alpha):
        raise ValueError(f"{alpha!r} is not active")
    if not is_inert(iota):
        raise ValueError(f"{iota!r} is not inert")
    if alpha.source_rank != iota.source_rank:
        raise ValueError("pushout legs must share their source rank")
    p = iota.target_rank - alpha.source_rank + alpha.target_rank
    theta, phi = pushout_values(alpha.values, iota.values[0], iota.target_rank)
    return SimplexMap(alpha.target_rank, p, theta), SimplexMap(iota.target_rank, p, phi)


def pushout_values(
    alpha: tuple[int, ...], c: int, k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """active_inert_pushout of the active alpha: [n] -> [m] (m is its last
    value) along the inert [n] -> [k] at offset c, as value tuples."""
    return next(_pushouts(len(alpha) - 1, alpha[-1], (alpha,), c, k))


def _pushouts(n: int, m: int, actives, c: int, k: int):
    """(theta, phi) for each active [n] -> [m] in actives, pushed out along
    the inert [n] -> [k] at offset c: theta translates by c; phi is the
    identity below c, alpha shifted by c on c..c+n, and shifts by m - n
    above.  Everything but the middle of phi is built once."""
    theta = tuple(range(c, c + m + 1))
    below, above = tuple(range(c)), tuple(range(c + m + 1, k - n + m + 1))
    for alpha in actives:
        yield theta, below + tuple(map(c.__add__, alpha)) + above


def active_inert_squares(n: int, k: int, m: int):
    """The value tuples (alpha, iota, theta, phi) of every pushout of an
    active alpha: [n] -> [m] along an inert iota: [n] -> [k]: iota in
    enumerate_inert order, then alpha in enumerate_active order."""
    actives = active_values(n, m)
    for c in range(k - n + 1):
        iota = tuple(range(c, c + n + 1))
        for alpha, (theta, phi) in zip(actives, _pushouts(n, m, actives, c, k)):
            yield alpha, iota, theta, phi


def elementary_squares(top: int, cap: int):
    """The value tuples (alpha, iota, theta, phi) of the elementary
    active-inert pushouts with k <= top and p <= cap: iota an outer
    coface [n] -> [n + 1], alpha a codegeneracy [n] -> [n - 1] or an
    inner coface [n] -> [n + 1].  They come in the order
    active_inert_squares meets them: by n, then m, then iota, then alpha.
    Every active-inert pushout is a pasting of these."""
    for n in range(1, top):
        degeneracies = [
            tuple(v if v <= j else v - 1 for v in range(n + 1)) for j in range(n)
        ]
        cofaces = [
            tuple(v if v < i else v + 1 for v in range(n + 1)) for i in range(n, 0, -1)
        ]
        for m, actives in ((n - 1, degeneracies), (n + 1, cofaces)):
            if m + 1 > cap:
                continue
            for c in (0, 1):
                iota = tuple(range(c, c + n + 1))
                for alpha, (theta, phi) in zip(
                    actives, _pushouts(n, m, actives, c, n + 1)
                ):
                    yield alpha, iota, theta, phi


def generator_decomposition(f: SimplexMap) -> list[Generator]:
    """The canonical generator word for f, outermost letter first.

    Returns [("delta", i_1), ..., ("delta", i_r), ("sigma", j_1), ...,
    ("sigma", j_s)] with i_1 > ... > i_r the complement of the image and
    j_1 < ... < j_s the positions where f repeats a value; composing the
    letters right to left reproduces f (the standard unique normal
    form).
    """
    return generator_word(f.values, f.target_rank)


def generator_word(values: tuple[int, ...], target_rank: int) -> list[Generator]:
    """generator_decomposition of the map [len(values) - 1] -> [target_rank]
    with the given value tuple, without validation."""
    image = set(values)
    word: list[Generator] = [
        ("delta", i) for i in range(target_rank, -1, -1) if i not in image
    ]
    word.extend(
        ("sigma", j) for j in range(len(values) - 1) if values[j] == values[j + 1]
    )
    return word


def enumerate_active(n: int, m: int) -> list[SimplexMap]:
    """All active maps [n] -> [m], lexicographic on value tuples.

    There are C(m+n-1, n-1) of these for n >= 1 (compositions of m into
    n parts); for n = 0 only the identity of [0] qualifies.
    """
    return [SimplexMap(n, m, values) for values in active_values(n, m)]


def active_values(n: int, m: int) -> list[tuple[int, ...]]:
    """The value tuples of enumerate_active(n, m), in its order."""
    if n == 0:
        return [(0,)] if m == 0 else []
    return [(0, *mid, m) for mid in combinations_with_replacement(range(m + 1), n - 1)]


def count_active(n: int, m: int) -> int:
    """len(active_values(n, m)), without listing them."""
    if n == 0:
        return int(m == 0)
    return comb(m + n - 1, n - 1)


def enumerate_inert(n: int, k: int) -> list[SimplexMap]:
    """All inert maps [n] -> [k]: one per offset, k - n + 1 in total."""
    if k < n:
        return []
    return [inert_map(n, k, c) for c in range(k - n + 1)]

