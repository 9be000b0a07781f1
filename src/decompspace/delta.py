"""Combinatorics of the simplex category, on value tuples.

Objects are the finite linear orders [n] = {0 < 1 < ... < n}; a morphism
[n] -> [m] is a weakly monotone map, given by its tuple of values
(values[k] is the image of k) and its target rank m.  A map is *active*
when it preserves both endpoints and *inert* when it is a translation by
a constant.  Every map factors uniquely as an active map followed by an
inert one, and the pushout of an active map along an inert map exists in
the category (and is also a pullback).

This module holds what the checkers walk: the active maps at fixed
ranks, the active-inert pushout, the whole active-inert square family
and its elementary squares (an outer coface against one codegeneracy or
one inner coface, whose pastings give every active-inert square), and
the canonical generator word.  Nothing here validates its input; the
tests certify each formula against brute-force universal-property
oracles.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Literal

#: One letter of a generator word: ("delta", i) stands for the coface
#: map skipping i, ("sigma", j) for the codegeneracy doubling j.
Generator = tuple[Literal["delta", "sigma"], int]


def pushout_values(
    alpha: tuple[int, ...], c: int, k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pushout (theta, phi) of the active alpha: [n] -> [m] (m is its
    last value) along the inert iota: [n] -> [k] at offset c.

    It closes at rank p = k - n + m with an inert theta: [m] -> [p] and
    an active phi: [k] -> [p] satisfying theta o alpha = phi o iota.  The
    square is a pushout and a pullback; tests certify both against
    brute-force universal-property oracles.
    """
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
    active alpha: [n] -> [m] along an inert iota: [n] -> [k]: by the
    offset of iota, then alpha in active_values order."""
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


def generator_word(values: tuple[int, ...], target_rank: int) -> list[Generator]:
    """The canonical generator word of the map [len(values) - 1] ->
    [target_rank] with the given values, outermost letter first.

    It is [("delta", i_1), ..., ("delta", i_r), ("sigma", j_1), ...,
    ("sigma", j_s)] with i_1 > ... > i_r the complement of the image and
    j_1 < ... < j_s the positions where the map repeats a value;
    composing the letters right to left gives the map back (the standard
    unique normal form).
    """
    image = set(values)
    word: list[Generator] = [
        ("delta", i) for i in range(target_rank, -1, -1) if i not in image
    ]
    word.extend(
        ("sigma", j) for j in range(len(values) - 1) if values[j] == values[j + 1]
    )
    return word


def active_values(n: int, m: int) -> list[tuple[int, ...]]:
    """All active maps [n] -> [m], lexicographic on value tuples.

    There are C(m+n-1, n-1) of these for n >= 1 (compositions of m into
    n parts); for n = 0 only the identity of [0] qualifies.
    """
    if n == 0:
        return [(0,)] if m == 0 else []
    return [(0, *mid, m) for mid in combinations_with_replacement(range(m + 1), n - 1)]


def count_active(n: int, m: int) -> int:
    """len(active_values(n, m)), without listing them."""
    if n == 0:
        return int(m == 0)
    return comb(m + n - 1, n - 1)
