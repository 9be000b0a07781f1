"""Shift and subdivision operators on truncated simplicial sets.

The upper (resp. lower) decalage reindexes X one level up, forgetting
the top (resp. bottom) face and degeneracy; the forgotten face assembles
into a projection back to X.  The edgewise subdivision reads the odd
levels X_{2n+1} with faces d_{n-i} d_{n+i+1} and degeneracies
s_{n-i} s_{n+i+1}.  Cells keep their source identifiers throughout, and
the decalages reuse the index tables of X unchanged.  The lower
decalage is the upper one seen through the opposite.
"""

from __future__ import annotations

from .sset import (
    LevelError,
    SimplicialMap,
    TruncatedSSet,
    compose_tables,
    opposite,
)


def dec_top(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """Drop to level L-1 with Y_n = X_{n+1}, forgetting the top operators.

    Returns (Y, proj) where proj: Y -> X is the forgotten top face at
    each level.
    """
    if X.level < 1:
        raise LevelError("decalage needs level >= 1")
    level = X.level - 1
    cells = X.cells[1:]
    faces = {
        (n, i): X.faces[(n + 1, i)]
        for n in range(1, level + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, i): X.degeneracies[(n + 1, i)]
        for n in range(level)
        for i in range(n + 1)
    }
    Y = TruncatedSSet(level, cells, faces, degeneracies)
    proj = SimplicialMap(
        Y, X, tuple(X.faces[(n + 1, n + 1)] for n in range(level + 1))
    )
    return Y, proj


def dec_bot(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """Drop to level L-1 with Y_n = X_{n+1}, forgetting the bottom operators.

    The dual of dec_top, Dec_bot X = (Dec_top X^op)^op: the remaining
    operator indices shift down by one, and proj: Y -> X is the
    forgotten bottom face at each level, the top face of X^op.
    """
    Y, proj = dec_top(opposite(X))
    Y = opposite(Y)
    return Y, SimplicialMap(Y, X, proj.components)


def sd(X: TruncatedSSet) -> TruncatedSSet:
    """Edgewise subdivision: level floor((L-1)/2) with Z_n = X_{2n+1}."""
    if X.level < 1:
        raise LevelError("edgewise subdivision needs level >= 1")
    level = (X.level - 1) // 2
    cells = tuple(X.cells[2 * n + 1] for n in range(level + 1))
    faces = {}
    for n in range(1, level + 1):
        for i in range(n + 1):
            faces[(n, i)] = compose_tables(
                X.faces[(2 * n + 1, n + i + 1)], X.faces[(2 * n, n - i)]
            )
    degeneracies = {}
    for n in range(level):
        for i in range(n + 1):
            degeneracies[(n, i)] = compose_tables(
                X.degeneracies[(2 * n + 1, n + i + 1)],
                X.degeneracies[(2 * n + 2, n - i)],
            )
    return TruncatedSSet(level, cells, faces, degeneracies)


def _degeneracies_into_sd(X: TruncatedSSet, top: bool) -> SimplicialMap:
    """The iterated bottom (top) degeneracies X_{n+1} -> X_{2n+1}, as a
    simplicial map into the edgewise subdivision from the bottom
    decalage (the opposite of the top one)."""
    Z = sd(X)
    Y = opposite(dec_top(X)[0]) if top else dec_bot(X)[0]
    components = []
    for n in range(Z.level + 1):
        row = tuple(range(len(X.cells[n + 1])))
        for lvl in range(n + 1, 2 * n + 1):
            row = compose_tables(row, X.degeneracies[(lvl, lvl if top else 0)])
        components.append(row)
    return SimplicialMap(Y, Z, tuple(components))


def map_decbot_to_sd(X: TruncatedSSet) -> SimplicialMap:
    """Iterated bottom degeneracies X_{n+1} -> X_{2n+1}, as a simplicial map
    from the bottom decalage into the edgewise subdivision."""
    return _degeneracies_into_sd(X, top=False)


def map_dectop_op_to_sd(X: TruncatedSSet) -> SimplicialMap:
    """Iterated top degeneracies X_{n+1} -> X_{2n+1}, as a simplicial map
    from the opposite of the top decalage into the edgewise subdivision."""
    return _degeneracies_into_sd(X, top=True)
