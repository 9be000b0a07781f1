"""Shift and subdivision operators on truncated simplicial sets.

The upper (resp. lower) decalage reindexes X one level up, forgetting
the top (resp. bottom) face and degeneracy; the forgotten face assembles
into a projection back to X.  The edgewise subdivision reads the odd
levels X_{2n+1} with faces d_{n-i} d_{n+i+1} and degeneracies
s_{n-i} s_{n+i+1}.  Cells keep their source identifiers throughout, and
the decalages reuse the index tables of X unchanged.  The lower
decalage is the upper one seen through the opposite.

So every simplicial identity of a decalage, and every naturality
equation of its projection, is one of X's identities on X's very
tables, and the decalages pass on what X's record proves (sset's
_inherit and _inherit_map): a set X that a walk has proven gives
decalages and projections that later checks do not walk again.  sd
composes new tables, whose identities follow from X's only by
functoriality, so its output carries no record and is walked.
"""

from __future__ import annotations

from .sset import (
    LevelError,
    SimplicialMap,
    TruncatedSSet,
    _current,
    _inherit,
    _inherit_map,
    _reversed,
    compose_tables,
    opposite,
)


def dec_top(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """Drop to level L-1 with Y_n = X_{n+1}, forgetting the top operators.

    Returns (Y, proj) where proj: Y -> X is the forgotten top face at
    each level.  d_i and s_i on Y_n (i <= n) are X's tables d_i and s_i
    on X_{n+1}, so each equation a walk of Y compares is the same
    equation of X on X_{n+1}, over the same cells; proj's naturality
    equations are X's d_i d_{n+1} = d_n d_i and d_{n+2} s_i = s_i d_{n+1}.
    """
    return _inherited(X, *_upper(X))


def dec_bot(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """Drop to level L-1 with Y_n = X_{n+1}, forgetting the bottom operators.

    The dual of dec_top, Dec_bot X = (Dec_top X^op)^op: the remaining
    operator indices shift down by one, and proj: Y -> X is the
    forgotten bottom face at each level, the top face of X^op.  So d_i
    and s_i on Y_n are X's tables d_{i+1} and s_{i+1} on X_{n+1}, and
    the record is passed on as by dec_top, once, to the result.
    """
    Y, proj = _upper(_reversed(X))
    Y = _reversed(Y)
    return _inherited(X, Y, SimplicialMap(Y, X, proj.components))


def _upper(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """dec_top's (Y, proj), with no record."""
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


def _inherited(
    X: TruncatedSSet, Y: TruncatedSSet, proj: SimplicialMap
) -> tuple[TruncatedSSet, SimplicialMap]:
    """(Y, proj), a decalage of X and its projection just made, given
    what X's record proves of them."""
    record = _current(X)
    _inherit_map(proj, record, _inherit(Y, record))
    return Y, proj


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
