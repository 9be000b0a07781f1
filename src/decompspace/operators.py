"""Shift and subdivision operators on truncated simplicial sets.

The upper (resp. lower) decalage reindexes X one level up, forgetting
the top (resp. bottom) face and degeneracy; the forgotten face assembles
into a projection back to X.  The edgewise subdivision reads the odd
levels X_{2n+1} with faces d_{n-i} d_{n+i+1} and degeneracies
s_{n-i} s_{n+i+1}.  Cells keep their source identifiers throughout, and
the decalages reuse the index tables of X unchanged, which are
read-only, so neither X nor its decalage can change what the other was
proven of.  One builder, _decalage, makes both: the lower decalage is
the upper one seen through the opposite, so it reads X's tables with
every operator index shifted up by one, and its projection is d_0.  It
makes the decalage through sset._reindexed, the one builder of a set of
X's very tables (opposite and truncate are the others it makes), and
the projection of X's forgotten faces.

So every simplicial identity of a decalage, and every naturality
equation of its projection, is one of X's identities on X's very
tables, and each decalage passes on the facts X's record proves (sset's
_inherit, through one table of facts for the output, in _reindexed, and
one for the projection, in _decalage; they are its only callers): a set
X that a walk has proven gives decalages and projections that later
checks do not walk again.  sd restricts X along the edgewise functor,
which sends generators to composites, so it composes new tables, whose
identities follow from X's only by functoriality; its output carries no
record and is walked.  An operator given a set that lacks a table it
reads raises StructuralError, worded as validate words it.

Squares are passed on the same way.  A Segal square of Dec_top X is an
upper 2-Segal square of X, and a culf square of its projection a lower
2-Segal or a unit square of X (mirrored for Dec_bot), on the same
tables, so the square families X's record holds proven give the
decalage its Segal squares and the projection its culf squares, which
later checks count without deciding.  This is the "only if" direction of
the path space criterion (Galvez-Carrillo, Kock and Tonks,
arXiv:1512.07573), by construction: a decomposition space has Segal
decalages whose projections are culf.
"""

from __future__ import annotations

from .sset import (
    LevelError,
    SimplicialMap,
    TruncatedSSet,
    _OPPOSITE,
    _current,
    _inherit,
    _missing,
    _reindexed,
    compose_tables,
    opposite,
)


def _decalage(X: TruncatedSSet, b: int) -> tuple[TruncatedSSet, SimplicialMap]:
    """The decalage of X that forgets the top (b = 0) or the bottom (b =
    1) operators, and its projection: d_i and s_i on Y_n are X's tables
    d_{i+b} and s_{i+b} on X_{n+1}, built by sset._reindexed with the
    rules _TOP or _BOT, and proj: Y -> X is the forgotten face at each
    level, d_{n+1} for b = 0 and d_0 for b = 1, which inherits X's facts
    through _TOP_PROJECTION or _BOT_PROJECTION.  With _reindexed, it is
    one of the two callers of sset._inherit.  A face of X that it reads
    and X lacks raises StructuralError."""
    if X.level < 1:
        raise LevelError("decalage needs level >= 1")
    Y = _reindexed(X, (_TOP, _BOT)[b], X.level - 1, 1, b)
    try:
        forgotten = tuple(X.faces[(n, n * (1 - b))] for n in range(1, X.level + 1))
    except KeyError as exc:
        raise _missing("d", exc.args[0]) from None
    proj = SimplicialMap(Y, X, forgotten)
    _inherit(proj, _current(X), (_TOP_PROJECTION, _BOT_PROJECTION)[b])
    return Y, proj


def dec_top(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """Drop to level L-1 with Y_n = X_{n+1}, forgetting the top operators.

    Returns (Y, proj) where proj: Y -> X is the forgotten top face at
    each level.  d_i and s_i on Y_n (i <= n) are X's tables d_i and s_i
    on X_{n+1}, so each equation a walk of Y compares is the same
    equation of X on X_{n+1}, over the same cells; proj's naturality
    equations are X's d_i d_{n+1} = d_n d_i and d_{n+2} s_i = s_i d_{n+1}.

    The same goes for squares (_TOP, _TOP_PROJECTION).  The Segal square
    of Y at n, (d_0, d_{n+1}, d_n, d_0) on X_{n+2} over X_n, is X's upper
    2-Segal square (n + 1, n), (d_{n+1}, d_0, d_0, d_n), transposed, so
    Y is Segal where X is upper 2-Segal: the path space criterion's "only
    if" half.  proj's culf face square (n, i), (d_i, d_{n+1}, d_n, d_i)
    on X_{n+1} over X_{n-1}, is X's lower square (n, i); its degeneracy
    square (n, j), (s_j, d_{n+1}, d_{n+2}, s_j) on X_{n+1} over X_{n+1},
    is X's unit square of the codegeneracy doubling j on [n + 1] along
    the outer coface at offset 0.
    """
    return _decalage(X, 0)


def dec_bot(X: TruncatedSSet) -> tuple[TruncatedSSet, SimplicialMap]:
    """Drop to level L-1 with Y_n = X_{n+1}, forgetting the bottom operators.

    The dual of dec_top, Dec_bot X = (Dec_top X^op)^op: the remaining
    operator indices shift down by one, and proj: Y -> X is the
    forgotten bottom face at each level, the top face of X^op.  So d_i
    and s_i on Y_n are X's tables d_{i+1} and s_{i+1} on X_{n+1}, built
    as such (_decalage), and the record is passed on by dec_top's rules
    read through the opposite (_BOT, _BOT_PROJECTION), which give the
    mirror images of its families: Y's Segal square at n, (d_1, d_{n+2},
    d_{n+1}, d_1) on X_{n+2}, is X's lower square (n + 1, 1); proj's culf
    face square (n, i), (d_{i+1}, d_0, d_0, d_i), is X's upper square
    (n, i); and its degeneracy squares are X's unit squares along the
    outer coface at offset 1.
    """
    return _decalage(X, 1)


#: The facts of X that dec_top's output and projection hold, by what they
#: become there; dec_top's docstring proves each.
_TOP = {"identities": "identities", "upper": "segal"}
_TOP_PROJECTION = {"identities": "naturality", "lower": "face", "unit": "degeneracy"}

#: dec_bot's, read through the opposite: Dec_bot X = (Dec_top X^op)^op
#: on the very same tables.  If X holds _OPPOSITE[f], X^op holds f
#: (sset.opposite; _OPPOSITE is an involution), so Dec_top X^op holds t
#: for each rule f -> t of dec_top, and so does its opposite, since the
#: opposite fixes every fact that a decalage or its projection can hold:
#: identities, segal (the Segal square of Y^op at n is Y's, transposed),
#: naturality (each equation of a map's opposite is one of the map's),
#: face and degeneracy (the culf square of d_i or s_j on level n of the
#: opposite map is the map's of d_{n-i} or s_{n-j}, so each kind of square
#: is carried onto itself).
_BOT = {_OPPOSITE[f]: t for f, t in _TOP.items()}
_BOT_PROJECTION = {_OPPOSITE[f]: t for f, t in _TOP_PROJECTION.items()}


def sd(X: TruncatedSSet) -> TruncatedSSet:
    """Edgewise subdivision: level floor((L-1)/2) with Z_n = X_{2n+1}.

    Its tables are composites of X's, so it carries no record.  A table
    of X that it reads and X lacks raises StructuralError."""
    if X.level < 1:
        raise LevelError("edgewise subdivision needs level >= 1")
    level = (X.level - 1) // 2
    cells = tuple(X.cells[2 * n + 1] for n in range(level + 1))
    d, s, kind = X.faces, X.degeneracies, "d"
    try:
        zd = {(n, i): compose_tables(d[(2 * n + 1, n + i + 1)], d[(2 * n, n - i)])
              for n in range(1, level + 1) for i in range(n + 1)}
        kind = "s"
        zs = {(n, i): compose_tables(s[(2 * n + 1, n + i + 1)], s[(2 * n + 2, n - i)])
              for n in range(level) for i in range(n + 1)}
    except KeyError as exc:
        raise _missing(kind, exc.args[0]) from None
    return TruncatedSSet(level, cells, zd, zs)


def _degeneracies_into_sd(X: TruncatedSSet, top: bool) -> SimplicialMap:
    """The iterated bottom (top) degeneracies X_{n+1} -> X_{2n+1}, as a
    simplicial map into the edgewise subdivision from the bottom
    decalage (the opposite of the top one).  A table of X that it reads
    and X lacks raises StructuralError."""
    Z = sd(X)
    Y = opposite(dec_top(X)[0]) if top else dec_bot(X)[0]
    components = []
    try:
        for n in range(Z.level + 1):
            row = tuple(range(len(X.cells[n + 1])))
            for lvl in range(n + 1, 2 * n + 1):
                row = compose_tables(row, X.degeneracies[(lvl, lvl if top else 0)])
            components.append(row)
    except KeyError as exc:
        raise _missing("s", exc.args[0]) from None
    return SimplicialMap(Y, Z, tuple(components))


def map_decbot_to_sd(X: TruncatedSSet) -> SimplicialMap:
    """Iterated bottom degeneracies X_{n+1} -> X_{2n+1}, as a simplicial map
    from the bottom decalage into the edgewise subdivision."""
    return _degeneracies_into_sd(X, top=False)


def map_dectop_op_to_sd(X: TruncatedSSet) -> SimplicialMap:
    """Iterated top degeneracies X_{n+1} -> X_{2n+1}, as a simplicial map
    from the opposite of the top decalage into the edgewise subdivision."""
    return _degeneracies_into_sd(X, top=True)
