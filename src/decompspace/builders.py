"""Discrete example constructions: nerves, partial monoids and
categories, twisted arrow categories, outer face complexes and the free
simplicial set an outer face complex generates.

Every builder validates its input (raising StructuralError on bad
tables) and emits a TruncatedSSet of index tables whose cell names stay
readable: chains are arrow names joined with "|", words of a partial
monoid are "(x,y)", free cells are "(element;part,part)".  An outer face
complex holds index tables too, which the free construction reads as
they are.  The builders index cells by their structure (chains, paths,
part lists), never by name: one builder makes chains, another paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .sset import (
    SimplicialMap,
    StructuralError,
    Table,
    TruncatedSSet,
    _check_distinct,
    _first_difference,
    _index_problem,
    _then,
    compose_tables,
)


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category, or partial category, given by explicit tables.

    morphisms are (name, source, target) triples; identities assigns
    each object its identity morphism, so every endo-hom set is
    inhabited; composition maps (f, g) with target(f) = source(g) to the
    composite "f then g".  In a category every composable pair has a
    composite; in a partial category composites of non-identities may
    be absent.
    """

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]
    identities: Mapping[str, str]
    composition: Mapping[tuple[str, str], str]


#: A partial category has the fields of a category; only its validator differs.
PartialCategory = FiniteCategory


@dataclass(frozen=True)
class PartialMonoid:
    """A set with unit and a partially defined associative product.

    Absent keys in product mean the multiplication is undefined there.
    """

    carrier: tuple[str, ...]
    unit: str
    product: Mapping[tuple[str, str], str]


@dataclass(frozen=True)
class OuterFaceComplex:
    """A graded set with commuting bottom and top face maps only.

    grades[m] lists the degree-m elements for 0 <= m <= bound; for
    m >= 1, d_bot[m] and d_top[m] are the index tables of the face maps
    grades[m] -> grades[m-1]: entry j is the index in grades[m-1] of the
    face of grades[m][j].
    """

    bound: int
    grades: tuple[tuple[str, ...], ...]
    d_bot: Mapping[int, Table]
    d_top: Mapping[int, Table]


@dataclass(frozen=True)
class DirectedGraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]


def validate_category(C: FiniteCategory) -> None:
    """A category is a partial category whose composition is total on
    composable pairs."""
    for f_name, _, f_tgt in C.morphisms:
        for g_name, g_src, _ in C.morphisms:
            if f_tgt == g_src and (f_name, g_name) not in C.composition:
                raise StructuralError(
                    f"missing composite for composable pair ({f_name}, {g_name})"
                )
    validate_partial_category(C)


#: The largest carrier whose associativity validate_partial_monoid checks
#: exhaustively, triple by triple.
_MAX_CARRIER = 32


def validate_partial_monoid(M: PartialMonoid) -> None:
    if len(M.carrier) > _MAX_CARRIER:
        raise StructuralError(
            f"carrier size {len(M.carrier)} exceeds the exhaustive-check cap "
            f"{_MAX_CARRIER}"
        )
    if len(set(M.carrier)) != len(M.carrier):
        raise StructuralError("duplicate carrier elements")
    carrier = set(M.carrier)
    if M.unit not in carrier:
        raise StructuralError(f"unit {M.unit!r} is not a carrier element")
    for (x, y), z in M.product.items():
        if x not in carrier or y not in carrier or z not in carrier:
            raise StructuralError(f"product entry ({x!r}, {y!r}) -> {z!r} dangles")
    for x in M.carrier:
        if M.product.get((M.unit, x)) != x or M.product.get((x, M.unit)) != x:
            raise StructuralError(f"unit laws fail on {x!r}")
    for x in M.carrier:
        for y in M.carrier:
            for z in M.carrier:
                xy = M.product.get((x, y))
                yz = M.product.get((y, z))
                left = M.product.get((xy, z)) if xy is not None else None
                right = M.product.get((x, yz)) if yz is not None else None
                if (left is None) != (right is None) or left != right:
                    raise StructuralError(
                        f"partial associativity fails on ({x!r}, {y!r}, {z!r})"
                    )


def validate_partial_category(C: FiniteCategory) -> None:
    objects = set(C.objects)
    if len(objects) != len(C.objects):
        raise StructuralError("duplicate object names")
    by_name = {m[0]: m for m in C.morphisms}
    if len(by_name) != len(C.morphisms):
        raise StructuralError("duplicate morphism names")
    for name, src, tgt in C.morphisms:
        if src not in objects or tgt not in objects:
            raise StructuralError(f"morphism {name!r} has dangling endpoints")
    for x in C.objects:
        if x not in C.identities:
            raise StructuralError(f"object {x!r} has no identity (endo-hom empty)")
        ident = C.identities[x]
        if ident not in by_name:
            raise StructuralError(f"identity {ident!r} of {x!r} is not a morphism")
        if by_name[ident][1] != x or by_name[ident][2] != x:
            raise StructuralError(f"identity {ident!r} is not an endomorphism of {x!r}")
    for (f, g), h in C.composition.items():
        if f not in by_name or g not in by_name or h not in by_name:
            raise StructuralError(f"composition entry ({f!r}, {g!r}) -> {h!r} dangles")
        if by_name[f][2] != by_name[g][1]:
            raise StructuralError(
                f"composite defined on non-composable pair ({f!r}, {g!r})"
            )
        if by_name[h][1] != by_name[f][1] or by_name[h][2] != by_name[g][2]:
            raise StructuralError(f"composite {h!r} has wrong endpoints")
    for name, src, tgt in C.morphisms:
        if C.composition.get((C.identities[src], name)) != name:
            raise StructuralError(f"left unit law fails for {name!r}")
        if C.composition.get((name, C.identities[tgt])) != name:
            raise StructuralError(f"right unit law fails for {name!r}")
    for f in C.morphisms:
        for g in C.morphisms:
            if f[2] != g[1]:
                continue
            for h in C.morphisms:
                if g[2] != h[1]:
                    continue
                fg = C.composition.get((f[0], g[0]))
                gh = C.composition.get((g[0], h[0]))
                left = C.composition.get((fg, h[0])) if fg is not None else None
                right = C.composition.get((f[0], gh)) if gh is not None else None
                if (left is None) != (right is None) or left != right:
                    raise StructuralError(
                        f"partial associativity fails on ({f[0]}, {g[0]}, {h[0]})"
                    )


def validate_ofc(A: OuterFaceComplex) -> None:
    if A.bound < 0 or len(A.grades) != A.bound + 1:
        raise StructuralError("grades must cover 0..bound")
    for m, grade in enumerate(A.grades):
        if len(set(grade)) != len(grade):
            raise StructuralError(f"duplicate elements in grade {m}")
    for m in range(1, A.bound + 1):
        for kind, tables in (("d_bot", A.d_bot), ("d_top", A.d_top)):
            if m not in tables:
                raise StructuralError(f"missing {kind} table at degree {m}")
            problem = _index_problem(tables[m], A.grades[m], len(A.grades[m - 1]))
            if problem is not None:
                raise StructuralError(f"{kind} at degree {m} {problem}")
    for m in range(2, A.bound + 1):
        lhs = _then(A.d_bot[m], A.d_top[m - 1])
        rhs = _then(A.d_top[m], A.d_bot[m - 1])
        if lhs != rhs:
            a = A.grades[m][_first_difference(lhs, rhs)]
            raise StructuralError(f"d_top d_bot != d_bot d_top at degree {m} on {a!r}")


def validate_graph(G: DirectedGraph) -> None:
    if len(set(G.vertices)) != len(G.vertices):
        raise StructuralError("duplicate vertex names")
    names = [e[0] for e in G.edges]
    if len(set(names)) != len(names):
        raise StructuralError("duplicate edge names")
    vs = set(G.vertices)
    for name, src, tgt in G.edges:
        if src not in vs or tgt not in vs:
            raise StructuralError(f"edge {name!r} has dangling endpoints")


def _chain_id(chain: tuple[str, ...]) -> str:
    return "|".join(chain)


def _position(index: dict, key: tuple, what: str) -> int:
    """The index of a structural cell key one level up or down."""
    try:
        return index[key]
    except KeyError:
        raise StructuralError(f"{what} {key!r} is not a cell") from None


def _chain_sset(
    C: FiniteCategory,
    level: int,
    cell_name: Callable[[tuple[str, ...]], str] = _chain_id,
) -> TruncatedSSet:
    """Composable chains of C's morphisms whose composite is defined.

    Missing composition entries are undefined composites.  A chain
    extends only while its fold composite is defined, so inner faces
    always compose.  Level-0 cells are the objects; a longer chain is
    named by cell_name, and two chains of one name raise StructuralError.
    """
    compose = C.composition.get
    morphisms, identities = C.morphisms, C.identities
    by_name = {m[0]: m for m in morphisms}
    chains: list[list[tuple[str, ...]]] = [[(x,) for x in C.objects]]
    fold: dict[tuple[str, ...], str | None] = {}
    if level >= 1:
        chains.append([(m[0],) for m in morphisms])
        fold.update({(m[0],): m[0] for m in morphisms})
    for n in range(2, level + 1):
        nxt = []
        for ch in chains[n - 1]:
            for name, src, tgt in morphisms:
                if by_name[ch[-1]][2] != src:
                    continue
                value = compose((fold[ch], name))
                if value is None:
                    continue
                ext = ch + (name,)
                fold[ext] = value
                nxt.append(ext)
        chains.append(nxt)

    def vertex(chain: tuple[str, ...], i: int) -> str:
        return by_name[chain[0]][1] if i == 0 else by_name[chain[i - 1]][2]

    cells = (tuple(C.objects), *(tuple(map(cell_name, ch)) for ch in chains[1:]))
    try:
        _check_distinct(cells)
    except StructuralError as exc:
        raise StructuralError(f"chain names collide: {exc}") from None
    index = [{ch: j for j, ch in enumerate(level_chains)} for level_chains in chains]
    faces: dict[tuple[int, int], Table] = {}
    degeneracies: dict[tuple[int, int], Table] = {}
    for n in range(1, level + 1):
        for i in range(n + 1):
            row = []
            for ch in chains[n]:
                if n == 1:
                    out = (vertex(ch, 1 - i),)
                elif i == 0:
                    out = ch[1:]
                elif i == n:
                    out = ch[:-1]
                else:
                    comp = compose((ch[i - 1], ch[i]))
                    if comp is None:
                        raise StructuralError(
                            f"inner face undefined on chain {ch!r}; the "
                            "composition tables are not associative enough"
                        )
                    out = ch[: i - 1] + (comp,) + ch[i + 1 :]
                row.append(_position(index[n - 1], out, "face"))
            faces[(n, i)] = tuple(row)
    for n in range(level):
        for i in range(n + 1):
            if n == 0:
                outs = [(identities[x],) for (x,) in chains[0]]
            else:
                outs = [
                    ch[:i] + (identities[vertex(ch, i)],) + ch[i:] for ch in chains[n]
                ]
            degeneracies[(n, i)] = tuple(
                _position(index[n + 1], out, "degeneracy") for out in outs
            )
    return TruncatedSSet(level, cells, faces, degeneracies)


def nerve(C: FiniteCategory, level: int) -> TruncatedSSet:
    """Composable chains of morphisms; inner faces compose, outer faces
    drop an end, degeneracies insert identities."""
    validate_category(C)
    return _chain_sset(C, level)


def from_partial_category(C: FiniteCategory, level: int) -> TruncatedSSet:
    """Chains that are composable and whose composite is defined."""
    validate_partial_category(C)
    return _chain_sset(C, level)


def twisted_arrow(C: FiniteCategory) -> FiniteCategory:
    """Objects are the morphisms of C; an arrow f -> g is a two-sided
    factorization g = k o f o h, composed by stacking factorizations.
    An arrow is named [h|f|k], and two factorizations of one name raise
    StructuralError."""
    validate_category(C)

    def tw_name(f: str, h: str, k: str) -> str:
        return f"[{h}|{f}|{k}]"

    objects = tuple(m[0] for m in C.morphisms)
    morphisms = []
    factorization = {}
    for f, f_src, f_tgt in C.morphisms:
        for h, h_src, h_tgt in C.morphisms:
            if h_tgt != f_src:
                continue
            for k, k_src, k_tgt in C.morphisms:
                if k_src != f_tgt:
                    continue
                g = C.composition[(C.composition[(h, f)], k)]
                name = tw_name(f, h, k)
                if name in factorization:
                    raise StructuralError(
                        f"twisted arrow names collide: {name!r} names two factorizations"
                    )
                morphisms.append((name, f, g))
                factorization[name] = (f, h, k)
    identities = {
        f: tw_name(f, C.identities[src], C.identities[tgt])
        for f, src, tgt in C.morphisms
    }
    composition = {}
    for name1, f, g in morphisms:
        _, h1, k1 = factorization[name1]
        for name2, g2, e in morphisms:
            if g2 != g:
                continue
            _, h2, k2 = factorization[name2]
            composition[(name1, name2)] = tw_name(
                f, C.composition[(h2, h1)], C.composition[(k1, k2)]
            )
    return FiniteCategory(objects, tuple(morphisms), identities, composition)


def _word_id(word: tuple[str, ...]) -> str:
    return "(" + ",".join(word) + ")"


def from_partial_monoid(M: PartialMonoid, level: int) -> TruncatedSSet:
    """Words whose product is defined; inner faces multiply adjacent
    entries, outer faces drop an end, degeneracies insert the unit.

    These are the chains of M as a partial category on one object, the
    empty word "()"."""
    validate_partial_monoid(M)
    arrows = tuple((x, "()", "()") for x in M.carrier)
    C = FiniteCategory(("()",), arrows, {"()": M.unit}, M.product)
    return _chain_sset(C, level, cell_name=_word_id)


def _require_nonnegative(name: str, value: int) -> None:
    # a negative top degree gives an outer face complex with no grades,
    # which validate_ofc and the file reader both reject
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def bounded_words(alphabet: tuple[str, ...], max_len: int) -> OuterFaceComplex:
    """Words of length at most max_len; the face maps discard the first
    or last letter.  These are the paths of the graph with one vertex,
    the empty word, and one loop per letter."""
    _require_nonnegative("max_len", max_len)
    G = DirectedGraph(("",), tuple((a, "", "") for a in alphabet))
    try:
        return graph_paths(G, max_len)
    except StructuralError:
        raise StructuralError("alphabet letters produce colliding words") from None


def graph_paths(G: DirectedGraph, bound: int) -> OuterFaceComplex:
    """Edge paths of length at most bound; degree 0 is the vertex set,
    and on edges the face maps take target (bottom) and source (top).
    Above degree 1 they drop the first (bottom) or last (top) edge."""
    _require_nonnegative("bound", bound)
    validate_graph(G)
    target = {name: tgt for name, _, tgt in G.edges}
    leaving: dict[str, list[str]] = {v: [] for v in G.vertices}
    for name, src, _ in G.edges:
        leaving[src].append(name)
    paths: list[list[tuple[str, ...]]] = [[(v,) for v in G.vertices]]
    if bound >= 1:
        paths.append([(e[0],) for e in G.edges])
    for m in range(2, bound + 1):
        paths.append([p + (e,) for p in paths[m - 1] for e in leaving[target[p[-1]]]])

    # a path is named by its edges joined, a vertex by its own name
    grades = []
    for m in range(bound + 1):
        grade = tuple(map("".join, paths[m]))
        if len(set(grade)) != len(grade):
            raise StructuralError("edge names produce colliding path labels")
        grades.append(grade)
    d_bot: dict[int, Table] = {}
    d_top: dict[int, Table] = {}
    for m in range(1, bound + 1):
        index = {p: j for j, p in enumerate(paths[m - 1])}
        if m == 1:
            d_bot[m] = tuple(index[(tgt,)] for _, _, tgt in G.edges)
            d_top[m] = tuple(index[(src,)] for _, src, _ in G.edges)
        else:
            d_bot[m] = tuple(index[p[1:]] for p in paths[m])
            d_top[m] = tuple(index[p[:-1]] for p in paths[m])
    return OuterFaceComplex(bound, tuple(grades), d_bot, d_top)


def terminal_complex(bound: int) -> OuterFaceComplex:
    """One element per degree; the free construction turns it into the
    nerve of addition of naturals up to the bound."""
    _require_nonnegative("bound", bound)
    grades = tuple(("*",) for _ in range(bound + 1))
    tables = {m: (0,) for m in range(1, bound + 1)}
    return OuterFaceComplex(bound, grades, tables, dict(tables))


class _PartLists(NamedTuple):
    """The part lists (l_1, ..., l_k) of one level k, in order: suffixes
    the text "l_1,...,l_k", degrees the sums, firsts and lasts l_1 and
    l_k (0 at level 0); faces[j][i] the index at level k - 1 of the part
    list of d_i on the part list j (l_1 dropped, l_i and l_{i+1} added,
    l_k dropped) and degeneracies[j][i] the index at level k + 1 of that
    of s_i (a zero part inserted before l_{i+1}); no degeneracies at
    the top level."""

    suffixes: list[str]
    degrees: list[int]
    firsts: list[int]
    lasts: list[int]
    faces: list[list[int]]
    degeneracies: list[list[int]]


@lru_cache(maxsize=1)
def _part_lists(level: int, bound: int) -> tuple[_PartLists, ...]:
    """For each k <= level, the weak compositions (l_1, ..., l_k) with sum
    <= bound, lexicographic.  The list for k + 1 extends every part list
    of the list for k, in order, by each part x that keeps the sum
    within bound, so the extension of part list j by x sits at
    starts[j] + x.  Each face and degeneracy index then comes from those
    of the part list l it extends, of length k >= 1, in constant time:
    d_i(l + (x,)) is d_i(l) + (x,) for i < k, d_k(l) + (l_k + x,) for
    i = k and l for i = k + 1; s_i(l + (x,)) is s_i(l) + (x,) for
    i <= k and l + (x, 0) for i = k + 1.  The last lists are kept, so
    length_map and the two builds it makes read one copy."""
    levels = [_PartLists([""], [0], [0], [0], [[]], [])]
    starts: list[list[int]] = []
    for k in range(level):
        below, here = levels[k - 1] if k else None, levels[k]
        start, row = 0, []
        for d in here.degrees:
            row.append(start)
            start += bound + 1 - d
        starts.append(row)
        if k == 0:
            here.degeneracies.append([0])
        else:
            for j, (face, x) in enumerate(zip(here.faces, here.lasts)):
                up = below.degeneracies[face[k]]
                here.degeneracies.append([row[s] + x for s in up] + [row[j]])
        nxt = _PartLists([], [], [], [], [], [])
        columns = here.suffixes, here.degrees, here.firsts, here.lasts, here.faces
        for j, (suffix, d, first, last, face) in enumerate(zip(*columns)):
            for x in range(bound + 1 - d):
                nxt.suffixes.append(f"{suffix},{x}" if k else str(x))
                nxt.degrees.append(d + x)
                nxt.firsts.append(first if k else x)
                nxt.lasts.append(x)
                if k == 0:
                    nxt.faces.append([0, 0])
                else:
                    edge = starts[k - 1]
                    faces = [edge[f] + x for f in face[:k]]
                    nxt.faces.append(faces + [edge[face[k]] + last + x, j])
        levels.append(nxt)
    return tuple(levels)


def free_decomposition(A: OuterFaceComplex, level: int) -> TruncatedSSet:
    """The simplicial set freely generated by an outer face complex.

    Level-k cells are pairs (a; l_1,...,l_k) with a of degree sum(l_i),
    listed part list by part list (lexicographic), and within one part
    list in grade order, so a cell's index is the offset of its part
    list plus the index of a in its grade.  Inner faces add adjacent
    parts; the outer faces drop an outer part after applying that many
    bottom (resp. top) face maps to a; degeneracies insert a zero part.
    """
    validate_ofc(A)
    sizes = [len(grade) for grade in A.grades]
    # bot[m][t] (top[m][t]) is the t-fold d_bot (d_top) on grade m, as
    # indices into grade m - t
    bot: list[list[Table]] = []
    top: list[list[Table]] = []
    for m, size in enumerate(sizes):
        for iterated, tables in ((bot, A.d_bot), (top, A.d_top)):
            powers = iterated[m - 1] if m else []
            iterated.append(
                [tuple(range(size))] + [compose_tables(tables[m], t) for t in powers]
            )
    lists = _part_lists(level, A.bound)
    offsets: list[list[int]] = []
    for k in range(level + 1):
        start, offset = 0, []
        for m in lists[k].degrees:
            offset.append(start)
            start += sizes[m]
        offsets.append(offset)
    cells = []
    for k in range(level + 1):
        level_cells: list[str] = []
        for suffix, m in zip(lists[k].suffixes, lists[k].degrees):
            level_cells += [f"({a};{suffix})" for a in A.grades[m]]
        cells.append(tuple(level_cells))
    faces: dict[tuple[int, int], Table] = {}
    degeneracies: dict[tuple[int, int], Table] = {}
    for k in range(1, level + 1):
        here, below = lists[k], offsets[k - 1]
        columns = list(zip(here.degrees, here.firsts, here.lasts, here.faces))
        for i in range(k + 1):
            row: list[int] = []
            for m, first, last, face in columns:
                start = below[face[i]]
                if i == 0:
                    row += [start + x for x in bot[m][first]]
                elif i == k:
                    row += [start + x for x in top[m][last]]
                else:
                    row += range(start, start + sizes[m])
            faces[(k, i)] = tuple(row)
    for k in range(level):
        above = offsets[k + 1]
        columns = list(zip(lists[k].degrees, lists[k].degeneracies))
        for i in range(k + 1):
            row = []
            for m, degeneracy in columns:
                start = above[degeneracy[i]]
                row += range(start, start + sizes[m])
            degeneracies[(k, i)] = tuple(row)
    return TruncatedSSet(level, tuple(cells), faces, degeneracies)


def length_map(A: OuterFaceComplex, level: int) -> SimplicialMap:
    """Forget the graded element, keeping the list of part sizes: a
    simplicial map onto the free simplicial set of the one-point complex."""
    X = free_decomposition(A, level)
    T = free_decomposition(terminal_complex(A.bound), level)
    components = []
    for k in range(level + 1):
        # T has one cell per part list, in the order X lists its blocks
        row: list[int] = []
        for j, m in enumerate(_part_lists(level, A.bound)[k].degrees):
            row += [j] * len(A.grades[m])
        components.append(tuple(row))
    return SimplicialMap(X, T, tuple(components))
