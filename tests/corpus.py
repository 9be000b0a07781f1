"""Shared instance corpus for the property and acceptance suites.

Instances come from four families: nerves of small categories, partial
monoids, partial categories, and freely generated simplicial sets of
outer face complexes, plus one hand-derived valid instance that fails
the 2-Segal conditions (a triangle with its boundary collapsed to a
point, truncated at any level via its nondegenerate generators).
"""

from dataclasses import dataclass

from decompspace import builders, delta
from decompspace.builders import (
    DirectedGraph,
    FiniteCategory,
    OuterFaceComplex,
    PartialCategory,
    PartialMonoid,
)
from decompspace.sset import TruncatedSSet
from decompspace.sset import opposite as sset_opposite
from oracles import compose_values, evaluate_word, monotone_tuples


def point(level: int) -> TruncatedSSet:
    """One cell per level, all operators forced."""
    cells = tuple(("*",) for _ in range(level + 1))
    faces = {(n, i): {"*": "*"} for n in range(1, level + 1) for i in range(n + 1)}
    degeneracies = {(n, i): {"*": "*"} for n in range(level) for i in range(n + 1)}
    return TruncatedSSet.from_names(level, cells, faces, degeneracies)


def opposite_category(C: FiniteCategory) -> FiniteCategory:
    morphisms = tuple((name, tgt, src) for name, src, tgt in C.morphisms)
    composition = {(g, f): h for (f, g), h in C.composition.items()}
    return FiniteCategory(C.objects, morphisms, dict(C.identities), composition)


def poset_category(elements, leq) -> FiniteCategory:
    """The category of a finite poset: one arrow [a,b] per related pair."""
    arrows = [(f"[{a},{b}]", a, b) for a in elements for b in elements if leq(a, b)]
    identities = {a: f"[{a},{a}]" for a in elements}
    composition = {}
    for name1, a, b in arrows:
        for name2, b2, c in arrows:
            if b == b2:
                composition[(name1, name2)] = f"[{a},{c}]"
    return FiniteCategory(tuple(elements), tuple(arrows), identities, composition)


def monoid_category(elements, unit, mult) -> FiniteCategory:
    """A finite monoid as a one-object category."""
    arrows = tuple((x, "*", "*") for x in elements)
    composition = {(x, y): mult(x, y) for x in elements for y in elements}
    return FiniteCategory(("*",), arrows, {"*": unit}, composition)


def terminal_category() -> FiniteCategory:
    return poset_category(["x"], lambda a, b: True)


def arrow_category() -> FiniteCategory:
    return poset_category(["0", "1"], lambda a, b: a <= b)


def chain_category(length: int) -> FiniteCategory:
    return poset_category([str(i) for i in range(length)], lambda a, b: a <= b)


def square_poset_category() -> FiniteCategory:
    elements = ["00", "01", "10", "11"]
    return poset_category(
        elements, lambda a, b: a[0] <= b[0] and a[1] <= b[1]
    )


def parallel_pair_category() -> FiniteCategory:
    morphisms = (
        ("id_a", "a", "a"),
        ("id_b", "b", "b"),
        ("f", "a", "b"),
        ("g", "a", "b"),
    )
    composition = {
        ("id_a", "id_a"): "id_a",
        ("id_b", "id_b"): "id_b",
        ("id_a", "f"): "f",
        ("f", "id_b"): "f",
        ("id_a", "g"): "g",
        ("g", "id_b"): "g",
    }
    return FiniteCategory(("a", "b"), morphisms, {"a": "id_a", "b": "id_b"}, composition)


def z2_category() -> FiniteCategory:
    return monoid_category(
        ["e", "g"], "e", lambda x, y: "e" if x == y else "g"
    )


def z3_category() -> FiniteCategory:
    table = {
        ("e", "e"): "e", ("e", "g"): "g", ("e", "h"): "h",
        ("g", "e"): "g", ("g", "g"): "h", ("g", "h"): "e",
        ("h", "e"): "h", ("h", "g"): "e", ("h", "h"): "g",
    }
    return monoid_category(["e", "g", "h"], "e", lambda x, y: table[(x, y)])


def idempotent_monoid_category() -> FiniteCategory:
    return monoid_category(
        ["e", "z"], "e", lambda x, y: "z" if "z" in (x, y) else "e"
    )


def trivial_pmonoid() -> PartialMonoid:
    return PartialMonoid(("1",), "1", {("1", "1"): "1"})


def short_words_pmonoid(max_len: int) -> PartialMonoid:
    """Words in one letter, concatenation defined while length <= max_len."""
    carrier = tuple("a" * i if i else "1" for i in range(max_len + 1))

    def word(i):
        return "a" * i if i else "1"

    product = {}
    for i in range(max_len + 1):
        for j in range(max_len + 1):
            if i + j <= max_len:
                product[(word(i), word(j))] = word(i + j)
    return PartialMonoid(carrier, "1", product)


def z2_pmonoid() -> PartialMonoid:
    return PartialMonoid(
        ("1", "g"),
        "1",
        {("1", "1"): "1", ("1", "g"): "g", ("g", "1"): "g", ("g", "g"): "1"},
    )


def nilpotent_pmonoid() -> PartialMonoid:
    """A monoid with zero, the zero discarded: a*a is undefined."""
    return PartialMonoid(("1", "a"), "1", {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a"})


def free_pair_pmonoid() -> PartialMonoid:
    product = {("x", "y"): "xy"}
    for w in ("1", "x", "y", "xy"):
        product[("1", w)] = w
        product[(w, "1")] = w
    return PartialMonoid(("1", "x", "y", "xy"), "1", product)


def one_gap_pcategory() -> PartialCategory:
    """Two objects, two crossing arrows, their composites undefined."""
    morphisms = (
        ("id_x", "x", "x"),
        ("id_y", "y", "y"),
        ("f", "x", "y"),
        ("g", "y", "x"),
    )
    composition = {
        ("id_x", "id_x"): "id_x",
        ("id_y", "id_y"): "id_y",
        ("id_x", "f"): "f",
        ("f", "id_y"): "f",
        ("id_y", "g"): "g",
        ("g", "id_x"): "g",
    }
    return PartialCategory(("x", "y"), morphisms, {"x": "id_x", "y": "id_y"}, composition)


def paper_graph() -> DirectedGraph:
    return DirectedGraph(
        ("x", "y", "z"),
        (
            ("a", "x", "y"),
            ("b", "y", "z"),
            ("c", "y", "z"),
            ("d", "z", "x"),
            ("e", "x", "x"),
        ),
    )


def input_obj(x) -> dict:
    """The build input file (FORMATS.md) of a category, partial category,
    partial monoid or directed graph."""
    if isinstance(x, PartialMonoid):
        product = [[a, b, ab] for (a, b), ab in x.product.items()]
        return {"carrier": list(x.carrier), "unit": x.unit, "product": product}
    if isinstance(x, DirectedGraph):
        return {"vertices": list(x.vertices), "edges": [list(e) for e in x.edges]}
    return {
        "objects": list(x.objects),
        "morphisms": [list(m) for m in x.morphisms],
        "identities": dict(x.identities),
        "composition": [[f, g, h] for (f, g), h in x.composition.items()],
    }


def surjections(n: int, d: int) -> list[tuple[int, ...]]:
    return [f for f in monotone_tuples(n + 1, d) if set(f) == set(range(d + 1))]


def sset_from_generators(generators: dict, level: int) -> TruncatedSSet:
    """Assemble a simplicial set from nondegenerate generators.

    generators maps a name to (dim, faces) where faces[i] = (name',
    values') gives the i-th face as a possibly-degenerate cell: the
    generator name' reindexed along the surjection with those values.
    Every cell is a pair (generator, surjection values), and faces are
    computed by splitting the composite with a coface into its mono and
    epi parts.
    """

    def face_cell(cell, i):
        g, sig = cell
        f = tuple(sig[v + (v >= i)] for v in range(len(sig) - 1))
        word = delta.generator_word(f, generators[g][0])
        delta_idxs = [ix for kind, ix in word if kind == "delta"]
        sigma_idxs = [ix for kind, ix in word if kind == "sigma"]
        cur = (g, tuple(range(generators[g][0] + 1)))
        for ix in delta_idxs:
            cg, ctau = cur
            if ctau == tuple(range(generators[cg][0] + 1)):
                cur = generators[cg][1][ix]
            else:
                cur = face_cell(cur, ix)
        g2, tau = cur
        eps = evaluate_word([("sigma", j) for j in sigma_idxs], len(f) - 1)
        return (g2, compose_values(tau, eps))

    def cell_id(cell):
        g, sig = cell
        return f"{g}[{','.join(str(v) for v in sig)}]"

    cells_by_level = []
    for n in range(level + 1):
        cs = []
        for g, (dim, _) in generators.items():
            if dim > n:
                continue
            for sig in surjections(n, dim):
                cs.append((g, sig))
        cells_by_level.append(cs)

    cells = tuple(tuple(cell_id(c) for c in cs) for cs in cells_by_level)
    faces = {}
    for n in range(1, level + 1):
        for i in range(n + 1):
            faces[(n, i)] = {
                cell_id(c): cell_id(face_cell(c, i)) for c in cells_by_level[n]
            }
    degeneracies = {}
    for n in range(level):
        for i in range(n + 1):
            degeneracies[(n, i)] = {
                cell_id((g, sig)): cell_id(
                    (g, tuple(sig[v - (v > i)] for v in range(n + 2)))
                )
                for g, sig in cells_by_level[n]
            }
    return TruncatedSSet.from_names(level, cells, faces, degeneracies)


def collapsed_triangle(level: int = 3) -> TruncatedSSet:
    """A triangle with its whole boundary collapsed to a point.

    A genuine simplicial set (so it validates at any truncation) whose
    level-3 cells cannot separate the two degeneracies of the 2-cell:
    the upper and lower 2-Segal squares at n = 2 both fail.
    """
    generators = {
        "v": (0, []),
        "t": (2, [("v", (0, 0)), ("v", (0, 0)), ("v", (0, 0))]),
    }
    return sset_from_generators(generators, level)


def one_sided_upper(level: int = 3) -> TruncatedSSet:
    """A valid instance that is upper 2-Segal but not lower 2-Segal.

    One loop f, a 2-cell t with faces (f, f, degenerate), and a 3-cell w
    with faces (t, t, t, doubly degenerate); found by exhaustive search
    over small generator tables.  Its opposite is lower-only.
    """
    generators = {
        "v": (0, []),
        "f": (1, [("v", (0,)), ("v", (0,))]),
        "t": (2, [("f", (0, 1)), ("f", (0, 1)), ("v", (0, 0))]),
        "w": (
            3,
            [
                ("t", (0, 1, 2)),
                ("t", (0, 1, 2)),
                ("t", (0, 1, 2)),
                ("v", (0, 0, 0)),
            ],
        ),
    }
    return sset_from_generators(generators, level)


def duplicate_top(X: TruncatedSSet, j: int) -> TruncatedSSet:
    """X with a second copy of its j-th top cell, with the same faces.

    Still a simplicial set, since nothing above the top level constrains
    the copy; a pullback square into the top level that meets the cell
    now meets it twice.
    """
    top = X.level
    name = X.cells[top][j] + "'"
    while name in X.cells[top]:
        name += "'"
    faces = dict(X.faces)
    for i in range(top + 1):
        faces[(top, i)] += (faces[(top, i)][j],)
    cells = X.cells[:top] + (X.cells[top] + (name,),)
    return TruncatedSSet(top, cells, faces, dict(X.degeneracies))


def doubled_degenerate_nerve(level: int) -> TruncatedSSet:
    """The nerve of [1] with a second copy of its totally degenerate top
    simplex on the object 0."""
    return duplicate_top(builders.nerve(arrow_category(), level), 0)


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    X: TruncatedSSet
    kind: str  # nerve | pmonoid | pcategory | free | negative
    ofc: OuterFaceComplex | None = None


def corpus() -> list[CorpusInstance]:
    instances = []

    def add(name, X, kind, ofc=None):
        instances.append(CorpusInstance(name, X, kind, ofc))

    add("nerve-terminal-L3", builders.nerve(terminal_category(), 3), "nerve")
    add("nerve-terminal-L5", builders.nerve(terminal_category(), 5), "nerve")
    add("nerve-arrow-L3", builders.nerve(arrow_category(), 3), "nerve")
    add("nerve-arrow-L4", builders.nerve(arrow_category(), 4), "nerve")
    add("nerve-chain3-L3", builders.nerve(chain_category(3), 3), "nerve")
    add("nerve-chain3-L5", builders.nerve(chain_category(3), 5), "nerve")
    add("nerve-chain4-L4", builders.nerve(chain_category(4), 4), "nerve")
    add("nerve-z2-L3", builders.nerve(z2_category(), 3), "nerve")
    add("nerve-z2-L5", builders.nerve(z2_category(), 5), "nerve")
    add("nerve-z3-L4", builders.nerve(z3_category(), 4), "nerve")
    add("nerve-square-L4", builders.nerve(square_poset_category(), 4), "nerve")
    add("nerve-parallel-L3", builders.nerve(parallel_pair_category(), 3), "nerve")
    add(
        "nerve-idempotent-L4",
        builders.nerve(idempotent_monoid_category(), 4),
        "nerve",
    )
    add("pmonoid-trivial-L3", builders.from_partial_monoid(trivial_pmonoid(), 3), "pmonoid")
    add(
        "pmonoid-words1x2-L4",
        builders.from_partial_monoid(short_words_pmonoid(2), 4),
        "pmonoid",
    )
    add(
        "pmonoid-words1x3-L5",
        builders.from_partial_monoid(short_words_pmonoid(3), 5),
        "pmonoid",
    )
    add("pmonoid-z2-L3", builders.from_partial_monoid(z2_pmonoid(), 3), "pmonoid")
    add(
        "pmonoid-nilpotent-L3",
        builders.from_partial_monoid(nilpotent_pmonoid(), 3),
        "pmonoid",
    )
    add(
        "pmonoid-freepair-L4",
        builders.from_partial_monoid(free_pair_pmonoid(), 4),
        "pmonoid",
    )
    add(
        "pcategory-onegap-L3",
        builders.from_partial_category(one_gap_pcategory(), 3),
        "pcategory",
    )
    for name, ofc, level in [
        ("free-terminal2-L3", builders.terminal_complex(2), 3),
        ("free-terminal3-L5", builders.terminal_complex(3), 5),
        ("free-words-a1-L3", builders.bounded_words(("a",), 1), 3),
        ("free-words-ab2-L3", builders.bounded_words(("a", "b"), 2), 3),
        ("free-words-ab2-L5", builders.bounded_words(("a", "b"), 2), 5),
        ("free-words-a3-L5", builders.bounded_words(("a",), 3), 5),
        ("free-graph2-L3", builders.graph_paths(paper_graph(), 2), 3),
        ("free-graph3-L4", builders.graph_paths(paper_graph(), 3), 4),
    ]:
        add(name, builders.free_decomposition(ofc, level), "free", ofc)
    add("collapsed-triangle-L3", collapsed_triangle(3), "negative")
    add("collapsed-triangle-L5", collapsed_triangle(5), "negative")
    add("one-sided-upper-L3", one_sided_upper(3), "negative")
    add("one-sided-lower-L3", sset_opposite(one_sided_upper(3)), "negative")
    return instances
