"""Property tests: the equivalent checkers agree on random small inputs.

Hypothesis draws small partial monoids, partial categories and regular
graphs; an input the builders reject (partial associativity, say) is
discarded.  On every simplicial set built from the rest the equivalent
checkers must give the same verdict:

- direct and check_decomposition, from level 2;
- direct, upper and lower together, polygonal full and polygonal
  restricted, from level 3;
- upper and reduced upper, from level 3;
- Segal and iterated Segal.

The three builders give decomposition spaces, where the 2-Segal
checkers all hold, so a fourth family draws one-vertex simplicial sets
from random loops and triangles, many of which are not.  Each family
runs 55 derandomized examples and must produce instances on both sides
of the verdicts it can vary, so the agreement is not only checked where
everything holds.

The last test is exhaustive rather than drawn: it compares direct with
check_decomposition on every one-vertex set of one or two loops and one
or two triangles, at levels 2 and 3, and at level 3 also with each
3-simplex that can be glued onto a one-loop set; at level 3 every
polygonal mode must also give the reference's report.

The last tests check verdicts against a consequence no square code
reads: where check_decomposition holds from level 3, the incidence
coalgebra read off X_1 and X_2 (oracles.comultiplication) must be
coassociative and counital, and a map check_culf passes must be a
coalgebra homomorphism.  The oracle is one-way, so it is run only where
the checkers hold; a failure is a soundness bug in a checker.
"""

from itertools import combinations_with_replacement, product

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from corpus import corpus, duplicate_top, sset_from_generators
from decompspace import builders, criteria, operators
from decompspace.sset import StructuralError, TruncatedSSet, truncate
from oracles import coalgebra_failures, homomorphism_failures, reference_polygonal_reports

PROPS = settings(max_examples=55, deadline=None, derandomize=True)
MODES = ("full", "restricted", "upper", "lower")

LEVELS = st.integers(2, 4)


def agree(X) -> tuple[bool, bool]:
    """Assert that the equivalent checkers agree on X; the direct and the
    Segal verdict.  At level 2 the upper and lower squares need X_3 and
    are vacuous, while the direct walk and check_decomposition decide
    the unit squares into X_2, so the 2-Segal checkers join from level 3."""
    direct = criteria.check_decomposition_direct(X).holds
    assert direct == criteria.check_decomposition(X).holds
    if X.level >= 3:
        upper = criteria.check_upper_2segal(X).holds
        both = upper and criteria.check_lower_2segal(X).holds
        full = criteria.check_2segal_polygonal(X, "full").holds
        restricted = criteria.check_2segal_polygonal(X, "restricted").holds
        assert direct == both == full == restricted
        assert upper == criteria.check_upper_2segal_reduced(X).holds
    segal = criteria.check_segal(X).holds
    assert segal == criteria.check_segal_iterated(X).holds
    return direct, segal


def build(make, *args):
    try:
        return make(*args)
    except StructuralError:
        reject()


def all_partial_monoids() -> list[builders.PartialMonoid]:
    """Every partial monoid on a unit e and one or two more elements that
    the builder accepts: each product of two non-units is undefined or
    any element.  Most tables of two such elements are not partially
    associative, so they are filtered here once rather than drawn and
    discarded."""
    found = []
    for carrier in (("e", "a"), ("e", "a", "b")):
        pairs = [(x, y) for x in carrier[1:] for y in carrier[1:]]
        units = {(x, y): y if x == "e" else x for x in carrier for y in carrier}
        for values in product((None, *carrier), repeat=len(pairs)):
            table = {k: v for k, v in units.items() if "e" in k}
            table.update((k, v) for k, v in zip(pairs, values) if v is not None)
            M = builders.PartialMonoid(carrier, "e", table)
            try:
                builders.validate_partial_monoid(M)
            except StructuralError:
                continue
            found.append(M)
    return found


partial_monoids = st.builds(
    builders.from_partial_monoid, st.sampled_from(all_partial_monoids()), LEVELS
)


@st.composite
def partial_categories(draw):
    """One or two objects with identities, one to three more arrows between
    them, and each composable pair undefined or sent to an arrow with the
    right endpoints."""
    objects = ("x", "y")[: draw(st.integers(1, 2))]
    identities = {o: f"1{o}" for o in objects}
    arrows = [(f"1{o}", o, o) for o in objects]
    for name in "fgh"[: draw(st.integers(1, 3))]:
        arrows.append((name, draw(st.sampled_from(objects)), draw(st.sampled_from(objects))))
    ends = {name: (s, t) for name, s, t in arrows}
    composition = {}
    for f, s, t in arrows:
        composition[(identities[s], f)] = f
        composition[(f, identities[t])] = f
    for f, s, t in arrows[len(objects) :]:
        for g, s2, t2 in arrows[len(objects) :]:
            if t != s2:
                continue
            fits = [h for h, (a, b) in ends.items() if (a, b) == (s, t2)]
            h = draw(st.sampled_from([None, *fits]))
            if h is not None:
                composition[(f, g)] = h
    C = builders.PartialCategory(objects, tuple(arrows), identities, composition)
    return build(builders.from_partial_category, C, draw(LEVELS))


@st.composite
def regular_graph_complexes(draw):
    """The outer face complex of the paths of a graph whose edges are the
    union of one or two permutations of up to three vertices."""
    vertices = ("u", "v", "w")[: draw(st.integers(1, 3))]
    edges = []
    for k in range(draw(st.integers(1, 2))):
        targets = draw(st.permutations(vertices))
        edges += [(f"e{k}{s}", s, t) for s, t in zip(vertices, targets)]
    G = builders.DirectedGraph(vertices, tuple(edges))
    return builders.graph_paths(G, draw(st.integers(1, 4)))


@st.composite
def regular_graph_paths(draw, levels=LEVELS):
    """The free decomposition of a regular_graph_complexes complex."""
    return builders.free_decomposition(draw(regular_graph_complexes()), draw(levels))


@st.composite
def loops_and_triangles(draw, levels=LEVELS):
    """One vertex, one or two loops, and one or two triangles whose faces
    are loops or the degenerate edge."""
    generators = {"v": (0, [])}
    loops = [f"f{k}" for k in range(draw(st.integers(1, 2)))]
    for f in loops:
        generators[f] = (1, [("v", (0,)), ("v", (0,))])
    edges = [(f, (0, 1)) for f in loops] + [("v", (0, 0))]
    for k in range(draw(st.integers(1, 2))):
        faces = [draw(st.sampled_from(edges)) for _ in range(3)]
        generators[f"t{k}"] = (2, faces)
    return sset_from_generators(generators, draw(levels))


def verdicts(strategy) -> set[tuple[bool, bool]]:
    """The (direct, Segal) verdicts seen while checking agreement."""
    seen = set()

    @PROPS
    @given(strategy)
    def check(X):
        seen.add(agree(X))

    check()
    return seen


# partial monoids, partial categories and free decompositions are
# decomposition spaces: the direct verdict holds on all of them, while
# Segal fails wherever a composite is missing, and on every free
# decomposition


def test_partial_monoids_agree():
    assert verdicts(partial_monoids) == {(True, True), (True, False)}


def test_partial_categories_agree():
    assert verdicts(partial_categories()) == {(True, True), (True, False)}


def test_regular_graph_paths_agree():
    assert verdicts(regular_graph_paths()) == {(True, False)}


def test_loops_and_triangles_agree():
    assert {direct for direct, _ in verdicts(loops_and_triangles())} == {True, False}


def one_vertex_generators():
    """Generators of every one-vertex set with one or two loops and one or
    two triangles, each face of a triangle a loop or the degenerate edge.
    Swapping the two triangles gives an isomorphic set, so a pair of
    triangles is taken once, unordered: 449 sets."""
    for n_loops in (1, 2):
        loops = [f"f{k}" for k in range(n_loops)]
        edges = [(f, (0, 1)) for f in loops] + [("v", (0, 0))]
        triangles = list(product(edges, repeat=3))
        for n_triangles in (1, 2):
            for faces in combinations_with_replacement(triangles, n_triangles):
                generators = {"v": (0, [])}
                generators.update((f, (1, [("v", (0,)), ("v", (0,))])) for f in loops)
                generators.update((f"t{k}", (2, list(fs))) for k, fs in enumerate(faces))
                yield n_loops, generators


def with_a_3_simplex(X: TruncatedSSet):
    """X at level 3 with one more, nondegenerate, 3-cell: one for each
    four 2-cells (F_0, ..., F_3) with d_i F_j = d_{j-1} F_i for i < j,
    that is, each way to glue a 3-simplex onto X_2."""
    d = [X.faces[(2, i)] for i in range(3)]
    cells = X.cells[:3] + (X.cells[3] + ("w",),)
    for F in product(range(len(X.cells[2])), repeat=4):
        if all(d[i][F[j]] == d[j - 1][F[i]] for j in range(4) for i in range(min(j, 3))):
            faces = dict(X.faces)
            faces.update(((3, i), X.faces[(3, i)] + (F[i],)) for i in range(4))
            yield TruncatedSSet(3, cells, faces, X.degeneracies)


def test_one_vertex_sets_agree_exhaustively():
    """direct and check_decomposition give the same verdict on each of
    the 449 sets at level 2 and at level 3, and on each of the 937 ways
    to glue a 3-simplex onto a one-loop set, whose top-level squares
    then meet a nondegenerate X_3 cell.  Before the unit squares into
    X_2 joined check_decomposition, most of the level-2 sets disagreed.
    At level 3 each polygonal mode gives reference_check_2segal_polygonal's
    report, whether the 2-Segal squares settle it or it walks.
    The two-loop sets with a 3-simplex (8,135 more) agree as well; they
    are left out because they take about 6 s more than the 3 s this test
    takes on a 2-core host.
    """
    seen = {2: [], 3: []}
    for n_loops, generators in one_vertex_generators():
        X = sset_from_generators(generators, 3)
        instances = [truncate(X, 2), X]
        if n_loops == 1:
            instances += with_a_3_simplex(X)
        for Y in instances:
            direct = criteria.check_decomposition_direct(Y).holds
            assert direct == criteria.check_decomposition(Y).holds
            seen[Y.level].append(direct)
            if Y.level == 3:
                assert [
                    criteria.check_2segal_polygonal(Y, mode) for mode in MODES
                ] == reference_polygonal_reports(Y), generators
    assert (len(seen[2]), seen[2].count(True)) == (449, 95)
    assert (len(seen[3]), seen[3].count(True)) == (449 + 937, 4 + 2)


# the incidence coalgebra: where the checkers hold, its laws must too

HIGH_LEVELS = st.integers(3, 4)


def assert_coalgebra(X) -> bool:
    """Whether check_decomposition holds on X (level >= 3); if it does,
    assert that the incidence coalgebra of X is coassociative and
    counital."""
    holds = criteria.check_decomposition(X).holds
    if holds:
        assert coalgebra_failures(X) == {
            "coassociative": [], "left counit": [], "right counit": []
        }
    return holds


def assert_homomorphism(F) -> bool:
    """Whether check_culf holds on F (shared level >= 2); if it does,
    assert that F is a coalgebra homomorphism."""
    holds = criteria.check_culf(F).holds
    if holds:
        assert homomorphism_failures(F) == []
    return holds


def test_corpus_coalgebras():
    # the level >= 3 corpus instances, truncated to level 3 and as they
    # are, each also with a second copy of one of its first three top
    # cells; where check_decomposition holds, the laws hold, and their
    # decalage projections, where culf, are homomorphisms
    verdicts, culf = [], []
    for inst in corpus():
        if inst.X.level < 3:
            continue
        for Y in [truncate(inst.X, 3)] + [inst.X] * (inst.X.level > 3):
            for X in [Y, *(duplicate_top(Y, j) for j in range(min(3, len(Y.cells[-1]))))]:
                verdicts.append(assert_coalgebra(X))
                for dec in (operators.dec_top, operators.dec_bot):
                    culf.append(assert_homomorphism(dec(X)[1]))
    assert set(verdicts) == {True, False} and set(culf) == {True, False}


def test_random_outer_face_complexes_are_coalgebras():
    # a free decomposition is a decomposition space and its length map
    # is culf, so here everything holds
    @PROPS
    @given(regular_graph_complexes(), HIGH_LEVELS)
    def check(A, level):
        X = builders.free_decomposition(A, level)
        assert assert_coalgebra(X)
        assert assert_homomorphism(builders.length_map(A, level))
        for dec in (operators.dec_top, operators.dec_bot):
            assert assert_homomorphism(dec(X)[1])

    check()


def test_one_vertex_coalgebras():
    # loops and triangles at level 3 and 4, on both sides of the verdict
    seen = set()

    @PROPS
    @given(loops_and_triangles(HIGH_LEVELS))
    def check(X):
        seen.add(assert_coalgebra(X))
        for dec in (operators.dec_top, operators.dec_bot):
            assert_homomorphism(dec(X)[1])

    check()
    assert seen == {True, False}
