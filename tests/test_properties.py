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
"""

from itertools import product

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from corpus import sset_from_generators
from decompspace import builders, criteria
from decompspace.sset import StructuralError

PROPS = settings(max_examples=55, deadline=None, derandomize=True)

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
def regular_graph_paths(draw):
    """The free decomposition of the paths of a graph whose edges are the
    union of one or two permutations of up to three vertices."""
    vertices = ("u", "v", "w")[: draw(st.integers(1, 3))]
    edges = []
    for k in range(draw(st.integers(1, 2))):
        targets = draw(st.permutations(vertices))
        edges += [(f"e{k}{s}", s, t) for s, t in zip(vertices, targets)]
    G = builders.DirectedGraph(vertices, tuple(edges))
    A = builders.graph_paths(G, draw(st.integers(1, 4)))
    return builders.free_decomposition(A, draw(LEVELS))


@st.composite
def loops_and_triangles(draw):
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
    return sset_from_generators(generators, draw(LEVELS))


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
