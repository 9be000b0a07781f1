"""Example constructions: nerves, twisted arrows, partial structures,
outer face complexes and the free construction."""

import re
from itertools import product as iproduct

import pytest

from corpus import (
    arrow_category,
    chain_category,
    colliding_chains_category,
    colliding_chains_pmonoid,
    corpus,
    free_pair_pmonoid,
    nilpotent_pmonoid,
    one_gap_pcategory,
    paper_graph,
    point,
    short_words_pmonoid,
    terminal_category,
    trivial_pmonoid,
    z2_category,
    z2_pmonoid,
)
from decompspace import builders, criteria, operators, serialize
from decompspace.builders import (
    DirectedGraph,
    FiniteCategory,
    OuterFaceComplex,
    PartialCategory,
    PartialMonoid,
)
from decompspace.sset import StructuralError, validate
from oracles import are_isomorphic, reference_from_partial_monoid
from test_properties import all_partial_monoids


def sset_bytes(X) -> str:
    return serialize.dumps(serialize.sset_to_obj(X))


class TestCategoryValidation:
    def test_partial_category_is_the_category_type(self):
        assert PartialCategory is FiniteCategory

    @pytest.mark.parametrize("composite", ["nonsense", "[0,1]"])
    def test_composition_entry_naming_no_morphism_rejected(self, composite):
        # every composable pair has its composite, but one more entry
        # names a pair of non-morphisms, with a composite that is no
        # morphism or is the arrow 0 -> 1
        C = arrow_category()
        assert ("[0,1]", "0", "1") in C.morphisms
        bad = FiniteCategory(
            C.objects,
            C.morphisms,
            C.identities,
            {**C.composition, ("zz", "qq"): composite},
        )
        for build in (builders.nerve, builders.from_partial_category):
            with pytest.raises(
                StructuralError,
                match=re.escape(f"composition entry ('zz', 'qq') -> {composite!r} dangles"),
            ):
                build(bad, 2)

    def test_missing_identity(self):
        C = FiniteCategory(("x",), (("f", "x", "x"),), {}, {("f", "f"): "f"})
        with pytest.raises(StructuralError, match="identity"):
            builders.validate_category(C)

    def test_missing_composite(self):
        with pytest.raises(StructuralError, match="missing composite"):
            builders.validate_category(
                FiniteCategory(
                    ("*",),
                    (("e", "*", "*"), ("a", "*", "*")),
                    {"*": "e"},
                    {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"},
                )
            )

    def test_broken_associativity(self):
        # rock-paper-scissors with a unit: (r p) s = s but r (p s) = r
        elements = ["e", "r", "p", "s"]
        wins = {("r", "p"): "p", ("p", "s"): "s", ("s", "r"): "r"}

        def mult(x, y):
            if x == "e":
                return y
            if y == "e" or x == y:
                return x
            return wins.get((x, y)) or wins[(y, x)]

        C = FiniteCategory(
            ("*",),
            tuple((x, "*", "*") for x in elements),
            {"*": "e"},
            {(x, y): mult(x, y) for x in elements for y in elements},
        )
        with pytest.raises(StructuralError, match="associativity"):
            builders.validate_category(C)


class TestNerve:
    def test_terminal_category_gives_point(self):
        X = builders.nerve(terminal_category(), 3)
        assert [len(c) for c in X.cells] == [1, 1, 1, 1]
        assert are_isomorphic(X, point(3))

    def test_arrow_category_counts(self):
        X = builders.nerve(arrow_category(), 3)
        assert len(X.cells[1]) == 3

    def test_nerves_are_segal_decomposition_spaces(self):
        for C in (arrow_category(), chain_category(3), z2_category()):
            X = builders.nerve(C, 4)
            assert validate(X).holds
            assert criteria.check_segal(X).holds
            assert criteria.check_decomposition(X).holds

    def test_unbounded_enough_graph_paths_match_2segal(self):
        # the free simplicial set on the example graph's paths is a
        # decomposition space at every bound
        X = builders.free_decomposition(builders.graph_paths(paper_graph(), 3), 3)
        assert criteria.check_decomposition(X).holds


class TestChainNames:
    """Chains are named by their arrows joined, so arrow names can make two
    chains one name; the builders refuse such a set rather than write it."""

    @pytest.mark.parametrize(
        "build, source, name",
        [
            (builders.nerve, colliding_chains_category, "a|b|c"),
            (builders.from_partial_category, colliding_chains_category, "a|b|c"),
            (builders.from_partial_monoid, colliding_chains_pmonoid, "(a,b,c)"),
        ],
        ids=["nerve", "pcategory", "pmonoid"],
    )
    def test_colliding_chain_names_rejected(self, build, source, name):
        assert validate(build(source(), 1)).holds
        message = f"chain names collide: duplicate cell {name!r} at level 2"
        for level in (2, 3):
            with pytest.raises(StructuralError, match=re.escape(message)):
                build(source(), level)


class TestTwistedArrow:
    def test_terminal_fixed(self):
        tw = builders.twisted_arrow(terminal_category())
        assert len(tw.objects) == 1 and len(tw.morphisms) == 1
        builders.validate_category(tw)

    def test_arrow_category_has_three_objects(self):
        tw = builders.twisted_arrow(arrow_category())
        assert len(tw.objects) == 3
        builders.validate_category(tw)

    def test_colliding_arrow_names_rejected(self):
        # [1x|a|b|c] names both the factorization 1x, a, b|c and 1x, a|b, c
        message = "twisted arrow names collide: '[1x|a|b|c]' names two factorizations"
        with pytest.raises(StructuralError, match=re.escape(message)):
            builders.twisted_arrow(colliding_chains_category())

    def test_twisted_arrow_is_a_category_for_corpus_categories(self):
        for C in (chain_category(3), z2_category()):
            builders.validate_category(builders.twisted_arrow(C))

    def test_nerve_of_twisted_arrow_is_subdivision(self):
        for C in (arrow_category(), chain_category(3), z2_category()):
            X = builders.nerve(C, 5)
            Z = operators.sd(X)
            W = builders.nerve(builders.twisted_arrow(C), Z.level)
            assert [len(c) for c in Z.cells] == [len(c) for c in W.cells]
            assert are_isomorphic(Z, W)


class TestPartialMonoid:
    def test_trivial_monoid_gives_point(self):
        X = builders.from_partial_monoid(trivial_pmonoid(), 3)
        assert are_isomorphic(X, point(3))

    def test_words_reduct_2segal_not_segal(self):
        X = builders.from_partial_monoid(short_words_pmonoid(2), 3)
        assert criteria.check_upper_2segal(X).holds
        assert criteria.check_lower_2segal(X).holds
        assert not criteria.check_segal(X).holds

    def test_total_monoid_matches_one_object_nerve(self):
        X = builders.from_partial_monoid(z2_pmonoid(), 3)
        Y = builders.nerve(z2_category(), 3)
        assert are_isomorphic(X, Y)
        assert criteria.check_segal(X).holds

    def test_validation_catches_broken_associativity(self):
        # a*(a*a) undefined but (a*a)*a defined
        M = PartialMonoid(
            ("1", "a", "b"),
            "1",
            {
                ("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a",
                ("1", "b"): "b", ("b", "1"): "b",
                ("a", "a"): "b", ("b", "a"): "1",
            },
        )
        with pytest.raises(StructuralError, match="associativity"):
            builders.from_partial_monoid(M, 2)

    def test_validation_catches_broken_unit(self):
        M = PartialMonoid(("1", "a"), "1", {("1", "1"): "1", ("a", "1"): "a"})
        with pytest.raises(StructuralError, match="unit"):
            builders.from_partial_monoid(M, 2)

    def test_matches_word_by_word_reference(self):
        # the builder reads a partial monoid as a one-object partial
        # category; the reference builds the words directly
        cases = [(M, level) for M in all_partial_monoids() for level in range(5)]
        # and the corpus monoids at their corpus levels
        cases += [
            (trivial_pmonoid(), 3),
            (short_words_pmonoid(2), 4),
            (short_words_pmonoid(3), 5),
            (z2_pmonoid(), 3),
            (nilpotent_pmonoid(), 3),
            (free_pair_pmonoid(), 4),
        ]
        for M, level in cases:
            assert sset_bytes(builders.from_partial_monoid(M, level)) == sset_bytes(
                reference_from_partial_monoid(M, level)
            ), (M, level)

    def test_carrier_cap(self):
        carrier = tuple(f"x{i}" for i in range(40))
        M = PartialMonoid(carrier, "x0", {})
        with pytest.raises(StructuralError, match="cap"):
            builders.validate_partial_monoid(M)

    def test_all_corpus_pmonoids_2segal(self):
        for inst in corpus():
            if inst.kind != "pmonoid":
                continue
            assert criteria.check_upper_2segal(inst.X).holds, inst.name
            assert criteria.check_lower_2segal(inst.X).holds, inst.name


class TestPartialCategory:
    def test_one_object_case_reduces_to_partial_monoid(self):
        M = free_pair_pmonoid()
        C = PartialCategory(
            ("*",),
            tuple((x, "*", "*") for x in M.carrier),
            {"*": M.unit},
            dict(M.product),
        )
        X = builders.from_partial_category(C, 3)
        Y = builders.from_partial_monoid(M, 3)
        assert [len(c) for c in X.cells] == [len(c) for c in Y.cells]
        assert are_isomorphic(X, Y)

    def test_total_composition_equals_nerve(self):
        C = chain_category(3)
        P = PartialCategory(C.objects, C.morphisms, dict(C.identities), dict(C.composition))
        assert are_isomorphic(
            builders.from_partial_category(P, 3), builders.nerve(C, 3)
        )

    def test_one_gap_2segal_not_segal(self):
        X = builders.from_partial_category(one_gap_pcategory(), 3)
        assert criteria.check_upper_2segal(X).holds
        assert criteria.check_lower_2segal(X).holds
        assert not criteria.check_segal(X).holds

    def test_uninhabited_endo_hom_rejected(self):
        C = PartialCategory(
            ("x", "y"),
            (("id_x", "x", "x"), ("f", "x", "y")),
            {"x": "id_x"},
            {("id_x", "id_x"): "id_x", ("id_x", "f"): "f"},
        )
        with pytest.raises(StructuralError, match="endo-hom"):
            builders.from_partial_category(C, 2)


class TestBoundedWords:
    def test_empty_alphabet(self):
        A = builders.bounded_words((), 3)
        assert A.grades[0] == ("",)
        assert all(A.grades[m] == () for m in range(1, 4))

    def test_grade_sizes(self):
        A = builders.bounded_words(("a", "b"), 3)
        for m in range(4):
            assert len(A.grades[m]) == 2**m

    def test_commutation_strips_both_ends(self):
        A = builders.bounded_words(("a", "b"), 2)
        builders.validate_ofc(A)
        assert A.grades == (("",), ("a", "b"), ("aa", "ab", "ba", "bb"))
        # d_bot drops the first letter, d_top the last, as indices
        assert A.d_bot[2] == (0, 1, 0, 1) and A.d_top[2] == (0, 0, 1, 1)
        for j in range(4):
            assert A.d_top[1][A.d_bot[2][j]] == A.d_bot[1][A.d_top[2][j]] == 0

    @pytest.mark.parametrize("alphabet", ["", "a", "ab", "abc", "ba"])
    def test_words_are_paths_of_one_vertex_graph(self, alphabet):
        G = DirectedGraph(("",), tuple((a, "", "") for a in alphabet))
        for max_len in range(4):
            assert serialize.ofc_to_obj(
                builders.bounded_words(tuple(alphabet), max_len)
            ) == serialize.ofc_to_obj(builders.graph_paths(G, max_len))

    @pytest.mark.parametrize("max_len", [0, 1, 2])
    def test_repeated_letter_rejected_at_every_length(self, max_len):
        # a repeated letter is a repeated edge of the one-vertex graph,
        # so even max_len 0, which has no word of it, is rejected
        with pytest.raises(StructuralError, match="alphabet letters produce colliding"):
            builders.bounded_words(("a", "a"), max_len)

    def test_concatenation_collision_rejected(self):
        with pytest.raises(StructuralError, match="alphabet letters produce colliding"):
            builders.bounded_words(("a", "aa"), 2)

    def test_segal_obstruction_is_the_length_bound(self):
        # Segal fiber products concatenate words, so their lengths
        # exceed any finite bound: even with the bound above the level
        # the free object stays non-Segal (while remaining a
        # decomposition space); only the empty alphabet is Segal
        X = builders.free_decomposition(builders.bounded_words(("a",), 3), 3)
        assert not criteria.check_segal(X).holds
        assert criteria.check_decomposition(X).holds
        E = builders.free_decomposition(builders.bounded_words((), 2), 3)
        assert criteria.check_segal(E).holds


def words_ab() -> OuterFaceComplex:
    """bounded_words(("a", "b"), 2) spelled out: faces as index tables."""
    return OuterFaceComplex(
        2,
        (("",), ("a", "b"), ("aa", "ab", "ba", "bb")),
        {1: (0, 0), 2: (0, 1, 0, 1)},
        {1: (0, 0), 2: (0, 0, 1, 1)},
    )


class TestOFCValidation:
    def test_spelled_out_words_validate(self):
        builders.validate_ofc(words_ab())
        assert words_ab() == builders.bounded_words(("a", "b"), 2)

    @pytest.mark.parametrize(
        "kind, m, table, message",
        [
            ("d_bot", 2, (0, 1, 0), "d_bot at degree 2 is not a tuple of 4 indices"),
            ("d_top", 1, [0, 0], "d_top at degree 1 is not a tuple of 2 indices"),
            ("d_top", 2, (0, 0, "b", 1), "d_top at degree 2 holds an entry that is not"),
            ("d_bot", 2, (0, 9, 0, 1), "d_bot at degree 2 sends 'ab' to dangling index 9"),
            ("d_bot", 1, (0, -1), "d_bot at degree 1 sends 'b' to dangling index -1"),
        ],
        ids=["short", "list", "non-int", "dangling", "negative"],
    )
    def test_bad_table_named(self, kind, m, table, message):
        A = words_ab()
        getattr(A, kind)[m] = table
        with pytest.raises(StructuralError, match=re.escape(message)):
            builders.validate_ofc(A)

    def test_missing_table_named(self):
        A = words_ab()
        del A.d_top[2]
        with pytest.raises(StructuralError, match="missing d_top table at degree 2"):
            builders.validate_ofc(A)

    def test_non_commuting_pair_named(self):
        # 'ab' has bottom face 'b' and top face 'a', whose top and bottom
        # faces are the two different elements v and u of degree 0
        A = OuterFaceComplex(
            2,
            (("u", "v"), ("a", "b"), ("aa", "ab", "ba", "bb")),
            {1: (0, 1), 2: (0, 1, 0, 1)},
            {1: (0, 1), 2: (0, 0, 1, 1)},
        )
        with pytest.raises(
            StructuralError, match="d_top d_bot != d_bot d_top at degree 2 on 'ab'"
        ):
            builders.validate_ofc(A)

    def test_duplicate_grade_element_named(self):
        A = OuterFaceComplex(1, (("",), ("a", "a")), {1: (0, 0)}, {1: (0, 0)})
        with pytest.raises(StructuralError, match="duplicate elements in grade 1"):
            builders.validate_ofc(A)


class TestGraphPaths:
    def test_paper_graph_length_two_paths(self):
        A = builders.graph_paths(paper_graph(), 2)
        assert sorted(A.grades[2]) == ["ab", "ac", "bd", "cd", "da", "de", "ea", "ee"]
        assert "ac" in A.grades[2] and "ee" in A.grades[2]
        assert "bc" not in A.grades[2] and "eb" not in A.grades[2]

    def test_degree_zero_is_vertices(self):
        A = builders.graph_paths(paper_graph(), 2)
        assert A.grades[0] == ("x", "y", "z")
        assert A.grades[1] == ("a", "b", "c", "d", "e")
        # the edge a: x -> y has bottom face y (index 1), top face x (0)
        assert A.d_bot[1] == (1, 2, 2, 0, 0)
        assert A.d_top[1] == (0, 1, 1, 2, 0)

    def test_faces_drop_an_end_edge(self):
        A = builders.graph_paths(paper_graph(), 3)
        for m in (2, 3):
            for j, p in enumerate(A.grades[m]):
                assert A.grades[m - 1][A.d_bot[m][j]] == p[1:]
                assert A.grades[m - 1][A.d_top[m][j]] == p[:-1]

    def test_no_edges(self):
        A = builders.graph_paths(DirectedGraph(("v",), ()), 2)
        assert A.grades == (("v",), (), ())

    def test_validates(self):
        builders.validate_ofc(builders.graph_paths(paper_graph(), 3))


class TestFreeDecomposition:
    def test_terminal_complex_counts(self):
        for bound in (2, 3):
            X = builders.free_decomposition(builders.terminal_complex(bound), 3)
            assert len(X.cells[1]) == bound + 1
            assert len(X.cells[2]) == (bound + 1) * (bound + 2) // 2

    def test_terminal_complex_is_additive_monoid_nerve(self):
        # nerve of addition bounded at the top degree
        X = builders.free_decomposition(builders.terminal_complex(2), 3)
        Y = builders.from_partial_monoid(short_words_pmonoid(2), 3)
        assert are_isomorphic(X, Y)

    def test_words_counts(self):
        X = builders.free_decomposition(builders.bounded_words(("a", "b"), 2), 3)
        assert len(X.cells[1]) == 7
        assert len(X.cells[2]) == 17

    def test_cardinality_law_against_composition_oracle(self):
        for A in (
            builders.bounded_words(("a", "b"), 2),
            builders.graph_paths(paper_graph(), 2),
            builders.terminal_complex(3),
        ):
            X = builders.free_decomposition(A, 3)
            for k in range(4):
                expected = 0
                for parts in iproduct(range(A.bound + 1), repeat=k):
                    if sum(parts) <= A.bound:
                        expected += len(A.grades[sum(parts)])
                assert len(X.cells[k]) == expected

    def test_every_free_output_is_a_decomposition_space(self):
        for inst in corpus():
            if inst.kind != "free":
                continue
            assert validate(inst.X).holds, inst.name
            assert criteria.check_decomposition(inst.X).holds, inst.name

    def test_invalid_complex_rejected(self):
        A = OuterFaceComplex(1, (("p",), ("q",)), {1: (1,)}, {1: (0,)})
        with pytest.raises(StructuralError, match="d_bot at degree 1 sends 'q'"):
            builders.free_decomposition(A, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: builders.terminal_complex(-1),
            lambda: builders.bounded_words(("a", "b"), -1),
            lambda: builders.graph_paths(paper_graph(), -2),
        ],
        ids=["terminal", "words", "graph-paths"],
    )
    def test_negative_top_degree_rejected(self, build):
        # a negative top degree would give a complex with no grades,
        # which the file reader and validate_ofc both reject
        with pytest.raises(ValueError, match="must be nonnegative, got -"):
            build()


class TestLengthMap:
    def test_terminal_complex_gives_identity(self):
        A = builders.terminal_complex(2)
        lm = builders.length_map(A, 3)
        for n in range(4):
            assert lm.component_names(n) == {c: c for c in lm.source.cells[n]}

    def test_level_one_component_sends_word_to_length(self):
        lm = builders.length_map(builders.bounded_words(("a",), 2), 3)
        assert lm.component_names(1) == {
            "(;0)": "(*;0)",
            "(a;1)": "(*;1)",
            "(aa;2)": "(*;2)",
        }

    def test_culf_for_paper_graph(self):
        lm = builders.length_map(builders.graph_paths(paper_graph(), 2), 3)
        assert criteria.check_culf(lm).holds

    def test_culf_for_all_corpus_complexes(self):
        for inst in corpus():
            if inst.ofc is None:
                continue
            lm = builders.length_map(inst.ofc, min(inst.X.level, 3))
            assert criteria.check_culf(lm).holds, inst.name


class TestCorpusWideValidation:
    def test_every_builder_output_validates(self):
        for inst in corpus():
            assert validate(inst.X).holds, inst.name
