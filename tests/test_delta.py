"""Simplex-category core on value tuples: generators and their
relations, the active and inert classes, factorization, pushouts,
enumeration, generator words.

The pushout/pullback tests check universal properties against oracles
that use only the defining equations (pointwise determination plus
monotone completion), never the closed-form construction.  The pushout
universal property over the whole family at ranks <= 4 is acceptance
criterion 7.
"""

import math
from itertools import product

from decompspace import delta
from oracles import (
    active_tuples,
    assert_pullback,
    assert_pushout,
    codegeneracy_values,
    coface_values,
    compose_values,
    evaluate_word,
    factorization_buckets,
    inert_tuples,
    monotone_tuples,
)


def inert_values(n, k):
    """The inert maps [n] -> [k] the square family walks, by offset."""
    return [square[1] for square in delta.active_inert_squares(n, k, 0)]


class TestGenerators:
    # a coface or codegeneracy, as a value tuple, is the one-letter word
    def test_coface_formula_cases(self):
        assert delta.generator_word((0, 2), 2) == [("delta", 1)]
        assert delta.generator_word((1,), 1) == [("delta", 0)]
        assert delta.generator_word((0, 1, 2), 3) == [("delta", 3)]

    def test_coface_omits_exactly_i(self):
        for n, i, values in coface_values(5):
            assert set(values) == set(range(n + 1)) - {i}
            assert delta.generator_word(values, n) == [("delta", i)]

    def test_codegeneracy_formula_cases(self):
        assert delta.generator_word((0, 0, 1), 1) == [("sigma", 0)]
        assert delta.generator_word((0, 0), 0) == [("sigma", 0)]
        assert delta.generator_word((0, 1, 2, 2), 2) == [("sigma", 2)]

    def test_codegeneracy_doubles_exactly_i(self):
        for n, i, values in codegeneracy_values(4):
            assert [v for v in values if v == i] == [i, i]
            assert delta.generator_word(values, n) == [("sigma", i)]

    def test_simplex_map_invariants(self):
        # every tuple the kernel yields is a weakly monotone map of its ranks
        for n, k, m in product(range(6), repeat=3):
            for alpha, iota, theta, phi in delta.active_inert_squares(n, k, m):
                p = k - n + m
                for f, top, rank in ((alpha, m, n), (iota, k, n), (theta, p, m), (phi, p, k)):
                    assert len(f) == rank + 1 and list(f) == sorted(f) and 0 <= f[0] <= f[-1] <= top


class TestCompose:
    # the words of a composite reduce to generator_word's normal form
    def test_pointwise_example(self):
        assert evaluate_word([("delta", 1), ("delta", 0)], 0) == (2,)
        assert delta.generator_word((2,), 2) == [("delta", 1), ("delta", 0)]

    def test_simplicial_identity_case(self):
        assert evaluate_word([("sigma", 0), ("delta", 1)], 1) == (0, 1)
        assert delta.generator_word((0, 1), 1) == []

    def test_all_generator_relations_up_to_rank_5(self):
        def relation(lhs, rhs, source, target, normal):
            assert evaluate_word(lhs, source) == evaluate_word(rhs, source)
            assert delta.generator_word(evaluate_word(lhs, source), target) == normal

        d, s = (lambda i: ("delta", i)), (lambda i: ("sigma", i))
        for n in range(2, 6):
            for j in range(n + 1):
                for i in range(j):
                    relation([d(j), d(i)], [d(i), d(j - 1)], n - 2, n, [d(j), d(i)])
        for n in range(5):
            for j in range(n + 1):
                for i in range(j + 1):
                    relation([s(j), s(i)], [s(i), s(j + 1)], n + 2, n, [s(i), s(j + 1)])
        for n in range(1, 5):
            for j in range(n):
                for i in range(n + 1):
                    rhs = [d(i), s(j - 1)] if i < j else [d(i - 1), s(j)] if i > j + 1 else []
                    relation([s(j), d(i)], rhs, n - 1, n - 1, rhs)


class TestClassify:
    # active: active_values; inert: the iotas of the square family
    def test_inner_coface_active(self):
        assert (0, 2) in delta.active_values(1, 2)
        assert (0, 2) not in inert_values(1, 2)

    def test_outer_coface_inert(self):
        assert inert_values(1, 2) == [(0, 1), (1, 2)]
        assert not {(0, 1), (1, 2)} & set(delta.active_values(1, 2))

    def test_identity_both(self):
        for n in range(4):
            assert tuple(range(n + 1)) in delta.active_values(n, n)
            assert inert_values(n, n) == [tuple(range(n + 1))]

    def test_neither(self):
        assert (1, 3) not in delta.active_values(1, 3) + inert_values(1, 3)

    def test_codegeneracies_active(self):
        for n, _, values in codegeneracy_values(3):
            assert values in delta.active_values(n + 1, n)

    def test_subcategory_closure(self):
        for n, j, m in product(range(3), range(4), range(4)):
            for f, g in product(delta.active_values(n, j), delta.active_values(j, m)):
                assert compose_values(g, f) in delta.active_values(n, m)
            for f, g in product(inert_values(n, j), inert_values(j, m)):
                assert compose_values(g, f) in inert_values(n, m)


class TestFactorization:
    def test_roundtrip_and_classes_up_to_rank_6(self):
        # f = inert o active, the active part in active_values and the
        # inert part among the family's iotas
        for n, m in product(range(5), range(7)):
            for f in monotone_tuples(n + 1, m):
                j, active = f[-1] - f[0], tuple(v - f[0] for v in f)
                inert = tuple(range(f[0], f[-1] + 1))
                assert active in delta.active_values(n, j) and inert in inert_values(j, m)
                assert compose_values(inert, active) == f

    def test_uniqueness_exhaustive_rank_6(self):
        # bucket every (active, inert) composite; each bucket must be a
        # singleton, and every map of ranks <= 6 must appear
        buckets = factorization_buckets(6)
        for f, pairs in buckets.items():
            assert len(pairs) == 1, f"{f!r} has {len(pairs)} active-inert factorizations"
        for n in range(7):
            for m in range(7):
                for f in monotone_tuples(n + 1, m):
                    assert (f, m) in buckets


class TestPushout:
    def test_identity_active_gives_back_iota(self):
        theta, phi = delta.pushout_values((0, 1, 2), 1, 4)
        assert theta == (1, 2, 3)
        assert phi == (0, 1, 2, 3, 4)

    def test_collapse_example_certified(self):
        # pushing sigma^0 out along delta^0 collapses the shifted edge
        alpha, iota = (0, 0), (1, 2)
        theta, phi = delta.pushout_values(alpha, 1, 2)
        assert theta == (1,)
        assert phi == (0, 1, 1)
        assert_pushout(alpha, iota, theta, phi, 1, max_cocone_rank=6)
        assert_pullback(alpha, iota, theta, phi, 1, max_cone_rank=6)

    def test_face_example_certified(self):
        # the inner coface (0, 2) pushed out along the outer coface (0, 1)
        alpha, iota = (0, 2), (0, 1)
        theta, phi = delta.pushout_values(alpha, 0, 2)
        assert theta == (0, 1, 2)
        assert phi == (0, 2, 3)
        assert_pushout(alpha, iota, theta, phi, 3, max_cocone_rank=6)
        assert_pullback(alpha, iota, theta, phi, 3, max_cone_rank=6)

    def test_pullback_property_exhaustive_rank_4_cones_to_8(self):
        for n in range(5):
            for k in range(n, 5):
                for m in range(5):
                    for square in delta.active_inert_squares(n, k, m):
                        assert_pullback(*square, k - n + m, max_cone_rank=8)


class TestValueTupleKernel:
    def test_square_family_is_every_pushout_in_walk_order(self):
        # by inert offset, then the active maps lexicographically, each
        # square commuting with an inert theta and an active phi into
        # [k - n + m]; criterion 7 certifies the pushouts at ranks <= 4
        for n in range(8):
            for k in range(n, 8):
                for m in range(8):
                    family = list(delta.active_inert_squares(n, k, m))
                    assert [square[:2] for square in family] == [
                        (alpha, iota)
                        for iota in inert_tuples(n, k)
                        for alpha in active_tuples(n, m)
                    ], (n, k, m)
                    p = k - n + m
                    for alpha, iota, theta, phi in family:
                        assert theta == tuple(range(theta[0], theta[0] + m + 1))
                        assert theta[-1] <= p and len(phi) == k + 1
                        assert (phi[0], phi[-1]) == (0, p) and list(phi) == sorted(phi)
                        assert [theta[v] for v in alpha] == [phi[v] for v in iota]
                        assert delta.pushout_values(alpha, iota[0], k) == (theta, phi)

    def test_active_values_are_the_active_maps_in_order(self):
        for n in range(6):
            for m in range(6):
                brute = active_tuples(n, m)
                assert delta.active_values(n, m) == brute
                assert delta.count_active(n, m) == len(brute)

    def test_elementary_squares_are_the_walk_squares_of_elementary_maps(self):
        # the squares of the family whose iota is an outer coface and whose
        # alpha is one codegeneracy or one inner coface, in walk order
        for top in range(8):
            for cap in range(top + 1):
                expected = [
                    square
                    for n in range(top)
                    for m in (n - 1, n + 1)
                    if 0 <= m and m + 1 <= cap
                    for square in delta.active_inert_squares(n, n + 1, m)
                    if len(delta.generator_word(square[0], m)) == 1
                ]
                assert list(delta.elementary_squares(top, cap)) == expected
        families = [s[0][-1] < len(s[0]) - 1 for s in delta.elementary_squares(6, 6)]
        assert (families.count(True), families.count(False)) == (30, 20)


class TestGeneratorDecomposition:
    def test_identity_is_empty_word(self):
        assert delta.generator_word((0, 1, 2, 3), 3) == []

    def test_single_codegeneracy(self):
        assert delta.generator_word((0, 0, 1), 1) == [("sigma", 0)]

    def test_two_cofaces_decreasing(self):
        word = delta.generator_word((0, 2), 3)
        assert word == [("delta", 3), ("delta", 1)]
        assert evaluate_word(word, 1) == (0, 2)

    def test_canonical_order(self):
        for n in range(5):
            for m in range(5):
                for f in monotone_tuples(n + 1, m):
                    word = delta.generator_word(f, m)
                    deltas = [i for kind, i in word if kind == "delta"]
                    sigmas = [i for kind, i in word if kind == "sigma"]
                    assert word[: len(deltas)] == [("delta", i) for i in deltas]
                    assert all(a > b for a, b in zip(deltas, deltas[1:]))
                    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))

    def test_roundtrip_up_to_rank_5(self):
        for n in range(6):
            for m in range(6):
                for f in monotone_tuples(n + 1, m):
                    word = delta.generator_word(f, m)
                    assert evaluate_word(word, n) == f
                    assert n + sum(1 if kind == "delta" else -1 for kind, _ in word) == m


class TestEnumeration:
    def test_unique_active_from_the_interval(self):
        for m in range(6):
            assert delta.active_values(1, m) == [(0, m)]

    def test_inert_offsets(self):
        assert inert_values(1, 2) == [(0, 1), (1, 2)] and inert_values(3, 2) == []

    def test_active_compositions_count(self):
        assert delta.active_values(2, 2) == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]

    def test_cardinalities_match_closed_forms(self):
        for n in range(6):
            for k in range(6):
                assert len(inert_tuples(n, k)) == max(k - n + 1, 0)
                for m in range(6):
                    family = list(delta.active_inert_squares(n, k, m))
                    assert len(family) == max(k - n + 1, 0) * delta.count_active(n, m)
        for n in range(1, 6):
            for m in range(6):
                assert len(delta.active_values(n, m)) == math.comb(m + n - 1, n - 1)

    def test_enumerations_complete_and_duplicate_free(self):
        for n, m in product(range(4), range(5)):
            for got, brute in (
                (delta.active_values(n, m), active_tuples(n, m)),
                (inert_values(n, m), inert_tuples(n, m)),
            ):
                assert len(set(got)) == len(got) and set(got) == set(brute)

    def test_lexicographic_order(self):
        for n, m in product(range(1, 4), range(4)):
            assert delta.active_values(n, m) == sorted(delta.active_values(n, m))
