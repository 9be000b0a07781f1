"""Simplex-category core: generators, factorization, pushouts, enumeration.

The pushout/pullback tests check universal properties against oracles
that use only the defining equations (pointwise determination plus
monotone completion), never the closed-form construction.
"""

import math
from itertools import product

import pytest

from decompspace import delta
from decompspace.delta import SimplexMap
from oracles import all_maps, assert_pullback, assert_pushout, factorization_buckets


class TestGenerators:
    def test_coface_formula_cases(self):
        assert delta.coface(2, 1).values == (0, 2)
        assert delta.coface(1, 0).values == (1,)
        assert delta.coface(3, 3).values == (0, 1, 2)

    def test_coface_omits_exactly_i(self):
        for n in range(1, 6):
            for i in range(n + 1):
                f = delta.coface(n, i)
                assert set(f.values) == set(range(n + 1)) - {i}

    def test_coface_range_errors(self):
        with pytest.raises(ValueError):
            delta.coface(2, 3)
        with pytest.raises(ValueError):
            delta.coface(2, -1)

    def test_codegeneracy_formula_cases(self):
        assert delta.codegeneracy(1, 0).values == (0, 0, 1)
        assert delta.codegeneracy(0, 0).values == (0, 0)
        assert delta.codegeneracy(2, 2).values == (0, 1, 2, 2)

    def test_codegeneracy_doubles_exactly_i(self):
        for n in range(5):
            for i in range(n + 1):
                f = delta.codegeneracy(n, i)
                hits = [k for k in range(n + 2) if f.values[k] == i]
                assert len(hits) == 2

    def test_codegeneracy_range_errors(self):
        with pytest.raises(ValueError):
            delta.codegeneracy(2, 3)

    def test_simplex_map_invariants(self):
        with pytest.raises(ValueError):
            SimplexMap(1, 2, (2, 1))
        with pytest.raises(ValueError):
            SimplexMap(1, 2, (0, 3))
        with pytest.raises(ValueError):
            SimplexMap(2, 2, (0, 1))


class TestCompose:
    def test_pointwise_example(self):
        got = delta.compose(delta.coface(2, 1), delta.coface(1, 0))
        assert (got.source_rank, got.target_rank, got.values) == (0, 2, (2,))

    def test_identity_law(self):
        for f in all_maps(2, 3):
            assert delta.compose(delta.identity(3), f) == f
            assert delta.compose(f, delta.identity(2)) == f

    def test_simplicial_identity_case(self):
        got = delta.compose(delta.codegeneracy(1, 0), delta.coface(2, 1))
        assert got == delta.identity(1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            delta.compose(delta.coface(3, 0), delta.coface(1, 0))

    def test_all_generator_relations_up_to_rank_5(self):
        # the three identity families, written covariantly
        for n in range(2, 6):
            for j in range(n + 1):
                for i in range(j):
                    # delta^j o delta^i = delta^i o delta^{j-1} for i < j
                    lhs = delta.compose(delta.coface(n, j), delta.coface(n - 1, i))
                    rhs = delta.compose(delta.coface(n, i), delta.coface(n - 1, j - 1))
                    assert lhs == rhs
        for n in range(5):
            for j in range(n + 1):
                for i in range(j + 1):
                    # sigma^j o sigma^i = sigma^i o sigma^{j+1} for i <= j
                    lhs = delta.compose(delta.codegeneracy(n, j), delta.codegeneracy(n + 1, i))
                    rhs = delta.compose(delta.codegeneracy(n, i), delta.codegeneracy(n + 1, j + 1))
                    assert lhs == rhs
        for n in range(1, 5):
            for j in range(n):
                for i in range(n + 1):
                    # sigma^j o delta^i, three cases
                    got = delta.compose(delta.codegeneracy(n - 1, j), delta.coface(n, i))
                    if i < j:
                        expected = delta.compose(delta.coface(n - 1, i), delta.codegeneracy(n - 2, j - 1))
                    elif i in (j, j + 1):
                        expected = delta.identity(n - 1)
                    else:
                        expected = delta.compose(delta.coface(n - 1, i - 1), delta.codegeneracy(n - 2, j))
                    assert got == expected


class TestClassify:
    def test_inner_coface_active(self):
        assert delta.classify(delta.coface(2, 1)) == "active"

    def test_outer_coface_inert(self):
        assert delta.classify(delta.coface(2, 0)) == "inert"
        assert delta.classify(delta.coface(2, 2)) == "inert"

    def test_identity_both(self):
        for n in range(4):
            assert delta.classify(delta.identity(n)) == "both"

    def test_neither(self):
        assert delta.classify(SimplexMap(1, 3, (1, 3))) == "neither"

    def test_codegeneracies_active(self):
        for n in range(4):
            for i in range(n + 1):
                assert delta.is_active(delta.codegeneracy(n, i))

    def test_subcategory_closure(self):
        for n, j, m in product(range(3), range(4), range(4)):
            for f in all_maps(n, j):
                for g in all_maps(j, m):
                    h = delta.compose(g, f)
                    if delta.is_active(f) and delta.is_active(g):
                        assert delta.is_active(h)
                    if delta.is_inert(f) and delta.is_inert(g):
                        assert delta.is_inert(h)


class TestFactorization:
    def test_offset_example(self):
        active, inert = delta.factor_active_inert(SimplexMap(1, 3, (1, 2)))
        assert active == SimplexMap(1, 1, (0, 1))
        assert inert == SimplexMap(1, 3, (1, 2))

    def test_active_input_forces_identity_inert(self):
        f = SimplexMap(2, 2, (0, 0, 2))
        active, inert = delta.factor_active_inert(f)
        assert active == f and inert == delta.identity(2)

    def test_inert_input_forces_identity_active(self):
        f = delta.inert_map(1, 3, 2)
        active, inert = delta.factor_active_inert(f)
        assert active == delta.identity(1) and inert == f

    def test_roundtrip_and_classes_up_to_rank_6(self):
        for n in range(5):
            for m in range(7):
                for f in all_maps(n, m):
                    active, inert = delta.factor_active_inert(f)
                    assert delta.is_active(active)
                    assert delta.is_inert(inert)
                    assert delta.compose(inert, active) == f

    def test_uniqueness_exhaustive_rank_6(self):
        # bucket every (active, inert) composite; each bucket must be a
        # singleton agreeing with factor_active_inert
        buckets = factorization_buckets(6)
        for f, pairs in buckets.items():
            assert len(pairs) == 1, f"{f!r} has {len(pairs)} active-inert factorizations"
            assert delta.factor_active_inert(f) == pairs[0]
        # every map of ranks <= 6 appears
        for n in range(7):
            for m in range(7):
                for f in all_maps(n, m):
                    assert f in buckets


class TestPushout:
    def test_identity_active_gives_back_iota(self):
        iota = delta.inert_map(2, 4, 1)
        theta, phi = delta.active_inert_pushout(delta.identity(2), iota)
        assert theta == iota
        assert phi == delta.identity(4)

    def test_collapse_example_certified(self):
        # pushing sigma^0 out along delta^0 collapses the shifted edge
        alpha = delta.codegeneracy(0, 0)
        iota = delta.coface(2, 0)
        theta, phi = delta.active_inert_pushout(alpha, iota)
        assert theta == delta.coface(1, 0)
        assert phi == SimplexMap(2, 1, (0, 1, 1))
        assert_pushout(alpha, iota, theta, phi, max_cocone_rank=6)
        assert_pullback(alpha, iota, theta, phi, max_cone_rank=6)

    def test_face_example_certified(self):
        alpha = delta.coface(2, 1)
        iota = delta.coface(2, 2)
        theta, phi = delta.active_inert_pushout(alpha, iota)
        assert theta == delta.inert_map(2, 3, 0)
        assert phi == SimplexMap(2, 3, (0, 2, 3))
        assert_pushout(alpha, iota, theta, phi, max_cocone_rank=6)
        assert_pullback(alpha, iota, theta, phi, max_cone_rank=6)

    def test_class_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delta.active_inert_pushout(delta.coface(2, 0), delta.coface(2, 0))
        with pytest.raises(ValueError):
            delta.active_inert_pushout(delta.coface(2, 1), delta.coface(2, 1))

    def test_universal_properties_exhaustive_rank_4(self):
        for n in range(5):
            for k in range(n, 5):
                for iota in delta.enumerate_inert(n, k):
                    for m in range(5):
                        for alpha in delta.enumerate_active(n, m):
                            theta, phi = delta.active_inert_pushout(alpha, iota)
                            assert delta.is_inert(theta)
                            assert delta.is_active(phi)
                            assert theta.target_rank == k - n + m
                            assert_pushout(alpha, iota, theta, phi, max_cocone_rank=3)

    def test_pullback_property_exhaustive_rank_4_cones_to_8(self):
        for n in range(5):
            for k in range(n, 5):
                for iota in delta.enumerate_inert(n, k):
                    for m in range(5):
                        for alpha in delta.enumerate_active(n, m):
                            theta, phi = delta.active_inert_pushout(alpha, iota)
                            assert_pullback(alpha, iota, theta, phi, max_cone_rank=8)


class TestValueTupleKernel:
    def test_square_family_matches_simplex_maps_in_walk_order(self):
        # the value-tuple family the checkers walk, against the SimplexMap
        # functions square by square, and every square commutes
        for n in range(8):
            for k in range(n, 8):
                for m in range(8):
                    expected = []
                    for iota in delta.enumerate_inert(n, k):
                        for alpha in delta.enumerate_active(n, m):
                            theta, phi = delta.active_inert_pushout(alpha, iota)
                            expected.append(
                                (alpha.values, iota.values, theta.values, phi.values)
                            )
                    family = list(delta.active_inert_squares(n, k, m))
                    assert family == expected, (n, k, m)
                    for alpha, iota, theta, phi in family:
                        assert [theta[v] for v in alpha] == [phi[v] for v in iota]

    def test_active_values_are_the_active_maps_in_order(self):
        for n in range(6):
            for m in range(6):
                brute = [f.values for f in all_maps(n, m) if delta.is_active(f)]
                assert delta.active_values(n, m) == brute


class TestGeneratorDecomposition:
    def test_identity_is_empty_word(self):
        assert delta.generator_decomposition(delta.identity(3)) == []

    def test_single_codegeneracy(self):
        f = SimplexMap(2, 1, (0, 0, 1))
        assert delta.generator_decomposition(f) == [("sigma", 0)]

    def test_two_cofaces_decreasing(self):
        f = SimplexMap(1, 3, (0, 2))
        word = delta.generator_decomposition(f)
        assert word == [("delta", 3), ("delta", 1)]
        assert delta.evaluate_word(word, 1) == f

    def test_canonical_order(self):
        for n in range(5):
            for m in range(5):
                for f in all_maps(n, m):
                    word = delta.generator_decomposition(f)
                    deltas = [i for kind, i in word if kind == "delta"]
                    sigmas = [i for kind, i in word if kind == "sigma"]
                    assert word[: len(deltas)] == [("delta", i) for i in deltas]
                    assert all(a > b for a, b in zip(deltas, deltas[1:]))
                    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))

    def test_roundtrip_up_to_rank_5(self):
        for n in range(6):
            for m in range(6):
                for f in all_maps(n, m):
                    word = delta.generator_decomposition(f)
                    assert delta.evaluate_word(word, n) == f


class TestEnumeration:
    def test_unique_active_from_the_interval(self):
        for m in range(6):
            maps = delta.enumerate_active(1, m)
            assert len(maps) == 1
            assert maps[0].values == (0, m)

    def test_inert_offsets(self):
        maps = delta.enumerate_inert(1, 2)
        assert [f.values for f in maps] == [(0, 1), (1, 2)]
        assert delta.enumerate_inert(3, 2) == []

    def test_active_compositions_count(self):
        maps = delta.enumerate_active(2, 2)
        assert [delta.active_to_composition(f) for f in maps] == [(0, 2), (1, 1), (2, 0)]

    def test_cardinalities_match_closed_forms(self):
        for n in range(6):
            for k in range(6):
                assert len(delta.enumerate_inert(n, k)) == max(k - n + 1, 0)
        for n in range(1, 6):
            for m in range(6):
                assert len(delta.enumerate_active(n, m)) == math.comb(m + n - 1, n - 1)

    def test_enumerations_complete_and_duplicate_free(self):
        for n in range(4):
            for m in range(5):
                active = delta.enumerate_active(n, m)
                assert len(set(active)) == len(active)
                brute = [f for f in all_maps(n, m) if delta.is_active(f)]
                assert set(active) == set(brute)
                inert = delta.enumerate_inert(n, m)
                brute = [f for f in all_maps(n, m) if delta.is_inert(f)]
                assert set(inert) == set(brute)

    def test_lexicographic_order(self):
        for n in range(1, 4):
            for m in range(4):
                vals = [f.values for f in delta.enumerate_active(n, m)]
                assert vals == sorted(vals)


class TestCompositionBijection:
    def test_roundtrip(self):
        for k in range(5):
            for m in range(5):
                for alpha in delta.enumerate_active(k, m):
                    parts = delta.active_to_composition(alpha)
                    assert sum(parts) == m
                    assert delta.composition_to_active(parts) == alpha

    def test_rejects_inert(self):
        with pytest.raises(ValueError):
            delta.active_to_composition(delta.coface(2, 0))


class TestOpposite:
    def test_involution(self):
        for n in range(4):
            for m in range(4):
                for f in all_maps(n, m):
                    assert delta.opposite_map(delta.opposite_map(f)) == f

    def test_swaps_outer_cofaces(self):
        assert delta.opposite_map(delta.coface(2, 0)) == delta.coface(2, 2)

    def test_functorial(self):
        for f in all_maps(2, 3):
            for g in all_maps(3, 2):
                lhs = delta.opposite_map(delta.compose(g, f))
                rhs = delta.compose(delta.opposite_map(g), delta.opposite_map(f))
                assert lhs == rhs
