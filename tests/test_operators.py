"""Decalage, edgewise subdivision, their comparison maps, and the
path-space / edgewise criteria run across the corpus."""

import pytest

from corpus import (
    arrow_category,
    chain_category,
    corpus,
    opposite_category,
    point,
    z2_category,
)
from decompspace import builders, criteria, operators, serialize
from decompspace.sset import (
    LevelError,
    compose_tables,
    opposite,
    table_names,
    truncate,
    validate,
    validate_map,
)
from oracles import reference_dec_bot


def words_ab2(level):
    return builders.free_decomposition(builders.bounded_words(("a", "b"), 2), level)


class TestDecTop:
    def test_point_drops_one_level(self):
        Y, proj = operators.dec_top(point(2))
        assert Y.level == 1 and Y == point(1)
        assert validate_map(proj).holds

    def test_cells_are_shifted_chains(self):
        X = builders.nerve(chain_category(3), 4)
        Y, _ = operators.dec_top(X)
        for n in range(Y.level + 1):
            assert Y.cells[n] == X.cells[n + 1]

    def test_output_validates_across_corpus(self):
        for inst in corpus():
            Y, proj = operators.dec_top(inst.X)
            assert validate(Y).holds, inst.name
            assert validate_map(proj).holds, inst.name

    def test_level_zero_rejected(self):
        with pytest.raises(LevelError):
            operators.dec_top(point(0))


class TestDecBot:
    def test_point(self):
        Y, proj = operators.dec_bot(point(3))
        assert Y == point(2)
        assert validate_map(proj).holds

    def test_duality_law(self):
        # dec_bot is built as the dual of dec_top, so this holds by
        # construction; test_matches_direct_reference covers dec_bot
        for X in (
            builders.nerve(arrow_category(), 3),
            words_ab2(4),
            builders.nerve(z2_category(), 4),
        ):
            lhs = opposite(operators.dec_top(X)[0])
            rhs = operators.dec_bot(opposite(X))[0]
            assert lhs == rhs

    def test_matches_direct_reference(self):
        for inst in corpus():
            Y, proj = operators.dec_bot(inst.X)
            ref_Y, ref_proj = reference_dec_bot(inst.X)
            assert serialize.dumps(serialize.sset_to_obj(Y)) == serialize.dumps(
                serialize.sset_to_obj(ref_Y)
            ), inst.name
            assert serialize.dumps(serialize.smap_to_obj(proj)) == serialize.dumps(
                serialize.smap_to_obj(ref_proj)
            ), inst.name
            assert proj.source is Y and proj.target is inst.X

    def test_level_zero_rejected(self):
        with pytest.raises(LevelError, match="decalage needs level >= 1"):
            operators.dec_bot(point(0))

    def test_bottom_decalage_of_words_is_segal(self):
        Y, _ = operators.dec_bot(words_ab2(4))
        assert criteria.check_segal(Y).holds

    def test_output_validates_across_corpus(self):
        for inst in corpus():
            Y, proj = operators.dec_bot(inst.X)
            assert validate(Y).holds, inst.name
            assert validate_map(proj).holds, inst.name


class TestSd:
    def test_point(self):
        assert operators.sd(point(5)) == point(2)

    def test_level_formula(self):
        for level, expected in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]:
            assert operators.sd(point(level)).level == expected

    def test_validates_across_corpus(self):
        for inst in corpus():
            assert validate(operators.sd(inst.X)).holds, inst.name

    def test_sd_of_words_is_segal(self):
        assert criteria.check_segal(operators.sd(words_ab2(5))).holds

    def test_sd_invariant_under_opposite(self):
        for inst in corpus():
            assert operators.sd(inst.X) == operators.sd(opposite(inst.X)), inst.name

    def test_level_zero_rejected(self):
        with pytest.raises(LevelError):
            operators.sd(point(0))


class TestComparisonMaps:
    def test_level_zero_component_is_identity(self):
        X = builders.nerve(arrow_category(), 1)
        m = operators.map_decbot_to_sd(X)
        assert m.component_names(0) == {c: c for c in X.cells[1]}

    def test_level_one_component_is_bottom_degeneracy(self):
        X = builders.nerve(chain_category(3), 3)
        m = operators.map_decbot_to_sd(X)
        assert m.component_names(1) == X.degeneracy_names(2, 0)

    def test_level_one_component_of_top_variant(self):
        X = builders.nerve(chain_category(3), 3)
        m = operators.map_dectop_op_to_sd(X)
        assert m.component_names(1) == X.degeneracy_names(2, 2)

    def test_both_validate_on_nerve_of_chain(self):
        X = builders.nerve(chain_category(3), 5)
        assert validate_map(operators.map_decbot_to_sd(X)).holds
        assert validate_map(operators.map_dectop_op_to_sd(X)).holds

    def test_both_validate_across_corpus(self):
        for inst in corpus():
            assert validate_map(operators.map_decbot_to_sd(inst.X)).holds, inst.name
            assert validate_map(operators.map_dectop_op_to_sd(inst.X)).holds, inst.name


class TestPathSpaceCriterion:
    def test_upper_iff_top_decalage_segal(self):
        for inst in corpus():
            Y, _ = operators.dec_top(inst.X)
            assert (
                criteria.check_segal(Y).holds
                == criteria.check_upper_2segal(inst.X).holds
            ), inst.name

    def test_lower_iff_bottom_decalage_segal(self):
        for inst in corpus():
            Y, _ = operators.dec_bot(inst.X)
            assert (
                criteria.check_segal(Y).holds
                == criteria.check_lower_2segal(inst.X).holds
            ), inst.name

    def test_decomposition_iff_both_decalages_segal(self):
        for inst in corpus():
            top, _ = operators.dec_top(inst.X)
            bot, _ = operators.dec_bot(inst.X)
            both = criteria.check_segal(top).holds and criteria.check_segal(bot).holds
            assert both == criteria.check_decomposition(inst.X).holds, inst.name


class TestEdgewiseCriterion:
    def test_depth_qualified_equivalence_across_corpus(self):
        # sd reads levels up to 2*sd_level + 1 but certifies the
        # 2-Segal squares only up to sd_level + 1, so compare at that
        # depth; at sd_level 1 that is level 2, where the 2-Segal squares
        # are vacuous and check_decomposition decides the unit squares,
        # which a Segal sd of level 1 says nothing about
        for inst in corpus():
            Z = operators.sd(inst.X)
            lhs = criteria.check_segal(Z).holds
            T = truncate(inst.X, Z.level + 1)
            upper = criteria.check_upper_2segal(T).holds
            assert lhs == (upper and criteria.check_lower_2segal(T).holds), inst.name

    def test_full_depth_equivalence_at_level_5(self):
        for inst in corpus():
            if inst.X.level < 5:
                continue
            lhs = criteria.check_segal(operators.sd(inst.X)).holds
            rhs = criteria.check_decomposition(inst.X).holds
            assert lhs == rhs, inst.name


class TestCulfProjections:
    def test_projections_culf_on_decomposition_spaces(self):
        for inst in corpus():
            if not criteria.check_decomposition(inst.X).holds:
                continue
            _, proj_top = operators.dec_top(inst.X)
            _, proj_bot = operators.dec_bot(inst.X)
            assert criteria.check_culf(proj_top).holds, inst.name
            assert criteria.check_culf(proj_bot).holds, inst.name

    def test_projection_can_fail_culf_elsewhere(self):
        from corpus import collapsed_triangle

        X = collapsed_triangle(3)
        _, proj_top = operators.dec_top(X)
        _, proj_bot = operators.dec_bot(X)
        assert not (
            criteria.check_culf(proj_top).holds and criteria.check_culf(proj_bot).holds
        )


class TestRetractIdentities:
    def test_composite_identities_up_to_n3(self):
        # d_1^n s_0^n = id = d_0 d_2^{n-1} s_0^n on X_{n+1}
        instances = [
            builders.nerve(arrow_category(), 7),
            builders.nerve(z2_category(), 7),
        ] + [inst.X for inst in corpus()]
        for X in instances:
            for n in range(1, 4):
                if 2 * n + 1 > X.level:
                    continue
                s_word = [X.degeneracies[(lvl, 0)] for lvl in range(n + 1, 2 * n + 1)]
                d1_word = [X.faces[(lvl, 1)] for lvl in range(2 * n + 1, n + 1, -1)]
                d2_word = [X.faces[(lvl, 2)] for lvl in range(2 * n + 1, n + 2, -1)]
                down_inner = compose_tables(*(s_word + d1_word))
                down_outer = compose_tables(*(s_word + d2_word + [X.faces[(n + 2, 0)]]))
                ident = {c: c for c in X.cells[n + 1]}
                cells = X.cells[n + 1]
                assert table_names(down_inner, cells, cells) == ident
                assert table_names(down_outer, cells, cells) == ident
