"""Criterion checkers: frozen examples, witnesses, and the structural
equivalences run across the corpus."""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    arrow_category,
    chain_category,
    collapsed_triangle,
    corpus,
    one_sided_upper,
    point,
    short_words_pmonoid,
    sset_from_generators,
    trivial_pmonoid,
)
from decompspace import builders, criteria, operators
from decompspace.sset import (
    SimplicialMap,
    StructuralError,
    TruncatedSSet,
    opposite,
    validate,
)
from oracles import identity_map, induced_names, pullback_by_names


def zeroed_face_nerve():
    """The nerve of [2] at level 3 with d_0 at level 2 sent to cell 0: a
    table in range that breaks d_0 d_1 = d_0 d_0."""
    X = builders.nerve(chain_category(2), 3)
    faces = {**X.faces, (2, 0): (0,) * len(X.cells[2])}
    return TruncatedSSet(3, X.cells, faces, X.degeneracies)


def with_table(X, kind, key, table):
    faces, degeneracies = dict(X.faces), dict(X.degeneracies)
    (faces if kind == "d" else degeneracies)[key] = table
    return TruncatedSSet(X.level, X.cells, faces, degeneracies)


def culf_maps():
    """Valid maps whose two ends differ: decalage projections and length maps."""
    return [
        operators.dec_top(builders.nerve(chain_category(2), 3))[1],
        operators.dec_bot(builders.from_partial_monoid(short_words_pmonoid(2), 3))[1],
        builders.length_map(builders.bounded_words(("a", "b"), 2), 3),
    ]


CULF_MAPS = culf_maps()


@st.composite
def broken_end(draw):
    """A valid map with one entry of one table of its source or target
    moved to another cell, so that the end breaks an identity."""
    f = draw(st.sampled_from(CULF_MAPS))
    what = draw(st.sampled_from(["source", "target"]))
    end = getattr(f, what)
    tables = [
        (kind, key, table, size)
        for kind, group, step in (("d", end.faces, -1), ("s", end.degeneracies, 1))
        for key, table in sorted(group.items())
        for size in [len(end.cells[key[0] + step])]
        if table and size > 1
    ]
    kind, key, table, size = draw(st.sampled_from(tables))
    j = draw(st.integers(0, len(table) - 1))
    value = draw(st.integers(0, size - 1).filter(lambda v: v != table[j]))
    broken = with_table(end, kind, key, table[:j] + (value,) + table[j + 1 :])
    report = validate(broken)
    assume(not report.holds)
    ends = {"source": f.source, "target": f.target, what: broken}
    return SimplicialMap(ends["source"], ends["target"], f.components), what, report


def words_ab2(level):
    return builders.free_decomposition(builders.bounded_words(("a", "b"), 2), level)


def words_a1(level):
    return builders.free_decomposition(builders.bounded_words(("a",), 1), level)


class TestSegal:
    def test_nerve_holds(self):
        X = builders.nerve(chain_category(3), 4)
        report = criteria.check_segal(X)
        assert report.holds and report.squares_checked == 3

    def test_bounded_words_fail(self):
        report = criteria.check_segal(words_a1(3))
        assert not report.holds

    def test_point_holds(self):
        assert criteria.check_segal(point(3)).holds

    def test_level_zero_vacuous(self):
        X = point(0)
        for check in (
            criteria.check_segal,
            criteria.check_segal_iterated,
            criteria.check_upper_2segal,
            criteria.check_lower_2segal,
            criteria.check_decomposition,
            criteria.check_2segal_polygonal,
        ):
            report = check(X)
            assert report.holds and report.squares_checked == 0

    def test_witness_at_level_two_for_words(self):
        report = criteria.check_segal(words_ab2(3))
        assert not report.holds
        assert max(report.witness.levels) == 2
        assert report.witness.preimage_count == 0

    def test_unvalidated_input_rejected(self):
        X = point(2)
        faces = dict(X.faces)
        faces[(2, 0)] = {"*": "*"}
        faces[(2, 1)] = {"*": "*"}
        bad = TruncatedSSet(2, (("*",), ("*",), ("*", "ghost")), {}, {})
        with pytest.raises(StructuralError):
            criteria.check_segal(bad)


class TestSegalIterated:
    def test_nerve_arrow_holds(self):
        assert criteria.check_segal_iterated(builders.nerve(arrow_category(), 3)).holds

    def test_words_fail_with_cardinality_gap(self):
        X = words_ab2(2)
        assert len(X.cells[2]) == 17
        report = criteria.check_segal_iterated(X)
        assert not report.holds
        # fiber product has 7 * 7 = 49 members, so some pair is missed
        assert report.witness.preimage_count == 0
        assert len(report.witness.element) == 2

    def test_degenerate_singleton(self):
        assert criteria.check_segal_iterated(point(2)).holds

    def test_agrees_with_square_form_on_corpus(self):
        for inst in corpus():
            lhs = criteria.check_segal(inst.X).holds
            rhs = criteria.check_segal_iterated(inst.X).holds
            assert lhs == rhs, inst.name

    def test_deep_levels_need_no_recursion(self):
        # free_decomposition lists part lists and check_segal_iterated
        # walks chains of edges without recursing once per level: level
        # 150 runs within 100 frames of the caller
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            A = builders.terminal_complex(0)
            X = builders.free_decomposition(A, 150)
            lmap = builders.length_map(A, 150)
            report = criteria.check_segal_iterated(lmap.source)
        finally:
            sys.setrecursionlimit(limit)
        assert lmap.source == X and len(X.cells[150]) == 1
        assert report.holds and report.squares_checked == 149


class TestTwoSegal:
    def test_partial_monoids_hold_both(self):
        for M in (trivial_pmonoid(), short_words_pmonoid(2)):
            X = builders.from_partial_monoid(M, 4)
            assert criteria.check_upper_2segal(X).holds
            assert criteria.check_lower_2segal(X).holds

    def test_nerve_holds_both(self):
        X = builders.nerve(chain_category(3), 4)
        assert criteria.check_upper_2segal(X).holds
        assert criteria.check_lower_2segal(X).holds

    def test_collapsed_triangle_fails_with_smallest_witness(self):
        X = collapsed_triangle(3)
        report = criteria.check_upper_2segal(X)
        assert not report.holds
        assert "n=2 i=1" in report.witness.square
        assert report.witness.levels == (3, 2, 2, 1)
        assert criteria.check_lower_2segal(X).holds is False

    def test_one_sided_instance(self):
        X = one_sided_upper(3)
        assert criteria.check_upper_2segal(X).holds
        assert not criteria.check_lower_2segal(X).holds

    def test_duality_across_corpus(self):
        for inst in corpus():
            lhs = criteria.check_lower_2segal(inst.X).holds
            rhs = criteria.check_upper_2segal(opposite(inst.X)).holds
            assert lhs == rhs, inst.name


class TestReducedChecker:
    def test_agrees_on_nerve_of_chain(self):
        X = builders.nerve(chain_category(3), 4)
        assert (
            criteria.check_upper_2segal_reduced(X).holds
            == criteria.check_upper_2segal(X).holds
        )

    def test_agrees_on_words(self):
        X = words_ab2(3)
        assert (
            criteria.check_upper_2segal_reduced(X).holds
            == criteria.check_upper_2segal(X).holds
        )

    def test_point_zero_squares_at_low_level(self):
        report = criteria.check_upper_2segal_reduced(point(1))
        assert report.holds and report.squares_checked == 0

    def test_agrees_across_corpus(self):
        for inst in corpus():
            assert (
                criteria.check_upper_2segal_reduced(inst.X).holds
                == criteria.check_upper_2segal(inst.X).holds
            ), inst.name


class TestPolygonal:
    def test_equivalence_with_upper_and_lower_across_corpus(self):
        for inst in corpus():
            full = criteria.check_2segal_polygonal(inst.X).holds
            both = (
                criteria.check_upper_2segal(inst.X).holds
                and criteria.check_lower_2segal(inst.X).holds
            )
            assert full == both, inst.name

    def test_collapse_leg_square_on_nerve(self):
        X = builders.nerve(arrow_category(), 2)
        report = criteria.check_2segal_polygonal(X)
        assert report.holds

    def test_restricted_agrees_with_full_on_words(self):
        X = words_ab2(3)
        assert (
            criteria.check_2segal_polygonal(X, mode="restricted").holds
            == criteria.check_2segal_polygonal(X).holds
        )

    def test_restricted_agrees_with_full_across_corpus(self):
        for inst in corpus():
            assert (
                criteria.check_2segal_polygonal(inst.X, mode="restricted").holds
                == criteria.check_2segal_polygonal(inst.X).holds
            ), inst.name

    def test_halves_match_upper_and_lower(self):
        for X in (one_sided_upper(3), opposite(one_sided_upper(3)), words_ab2(3)):
            assert (
                criteria.check_2segal_polygonal(X, mode="upper").holds
                == criteria.check_upper_2segal(X).holds
            )
            assert (
                criteria.check_2segal_polygonal(X, mode="lower").holds
                == criteria.check_lower_2segal(X).holds
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            criteria.check_2segal_polygonal(point(1), mode="sideways")


class TestDecomposition:
    def test_words_hold(self):
        for n_max in (1, 2):
            X = builders.free_decomposition(
                builders.bounded_words(("a",), n_max), 3
            )
            assert criteria.check_decomposition(X).holds

    def test_nerve_holds(self):
        assert criteria.check_decomposition(builders.nerve(chain_category(3), 4)).holds

    def test_collapsed_triangle_fails(self):
        report = criteria.check_decomposition(collapsed_triangle(3))
        assert not report.holds
        assert report.witness is not None

    def test_unit_squares_decided_at_level_2(self):
        # a loop f and a triangle with faces (f, f, s_0 v): the 2-Segal
        # squares need X_3, but the unit square of alpha=(0, 0) along
        # iota=(0, 1) fails, as it does in the direct walk
        X = sset_from_generators(
            {
                "v": (0, []),
                "f": (1, [("v", (0,)), ("v", (0,))]),
                "t": (2, [("f", (0, 1)), ("f", (0, 1)), ("v", (0, 0))]),
            },
            2,
        )
        assert criteria.check_upper_2segal(X).holds
        assert criteria.check_lower_2segal(X).holds
        report = criteria.check_decomposition(X)
        direct = criteria.check_decomposition_direct(X)
        assert not report.holds and report.squares_checked == 1
        assert report.witness == direct.witness
        assert report.witness.square.startswith("active-inert alpha=(0, 0) iota=(0, 1)")

    def test_level_2_counts_the_two_unit_squares(self):
        report = criteria.check_decomposition(builders.nerve(chain_category(3), 2))
        assert report.holds and report.squares_checked == 2


class TestDecompositionDirect:
    def test_degeneracy_square_instance(self):
        # the sigma^0 / delta^0 pushout at n = 1 induces the square
        # pairing d_bot with a bottom degeneracy; spot-check it directly
        X = builders.nerve(chain_category(3), 3)
        from decompspace import delta

        theta, phi = delta.pushout_values((0, 0), 1, 2)
        report = pullback_by_names(
            induced_names(X, 1, phi),
            induced_names(X, 1, theta),
            induced_names(X, 2, (1, 2)),
            induced_names(X, 0, (0, 0)),
        )
        assert report.holds
        # and the whole family passes on a decomposition space
        assert criteria.check_decomposition_direct(X, rank_cap=2).holds

    def test_agreement_with_conjunction_on_words(self):
        X = words_ab2(3)
        direct = criteria.check_decomposition_direct(X, rank_cap=3)
        assert direct.holds == criteria.check_decomposition(X).holds

    def test_identity_alpha_squares_trivial(self):
        X = point(2)
        assert criteria.check_decomposition_direct(X, rank_cap=2).holds

    def test_rank_cap_above_level_rejected(self):
        from decompspace.sset import LevelError

        with pytest.raises(LevelError):
            criteria.check_decomposition_direct(point(2), rank_cap=3)

    def test_budget_cutoff_reported(self):
        X = words_ab2(3)
        report = criteria.check_decomposition_direct(X, max_squares=5)
        assert report.squares_checked == 5
        assert "budget" in report.detail

    def test_fails_on_collapsed_triangle(self):
        report = criteria.check_decomposition_direct(collapsed_triangle(3))
        assert not report.holds

    def test_unitality_equivalence_across_corpus(self):
        for inst in corpus():
            direct = criteria.check_decomposition_direct(inst.X).holds
            both = (
                criteria.check_upper_2segal(inst.X).holds
                and criteria.check_lower_2segal(inst.X).holds
            )
            assert direct == both, inst.name


class TestSegalImpliesDecomposition:
    def test_across_corpus(self):
        for inst in corpus():
            if criteria.check_segal(inst.X).holds:
                assert criteria.check_decomposition(inst.X).holds, inst.name

    def test_characterization_single_extra_square(self):
        for inst in corpus():
            if inst.X.level < 3:
                continue
            X = inst.X
            segal = criteria.check_segal(X).holds
            dec = criteria.check_decomposition(X).holds
            extra = pullback_by_names(
                X.face_names(2, 0),
                X.face_names(2, 2),
                X.face_names(1, 1),
                X.face_names(1, 0),
            ).holds
            assert segal == (dec and extra), inst.name


class TestDegeneracySquares:
    def test_bottom_degeneracy_squares_on_upper_2segal_instances(self):
        for inst in corpus():
            X = inst.X
            if not criteria.check_upper_2segal(X).holds:
                continue
            # X_{n+1} -(s_{i+1})-> X_{n+2} over d_bot, bottom s_i, n > 0
            for n in range(1, X.level - 1):
                for i in range(n + 1):
                    report = pullback_by_names(
                        X.degeneracy_names(n + 1, i + 1),
                        X.face_names(n + 1, 0),
                        X.face_names(n + 2, 0),
                        X.degeneracy_names(n, i),
                    )
                    assert report.holds, (inst.name, n, i)
            # and the n = 0 square certified through the retract argument
            if X.level >= 2:
                report = pullback_by_names(
                    X.degeneracy_names(1, 1),
                    X.face_names(1, 0),
                    X.face_names(2, 0),
                    X.degeneracy_names(0, 0),
                )
                assert report.holds, inst.name


class TestCulf:
    def test_identity_map_holds(self):
        X = builders.nerve(arrow_category(), 3)
        assert criteria.check_culf(identity_map(X)).holds

    def test_length_map_holds(self):
        lm = builders.length_map(builders.bounded_words(("a", "b"), 2), 3)
        assert criteria.check_culf(lm).holds

    def test_terminal_map_not_culf(self):
        from decompspace.sset import SimplicialMap

        X = builders.nerve(arrow_category(), 3)
        to_point = SimplicialMap.from_names(
            X, point(3), tuple({c: "*" for c in X.cells[n]} for n in range(4))
        )
        report = criteria.check_culf(to_point)
        assert not report.holds

    def test_invalid_source_rejected(self):
        # both ends are the same invalid sset; the source is checked first
        X = zeroed_face_nerve()
        with pytest.raises(StructuralError) as exc:
            criteria.check_culf(identity_map(X))
        assert str(exc.value) == (
            f"map source is not a simplicial set: {validate(X).detail}"
        )

    def test_malformed_target_named(self):
        f = builders.length_map(builders.bounded_words(("a",), 2), 3)
        target = with_table(f.target, "d", (2, 1), ())
        with pytest.raises(StructuralError) as exc:
            criteria.check_culf(SimplicialMap(f.source, target, f.components))
        size = len(target.cells[2])
        assert str(exc.value) == (
            f"map target: d_1 at level 2 is not a tuple of {size} indices"
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(broken_end())
    def test_broken_end_rejected(self, case):
        f, what, report = case
        with pytest.raises(StructuralError) as exc:
            criteria.check_culf(f)
        assert str(exc.value) == f"map {what} is not a simplicial set: {report.detail}"

    def test_invalid_map_rejected(self):
        X = builders.nerve(arrow_category(), 2)
        from decompspace.sset import SimplicialMap

        swap = {c: X.cells[1][0] for c in X.cells[1]}
        broken = SimplicialMap.from_names(
            X, X, ({c: c for c in X.cells[0]}, swap, {c: c for c in X.cells[2]})
        )
        with pytest.raises(StructuralError):
            criteria.check_culf(broken)
