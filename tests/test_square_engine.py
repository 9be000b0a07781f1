"""The square engine against its enumerate-everything references.

is_pullback_square decides by counting (pullback_holds) and enumerates
the fiber product only for a witness; the direct and polygonal walks
memoize induced maps per call and decide identity-leg squares without
fibers.  Every report
must equal the one the reference engine in oracles.py gives, witness
and all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import collapsed_triangle, corpus, point
from decompspace import builders, criteria, delta, sset
from decompspace.sset import StructuralError, is_pullback_square
from oracles import (
    pullback_by_names,
    reference_check_2segal_polygonal,
    reference_check_decomposition_direct,
    reference_is_pullback_square,
)

ENGINE = settings(max_examples=400, deadline=None, derandomize=True)


@st.composite
def squares(draw):
    """A small square A -> B, A -> C over B -> D <- C.

    A is a multiset of fiber-product pairs, each 0-2 times, so squares
    come out bijective, non-injective, short and over-full; sometimes
    one pair that need not commute is added, or the two projections get
    different domains.  Every key order is shuffled.
    """
    D = [f"d{i}" for i in range(draw(st.integers(0, 3)))]

    def leg(prefix):
        size = draw(st.integers(0, 4)) if D else 0
        names = draw(st.permutations([f"{prefix}{i}" for i in range(size)]))
        return {x: draw(st.sampled_from(D)) for x in names}

    p, q = leg("b"), leg("c")
    entries = []
    for b in p:
        for c in q:
            if p[b] == q[c]:
                entries += [(b, c)] * draw(st.integers(0, 2))
    if p and q and draw(st.booleans()):
        entries.append((draw(st.sampled_from(list(p))), draw(st.sampled_from(list(q)))))
    entries = draw(st.permutations(entries))
    names = draw(st.permutations([f"a{i}" for i in range(len(entries))]))
    f = {a: b for a, (b, _) in zip(names, entries)}
    g = {a: c for a, (_, c) in zip(names, entries)}
    g = {a: g[a] for a in draw(st.permutations(list(g)))}
    domain = draw(st.sampled_from(["same", "same", "same", "drop", "extra"]))
    if domain == "drop" and g:
        del g[next(iter(g))]
    elif domain == "extra" and q:
        g["a-extra"] = next(iter(q))
    return f, g, p, q


def outcome(engine, f, g, p, q):
    try:
        return engine(f, g, p, q, square="sq", levels=(2, 1, 1, 0))
    except StructuralError as exc:
        return ("StructuralError", str(exc))


class TestPullbackEngine:
    @ENGINE
    @given(squares())
    def test_matches_reference(self, square):
        assert outcome(pullback_by_names, *square) == outcome(
            reference_is_pullback_square, *square
        )

    def test_over_full_square_fails_on_first_doubled_pair(self):
        # |A| equals the fiber product's size, but one pair is hit twice
        p, q = {"b0": "d", "b1": "d"}, {"c0": "d"}
        f, g = {"a0": "b1", "a1": "b1"}, {"a0": "c0", "a1": "c0"}
        report = pullback_by_names(f, g, p, q)
        assert report == reference_is_pullback_square(f, g, p, q)
        assert report.witness.element == ("b0", "c0")
        assert report.witness.preimage_count == 0


class TestDirectWalk:
    @pytest.mark.parametrize("inst", corpus(), ids=lambda inst: inst.name)
    def test_matches_reference_on_corpus(self, inst):
        assert criteria.check_decomposition_direct(
            inst.X
        ) == reference_check_decomposition_direct(inst.X)

    def test_matches_reference_at_every_budget(self):
        X = collapsed_triangle(3)
        first_failure = reference_check_decomposition_direct(X).squares_checked
        for budget in range(first_failure + 3):
            assert criteria.check_decomposition_direct(
                X, max_squares=budget
            ) == reference_check_decomposition_direct(X, max_squares=budget), budget

    @pytest.mark.parametrize("kwargs", [{"rank_cap": -1}, {"max_squares": -1}])
    def test_negative_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError, match="negative"):
            criteria.check_decomposition_direct(point(2), **kwargs)

    def test_identity_leg_shortcut_scope(self, monkeypatch):
        # 426 squares at rank cap 4: 156 have an identity iota or alpha and
        # are decided without fibers; the 28 whose alpha is a degenerate
        # active map [n] -> [n], such as 0,0,2, are still checked.
        X = builders.free_decomposition(builders.bounded_words(("a", "b", "c"), 4), 6)
        current, decided, induced = [None], [], []
        active_inert_squares = delta.active_inert_squares

        def recording_squares(n, k, m):
            for square in active_inert_squares(n, k, m):
                current[0] = square[0]
                yield square

        def counting_holds(*legs):
            decided.append(current[0])
            return sset.pullback_holds(*legs)

        def counting_induce(X, target_rank, values):
            induced.append((target_rank, values))
            return sset.induce(X, target_rank, values)

        monkeypatch.setattr(delta, "active_inert_squares", recording_squares)
        monkeypatch.setattr(criteria, "pullback_holds", counting_holds)
        monkeypatch.setattr(criteria, "induce", counting_induce)
        report = criteria.check_decomposition_direct(X, rank_cap=4)
        assert report.holds and report.squares_checked == 426
        assert len(decided) == 270
        assert len(induced) == len(set(induced)) == 244
        degenerate_endos = [
            a for a in decided if a[-1] == len(a) - 1 and len(set(a)) < len(a)
        ]
        assert len(degenerate_endos) == 28


class TestPolygonalWalk:
    @pytest.mark.parametrize("mode", ["full", "restricted", "upper", "lower"])
    def test_matches_reference_on_corpus(self, mode):
        for inst in corpus():
            assert criteria.check_2segal_polygonal(
                inst.X, mode
            ) == reference_check_2segal_polygonal(inst.X, mode), inst.name
