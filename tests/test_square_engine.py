"""The square engine against its enumerate-everything references.

is_pullback_square decides by counting (pullback_holds) and enumerates
the fiber product only for a witness; the walks compose each induced
map once per call, from compiled plans, and decide identity-leg squares
without fibers; the direct checker settles its whole family from the
elementary squares where its rank cap allows, and the polygonal checker
from the 2-Segal squares; the 2-Segal checkers walk views of the
elementary and polygonal plans.  Every report must equal the one the
reference engine in oracles.py gives, witness and all; the 2-Segal
references read their squares off X's face tables, and the Segal,
iterated Segal and culf references name X's tables.
The Delta side of each family is planned and compiled once per process;
the plan tests interleave levels, rank caps, modes and instances from
cold caches, and check that no cache keeps a simplicial set alive.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    collapsed_triangle,
    corpus,
    doubled_degenerate_nerve,
    duplicate_top,
    point,
)
from decompspace import builders, criteria, delta, operators, sset
from decompspace.sset import (
    CheckReport,
    LevelError,
    StructuralError,
    TruncatedSSet,
    opposite,
    truncate,
)
from oracles import (
    identity_map,
    pullback_by_names,
    reference_check_2segal_polygonal,
    reference_check_culf,
    reference_check_decomposition,
    reference_check_decomposition_direct,
    reference_check_lower_2segal,
    reference_check_segal,
    reference_check_segal_iterated,
    reference_check_upper_2segal,
    reference_check_upper_2segal_reduced,
    reference_is_pullback_square,
    reference_polygonal_reports,
    walk_check_decomposition_direct,
)

ENGINE = settings(max_examples=400, deadline=None, derandomize=True)
MODES = ("full", "restricted", "upper", "lower")


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


def north_star():
    return builders.free_decomposition(builders.bounded_words(("a", "b", "c"), 4), 6)


def record_walk(monkeypatch):
    """Record what the checkers decide and compose, in three collections:
    the alpha of every square decided, in order; the table each map the
    legs of those squares read was given, keyed by (target_rank,
    values); and the tables the executor composed.

    The square families are planned and compiled once per process, so
    the recording wraps what runs on every call: the squares the
    executor criteria._pushout_squares draws, pullback_holds and _then.
    A map given two tables fails the recording, so clear the
    collections between calls."""
    current, decided, induced, composed = [None], [], {}, []
    pushout_squares = criteria._pushout_squares

    def recording(X, plan, label):
        slots, squares = plan

        def drawn():
            for square in squares:
                current[0] = square
                yield square

        return pushout_squares(X, (slots, drawn()), label)

    def counting_holds(*legs):
        alpha, iota, k, p = current[0][:4]
        decided.append(alpha)
        theta, phi = delta.pushout_values(alpha, iota[0], k)
        keys = ((p, phi), (p, theta), (k, iota), (alpha[-1], alpha))
        for key, table in zip(keys, legs):
            assert induced.setdefault(key, table) is table, key
        return sset.pullback_holds(*legs)

    def counting_then(first, second):
        composed.append(len(first))
        return sset._then(first, second)

    monkeypatch.setattr(criteria, "_pushout_squares", recording)
    monkeypatch.setattr(criteria, "pullback_holds", counting_holds)
    monkeypatch.setattr(criteria, "_then", counting_then)
    return decided, induced, composed


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
        # active map [n] -> [n], such as 0,0,2, are still checked.  Rank
        # cap 4 at level 6 is below the certificate's range, so every
        # square is walked.  The decided squares read 244 maps, each
        # given one table; their generator words share prefixes, so 233
        # tables are composed where composing each word on its own
        # takes 437.
        decided, induced, composed = record_walk(monkeypatch)
        report = criteria.check_decomposition_direct(north_star(), rank_cap=4)
        assert report.holds and report.squares_checked == 426
        assert len(decided) == 270
        assert len(induced) == 244
        assert len(composed) == 233
        degenerate_endos = [
            a for a in decided if a[-1] == len(a) - 1 and len(set(a)) < len(a)
        ]
        assert len(degenerate_endos) == 28


class TestPastingCertificate:
    def test_north_star_decides_only_elementary_squares(self, monkeypatch):
        # rank cap 6 at level 6: the 3,233 squares of the family are
        # settled by its 50 elementary squares, 30 with a codegeneracy
        # alpha and 20 with an inner coface, through 48 maps, each one
        # of X's own tables
        decided, induced, composed = record_walk(monkeypatch)
        report = criteria.check_decomposition_direct(north_star(), rank_cap=6)
        assert report.holds and report.squares_checked == 3233
        assert len(decided) == 50
        assert sum(a[-1] < len(a) - 1 for a in decided) == 30
        assert len(induced) == 48
        assert composed == []

    def test_failing_certificate_builds_no_witness(self, monkeypatch):
        # the direct and polygonal certificates fail on these instances;
        # only the walk after them builds a witness, the report's own
        calls = []

        def counting(*legs, **kwargs):
            calls.append(kwargs["square"])
            return sset.is_pullback_square(*legs, **kwargs)

        monkeypatch.setattr(criteria, "is_pullback_square", counting)
        failing = {"collapsed-triangle-L3", "collapsed-triangle-L5"}
        failing |= {"one-sided-upper-L3", "one-sided-lower-L3"}
        checks = criteria.check_decomposition_direct, criteria.check_2segal_polygonal
        for inst in (inst for inst in corpus() if inst.name in failing):
            for check in checks:
                calls.clear()
                report = check(inst.X)
                assert calls == [report.witness.square], (inst.name, check.__name__)

    @pytest.mark.parametrize("rank_cap, level", [(2, 4), (3, 5), (3, 6)])
    def test_rank_cap_rule_on_doubled_degenerate_nerve(self, rank_cap, level):
        # the elementary squares within rank cap R hold, but a square of
        # the family at rank cap R needs elementary squares above R; at
        # each rank cap, every budget up to the end of the walk and two
        # more
        X = doubled_degenerate_nerve(level)
        assert not reference_check_decomposition_direct(X, rank_cap).holds
        for cap in range(level + 1):
            full = reference_check_decomposition_direct(X, cap)
            assert criteria.check_decomposition_direct(X, cap) == full, cap
            assert walk_check_decomposition_direct(X, cap) == full, cap
            for budget in range(full.squares_checked + 3):
                assert criteria.check_decomposition_direct(
                    X, cap, budget
                ) == reference_check_decomposition_direct(X, cap, budget), (cap, budget)

    def test_perturbed_corpus_matches_walk(self):
        # every corpus instance truncated to levels 1-5, with a second copy
        # of one of its first 12 top cells, at every rank cap: 3,312 calls,
        # against the walk oracle, since the reference is several times
        # slower than the whole test
        for inst in corpus():
            for level in range(1, min(5, inst.X.level) + 1):
                T = truncate(inst.X, level)
                for j in range(min(12, len(T.cells[level]))):
                    X, tables = duplicate_top(T, j), {}
                    for cap in range(level + 1):
                        assert criteria.check_decomposition_direct(
                            X, cap
                        ) == walk_check_decomposition_direct(X, cap, tables=tables), (
                            inst.name,
                            level,
                            j,
                            cap,
                        )


class TestPolygonalWalk:
    def test_matches_reference_on_corpus(self):
        # every corpus instance truncated to each level from 3, and its
        # opposite, as they are and with a second copy of one of their
        # first 2 top cells, in every mode: 1,304 reports, 900 of them
        # failures, each settled by the 2-Segal squares or walked
        for inst in corpus():
            for level in range(3, inst.X.level + 1):
                T = truncate(inst.X, level)
                for Y in (T, opposite(T)):
                    copies = [duplicate_top(Y, j) for j in range(min(2, len(Y.cells[level])))]
                    for X in [Y, *copies]:
                        assert [
                            criteria.check_2segal_polygonal(X, mode) for mode in MODES
                        ] == reference_polygonal_reports(X), (inst.name, level)

    def test_doubled_degenerate_nerves_match_reference(self):
        for level in range(3, 7):
            X = doubled_degenerate_nerve(level)
            assert [
                criteria.check_2segal_polygonal(X, mode) for mode in MODES
            ] == reference_polygonal_reports(X), level

    def test_north_star_is_settled_by_one_letter_squares(self, monkeypatch):
        # each mode decides the 2-Segal squares its proof pastes, the
        # upper ones at i = n - 1 and the lower ones at i = 1 for n = 2..5
        # (8, 8, 4 and 4 squares), whose legs are faces of X, composes no
        # table and reports the size of its own family
        decided, induced, composed = record_walk(monkeypatch)
        X = north_star()

        def skipping(n, i):
            return tuple(v for v in range(n + 1) if v != i)

        upper = [skipping(n, n - 1) for n in range(2, 6)]
        lower = [skipping(n, 1) for n in range(2, 6)]
        alphas = (upper + lower, upper + lower, upper, lower)
        for mode, size, want in zip(MODES, (56, 36, 21, 21), alphas):
            decided.clear()
            report = criteria.check_2segal_polygonal(X, mode)
            assert report == CheckReport(holds=True, checked_level=6, squares_checked=size)
            assert sorted(decided) == sorted(want), mode
        assert composed == []
        assert all(any(t is u for u in X.faces.values()) for t in induced.values())


#: The 2-Segal family: each checker and its face-table reference.
TWO_SEGAL = (
    (criteria.check_upper_2segal, reference_check_upper_2segal),
    (criteria.check_lower_2segal, reference_check_lower_2segal),
    (criteria.check_upper_2segal_reduced, reference_check_upper_2segal_reduced),
    (criteria.check_decomposition, reference_check_decomposition),
)


class TestTwoSegalFamily:
    def test_perturbed_corpus_matches_reference(self):
        # every corpus instance truncated to levels 2-5, as it is and with
        # a second copy of one of its first 6 top cells, through the four
        # 2-Segal checkers: 2,144 reports, 1,360 of them failures, from
        # views of the elementary and polygonal plans against the squares
        # read off X's face tables
        for inst in corpus():
            for level in range(2, min(5, inst.X.level) + 1):
                T = truncate(inst.X, level)
                copies = [duplicate_top(T, j) for j in range(min(6, len(T.cells[level])))]
                for X in [T, *copies]:
                    for check, reference in TWO_SEGAL:
                        assert check(X) == reference(X), (inst.name, level, check.__name__)

    def test_doubled_degenerate_nerves_match_reference(self):
        # at level 2 only check_decomposition fails, on a unit square;
        # from level 3 every checker fails
        for level in range(2, 7):
            X = doubled_degenerate_nerve(level)
            for check, reference in TWO_SEGAL:
                assert check(X) == reference(X), (level, check.__name__)


def segal_instances():
    """Every corpus instance, with a second copy of each of its first
    three top cells, and the doubled degenerate nerves at levels 2-6."""
    for inst in corpus():
        yield inst.name, inst.X
        for j in range(min(3, len(inst.X.cells[inst.X.level]))):
            yield f"{inst.name}-top{j}", duplicate_top(inst.X, j)
    for level in range(2, 7):
        yield f"doubled-L{level}", doubled_degenerate_nerve(level)


class TestSegalAndCulf:
    def test_segal_checkers_match_reference(self):
        # 127 instances through both Segal checkers: 254 reports, 224 of
        # them failures with a witness
        failures = 0
        for name, X in segal_instances():
            for check, reference in (
                (criteria.check_segal, reference_check_segal),
                (criteria.check_segal_iterated, reference_check_segal_iterated),
            ):
                report = check(X)
                assert report == reference(X), (name, check.__name__)
                failures += not report.holds
        assert failures == 224

    def test_decalage_projections_match_reference(self):
        # both decalage projections of every instance: 254 reports, 196
        # of them failures with a witness
        failures = 0
        for name, X in segal_instances():
            for dec in (operators.dec_top, operators.dec_bot):
                _, proj = dec(X)
                report = criteria.check_culf(proj)
                assert report == reference_check_culf(proj), (name, dec.__name__)
                failures += not report.holds
        assert failures == 196


#: Every per-process plan cache: the compiled plans and the word steps.
PLAN_CACHES = (
    criteria._direct_plan,
    criteria._elementary_plan,
    criteria._polygonal_plan,
    criteria._two_segal_plan,
    criteria._reduced_plan,
    sset._word_steps,
)


@pytest.fixture
def cold_plans():
    """Empty every per-process plan cache before the test."""
    for cache in PLAN_CACHES:
        cache.cache_clear()


def budgets(report):
    """Budgets around the end of a walk: none, one, half, all, one more."""
    n = report.squares_checked
    return sorted({0, 1, n // 2, n, n + 1})


def assert_matches_oracles(X, cap, mode):
    full = walk_check_decomposition_direct(X, cap)
    assert criteria.check_decomposition_direct(X, cap) == full
    for budget in budgets(full):
        assert criteria.check_decomposition_direct(
            X, cap, budget
        ) == walk_check_decomposition_direct(X, cap, budget), budget
    assert criteria.check_2segal_polygonal(X, mode) == reference_check_2segal_polygonal(
        X, mode
    )
    for check, reference in TWO_SEGAL:
        assert check(X) == reference(X), check.__name__


class TestPlanCaches:
    def test_many_instances_at_one_level(self, cold_plans):
        # corpus instances at level 3 and 4, some with a doubled top cell;
        # every rank cap, each followed by another instance and a
        # polygonal mode, so that every instance meets every mode
        for level in (3, 4):
            Xs = [truncate(inst.X, level) for inst in corpus() if inst.X.level >= level]
            Xs += [duplicate_top(X, 0) for X in Xs[::4]]
            for cap in range(level + 1):
                for index, X in enumerate(Xs):
                    assert_matches_oracles(X, cap, MODES[(cap + index) % 4])

    @pytest.mark.parametrize("doubled", [False, True])
    def test_one_instance_at_many_levels(self, cold_plans, doubled):
        # one free decomposition truncated to every level up to 5,
        # levels interleaved inside each rank cap
        X = builders.free_decomposition(builders.bounded_words(("a", "b"), 2), 5)
        truncations = [truncate(X, level) for level in range(6)]
        if doubled:
            truncations = [duplicate_top(T, 0) if T.level else T for T in truncations]
        for cap in range(6):
            for level in range(cap, 6):
                assert_matches_oracles(truncations[level], cap, MODES[level % 4])

    def test_argument_errors_survive_warm_plans(self):
        X = doubled_degenerate_nerve(3)
        for cap in range(4):
            criteria.check_decomposition_direct(X, cap)
        for mode in MODES:
            criteria.check_2segal_polygonal(X, mode)
        faces = {**X.faces, (2, 0): (0,) * len(X.cells[2])}
        broken = TruncatedSSet(3, X.cells, faces, X.degeneracies)
        # argument errors come before validation, level errors after it
        with pytest.raises(ValueError, match="unknown mode 'diagonal'"):
            criteria.check_2segal_polygonal(broken, "diagonal")
        with pytest.raises(ValueError, match="rank cap -1 is negative"):
            criteria.check_decomposition_direct(broken, -1)
        with pytest.raises(ValueError, match="square budget -1 is negative"):
            criteria.check_decomposition_direct(broken, 3, -1)
        with pytest.raises(StructuralError, match="not a simplicial set"):
            criteria.check_decomposition_direct(broken, 4)
        with pytest.raises(LevelError, match="rank cap 4 exceeds level 3"):
            criteria.check_decomposition_direct(X, 4)

    def test_no_cache_keeps_the_input_alive(self, cold_plans):
        # a passing and a failing instance through every checker that
        # plans squares, filling every plan cache, then dropped: nothing
        # may still hold them
        refs = []
        for X in (
            builders.free_decomposition(builders.bounded_words(("a",), 2), 4),
            doubled_degenerate_nerve(4),
        ):
            for cap in range(X.level + 1):
                criteria.check_decomposition_direct(X, cap)
                criteria.check_decomposition_direct(X, cap, 3)
            for mode in MODES:
                criteria.check_2segal_polygonal(X, mode)
            for T in [*(truncate(X, level) for level in range(X.level)), X]:
                for check, _ in TWO_SEGAL:
                    check(T)
            criteria.check_culf(identity_map(X))
            refs.append(weakref.ref(X))
        del X, T
        gc.collect()
        assert all(cache.cache_info().currsize for cache in PLAN_CACHES)
        assert [ref() for ref in refs] == [None, None]
