"""The square engine against its enumerate-everything references.

is_pullback_square decides by counting (pullback_holds) and enumerates
the fiber product only for a witness; each call decides on bytes tables
when every level of its input holds at most 256 cells and on tuples
otherwise, with the same decisions, which are tested square by square
and on sets on each side of that boundary; the walks compose each
induced map once per call, from compiled plans, and decide
identity-leg squares without fibers; the direct checker settles its whole family from the
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

import dataclasses
import gc
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    boundary_sets,
    chain_category,
    collapsed_triangle,
    corpus,
    direct_sweep_shape,
    doubled_degenerate_nerve,
    duplicate_top,
    point,
)
from decompspace import builders, criteria, delta, operators, serialize, sset
from decompspace.sset import (
    CheckReport,
    LevelError,
    SimplicialMap,
    StructuralError,
    TruncatedSSet,
    opposite,
    truncate,
)
from oracles import (
    identity_map,
    indexed_square,
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


def assert_decisions_match(square):
    """The witness of square by names, and its decision alone by
    pullback_holds and by the decide of each encoding, fresh and on a
    memo that already holds the square's tables, against the reference."""
    want = outcome(reference_is_pullback_square, *square)
    assert outcome(pullback_by_names, *square) == want
    holds = isinstance(want, CheckReport) and want.holds
    tables, _ = indexed_square(*square)
    assert sset.pullback_holds(*tables) == holds
    for code in (sset._TUPLES, sset._BYTES):
        legs, memo = tuple(code.table(t, t, 256) for t in tables), {}
        assert code.decide(memo, *legs) == holds, code.table
        assert code.decide(memo, *legs) == holds, code.table
    return want


#: One square of each way to fail, by names: its projections disagree
#: on their domain, it does not commute, a fiber-product pair is hit
#: twice though |A| is the fiber product's size, or A is too short.
FAILING_SQUARES = {
    "domains": ({"a0": "b0", "a1": "b1"}, {"a0": "c0"}, {"b0": "d", "b1": "d"}, {"c0": "d"}),
    "commute": ({"a0": "b0"}, {"a0": "c0"}, {"b0": "d0"}, {"c0": "d1"}),
    "repeated-pair": (
        {"a0": "b1", "a1": "b1"}, {"a0": "c0", "a1": "c0"}, {"b0": "d", "b1": "d"}, {"c0": "d"}
    ),
    "short": ({"a0": "b0"}, {"a0": "c0"}, {"b0": "d", "b1": "d"}, {"c0": "d"}),
}


class TestPullbackEngine:
    @ENGINE
    @given(squares())
    def test_matches_reference(self, square):
        assert_decisions_match(square)

    @pytest.mark.parametrize("kind", sorted(FAILING_SQUARES))
    def test_each_failure_kind(self, kind):
        want = assert_decisions_match(FAILING_SQUARES[kind])
        if kind in ("domains", "commute"):
            assert want[0] == "StructuralError"
        else:
            assert not want.holds and want.witness is not None

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
    """Record what the checkers decide and compose, in four collections:
    the alpha of every square decided, in order; the table each map the
    legs of those squares read was given, keyed by (target_rank,
    values); the lengths of the prefixes the executor composed a slot
    from; and how many squares each encoding of sset decided.

    The square families are planned and compiled once per process, so
    the recording wraps what runs on every call: the squares the
    executor criteria._pushout_squares draws, and the decide and step
    operations of both encodings, sset._BYTES and sset._TUPLES.  validate
    and map naturality compose through step too; only the steps the
    executor takes count.  A map given two tables fails the recording,
    so clear the collections between calls."""
    current, decided, induced, composed = [None], [], {}, []
    encodings = Counter()
    pushout_squares = criteria._pushout_squares
    executor = pushout_squares.__code__

    def recording(X, code, plan, label):
        slots, squares = plan

        def drawn():
            for square in squares:
                current[0] = square
                yield square

        return pushout_squares(X, code, (slots, drawn()), label)

    for name in ("_BYTES", "_TUPLES"):
        code = getattr(sset, name)

        def counting_decide(memo, *legs, name=name, decide=code.decide):
            alpha, iota, k, p = current[0][:4]
            decided.append(alpha)
            encodings[name] += 1
            theta, phi = delta.pushout_values(alpha, iota[0], k)
            keys = ((p, phi), (p, theta), (k, iota), (alpha[-1], alpha))
            for key, table in zip(keys, legs):
                assert induced.setdefault(key, table) is table, key
            return decide(memo, *legs)

        def counting_step(first, step=code.step):
            if sys._getframe(1).f_code is executor:
                composed.append(len(first))
            return step(first)

        replaced = code._replace(decide=counting_decide, step=counting_step)
        monkeypatch.setattr(sset, name, replaced)
    monkeypatch.setattr(criteria, "_pushout_squares", recording)
    return decided, induced, composed, encodings


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
        decided, induced, composed, encodings = record_walk(monkeypatch)
        report = criteria.check_decomposition_direct(north_star(), rank_cap=4)
        assert report.holds and report.squares_checked == 426
        assert len(decided) == 270
        assert len(induced) == 244
        assert len(composed) == 233
        assert encodings == {"_TUPLES": 270}
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
        decided, induced, composed, encodings = record_walk(monkeypatch)
        report = criteria.check_decomposition_direct(north_star(), rank_cap=6)
        assert report.holds and report.squares_checked == 3233
        assert len(decided) == 50
        assert sum(a[-1] < len(a) - 1 for a in decided) == 30
        assert len(induced) == 48
        assert composed == []
        assert encodings == {"_TUPLES": 50}

    def test_direct_sweep_shape_decides_on_bytes(self, monkeypatch):
        # the benchmark's direct-sweep shape has at most 56 cells a level,
        # so the same 50 elementary squares are decided on bytes tables
        decided, induced, composed, encodings = record_walk(monkeypatch)
        report = criteria.check_decomposition_direct(direct_sweep_shape(), rank_cap=6)
        assert report.holds and report.squares_checked == 3233
        assert encodings == {"_BYTES": 50}
        assert len(induced) == 48
        assert composed == []
        assert all(type(table) is bytes for table in induced.values())

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
        decided, induced, composed, encodings = record_walk(monkeypatch)
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


#: Sets whose largest level holds 255, 256 or 257 cells, and the empty set.
BOUNDARY = boundary_sets()


def boundary_instances():
    """Each boundary set, and the same set with a second copy of its first
    top cell, which moves 255 to 256 and 256 to 257 cells."""
    for name, X in sorted(BOUNDARY.items()):
        yield name, X
        if X.cells[X.level]:
            yield f"{name}-top0", duplicate_top(X, 0)


#: Every square checker but direct and polygonal, with its reference.
SQUARE_CHECKERS = (
    (criteria.check_segal, reference_check_segal),
    (criteria.check_segal_iterated, reference_check_segal_iterated),
    *TWO_SEGAL,
)


class TestEncodingBoundary:
    @pytest.mark.parametrize("name", [name for name, _ in boundary_instances()])
    def test_every_checker_matches_reference(self, name):
        # on each side of the 256-cell choice between bytes and tuples,
        # holding and failing, every report and witness is the reference's
        X, reports = dict(boundary_instances())[name], []
        for check, reference in SQUARE_CHECKERS:
            reports.append(check(X))
            assert reports[-1] == reference(X), check.__name__
        for cap in range(X.level + 1):
            reports.append(criteria.check_decomposition_direct(X, cap))
            assert reports[-1] == reference_check_decomposition_direct(X, cap), cap
        polygonal = [criteria.check_2segal_polygonal(X, mode) for mode in MODES]
        assert polygonal == reference_polygonal_reports(X)
        for dec in (operators.dec_top, operators.dec_bot):
            _, proj = dec(X)
            reports.append(criteria.check_culf(proj))
            assert reports[-1] == reference_check_culf(proj), dec.__name__
        # a free decomposition is a decomposition space; the doubled top
        # cell breaks its 2-Segal squares
        assert reports[len(SQUARE_CHECKERS) - 1].holds != name.endswith("-top0")


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

    def test_no_cache_keeps_the_input_alive(self, cold_plans, monkeypatch):
        # a passing and a failing instance on bytes and a passing one on
        # tuples through every checker that plans squares, filling every
        # plan cache, then dropped: nothing may still hold them, nor any
        # call, its memo, which holds padded operands and fiber counts,
        # or its rows, which hold the converted tables; a mark put in the
        # memo and in each row list dies with it
        refs, calls = [], []
        valid_call = sset._valid_call

        class Mark:
            pass

        def recording(*sets, **kwargs):
            call = valid_call(*sets, **kwargs)
            marks = [Mark()]
            call.memo[marks[0]] = marks[0]
            for rows in call.rows:
                for row in rows:
                    marks.append(Mark())
                    row.append(marks[-1])
            calls.append((call.code, list(map(weakref.ref, [call, call.decide, *marks]))))
            return call

        monkeypatch.setattr(criteria, "_valid_call", recording)
        for X in (
            builders.free_decomposition(builders.bounded_words(("a",), 2), 4),
            doubled_degenerate_nerve(4),
            boundary_sets()["largest-257"],
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
        assert [ref() for ref in refs] == [None, None, None]
        assert {code for code, _ in calls} == {sset._BYTES, sset._TUPLES}
        alive = [ref() for _, weak in calls for ref in weak]
        assert alive == [None] * len(alive)


def is_surjective(values) -> bool:
    return set(values) == set(range(values[-1] + 1))


def compiled_plans(level):
    """Every compiled plan of a set of the given level: the elementary,
    polygonal, 2-Segal and reduced plans, and the whole direct family
    at full rank cap, compiled as check_decomposition_direct streams it."""
    yield "elementary", criteria._elementary_plan(level, level)
    for mode in MODES:
        yield f"polygonal-{mode}", criteria._polygonal_plan(level, mode)
    for sides in ((1,), (0,), (1, 0)):
        yield f"2-segal-{sides}", criteria._two_segal_plan(level, sides)
        yield f"pasted-{sides}", criteria._two_segal_plan(level, sides, pasted=True)
    units, composites = criteria._reduced_plan(level)
    yield "reduced-units", units
    yield "reduced-composites", composites
    ranks, _, _ = criteria._direct_plan(level, level)
    slots = []
    yield "direct", (slots, tuple(criteria._compiled(criteria._direct_squares(ranks), slots)))


def perturbed_corpus():
    """The corpus with a second copy of each of its first three top
    cells, and the perturbed corpus of the pasting certificate's test:
    each instance truncated to levels 1-5, with a second copy of one of
    its first 12 top cells."""
    for name, X in segal_instances():
        yield name, X
    for inst in corpus():
        for level in range(1, min(5, inst.X.level) + 1):
            T = truncate(inst.X, level)
            for j in range(min(12, len(T.cells[level]))):
                yield f"{inst.name}-L{level}-top{j}", duplicate_top(T, j)


def checked_split_decisions(monkeypatch):
    """Wrap the decide of both encodings so that every decision of a
    split square is checked against pullback_holds on its tuples; the
    list returned collects those decisions."""
    decisions = []
    for name in ("_BYTES", "_TUPLES"):
        code = getattr(sset, name)

        def checked(memo, *legs, decide=code.decide):
            holds = decide(memo, *legs)
            if legs[4:] == (True,):
                assert holds == sset.pullback_holds(*map(tuple, legs[:4]))
                decisions.append(holds)
            return holds

        monkeypatch.setattr(sset, name, code._replace(decide=checked))
    return decisions


class TestSplitSquares:
    def test_plans_flag_exactly_surjective_alphas(self):
        # at level 6, 30 of the 50 elementary squares have a codegeneracy
        # alpha; no polygonal or 2-Segal square has a surjective alpha
        flagged = Counter()
        for level in range(1, 7):
            for name, (_, squares) in compiled_plans(level):
                for alpha, _, _, _, legs, _ in squares:
                    if legs is not None:
                        assert legs[4] is is_surjective(alpha), (name, alpha)
                        flagged[name, level] += legs[4]
        _, elementary = criteria._elementary_plan(6, 6)
        assert flagged["elementary", 6] == 30 and len(elementary) == 50
        assert {name for (name, _), count in flagged.items() if count} == {
            "elementary",
            "direct",
        }

    def test_count_matches_pullback_holds_on_perturbed_corpus(self):
        # every split square of the elementary plan and of the whole
        # direct family, on every set of the perturbed corpus, decided
        # by its call and by pullback_holds on its tuples
        decided, plans = Counter(), {}
        for name, X in perturbed_corpus():
            call = sset._valid_call(X)
            if X.level not in plans:
                kept = ("elementary", "direct")
                plans[X.level] = [(n, p) for n, p in compiled_plans(X.level) if n in kept]
            for plan_name, plan in plans[X.level]:
                walk = criteria._pushout_squares(X, call, plan, criteria._active_inert_label)
                for legs, _ in walk:
                    if legs is not None and legs[4]:
                        holds = call.decide(*legs)
                        assert holds == sset.pullback_holds(*map(tuple, legs[:4])), name
                        decided[plan_name, holds] += 1
        assert set(decided) == {(plan, holds) for plan in ("elementary", "direct")
                                for holds in (True, False)}

    def test_checkers_decide_split_squares_as_pullback_holds(self, monkeypatch):
        # through the checkers: the direct one at every rank cap, and
        # check_culf on the decalage projections and on the map to the
        # point, whose degeneracy squares fail wherever X has a
        # nondegenerate cell above level 0
        decisions = checked_split_decisions(monkeypatch)
        for name, X in segal_instances():
            for cap in range(X.level + 1):
                criteria.check_decomposition_direct(X, cap)
            maps = [operators.dec_top(X)[1], operators.dec_bot(X)[1]]
            maps.append(sset.SimplicialMap(
                X, point(X.level), tuple((0,) * len(cells) for cells in X.cells)
            ))
            for m in maps:
                criteria.check_culf(m)
        assert True in decisions and False in decisions

    @pytest.mark.parametrize("level", range(2, 8))
    def test_doubled_degenerate_nerve_fails_with_the_walks_witness(self, level):
        # where the certificate applies (rank cap <= 1 or >= level - 1),
        # its split squares catch the doubled top cell from rank cap
        # level - 1 up, and the report is the walk's
        X = doubled_degenerate_nerve(level)
        for cap in range(level + 1):
            if 2 <= cap <= level - 2:
                continue
            want = walk_check_decomposition_direct(X, cap)
            assert criteria.check_decomposition_direct(X, cap) == want, cap
            assert want.holds is (cap < level - 1), cap
            if not want.holds:
                assert want.witness is not None


#: validate and the checkers of a set, in lib-corpus's order.
SET_STEPS = (
    sset.validate,
    criteria.check_segal,
    criteria.check_segal_iterated,
    criteria.check_upper_2segal,
    criteria.check_upper_2segal_reduced,
    criteria.check_lower_2segal,
    criteria.check_decomposition,
    criteria.check_decomposition_direct,
    criteria.check_2segal_polygonal,
)


def attempt(step, *args):
    """What step gives on args: its result, or its error's type and text."""
    try:
        return step(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


#: validate_map and the checker of a map.
MAP_STEPS = (sset.validate_map, criteria.check_culf)

#: The steps of a chain of operators: validation, and one checker that
#: reads the tables a check converted.
CHAIN_STEPS = (sset.validate, criteria.check_segal)


def checked_sequence(X, fresh: bool) -> list:
    """lib-corpus's sequence on X: validate, the checkers, culf on X's
    identity, then dec_top and dec_bot with validate and every checker
    on each décalage and validate_map and culf on its projection, then
    sd with Segal on it; then the chains dec_top(dec_bot(X)),
    opposite(opposite(X)) and truncate(dec_top(X), k) for each k below
    its level, each through CHAIN_STEPS, and the first chain's
    projection through the map steps.

    With fresh, each step reads a copy made for it by
    dataclasses.replace, which carries no record of a check, of X or
    of the operator output, and a map step reads the projection rebuilt
    on copies of both its ends.  Otherwise every step reads X and the
    very sets and maps the operators made, so each check after the first
    finds X's record or the one an operator passed on."""
    copy = dataclasses.replace if fresh else lambda Y: Y

    def through(Y, f=None, steps=SET_STEPS):
        out.extend(attempt(step, copy(Y)) for step in steps)
        if f is not None:
            for step in MAP_STEPS:
                g = SimplicialMap(copy(f.source), copy(f.target), f.components)
                out.append(attempt(step, g if fresh else f))

    out = [attempt(step, copy(X)) for step in SET_STEPS]
    out.append(attempt(lambda Y: criteria.check_culf(identity_map(Y)), copy(X)))
    decalages = []
    for operator in (operators.dec_top, operators.dec_bot):
        out.append(attempt(operator, copy(X)))
        if type(out[-1][0]) is TruncatedSSet:
            decalages.append(out[-1])
            through(*out[-1])
    out.append(attempt(operators.sd, copy(X)))
    if type(out[-1]) is TruncatedSSet:
        out.append(attempt(criteria.check_segal, copy(out[-1])))
    if len(decalages) == 2 and decalages[1][0].level:
        through(*operators.dec_top(copy(decalages[1][0])), steps=CHAIN_STEPS)
    through(opposite(opposite(copy(X))), steps=CHAIN_STEPS)
    for k in range(decalages[0][0].level if decalages else 0):
        through(truncate(copy(decalages[0][0]), k), steps=CHAIN_STEPS)
    return out


class TestRememberedVerdict:
    """A walk that holds is remembered on the set, so every later check of
    the same objects skips the shape test and the walk; each report,
    witness and error must be the one a fresh copy gives."""

    def assert_remembered_as_fresh(self, name, X):
        remembered = checked_sequence(X, fresh=False)
        assert remembered == checked_sequence(X, fresh=True), name
        if type(remembered[0]) is CheckReport:
            assert vars(X)["_as_read"].report is remembered[0], name
        else:
            assert "_as_read" not in vars(X), name

    @pytest.mark.parametrize("inst", corpus(), ids=lambda inst: inst.name)
    def test_corpus_matches_fresh(self, inst):
        self.assert_remembered_as_fresh(inst.name, inst.X)

    def test_perturbed_corpus_matches_fresh(self):
        for name, X in perturbed_corpus():
            self.assert_remembered_as_fresh(name, X)


def made_of(X) -> list:
    """What opposite, truncate one level down and the décalages make of
    X: the sets, and each décalage's projection after its set."""
    made = [opposite(X)]
    if X.level:
        made.append(truncate(X, X.level - 1))
        for operator in (operators.dec_top, operators.dec_bot):
            made.extend(operator(X))
    return made


def check_outcomes(x, fresh: bool = False) -> list:
    """Every set step on a set, or both map steps on a map; with fresh,
    each step reads a fresh copy of x made for it."""
    steps = MAP_STEPS if type(x) is SimplicialMap else SET_STEPS
    return [attempt(step, fresh_copy(x) if fresh else x) for step in steps]


def fresh_copy(x):
    """x built afresh from its objects as they are now, with no record."""
    if type(x) is SimplicialMap:
        return SimplicialMap(fresh_copy(x.source), fresh_copy(x.target), x.components)
    return TruncatedSSet(x.level, x.cells, dict(x.faces), dict(x.degeneracies))


def remembered_report(x):
    """The report x's record holds, None for a shape test alone, or
    "none" when x carries no record."""
    record = vars(x).get("_as_read")
    return "none" if record is None else record.report


def read_back(X):
    """X written and read back, with the reader's certificate."""
    return serialize.sset_from_obj(
        serialize.loads(serialize.dumps(serialize.sset_to_obj(X)))
    )


def chain_nerve(level):
    return builders.nerve(chain_category(2), level)


def broken_nerve():
    """chain_nerve(3) with d_0 on X_2 sent to one cell, which breaks
    d_0 d_1 = d_0 d_0 at level 2."""
    X = chain_nerve(3)
    faces = {**X.faces, (2, 0): (0,) * len(X.cells[2])}
    return TruncatedSSet(3, X.cells, faces, dict(X.degeneracies))


class TestDerivedRecords:
    """opposite, truncate and the décalages pass on what their input's
    current record proves: a walk's report as the report a walk of the
    output gives, the reader's shape test as a shape test, and for a
    projection the report of its naturality walk.  Whatever an output
    carries, every step on it must give what a fresh copy gives."""

    def assert_as_fresh(self, made):
        for x in made:
            assert check_outcomes(x) == check_outcomes(x, fresh=True), x

    @pytest.mark.parametrize("inst", corpus(), ids=lambda inst: inst.name)
    def test_outputs_of_a_walked_set_carry_its_report(self, inst):
        X = dataclasses.replace(inst.X)
        report = sset.validate(X)
        made = made_of(X)
        for x in made:
            carried = remembered_report(x)
            if report.holds:
                assert carried.holds, x
                assert carried == check_outcomes(x, fresh=True)[0], x
            else:
                assert carried == "none", x
        self.assert_as_fresh(made)

    @pytest.mark.parametrize("inst", corpus(), ids=lambda inst: inst.name)
    def test_outputs_of_a_read_set_carry_its_shape_test_only(self, inst):
        # never walked: the reader's certificate is passed on, and no
        # report; a built set, with no record, passes on nothing
        X = read_back(inst.X)
        made = made_of(X)
        assert {remembered_report(x) for x in made} == {None}
        self.assert_as_fresh(made)
        built = dataclasses.replace(inst.X)
        assert {remembered_report(x) for x in made_of(built)} == {"none"}

    @pytest.mark.parametrize("read", [False, True])
    def test_failed_walk_passes_on_nothing(self, read):
        X = read_back(broken_nerve()) if read else broken_nerve()
        assert not sset.validate(X).holds
        made = made_of(X)
        assert {remembered_report(x) for x in made} == ({None} if read else {"none"})
        self.assert_as_fresh(made)
        assert not sset.validate(made[0]).holds

    @pytest.mark.parametrize("change", ["equal", "broken"])
    def test_table_of_x_replaced_after_its_walk(self, change):
        # X's record is stale, so nothing is passed on, and the outputs
        # are walked: a broken table is found in each that holds it
        X = chain_nerve(3)
        assert sset.validate(X).holds
        key = (2, 0)
        X.faces[key] = (
            tuple(list(X.faces[key])) if change == "equal" else (0,) * len(X.cells[2])
        )
        made = made_of(X)
        assert {remembered_report(x) for x in made} == {"none"}
        self.assert_as_fresh(made)
        assert sset.validate(made[0]).holds is (change == "equal")

    @pytest.mark.parametrize("change", ["equal", "broken"])
    def test_table_of_an_output_replaced_after_derivation(self, change):
        # the output's own record is stale, and so is its projection's,
        # which names it: both are tested afresh
        for operator in (operators.dec_top, operators.dec_bot):
            X = chain_nerve(4)
            assert sset.validate(X).holds
            Y, f = operator(X)
            assert remembered_report(f).holds
            key = (2, 1)
            Y.faces[key] = (
                tuple(list(Y.faces[key])) if change == "equal"
                else (0,) * len(Y.cells[2])
            )
            want = [check_outcomes(x, fresh=True) for x in (Y, f)]
            assert want[0][0].holds is (change == "equal")
            assert [check_outcomes(f), check_outcomes(Y)] == [want[1], want[0]]

    def test_table_of_x_replaced_after_derivation(self):
        # the projection names X's record, which is now stale: its
        # naturality is walked, and finds the broken table
        X = chain_nerve(4)
        assert sset.validate(X).holds
        Y, f = operators.dec_top(X)
        X.faces[(3, 0)] = (0,) * len(X.cells[3])
        want = check_outcomes(f, fresh=True)
        assert not want[0].holds and want[1][0] == "StructuralError"
        assert check_outcomes(f) == want
