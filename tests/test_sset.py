"""Tables, identities, induced maps, the opposite, and the pullback engine."""

import copy
import dataclasses
import pickle
import tracemalloc
from collections import Counter
from itertools import permutations, product

import pytest

from corpus import (
    arrow_category,
    corpus,
    chain_category,
    one_gap_pcategory,
    opposite_category,
    parallel_pair_category,
    point,
    short_words_pmonoid,
    z2_category,
)
from decompspace import builders, operators, serialize, sset
from decompspace.sset import (
    LevelError,
    SimplicialMap,
    StructuralError,
    TruncatedSSet,
    compose_tables,
    opposite,
    truncate,
    validate,
    validate_map,
)
from oracles import (
    are_isomorphic,
    codegeneracy_values,
    coface_values,
    compose_maps,
    identity_map,
    induced_names,
    monotone_tuples,
    pullback_by_names,
    reference_induce,
)


def corrupt_face(X, n, i, cell, value) -> TruncatedSSet:
    faces = {key: X.face_names(*key) for key in X.faces}
    degeneracies = {key: X.degeneracy_names(*key) for key in X.degeneracies}
    faces[(n, i)][cell] = value
    return TruncatedSSet.from_names(X.level, X.cells, faces, degeneracies)


class TestValidate:
    def test_point_holds(self):
        report = validate(point(2))
        assert report.holds and report.verdict == "holds-at-checked-depth"
        assert report.checked_level == 2

    def test_nerves_hold(self):
        for C in (arrow_category(), chain_category(3), z2_category()):
            assert validate(builders.nerve(C, 3)).holds

    def test_corrupted_identity_fails_named(self):
        X = builders.nerve(chain_category(3), 2)
        # break d_0 at level 2 so that d_0 d_2 != d_1 d_0 somewhere
        target = X.cells[2][-1]
        other = next(c for c in X.cells[1] if c != X.face_names(2, 0)[target])
        bad = corrupt_face(X, 2, 0, target, other)
        report = validate(bad)
        assert not report.holds and report.verdict == "fails"
        assert "identity d_" in report.detail and "level" in report.detail

    def test_dangling_reference_is_structural_error(self):
        X = point(2)
        with pytest.raises(StructuralError, match="ghost"):
            validate(corrupt_face(X, 1, 0, "*", "ghost"))

    def test_missing_table_is_structural_error(self):
        X = point(2)
        faces = dict(X.faces)
        del faces[(2, 1)]
        with pytest.raises(StructuralError, match="missing"):
            validate(TruncatedSSet(X.level, X.cells, faces, X.degeneracies))

    def test_duplicate_cells_rejected(self):
        X = point(1)
        with pytest.raises(StructuralError, match="duplicate"):
            validate(
                TruncatedSSet(
                    1, (("*", "*"), ("e",)), X.faces, X.degeneracies
                )
            )

    def test_level_zero_vacuous(self):
        X = TruncatedSSet(0, (("a", "b"),), {}, {})
        report = validate(X)
        assert report.holds and report.squares_checked == 0


def identity_equations(level):
    """validate's equations as nested ranges over (n, j, i) give them, in
    walk order: (n, name, f, g, h, k), saying that g after f is k after h
    on X_n, or the identity when h and k are None, each of f, g, h and k
    a table key (kind, n, i)."""
    for n in range(2, level + 1):
        for j in range(1, n + 1):
            for i in range(j):
                yield (n, f"d_{i} d_{j} = d_{j-1} d_{i}", ("d", n, j),
                       ("d", n - 1, i), ("d", n, i), ("d", n - 1, j - 1))
    for n in range(level - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield (n, f"s_{i} s_{j} = s_{j+1} s_{i}", ("s", n, j),
                       ("s", n + 1, i), ("s", n, i), ("s", n + 1, j + 1))
    for n in range(level):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = n, ("s", n, j), ("d", n + 1, i)
                if i == j or i == j + 1:
                    yield lhs[0], f"d_{i} s_{j} = id", *lhs[1:], None, None
                elif i < j:
                    yield (lhs[0], f"d_{i} s_{j} = s_{j-1} d_{i}", *lhs[1:],
                           ("d", n, i), ("s", n - 1, j - 1))
                else:
                    yield (lhs[0], f"d_{i} s_{j} = s_{j} d_{i-1}", *lhs[1:],
                           ("d", n, i - 1), ("s", n - 1, j))


def keyed_tables(level, prefix=()):
    """What sset._flat lists for a set of the given level, each table as
    its key prefix + (kind, n, i)."""
    d = [[prefix + ("d", n, i) for i in range(n + 1)] for n in range(level + 1)]
    s = [[prefix + ("s", n, i) for i in range(n + 1)] for n in range(level)]
    return sset._flat(level, d, s)


def expanded(plan, tables):
    """Each equation of plan's runs, in walk order, as (n, name, f, g, h,
    k) with its slots looked up in tables and its name formatted as a
    failure formats it."""
    for n, f, g, h, k, count, name, i, j in plan[0]:
        assert count >= 1
        for e in range(count):
            rhs = (None, None) if h is None else (tables[h + e], tables[k])
            words = name.format(i + e, j, i + e - 1, j - 1, j + 1)
            yield n, words, tables[f], tables[g + e], *rhs


class TestEquationPlans:
    """validate and map naturality walk compiled plans of runs: each run
    is count equations, a fixed table composed with consecutive slots, or
    consecutive slots composed with a fixed table.  Expanded, the runs
    give each equation of the nested ranges they replace once, in the
    same order, on the same tables; a plan grows as the square of the
    level, and the slots of a table do not depend on the level."""

    @pytest.mark.parametrize("level", range(9))
    def test_identity_plan_holds_each_identity_once(self, level):
        plan, tables = sset._identity_plan(level), keyed_tables(level)
        equations = list(expanded(plan, tables))
        assert equations == list(identity_equations(level))
        keys = [(n, name) for n, name, *_ in equations]
        assert len(set(keys)) == len(keys)
        # family: d_i d_j, s_i s_j or d_i s_j, in walk order
        families = [name.split()[0][0] + name.split()[1][0] for _, name in keys]
        assert families == sorted(families, key=["dd", "ss", "ds"].index)
        assert Counter(families) == +Counter({
            "dd": sum(1 for n in range(2, level + 1) for j in range(1, n + 1)
                      for i in range(j)),
            "ss": sum(1 for n in range(level - 1) for j in range(n + 1)
                      for i in range(j + 1)),
            "ds": sum(1 for n in range(level) for j in range(n + 1)
                      for i in range(n + 2)),
        })
        # every table is composed both first and second, so the walk
        # makes a getter and an operand of each
        assert plan[1:3] == (slice(None), slice(None))

    @pytest.mark.parametrize("top", range(9))
    def test_naturality_plan_holds_each_operator_once(self, top):
        plan = sset._naturality_plan(top)
        X, Y = keyed_tables(top, ("X",)), keyed_tables(top, ("Y",))
        tables = [*X, *(("c", n) for n in range(top + 1)), *Y]
        equations = list(expanded(plan, tables))
        shift = {"d": -1, "s": 1}
        assert equations == [
            (n, f"{kind}_{i}", ("c", n), ("Y", kind, n, i), ("X", kind, n, i),
             ("c", n + shift[kind]))
            for kind, levels in (("d", range(1, top + 1)), ("s", range(top)))
            for n in levels
            for i in range(n + 1)
        ]
        # faces before degeneracies
        kinds = [name[0] for _, name, *_ in equations]
        assert kinds == sorted(kinds)
        assert Counter(kinds) == +Counter({
            "d": sum(n + 1 for n in range(1, top + 1)),
            "s": sum(n + 1 for n in range(top)),
        })
        # the target's tables are only composed after, so no getter is
        # built for them, and the source's are only composed first
        firsts, seconds = (set(range(len(tables))[block]) for block in plan[1:3])
        assert not firsts & set(range(len(tables) - len(Y), len(tables)))
        assert not seconds & set(range(len(X)))
        for n, f, g, h, k, count, *_ in plan[0]:
            assert {f, *range(h, h + count)} <= firsts
            assert {*range(g, g + count), k} <= seconds

    @pytest.mark.parametrize("level", range(41))
    def test_counts_are_those_of_the_plans(self, level):
        # every remembered report, of validate or validate_map, counts
        # its squares in closed form: the counts must be the equations
        # each plan holds on each level
        def counts(plan):
            per_level = Counter()
            for run in plan[0]:
                per_level[run[0]] += run[5]
            return [per_level[n] for n in range(level + 1)]

        assert list(sset._identity_counts(level)) == counts(sset._identity_plan(level))
        want = counts(sset._naturality_plan(level))
        assert list(sset._naturality_counts(level)) == want

    @pytest.mark.parametrize("level", range(7))
    def test_slots_do_not_depend_on_the_level(self, level):
        # d_i on X_n is slot n*n - 1 + i and s_i on X_n slot n*n + 3n + 2
        # + i, so a deeper set's tables extend a shallower set's
        tables = keyed_tables(level)
        assert keyed_tables(level + 3)[: len(tables)] == tables
        for slot, (kind, n, i) in enumerate(tables):
            assert slot == (n * n - 1 if kind == "d" else n * n + 3 * n + 2) + i

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 10, 50, 100, 149, 150])
    def test_runs_grow_as_the_square_of_the_level(self, level):
        # compiled without the cache, so the deep plans are not kept
        runs = sset._identity_plan.__wrapped__(level)[0]
        assert len(runs) <= 3 * level * level
        # no run holds a string made for it: each name is one of the
        # plan's five templates
        assert len({id(run[6]) for run in runs}) <= 5

    def test_deep_plan_is_evicted(self):
        # the plan caches keep _PLAN_LEVELS levels: the level-150 plan
        # (56,174 runs) stays while fewer smaller levels are validated
        # after it, and goes with the next one
        sset._identity_plan.cache_clear()
        sset._identity_plan(150)
        for level in range(sset._PLAN_LEVELS):
            assert sset._identity_plan.cache_info().currsize == level + 1
            validate(point(level))
        assert sset._identity_plan.cache_info().currsize == sset._PLAN_LEVELS
        misses = sset._identity_plan.cache_info().misses
        sset._identity_plan(150)
        assert sset._identity_plan.cache_info().misses == misses + 1
        sset._identity_plan.cache_clear()
        assert sset._naturality_plan.cache_info().maxsize == sset._PLAN_LEVELS

    def test_cold_validate_stays_small(self):
        # the plan and the walk of a cold validate at level 50 peak at
        # 2.3 MB, against 1.1 MB for nested loops that compile no plan
        # and 33 MB for a plan of one entry per equation, each with its
        # name
        X = builders.free_decomposition(builders.terminal_complex(0), 50)
        sset._identity_plan.cache_clear()
        tracemalloc.start()
        try:
            report = validate(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds and report.squares_checked == 87124
        assert peak <= 8_000_000


class TestInducedMap:
    def test_identity(self):
        X = builders.nerve(arrow_category(), 3)
        out = induced_names(X, 2, (0, 1, 2))
        assert out == {c: c for c in X.cells[2]}

    def test_generator_cases_match_tables(self):
        X = builders.nerve(chain_category(3), 3)
        for n, i, values in coface_values(3):
            assert induced_names(X, n, values) == X.face_names(n, i)
        for n, i, values in codegeneracy_values(2):
            assert induced_names(X, n, values) == X.degeneracy_names(n, i)

    def test_one_letter_word_is_the_table_itself(self):
        # the 2-Segal walks induce their faces from the elementary plan;
        # a one-letter word returns X's own table, so they read the same
        # tables as direct lookups, with no copy
        X = builders.nerve(chain_category(3), 3)
        for n, i, values in coface_values(3):
            assert sset.induce(X, n, values) is X.faces[(n, i)]
        for n, i, values in codegeneracy_values(2):
            assert sset.induce(X, n, values) is X.degeneracies[(n, i)]

    def test_long_edge_is_inner_face(self):
        X = builders.nerve(chain_category(3), 3)
        assert induced_names(X, 2, (0, 2)) == X.face_names(2, 1)

    def test_functoriality_exhaustive(self):
        X = builders.nerve(arrow_category(), 3)
        for n, j, m in product(range(3), range(3), range(3)):
            for f in monotone_tuples(n + 1, j):
                for g in monotone_tuples(j + 1, m):
                    composite = induced_names(X, m, tuple(g[v] for v in f))
                    stepwise = {
                        c: induced_names(X, j, f)[v]
                        for c, v in induced_names(X, m, g).items()
                    }
                    assert composite == stepwise

    def test_word_independence_spot_check(self):
        # d_1 s_0 s_0 = s_0 d_0 s_0 = s_0 as maps [2] -> [1]; the induced
        # actions along either word must agree with the canonical one
        X = builders.nerve(z2_category(), 3)
        canonical = sset.induce(X, 1, (0, 0, 1))
        via_other_word = compose_tables(
            X.degeneracies[(1, 0)], X.degeneracies[(2, 0)], X.faces[(3, 1)]
        )
        assert canonical == via_other_word

    def test_values_keyed_induce_on_corpus(self):
        # every map [n] -> [m] within the level, on every corpus instance,
        # against the composite along another generator word
        for inst in corpus():
            X = inst.X
            for n in range(X.level + 1):
                for m in range(X.level + 1):
                    for values in monotone_tuples(n + 1, m):
                        table = sset.induce(X, m, values)
                        assert table == reference_induce(X, m, values), (
                            inst.name,
                            m,
                            values,
                        )

    def test_level_error(self):
        X = builders.nerve(arrow_category(), 2)
        with pytest.raises(LevelError):
            sset.induce(X, 3, (1, 2, 3))


class TestOpposite:
    def test_point_fixed(self):
        assert opposite(point(3)) == point(3)

    def test_involution_on_corpus_objects(self):
        for X in (
            builders.nerve(chain_category(3), 3),
            builders.from_partial_category(one_gap_pcategory(), 3),
        ):
            assert opposite(opposite(X)) == X

    def test_swaps_outer_faces_at_level_1(self):
        X = builders.nerve(arrow_category(), 2)
        assert opposite(X).faces[(1, 0)] == X.faces[(1, 1)]
        assert opposite(X).faces[(1, 1)] == X.faces[(1, 0)]

    def test_opposite_nerve_is_nerve_of_opposite(self):
        C = arrow_category()
        lhs = opposite(builders.nerve(C, 3))
        rhs = builders.nerve(opposite_category(C), 3)
        components = tuple(
            {c: "|".join(reversed(c.split("|"))) if n else c for c in lhs.cells[n]}
            for n in range(4)
        )
        renaming = SimplicialMap.from_names(lhs, rhs, components)
        assert validate_map(renaming).holds
        for n in range(4):
            assert sorted(components[n].values()) == sorted(rhs.cells[n])


class TestTruncate:
    def test_truncate_drops_levels(self):
        X = builders.nerve(arrow_category(), 4)
        Y = truncate(X, 2)
        assert Y.level == 2 and Y.cells == X.cells[:3]
        assert validate(Y).holds

    def test_truncate_cannot_extend(self):
        with pytest.raises(LevelError):
            truncate(point(2), 3)


def brute_force_pullback(f, g, p, q):
    """Is some bijection A -> fiber product compatible with f and g?

    Direct definition: enumerate every assignment of A into the fiber
    product and test bijectivity plus commutation with the projections.
    """
    A = list(f)
    fp = [(b, c) for b in p for c in q if p[b] == q[c]]
    if len(A) != len(fp):
        return False
    for assignment in permutations(fp, len(A)):
        if all(assignment[i] == (f[a], g[a]) for i, a in enumerate(A)):
            return True
    return len(A) == 0


class TestIsPullbackSquare:
    def test_singletons(self):
        one = {"x": "y"}
        report = pullback_by_names({"x": "x"}, {"x": "x"}, {"x": "x"}, {"x": "x"})
        assert report.holds

    def test_fiber_product_by_construction(self):
        B = {"b0": "d0", "b1": "d1"}
        C = {"c0": "d0", "c1": "d0"}
        fp = [(b, c) for b in B for c in C if B[b] == C[c]]
        f = {str(pair): pair[0] for pair in fp}
        g = {str(pair): pair[1] for pair in fp}
        assert pullback_by_names(f, g, B, C).holds

    def test_empty_comparison_fails_with_zero_preimages(self):
        report = pullback_by_names({}, {}, {"b": "d"}, {"c": "d"})
        assert not report.holds
        assert report.witness.preimage_count == 0
        assert report.witness.element == ("b", "c")

    def test_duplicate_preimages_reported_in_order(self):
        f = {"a1": "b", "a2": "b"}
        g = {"a1": "c", "a2": "c"}
        report = pullback_by_names(f, g, {"b": "d"}, {"c": "d"})
        assert report.witness.preimage_count == 2
        assert report.witness.preimages == ("a1", "a2")

    def test_non_commuting_square_is_error(self):
        with pytest.raises(StructuralError, match="commute"):
            pullback_by_names(
                {"a": "b"}, {"a": "c"}, {"b": "d0"}, {"c": "d1", "d1": "d1"}
            )

    def test_agrees_with_brute_force_oracle(self):
        # all squares over small sets D = {0}, B, C, A of sizes <= 3
        labels = ["u", "v", "w"]
        for nb, nc, na in product(range(1, 3), range(1, 3), range(4)):
            B = {f"b{i}": "d" for i in range(nb)}
            C = {f"c{i}": "d" for i in range(nc)}
            pairs = [(b, c) for b in B for c in C]
            for f_vals in product(range(nb), repeat=na):
                for g_vals in product(range(nc), repeat=na):
                    f = {labels[a]: f"b{f_vals[a]}" for a in range(na)}
                    g = {labels[a]: f"c{g_vals[a]}" for a in range(na)}
                    got = pullback_by_names(f, g, B, C).holds
                    assert got == brute_force_pullback(f, g, B, C)


class TestSimplicialMaps:
    def test_identity_validates(self):
        X = builders.nerve(arrow_category(), 3)
        assert validate_map(identity_map(X)).holds

    def test_projection_from_top_decalage_validates(self):
        X = builders.nerve(arrow_category(), 3)
        _, proj = operators.dec_top(X)
        assert validate_map(proj).holds

    def test_corrupted_component_fails_named_generator(self):
        X = point(2)
        components = ({"*": "*"}, {"*": "*"}, {"*": "*"})
        Y = builders.nerve(arrow_category(), 2)
        swap = {c: Y.cells[1][0] for c in Y.cells[1]}
        broken = SimplicialMap.from_names(
            Y, Y, ({c: c for c in Y.cells[0]}, swap, {c: c for c in Y.cells[2]})
        )
        report = validate_map(broken)
        assert not report.holds
        assert "naturality fails for" in report.detail

    def test_dangling_component_is_structural_error(self):
        X = point(1)
        with pytest.raises(StructuralError, match="ghost"):
            validate_map(SimplicialMap.from_names(X, X, ({"*": "*"}, {"*": "ghost"})))

    @pytest.mark.parametrize("end", ["source", "target"])
    def test_malformed_end_is_structural_error_naming_it(self, end):
        # a table of the wrong length on either end used to raise
        # IndexError from the naturality comparison
        lm = builders.length_map(builders.bounded_words(("a",), 2), 3)
        X = getattr(lm, end)
        short = TruncatedSSet(X.level, X.cells, {**X.faces, (2, 1): ()}, X.degeneracies)
        ends = {"source": lm.source, "target": lm.target, end: short}
        m = SimplicialMap(ends["source"], ends["target"], lm.components)
        with pytest.raises(
            StructuralError, match=rf"^map {end}: d_1 at level 2 is not a tuple of"
        ):
            validate_map(m)

    def test_compose_maps(self):
        X = builders.nerve(arrow_category(), 3)
        _, proj = operators.dec_top(X)
        composite = compose_maps(identity_map(X), proj)
        assert validate_map(composite).holds
        assert composite.components == proj.components

    def test_compose_maps_mismatch(self):
        X, Y = point(2), builders.nerve(arrow_category(), 2)
        with pytest.raises(ValueError):
            compose_maps(identity_map(Y), identity_map(X))


class TestIsomorphismSearch:
    def test_renamed_copy_found(self):
        X = builders.nerve(z2_category(), 3)
        renamed = TruncatedSSet.from_names(
            X.level,
            tuple(tuple(f"cell:{c}" for c in cs) for cs in X.cells),
            {
                key: {f"cell:{a}": f"cell:{b}" for a, b in X.face_names(*key).items()}
                for key in X.faces
            },
            {
                key: {
                    f"cell:{a}": f"cell:{b}"
                    for a, b in X.degeneracy_names(*key).items()
                }
                for key in X.degeneracies
            },
        )
        assert are_isomorphic(X, renamed)

    def test_distinguishes_non_isomorphic(self):
        X = builders.nerve(arrow_category(), 2)
        Y = builders.nerve(z2_category(), 2)
        assert not are_isomorphic(X, Y)

    def test_counts_must_match(self):
        X = builders.nerve(parallel_pair_category(), 2)
        Y = builders.nerve(arrow_category(), 2)
        assert not are_isomorphic(X, Y)


def words(level=3):
    return builders.free_decomposition(builders.bounded_words(("a", "b"), 2), level)


def named(X):
    """X's tables keyed by cell names, as from_names takes them."""
    return (
        {key: X.face_names(*key) for key in X.faces},
        {key: X.degeneracy_names(*key) for key in X.degeneracies},
    )


#: Every route that makes a set or map, as the sets or maps it makes from
#: a caller's face and degeneracy dicts of words() (a builder reads none).
def _made_by(route):
    def made(faces, degeneracies):
        X = words()
        return route(TruncatedSSet(X.level, X.cells, faces, degeneracies))
    return made


ROUTES = {
    "constructor": _made_by(lambda X: [X]),
    "from_names": _made_by(lambda X: [TruncatedSSet.from_names(X.level, X.cells, *named(X))]),
    "nerve": lambda *_: [builders.nerve(arrow_category(), 3)],
    "from_partial_category": lambda *_: [
        builders.from_partial_category(one_gap_pcategory(), 3)
    ],
    "from_partial_monoid": lambda *_: [
        builders.from_partial_monoid(short_words_pmonoid(2), 3)
    ],
    "free_decomposition": lambda *_: [words()],
    "length_map": lambda *_: [builders.length_map(builders.bounded_words(("a",), 2), 3)],
    "opposite": _made_by(lambda X: [opposite(X)]),
    "truncate": _made_by(lambda X: [truncate(X, 2)]),
    "sd": _made_by(lambda X: [operators.sd(X)]),
    "dec_top": _made_by(lambda X: list(operators.dec_top(X))),
    "dec_bot": _made_by(lambda X: list(operators.dec_bot(X))),
    "sset_from_obj": _made_by(
        lambda X: [serialize.sset_from_obj(serialize.loads(serialize.dumps(
            serialize.sset_to_obj(X)
        )))]
    ),
    "smap_from_obj": _made_by(
        lambda X: [serialize.smap_from_obj(serialize.loads(serialize.dumps(
            serialize.smap_to_obj(operators.dec_top(X)[1])
        )))]
    ),
    "replace": lambda faces, degeneracies: [
        dataclasses.replace(words(), faces=faces, degeneracies=degeneracies)
    ],
    "copy": _made_by(lambda X: [copy.copy(X)]),
    "deepcopy": _made_by(lambda X: [copy.deepcopy(X)]),
    "pickle": _made_by(lambda X: [pickle.loads(pickle.dumps(X))]),
}


def _ior(tables, key):
    tables |= {key: ()}


#: Every method through which a dict changes, as (tables, key) -> None.
MUTATIONS = {
    "__setitem__": lambda tables, key: tables.__setitem__(key, ()),
    "__delitem__": lambda tables, key: tables.__delitem__(key),
    "pop": lambda tables, key: tables.pop(key),
    "popitem": lambda tables, key: tables.popitem(),
    "clear": lambda tables, key: tables.clear(),
    "update": lambda tables, key: tables.update({key: ()}),
    "setdefault": lambda tables, key: tables.setdefault(key, ()),
    "|=": _ior,
}


class TestReadOnlyTables:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_route_makes_read_only_tables(self, route):
        # every mutation of either mapping raises TypeError, a change to
        # the caller's dicts does not reach the set, and ==, repr and hash
        # read the set as one built from plain dicts
        X = words()
        faces, degeneracies = dict(X.faces), dict(X.degeneracies)
        sets = []
        for x in ROUTES[route](faces, degeneracies):
            if type(x) is SimplicialMap:
                with pytest.raises(TypeError):
                    x.components[0] = ()
                sets += [x.source, x.target]
            else:
                sets.append(x)
        plain = [(Z.level, Z.cells, dict(Z.faces), dict(Z.degeneracies)) for Z in sets]
        faces.clear()
        degeneracies[(0, 0)] = ()
        for Z, (level, cells, d, s) in zip(sets, plain):
            for tables in (Z.faces, Z.degeneracies):
                key = max(tables, default=(0, 0))
                for name, mutate in MUTATIONS.items():
                    with pytest.raises(TypeError):
                        mutate(tables, key)
                    assert (Z.faces, Z.degeneracies) == (d, s), name
                    assert {**Z.faces} == d and dict(Z.degeneracies) == s, name
            expected = (
                f"TruncatedSSet(level={level!r}, cells={cells!r}, faces={d!r}, "
                f"degeneracies={s!r})"
            )
            assert repr(Z) == expected
            assert Z == TruncatedSSet(level, cells, d, s)
            for x in (Z, Z.faces, d):
                with pytest.raises(TypeError):
                    hash(x)

    def test_read_only_input_is_kept(self):
        X = words()
        Y = TruncatedSSet(X.level, X.cells, X.faces, X.degeneracies)
        assert Y.faces is X.faces and Y.degeneracies is X.degeneracies
        assert dataclasses.replace(X).faces is X.faces
        assert type(pickle.loads(pickle.dumps(X.faces))) is type(X.faces)
