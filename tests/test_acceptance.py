"""Acceptance suite: the nine exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is also a hard assertion, so the suite is green only if every
criterion passes exactly as stated.
"""

import math
from itertools import product as iproduct

from corpus import corpus, paper_graph
from decompspace import builders, criteria, delta, operators
from decompspace.sset import SimplicialMap, validate, validate_map
from oracles import assert_pushout, factorization_buckets, inert_tuples, monotone_tuples


def report(number, description, ok):
    print(f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_unitality():
    instances = corpus()
    nerves = [i for i in instances if i.kind == "nerve"]
    pmonoids = [i for i in instances if i.kind == "pmonoid"]
    frees = [i for i in instances if i.kind == "free"]
    negatives = [i for i in instances if i.kind == "negative"]
    assert len(instances) >= 20
    assert len(pmonoids) >= 5
    assert len({id(i.ofc) for i in frees}) >= 5
    assert negatives and all(i.X.level in (3, 4, 5) for i in instances)
    disagreements = []
    for inst in instances:
        direct = criteria.check_decomposition_direct(inst.X).holds
        both = (
            criteria.check_upper_2segal(inst.X).holds
            and criteria.check_lower_2segal(inst.X).holds
        )
        if direct != both:
            disagreements.append(inst.name)
    report(
        1,
        f"unitality: direct checker == upper & lower 2-Segal on "
        f"{len(instances)} instances ({len(nerves)} nerves, {len(pmonoids)} "
        f"partial monoids, {len(frees)} free, {len(negatives)} derived)",
        not disagreements,
    )


def test_criterion_2_path_space():
    disagreements = []
    for inst in corpus():
        top, _ = operators.dec_top(inst.X)
        bot, _ = operators.dec_bot(inst.X)
        both_segal = (
            criteria.check_segal(top).holds and criteria.check_segal(bot).holds
        )
        if both_segal != criteria.check_decomposition(inst.X).holds:
            disagreements.append(inst.name)
    report(
        2,
        "path space: decomposition == both decalages Segal, whole corpus",
        not disagreements,
    )


def test_criterion_3_edgewise():
    checked, disagreements = 0, []
    for inst in corpus():
        if inst.X.level < 5:
            continue
        checked += 1
        lhs = criteria.check_segal(operators.sd(inst.X)).holds
        rhs = criteria.check_decomposition(inst.X).holds
        if lhs != rhs:
            disagreements.append(inst.name)
    report(
        3,
        f"edgewise: decomposition == sd Segal on {checked} instances at level >= 5",
        checked >= 5 and not disagreements,
    )


def test_criterion_4_paper_graph_instance():
    A = builders.graph_paths(paper_graph(), 2)
    ok = sorted(A.grades[2]) == ["ab", "ac", "bd", "cd", "da", "de", "ea", "ee"]
    ok = ok and "ac" in A.grades[2] and "ee" in A.grades[2]
    ok = ok and "bc" not in A.grades[2] and "eb" not in A.grades[2]
    X = builders.free_decomposition(A, 3)
    ok = ok and criteria.check_decomposition(X).holds
    ok = ok and criteria.check_culf(builders.length_map(A, 3)).holds
    report(4, "paper graph: path grades, decomposition, culf length map", ok)


def test_criterion_5_words_instance():
    A = builders.bounded_words(("a", "b"), 2)
    X = builders.free_decomposition(A, 3)

    def oracle_count(k):
        total = 0
        for parts in iproduct(range(A.bound + 1), repeat=k):
            if sum(parts) <= A.bound:
                total += len(A.grades[sum(parts)])
        return total

    ok = len(X.cells[1]) == 7 == oracle_count(1)
    ok = ok and len(X.cells[2]) == 17 == oracle_count(2)
    segal = criteria.check_segal(X)
    ok = ok and not segal.holds and max(segal.witness.levels) == 2
    ok = ok and criteria.check_decomposition(X).holds
    report(5, "bounded words over 2 letters: 7 edges, 17 triangles, "
              "Segal fails at level 2, decomposition holds", ok)


def twisted_chain_components(C, Z):
    """The explicit cell bijection from sd(nerve C) to nerve(tw C).

    A (2q+1)-chain (g_1, ..., g_{2q+1}) corresponds to the chain of
    factorizations built outward from the middle arrow: the t-th step
    reuses g_{q+1-t} on the source side and g_{q+1+t} on the target
    side.
    """
    components = []
    for q in range(Z.level + 1):
        comp = {}
        for cell in Z.cells[q]:
            names = cell.split("|")
            middle = names[q]
            obj = middle
            arrows = []
            for t in range(1, q + 1):
                h, k = names[q - t], names[q + t]
                arrows.append(f"[{h}|{obj}|{k}]")
                obj = C.composition[(C.composition[(h, obj)], k)]
            comp[cell] = names[0] if q == 0 else "|".join(arrows)
        components.append(comp)
    return tuple(components)


def test_criterion_6_twisted_arrow_identity():
    from corpus import (
        arrow_category,
        chain_category,
        idempotent_monoid_category,
        parallel_pair_category,
        square_poset_category,
        terminal_category,
        z2_category,
        z3_category,
    )

    categories = [
        ("terminal", terminal_category()),
        ("arrow", arrow_category()),
        ("chain3", chain_category(3)),
        ("chain4", chain_category(4)),
        ("z2", z2_category()),
        ("z3", z3_category()),
        ("square", square_poset_category()),
        ("parallel", parallel_pair_category()),
        ("idempotent", idempotent_monoid_category()),
    ]
    ok = True
    for name, C in categories:
        X = builders.nerve(C, 5)
        Z = operators.sd(X)
        W = builders.nerve(builders.twisted_arrow(C), Z.level)
        if [len(c) for c in Z.cells] != [len(c) for c in W.cells]:
            ok = False
            break
        components = twisted_chain_components(C, Z)
        renaming = SimplicialMap.from_names(Z, W, components)
        if not validate_map(renaming).holds:
            ok = False
            break
        if any(
            sorted(components[q].values()) != sorted(W.cells[q])
            for q in range(Z.level + 1)
        ):
            ok = False
            break
    report(
        6,
        f"twisted arrow: sd(nerve C) isomorphic to nerve(tw C) for "
        f"{len(categories)} categories",
        ok,
    )


def test_criterion_7_delta_core_exactness():
    buckets = factorization_buckets(4)
    ok = all(len(pairs) == 1 for pairs in buckets.values())
    ok = ok and all(
        (f, m) in buckets
        for n in range(5)
        for m in range(5)
        for f in monotone_tuples(n + 1, m)
    )
    squares = 0
    for n in range(5):
        for k in range(n, 5):
            for m in range(5):
                for alpha, iota, theta, phi in delta.active_inert_squares(n, k, m):
                    assert_pushout(alpha, iota, theta, phi, k - n + m, max_cocone_rank=3)
                    squares += 1
    for n in range(6):
        for k in range(6):
            ok = ok and len(inert_tuples(n, k)) == max(k - n + 1, 0)
    for n in range(1, 6):
        for m in range(6):
            ok = ok and len(delta.active_values(n, m)) == math.comb(m + n - 1, n - 1)
    report(
        7,
        f"simplex category: unique factorization (ranks <= 4), pushout "
        f"universal property on {squares} squares, closed-form counts",
        ok,
    )


def test_criterion_8_culf_projections():
    failures = []
    for inst in corpus():
        if not criteria.check_decomposition(inst.X).holds:
            continue
        _, proj_top = operators.dec_top(inst.X)
        _, proj_bot = operators.dec_bot(inst.X)
        if not criteria.check_culf(proj_top).holds:
            failures.append((inst.name, "top"))
        if not criteria.check_culf(proj_bot).holds:
            failures.append((inst.name, "bot"))
    for inst in corpus():
        if inst.ofc is None:
            continue
        if not criteria.check_culf(builders.length_map(inst.ofc, inst.X.level)).holds:
            failures.append((inst.name, "length"))
    report(
        8,
        "culf: both decalage projections on every decomposition space, "
        "and every free length map",
        not failures,
    )


def test_criterion_9_checker_equivalences():
    disagreements = []
    for inst in corpus():
        upper = criteria.check_upper_2segal(inst.X).holds
        reduced = criteria.check_upper_2segal_reduced(inst.X).holds
        polygonal = criteria.check_2segal_polygonal(inst.X, mode="upper").holds
        if not upper == reduced == polygonal:
            disagreements.append(inst.name)
    report(
        9,
        "equivalences: upper == reduced == polygonal upper half, whole corpus",
        not disagreements,
    )
