"""The three workloads: seeded inputs, the operations of one pass, and the
known answer of every operation.

Inputs depend only on ``variant = seed % VARIANTS``.  Goldens recorded at
the seed commit exist for every variant (``golden/``), so every operation
of every run is compared byte for byte with the seed commit's output.
The seed changes labels, listing order and, where the construction
allows it, structure, but never the number of cells per level.

Every call into the program goes through a module attribute
(``criteria.check_segal``, never a name imported from it), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import string
import subprocess
import sys
from dataclasses import dataclass
from operator import le
from pathlib import Path
from typing import Callable

from decompspace import builders, cli, criteria, operators, serialize, sset

import program

HERE = Path(__file__).resolve().parent
VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, variant: int) -> random.Random:
    return random.Random(f"{workload}/{variant}")


def _h(text: str | bytes, n: int = 8) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:n]


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()


@dataclass
class Outcome:
    code: int
    record: str
    problem: str | None = None


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` is the timed call.  ``observe`` turns its result into an exit
    code or verdict code (0 holds or succeeded, 1 fails) and the golden
    record; it runs untimed.  ``expect`` gives the known answer for the
    code, or None where theory gives none.  The runner stores the code in
    ``codes[key]`` so later operations of the same instance can refer to
    it.
    """

    name: str
    run: Callable[[], object]
    observe: Callable[[object], Outcome]
    expect: Callable[[], int | None]
    codes: dict | None = None
    key: str = ""
    prepare: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# seeded input descriptions (FORMATS.md builder inputs)

VERTEX_NAMES = [f"v{k}" for k in range(100)]


def regular_graph(rng: random.Random, vertices: int, degree: int) -> dict:
    """The union of ``degree`` seeded permutations of the vertices.

    Every vertex has ``degree`` outgoing and ``degree`` incoming edges, so
    every vertex starts and ends exactly degree**m paths of length m.  The
    cells per level and the fiber sizes of every face map of its free
    decomposition therefore do not depend on the seed; only the structure
    and the labels do.
    """
    names = rng.sample(VERTEX_NAMES, vertices)
    letters = iter(rng.sample(string.ascii_letters, vertices * degree))
    edges = []
    for _ in range(degree):
        targets = rng.sample(names, vertices)
        edges += [[next(letters), v, t] for v, t in zip(names, targets)]
    rng.shuffle(edges)
    return {"vertices": names, "edges": edges}


def _category_obj(rng, objects, arrows, identities, composition) -> dict:
    arrows, composition = list(arrows), list(composition)
    rng.shuffle(arrows)
    rng.shuffle(composition)
    return {
        "objects": list(objects),
        "morphisms": [list(a) for a in arrows],
        "identities": dict(identities),
        "composition": [list(c) for c in composition],
    }


def poset_category(rng, size: int, leq) -> dict:
    """A poset on ``size`` relabelled elements, listed in seeded order."""
    names = [f"p{k}" for k in rng.sample(range(100), size)]
    order = list(range(size))
    rng.shuffle(order)
    arrows = [
        (f"{names[a]}-{names[b]}", names[a], names[b])
        for a in order
        for b in order
        if leq(a, b)
    ]
    composition = [
        (f1, f2, f"{a}-{c}")
        for f1, a, b in arrows
        for f2, b2, c in arrows
        if b == b2
    ]
    identities = {names[a]: f"{names[a]}-{names[a]}" for a in order}
    return _category_obj(rng, [names[a] for a in order], arrows, identities, composition)


#: Monoids by size, as (name, product on indices 0..size-1) with unit 0.
#: A one-object category with k arrows has k**n chains of length n
#: whatever its product, so the seed may pick the structure.
MONOIDS = {
    2: [
        ("Z2", lambda x, y: (x + y) % 2),
        ("idempotent", lambda x, y: max(x, y)),
    ],
    3: [
        ("Z3", lambda x, y: (x + y) % 3),
        ("max", lambda x, y: max(x, y)),
        ("truncated-sum", lambda x, y: min(x + y, 2)),
        ("left-zero", lambda x, y: x if x and y else x + y),
    ],
}


def monoid_category(rng, size: int) -> dict:
    _, mult = rng.choice(MONOIDS[size])
    names = [f"m{k}" for k in rng.sample(range(100), size)]
    obj = rng.choice(["*", "o", "pt"])
    arrows = [(names[x], obj, obj) for x in range(size)]
    composition = [
        (names[x], names[y], names[mult(x, y)]) for x in range(size) for y in range(size)
    ]
    return _category_obj(rng, [obj], arrows, {obj: names[0]}, composition)


def parallel_pair(rng) -> dict:
    a, b = (f"o{k}" for k in rng.sample(range(100), 2))
    f, g = (f"f{k}" for k in rng.sample(range(100), 2))
    ia, ib = f"1{a}", f"1{b}"
    arrows = [(ia, a, a), (ib, b, b), (f, a, b), (g, a, b)]
    composition = [
        (ia, ia, ia), (ib, ib, ib), (ia, f, f), (f, ib, f), (ia, g, g), (g, ib, g)
    ]
    return _category_obj(rng, [a, b], arrows, {a: ia, b: ib}, composition)


def partial_category(rng, gap: bool) -> dict:
    """Two objects with arrows both ways.  With ``gap`` the two round trips
    are undefined; without it this is the (total) arrow category."""
    x, y = (f"o{k}" for k in rng.sample(range(100), 2))
    f, g = (f"f{k}" for k in rng.sample(range(100), 2))
    ix, iy = f"1{x}", f"1{y}"
    arrows = [(ix, x, x), (iy, y, y), (f, x, y)]
    composition = [(ix, ix, ix), (iy, iy, iy), (ix, f, f), (f, iy, f)]
    if gap:
        arrows.append((g, y, x))
        composition += [(iy, g, g), (g, ix, g)]
    return _category_obj(rng, [x, y], arrows, {x: ix, y: iy}, composition)


def _pmonoid_obj(rng, carrier, unit, product) -> dict:
    carrier, product = list(carrier), [list(p) for p in product]
    rng.shuffle(carrier)
    rng.shuffle(product)
    return {"carrier": carrier, "unit": unit, "product": product}


def _with_unit(unit, elements, product):
    rows = [(unit, x, x) for x in [unit, *elements]]
    rows += [(x, unit, x) for x in elements]
    return rows + list(product)


def pmonoid(rng, shape: str) -> dict:
    unit = rng.choice(["1", "e", "u"])
    x, y = rng.sample("abcdxyz", 2)
    if shape == "trivial":
        return _pmonoid_obj(rng, [unit], unit, [(unit, unit, unit)])
    if shape.startswith("words"):
        n = int(shape[len("words"):])
        def word(i):
            return x * i if i else unit

        product = [
            (word(i), word(j), word(i + j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i + j <= n
        ]
        elements = [word(i) for i in range(1, n + 1)]
        return _pmonoid_obj(rng, [unit, *elements], unit, _with_unit(unit, elements, product))
    if shape == "z2":
        return _pmonoid_obj(rng, [unit, x], unit, _with_unit(unit, [x], [(x, x, unit)]))
    if shape == "nilpotent":
        return _pmonoid_obj(rng, [unit, x], unit, _with_unit(unit, [x], []))
    if shape == "free-pair":
        elements = [x, y, x + y]
        return _pmonoid_obj(
            rng, [unit, *elements], unit, _with_unit(unit, elements, [(x, y, x + y)])
        )
    raise ValueError(shape)


def relabel_sset(obj: dict, rng) -> dict:
    """Rename and reorder the cells of a serialized simplicial set; the
    result is isomorphic to the input."""
    tag = rng.choice(string.ascii_lowercase)
    perms, cells = [], []
    for n, cs in enumerate(obj["cells"]):
        order = list(range(len(cs)))
        rng.shuffle(order)
        perms.append(order)
        cells.append([f"{tag}{n}.{j}" for j in range(len(cs))])
    inverse = [{old: new for new, old in enumerate(p)} for p in perms]

    def table(row, n, target):
        return [inverse[target][row[old]] for old in perms[n]]

    level = obj["level"]
    return {
        "format_version": obj["format_version"],
        "kind": "sset",
        "level": level,
        "cells": cells,
        "faces": [
            [table(row, n, n - 1) for row in obj["faces"][n - 1]]
            for n in range(1, level + 1)
        ],
        "degeneracies": [
            [table(row, n, n + 1) for row in obj["degeneracies"][n]]
            for n in range(level)
        ],
    }


# ---------------------------------------------------------------------------
# observing results


def _report_obj(report) -> dict:
    w = report.witness
    return {
        "holds": report.holds,
        "checked_level": report.checked_level,
        "squares_checked": report.squares_checked,
        "witness": None
        if w is None
        else {
            "square": w.square,
            "levels": list(w.levels),
            "element": list(w.element),
            "preimage_count": w.preimage_count,
            "preimages": list(w.preimages),
        },
        "detail": report.detail,
    }


def observe_report(report) -> Outcome:
    obj = _report_obj(report)
    witness = "-" if obj["witness"] is None else _h(json.dumps(obj["witness"], sort_keys=True))
    code = 0 if report.holds else 1
    record = f"{code}:{report.squares_checked}:{witness}:{_h(json.dumps(obj, sort_keys=True))}"
    return Outcome(code, record)


def _digest_record(*texts: str) -> Outcome:
    return Outcome(0, f"0:-:-:{_h(''.join(texts))}")


def observe_sset(X) -> Outcome:
    return _digest_record(serialize.dumps(serialize.sset_to_obj(X)))


def observe_ofc(A) -> Outcome:
    return _digest_record(serialize.dumps(serialize.ofc_to_obj(A)))


def observe_smap(f) -> Outcome:
    return _digest_record(serialize.dumps(serialize.smap_to_obj(f)))


def observe_dec(result) -> Outcome:
    Y, proj = result
    return _digest_record(
        serialize.dumps(serialize.sset_to_obj(Y)),
        serialize.dumps(serialize.smap_to_obj(proj)),
    )


def observe_category(C) -> Outcome:
    obj = {
        "objects": list(C.objects),
        "morphisms": [list(m) for m in C.morphisms],
        "identities": dict(C.identities),
        "composition": sorted([f, g, h] for (f, g), h in C.composition.items()),
    }
    return _digest_record(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# cli-paths


CLI = [sys.executable, "-m", "decompspace.cli"]


class CliPaths:
    """The main CLI path on the free decomposition of a seeded graph.

    Two vertices with two outgoing edges each give 2 * 2**m paths of
    length m, so every seed builds cells [2, 62, 258, 702, 1538, 2942,
    5122] at level 6.
    """

    name = "cli-paths"
    BOUND, LEVEL, RANK_CAP = 4, 6, 3

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.variant = variant_of(seed)
        self.dir = workdir
        self.in_process = in_process
        self.env = program.subprocess_env()

    def inputs(self) -> dict[str, bytes]:
        graph = regular_graph(_rng(self.name, self.variant), 2, 2)
        return {"graph.json": _json_bytes(graph)}

    def setup(self) -> None:
        for name, data in self.inputs().items():
            (self.dir / name).write_bytes(data)

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def _call(self, argv: list[str]):
        if not self.in_process:
            proc = subprocess.run(
                CLI + argv, env=self.env, capture_output=True, text=True, timeout=170
            )
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _op(self, name, argv, expect, outputs=(), must_contain=None, prepare=None):
        paths = [self.dir / o for o in outputs]

        def observe(result) -> Outcome:
            code, out, err = result
            problem = None
            if "Traceback" in err:
                problem = "traceback on stderr"
            elif must_contain is not None and must_contain not in out:
                problem = f"report lacks {must_contain!r}"
            squares = "-"
            for line in out.splitlines():
                if line.startswith("squares_checked: "):
                    squares = line.split(": ", 1)[1]
            witness = "\n".join(
                line for line in out.splitlines() if line.startswith("witness_")
            )
            fields = [str(code), squares, _h(witness) if witness else "-", _h(out)]
            for p in paths:
                if not p.is_file():
                    problem = problem or f"{p.name} not written"
                    continue
                fields.append(f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}")
            return Outcome(code, ":".join(fields), problem)

        return Op(name, lambda: self._call(argv), observe, lambda: expect, prepare=prepare)

    def pass_ops(self) -> list[Op]:
        p = self._path
        X, L = p("X.json"), p("L.json")
        written = ["X.json", "L.json", "T.json", "T.json.proj.json", "B.json",
                   "B.json.proj.json", "S.json", "O.json"]

        def clear_outputs():
            for name in written:
                (self.dir / name).unlink(missing_ok=True)

        ops = [
            self._op(
                "build",
                ["build", "graph-paths", "--input", p("graph.json"), "--bound",
                 str(self.BOUND), "--level", str(self.LEVEL), "--output", X,
                 "--length-map", L],
                0, ["X.json", "L.json"], prepare=clear_outputs,
            ),
            self._op("check-validate", ["check", "validate", X], 0),
            # A path of length 4 followed by an edge has no filler at n = 1.
            self._op("check-segal", ["check", "segal", X], 1,
                     must_contain="witness_square: segal n=1:"),
            self._op("check-decomp", ["check", "decomp", X], 0),
            self._op("check-twosegal", ["check", "twosegal", X], 0),
            self._op("check-culf-length", ["check", "culf", L], 0),
        ]
        for op, out in (("dec-top", "T"), ("dec-bot", "B"), ("sd", "S"), ("op", "O")):
            outputs = [f"{out}.json"] + ([f"{out}.json.proj.json"] if op.startswith("dec") else [])
            ops.append(self._op(f"transform-{op}", ["transform", op, X, "--output",
                                                     p(f"{out}.json")], 0, outputs))
        # Decalages and sd of a decomposition space are Segal; Segal is
        # self-dual, so the opposite fails like X does.
        for op, out, code in (("dec-top", "T", 0), ("dec-bot", "B", 0), ("sd", "S", 0),
                              ("op", "O", 1)):
            ops.append(self._op(f"check-segal-{op}", ["check", "segal", p(f"{out}.json")], code))
        for op, out in (("dec-top", "T"), ("dec-bot", "B")):
            ops.append(self._op(f"check-culf-{op}",
                                ["check", "culf", p(f"{out}.json.proj.json")], 0))
        ops.append(self._op("check-decomp-direct",
                            ["check", "decomp-direct", X, "--rank-cap", str(self.RANK_CAP)], 0))
        return ops

    def cells(self) -> dict[str, list[int]]:
        obj = serialize.read_file(self._path("X.json"))
        return {"X": [len(c) for c in obj["cells"]]}


# ---------------------------------------------------------------------------
# direct-sweep


class DirectSweep:
    """The direct active-inert checker at full rank cap, plus the polygonal
    checker in each of its modes, on free decompositions of seeded
    regular graphs built during set-up.

    Every operation gets a fresh copy of its instance, read back from the
    serialized form kept at set-up, so no state a call leaves on an
    object (a validation mark, a cache) carries over to the next call.
    """

    name = "direct-sweep"
    GRAPHS, VERTICES, DEGREE, BOUND, LEVEL, RANK_CAP = 6, 2, 1, 2, 6, 6
    MODES = ("full", "restricted", "upper", "lower")

    def __init__(self, seed: int, workdir: Path, in_process: bool = True):
        self.variant = variant_of(seed)
        self.dir = workdir
        self.instances: list = []

    def inputs(self) -> dict[str, bytes]:
        rng = _rng(self.name, self.variant)
        return {
            f"graph-{i}.json": _json_bytes(regular_graph(rng, self.VERTICES, self.DEGREE))
            for i in range(self.GRAPHS)
        }

    def setup(self) -> None:
        self.instances = []
        for name, data in self.inputs().items():
            path = self.dir / name
            path.write_bytes(data)
            G = serialize.graph_from_obj(serialize.read_file(str(path)), where=name)
            A = builders.graph_paths(G, self.BOUND)
            X = builders.free_decomposition(A, self.LEVEL)
            self.instances.append((path.stem, serialize.sset_to_obj(X)))

    def pass_ops(self) -> list[Op]:
        checks = [("direct", lambda X: criteria.check_decomposition_direct(
            X, rank_cap=self.RANK_CAP))]
        checks += [
            (f"polygonal-{mode}",
             lambda X, mode=mode: criteria.check_2segal_polygonal(X, mode=mode))
            for mode in self.MODES
        ]
        return [
            self._op(f"{name}/{check_name}", obj, check)
            for name, obj in self.instances
            for check_name, check in checks
        ]

    @staticmethod
    def _op(name: str, obj: dict, check) -> Op:
        fresh = {}

        def prepare():
            fresh["X"] = serialize.sset_from_obj(obj, where=name)

        # Free decompositions are decomposition spaces, hence 2-Segal.
        return Op(name, lambda: check(fresh.pop("X")), observe_report, lambda: 0,
                  prepare=prepare)

    def cells(self) -> dict[str, list[int]]:
        return {name: [len(c) for c in obj["cells"]] for name, obj in self.instances}


# ---------------------------------------------------------------------------
# lib-corpus


#: Known answers by instance kind, from theory:
#: - a nerve is Segal, hence a decomposition space: everything holds;
#: - a free decomposition is a decomposition space whose Segal condition
#:   fails once a composable pair exceeds the bound, which every free
#:   instance here has (regular graphs, nonempty alphabets, the
#:   terminal complex);
#: - a partial monoid or category is Segal exactly when its composition
#:   is total on composable pairs;
#: - the negative instances fail where their construction says they do.
CHECK_KEYS = ("validate", "segal", "iterated", "upper", "reduced", "lower", "decomp",
              "direct", "polygonal", "dec_top/segal", "dec_top/culf", "dec_bot/segal",
              "dec_bot/culf", "sd/segal", "length_map/culf")

NEGATIVE_FACTS = {
    "collapsed-triangle-L3": {"upper": 1, "lower": 1},
    "collapsed-triangle-L5": {"upper": 1, "lower": 1},
    "one-sided-upper-L3": {"upper": 0, "lower": 1},
    "one-sided-lower-L3": {"upper": 1, "lower": 0},
}


def _decomp_holds(c):
    return c.get("decomp") == 0


#: Equivalences proved in the literature, used where the kind fixes no
#: answer: Segal is iterated Segal; upper 2-Segal is its reduced form;
#: a decomposition space is upper and lower 2-Segal, is what the direct
#: and polygonal checkers test, has Segal decalages with culf
#: projections, and (at level >= 5, where sd has a square) a Segal sd.
EQUIVALENCES = {
    "validate": lambda c, level: 0,
    "iterated": lambda c, level: c.get("segal"),
    "reduced": lambda c, level: c.get("upper"),
    "decomp": lambda c, level: None
    if None in (c.get("upper"), c.get("lower"))
    else int(c["upper"] == 1 or c["lower"] == 1),
    "direct": lambda c, level: c.get("decomp"),
    "polygonal": lambda c, level: c.get("decomp"),
    "dec_top/segal": lambda c, level: 0 if _decomp_holds(c) else None,
    "dec_bot/segal": lambda c, level: 0
    if _decomp_holds(c)
    else (1 if c.get("dec_top/segal") == 0 and c.get("decomp") == 1 else None),
    "dec_top/culf": lambda c, level: 0 if _decomp_holds(c) else None,
    "dec_bot/culf": lambda c, level: 0 if _decomp_holds(c) else None,
    "sd/segal": lambda c, level: c.get("decomp") if level >= 5 else 0,
    "length_map/culf": lambda c, level: 0,
}


def _facts(kind: str, name: str, total: bool) -> dict[str, int]:
    if kind == "nerve":
        return {k: 0 for k in CHECK_KEYS}
    if kind == "free":
        return {**{k: 0 for k in CHECK_KEYS}, "segal": 1, "iterated": 1}
    if kind == "partial":
        return {"segal": 1 - total, "iterated": 1 - total}
    return dict(NEGATIVE_FACTS[name])


def _composition_total(obj: dict) -> bool:
    """Every composable pair of a category or partial monoid description
    has a composite."""
    if "carrier" in obj:
        defined = {(x, y) for x, y, _ in obj["product"]}
        return all((x, y) in defined for x in obj["carrier"] for y in obj["carrier"])
    ends = {name: (s, t) for name, s, t in obj["morphisms"]}
    defined = {(f, g) for f, g, _ in obj["composition"]}
    return all(
        (f, g) in defined for f in ends for g in ends if ends[f][1] == ends[g][0]
    )


#: Description kind -> the serialize reader that turns it into a builder input.
READERS = {
    "nerve": "category_from_obj",
    "twisted": "category_from_obj",
    "pmonoid": "pmonoid_from_obj",
    "pcategory": "partial_category_from_obj",
    "graph": "graph_from_obj",
}

#: Description kind -> the kind whose known answers apply.
FACT_KINDS = {
    "nerve": "nerve", "twisted": "nerve", "pmonoid": "partial", "pcategory": "partial",
    "graph": "free", "words": "free", "terminal": "free", "negative": "negative",
}


class LibCorpus:
    """About thirty small instances of every builder kind, called as a
    library: built, validated, run through the nine checkers, transformed
    by the decalages and sd, and checked again."""

    name = "lib-corpus"

    def __init__(self, seed: int, workdir: Path, in_process: bool = True):
        self.variant = variant_of(seed)
        self.dir = workdir
        self.instances: list[dict] = []

    def descriptions(self) -> list[dict]:
        rng = _rng(self.name, self.variant)
        out = []

        def add(name, kind, level, source, **extra):
            out.append({"name": name, "kind": kind, "level": level, "input": source, **extra})

        add("nerve-terminal-L3", "nerve", 3, poset_category(rng, 1, le))
        add("nerve-terminal-L5", "nerve", 5, poset_category(rng, 1, le))
        add("nerve-arrow-L3", "nerve", 3, poset_category(rng, 2, le))
        add("nerve-arrow-L4", "nerve", 4, poset_category(rng, 2, le))
        add("nerve-chain3-L3", "nerve", 3, poset_category(rng, 3, le))
        add("nerve-chain3-L5", "nerve", 5, poset_category(rng, 3, le))
        add("nerve-chain4-L4", "nerve", 4, poset_category(rng, 4, le))
        add("nerve-square-L4", "nerve", 4,
            poset_category(rng, 4, lambda a, b: a & b == a))
        add("nerve-monoid2-L3", "nerve", 3, monoid_category(rng, 2))
        add("nerve-monoid2-L5", "nerve", 5, monoid_category(rng, 2))
        add("nerve-monoid3-L4", "nerve", 4, monoid_category(rng, 3))
        add("nerve-parallel-L3", "nerve", 3, parallel_pair(rng))
        add("twisted-arrow-L3", "twisted", 3, poset_category(rng, 2, le))
        add("twisted-monoid2-L3", "twisted", 3, monoid_category(rng, 2))
        for shape, level in (("trivial", 3), ("words2", 4), ("words3", 5), ("z2", 3),
                             ("nilpotent", 3), ("free-pair", 4)):
            add(f"pmonoid-{shape}-L{level}", "pmonoid", level, pmonoid(rng, shape))
        add("pcategory-gap-L3", "pcategory", 3, partial_category(rng, gap=True))
        add("pcategory-arrow-L3", "pcategory", 3, partial_category(rng, gap=False))
        add("free-terminal2-L3", "terminal", 3, {"bound": 2})
        add("free-terminal3-L5", "terminal", 5, {"bound": 3})
        for k, bound, level in ((1, 1, 3), (2, 2, 3), (2, 2, 5), (1, 3, 5)):
            add(f"free-words{k}x{bound}-L{level}", "words", level,
                {"alphabet": rng.sample(string.ascii_lowercase, k), "max_len": bound})
        add("free-graph2x2-B2-L3", "graph", 3, regular_graph(rng, 2, 2), bound=2)
        add("free-graph3x1-B3-L4", "graph", 4, regular_graph(rng, 3, 1), bound=3)
        negatives = json.loads((HERE / "data" / "negatives.json").read_text())
        for name in sorted(negatives):
            add(name, "negative", negatives[name]["level"], relabel_sset(negatives[name], rng))
        return out

    def inputs(self) -> dict[str, bytes]:
        return {"corpus.json": _json_bytes(self.descriptions())}

    def setup(self) -> None:
        self.instances = []
        path = self.dir / "corpus.json"
        path.write_bytes(self.inputs()[path.name])
        for d in json.loads(path.read_text()):
            reader = READERS.get(d["kind"])
            source = d["input"]
            if reader is not None:
                source = getattr(serialize, reader)(source, where=d["name"])
            self.instances.append({**d, "source": source})

    def _build_ops(self, inst, state) -> list[tuple[str, Callable, Callable]]:
        kind, level, src = inst["kind"], inst["level"], inst["source"]
        if kind == "nerve":
            return [("build", lambda: builders.nerve(src, level), observe_sset)]
        if kind == "twisted":
            return [
                ("twisted_arrow", lambda: builders.twisted_arrow(src), observe_category),
                ("build", lambda: builders.nerve(state["twisted_arrow"], level), observe_sset),
            ]
        if kind == "pmonoid":
            return [("build", lambda: builders.from_partial_monoid(src, level), observe_sset)]
        if kind == "pcategory":
            return [("build", lambda: builders.from_partial_category(src, level),
                     observe_sset)]
        if kind == "negative":
            # Read afresh for every pass, as the other kinds are built afresh.
            state["build"] = serialize.sset_from_obj(src, where=inst["name"])
            return []
        ofc = {
            "graph": lambda: builders.graph_paths(src, inst["bound"]),
            "words": lambda: builders.bounded_words(tuple(src["alphabet"]), src["max_len"]),
            "terminal": lambda: builders.terminal_complex(src["bound"]),
        }[kind]
        return [
            ("ofc", ofc, observe_ofc),
            ("build", lambda: builders.free_decomposition(state["ofc"], level), observe_sset),
        ]

    def pass_ops(self) -> list[Op]:
        ops = []
        for inst in self.instances:
            ops.extend(self._instance_ops(inst))
        return ops

    def _instance_ops(self, inst) -> list[Op]:
        state: dict[str, object] = {}
        codes: dict[str, int] = {}
        kind = FACT_KINDS[inst["kind"]]
        total = kind == "partial" and _composition_total(inst["input"])
        facts = _facts(kind, inst["name"], total)
        level = inst["level"]

        def X():
            return state["build"]

        steps = self._build_ops(inst, state)
        steps += [
            ("validate", lambda: sset.validate(X()), observe_report),
            ("segal", lambda: criteria.check_segal(X()), observe_report),
            ("iterated", lambda: criteria.check_segal_iterated(X()), observe_report),
            ("upper", lambda: criteria.check_upper_2segal(X()), observe_report),
            ("reduced", lambda: criteria.check_upper_2segal_reduced(X()), observe_report),
            ("lower", lambda: criteria.check_lower_2segal(X()), observe_report),
            ("decomp", lambda: criteria.check_decomposition(X()), observe_report),
            ("direct", lambda: criteria.check_decomposition_direct(X()), observe_report),
            ("polygonal", lambda: criteria.check_2segal_polygonal(X()), observe_report),
        ]
        for dec in ("dec_top", "dec_bot"):
            steps += [
                (dec, lambda dec=dec: getattr(operators, dec)(X()), observe_dec),
                (f"{dec}/segal", lambda dec=dec: criteria.check_segal(state[dec][0]),
                 observe_report),
                (f"{dec}/culf", lambda dec=dec: criteria.check_culf(state[dec][1]),
                 observe_report),
            ]
        steps += [
            ("sd", lambda: operators.sd(X()), observe_sset),
            ("sd/segal", lambda: criteria.check_segal(state["sd"]), observe_report),
        ]
        if kind == "free":
            steps += [
                ("length_map", lambda: builders.length_map(state["ofc"], level), observe_smap),
                ("length_map/culf", lambda: criteria.check_culf(state["length_map"]),
                 observe_report),
            ]

        ops = []
        for key, call, observe in steps:
            def run(key=key, call=call):
                state[key] = result = call()
                return result

            def expect(key=key):
                if key in facts:
                    return facts[key]
                rule = EQUIVALENCES.get(key)
                return None if rule is None else rule(codes, level)

            ops.append(Op(f"{inst['name']}/{key}", run, observe, expect, codes, key))
        return ops

    def cells(self) -> dict[str, list[int]]:
        out = {}
        for inst in self.instances:
            X = self._cells_source(inst)
            out[inst["name"]] = [len(c) for c in X.cells]
        return out

    def _cells_source(self, inst):
        state: dict[str, object] = {}
        for key, call, _ in self._build_ops(inst, state):
            state[key] = call()
        return state["build"]


WORKLOADS = {w.name: w for w in (CliPaths, DirectSweep, LibCorpus)}
