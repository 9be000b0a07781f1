"""Batch front end: build, transform and check objects stored as JSON.

Exit codes: 0 the check holds (or the command succeeded), 1 the check
fails, 2 schema or usage errors (including a path that cannot be read
or written, a file that is not UTF-8, and a negative --rank-cap or
DECOMP_MAX_SQUARES), 3 builder preconditions, inputs that are not
simplicial sets (transform validates its input as the checkers do) or
level shortfalls, 4 the check is inconclusive: the DECOMP_MAX_SQUARES
budget cut the direct decomposition walk off before its last square,
and no square checked so far failed.  Reports print as key: value
lines, or as JSON with --format=machine; the verdict is one of
holds-at-checked-depth, fails and inconclusive.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import builders, criteria, operators, serialize
from .sset import CheckReport, LevelError, StructuralError, opposite, validate

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4


class SystemExit2(Exception):
    """Usage problems surfaced with exit code 2."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decompspace",
        description="build, transform and certify finite truncated simplicial sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct an object and serialize it")
    build.add_argument(
        "kind",
        choices=[
            "nerve",
            "pmonoid",
            "pcategory",
            "free",
            "words",
            "graph-paths",
            "twisted-arrow",
            "terminal-ofc",
        ],
    )
    build.add_argument("--input", help="input description file (JSON)")
    build.add_argument("--level", type=int, help="truncation level of the output")
    build.add_argument("--bound", type=int, help="top degree of an outer face complex")
    build.add_argument("--alphabet", help="letters for the words complex, e.g. 'ab'")
    build.add_argument("--max-len", type=int, help="maximum word length")
    build.add_argument(
        "--length-map",
        help="also write the length map of a freely generated object here",
    )
    build.add_argument("--output", required=True)

    check = sub.add_parser("check", help="run a criterion and report the verdict")
    check.add_argument(
        "criterion",
        choices=[
            "validate",
            "segal",
            "upper2segal",
            "lower2segal",
            "twosegal",
            "decomp",
            "decomp-direct",
            "culf",
        ],
    )
    check.add_argument("input")
    check.add_argument("--rank-cap", type=int, help="rank cap for decomp-direct")
    check.add_argument("--format", choices=["text", "machine"], default="text")

    transform = sub.add_parser("transform", help="apply an operator and serialize")
    transform.add_argument("op", choices=["dec-top", "dec-bot", "sd", "op"])
    transform.add_argument("input")
    transform.add_argument("--output", required=True)
    transform.add_argument(
        "--map-output", help="where to write the projection map (dec variants)"
    )
    return parser


def _load_sset(path: str):
    return serialize.sset_from_obj(serialize.read_file(path), where=path)


def _cmd_build(args) -> int:
    kind = args.kind

    def need(flag: str, value):
        if value is None:
            raise SystemExit2(f"build {kind} requires {flag}")
        return value

    def read(parse):
        return parse(serialize.read_file(need("--input", args.input)), where=args.input)

    # only an outer face complex freely completed to a level has a length
    # map; reject the rest before anything is built or written
    if args.length_map is not None and (
        kind not in ("free", "words", "graph-paths", "terminal-ofc")
        or (args.level is None and kind != "free")
    ):
        raise SystemExit2(
            "--length-map needs a freely generated build (--level plus an "
            "outer face complex kind)"
        )
    lmap = None

    def free(A: builders.OuterFaceComplex, level: int):
        # with --length-map, build once: the map's source is the object
        nonlocal lmap
        if args.length_map is None:
            return builders.free_decomposition(A, level)
        lmap = builders.length_map(A, level)
        return lmap.source

    if kind == "nerve":
        C = read(serialize.category_from_obj)
        result = builders.nerve(C, need("--level", args.level))
    elif kind == "twisted-arrow":
        C = read(serialize.category_from_obj)
        result = builders.nerve(builders.twisted_arrow(C), need("--level", args.level))
    elif kind == "pmonoid":
        M = read(serialize.pmonoid_from_obj)
        result = builders.from_partial_monoid(M, need("--level", args.level))
    elif kind == "pcategory":
        C = read(serialize.partial_category_from_obj)
        result = builders.from_partial_category(C, need("--level", args.level))
    elif kind == "free":
        ofc = read(serialize.ofc_from_obj)
        result = free(ofc, need("--level", args.level))
    elif kind == "words":
        alphabet = tuple(need("--alphabet", args.alphabet))
        ofc = builders.bounded_words(alphabet, need("--max-len", args.max_len))
        result = ofc if args.level is None else free(ofc, args.level)
    elif kind == "graph-paths":
        G = read(serialize.graph_from_obj)
        ofc = builders.graph_paths(G, need("--bound", args.bound))
        result = ofc if args.level is None else free(ofc, args.level)
    elif kind == "terminal-ofc":
        ofc = builders.terminal_complex(need("--bound", args.bound))
        result = ofc if args.level is None else free(ofc, args.level)
    else:  # pragma: no cover - argparse filters kinds
        raise SystemExit2(f"unknown kind {kind}")

    if isinstance(result, builders.OuterFaceComplex):
        serialize.write_file(args.output, serialize.ofc_to_obj(result))
    else:
        serialize.write_file(args.output, serialize.sset_to_obj(result))
    if lmap is not None:
        serialize.write_file(args.length_map, serialize.smap_to_obj(lmap))
    return EXIT_HOLDS


def _render(report: CheckReport, criterion: str, fmt: str) -> str:
    if fmt == "machine":
        obj = {
            "criterion": criterion,
            "verdict": report.verdict,
            "holds": report.holds,
            "checked_level": report.checked_level,
            "squares_checked": report.squares_checked,
            "witness": None
            if report.witness is None
            else {
                "square": report.witness.square,
                "levels": list(report.witness.levels),
                "element": list(report.witness.element),
                "preimage_count": report.witness.preimage_count,
                "preimages": list(report.witness.preimages),
            },
            "detail": report.detail,
        }
        return serialize.dumps(obj)
    lines = [
        f"criterion: {criterion}",
        f"verdict: {report.verdict}",
        f"checked_level: {report.checked_level}",
        f"squares_checked: {report.squares_checked}",
    ]
    if report.witness is not None:
        lines.append(f"witness_square: {report.witness.square}")
        lines.append(f"witness_element: {report.witness.element}")
        lines.append(f"witness_preimage_count: {report.witness.preimage_count}")
        lines.append(f"witness_preimages: {list(report.witness.preimages)}")
    if report.detail is not None:
        lines.append(f"detail: {report.detail}")
    return "\n".join(lines) + "\n"


def _square_budget() -> int | None:
    """DECOMP_MAX_SQUARES as a nonnegative int, or None when unset or empty."""
    budget = os.environ.get("DECOMP_MAX_SQUARES")
    if not budget:
        return None
    try:
        value = int(budget)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise SystemExit2(
            f"DECOMP_MAX_SQUARES must be a nonnegative integer, got {budget!r}"
        )
    return value


def _cmd_check(args) -> int:
    budget = None
    if args.criterion == "decomp-direct":
        if args.rank_cap is not None and args.rank_cap < 0:
            raise SystemExit2(f"--rank-cap must be nonnegative, got {args.rank_cap}")
        budget = _square_budget()
    if args.criterion == "culf":
        smap = serialize.smap_from_obj(serialize.read_file(args.input), where=args.input)
        report = criteria.check_culf(smap)
    else:
        X = _load_sset(args.input)
        if args.criterion == "validate":
            report = validate(X)
        elif args.criterion == "segal":
            report = criteria.check_segal(X)
        elif args.criterion == "upper2segal":
            report = criteria.check_upper_2segal(X)
        elif args.criterion == "lower2segal":
            report = criteria.check_lower_2segal(X)
        elif args.criterion == "twosegal":
            report = criteria.check_2segal_polygonal(X)
        elif args.criterion == "decomp":
            report = criteria.check_decomposition(X)
        else:
            report = criteria.check_decomposition_direct(
                X, rank_cap=args.rank_cap, max_squares=budget
            )
    sys.stdout.write(_render(report, args.criterion, args.format))
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS if report.holds else EXIT_FAILS


def _cmd_transform(args) -> int:
    X = _load_sset(args.input)
    criteria._require_valid(X)
    proj = None
    if args.op == "dec-top":
        result, proj = operators.dec_top(X)
    elif args.op == "dec-bot":
        result, proj = operators.dec_bot(X)
    elif args.op == "sd":
        result = operators.sd(X)
    else:
        result = opposite(X)
    serialize.write_file(args.output, serialize.sset_to_obj(result))
    if proj is not None:
        map_path = args.map_output or args.output + ".proj.json"
        serialize.write_file(map_path, serialize.smap_to_obj(proj))
    elif args.map_output is not None:
        raise SystemExit2("--map-output only applies to dec transforms")
    return EXIT_HOLDS


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_transform(args)
    except (serialize.SchemaError, SystemExit2, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (StructuralError, LevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
