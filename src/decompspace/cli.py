"""Batch front end: build, transform and check objects stored as JSON.

Exit codes: 0 the check holds (or the command succeeded), 1 the check
fails, 2 schema or usage errors (including a path that cannot be read
or written, a file that is not UTF-8 or not a JSON object, a negative
--level, --bound, --max-len, --rank-cap or DECOMP_MAX_SQUARES, a build
flag its kind does not read, such as --bound for nerve, and --rank-cap
with a criterion other than decomp-direct), 3 builder
preconditions, inputs that are not simplicial sets (transform validates
its input as the checkers do) or level shortfalls, 4 the check is
inconclusive: the
DECOMP_MAX_SQUARES budget cut the direct decomposition walk off before
its last square, and no square checked so far failed.  Reports print as
key: value lines, or as JSON with --format=machine; the verdict is one
of holds-at-checked-depth, fails and inconclusive.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4


class SystemExit2(Exception):
    """Usage problems surfaced with exit code 2."""


#: Each check criterion and the name of its checker in criteria (validate
#: is sset's), looked up once the arguments parse, so that usage errors
#: import no library module.
_CRITERIA = {
    "validate": "validate",
    "segal": "check_segal",
    "upper2segal": "check_upper_2segal",
    "lower2segal": "check_lower_2segal",
    "twosegal": "check_2segal_polygonal",
    "decomp": "check_decomposition",
    "decomp-direct": "check_decomposition_direct",
    "culf": "check_culf",
}


#: Each build kind and the flags it reads besides --level, which every
#: kind reads; a build given any other of these flags is a usage error.
_BUILD_FLAGS = {
    "nerve": ("--input",),
    "pmonoid": ("--input",),
    "pcategory": ("--input",),
    "free": ("--input",),
    "words": ("--alphabet", "--max-len"),
    "graph-paths": ("--input", "--bound"),
    "twisted-arrow": ("--input",),
    "terminal-ofc": ("--bound",),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decompspace",
        description="build, transform and certify finite truncated simplicial sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct an object and serialize it")
    build.add_argument("kind", choices=list(_BUILD_FLAGS))
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
    check.add_argument("criterion", choices=list(_CRITERIA))
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


def _separate_outputs(flag: str, path: str | None, output: str) -> None:
    """Reject a second output path that names the file --output names,
    since writing both would leave only the second."""
    if path is not None and os.path.realpath(path) == os.path.realpath(output):
        raise SystemExit2(f"--output and {flag} name the same file {output!r}")


def _load_sset(path: str):
    from . import serialize

    return serialize.sset_from_obj(serialize.read_file(path), where=path)


def _cmd_build(args) -> int:
    from . import builders, serialize

    kind = args.kind

    def need(flag: str, value):
        if value is None:
            raise SystemExit2(f"build {kind} requires {flag}")
        return value

    def read(parse):
        return parse(serialize.read_file(need("--input", args.input)), where=args.input)

    # reject before anything is read, built or written: a flag the kind
    # does not read, negative sizes, a length map of anything but an
    # outer face complex freely completed to a level, and a length map on
    # the path of the output
    flags = {"--input": args.input, "--alphabet": args.alphabet, "--level": args.level,
             "--bound": args.bound, "--max-len": args.max_len}
    for flag, value in flags.items():
        if value is not None and flag not in ("--level", *_BUILD_FLAGS[kind]):
            raise SystemExit2(f"{flag} does not apply to build {kind}")
        if isinstance(value, int) and value < 0:
            raise SystemExit2(f"{flag} must be nonnegative, got {value}")
    if args.length_map is not None and (
        kind not in ("free", "words", "graph-paths", "terminal-ofc")
        or (args.level is None and kind != "free")
    ):
        raise SystemExit2(
            "--length-map needs a freely generated build (--level plus an "
            "outer face complex kind)"
        )
    _separate_outputs("--length-map", args.length_map, args.output)
    also: list[tuple[str, dict]] = []

    def free(A: builders.OuterFaceComplex, level: int):
        # with --length-map, build once: the map's source is the object,
        # and the map is written with it
        if args.length_map is None:
            return builders.free_decomposition(A, level)
        lmap = builders.length_map(A, level)
        also.append((args.length_map, serialize.smap_to_obj(lmap)))
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
        result = builders.bounded_words(alphabet, need("--max-len", args.max_len))
    elif kind == "graph-paths":
        G = read(serialize.graph_from_obj)
        result = builders.graph_paths(G, need("--bound", args.bound))
    else:  # terminal-ofc, since argparse filters kinds
        result = builders.terminal_complex(need("--bound", args.bound))
    # an outer face complex is completed freely when --level is given
    if isinstance(result, builders.OuterFaceComplex) and args.level is not None:
        result = free(result, args.level)

    if isinstance(result, builders.OuterFaceComplex):
        obj = serialize.ofc_to_obj(result)
    else:
        obj = serialize.sset_to_obj(result)
    serialize.write_file(args.output, obj, *also)
    return EXIT_HOLDS


def _render(report, criterion: str, fmt: str) -> str:
    if fmt == "machine":
        import dataclasses

        from . import serialize

        # the report's fields but inconclusive, which the verdict tells
        obj = dataclasses.asdict(report)
        del obj["inconclusive"]
        obj.update(criterion=criterion, verdict=report.verdict)
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
    from . import criteria, serialize, sset

    budget = None
    if args.rank_cap is not None and args.criterion != "decomp-direct":
        raise SystemExit2("--rank-cap only applies to decomp-direct")
    if args.criterion == "decomp-direct":
        if args.rank_cap is not None and args.rank_cap < 0:
            raise SystemExit2(f"--rank-cap must be nonnegative, got {args.rank_cap}")
        budget = _square_budget()
    module = sset if args.criterion == "validate" else criteria
    check = getattr(module, _CRITERIA[args.criterion])
    if args.criterion == "culf":
        report = check(
            serialize.smap_from_obj(serialize.read_file(args.input), where=args.input)
        )
    elif args.criterion == "decomp-direct":
        report = check(_load_sset(args.input), rank_cap=args.rank_cap, max_squares=budget)
    else:
        report = check(_load_sset(args.input))
    sys.stdout.write(_render(report, args.criterion, args.format))
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS if report.holds else EXIT_FAILS


def _cmd_transform(args) -> int:
    # reject before anything is read or written
    if args.map_output is not None and args.op not in ("dec-top", "dec-bot"):
        raise SystemExit2("--map-output only applies to dec transforms")
    _separate_outputs("--map-output", args.map_output, args.output)
    from . import operators, serialize
    from .sset import _valid_call, opposite

    X = _load_sset(args.input)
    _valid_call(X)
    proj = None
    if args.op == "dec-top":
        result, proj = operators.dec_top(X)
    elif args.op == "dec-bot":
        result, proj = operators.dec_bot(X)
    elif args.op == "sd":
        result = operators.sd(X)
    else:
        result = opposite(X)
    also = []
    if proj is not None:
        map_path = args.map_output or args.output + ".proj.json"
        also.append((map_path, serialize.smap_to_obj(proj)))
    serialize.write_file(args.output, serialize.sset_to_obj(result), *also)
    return EXIT_HOLDS


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # each command imports the modules it runs, so --help and usage errors
    # load no library module
    from .serialize import SchemaError
    from .sset import LevelError, StructuralError

    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_transform(args)
    except (SchemaError, SystemExit2, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (StructuralError, LevelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
