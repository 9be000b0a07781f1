"""Digest the operation records of one pass of each benchmark workload.

For the tree at ROOT (the repository holding this script by default),
runs one pass of each workload in perfbench/workloads.py, in process,
and prints, per workload, the first 16 hex digits of the sha256 of its
``name=record`` lines, one per operation and each ending in a newline:
lib-corpus and direct-sweep at seeds 1-3, cli-paths at seeds 1-2.  A
record holds an operation's verdict, squares_checked, witness and
output digests, so two trees whose digests agree give byte-identical
outputs on these passes.  It also prints the square decisions of the
seed-1 pass of lib-corpus and direct-sweep, counted by wrapping the
decide of both of sset's encodings.

    python tests/digest_workloads.py [ROOT]

Standard library only, plus the tree's own perfbench/workloads.py,
which it imports and never changes; each pass runs in a temporary
directory that is removed afterwards.  Its name is not a test module's,
so pytest does not collect it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path[:0] = [str(ROOT.resolve() / "src"), str(ROOT.resolve() / "perfbench")]

from decompspace import sset  # noqa: E402
import workloads  # noqa: E402

#: The seeds of each workload's passes.
SEEDS = {"lib-corpus": (1, 2, 3), "direct-sweep": (1, 2, 3), "cli-paths": (1, 2)}


def pass_records(name: str, seed: int) -> list[str]:
    """The name=record line of each operation of one pass, in process."""
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.WORKLOADS[name](seed, Path(tmp), in_process=True)
        workload.setup()
        lines = []
        for op in workload.pass_ops():
            if op.prepare is not None:
                op.prepare()
            outcome = op.observe(op.run())
            if op.codes is not None:
                op.codes[op.key] = outcome.code
            lines.append(f"{op.name}={outcome.record}")
        return lines


def counting_decisions() -> list[int]:
    """Wrap the decide of both encodings so that each decision adds one
    to the returned counter."""
    count = [0]
    for encoding in ("_TUPLES", "_BYTES"):
        code = getattr(sset, encoding)

        def decide(*args, inner=code.decide, **kwargs):
            count[0] += 1
            return inner(*args, **kwargs)

        setattr(sset, encoding, code._replace(decide=decide))
    return count


def main() -> None:
    decisions = counting_decisions()
    for name, seeds in SEEDS.items():
        lines = []
        for seed in seeds:
            before = decisions[0]
            lines += pass_records(name, seed)
            if seed == 1:
                decided = decisions[0] - before
        text = "".join(line + "\n" for line in lines)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        tail = f", {decided} square decisions at seed 1" if name != "cli-paths" else ""
        print(f"{name}: {digest}{tail}")


if __name__ == "__main__":
    main()
