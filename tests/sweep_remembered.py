"""Remembered against fresh, on every small one-vertex set.

Runs checked_sequence (test_square_engine) on each of the 1,835 sets
that test_properties.one_vertex_generators gives: the 449 sets at level
2, the same sets at level 3, and the 937 ways to glue a 3-simplex onto a
one-loop set.  For each, every check and operator of the sequence on the
very objects the operators made, which find and pass on the records of
earlier checks, must give what it gives on copies that carry no record.
A mismatch is a soundness bug in a remembered path.

    python tests/sweep_remembered.py

prints the number of sets, the mismatches and the time taken (about
10 s on a 2-core host), and exits 1 if there is a mismatch.  Its name is
not a test module's, so pytest does not collect it; it imports the test
modules for their generators and sequence.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from decompspace.sset import truncate
from test_properties import (
    one_vertex_generators,
    sset_from_generators,
    with_a_3_simplex,
)
from test_square_engine import checked_sequence


def sweep_sets():
    """The 1,835 sets, each with a name for a report."""
    for k, (n_loops, generators) in enumerate(one_vertex_generators()):
        X = sset_from_generators(generators, 3)
        yield f"set{k}-L2", truncate(X, 2)
        yield f"set{k}-L3", X
        if n_loops == 1:
            for j, Y in enumerate(with_a_3_simplex(X)):
                yield f"set{k}-glued{j}", Y


def main() -> int:
    start = time.perf_counter()
    sets, mismatches = 0, []
    for name, X in sweep_sets():
        sets += 1
        if checked_sequence(X, fresh=False) != checked_sequence(X, fresh=True):
            mismatches.append(name)
    seconds = time.perf_counter() - start
    print(f"{sets} sets, {len(mismatches)} mismatches, {seconds:.1f} s")
    for name in mismatches[:20]:
        print("mismatch:", name)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
