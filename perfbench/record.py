"""Record the golden record of every operation of every workload variant.

    python3 perfbench/record.py [WORKLOAD ...]

The goldens pin the verdicts, squares_checked, witnesses, reports and
written files of the commit they were recorded at.  Every operation must
also match its known answer, or nothing is written.  Re-record only in a
change that fixes a documented correctness bug, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import program


def main(argv: list[str]) -> int:
    program.load()
    import run
    import workloads

    for name in argv or list(workloads.WORKLOADS):
        cls = workloads.WORKLOADS[name]
        golden = {"ops": [], "records": {}}
        for variant in range(workloads.VARIANTS):
            workdir = run.WORK / f"record-{name}-{variant}"
            workdir.mkdir(parents=True)
            failures: list[str] = []
            try:
                workload = cls(variant, workdir, in_process=True)
                workload.setup()
                ops = workload.pass_ops()
                _, records = run.run_pass(ops, None, failures)
            finally:
                shutil.rmtree(workdir)
            if failures:
                print(f"{name} variant {variant}: not recorded", file=sys.stderr)
                for line in failures:
                    print(f"  {line}", file=sys.stderr)
                return 1
            golden["ops"] = [op.name for op in ops]
            golden["records"][str(variant)] = records
            print(f"{name} variant {variant}: {len(records)} operations")
        path = run.GOLDEN / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
