"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

- Seeded inputs: the same seed gives byte-identical inputs; another seed
  gives other inputs with the same cells per level.
- Wrapper completeness: traced, check_decomposition_direct at rank cap 4
  on free_decomposition(bounded_words("abc", 4), 6) makes exactly 426
  pullback checks and 1,704 induced_map calls for 279 distinct maps, and
  156 of its squares have an identity leg (alpha or iota is an identity).
  ROADMAP's figure of 184 also counts the 28 squares whose alpha is a
  degenerate active map [n] -> [n], such as 0,0,2.
- Per-pass figures: traced runs of direct-sweep and lib-corpus with a
  short and a long ``--seconds`` report the same per-layer counts.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import time

import program


def cells_of(cls, seed, workdir):
    workload = cls(seed, workdir, in_process=True)
    workload.setup()
    if cls.name == "cli-paths":
        build = workload.pass_ops()[0]
        build.prepare()
        build.run()
    return workload.inputs(), workload.cells()


def check_seeds(workloads, work) -> list[str]:
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workdir = work / f"selftest-{name}"
        workdir.mkdir(parents=True)
        try:
            inputs_a, cells_a = cells_of(cls, 1, workdir)
            inputs_b, _ = cells_of(cls, 1, workdir)
            inputs_c, cells_c = cells_of(cls, 2, workdir)
        finally:
            shutil.rmtree(workdir)
        if inputs_a != inputs_b:
            problems.append(f"{name}: seed 1 gave two different inputs")
        if inputs_a == inputs_c:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        if cells_a != cells_c:
            problems.append(f"{name}: seeds 1 and 2 gave other cells per level")
        print(f"{name}: seeded inputs checked, cells per level {cells_a}")
    return problems


def check_wrappers() -> list[str]:
    from decompspace import builders, criteria

    import tracing

    X = builders.free_decomposition(builders.bounded_words(("a", "b", "c"), 4), 6)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.start_pass()
    tracer.active = True
    try:
        report = criteria.check_decomposition_direct(X, rank_cap=4)
    finally:
        tracer.active = False
        tracer.uninstall()
    got = tracer.metrics()
    want = {
        "pullback.calls": 426,
        "induced_map.calls": 1704,
        "induced_map.distinct": 279,
        "pullback.identity_leg": 156,
        "criteria.squares": 426,
        "validate.calls": 1,
    }
    problems = [
        f"wrappers: {key} is {got[key]}, expected {value}"
        for key, value in want.items()
        if got[key] != value
    ]
    if not report.holds:
        problems.append("wrappers: the direct check failed on a decomposition space")
    print("wrappers: " + ", ".join(f"{key} {got[key]:g}" for key in want))
    return problems


def check_per_pass(run, workloads, work) -> list[str]:
    """The per-layer counts do not depend on how many passes fit in a run."""
    problems = []
    for name in ("direct-sweep", "lib-corpus"):
        cls = workloads.WORKLOADS[name]
        seconds, figures = 0.0, []
        for run_no in range(2):
            workdir = work / f"selftest-{name}-{run_no}"
            workdir.mkdir(parents=True)
            failures: list[str] = []
            start = time.perf_counter()
            try:
                workload, samples, metrics = run.run_traced(
                    cls, 1, seconds, workdir, failures
                )
            finally:
                shutil.rmtree(workdir)
            # The long run measures for as long as the whole short run took,
            # so it fits more than its one untraced and traced pair of passes.
            seconds = time.perf_counter() - start
            problems += [f"per-pass {name}: {line}" for line in failures]
            # A warm-up pass, then untraced and traced passes in turn.
            passes = (len(samples) // len(workload.pass_ops()) - 1) // 2
            counts = {
                key: m["value"] for key, m in metrics.items()
                if not key.endswith("_s") and key != "trace.overhead_ratio"
            }
            figures.append((passes, counts))
        (short, a), (long, b) = figures
        if long <= short:
            problems.append(f"per-pass {name}: a longer run ran no more passes")
        problems += [
            f"per-pass {name}: {key} is {a[key]} over {short} passes, {b[key]} over {long}"
            for key in a
            if a[key] != b[key]
        ]
        print(f"per-pass {name}: counts compared over {short} and {long} traced passes")
    return problems


def main() -> int:
    program.load()
    import run
    import workloads

    problems = (
        check_seeds(workloads, run.WORK)
        + check_wrappers()
        + check_per_pass(run, workloads, run.WORK)
    )
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    for line in problems:
        print(f"FAILED {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
