"""Time-to-verdict benchmark for decompspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-paths, direct-sweep, lib-corpus (see README.md).  One
closed-loop caller on one thread runs whole passes of a workload's
operations until S seconds have passed and at least MIN_OPS operations
have run.  Every operation is checked against its known answer and
against the golden record of the seed commit.  End-to-end timings are
corrected for the host's speed (see hostspeed.py); the raw ones are
printed before the JSON line.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, per traced pass.  Exit code 0 means the run completed (its ``correct`` field
says whether every operation matched); 2 means it could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import program

# p90 is reported only from runs with at least ten samples above it.
MIN_OPS = 100
SETUP_REPEATS = 9
STARTUP_PROBES = 5
WORK = program.ROOT / ".perfbench-work"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_pass(ops, golden, failures, tracer=None, host=None) -> tuple[list[float], list[str]]:
    """Run one pass; return each operation's wall time and golden record.

    ``golden`` is the list of records of this variant, or None while
    goldens are being recorded.  Problems are appended to ``failures``.
    A ``host`` probes the host's speed and notes every wall time.
    """
    samples, records = [], []
    for i, op in enumerate(ops):
        if op.prepare is not None:
            op.prepare()
        if host is not None:
            host.probe()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # any exception is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        samples.append(time.perf_counter() - start)
        if host is not None:
            host.note(samples[-1])
        if tracer is not None:
            tracer.active = False
        if error is not None:
            failures.append(f"{op.name}: {error}")
            records.append("error")
            continue
        outcome = op.observe(result)
        records.append(outcome.record)
        if op.codes is not None:
            op.codes[op.key] = outcome.code
        expected = op.expect()
        problem = outcome.problem
        if problem is None and expected is not None and outcome.code != expected:
            problem = f"code {outcome.code}, known answer {expected}"
        if problem is None and golden is not None and outcome.record != golden[i]:
            problem = f"record {outcome.record} differs from golden {golden[i]}"
        if problem is not None:
            failures.append(f"{op.name}: {problem}")
    return samples, records


def measure(workload, seconds, min_ops, golden, failures, between, host) -> list[float]:
    """Whole passes until ``seconds`` have passed and ``min_ops`` ran;
    return the host-corrected wall times.

    ``between(elapsed)`` runs after each pass, outside the timed ops.
    """
    samples = []
    start = time.perf_counter()
    while True:
        samples += run_pass(workload.pass_ops(), golden, failures, host=host)[0]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(samples) >= min_ops:
            host.probe(force=True)  # the reference after the last operation
            return host.corrected()
        if between is not None:
            between(elapsed)


def load_golden(workload) -> list[str | None]:
    """The golden records of the workload's variant.

    An operation without a golden record (the plan changed) fails.
    """
    names = [op.name for op in workload.pass_ops()]
    data = json.loads((GOLDEN / f"{workload.name}.json").read_text())
    records = data["records"].get(str(workload.variant))
    if data["ops"] != names or records is None:
        return [None] * len(names)
    return records


def cli_help_seconds() -> float:
    """Wall time of one ``decompspace --help`` subprocess."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "decompspace.cli", "--help"],
        env=program.subprocess_env(), check=True, capture_output=True, timeout=60,
    )
    return time.perf_counter() - start


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_setup(workload, host) -> float:
    """One host-corrected set-up.  For cli-paths it includes one ``--help``
    subprocess, which warms the CLI's imports; the library workloads are
    warmed by the benchmark's own ``import decompspace``."""
    host.probe(force=True)
    start = time.perf_counter()
    workload.setup()
    if workload.name == "cli-paths":
        cli_help_seconds()
    return (time.perf_counter() - start) * host.scale


def run_plain(cls, seed, seconds, workdir, failures):
    """End-to-end metrics, tracing off, every timing host-corrected.

    The set-up is repeated at even intervals through the run, so that its
    median is taken over the same spells of machine load as the
    operations.  A repeated set-up writes and builds the same inputs.
    """
    workload = cls(seed, workdir)
    host = hostspeed.HostSpeed()
    setup_times = [timed_setup(workload, host)]

    def between(elapsed):
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and elapsed >= due:
            setup_times.append(timed_setup(workload, host))

    golden = load_golden(workload)
    samples = measure(workload, seconds, MIN_OPS, golden, failures, between, host)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(workload, host))
    raw = host.raw
    print(f"raw wall time    op_s.p50 {statistics.median(raw):.6g} s  "
          f"op_s.p90 {statistics.quantiles(raw, n=10)[8]:.6g} s  "
          f"ops_per_s {len(raw) / sum(raw):.6g} 1/s")
    print(f"host factor      {host.factor():.4f} (median of {len(host.reference)} "
          f"reference jobs over {hostspeed.NOMINAL_S} s)")
    who = resource.RUSAGE_CHILDREN if cls.name == "cli-paths" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "op_s.p50": _metric(statistics.median(samples), "s"),
        "op_s.p90": _metric(statistics.quantiles(samples, n=10)[8], "s"),
        "ops_per_s": _metric(len(samples) / sum(samples), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "op_ok_ratio": _metric(1 - len(failures) / len(samples), "ratio"),
    }
    return workload, samples, metrics


def run_traced(cls, seed, seconds, workdir, failures):
    """Per-layer metrics from a traced run in process.

    After one warm-up pass, untraced and traced passes alternate until
    ``seconds`` have passed, so both see the same warm process; their
    ratio of throughputs is the tracing overhead.  The wrappers are
    installed only for the traced passes, and every per-layer figure is
    per traced pass.  All passes are checked against the same goldens, so
    a traced operation whose output differs from the untraced one fails.
    """
    import tracing

    workload = cls(seed, workdir, in_process=True)
    workload.setup()
    golden = load_golden(workload)
    startup = statistics.median(cli_help_seconds() for _ in range(STARTUP_PROBES))
    warm, _ = run_pass(workload.pass_ops(), golden, failures)
    plain, traced = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        plain += run_pass(workload.pass_ops(), golden, failures)[0]
        tracer.install()
        tracer.start_pass()
        try:
            traced += run_pass(workload.pass_ops(), golden, failures, tracer)[0]
        finally:
            tracer.uninstall()
    overhead = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
    units = {"self_s": "s", "bytes": "bytes", "per_input": "ratio"}
    metrics = {"cli.startup_s": _metric(startup, "s")}
    for name, value in tracer.metrics().items():
        metrics[name] = _metric(value, units.get(name.split(".", 1)[1], "count"))
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return workload, warm + plain + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    failures: list[str] = []
    try:
        run = run_traced if args.trace else run_plain
        workload, samples, metrics = run(cls, args.seed, args.seconds, workdir, failures)
        try:
            cells = workload.cells()
        except Exception as exc:  # the failed operations already say why
            cells = {"unavailable": repr(exc)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  variant {workload.variant}  "
          f"trace {args.trace}")
    for name, counts in cells.items():
        print(f"cells per level  {name}: {counts}")
    print(f"operations  attempted {len(samples)}  failed {len(failures)}")
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
