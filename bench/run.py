"""Benchmark of pbent's CLI commands, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload classify_n8 --seed 1 --seconds 10 --trace 0

Each operation is one pbent command, run in this process through
`pbent.cli.main(argv)` with stdout captured and parsed as JSON.  A run sets
up (imports pbent and builds every field the workload uses), then runs
whole rounds of the workload's commands in a closed loop, one at a time,
until --seconds have passed (at least one round), then checks every report.
With --trace 0 it prints the end-to-end metrics, whose times are
normalized for the machine's speed by `speed.SpeedProbe` (the raw times are
printed under them); with --trace 1 the per-layer metrics of a run whose
pbent calls are wrapped by `tracing`.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  The run also writes
bench/results/BENCH_<workload>_seed<n>_trace<t>.json, which records the
machine, the Python version and the git commit, and for a traced run
TRACE_<workload>_seed<n>_trace1.json with its spans.

The script re-executes itself once in a fresh interpreter with a fixed hash
seed, one pbent worker thread and no bytecode writing, and reads no cached
bytecode for pbent, so every run on every checkout compiles pbent from
source the same way.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_ENV = "PBENT_BENCH_CHILD"
# Never created: with -B nothing is written there.  Set as the bytecode
# cache prefix before pbent is imported, so pbent never loads cached
# bytecode, from its source tree or elsewhere.
NO_PYCACHE = os.path.join(HERE, ".no-pycache")


def _reexec() -> None:
    env = dict(os.environ, PYTHONHASHSEED="0", PBENT_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env[CHILD_ENV] = "1"
    os.execve(sys.executable, [sys.executable, "-B", os.path.abspath(__file__)]
              + sys.argv[1:], env)


if __name__ == "__main__" and os.environ.get(CHILD_ENV) != "1":
    _reexec()

sys.path.insert(0, SRC)

# Modules pbent imports, loaded before any timing so that set-up times
# compile and run pbent alone.
import argparse  # noqa: E402
import concurrent.futures  # noqa: E402,F401
import contextlib  # noqa: E402
import dataclasses  # noqa: E402,F401
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.resources  # noqa: E402,F401
import io  # noqa: E402
import itertools  # noqa: E402,F401
import json  # noqa: E402
import math  # noqa: E402,F401
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402,F401
import time  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe, median  # noqa: E402

RESULTS = os.path.join(HERE, "results")


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB of 10^6 bytes."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _purge_pbent() -> None:
    for name in [m for m in sys.modules if m == "pbent" or m.startswith("pbent.")]:
        del sys.modules[name]
    gc.collect()


def setup(wl, tracer=None):
    """Import pbent and build every field the workload uses.

    Returns (start, end, the pbent package).  With a tracer the wrappers
    are installed right after the import, so the table builds are traced.
    """
    _purge_pbent()
    t0 = time.perf_counter()
    importlib.import_module("pbent.cli")
    pb = sys.modules["pbent"]
    if not os.path.realpath(pb.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError("pbent imported from %s, not from %s" % (pb.__file__, SRC))
    if tracer is not None:
        tracer.install()
    for kind, arg in wl.fields:
        ctx = (pb.TrinomialParams(*arg).context() if kind == "trinomial"
               else pb.get_field(workloads.P, arg))
        ctx.ensure_tables()
    return t0, time.perf_counter(), pb


def run_ops(wl, seconds: float, probe=None) -> list[tuple]:
    """Closed loop over whole rounds, at least one, until `seconds` have
    passed; returns (op, start, end, stdout, error) per command."""
    main = sys.modules["pbent.cli"].main
    records = []
    start = time.perf_counter()
    while True:
        for op in wl.ops:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(list(op.argv))
                error = None if rc == 0 else "exit code %s" % rc
            except (Exception, SystemExit) as exc:  # a failed command, not a crash of the run
                error = "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
            if probe is not None:
                probe.bracket()
            records.append((op, t0, t1, buf.getvalue(), error))
        if time.perf_counter() - start >= seconds:
            return records


def check_records(pb, wl, records, seed: int) -> list[dict]:
    """Problems per failed record; identical reports are checked once."""
    verdicts: dict = {}
    failures = []
    for index, (op, _t0, _t1, out, error) in enumerate(records):
        problems = [error] if error else None
        if problems is None:
            key = (op.argv, out)
            if key not in verdicts:
                rng = random.Random("check:%d:%d" % (seed, index))
                try:
                    report = json.loads(out)
                    verdicts[key] = checks.check_op(
                        op, report.get("analysis", report), rng, pb, wl.min_dual_degree)
                except (ValueError, KeyError, TypeError) as exc:
                    verdicts[key] = ["unreadable report: %s: %s" % (type(exc).__name__, exc)]
            problems = verdicts[key]
        if problems:
            failures.append({"argv": list(op.argv), "problems": problems})
    return failures


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"machine": model, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(), "git_commit": git_commit()}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run; returns the result with its details, as written to the
    BENCH file."""
    wl = workloads.WORKLOADS[workload](seed, smoke)
    tracer = tracing.Tracer() if trace else None
    # the traced run reports no end-to-end times and is not probed, so
    # that the probe's loop never lands in a span
    probe = None if trace else SpeedProbe()
    setups = []
    with probe or contextlib.nullcontext():
        for i in range(wl.setup_repeats):
            if probe is not None:
                probe.bracket()
            t0, t1, pb = setup(wl, tracer if i == wl.setup_repeats - 1 else None)
            setups.append((t0, t1))
        if probe is not None:
            probe.bracket()
        phase_start = time.perf_counter()
        records = run_ops(wl, seconds, probe)
        phase = time.perf_counter() - phase_start
    rss = peak_rss_mb()
    latencies = [t1 - t0 for _op, t0, t1, _out, _err in records]
    raw = {}
    if trace:
        tracer.uninstall()  # the checks call pbent too; keep them out of the trace
        metrics = tracer.metrics(sum(latencies))
    else:
        raw = {"setup_s": median([t1 - t0 for t0, t1 in setups]),
               "fn_per_s": len(records) / sum(latencies),
               "fn_latency_p50_s": median(latencies)}
        setup_n = [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in setups]
        latencies_n = [(t1 - t0) * probe.factor(t0, t1) for _op, t0, t1, _o, _e in records]
        metrics = {
            "setup_s": {"value": median(setup_n), "unit": "s"},
            "fn_per_s": {"value": len(records) / sum(latencies_n), "unit": "1/s"},
            "fn_latency_p50_s": {"value": median(latencies_n), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    failures = check_records(pb, wl, records, seed)
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, smoke=smoke,
                  raw_wall_clock=raw,
                  reference_loop_samples_s=[] if probe is None else probe.samples,
                  rounds=len(records) // len(wl.ops), phase_s=phase,
                  setup_samples_s=[t1 - t0 for t0, t1 in setups], failures=failures,
                  latencies_s=[[" ".join(op.argv), t1 - t0] for op, t0, t1, _o, _e in records],
                  environment=environment())
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s_seed%d_trace%d%s" % (workload, seed, int(trace), "_smoke" if smoke else "")
    with open(os.path.join(RESULTS, "BENCH_%s.json" % tag), "w") as fh:
        json.dump(detail, fh, indent=1)
    if trace:
        with open(os.path.join(RESULTS, "TRACE_%s.json" % tag), "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "self_s"],
                       "spans": tracer.spans}, fh)
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes: n = 4 instead of 8 and 12, n = 3 instead of 5 and 6")
    args = ap.parse_args(argv)
    sys.pycache_prefix = NO_PYCACHE
    try:
        detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except ImportError as exc:
        print("cannot import pbent from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    for name, m in detail["metrics"].items():
        print("%-36s %.6g %s" % (name, m["value"], m["unit"]))
    for name, value in detail["raw_wall_clock"].items():
        print("%-36s %.6g (raw wall clock)" % (name, value))
    print("attempted %d, failed %d" % (detail["attempted"], detail["failed"]))
    print(json.dumps({key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
