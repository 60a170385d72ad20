"""rdsi benchmark: one process drives ``rdsi.cli.main`` in a closed loop.

    python3 bench/run.py --workload {ladder,surface,sim} --seed N --seconds S --trace {0,1}

Ops (one op is one CLI call) run one at a time, each under a time limit,
and every output is checked (checks.py).  With ``--trace 0`` the run
cycles through the workload's ops, untraced, for about ``--seconds``
seconds of op time and prints the end-to-end metrics of one pass built
from each op's mean time; with ``--trace 1`` it makes one untraced and
one traced pass and prints the per-layer metrics (tracing.py).
The last line of stdout is the JSON result; details and spans go to
``.bench_out/`` in the repository root.  An op that gives no checked
answer (resource cap, failed check, crash, timeout) is charged the per-op
limit on top of its own time, so turning it into an answer reads as a gain.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = 1      # fixed, and never above the machine's core count
OP_LIMIT_S = 30.0     # per op
RUN_LIMIT_S = 150.0   # the whole run, set-up included
SETUP_SAMPLES = 7     # fresh interpreters timed for setup_s

# end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "op_s_max": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "rss_peak_mb": ("MB", "lower"),
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; not an Exception, so no handler in
    the program under test can swallow it."""


def pin_threads() -> int:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import rdsi from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import rdsi
    import rdsi.cli

    if not os.path.abspath(rdsi.__file__).startswith(SRC + os.sep):
        raise ImportError(f"rdsi imported from {rdsi.__file__}, not from {SRC}")


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run_op(op, limit_s: float, ref: dict) -> dict:
    """One CLI call under a time limit, then its output check."""
    from checks import CheckFailed, check
    import rdsi.cli

    def on_alarm(signum, frame):
        raise OpTimeout()

    buf = io.StringIO()
    status, error = None, None
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            with contextlib.redirect_stdout(buf):
                status = rdsi.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            status = exc.code if isinstance(exc.code, int) else 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
    except OpTimeout:
        outcome = "timeout"
    except Exception:  # the CLI turns library errors into exit statuses; anything else is a crash
        outcome, error = "crash", traceback.format_exc(limit=-3)
    finally:
        signal.signal(signal.SIGALRM, previous)
    text = buf.getvalue()
    items = 0
    if status is not None:
        try:
            items = check(op, status, text, ref)
            outcome = "solved" if status == 0 else "capped"
        except CheckFailed as exc:
            outcome, error = "wrong", str(exc)
    answered = outcome == "solved"
    return {
        "op": op.name, "status": status, "outcome": outcome, "seconds": elapsed,
        "charged_s": elapsed if answered else elapsed + OP_LIMIT_S,
        "items": items if answered else 0, "out_bytes": len(text.encode("utf-8")),
        "error": error,
    }


def run_pass(ops, ref: dict, deadline: float, tracer=None) -> list:
    records = []
    for op in ops:
        limit = min(OP_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            records.append({
                "op": op.name, "status": None, "outcome": "timeout", "seconds": 0.0,
                "charged_s": OP_LIMIT_S, "items": 0, "out_bytes": 0,
                "error": "run time limit reached before the op started",
            })
            continue
        if tracer is not None:
            tracer.op = op.name
        records.append(run_op(op, limit, ref))
    return records


def run_cycle(ops, ref: dict, seconds: float, deadline: float, between) -> list:
    """Untraced ops in turn until about ``seconds`` of op time have passed.

    Every op runs at least once.  After that, an op starts only if half of
    its last time still fits in the budget, so a run ends near ``seconds``
    whatever its ops cost.  ``between(op_time)`` is called after each op.
    Returns the records and the peak RSS after the first pass, which does
    not depend on how many ops fit into the run.
    """
    records, last, op_time, i, rss_first_pass = [], {}, 0.0, 0, None
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops):
            if op_time + 0.5 * last[op.name] > seconds:
                break
            if time.perf_counter() + 2 * last[op.name] > deadline:
                break
        record = run_pass([op], ref, deadline)[0]
        record["round"] = i // len(ops)
        records.append(record)
        last[op.name] = record["seconds"]
        op_time += record["seconds"]
        between(op_time)
        i += 1
        if i == len(ops):
            rss_first_pass = rss_peak_mb()
    return records, rss_first_pass


def pass_summary(ops, records: list) -> dict:
    """One pass over the ops, each op at its mean charged time in the run.

    A mean, not a median: the ops run for seconds each, a run holds only a
    few of the longest, and the machine's speed changes over tens of
    seconds, so the mean averages over more of it than any one sample.
    """
    charged = {op.name: statistics.fmean(r["charged_s"] for r in records if r["op"] == op.name)
               for op in ops}
    items = {r["op"]: r["items"] for r in records if r["outcome"] == "solved"}
    wall = sum(charged.values())
    return {
        "wall_s": wall,
        "op_s_max": max(charged.values()),
        "items_per_s": sum(items.values()) / wall,
    }


class SetupSampler:
    """Times fresh interpreters that import rdsi and generate the inputs.

    The samples are spread over the run's op time instead of taken in one
    burst, so that setup_s averages over the same stretch of the machine's
    speed as the ops do.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.due = [k * seconds / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
        self.times = []

    def sample(self):
        start = time.perf_counter()
        subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        self.times.append(time.perf_counter() - start)

    def __call__(self, op_time: float):
        while len(self.times) < len(self.due) and self.due[len(self.times)] <= op_time:
            self.sample()

    def finish(self) -> list:
        while len(self.times) < len(self.due):
            self.sample()
        return self.times


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import rdsi, generate the inputs and exit (timed for setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    args = parse_args(argv)
    threads = pin_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import build_ops, warmup_ops
    from tracing import PER_LAYER, Tracer

    tag = f"{args.workload}-seed{args.seed}"
    try:
        ops = build_ops(args.workload, args.seed, os.path.join(OUT, "inputs", tag))
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    env = environment(threads)

    import rdsi.cli
    for warm in warmup_ops(os.path.join(OUT, "inputs", "warmup")):
        with contextlib.redirect_stdout(io.StringIO()):
            rdsi.cli.main(warm)

    passes, spans, metrics = [], None, {}
    if args.trace == 0:
        sampler = SetupSampler(args.workload, args.seed, args.seconds)
        sampler(0.0)
        records, metrics["rss_peak_mb"] = run_cycle(ops, ref, args.seconds, deadline, sampler)
        passes.append(records)
        setup_times = sampler.finish()
        metrics.update(pass_summary(ops, records))
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    else:
        setup_times = []
        passes.append(run_pass(ops, ref, deadline))
        tracer = Tracer()
        with tracer.installed():
            passes.append(run_pass(ops, ref, deadline, tracer))
        untraced, traced = passes
        metrics = tracer.layer_metrics(
            traced_wall_s=sum(r["seconds"] for r in traced),
            untraced_wall_s=sum(r["seconds"] for r in untraced),
            out_bytes=sum(r["out_bytes"] for r in traced),
        )
        metrics["ops.count"] = len(untraced)
        metrics["ops.unsolved_frac"] = sum(r["outcome"] != "solved" for r in untraced) / len(untraced)
        metrics["ops.p50_s"] = statistics.median(r["charged_s"] for r in untraced)
        spans = tracer.dump()
        units = PER_LAYER

    records = [r for p in passes for r in p]
    failed = sum(r["outcome"] in ("timeout", "crash", "wrong") for r in records)
    correct = not any(r["outcome"] in ("crash", "wrong") for r in records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "op_limit_s": OP_LIMIT_S,
                   "setup_s": setup_times, "passes": passes, "result": result,
                   "trace": spans}, fh)

    print(f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"op_runs={len(records)} ops_per_pass={len(ops)} op_limit_s={OP_LIMIT_S:g}")
    print("env: " + json.dumps(env, sort_keys=True))
    for r in passes[-1][-len(ops):]:
        note = f"  {r['error'].splitlines()[-1]}" if r["error"] else ""
        print(f"  {r['op']:<28} exit={r['status']} {r['outcome']:<8} {r['seconds']:8.3f} s{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
