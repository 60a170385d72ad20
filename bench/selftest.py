"""Toy-size self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that BENCHMARK.json names the metrics the harness prints, with the
same units; that a run on the two-op ``toy`` workload prints the result
schema for both ``--trace 0`` and ``--trace 1``; that the layer self times
and the unattributed remainder add up to the traced wall time; that the
output checks reject tampered outputs; that a hook whose attribute is gone
reads as zero instead of crashing; and that the benchmark fails without
printing a result where the program's sources are missing.  Exits 0 when
all hold.  Takes about 15 s.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run

HERE = run.HERE
ROOT = run.ROOT


def fail(message: str):
    raise SystemExit(f"selftest: FAIL: {message}")


def check_benchmark_json(tracing) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    from workloads import WORKLOADS

    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        if listed != table:
            fail(f"{section} in BENCHMARK.json differs from the harness: "
                 f"{sorted(set(listed.items()) ^ set(table.items()))}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound of {m['name']} is {m['bound']}")
    if max(spec["end_to_end"], key=lambda m: m["bound"])["bound"] > \
            next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"):
        fail("setup_s must carry the largest bound")
    return spec


def run_toy(trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "toy",
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if out.returncode != 0:
        fail(f"toy run --trace {trace} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result: dict, table: dict, positive: bool):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"toy run not clean: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"attempted = {result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(table):
        fail(f"metric names {sorted(set(metrics) ^ set(table))}")
    for name, entry in metrics.items():
        value = entry["value"]
        if entry["unit"] != table[name][0] or set(entry) != {"value", "unit"}:
            fail(f"metric {name}: {entry}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
        if positive and value <= 0:
            fail(f"end-to-end metric {name} is {value}")


def check_accounting(metrics: dict):
    v = {k: e["value"] for k, e in metrics.items()}
    layers = (v["cli.main.self_s"] + v["solver.self_s"] + v["extended.self_s"]
              + v["caratheodory.self_s"] + v["gaussian.s"] + v["sphere.self_s"])
    if abs(layers + v["trace.unattributed_s"] - v["trace.wall_s"]) > 1e-9:
        fail("layer self times and the remainder do not add up to the traced wall time")
    if v["solver.solve_constrained.calls"] < 1 or v["caratheodory.reduce_aux_u.s"] <= 0:
        fail("the toy ops did not reach the solver and caratheodory hooks")


def check_checks():
    """Tampered outputs must fail their checks."""
    from checks import CheckFailed, check
    from workloads import TOY, build_ops
    import rdsi.cli

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ops = build_ops(TOY, 3, os.path.join(run.OUT, "inputs", "selftest"))
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = rdsi.cli.main(op.argv)
        check(op, status, buf.getvalue(), ref)
        good = json.loads(buf.getvalue())
        tampered = []
        if op.kind == "solve":
            bad = copy.deepcopy(good)
            bad["rate"] += 1e-6
            tampered.append(bad)
            bad = copy.deepcopy(good)
            bad["witness"]["phi"][0][0] = 1 - bad["witness"]["phi"][0][0]
            tampered.append(bad)
        else:
            bad = copy.deepcopy(good)
            bad["u_tilde_size"] = 3  # above K = 2
            tampered.append(bad)
            bad = copy.deepcopy(good)
            bad["pu_given_xz"][0][0] = [0.5 * p for p in bad["pu_given_xz"][0][0]]
            tampered.append(bad)
        for bad in tampered:
            try:
                check(op, status, json.dumps(bad), ref)
            except CheckFailed:
                continue
            fail(f"{op.name}: a tampered output passed its check")
        try:
            check(op, 3, buf.getvalue(), ref)
        except CheckFailed:
            continue
        fail(f"{op.name}: an unexpected exit status passed its check")


def check_missing_hook(tracing):
    saved = tracing.HOOKS
    tracing.HOOKS = saved + (("rdsi.solver", "no_such_function", "solver.gone", None),
                             ("rdsi.no_such_module", "f", "gone", None))
    try:
        tracer = tracing.Tracer()
        with tracer.installed():
            pass
    finally:
        tracing.HOOKS = saved
    if len(tracer.missing) != 2:
        fail(f"missing hooks not reported: {tracer.missing}")
    import rdsi.solver

    if hasattr(rdsi.solver, "no_such_function") or hasattr(rdsi.solver.solve_rate, "__wrapped__"):
        fail("hooks were not restored")


def check_bare_checkout():
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        fail(f"bare checkout exited {out.returncode} with output {out.stdout!r}")


def main() -> int:
    run.pin_threads()
    run.import_program()
    import tracing

    check_benchmark_json(tracing)
    check_result(run_toy(0), run.END_TO_END, positive=True)
    traced = run_toy(1)
    check_result(traced, tracing.PER_LAYER, positive=False)
    check_accounting(traced["metrics"])
    check_checks()
    check_missing_hook(tracing)
    check_bare_checkout()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
