#!/usr/bin/env python3
"""Smoke test for the benchmark: a two-round budget on every workload.

    python3 perfbench/smoke_test.py          (from the root of a checkout)

For every workload it checks that run.py prints every end-to-end metric
(--trace 0) and every per-layer metric (--trace 1) by name and unit on its
result line; that the run is correct, which includes the bitwise checks of
every untraced and traced repetition against schemes::run_experiment; and
that the traced run's Chrome trace file parses and holds the round spans.
It also checks that BENCHMARK.json lists the same workloads and metrics as
run.py, and that run.py fails without a result line where the library
sources are missing. Exits nonzero on the first workload that fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric lists live in run.py)

SEED = 7


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run_benchmark(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--rounds", "2"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        print(done.stdout)
        fail("%s --trace %d exited %d" % (workload, trace, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s --trace %d: not correct" % (workload, trace))
    wanted = run.PER_LAYER if trace else run.END_TO_END
    for name, unit in wanted:
        metric = result["metrics"].get(name)
        if metric is None or metric.get("unit") != unit:
            fail("%s --trace %d: metric %s [%s] missing"
                 % (workload, trace, name, unit))
    report = done.stdout.splitlines()[:-1]
    for name, unit in wanted + ([] if trace else run.REPORTED_ONLY):
        if not any(line.split()[:1] == [name] and unit in line.split()
                   for line in report):
            fail("%s: %s [%s] not in the report" % (workload, name, unit))
    return result


def check_trace_file(workload):
    path = os.path.join(run.OUT_DIR, "%s-seed%d.trace.json" % (workload, SEED))
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    names = {e["name"] for e in events if e.get("ph") == "X"}
    for name in ("bench.rep", "bench.round", "schemes.submit",
                 "schemes.collect_wait", "core.world_build"):
        if name not in names:
            fail("%s: span %s missing from %s" % (workload, name, path))
    table = run.self_times(path)
    count, total, own = table["bench.rep"]
    if count != 1 or not 0.0 <= own <= total:
        fail("%s: bad self time for bench.rep" % workload)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py")
    for key, wanted in (("end_to_end", run.END_TO_END),
                        ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != wanted:
            fail("BENCHMARK.json %s differs from run.py" % key)


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("run.py succeeded without the library sources")


def main():
    check_benchmark_json()
    check_bare_directory()
    for workload in run.WORKLOADS:
        run_benchmark(workload, 0)
        run_benchmark(workload, 1)
        check_trace_file(workload)
        print("ok: " + workload, flush=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
