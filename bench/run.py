"""cosymlab benchmark: time to a certified result, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is taken from the checkout's
`src` directory, not from an installed copy.

--trace 0 (end to end): every operation runs as a fresh
`python -m cosymlab.cli` child process, one at a time (closed loop, one
client).  After a discarded warm-up import and a discarded warm-up pass, the
workload's command sequence repeats until --seconds have passed, each pass
preceded by one calibration child and one timed fresh import of
cosymlab.cli; outputs of every pass are checked.  Reports wall_s (median
pass wall time) and setup_s (median import wall time, at least five
imports), both scaled to a reference machine speed (see CALIBRATION_ARGV),
and peak_rss_mb (median over passes of the largest child ru_maxrss).

--trace 1 (per layer): one untraced child-process pass gives the reference
report payloads and the children's CPU time; then untraced and traced
in-process passes (through `cosymlab.cli.main(argv)`) alternate until
--seconds have passed, at least two of each.  Per-layer metrics are medians
over the traced passes.  The run also checks that every layer assigned to
the workload recorded a span, that traced report payloads equal the
untraced ones byte for byte, and that work counts repeat exactly.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it records
the machine and library versions, and a "raw" (--trace 0) or "trace"
(--trace 1) line comes before that.  Exit code 2 (and no result) when the
checkout has no cosymlab sources.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one BLAS thread for the children and for the in-process passes; set before
# NumPy is first imported
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_IMPORTS = 5             # timed fresh imports per run, at least (after a warm-up)
IMPORT_ARGV = [sys.executable, "-c", "import cosymlab.cli"]
# On a shared host the CPU speed drifts by up to +-50 % over an hour as other
# tenants come and go, and wall and CPU time drift together.  End-to-end times are
# therefore scaled to a reference machine speed: each is multiplied by
# CALIBRATION_REF_S / (median wall time of a fixed calibration child run in
# the same run).  The calibration imports only cosymlab's dependencies, so it
# is the same on every commit, and it tracks the drift of both metrics.
CALIBRATION_ARGV = [sys.executable, "-c", "import numpy, scipy.integrate, scipy.optimize"]
CALIBRATION_REF_S = 0.6     # the calibration's uncontended wall time, 2-core x86-64 host
CHILD_TIMEOUT_S = 150.0
MIN_TRACED_PASSES = 2

# metric names and units, end to end and per layer, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# layers that must record at least one span on each workload
ASSIGNED_LAYERS = {
    "return-map-osc": {"cli", "catalog", "phase", "forms", "section"},
    "globality-product": {"cli", "catalog", "cosym", "phase", "forms", "section"},
    "structure-inline": {"cli", "catalog", "cosym", "phase", "forms", "section",
                         "expr", "tischler", "obstruct"},
}
# work counts that must repeat exactly across traced passes
COUNTS = ("phase.field.calls", "phase.field.points", "phase.integrate.calls",
          "phase.integrate_batch.calls", "phase.integrate_batch.orbits",
          "phase.flow_raw.calls", "section.first_return.calls")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list, log: Path) -> dict:
    """Run one child to completion; wall seconds, exit code and rusage."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:                   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu": usage.ru_utime + usage.ru_stime}


def child_wall(argv: list, work: Path) -> float:
    """Wall time of one child that must succeed."""
    child = run_child(argv, work / "child.log")
    if child["exit"] != 0:
        raise RuntimeError(f"{argv} failed: " + (work / "child.log").read_text()[-2000:])
    return child["wall"]


def prepare(ops: list, pass_dir: Path, seed: int) -> list:
    """Config files and output directories of one pass: (argv, out) per op."""
    runs = []
    for i, op in enumerate(ops):
        op_dir = pass_dir / f"{i}-{op.command}"
        op_dir.mkdir(parents=True)
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(op.config, sort_keys=True))
        runs.append((op.argv(cfg_path, op_dir / "out", seed), op_dir / "out"))
    return runs


def check_op(op, exit_code: int, out: Path, res: workloads.Outcome, label: str) -> bool:
    """Exit code and output checks of one operation; True when it passed."""
    own = workloads.Outcome()
    if exit_code != op.expected_exit:
        own.fail("exit_code", f"{exit_code} != {op.expected_exit}")
    else:
        try:
            op.check(out, own)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            own.fail("unreadable_output", f"{type(exc).__name__}: {exc}")
    own.failures = [f"{label}: {f}" for f in own.failures]
    res.merge(own)
    return not own.failures


def child_pass(ops: list, seed: int, pass_dir: Path, res: workloads.Outcome) -> dict:
    """One pass of the command sequence as child processes."""
    runs = prepare(ops, pass_dir, seed)
    children = []
    t0 = time.perf_counter()
    for argv, out in runs:
        children.append(run_child([sys.executable, "-m", "cosymlab.cli", *argv],
                                  out.parent / "child.log"))
    wall = time.perf_counter() - t0
    summary = finish_pass(ops, runs, [c["exit"] for c in children], pass_dir, res)
    summary.update(wall=wall, rss_mb=max(c["rss_mb"] for c in children),
                   cpu=sum(c["cpu"] for c in children))
    return summary


def finish_pass(ops: list, runs: list, codes: list, pass_dir: Path,
                res: workloads.Outcome) -> dict:
    """Check every op of a pass; failures and report payloads."""
    failed = 0
    for i, (op, (_argv, out), code) in enumerate(zip(ops, runs, codes)):
        failed += not check_op(op, code, out, res, f"{pass_dir.name} op{i} {op.command}")
    payloads = [workloads.report_payload_bytes(out) if code in (0, 1) else None
                for (_argv, out), code in zip(runs, codes)]
    return {"failed": failed, "ops": len(ops), "payloads": payloads}


def run_timed(name: str, seed: int, seconds: float, work: Path) -> dict:
    ops = workloads.WORKLOADS[name](seed)
    child_wall(IMPORT_ARGV, work)                       # warm-up, discarded
    child_pass(ops, seed, work / "warmup", workloads.Outcome())
    res = workloads.Outcome()
    calibrations, imports, passes = [], [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        # calibration and set-up samples interleave with the passes, so all
        # three see the same machine state
        calibrations.append(child_wall(CALIBRATION_ARGV, work))
        imports.append(child_wall(IMPORT_ARGV, work))
        pass_dir = work / f"pass{len(passes)}"
        passes.append(child_pass(ops, seed, pass_dir, res))
        shutil.rmtree(pass_dir)
    while len(imports) < MIN_IMPORTS:
        calibrations.append(child_wall(CALIBRATION_ARGV, work))
        imports.append(child_wall(IMPORT_ARGV, work))
    report_failures(res)
    raw = {"wall_s": statistics.median(p["wall"] for p in passes),
           "setup_s": statistics.median(imports),
           "calibration_s": statistics.median(calibrations),
           "passes": len(passes), "imports": len(imports)}
    print(json.dumps({"raw": raw}))
    speed = CALIBRATION_REF_S / raw["calibration_s"]
    metrics = {"wall_s": raw["wall_s"] * speed, "setup_s": raw["setup_s"] * speed,
               "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes)}
    return result(not res.failures, sum(p["ops"] for p in passes),
                  sum(p["failed"] for p in passes), metrics, "end_to_end")


def inprocess_pass(ops: list, seed: int, pass_dir: Path, res: workloads.Outcome,
                   tracer=None, trace=None) -> dict:
    """One pass through cosymlab.cli.main(argv) in this process."""
    import cosymlab.cli
    runs = prepare(ops, pass_dir, seed)
    codes = []
    if tracer is not None:
        tracer.install(trace)
    try:
        t0 = time.perf_counter()
        for argv, _out in runs:
            try:
                codes.append(cosymlab.cli.main(argv))
            except Exception:                   # a crash fails the op, not the run
                print(f"{pass_dir.name}: {argv[0]} raised", file=sys.stderr)
                traceback.print_exc()
                codes.append(None)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = finish_pass(ops, runs, codes, pass_dir, res)
    summary["wall"] = wall
    return summary


def run_traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    import tracing
    ops = workloads.WORKLOADS[name](seed)
    res = workloads.Outcome()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cosymlab.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    reference = child_pass(ops, seed, work / "child", res)
    # a discarded in-process pass settles lazy imports and caches first
    inprocess_pass(ops, seed, work / "warmup", workloads.Outcome())
    tracer = tracing.Tracer()
    untraced, traced, traces = [], [], []
    t_start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() - t_start < seconds):
        k = len(traced)
        untraced.append(inprocess_pass(ops, seed, work / f"untraced{k}", res))
        traces.append(tracing.Trace(f"{name}-seed{seed}-pass{k}"))
        traced.append(inprocess_pass(ops, seed, work / f"traced{k}", res, tracer,
                                     traces[-1]))
    per_pass = [tracing.layer_metrics(tr) for tr in traces]
    first_trace = traces[0]

    # self-checks of the tracing itself
    missing = ASSIGNED_LAYERS[name] - tracing.layers_seen(first_trace)
    res.require(not missing, "trace.layer_coverage", f"no spans from {sorted(missing)}")
    for p in untraced + traced:
        res.require(p["payloads"] == reference["payloads"], "trace.report_identity",
                    "in-process report payloads differ from the child-process ones")
    for key in COUNTS:
        values = {m[key] for m in per_pass}
        res.require(len(values) == 1, "trace.count_repeat", f"{key}: {sorted(values)}")
    trace_file = OUT / f"trace-{name}.jsonl.gz"
    first_trace.write(trace_file)
    report_failures(res)
    print(json.dumps({"trace": {"file": str(trace_file.relative_to(ROOT)),
                                "spans": len(first_trace),
                                **tracing.self_time_summary(first_trace)}}))

    layer = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    layer.update(tracing.latency_metrics(traces))
    layer["cli.import_s"] = import_s
    layer["cli.cpu_s"] = reference["cpu"]
    layer["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                 - statistics.median(p["wall"] for p in untraced))
    for key in workloads.ACCURACY_MAX + workloads.ACCURACY_MIN:
        layer[f"section.{key}"] = res.accuracy.get(key, 0.0)
    every = [reference] + untraced + traced
    return result(not res.failures, sum(p["ops"] for p in every),
                  sum(p["failed"] for p in every), layer, "per_layer")


def result(correct: bool, attempted: int, failed: int, metrics: dict, kind: str) -> dict:
    """The result line; ``metrics`` must hold exactly the declared ``kind`` metrics."""
    declared = [m["name"] for m in SPEC[kind]]
    if set(metrics) != set(declared):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    return {"correct": bool(correct and failed == 0), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in declared}}


def report_failures(res: workloads.Outcome) -> None:
    for failure in res.failures:
        print(f"check failed: {failure}", file=sys.stderr)


def environment() -> dict:
    """Machine and library versions; the children run this same interpreter."""
    return {"nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "python": platform.python_version(), "blas_threads": int(BLAS_THREADS),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed %= 2 ** 32                    # the CLI takes non-negative seeds
    if not (SRC / "cosymlab" / "cli.py").is_file():
        print(f"error: no cosymlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        env = environment()
        env["workload"], env["seed"], env["trace"] = args.workload, args.seed, args.trace
        run = run_traced if args.trace else run_timed
        res = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": env}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
