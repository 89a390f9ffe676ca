#!/usr/bin/env python3
"""goelab benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload z1-decide --seed 1 --seconds 30 --trace 0

It imports goelab from ``src/`` of the same checkout, generates the
workload's instances from the seed, times the operations for ``--seconds``
seconds (at least 100 of them), checks every output against the oracles in
``bench/oracles.py`` outside the timed region, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it records the environment, the mix and the sample count.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs a fixed amount of the workload twice, first plain and then with spans
around the calls into each goelab module, and reports the per-layer metrics;
the spans go to ``bench/out/``.  Workloads run single-threaded, one per
process; ``paper-suite`` runs each pass in a fresh child process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 100  # so that ten samples lie beyond p90
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_goelab():
    """Import goelab from this checkout's src/, never from anywhere else."""
    if not (SRC / "goelab" / "__init__.py").is_file():
        raise BenchError(f"no goelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import goelab

    if Path(goelab.__file__).resolve().parent != SRC / "goelab":
        raise BenchError(f"imported goelab from {goelab.__file__}, not from {SRC}")
    return goelab


def metric_spec(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(setup_s, latencies, wall_s, peak_mib, attempted, failed, decided) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": setup_s,
        "instances_per_s": len(latencies) / wall_s,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": deciles[8] * 1000.0,
        "peak_rss_mb": peak_mib,
        "ok_share": 1.0 - failed / attempted,
        "decided_share": decided / attempted,
    }


# -- child processes ---------------------------------------------------------------


def run_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve())] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"child {args} ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child {args} printed no result") from None


def probe_setup(workload: str, seed: int) -> dict:
    """Child: time the import and the instance generation of one workload."""
    start = time.perf_counter()
    import_goelab()
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.generate(seed, wl.pool_batches)
    return {"setup_s": time.perf_counter() - start}


def setup_time(workload: str, seed: int) -> float:
    return statistics.median(
        run_child(["--probe-setup", "--workload", workload, "--seed", seed])["setup_s"]
        for _ in range(SETUP_REPEATS)
    )


def suite_pass(trace: bool, seed: int) -> dict:
    """Child: one cold pass over the suite rows, each timed on its own."""
    start = time.perf_counter()
    import_goelab()
    import spans
    import workloads
    from goelab import suite

    rows = workloads.PaperSuite().generate(seed, 1)[0]
    setup_s = time.perf_counter() - start
    tracer = spans.Tracer(spans.load_goelab_modules()) if trace else nullcontext()
    reports, seconds = [], []
    loop_start = time.perf_counter()
    with tracer:
        for row in rows:
            t0 = time.perf_counter()
            report = suite.run_suite(row.name)
            seconds.append(time.perf_counter() - t0)
            reports.extend(report["rows"])
    wall_s = time.perf_counter() - loop_start
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "seconds": seconds,
        "report_sha256": hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest(),
        "rows_ok": [r["name"] for r in reports] == [row.name for row in rows],
        "all_pass": all(r["pass"] for r in reports),
        "failed_rows": [r["name"] for r in reports if not r["pass"]],
    }
    if trace:
        out["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-paper-suite-seed{seed}.jsonl")
    return out


# -- the workloads -------------------------------------------------------------------


def run_ops(wl, batches, deadline=None):
    """Time each operation; returns (latencies, records, wall seconds)."""
    latencies, records = [], []
    gc.collect()
    start = time.perf_counter()
    k = 0
    while True:
        for inst in batches[k % len(batches)]:
            t0 = time.perf_counter()
            try:
                result, error = wl.run(inst), None
            except Exception:  # a raising operation is a failed one
                result, error = None, traceback.format_exc()
            latencies.append(time.perf_counter() - t0)
            records.append((inst, result, error))
        k += 1
        if deadline is None:
            if k == len(batches):
                break
        elif time.perf_counter() >= deadline and len(latencies) >= MIN_OPS:
            break
    return latencies, records, time.perf_counter() - start


def check_records(wl, records):
    """(failed, decided, first failures); checks run outside the timed region."""
    failed, decided, problems = 0, 0, []
    for inst, result, error in records:
        if error is None:
            try:
                problem = wl.check(inst, result)
            except Exception:  # a check that cannot read the output fails it
                problem, error = "check raised", traceback.format_exc()
        else:
            problem = "raised"
        if problem:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{inst.label}: {problem}" + (f"\n{error}" if error else ""))
        elif wl.decided(inst, result):
            decided += 1
    return failed, decided, problems


def bench_instances(wl, args, info):
    if not args.trace:
        setup_s = setup_time(wl.name, args.seed)
        pool = wl.generate(args.seed, wl.pool_batches)
        latencies, records, wall_s = run_ops(wl, pool, time.perf_counter() + args.seconds)
        check_start = time.perf_counter()
        failed, decided, problems = check_records(wl, records)
        info.update(samples=len(latencies), batches=len(latencies) // len(wl.mix), wall_s=wall_s,
                    check_s=time.perf_counter() - check_start, problems=problems)
        metrics = end_to_end(setup_s, latencies, wall_s, peak_rss_mib(), len(records), failed, decided)
        return metrics, len(records), failed

    import spans

    work = wl.generate(args.seed, wl.trace_batches)
    _, plain, plain_s = run_ops(wl, work)
    with spans.Tracer(spans.load_goelab_modules()) as tracer:
        _, traced, traced_s = run_ops(wl, work)
    failed, _, problems = check_records(wl, plain + traced)
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_s"] = traced_s - plain_s
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    info.update(samples=len(traced), batches=wl.trace_batches, untraced_s=plain_s, traced_s=traced_s,
                problems=problems)
    return metrics, len(plain) + len(traced), failed


def bench_suite(wl, args, info):
    if args.trace:
        passes = [run_child(["--suite-pass", "--trace", t, "--seed", args.seed]) for t in (0, 1)]
    else:
        setup_s = setup_time(wl.name, args.seed)
        passes = []
        deadline = time.perf_counter() + args.seconds
        while len(passes) < wl.min_passes or time.perf_counter() < deadline:
            passes.append(run_child(["--suite-pass", "--trace", 0, "--seed", args.seed]))
    # a pass whose report bytes differ from the first pass's fails all its rows
    reference = passes[0]["report_sha256"]
    attempted = sum(len(p["seconds"]) for p in passes)
    failed = sum(
        len(p["seconds"]) if p["report_sha256"] != reference or not p["rows_ok"] else len(p["failed_rows"])
        for p in passes
    )
    bad = [i for i, p in enumerate(passes) if p["report_sha256"] != reference or not p["all_pass"]]
    info.update(passes=len(passes), report_sha256=sorted({p["report_sha256"] for p in passes}),
                problems=[f"pass {i}: {passes[i]['failed_rows']}" for i in bad[:5]])
    if args.trace:
        plain, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        info.update(samples=len(traced["seconds"]), untraced_s=plain["wall_s"], traced_s=traced["wall_s"])
        return metrics, attempted, failed
    latencies = [s for p in passes for s in p["seconds"]]
    info.update(samples=len(latencies))
    wall_s = sum(p["wall_s"] for p in passes)
    metrics = end_to_end(setup_s, latencies, wall_s, peak_rss_mib(resource.RUSAGE_CHILDREN),
                         attempted, failed, attempted - failed)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="z1-decide")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--suite-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            print(json.dumps(probe_setup(args.workload, args.seed)))
            return 0
        if args.suite_pass:
            print(json.dumps(suite_pass(bool(args.trace), args.seed)))
            return 0
        spec = metric_spec(bool(args.trace))
        import_goelab()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]()
        info = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            **wl.describe(),
        }
        runner = bench_suite if wl.name == "paper-suite" else bench_instances
        metrics, attempted, failed = runner(wl, args, info)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(spec):
        print(f"bench: metrics {sorted(set(metrics) ^ set(spec))} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
