"""Closed-loop benchmark of the numpy RaftMLP package, one workload per process.

    python3 perfbench/run.py --workload s224 --seed 0 --seconds 10 --trace 0

Run from the repository root. The workload's inputs are generated from
the seed; then the package is set up (skeleton, weights, warm-up) several
times, and one caller runs whole rounds of operations back to back until
their summed wall time reaches ``--seconds``. Every output is checked.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` spans are recorded around the package's calls and it
reports the per-layer metrics instead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("s224", "b16-ablation", "s-adapt", "gradcheck")
SETUP_REPS = 3
MAX_BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin every BLAS thread pool to min(nproc, MAX_BLAS_THREADS); call before numpy loads."""
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": threads,
        "blas_threads_runtime": blas_runtime_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_loop(bench, seconds: float, after_op=None):
    """Whole rounds until the summed op time reaches ``seconds``."""
    latencies, errors = [], []
    attempted = failed = 0
    elapsed = 0.0
    round_index = 0
    while elapsed < seconds:
        for key in bench.round(round_index):
            attempted += 1
            start = perf_counter()
            try:
                out = bench.run(key)
            except Exception:
                elapsed += perf_counter() - start
                failed += 1
                errors.append(f"{key}: {traceback.format_exc()}")
                continue
            took = perf_counter() - start
            elapsed += took
            latencies.append(took)
            error = bench.check(key, out) or (after_op(key) if after_op else None)
            if error:
                failed += 1
                errors.append(f"{key}: {error}")
        round_index += 1
    return latencies, elapsed, attempted, failed, errors


def setup(bench, reps: int):
    """Median set-up time of ``reps`` set-ups, and the errors their checks found."""
    times, errors = [], []
    for _ in range(reps):
        bench.release()
        start = perf_counter()
        warm = bench.setup_once()
        times.append(perf_counter() - start)
        errors += [f"warm-up {key}: {e}" for key, out in warm if (e := bench.check(key, out))]
    errors += bench.setup_checks()
    return statistics.median(times), errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench, seconds):
    setup_s, errors = setup(bench, SETUP_REPS)
    latencies, elapsed, attempted, failed, op_errors = run_loop(bench, seconds)
    completed = attempted - failed
    metrics = {
        "ops_per_s": metric(completed / elapsed, "op/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {attempted} ops, {failed} failed, latency p50 over {len(latencies)} samples, "
          f"{elapsed:.2f} s timed")
    return errors, op_errors, attempted, failed, metrics


def per_layer(bench, seconds):
    import spans
    from macs import STAGES
    from raftmlp import autograd

    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    if missing:
        print(f"# trace: not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
    try:
        _, errors = setup(bench, SETUP_REPS)
        build_ms = tracer.seconds["models.build"] * 1e3 / SETUP_REPS
        load_ms = tracer.seconds["container.load_weights"] * 1e3 / SETUP_REPS

        tape = {}
        for key in bench.distinct_keys():
            tracer.reset()
            with autograd.trace():
                bench.run(key)
            tape[key] = (tracer.work["tape.nodes"], tracer.work["tape.bytes_out"])
        tracer.reset()

        macs_before = 0

        def after_op(key):
            nonlocal macs_before
            if key in tape:
                tracer.work["tape.nodes"] += tape[key][0]
                tracer.work["tape.bytes_out"] += tape[key][1]
            expected = bench.op_macs(key)
            total = sum(tracer.work[s] for s in STAGES)
            macs, macs_before = total - macs_before, total
            if expected is not None and macs != expected:
                return f"traced MACs {macs} != tally {expected}"
            return None

        latencies, elapsed, attempted, failed, op_errors = run_loop(bench, seconds, after_op)
    finally:
        restore()

    n = max(len(latencies), 1)
    sec, calls, work = tracer.seconds, tracer.calls, tracer.work

    def ms(name):
        return metric(sec[name] * 1e3 / n, "ms")

    def rate(name, scale, unit):
        return metric(work[name] / sec[name] / scale if sec[name] else 0.0, unit)

    staged = sum(sec[s] for s in bench.stages)
    metrics = {
        "op.ms": metric(elapsed * 1e3 / n, "ms"),
        "stages.unaccounted_pct": metric(100.0 * (elapsed - staged) / elapsed, "%"),
        "embed.ms": ms("embed"),
        "embed.gmac_per_s": rate("embed", 1e9, "GMAC/s"),
        "tensor.unfold.ms": ms("tensor.unfold"),
        "token_mix.raft.ms": ms("token_mix.raft"),
        "token_mix.raft.gmac_per_s": rate("token_mix.raft", 1e9, "GMAC/s"),
        "token_mix.plain.ms": ms("token_mix.plain"),
        "token_mix.plain.gmac_per_s": rate("token_mix.plain", 1e9, "GMAC/s"),
        "channel_mix.ms": ms("channel_mix"),
        "channel_mix.gmac_per_s": rate("channel_mix", 1e9, "GMAC/s"),
        "ops.linear.ms": ms("ops.linear"),
        "ops.gelu.ms": ms("ops.gelu"),
        "ops.gelu.melem_per_s": rate("ops.gelu", 1e6, "Melem/s"),
        "ops.layer_norm.ms": ms("ops.layer_norm"),
        "tensor.add.ms": ms("tensor.add"),
        "rearrange.apply.ms": ms("rearrange.apply"),
        "head.ms": ms("head"),
        "adapt.pre_resize.ms": ms("adapt.pre_resize"),
        "adapt.sandwich.ms": ms("adapt.sandwich.self"),
        "ops.bicubic_resize.calls": metric(calls["ops.bicubic_resize"] / n, "count"),
        "rearrange.parse.ms": ms("rearrange.parse"),
        "rearrange.parse.calls": metric(calls["rearrange.parse"] / n, "count"),
        "tape.nodes": metric(work["tape.nodes"] / n, "count"),
        "tape.bytes_out": metric(work["tape.bytes_out"] / n, "B"),
        "autograd.backward.ms": ms("autograd.backward"),
        "autograd.probe.ms": ms("autograd.probe"),
        "models.build.ms": metric(build_ms, "ms"),
        "container.load_weights.ms": metric(load_ms, "ms"),
        "netpbm.read_ppm.ms": ms("netpbm.read_ppm"),
    }
    print(f"# traced: {attempted} ops, {failed} failed, {elapsed:.2f} s timed")
    return errors, op_errors, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "raftmlp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'raftmlp'}", file=sys.stderr)
        return 2

    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    print("# machine " + json.dumps(machine_facts(threads)))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    workdir = Path(__file__).resolve().parent / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = workloads.make(args.workload, args.seed, workdir)
        bench.prepare()
        measure = per_layer if args.trace else end_to_end
        setup_errors, op_errors, attempted, failed, metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in setup_errors + op_errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    result = {"correct": not setup_errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
