"""dmsr benchmark: every workload from one command.

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload train-swin-64 --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; `dmsr` is imported from its `src/`.
With --workload the run prints each metric on its own line and, as the
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. Without --workload every workload runs in
its own process, untraced and then traced, and the command exits non-zero if
any run fails a correctness check.

The BLAS pool is pinned to one thread before numpy loads: with DMSR_THREADS=2
a second BLAS thread per worker oversubscribes a 2-core host, and the loss
differs in the 8th digit between 1 and 2 BLAS threads, so psnr_db repeats
only under a fixed BLAS thread count.
"""

import os
import time


def process_start():
    """perf_counter reading at the moment this process started, from the
    start time in /proc/self/stat; the time of this call without /proc."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")     # field 22
        return now - (time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return now


STARTED = process_start()

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import json
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROCESSES = 4     # fresh processes that repeat the set-up for setup_s


def import_dmsr():
    """Import dmsr from this checkout's src/ only; raises ImportError."""
    sys.path.insert(0, SRC)
    import dmsr
    where = os.path.dirname(os.path.abspath(dmsr.__file__))
    if where != os.path.join(SRC, "dmsr"):
        raise ImportError(f"dmsr imported from {where}, not from {SRC}")
    return dmsr


def openblas_libraries():
    """[(library, config string, runtime threads)] for each loaded OpenBLAS."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        config = threads = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    config, threads = get_config().decode(), get_threads()
                    break
            if config is not None:
                break
        found.append({"library": os.path.basename(path), "config": config,
                      "threads": threads})
    return found


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed, workloads):
    import numpy
    import scipy
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "blas_threads_pinned": BLAS_THREADS,
        "dmsr_threads": {"timed": workloads.TIMED_THREADS,
                         "fanout_check": workloads.FANOUT_THREADS},
        "workload": workload,
        "seed": seed,
    }


def load_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def setup_seconds(args):
    """Set-up times of SETUP_PROCESSES fresh processes of this workload."""
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--setup-only"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_one(args, bench):
    try:
        import_dmsr()
    except ImportError as e:
        print(f"error: cannot import dmsr from {SRC}: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), workdir, STARTED,
                                     setup_only=args.setup_only)
    finally:
        workloads.clean(workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": run.metrics["setup_s"]}))
        return 0

    if not args.trace and "setup_s" in run.metrics:
        # each process pays its set-up cold once; the median of this one and
        # fresh ones keeps a single slow start from deciding the figure
        times = [run.metrics["setup_s"]] + setup_seconds(args)
        run.metrics["setup_s"] = statistics.median(times)
        run.notes["setup_s_per_process"] = times
    env = environment(args.workload, args.seed, workloads)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if run.trace is not None:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        workloads.write_spans(path, *run.trace)
        run.notes["spans_file"] = os.path.relpath(path, ROOT)

    metrics = {}
    for m in wanted:
        value = run.metrics.get(m["name"])
        if value is None or value != value:      # missing or NaN
            run.failed += 1
            run.attempted += 1
            print(f"metric missing: {m['name']}", file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{m['name']:36s} {value:14.6f} {m['unit']}")
    failed_share = run.failed / max(run.attempted, 1)
    print(f"{'failed_share':36s} {failed_share:14.6f} share "
          f"({run.failed} of {run.attempted})")
    print("checks: " + json.dumps(run.checks, sort_keys=True))
    print("notes: " + json.dumps(run.notes, sort_keys=True, default=str))
    print("env: " + json.dumps(env, sort_keys=True))
    correct = run.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, bench):
    """Each workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {w['name']} trace={trace}: {w['why']}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and bool(lines)
            if ok:
                results[f"{w['name']} trace={trace}"] = json.loads(lines[-1])
            else:
                print(f"== {w['name']} trace={trace} FAILED (exit {proc.returncode})")
                status = 1
    print("== summary")
    for key, res in results.items():
        shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                 if key.endswith("trace=0") or k.startswith("trace.")}
        print(f"{key}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} {shown}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measured wall time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only set the workload up; print its set-up seconds")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(BENCHMARK_JSON):
        print(f"error: {BENCHMARK_JSON} not found", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload is None:
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
