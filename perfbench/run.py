"""Run one benchmark workload against the wavetrain sources of this checkout.

    python3 perfbench/run.py --workload advtrain-stem --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Earlier lines
describe the environment, the quality outputs and any failed check. Records
and spans go to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("advtrain-stem", "pgd-eval", "probe-forward")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    base = os.path.dirname(numpy.__file__)
    for lib in glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*")) + \
            glob.glob(os.path.join(base, ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed, trace):
    import numpy
    from workloads import code_sha256

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "code_sha256": code_sha256(),
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
    }


def _metrics(values):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wavetrain", "__init__.py")):
        print(f"error: no wavetrain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # wavetrain pins BLAS to one thread, which only holds if it is imported
    # before numpy loads OpenBLAS
    import wavetrain  # noqa: F401
    import workloads
    from tracer import Tracer
    # CPU seconds since the process started: interpreter start-up and imports
    import_seconds = time.process_time()

    env = environment(args.workload, args.seed, args.trace)
    print("env " + json.dumps(env), flush=True)
    if env["blas_threads"] != 1:
        print(f"error: effective BLAS thread count is {env['blas_threads']}, not 1; "
              "unset OPENBLAS_NUM_THREADS/OMP_NUM_THREADS or set them to 1", file=sys.stderr)
        return 3

    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer() if args.trace else None
    result = workloads.Runner(args.workload, args.seed, args.seconds, tracer, OUT).run()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        metrics = result.layers
    else:
        metrics = workloads.end_to_end(result, import_seconds)
    for failure in result.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    ops = {
        "count": len(result.ops),
        "op_cpu_seconds": [op.seconds for op in result.ops],
        "jobs": sum(len(op.job_seconds) for op in result.ops),
        "job_cpu_seconds_p50": [statistics.median(op.job_seconds) for op in result.ops],
        "setup_cpu_seconds": result.setup_seconds,
        "samples_per_op": result.ops[0].samples,
        "quality": result.ops[0].quality,
    }
    print("ops " + json.dumps(ops))
    line = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": _metrics(metrics),
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"env": env, "ops": ops, "failures": result.failures, **line}, f, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
