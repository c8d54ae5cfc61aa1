"""sl2frob benchmark runner.

    python3 perfbench/run.py --workload zero-char --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout: the package is imported from
./src, in this process, with no worker threads or processes.  Each op is one
or more `sl2frob.cli.run_command` calls, each serialised as the CLI does and
checked against the golden sha256 digest in perfbench/golden.json.

--trace 0 measures the end-to-end metrics: whole passes over the op list
run while another pass is expected to end within --seconds (at least one
pass).  --trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced pass; its spans go to
.bench_out/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

# One process, no worker threads: keep any BLAS pool numpy loads single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (after the thread settings above)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 15

def serialize(rep: dict) -> str:
    """The CLI's JSON report text."""
    return json.dumps(rep, indent=1, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_package(src: Path):
    """Import sl2frob.cli afresh from src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "sl2frob" or n.startswith("sl2frob.")]:
        del sys.modules[name]
    cli = importlib.import_module("sl2frob.cli")
    if Path(cli.__file__).resolve().parent != (src / "sl2frob").resolve():
        raise ImportError(f"sl2frob imported from {cli.__file__}, not from {src}")
    return cli


def setup(src: Path, ops: list[tuple]):
    """Import the package, build the field contexts with their tables and
    validate the inputs.  Returns (seconds, cli module)."""
    t0 = time.perf_counter()
    cli = import_package(src)
    FieldCtx = cli.FieldCtx
    ctxs = {}
    for op in ops:
        for cmd, p, ext, r, d_seed, window, seed in op:
            for k in range(1, ext + 1):
                if (p, k) not in ctxs:
                    ctx = FieldCtx(p, k)
                    one = ctx.one()
                    one.inv(), one.frobenius()   # builds the inverse/Frobenius tables
                    ctxs[p, k] = ctx
            if d_seed != "auto":
                c0, c1 = (int(c) for c in d_seed.split(","))
                if ctxs[p, 2].el(c0, c1).in_prime_field():
                    raise ValueError(f"weight seed {d_seed} lies in F_{p}")
    return time.perf_counter() - t0, cli


def run_op(cli, op: tuple, golden: dict, tracer=None) -> tuple[float, bool]:
    """Run and check one op.  Returns (latency in seconds, failed)."""
    failed = False
    t0 = time.perf_counter()
    texts = []
    try:
        for call in op:
            rep = cli.run_command(*call)
            ts = time.perf_counter()
            text = serialize(rep)
            if tracer is not None:
                tracer.add("cli", "serialize_s", time.perf_counter() - ts)
                tracer.add("cli", "report_bytes", len(text))
            texts.append((call, rep["failures"], text))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed = True
    latency = time.perf_counter() - t0
    for call, failures, text in texts:
        key = workloads.call_key(call)
        if failures or golden.get(key) != digest(text):
            print(f"failed call: {key} (failures={failures})", file=sys.stderr)
            failed = True
    return latency, failed


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "processes": 1,
            "os_threads": threads, "worker_threads": threading.active_count() - 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sl2frob" / "__init__.py").is_file():
        print(f"error: no sl2frob sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    with open(HERE / "golden.json") as f:
        golden = json.load(f)

    ops = workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}")
    for i, op in enumerate(ops):
        print(f"op {i}: " + " | ".join(workloads.call_key(c) for c in op))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        dt, cli = setup(src, ops)
        setup_times.append(dt)

    latencies, passes, failed = [], [], 0

    def one_pass(tracer=None):
        nonlocal failed
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.start_op(len(passes) * len(ops) + i)
            latency, bad = run_op(cli, op, golden, tracer)
            latencies.append(latency)
            failed += bad
        passes.append(time.perf_counter() - t0)

    if args.trace:
        one_pass()
        untraced = passes[0]
        tracer = Tracer()
        tracer.install()
        one_pass(tracer)
        metrics = tracer.metrics()
        metrics["trace.batch_s"] = {"value": passes[1], "unit": "s"}
        metrics["trace.overhead"] = {"value": passes[1] / untraced, "unit": "ratio"}
        out = root / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(root)}")
    else:
        start = time.perf_counter()
        while True:
            one_pass()
            if time.perf_counter() - start + statistics.median(passes) > args.seconds:
                break
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "batch_s": {"value": statistics.median(passes), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    attempted = len(latencies)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"passes {len(passes)} ({', '.join(f'{p:.3f}' for p in passes)} s)")
    print(f"op latency samples {attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops {attempted} count")
    print(f"failed_ops {failed} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
