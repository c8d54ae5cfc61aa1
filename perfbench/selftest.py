"""Self-test of the traced benchmark run.

    python3 perfbench/selftest.py [--seed N]

Runs `run.py --trace 1` twice per workload, each in a fresh process, from
the root of a source checkout, and checks that
  - every run is correct and every per-layer metric is reported;
  - every traced span records calls (or self time) on each workload mapped
    to it below, so no patched name was missed;
  - self times are >= 0;
  - counts (calls, cells, mults, unknowns, repeat shares, bytes) repeat
    exactly across the two runs;
  - extended projectives are never built on generic-sweep.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import COUNT_METRICS, PER_LAYER
import workloads

RUN = Path(__file__).resolve().parent / "run.py"

WL = workloads.WORKLOADS

# span -> workloads on which it must record work (the module -> workload map
# of README.md)
MAPPED = {
    "exactfield.rref": WL,
    "exactfield.matmul": WL,
    "exactfield.kron": WL,
    "exactfield.solve": WL,
    "exactfield.kernel": WL,
    "exactfield.rank": WL,
    "exactfield.matrix_new": WL,
    "smallalg.right_mult_sample": ("zero-char",),
    "smallalg.regular_module": ("zero-char",),
    "repcore.tensor": WL,
    "repcore.submodule": ("zero-char", "twisted-window"),
    "homology.hom_space": WL,
    "homology.extended_projective": ("zero-char", "twisted-window"),
    "homology.split_indecomposables": ("zero-char", "twisted-window"),
    "homology.is_simple": WL,
    "homology.spin": WL,
    "homology.radical_and_head": ("zero-char",),
    "homology.end_center": ("zero-char",),
    "vermatwist.compose_twisted": ("twisted-window",),
    "vermatwist.windowed_end": ("twisted-window",),
    "vermatwist.verma_map": ("twisted-window",),
    "endpresent.fixed_maps": ("zero-char",),
    "endpresent.pipeline": ("zero-char",),
    "steinberg.pipeline": ("zero-char", "generic-sweep"),
    "cli.run_command": WL,
}


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--seed", str(seed), "--trace", "1"],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    errors = []
    for w in workloads.WORKLOADS:
        first, second = traced_run(w, seed), traced_run(w, seed)
        for res in (first, second):
            if not res["correct"] or res["failed"]:
                errors.append(f"{w}: {res['failed']} failed ops")
            missing = set(PER_LAYER) - set(res["metrics"])
            if missing:
                errors.append(f"{w}: missing metrics {sorted(missing)}")
        m = {k: v["value"] for k, v in first["metrics"].items()}
        for span, mapped in MAPPED.items():
            work = m.get(f"{span}.calls", m.get(f"{span}.self_s", 0))
            if w in mapped and not work > 0:
                errors.append(f"{w}: {span} recorded no work")
        for name, value in m.items():
            if name.endswith("_s") and value < 0:
                errors.append(f"{w}: {name} = {value} < 0")
        for name in COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                errors.append(f"{w}: {name} differs across runs ({a} != {b})")
        if w == "generic-sweep" and m["homology.extended_projective.calls"] != 0:
            errors.append("generic-sweep builds extended projectives")
        print(f"{w}: hom_space.repeat_share {m['homology.hom_space.repeat_share']:.3f} "
              f"extended_projective.calls {m['homology.extended_projective.calls']} "
              f"trace.overhead {m['trace.overhead']:.3f}", flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
