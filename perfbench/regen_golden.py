"""Regenerate perfbench/golden.json: the sha256 of every report the workloads
can produce, serialised as the CLI does.

    python3 perfbench/regen_golden.py

Run from the root of a source checkout, only when a change to the package is
meant to change its reports.  The benchmark runner never rewrites this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, digest, import_package, serialize
import workloads


def main() -> int:
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    cli = import_package(src)
    golden = {}
    for call in workloads.all_calls():
        rep = cli.run_command(*call)
        if rep["failures"]:
            print(f"error: {workloads.call_key(call)} reports {rep['failures']} failures",
                  file=sys.stderr)
            return 1
        golden[workloads.call_key(call)] = digest(serialize(rep))
        print(workloads.call_key(call), golden[workloads.call_key(call)], flush=True)
    with open(HERE / "golden.json", "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
