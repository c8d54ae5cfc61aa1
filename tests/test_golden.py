"""Reports match the benchmark's golden digests.

Covers every p = 5 generic-character report, a few Hom-heavy p = 3 reports
that exercise the Hom solver (relations, hom-iso, equivalence, and
`projectives --r 2` and `center --r 2`; `center --r 2` repeats the most Hom
solves within one call),
`equivalence` and `hom-iso` at every F_9 weight seed (one RNG seed each),
which digest-lock the twisted product table and the transfers at every
structure constant of the twisted-window reports,
and `projectives --p 5 --r 1` at every RNG seed, whose regular-module split
reads the seed, runs the largest prime-field eliminations and feeds the
dimension accounting.  The RNG seed drives only that split, so the p = 3
reports at r = 2 run at two seeds (another seed changes only `params.seed`)
and `hom-iso 0,1`, which does not record the seed, at one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sl2frob.cli import run_command

GOLDEN = json.loads((Path(__file__).resolve().parent.parent
                     / "perfbench" / "golden.json").read_text())
KEYS = sorted(k for k in GOLDEN
              if k.split()[0] in ("twist", "steinberg", "hat-borel") and k.split()[1] == "5")
HOM_KEYS = ([f"relations 3 2 2 auto 2 {s}" for s in (0, 1)]
            + ["hom-iso 3 2 1 0,1 2 0"]
            + ["hom-iso 3 2 1 1,1 2 1", "hom-iso 3 2 1 2,1 2 2", "hom-iso 3 2 1 0,2 2 0",
               "hom-iso 3 2 1 1,2 2 1", "hom-iso 3 2 1 2,2 2 2"]
            + ["equivalence 3 2 1 0,1 3 0", "equivalence 3 2 1 1,2 3 1",
               "equivalence 3 2 1 2,2 3 2", "equivalence 3 2 1 1,1 3 2",
               "equivalence 3 2 1 2,1 3 0", "equivalence 3 2 1 0,2 3 1"]
            + [f"{cmd} 3 2 2 auto 2 {s}" for cmd in ("projectives", "center") for s in (0, 1)]
            + [f"projectives 5 2 1 auto 2 {s}" for s in (0, 1, 2)])


def test_keys_present():
    assert len(KEYS) == 60
    assert all(k in GOLDEN for k in HOM_KEYS)


@pytest.mark.parametrize("key", KEYS + HOM_KEYS)
def test_report_digest(key):
    cmd, p, ext, r, d_seed, window, seed = key.split()
    rep = run_command(cmd, int(p), int(ext), int(r), d_seed, int(window), int(seed))
    text = json.dumps(rep, indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]
