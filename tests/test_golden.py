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
and `hom-iso 0,1`, which does not record the seed, at one.  `PINNED` holds
digests that no workload runs: `projectives --r 1` at p = 3 (every RNG
seed) and p = 7, and the End reports at seed 0 that no golden key covers
(`generation` at p = 3, r = 1 and 2, and at p = 5, r = 1; `center --r 1`
at p = 3 and 5; `relations --r 1` at p = 3 and `relations --r 2` at p = 5).
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

PINNED = {
    "projectives 3 2 1 auto 2 0":
        "b7bcba23582688aedd1d89d888621cc49611d9131481e6f13a78dbeeafa3e222",
    "projectives 3 2 1 auto 2 1":
        "cedd2b2639201b3c981444244628f0f8f53d1a0eeabb5eb870d678c90665bcbc",
    "projectives 3 2 1 auto 2 2":
        "8d061b90c64dcd64cbd6e0a0a91f585f5693a83380f2f561aabb0dfeed79bfcc",
    "projectives 7 2 1 auto 2 0":
        "bff9b44bb061acce662543a45ef8a613dca0b9e331519d5003d1e642168be435",
    "generation 3 2 1 auto 2 0":
        "f99bd6044c5f4830ee352dae551253433efa7b934befa64e33adcbe7111214c9",
    "generation 3 2 2 auto 2 0":
        "e30d8104a8beab5d42356bc291c262495ac7db11f43f14a0b7dc3ac5078f323f",
    "generation 5 2 1 auto 2 0":
        "23c1005fc109c2681f831cc499c244449a9f92164e68eca7bd4bce24db25c3e3",
    "center 3 2 1 auto 2 0":
        "acd5c25d64f94e0bf1b72152c4e639dc8883198b73208a7436a4a0f280344ce1",
    "center 5 2 1 auto 2 0":
        "6bb521a0af0c71ac8e5d4ab2d36794ccb50dff0ace7e831e70f61fe4fc32ac3b",
    "relations 3 2 1 auto 2 0":
        "17b14bf4c589a20b6711989955d2685aa108af4e080b4d096036a736a92307db",
    "relations 5 2 2 auto 2 0":
        "479ef9ed6cc529d562a54852174dacf3c7bae0e0dc4c577e48166b70f696ca8d",
}


def test_keys_present():
    assert len(KEYS) == 60
    assert all(k in GOLDEN for k in HOM_KEYS)
    assert not set(PINNED) & set(GOLDEN)


@pytest.mark.parametrize("key", KEYS + HOM_KEYS + list(PINNED))
def test_report_digest(key):
    cmd, p, ext, r, d_seed, window, seed = key.split()
    rep = run_command(cmd, int(p), int(ext), int(r), d_seed, int(window), int(seed))
    text = json.dumps(rep, indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == {**GOLDEN, **PINNED}[key]
