"""Reports of the p = 5 generic-character commands match the benchmark's golden digests."""

import hashlib
import json
from pathlib import Path

import pytest

from sl2frob.cli import run_command

GOLDEN = json.loads((Path(__file__).resolve().parent.parent
                     / "perfbench" / "golden.json").read_text())
KEYS = sorted(k for k in GOLDEN
              if k.split()[0] in ("twist", "steinberg", "hat-borel") and k.split()[1] == "5")


def test_keys_present():
    assert len(KEYS) == 60


@pytest.mark.parametrize("key", KEYS)
def test_report_digest(key):
    cmd, p, ext, r, d_seed, window, seed = key.split()
    rep = run_command(cmd, int(p), int(ext), int(r), d_seed, int(window), int(seed))
    text = json.dumps(rep, indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key]
