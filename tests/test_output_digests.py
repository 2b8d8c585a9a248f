"""The output bytes of a few commands, pinned by digest.

A changed log or dataset byte is a behaviour change.  A change that means
to make one updates the digests below and declares it.  The logs round
poses, so the per-tick motion is pinned on its own, by the bits of its
floats: that is what the leg memo stores and replays.
"""
import hashlib

import pytest

from helpers import trace_bits
from homefetch.cli import EXIT_OK, main
from homefetch.config import RunConfig
from homefetch.session import run_batch


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv, episodes, report", [
    (["--seed", "7", "--sessions", "8"],
     "dffcdc13c592d58d724304ecec64764a7ca91aa574cd338f4ef37abf2d04b354",
     "e1f3bcbdc071fde78f1a4db9cfaaf82caf01cf866e4b50d0349d9ced93123720"),
    (["--seed", "11", "--sessions", "8", "--p-miss", "0.3", "--p-attr", "0.5"],
     "108b899359cb914a782c6e4e4b74441ce4c5a67356e3aa1e6c3c84d609db6a08",
     "3e5ae9b0ccfd0562638404e8c02304b7130f3adb6dabeeac0fff41990c42db4c"),
], ids=["seed7", "seed11-noisy"])
def test_run_outputs(tmp_path, argv, episodes, report):
    assert main(["run", *argv, "--out", str(tmp_path)]) == EXIT_OK
    assert _sha(tmp_path / "episodes.jsonl") == episodes
    assert _sha(tmp_path / "report.json") == report


def test_generate_outputs(tmp_path):
    assert main(["generate", "--seed", "4", "--sessions", "4",
                 "--out", str(tmp_path)]) == EXIT_OK
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == [
        *(f"episode_{i:04d}.json" for i in range(4)), "manifest.json"]
    assert _sha(*files) == \
        "bad1b33d4e2d745f409d86a53968a2b05d446ee7accb50a4291b9ba6ef2de2f7"


def test_trace_bits():
    h = hashlib.sha256()
    for rec in run_batch(RunConfig(seed=7, sessions=12)):
        h.update(trace_bits(rec.trace))
    assert h.hexdigest() == \
        "58334a45bc4000a17571a5d2a9e0f89a0ce2af1e6f97dada54fa7f3028b12639"
