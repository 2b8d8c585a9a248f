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
     "6c01160e6c83b55c45c0bbadbceb76c28620e34070c2a650d45681a468d780c0",
     "e1f3bcbdc071fde78f1a4db9cfaaf82caf01cf866e4b50d0349d9ced93123720"),
    (["--seed", "11", "--sessions", "8", "--p-miss", "0.3", "--p-attr", "0.5"],
     "9f0755a9f777fc1a3d60644e474514ffda86050c09fd100df8b0ae7e8d1c788d",
     "efd86ab53a976e9eef16687d137dd2477f82eb816f1ec335ac5a8048cbef6a28"),
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
        "305dec3d24a2c29c10539dbe339988b2c6aebc5985a89b13f7b4d49c743c022c"


def test_trace_bits():
    h = hashlib.sha256()
    for rec in run_batch(RunConfig(seed=7, sessions=12)):
        h.update(trace_bits(rec.trace))
    assert h.hexdigest() == \
        "4234834244cf30d089c2647ca8f6bda6fc1460febe389c6288a90f83701afa16"
