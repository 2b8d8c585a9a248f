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
     "d23c7b98c4d30bfc6faa41df85210e519f7376b6d64c866cf112f078a1782264",
     "e1f3bcbdc071fde78f1a4db9cfaaf82caf01cf866e4b50d0349d9ced93123720"),
    (["--seed", "11", "--sessions", "8", "--p-miss", "0.3", "--p-attr", "0.5"],
     "4b4b233e32b55c6e50ea2b489c8dbc3c3eaa5ea50ace3fbf1199c596e22e4c7a",
     "26c981b9e6c157ca954b2694cb4f2d9bf81ffa90541ee2d891cc53594b038484"),
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
        "ed07165dfcf8a81a96df4ad01edc44707f5d1496f33842837e5735e1a777d1cc"


def test_trace_bits():
    h = hashlib.sha256()
    for rec in run_batch(RunConfig(seed=7, sessions=12)):
        h.update(trace_bits(rec.trace))
    assert h.hexdigest() == \
        "af9d037d033ead1616e290144f92c62f0b3a21774ff7f9fd843e19cc9fc1c25f"
