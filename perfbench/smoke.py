#!/usr/bin/env python3
"""Smoke test: run every workload briefly, untraced and traced, and check
that the metrics printed are exactly those BENCHMARK.json names, with the
same units, and that the outputs passed their checks.

    python3 perfbench/smoke.py

Takes about four minutes; exits 1 on the first mismatch.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                print(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            res = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = []
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(res)}")
            if got != want[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(want[trace]))}, "
                                f"units {[k for k in got if got[k] != want[trace].get(k, got[k])]}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"correct={res['correct']} attempted={res['attempted']}")
            if problems:
                print(f"{label}: " + "; ".join(problems))
                print(proc.stdout[-2000:])
                return 1
            print(f"{label}: ok, {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
