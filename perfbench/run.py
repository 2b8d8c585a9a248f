#!/usr/bin/env python3
"""Benchmark homefetch's generate-execute-evaluate loop.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload through `homefetch.cli.main`, in this
process, for about `--seconds` seconds, checks every round's outputs, and
prints each metric with its raw and drift-corrected value.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` a traced run reports the per-layer ones instead, and writes its
spans to `perfbench/out/<workload>/spans.npz`.

Exits 2 without a result when the program's sources are not beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import drift

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
HASH_SEED = "0"


def setup_times() -> list[tuple[float, float]]:
    """(raw, corrected) seconds of several cold set-ups, each in its own process."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        ref = statistics.fmean(probe["ref_s"])
        times.append((probe["raw_s"], probe["raw_s"] * drift.REF_NOMINAL_S / ref))
    return times


class Runner:
    """Times whole rounds of one workload and keeps their checks."""

    def __init__(self, workload, tracer=None) -> None:
        self.wl = workload
        self.tracer = tracer
        self.raw_s = self.corrected_s = self.wall_s = 0.0
        self.sessions = 0
        self.op_times: list[tuple[float, float]] = []
        self.checks = []

    def round(self) -> None:
        """One timed round, then its output checks with nothing patched."""
        wl = self.wl
        tl = drift.Timeline()
        if self.tracer is not None:
            self.tracer.install()
        module, attr = wl.unit
        unit = getattr(module, attr)
        setattr(module, attr, lambda *a, **k: tl.op(unit, *a, **k))
        t0 = time.perf_counter()
        try:
            tl.mark()
            rc, printed = wl.run_round()
            tl.mark()
        finally:
            self.wall_s += time.perf_counter() - t0
            setattr(module, attr, unit)
            if self.tracer is not None:
                self.tracer.uninstall()
                self.tracer.end_round()
        raw, corrected = tl.round_times()
        self.raw_s += raw
        self.corrected_s += corrected
        ops = tl.op_times()
        self.sessions += len(ops)
        self.op_times += ops
        self.checks.append(wl.check(rc, printed))

    def run_for(self, seconds: float) -> None:
        """Whole rounds, as many as bring the time spent closest to `seconds`."""
        start_wall, n = self.wall_s, 0
        while True:
            self.round()
            n += 1
            spent = self.wall_s - start_wall
            if spent + 0.5 * spent / n >= seconds:
                break

    def sessions_per_s(self) -> tuple[float, float]:
        return self.sessions / self.raw_s, self.sessions / self.corrected_s


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def end_to_end(runner: Runner, setups) -> dict[str, tuple[float, float, str]]:
    """name -> (raw, corrected, unit)."""
    raw_sps, sps = runner.sessions_per_s()
    raw_ms = [1e3 * r for r, _ in runner.op_times]
    ms = [1e3 * c for _, c in runner.op_times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "sessions_per_s": (raw_sps, sps, "1/s"),
        "session_ms.p50": (_percentile(raw_ms, 50), _percentile(ms, 50), "ms"),
        "session_ms.p90": (_percentile(raw_ms, 90), _percentile(ms, 90), "ms"),
        "setup_s": (statistics.median(r for r, _ in setups),
                    statistics.median(c for _, c in setups), "s"),
        "peak_rss_mb": (rss_mb, rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "homefetch" / "__init__.py").is_file():
        print(f"no homefetch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import homefetch
    if Path(homefetch.__file__).resolve().parent != SRC / "homefetch":
        print(f"imported homefetch from {homefetch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, call_main
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setups = [] if args.trace else setup_times()
    wl = WORKLOADS[args.workload]()
    wl.prepare(out, args.seed)
    rc, printed = call_main(wl.warm_argv())  # lazy caches fill untimed
    if rc != 0:
        print(f"warm-up exited {rc}: {printed[-500:]}", file=sys.stderr)
        return 1

    runner = Runner(wl)
    if args.trace:
        runner.round()  # untraced, for the tracing overhead
        untraced_sps = runner.sessions_per_s()[1]
        tracer = Tracer()
        traced = Runner(wl, tracer)
        traced.run_for(args.seconds)
        tracer.write_spans(out / "spans.npz")
        traced_sps = traced.sessions_per_s()[1]
        checks = runner.checks + traced.checks
        raw = tracer.metrics(1.0)
        corrected = tracer.metrics(traced.corrected_s / traced.raw_s)
        metrics = {k: (raw[k][0], v, unit) for k, (v, unit) in corrected.items()}
        over = untraced_sps / traced_sps
        metrics["trace.overhead_ratio"] = (over, over, "ratio")
    else:
        runner.run_for(args.seconds)
        checks = runner.checks
        metrics = end_to_end(runner, setups)

    digests = {c.digest for c in checks if c.digest}
    unexpected = [w for c in checks for w in c.unexpected]
    if len(digests) > 1:
        unexpected.append(f"rounds wrote different outputs: {sorted(digests)}")
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    print(f"workload {wl.name}: {len(checks)} round(s) of {wl.SESSIONS} "
          f"sessions, sha256 {' '.join(sorted(digests))}")
    print(f"operations attempted {attempted}, failed {failed}")
    for why in unexpected[:20]:
        print(f"CHECK FAILED: {why}")
    print(f"{'metric':40s} {'corrected':>12s} {'raw':>12s}  unit")
    for name, (raw, corrected, unit) in metrics.items():
        print(f"{name:40s} {corrected:12.4f} {raw:12.4f}  {unit}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": c, "unit": u} for k, (_, c, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, and the salt moves the
        # program's speed by a few percent from one process to the next:
        # pin it so that runs differ only in what they measure.  The
        # program's outputs do not depend on it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
