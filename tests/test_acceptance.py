"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a `criterion N: PASS`
line (visible with -s; pytest -v shows one PASSED/FAILED line per
criterion either way).  Batches are computed once at module scope:

  A: master seed 7, relational grounder, 40 sessions, zero noise
  B: master seed 1, keyword baseline, 40 sessions, zero noise
  C: master seed 11, 200 sessions at each miss rate in {0, 0.2, 0.5, 0.8}

Tolerances are pinned in the asserts; counting and formatting checks are
byte-exact.
"""
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from helpers import brute_force_visible, only_event, sample_ast
from homefetch.agent import NoiseConfig
from homefetch.cli import EXIT_OK, main
from homefetch.config import RunConfig
from homefetch.eventlog import canonical_json, write_events
from homefetch.language import parse, realize
from homefetch.layouts import make_environment
from homefetch.planner import grid_for
from homefetch.session import (
    CARRYING,
    FETCHING,
    NAVIGATION,
    OLR,
    SUBTASKS,
    Tally,
    aggregate,
    format_cells,
    format_report,
    run_batch,
)
from homefetch.taskgen import GenConfig, build_environment
from homefetch.world import ROBOT_RADIUS_M, CameraPose, Pose, visible_objects

SAMPLE_STEP_M = 0.01
CLEARANCE_TOL = 1e-9

MISS_RATES = (0.0, 0.2, 0.5, 0.8)


@contextmanager
def criterion(n: int, what: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {what}")
        raise
    print(f"criterion {n}: PASS - {what}")


# --- executed-path clearance audit -------------------------------------------

_STATIC = make_environment("default")
_RECTS = np.array(
    [[r.x0, r.y0, r.x1, r.y1] for r in _STATIC.walls]
    + [[f.footprint.x0, f.footprint.y0, f.footprint.x1, f.footprint.y1]
       for f in _STATIC.furniture])
_START = (_STATIC.robot.pose.x, _STATIC.robot.pose.y)


def path_min_clearance(trace) -> float:
    """Min distance to any wall/furniture along the path, 1 cm sampling."""
    pts = np.array([_START] + [(p[0], p[1]) for p in trace])
    if len(pts) < 2:
        return math.inf
    a, b = pts[:-1], pts[1:]
    seg = b - a
    step = np.hypot(seg[:, 0], seg[:, 1]).max()
    assert step <= 0.05 + 1e-6, "pose spacing exceeds one motion tick"
    # 6 points per <=5 cm pair keeps samples within 1 cm of each other
    t = np.linspace(0.0, 1.0, 6)
    s = (a[:, None, :] + t[None, :, None] * seg[:, None, :]).reshape(-1, 2)
    dx = np.maximum(_RECTS[None, :, 0] - s[:, 0, None], 0.0)
    dx = np.maximum(dx, s[:, 0, None] - _RECTS[None, :, 2])
    dy = np.maximum(_RECTS[None, :, 1] - s[:, 1, None], 0.0)
    dy = np.maximum(dy, s[:, 1, None] - _RECTS[None, :, 3])
    return float(np.hypot(dx, dy).min())


def batch_audit(records) -> float:
    return min(path_min_clearance(r.trace) for r in records)


# --- batches ------------------------------------------------------------------

@pytest.fixture(scope="module")
def logdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-logs")


@pytest.fixture(scope="module")
def batch_a(logdir):
    cfg = replace(RunConfig(), seed=7, sessions=40)
    t0 = time.perf_counter()
    records = run_batch(cfg)
    wall_s = time.perf_counter() - t0
    log = logdir / "a-relational.jsonl"
    write_events(log, (e for r in records for e in r.events))
    return {"cfg": cfg, "records": records, "tally": aggregate(records),
            "wall_s": wall_s, "log": log, "min_clearance": batch_audit(records)}


@pytest.fixture(scope="module")
def batch_b(logdir):
    cfg = replace(RunConfig(), seed=1, sessions=40,
                  grounder="keyword-baseline")
    records = run_batch(cfg)
    log = logdir / "b-baseline.jsonl"
    write_events(log, (e for r in records for e in r.events))
    return {"cfg": cfg, "records": records, "tally": aggregate(records),
            "log": log, "min_clearance": batch_audit(records)}


@pytest.fixture(scope="module")
def batch_c(logdir):
    sweeps = {}
    for p in MISS_RATES:
        cfg = replace(RunConfig(), seed=11, sessions=200,
                      noise=NoiseConfig(p_miss=p))
        records = run_batch(cfg)
        log = logdir / f"c-miss{int(p * 10):02d}.jsonl"
        write_events(log, (e for r in records for e in r.events))
        sweeps[p] = {"tally": aggregate(records), "log": log,
                     "min_clearance": batch_audit(records)}
        del records
    return sweeps


def _idx(name: str) -> int:
    return SUBTASKS.index(name)


def test_criterion_01_navigation_always_succeeds(batch_a):
    with criterion(1, "default layout navigation 40/40 under 60 s"):
        t = batch_a["tally"]
        i = _idx(NAVIGATION)
        assert t.attempts[i] == 40
        assert t.successes[i] == 40
        assert batch_a["wall_s"] < 60.0


def test_criterion_02_baseline_abstains_everywhere(batch_b, tmp_path, capsys):
    with criterion(2, "keyword baseline grounds nothing; compat row exact"):
        t = batch_b["tally"]
        assert t.attempts[_idx(OLR)] == 40
        assert t.successes[_idx(OLR)] == 0
        assert t.attempts[_idx(FETCHING)] == 0
        assert t.attempts[_idx(CARRYING)] == 0
        assert all(only_event(r.events, "olr")["abstained"]
                   for r in batch_b["records"])
        rc = main(["run", "--seed", "1", "--sessions", "40",
                   "--grounder", "keyword-baseline", "--paper-compat-counts",
                   "--out", str(tmp_path / "b-compat")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out == "100 (40/40) | 0 (0/0) | 0 (0/0) | 0 (0/0)\n"


def test_criterion_03_relational_resolves_clean_scenes(batch_a):
    with criterion(3, "relational grounder 100% on noise-free scenes"):
        t = batch_a["tally"]
        assert t.attempts[_idx(OLR)] == 40
        assert t.successes[_idx(OLR)] == 40
        assert t.attempts[_idx(FETCHING)] == t.successes[_idx(FETCHING)] == 40
        assert t.attempts[_idx(CARRYING)] == t.successes[_idx(CARRYING)] == 40


def test_criterion_04_strict_gating(batch_a, batch_b, batch_c):
    with criterion(4, "attempts gate on the previous subtask's successes"):
        tallies = [batch_a["tally"], batch_b["tally"]]
        tallies += [batch_c[p]["tally"] for p in MISS_RATES]
        for t in tallies:
            assert t.attempts[_idx(FETCHING)] == t.successes[_idx(OLR)]
            assert t.attempts[_idx(CARRYING)] == t.successes[_idx(FETCHING)]


def test_criterion_05_report_formatting():
    with criterion(5, "tally cells format byte-exactly"):
        t = Tally(attempts=(40, 40, 8, 8), successes=(40, 8, 8, 1))
        assert format_cells(t) == \
            ("100 (40/40)", "20 (8/40)", "100 (8/8)", "12.5 (1/8)")
        assert format_report("", t) == \
            "100 (40/40) | 20 (8/40) | 100 (8/8) | 12.5 (1/8)"


def test_criterion_06_determinism_and_replay(batch_a, batch_b, batch_c,
                                             tmp_path, capsys):
    with criterion(6, "byte-identical reruns, worker-count invariance, "
                      "replay verifies every log"):
        rerun = run_batch(batch_a["cfg"])
        first = [e for r in batch_a["records"] for e in r.events]
        second = [e for r in rerun for e in r.events]
        assert len(first) == len(second)
        assert all(canonical_json(x) == canonical_json(y)
                   for x, y in zip(first, second))

        w1, w4 = tmp_path / "w1", tmp_path / "w4"
        assert main(["run", "--seed", "5", "--sessions", "12",
                     "--workers", "1", "--out", str(w1)]) == EXIT_OK
        assert main(["run", "--seed", "5", "--sessions", "12",
                     "--workers", "4", "--out", str(w4)]) == EXIT_OK
        capsys.readouterr()
        assert (w1 / "episodes.jsonl").read_bytes() == \
            (w4 / "episodes.jsonl").read_bytes()

        logs = [batch_a["log"], batch_b["log"]]
        logs += [batch_c[p]["log"] for p in MISS_RATES]
        for log in logs:
            assert main(["replay", str(log)]) == EXIT_OK, log
        capsys.readouterr()


def test_criterion_07_language_roundtrip():
    with criterion(7, "1000 sampled instructions round-trip in under 1 s"):
        rng = random.Random(2024)
        asts = [sample_ast(rng) for _ in range(1000)]
        t0 = time.perf_counter()
        ok = sum(parse(realize(ast)) == ast for ast in asts)
        elapsed = time.perf_counter() - t0
        assert ok == 1000
        assert elapsed < 1.0
        # the sampler actually exercises the grammar
        assert any(a.manip.relation is not None for a in asts)
        assert any(a.manip.source is not None for a in asts)
        assert any(a.manip.target.color is not None for a in asts)
        assert any(a.manip.target.material is not None for a in asts)


def test_criterion_08_visibility_matches_brute_force():
    with criterion(8, "projective visibility equals the cone+ray oracle"):
        checked = 0
        for seed in range(300, 350):
            env = build_environment(
                GenConfig(objects_per_room=2.0, min_objects=0, max_objects=2),
                seed)
            assert len(env.objects) <= 10
            grid = grid_for(env)
            cells = [(ix, iy) for iy in range(grid.ny)
                     for ix in range(grid.nx) if grid.free[iy, ix]]
            rng = random.Random(1000 + seed)
            for _ in range(2):
                ix, iy = cells[rng.randrange(len(cells))]
                x, y = grid.center(ix, iy)
                cam = CameraPose(Pose(x, y, rng.uniform(-math.pi, math.pi)))
                assert visible_objects(env, cam) == \
                    brute_force_visible(env, cam)
                checked += 1
        assert checked == 100


def test_criterion_09_accuracy_degrades_monotonically(batch_c):
    with criterion(9, "grounding accuracy falls with miss rate, "
                      "noisy points non-degenerate"):
        i = _idx(OLR)
        succ = [batch_c[p]["tally"].successes[i] for p in MISS_RATES]
        att = [batch_c[p]["tally"].attempts[i] for p in MISS_RATES]
        assert att == [200, 200, 200, 200]
        acc = [s / a for s, a in zip(succ, att)]
        assert all(a >= b for a, b in zip(acc, acc[1:]))
        for p, s, a in zip(MISS_RATES, succ, att):
            if p > 0.0:
                assert 0 < s < a, f"degenerate accuracy at p_miss={p}"


def test_criterion_10_paths_keep_robot_clearance(batch_a, batch_b, batch_c):
    with criterion(10, "every executed path keeps clearance >= 0.25 m"):
        lows = [batch_a["min_clearance"], batch_b["min_clearance"]]
        lows += [batch_c[p]["min_clearance"] for p in MISS_RATES]
        for low in lows:
            assert low >= ROBOT_RADIUS_M - CLEARANCE_TOL
