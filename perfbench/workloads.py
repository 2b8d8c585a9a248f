"""The three workloads: the command one round runs, and the checks on its output.

Each round calls `homefetch.cli.main`, the entry point a user calls, on the
same inputs.  The program's seeds are pinned (7, 11 and 4, the acceptance
configurations), so every round does the same work and the sessions that hit
the known follow_path fault are the same in every run.  The benchmark's
`--seed` picks the number that the replay check corrupts.

A round is `SESSIONS` session (or episode) operations plus one round-level
check operation, so the share of failed operations is the same in every run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import homefetch.agent as agent
import homefetch.cli as cli
import homefetch.session as session
from homefetch.config import RunConfig
from homefetch.language import parse, realize
from homefetch.layouts import make_environment
from homefetch.session import run_session as _run_session

SRC = Path(__file__).resolve().parent.parent / "src"
CLEARANCE_M = 0.25  # robot radius: the minimum wall/furniture clearance
TOL = 1e-9


class SetupError(Exception):
    """The workload's inputs could not be made."""


@dataclass
class RoundCheck:
    attempted: int
    failed: int = 0
    # Failures other than the known follow_path stall; any one makes the
    # run incorrect.
    unexpected: list[str] = field(default_factory=list)
    digest: str = ""

    def fail(self, n: int, why: str | None) -> None:
        self.failed += n
        if why is not None:
            self.unexpected.append(why)


def call_main(argv: list[str]) -> tuple[int | None, str]:
    """Run the CLI in-process; returns (exit code or None on a crash, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        return None, traceback.format_exc()
    return rc, out.getvalue() + err.getvalue()


def sha256_file(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in
            path.read_text(encoding="ascii").splitlines() if line]


def _sessions(events: list[dict]) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for e in events:
        groups.setdefault(e["session"], []).append(e)
    return groups


def _wrap_angle(a: float) -> float:
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    return (a + 2.0 * math.pi if a < 0.0 else a) - math.pi


class Workload:
    name = ""
    SESSIONS = 100
    # (module, attribute) through which the program runs one session.
    unit: tuple[object, str] = (None, "")

    def prepare(self, out: Path, seed: int) -> None:
        self.out = out

    def warm_argv(self) -> list[str]:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def run_round(self) -> tuple[int | None, str]:
        return call_main(self.argv())

    def check(self, rc: int | None, printed: str) -> RoundCheck:
        """Check one round.  Every operation of a round that did not exit 0,
        or whose outputs are too malformed to check, failed."""
        if rc == 0:
            try:
                return self._check(printed)
            except Exception:
                why = traceback.format_exc(limit=-3)
        else:
            why = f"exit {rc}: {printed[-300:]}"
        res = RoundCheck(self.SESSIONS + 1)
        res.fail(self.SESSIONS + 1, why)
        return res

    def _check(self, printed: str) -> RoundCheck:
        raise NotImplementedError


class Clean(Workload):
    """`run`, relational grounder, zero noise: every stage of every session."""

    name = "clean"
    SEED = 7
    unit = (session, "run_session")

    def prepare(self, out: Path, seed: int) -> None:
        super().prepare(out, seed)
        self.dir = out / "run"
        self.records: list = []
        self._stall_verdicts: dict[int, bool] = {}
        static = make_environment("default")
        self._rects = np.array(
            [[r.x0, r.y0, r.x1, r.y1] for r in static.walls]
            + [[f.footprint.x0, f.footprint.y0, f.footprint.x1, f.footprint.y1]
               for f in static.furniture])

    def run_round(self) -> tuple[int | None, str]:
        """Keep the round's records: the checks audit their pose traces."""
        run_batch = cli.run_batch

        def keep(cfg):
            self.records = run_batch(cfg)
            return self.records

        cli.run_batch = keep
        try:
            return super().run_round()
        finally:
            cli.run_batch = run_batch

    def _argv(self, sessions: int, out: Path) -> list[str]:
        return ["run", "--seed", str(self.SEED), "--sessions", str(sessions),
                "--grounder", "relational", "--p-miss", "0", "--p-attr", "0",
                "--workers", "1", "--out", str(out)]

    def warm_argv(self) -> list[str]:
        return self._argv(1, self.out / "warm")

    def argv(self) -> list[str]:
        return self._argv(self.SESSIONS, self.dir)

    def _min_clearance(self, trace) -> float:
        """Least distance from any executed pose to a wall or furniture."""
        if not trace:
            return math.inf
        p = np.asarray(trace, dtype=float)[:, :2]
        r = self._rects
        dx = np.maximum(np.maximum(r[None, :, 0] - p[:, 0, None],
                                   p[:, 0, None] - r[None, :, 2]), 0.0)
        dy = np.maximum(np.maximum(r[None, :, 1] - p[:, 1, None],
                                   p[:, 1, None] - r[None, :, 3]), 0.0)
        return float(np.hypot(dx, dy).min())

    def _is_stall(self, index: int, failed_at_clock: float) -> bool:
        """Re-run one session, untimed, and see whether follow_path gave up
        before the deadline after the failing subtask had started."""
        if index not in self._stall_verdicts:
            stalls: list[float] = []
            follow = agent.follow_path

            def watch(env, path, deadline):
                ok = follow(env, path, deadline)
                if not ok and env.clock < deadline - TOL:
                    stalls.append(env.clock)
                return ok

            agent.follow_path = watch
            try:
                _run_session(self.SEED, RunConfig(seed=self.SEED), index)
            finally:
                agent.follow_path = follow
            self._stall_verdicts[index] = any(c >= failed_at_clock - TOL
                                              for c in stalls)
        return self._stall_verdicts[index]

    def _check(self, printed: str) -> RoundCheck:
        records, self.records = self.records, []
        res = RoundCheck(self.SESSIONS + 1)
        log = self.dir / "episodes.jsonl"
        res.digest = sha256_file(log)
        groups = _sessions(_read_jsonl(log))
        if sorted(groups) != list(range(self.SESSIONS)) or len(records) != self.SESSIONS:
            res.fail(self.SESSIONS + 1, "log does not hold every session")
            return res

        attempts = {}
        successes = {}
        for i, events in groups.items():
            start_clock = {}
            for e in events:
                if e["event"] == "subtask_start":
                    start_clock[e["subtask"]] = e["clock_s"]
                if e["event"] == "subtask_end" and e["attempted"]:
                    attempts[e["subtask"]] = attempts.get(e["subtask"], 0) + 1
                    successes[e["subtask"]] = (successes.get(e["subtask"], 0)
                                               + bool(e["succeeded"]))
            term = next(e for e in events if e["event"] == "termination")
            clearance = self._min_clearance(records[i].trace)
            if clearance < CLEARANCE_M - TOL:
                res.fail(1, f"session {i}: clearance {clearance:.4f} m")
            elif term["kind"] != "TaskCompleted":
                sub = term["subtask"]
                known = (term["kind"] == "SubtaskFailed"
                         and sub in ("Fetching", "Carrying")
                         and self._is_stall(i, start_clock[sub]))
                res.fail(1, None if known else f"session {i}: {term}")

        report = json.loads((self.dir / "report.json").read_text(encoding="ascii"))
        tally = {k: (v["attempts"], v["successes"]) for k, v in report["tally"].items()}
        counted = {k: (attempts.get(k, 0), successes.get(k, 0)) for k in tally}
        gated = (counted["Fetching"][0] == counted["OLR"][1]
                 and counted["Carrying"][0] == counted["Fetching"][1])
        if tally != counted or not gated:
            res.fail(1, f"gating or report mismatch: report {tally}, log {counted}")
        return res


class ReplayMiss(Workload):
    """`replay` of a p_miss 0.8 log: the read side, most sessions end at OLR."""

    name = "replay-miss-0.8"
    SEED = 11
    P_MISS = 0.8
    unit = (session, "replay")

    def prepare(self, out: Path, seed: int) -> None:
        super().prepare(out, seed)
        self.rng = random.Random(seed)
        fixture = out / "fixture"
        # The log is made by `run` in its own process, so neither its time
        # nor its memory counts against the replay.  Its bytes do not depend
        # on the worker count, and two workers halve this untimed wait.
        proc = subprocess.run(
            [sys.executable, "-m", "homefetch.cli", "run",
             "--seed", str(self.SEED), "--sessions", str(self.SESSIONS),
             "--p-miss", str(self.P_MISS), "--workers", "2",
             "--out", str(fixture)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SetupError(f"fixture run exited {proc.returncode}: "
                             f"{proc.stderr[-500:]}")
        self.log = fixture / "episodes.jsonl"
        self.first = [ln for ln in self.log.read_text(encoding="ascii").splitlines()
                      if json.loads(ln)["session"] == 0]
        self.warm_log = out / "warm.jsonl"
        self.warm_log.write_text("\n".join(self.first) + "\n", encoding="ascii")

    def warm_argv(self) -> list[str]:
        return ["replay", str(self.warm_log)]

    def argv(self) -> list[str]:
        return ["replay", str(self.log)]

    def _mutated(self) -> Path:
        """The first session's log with one number changed to another finite one."""
        k = self.rng.randrange(1, len(self.first))  # never the session_start
        event = json.loads(self.first[k])
        leaves = []

        def walk(node, path):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key], path + (key,))
            elif isinstance(node, list):
                for j, v in enumerate(node):
                    walk(v, path + (j,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                leaves.append(path)

        walk(event, ())
        path = self.rng.choice(leaves)
        parent = event
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = old + 1 if isinstance(old, int) else old + 0.25
        lines = list(self.first)
        lines[k] = json.dumps(event, sort_keys=True, separators=(",", ":"))
        dest = self.out / "mutated.jsonl"
        dest.write_text("\n".join(lines) + "\n", encoding="ascii")
        return dest

    def _check(self, printed: str) -> RoundCheck:
        res = RoundCheck(self.SESSIONS + 1, digest=sha256_file(self.log))
        if printed.strip() != f"replayed {self.SESSIONS} session(s): match":
            res.fail(self.SESSIONS, f"replay printed {printed!r}")
        rc6, said = call_main(["replay", str(self._mutated())])
        if rc6 != cli.EXIT_MISMATCH:
            res.fail(1, f"corrupted log: exit {rc6}, expected 6: {said[-300:]}")
        return res


class Generate(Workload):
    """`generate`: task generation, visibility and export, no robot motion."""

    name = "generate"
    SEED = 4
    unit = (cli, "generate_task")

    def prepare(self, out: Path, seed: int) -> None:
        super().prepare(out, seed)
        self.dir = out / "dataset"

    def _argv(self, sessions: int, out: Path) -> list[str]:
        return ["generate", "--seed", str(self.SEED),
                "--sessions", str(sessions), "--out", str(out)]

    def warm_argv(self) -> list[str]:
        return self._argv(1, self.out / "warm")

    def argv(self) -> list[str]:
        return self._argv(self.SESSIONS, self.dir)

    @staticmethod
    def _episode_problem(rec: dict) -> str | None:
        scene = rec["scene"]
        objects = {o["id"]: (o["x_m"], o["y_m"]) for o in scene["objects"]}
        surfaces = {s["id"]: s["region_m"] for f in scene["furniture"]
                    for s in f["surfaces"]}
        x0, y0, x1, y1 = surfaces[rec["task"]["destination"]["id"]]
        refs = {"target": objects[rec["task"]["target"]["id"]],
                "destination": (0.5 * (x0 + x1), 0.5 * (y0 + y1))}
        for role, ref in refs.items():
            cap = rec["captures"][role]
            cam = cap["camera"]
            snap = next((s for s in cap["snapshots"]
                         if s["id"] == cap["subject"]), None)
            if snap is None:
                return f"{role} capture does not show its subject"
            dx, dy = ref[0] - cam["x_m"], ref[1] - cam["y_m"]
            rng = math.hypot(dx, dy)
            bearing = _wrap_angle(math.atan2(dy, dx) - cam["theta_rad"])
            if (abs(rng - snap["range_m"]) > TOL
                    or abs(_wrap_angle(bearing - snap["bearing_rad"])) > TOL):
                return f"{role} bearing/range differ from the scene"
            if abs(bearing) > cam["fov_rad"] / 2.0 + TOL or rng > cam["range_m"] + TOL:
                return f"{role} subject outside the field of view or range"
        text = rec["instruction"]["text"]
        if realize(parse(text)) != text:
            return "realize(parse(text)) != text"
        return None

    def _check(self, printed: str) -> RoundCheck:
        res = RoundCheck(self.SESSIONS + 1)
        manifest = json.loads((self.dir / "manifest.json").read_text(encoding="ascii"))
        names = manifest["episodes"]
        res.digest = sha256_file(self.dir / "manifest.json",
                                 *(self.dir / n for n in names))
        if manifest["count"] != self.SESSIONS or len(names) != self.SESSIONS:
            res.fail(1, f"manifest counts {manifest['count']} episodes")
        for n in names:
            why = self._episode_problem(json.loads(
                (self.dir / n).read_text(encoding="ascii")))
            if why is not None:
                res.fail(1, f"{n}: {why}")
        return res


WORKLOADS = {w.name: w for w in (Clean, ReplayMiss, Generate)}
