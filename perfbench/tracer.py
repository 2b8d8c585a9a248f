"""Spans around calls into homefetch's layers, recorded from outside `src/`.

The tracer rebinds module attributes: every `homefetch.*` module attribute
that is one of the listed functions is replaced by a wrapper, so calls
through aliases such as `homefetch.agent.world_step` are caught too.  A span
is (name, start, end, parent span, session).  Spans stay in memory, in
typed arrays, and are written out when the run ends.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Layers are the program's modules; these are the calls timed in each.
LAYERS: dict[str, tuple[str, ...]] = {
    "taskgen": ("generate_task", "build_environment", "capture_views",
                "make_instruction", "task_feasible", "export_dataset"),
    "agent": ("navigate_to_room", "crawl", "detect", "ground", "fetch",
              "carry", "follow_path", "find_approach", "lattice_captures",
              "captured"),
    "planner": ("plan_path",),
    "world": ("step", "robot_collides", "visible_objects", "line_of_sight"),
    "eventlog": ("write_events", "read_events"),
    "session": ("run_session", "replay"),
}
# Traced for the acceptance ratio only: each call is one candidate draw.
EXTRA = (("taskgen", "select_task"),)
# A call to one of these outside any other span starts a new session.
UNITS = ("session.run_session", "session.replay", "taskgen.generate_task")

# (reject reason, traced call, exception name or None for a False return)
REJECTS = (
    ("no_task", "taskgen.select_task", "NoFeasibleTask"),
    ("no_viewpoint", "taskgen.capture_views", "NoViewpoint"),
    ("no_description", "taskgen.make_instruction",
     "NoDistinguishingDescription"),
    ("screen", "taskgen.task_feasible", None),
)


class Tracer:
    """Calls, busy and self time per traced function, and the spans behind them."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        self.names += [f"{m}.{f}" for m, f in EXTRA]
        self._unit_ids = {self.names.index(u) for u in UNITS}
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.false_returns = [0] * n
        self.raised: Counter = Counter()
        self.sessions = 0
        self.plan_calls = 0
        self.plan_distinct = 0
        self._plan_keys: set = set()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._cols = {"span": array("q"), "name": array("i"),
                      "start": array("d"), "end": array("d"),
                      "parent": array("q"), "session": array("i")}
        self._saved: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "homefetch"
                                     or name.startswith("homefetch."))]
        for idx, qual in enumerate(self.names):
            mod, fn = qual.split(".")
            orig = getattr(sys.modules[f"homefetch.{mod}"], fn)
            wrapper = self._wrap(idx, orig)
            for m in pkg:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def end_round(self) -> None:
        """Distinct plan queries are counted within one batch of sessions."""
        self.plan_distinct += len(self._plan_keys)
        self._plan_keys = set()

    # --- the wrapper --------------------------------------------------------

    def _wrap(self, idx: int, fn):
        stack = self._stack
        cols = self._cols
        is_unit = idx in self._unit_ids
        is_plan = self.names[idx] == "planner.plan_path"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            if stack:
                parent = stack[-1][0]
            else:
                parent = -1
                if is_unit:
                    self.sessions += 1
            session = self.sessions - 1 if (stack or is_unit) else -1
            if is_plan:
                self.plan_calls += 1
                self._plan_keys.add((args[1], args[2]))
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.raised[(idx, type(e).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[idx] += 1
                self.busy[idx] += dur
                self.self_time[idx] += dur - frame[1]
                cols["span"].append(span)
                cols["name"].append(idx)
                cols["start"].append(t0)
                cols["end"].append(t1)
                cols["parent"].append(parent)
                cols["session"].append(session)
            if result is False:
                self.false_returns[idx] += 1
            return result

        return traced

    # --- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: np.frombuffer(v, dtype=v.typecode)
                               for k, v in self._cols.items()})

    def metrics(self, time_scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per session; host times scaled by `time_scale`."""
        n = max(self.sessions, 1)
        idx = {name: i for i, name in enumerate(self.names)}
        out: dict[str, tuple[float, str]] = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                i = idx[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.calls"] = (self.calls[i] / n, "calls/session")
                out[f"{mod}.{fn}.busy_ms"] = (
                    1e3 * self.busy[i] * time_scale / n, "ms/session")
                out[f"{mod}.{fn}.self_ms"] = (
                    1e3 * self.self_time[i] * time_scale / n, "ms/session")
        out["planner.plan_path.distinct_ratio"] = (
            _ratio(self.plan_distinct, self.plan_calls), "ratio")
        captured = self.calls[idx["agent.captured"]]
        seen = self.calls[idx["world.visible_objects"]]
        out["agent.captured.hit_ratio"] = (
            1.0 - _ratio(seen, captured) if captured else 0.0, "ratio")
        out["agent.follow_path.fails"] = (
            self.false_returns[idx["agent.follow_path"]] / n, "count/session")
        draws = self.calls[idx["taskgen.select_task"]]
        accepted = (self.calls[idx["taskgen.generate_task"]]
                    - sum(v for (i, _), v in self.raised.items()
                          if i == idx["taskgen.generate_task"]))
        out["taskgen.accept_ratio"] = (_ratio(accepted, draws), "ratio")
        for reason, call, exc in REJECTS:
            i = idx[call]
            count = (self.false_returns[i] if exc is None
                     else self.raised[(i, exc)])
            out[f"taskgen.reject.{reason}"] = (_ratio(count, accepted),
                                               "count/task")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
