"""The log's events are the schema of `docs/episode-log.md`: every event
name and field key that a session writes is documented there."""
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from helpers import make_env, sighting
from homefetch.agent import NoiseConfig, Pick, fetch
from homefetch.config import RunConfig
from homefetch.session import run_session
from homefetch.world import CameraPose, Pose, Rect

DOC = Path(__file__).resolve().parent.parent / "docs" / "episode-log.md"


def _doc() -> tuple[set[str], dict[str, str]]:
    """The common field names, and event name -> the text of its bullet."""
    text = DOC.read_text(encoding="utf-8")
    common = text.split("\n## Common fields")[1].split("\n## ")[0]
    fields = {line.split("`")[1] for line in common.splitlines()
              if line.startswith("| `")}
    listing = text.split("\n## Events, in emission order")[1].split("\n## ")[0]
    bullets = {}
    for item in listing.split("\n- `")[1:]:
        name, _, body = item.partition("`")
        bullets[name] = body.split("\n\n")[0]
    return fields, bullets


def _phantom_fetch_events() -> list[dict]:
    """A fetch of a hallucinated pick: the one source of a grasp `reason`."""
    env = make_env(room=Rect(0, 0, 6, 5), robot_xy=(1.0, 2.5))
    cam = CameraPose(Pose(1.0, 2.5, 0.0))
    phantom = Pick(sighting("phantom_3", bearing=0.0, rng=2.0), 3, cam)
    events: list[dict] = []
    fetch(env, phantom, SimpleNamespace(target="o0"), env.clock + 120.0,
          events)
    return events


def _written_events() -> list[dict]:
    cfg = RunConfig(seed=7)
    noisy = replace(RunConfig(seed=11),
                    noise=NoiseConfig(p_miss=0.8, p_attr=0.5))
    sessions = [run_session(7, cfg, 0), run_session(11, noisy, 0),
                run_session(7, replace(cfg, time_budget_s=0.0), 0)]
    return [e for s in sessions for e in s.events] + _phantom_fetch_events()


def test_every_written_event_and_field_is_documented():
    fields, bullets = _doc()
    events = _written_events()
    assert {"reason", "session", "clock_s"} <= {k for e in events for k in e}
    for e in events:
        name = e["event"]
        assert name in bullets, name
        for key in set(e) - fields:
            assert f"`{key}`" in bullets[name], (name, key)
