"""The record tables are the schema the docs state: every field of the event
table is documented in its event's bullet of `docs/episode-log.md`, every
field of the episode table in its field's bullet of `docs/dataset.md`, and
every record that a session writes conforms to the event table."""
import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from helpers import make_env, sighting
from homefetch.agent import NoiseConfig, Pick, fetch
from homefetch.config import RunConfig
from homefetch.eventlog import canonical_json, problems
from homefetch.session import EVENTS, run_session
from homefetch.taskgen import EPISODE
from homefetch.world import CameraPose, Pose, Rect

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _bullets(text: str, heading: str) -> dict[str, str]:
    """Name -> the text of its top-level bullet, in the section `heading`."""
    listing = text.split(f"\n## {heading}")[1].split("\n## ")[0]
    bullets = {}
    for item in listing.split("\n- `")[1:]:
        name, _, body = item.partition("`")
        bullets[name] = body.split("\n\n")[0]
    return bullets


def _log_doc() -> tuple[set[str], dict[str, str]]:
    """The common field names, and event name -> the text of its bullet."""
    text = (DOCS / "episode-log.md").read_text(encoding="utf-8")
    common = text.split("\n## Common fields")[1].split("\n## ")[0]
    fields = {line.split("`")[1] for line in common.splitlines()
              if line.startswith("| `")}
    return fields, _bullets(text, "Events, in emission order")


def _phantom_fetch_events() -> list[dict]:
    """A fetch of a hallucinated pick: the one source of a grasp `reason`."""
    env = make_env(room=Rect(0, 0, 6, 5), robot_xy=(1.0, 2.5))
    cam = CameraPose(Pose(1.0, 2.5, 0.0))
    phantom = Pick(sighting("phantom_3", bearing=0.0, rng=2.0), 3, cam)
    events: list[dict] = []
    fetch(env, phantom, SimpleNamespace(target="o0"), env.clock + 120.0,
          events)
    # A session gives each of its records its index once it is over.
    return [{**e, "session": 0} for e in events]


def _written_events() -> list[dict]:
    """Records of a clean, a noisy and a zero-budget session, and of a
    failed grasp, as read back from a log."""
    cfg = RunConfig(seed=7)
    noisy = replace(RunConfig(seed=11),
                    noise=NoiseConfig(p_miss=0.8, p_attr=0.5))
    sessions = [run_session(7, cfg, 0), run_session(11, noisy, 0),
                run_session(7, replace(cfg, time_budget_s=0.0), 0)]
    events = [e for s in sessions for e in s.events] + _phantom_fetch_events()
    return [json.loads(canonical_json(e)) for e in events]


def test_every_table_field_is_documented():
    common, bullets = _log_doc()
    assert set(bullets) == set(EVENTS)
    for name, row in EVENTS.items():
        assert common <= set(row), name
        for key in set(row) - common:
            assert f"`{key}`" in bullets[name], (name, key)


def test_every_written_record_conforms():
    events = _written_events()
    assert {"reason", "xy"} <= {k for e in events for k in e}
    for e in events:
        assert problems(e, EVENTS[e["event"]], e["event"]) == [], e


def _keys(spec) -> set[str]:
    """Every field name of a spec, at any depth."""
    if type(spec) is dict:
        return set(spec).union(*map(_keys, spec.values()))
    if type(spec) in (tuple, list):
        return set().union(*map(_keys, spec))
    return set()


def test_every_episode_field_is_documented():
    text = (DOCS / "dataset.md").read_text(encoding="utf-8")
    bullets = _bullets(text, "Episode records")
    assert set(bullets) == set(EPISODE)
    for name, spec in EPISODE.items():
        for key in _keys(spec):
            assert re.search(rf"\b{key}\b", bullets[name]), (name, key)
