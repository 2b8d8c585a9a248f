"""Command line: run session batches, export datasets, report, audit replay.

Exit codes are part of the interface:
0 success, 2 configuration error, 3 generation hard failure, 4 I/O error,
5 schema error in an input file, 6 replay mismatch.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agent import GROUNDERS
from .config import (
    ConfigError, RunConfig, apply_overrides, config_echo, load_config,
)
from .eventlog import SchemaError, canonical_json, read_events, write_events
from .layouts import forget_memos
from .seeds import h64
from .session import (
    MismatchDetected, SUBTASKS, Tally, aggregate, format_cells, format_report,
    replay_log, run_batch, tallies_from_events,
)
from .taskgen import (
    GenerationFailed, episode_text, export_dataset, generate_task,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_IO = 4
EXIT_SCHEMA = 5
EXIT_MISMATCH = 6


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "fn", "config")}
    return apply_overrides(cfg, flags)


def _tally_dict(t: Tally) -> dict:
    return {name: {"attempts": t.attempts[i], "successes": t.successes[i]}
            for i, name in enumerate(SUBTASKS)}


def cmd_run(args) -> int:
    cfg = _load_run_config(args)
    try:
        records = run_batch(cfg)
    except GenerationFailed as e:
        print(f"generation failed: {e}", file=sys.stderr)
        return EXIT_GENERATION
    tally = aggregate(records, cfg.paper_compat_counts)
    row = format_report("", tally)
    out = Path(cfg.out or f"runs/seed{cfg.seed}-{cfg.grounder}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_events(out / "episodes.jsonl",
                     (e for r in records for e in r.events))
        (out / "report.txt").write_text(row + "\n", encoding="ascii")
        summary = {
            "label": cfg.grounder, "row": row,
            "cells": list(format_cells(tally)),
            "tally": _tally_dict(tally),
            "sessions": cfg.sessions, "seed": cfg.seed,
            "paper_compat_counts": cfg.paper_compat_counts,
            "config": config_echo(cfg),
        }
        (out / "report.json").write_text(canonical_json(summary) + "\n",
                                         encoding="ascii")
    except OSError as e:
        print(f"cannot write outputs under {out}: {e}", file=sys.stderr)
        return EXIT_IO
    print(row)
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    out = Path(cfg.out or f"dataset/seed{cfg.seed}")
    # Each scene is dropped once its text is made; nothing is written
    # unless every episode generates.
    texts = []
    try:
        for i in range(cfg.sessions):
            env, task = generate_task(cfg.gen, h64("session", cfg.seed, i))
            texts.append(episode_text(i, env, task))
    except GenerationFailed as e:
        print(f"generation failed: {e}", file=sys.stderr)
        return EXIT_GENERATION
    try:
        export_dataset(texts, out, meta={"seed": cfg.seed,
                                         "config": config_echo(cfg)})
    except OSError as e:
        print(f"cannot write dataset under {out}: {e}", file=sys.stderr)
        return EXIT_IO
    print(out / "manifest.json")
    return EXIT_OK


def cmd_report(args) -> int:
    merged: dict[str, Tally] = {}
    for path in args.logs:
        try:
            events = read_events(path)
            per_label = tallies_from_events(events, args.paper_compat_counts or False)
        except OSError as e:
            print(f"cannot read {path}: {e}", file=sys.stderr)
            return EXIT_IO
        except SchemaError as e:
            print(f"schema error in {path}: {e}", file=sys.stderr)
            return EXIT_SCHEMA
        for label, tally in per_label.items():
            merged[label] = merged.get(label, Tally()) + tally
    if not merged:
        print(format_report("", Tally()))
        return EXIT_OK
    for label in sorted(merged):
        print(format_report(label, merged[label]))
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        n = replay_log(args.log)
    except OSError as e:
        print(f"cannot read {args.log}: {e}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as e:
        print(f"schema error in {args.log}: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except MismatchDetected as e:
        print(f"replay mismatch in {args.log}: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except GenerationFailed as e:
        print(f"generation failed: {e}", file=sys.stderr)
        return EXIT_GENERATION
    print(f"replayed {n} session(s): match")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser, *, runtime: bool) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    p.add_argument("--sessions", type=int,
                   help="number of sessions (episodes for generate)")
    p.add_argument("--out", help="output directory")
    if runtime:
        p.add_argument("--grounder", choices=GROUNDERS)
        p.add_argument("--p-miss", dest="noise.p_miss", type=float,
                       help="per-object detector miss probability")
        p.add_argument("--p-attr", dest="noise.p_attr", type=float,
                       help="per-attribute corruption probability")
        p.add_argument("--time-budget", dest="time_budget_s", type=float,
                       help="session time budget, simulated seconds")
        p.add_argument("--workers", type=int, help="parallel session workers")
        p.add_argument("--paper-compat-counts",
                       action="store_const", const=True,
                       help="count OLR abstentions as non-attempts")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homefetch",
        description="Generate, execute, and evaluate fetch-and-carry sessions "
                    "in a deterministic 2-D home simulator.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a batch of sessions")
    _add_config_flags(run, runtime=True)
    run.set_defaults(fn=cmd_run)

    gen = sub.add_parser("generate", help="export a task dataset")
    _add_config_flags(gen, runtime=False)
    gen.set_defaults(fn=cmd_generate)

    rep = sub.add_parser("report", help="aggregate logs into table rows")
    rep.add_argument("logs", nargs="+", help="episode log files")
    rep.add_argument("--paper-compat-counts",
                     action="store_const", const=True)
    rep.set_defaults(fn=cmd_report)

    rpl = sub.add_parser("replay", help="re-run a log and verify determinism")
    rpl.add_argument("log", help="episode log file")
    rpl.set_defaults(fn=cmd_replay)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Work on a geometry is memoised per command, never across commands.
    forget_memos()
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
