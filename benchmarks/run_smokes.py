"""Run every measurement script's ``--smoke``: one CI entry point.

A smoke runs its script's measuring code on a small input, asserts only
what a live run alone can show (tier-1 asserts everything deterministic,
against the code), and writes nothing.

Usage::

    PYTHONPATH=src python benchmarks/run_smokes.py            # everything
    PYTHONPATH=src python benchmarks/run_smokes.py --list
    PYTHONPATH=src python benchmarks/run_smokes.py --only chaos
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: script stem -> what its smoke exercises.
SMOKES = {
    "scheduler": "live SLA scheduler vs fixed-widest under overload + a replica kill",
    "multiproc": "thread vs process replicas over shm weights",
    "dist_plan": "compiled vs eager HA over in-process endpoints and the wire",
    "trace_replay": "live replay of the zoo's bursts, traced and untraced",
    "chaos": "live supervised incident: zero lost, respawn, full capacity back",
    "tuning": "offline autotuner across the zoo and under chaos (virtual time)",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--list", action="store_true", help="list smokes and exit")
    parser.add_argument(
        "--only", action="append", default=[],
        help="run only smokes whose name contains this (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, description in SMOKES.items():
            print(f"{name:13s} {description}")
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    failed = []
    for name, description in SMOKES.items():
        if args.only and not any(sel in name for sel in args.only):
            continue
        print(f"=== smoke: {name} — {description}", flush=True)
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, f"benchmarks/bench_{name}.py", "--smoke"],
            cwd=REPO_ROOT, env=env,
        )
        ok = proc.returncode == 0
        print(
            f"=== smoke: {name} {'OK' if ok else 'FAILED'} "
            f"({time.monotonic() - started:.0f}s)",
            flush=True,
        )
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all smokes OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
