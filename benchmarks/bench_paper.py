"""The paper's claims, reproduced and recorded in ``REPRO.json``.

Runs :func:`repro.experiments.paper.reproduce` — the one recipe, its two
halves (analytic and trained) and the one claim list — prints its report,
and writes ``REPRO.json`` only if every claim passes.  ``python -m repro
fig2`` runs the same function and prints the same report.

Run (CI does, on every push; ~2 min on 2 cores)::

    PYTHONPATH=src python benchmarks/bench_paper.py

``REPRO.json`` carries the environment it was produced in; nothing in it
is wall-clock-derived.
"""

from __future__ import annotations

import json

from common import ROOT, env_record
from repro.experiments.paper import format_report, reproduce

RECORD_PATH = ROOT / "REPRO.json"


def main(argv=None) -> int:
    import argparse

    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    record, verdicts = reproduce()
    print(format_report(record, verdicts))
    failures = [f"{v.claim.name}: {v.detail}" for v in verdicts if not v.passed]
    if failures:
        print("NOT REPRODUCED:\n  " + "\n  ".join(failures))
        return 1
    payload = {"benchmark": "benchmarks/bench_paper.py", "env": env_record(), **record}
    RECORD_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
