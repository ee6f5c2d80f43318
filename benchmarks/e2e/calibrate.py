"""A/A calibration: how far two sets of runs of the *same* code disagree.

    python3 benchmarks/e2e/calibrate.py [--runs 10] [--out CALIBRATION.json]

Runs the whole benchmark as two interleaved sets (A, B, A, B, ... with a
different seed every run) and records, per (workload, metric):

* both medians and quartile triples, and the ``gap`` between the medians —
  the machine's drift is common to both sets, so this is what code alone
  can make two sets differ by;
* each set's ``spread`` (inter-quartile distance over the median, from
  ``statistics.quantiles(values, n=4)`` — the driver's own arithmetic);
* the ``drift``: the median of the session's later half of runs against
  its earlier half — what a driver sees that takes its two sets one after
  the other.

It does so for the gated end-to-end metrics and for the three timings every
run also prints, which is how they came to be ungated.

A metric's bound is the largest of 0.03, twice its worst gap, twice its
worst drift and three times its worst spread on any workload, capped at
the issue's 0.10.  The drift and spread terms are the driver's rules, not
the issue's: it refuses a benchmark whose second set's median is worse
than the first's by more than the bound, or whose spread exceeds the bound
(and asks for a third of it).  A metric whose worst spread is above the cap
cannot be gated and belongs in the per-layer set.  ``setup_s`` is the
exception the driver's contract makes: it must be an end-to-end metric, so
it cannot be moved; its spread is not gated; and it is to have the largest
bound — so it alone is capped at the contract's 0.25.  ``ok_share`` is 0:
any drop is a regression.  Nothing else may use the machine while this
runs: with two cores, a test run next to it *is* the noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [m["name"] for m in BENCHMARK["end_to_end"]]
UNGATED_TIMINGS = ["throughput_ips", "latency_p50_ms", "cpu_ms_per_img"]  # run.py's ``note`` lines
FLOOR, CAP, SETUP_CAP = 0.03, 0.10, 0.25


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"seed": seed, "wall_s": wall, "error": done.stderr[-2000:], "rc": done.returncode}
    result = json.loads(lines[-1])
    notes = {
        line.split()[1]: float(line.split()[3]) for line in lines if line.startswith("note ")
    }
    return {
        "env": next(json.loads(line[4:]) for line in lines if line.startswith("env ")),
        "seed": seed, "wall_s": wall, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "values": {
            **{n: m["value"] for n, m in result["metrics"].items()},
            **{n: notes[n] for n in UNGATED_TIMINGS},
        },
        "notes": notes,
    }


def _median_and_spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "quartiles": [q1, q2, q3], "spread": (q3 - q1) / median, "runs": len(values)}


def summarise(runs: dict) -> dict:
    """Per workload and metric: medians, quartiles and spreads of the two
    sets, the gap between them, and the drift between the session's halves."""
    summary: dict = {}
    for workload, sets in runs.items():
        for metric in GATED + UNGATED_TIMINGS:
            row = {
                side: _median_and_spread([r["values"][metric] for r in results if "values" in r])
                for side, results in sets.items()
            }
            row["gap"] = abs(row["A"]["median"] - row["B"]["median"]) / row["A"]["median"]
            # As run: A0, B0, A1, B1, ...
            in_time = [r["values"][metric] for pair in zip(sets["A"], sets["B"]) for r in pair if "values" in r]
            early, late = in_time[: len(in_time) // 2], in_time[len(in_time) // 2:]
            row["drift"] = abs(statistics.median(late) / statistics.median(early) - 1.0)
            summary.setdefault(workload, {})[metric] = row
    return summary


def propose_bounds(summary: dict) -> dict:
    bounds = {}
    for metric in GATED + UNGATED_TIMINGS:
        rows = [summary[w][metric] for w in summary]
        gap = max(r["gap"] for r in rows)
        drift = max(r["drift"] for r in rows)
        spread = max(max(r["A"]["spread"], r["B"]["spread"]) for r in rows)
        setup = metric == "setup_s"  # the contract's exception: see the module docstring
        need = max(2 * gap, 2 * drift, 0.0 if setup else 3 * spread)
        cap = SETUP_CAP if setup else CAP
        bounds[metric] = {
            "worst_gap": gap, "worst_drift": drift, "worst_spread": spread, "uncapped": need,
            # The driver compares the spread with the bound (set-up's excepted).
            "proposed": min(cap, max(FLOOR, need)) if setup or spread <= cap else None,
        }
    bounds["ok_share"]["proposed"] = 0.0
    return bounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set per workload (>= 5)")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, default=HERE / "CALIBRATION.json")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    names = [w["name"] for w in BENCHMARK["workloads"]]
    runs = {name: {"A": [], "B": []} for name in names}
    for i in range(args.runs):
        for offset, side in enumerate("AB"):
            for name in names:
                result = one_run(name, 2 * i + offset + 1, args.seconds)
                runs[name][side].append(result)
                shown = result.get("values") or result.get("error", "")[-300:]
                print(f"{side}{i} {name} {result['wall_s']:.1f}s {shown}", flush=True)
    summary = summarise(runs)
    bounds = propose_bounds(summary)
    failures = [
        (w, side, r) for w, sets in runs.items() for side, rs in sets.items()
        for r in rs if "error" in r or not r.get("correct", False)
    ]
    envs = [r.pop("env") for sets in runs.values() for rs in sets.values() for r in rs if "env" in r]
    args.out.write_text(json.dumps({
        "what": "A/A calibration of benchmarks/e2e: two interleaved sets of runs of the same code",
        "env": envs[0] if envs else None, "runs_per_set": args.runs, "seconds": args.seconds,
        "failed_runs": len(failures), "bounds": bounds, "summary": summary, "runs": runs,
    }, indent=1) + "\n")
    for metric, b in bounds.items():
        verdict = "spread above the cap: per-layer" if b["proposed"] is None else f"bound {b['proposed']:.3f}"
        print(f"{metric}: worst gap {b['worst_gap']:.4f} drift {b['worst_drift']:.4f} "
              f"spread {b['worst_spread']:.4f} -> {verdict}")
    print(f"{len(failures)} failed runs; wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
