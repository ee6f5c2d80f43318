"""Deterministic fault injection, supervised respawn, degradation policies.

The repo's fault story (device-plane crash/recover timelines use the same
:class:`~repro.faults.plan.FaultPlan` type):

* :mod:`~repro.faults.plan` — seeded, serialisable fault schedules;
* :mod:`~repro.faults.injector` — applies a plan to a live frontend at
  existing seams (no production test-only branches);
* :mod:`~repro.faults.supervisor` — respawns ejected replicas with
  backoff, jitter, and a restart budget;
* :mod:`~repro.faults.policy` — deadline-aware retries and brown-out;
* :mod:`~repro.faults.scenarios` — faulty variants of the scenario zoo.
"""
