"""SLA-aware serving control plane.

Sits above :mod:`repro.engine` and :mod:`repro.runtime`: admission
control (fail-fast on infeasible deadlines), deadline-driven slimmable
width selection calibrated online, and failure-aware routing over a pool
of shared-weight replicas with hedged retries.
"""
