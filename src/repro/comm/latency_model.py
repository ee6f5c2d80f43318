"""Offline-measured communication latency model.

The paper sidesteps network variance: "we measured the communication
latency offline.  The total throughput of the system can be calculated with
the sum of computation and communication latency."  This class is that
offline measurement, parameterised as a classic alpha-beta model:

    t(transfer) = base_latency + bytes / bandwidth

Defaults are calibrated so the paper's four per-image exchanges (three
pooled conv activations plus the partial logits) cost ~6.6 ms, the gap
between its lone-50%-model and distributed-full-model operating points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable


@dataclass(frozen=True)
class CommLatencyModel:
    """Alpha-beta cost of one transfer over the device link."""

    base_latency_s: float = 1.4448e-3
    bandwidth_bytes_per_s: float = 12.5e6  # 100 Mbit/s

    def __post_init__(self) -> None:
        if self.base_latency_s < 0:
            raise ValueError("base_latency_s must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time(self, nbytes: int) -> float:
        """Seconds for one transfer of ``nbytes`` (full-duplex exchange of
        equal halves costs the same as the larger one-way transfer)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.base_latency_s + nbytes / self.bandwidth_bytes_per_s

    def total_time(self, transfers: Iterable[int]) -> float:
        return sum(self.transfer_time(n) for n in transfers)

    def scaled_latency(self, factor: float) -> "CommLatencyModel":
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return replace(self, base_latency_s=self.base_latency_s * factor)
