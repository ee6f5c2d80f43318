"""What the machine was doing: CPU, memory and steal counters, and the
environment recorded beside every number.

CPU and RSS cover the benchmark process *plus* its live worker processes:
``RUSAGE_CHILDREN`` only updates when a child is reaped, so the workers are
read from ``/proc/<pid>/stat`` at both window edges instead.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of one process, from /proc (fields 14 and 15)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def _proc_peak_rss_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _host_jiffies() -> Dict[str, int]:
    """Aggregate ``cpu`` line of /proc/stat: steal and the total."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return {"steal": values[7] if len(values) > 7 else 0, "total": sum(values[:8])}


@dataclass(frozen=True)
class Snapshot:
    cpu_s: float        # this process + live children, user + sys
    peak_rss_mb: float  # this process + live children, high-water marks
    steal: int
    total: int


def snapshot() -> Snapshot:
    children = _child_pids()
    host = _host_jiffies()
    return Snapshot(
        cpu_s=time.process_time() + sum(_proc_cpu_s(pid) for pid in children),
        peak_rss_mb=_proc_peak_rss_mb("self") + sum(_proc_peak_rss_mb(p) for p in children),
        steal=host["steal"],
        total=host["total"],
    )


def reset_peak_rss() -> None:
    """Start the high-water mark again from what is resident now (writing 5
    to ``clear_refs``), so ``VmHWM`` is the peak of the one system measured
    and not of the references' eager systems or the set-up cycles."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # an old kernel: the peak then includes what ran before


def steal_share(first: Snapshot, last: Snapshot) -> float:
    total = last.total - first.total
    return (last.steal - first.steal) / total if total else 0.0


def _commit(root: Path) -> str:
    """HEAD of the checkout, read without starting a process."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"  # the driver's checkout is not a git repository


def describe(root: Path) -> Dict[str, object]:
    """The environment record printed (and written) beside every run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "commit": _commit(root),
        "loadavg": [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]],
    }
