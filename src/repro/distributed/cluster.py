"""Multi-process edge cluster on localhost.

Spawns worker devices as separate OS processes (the closest laptop-scale
stand-in for separate boards: independent address spaces, real TCP between
them, killable with a signal) and wires a Master runtime to them.  The
master is the engine facade, so the cluster exercises the exact same
:class:`~repro.engine.engine.ExecutionEngine` code path as the in-process
tests — just with a TCP :class:`~repro.engine.endpoints.TransportEndpoint`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from typing import Optional

from repro.comm.tcp import connect
from repro.comm.transport import TransportError
from repro.device.emulated import EmulatedDevice
from repro.device.profiles import jetson_nx_master
from repro.distributed.master import MasterRuntime
from repro.nn.checkpoint import save_state
from repro.slimmable.slim_net import SlimmableConvNet
from repro.utils.logging import get_logger

_LOGGER = get_logger("cluster")


class WorkerProcess:
    """Handle on a spawned worker OS process."""

    def __init__(
        self,
        weights_path: str,
        *,
        split: int,
        lower_widths,
        max_width: int,
        num_convs: int,
    ) -> None:
        cmd = [
            sys.executable,
            "-m",
            "repro.distributed.worker_main",
            "--port",
            "0",
            "--weights",
            weights_path,
            "--split",
            str(split),
            "--max-width",
            str(max_width),
            "--num-convs",
            str(num_convs),
            "--lower-widths",
            *[str(w) for w in lower_widths],
        ]
        # The child must import the same `repro` the parent is running, even
        # from a plain checkout where the package is not installed.
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        self.process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env
        )
        self.port = self._await_ready()

    def _await_ready(self, timeout: float = 20.0) -> int:
        deadline = time.time() + timeout
        line = ""
        while time.time() < deadline:
            line = self.process.stdout.readline()
            if line.startswith("READY"):
                return int(line.split()[1])
            if self.process.poll() is not None:
                break
        raise RuntimeError(f"worker process failed to start (last output: {line!r})")

    def kill(self) -> None:
        """Hard-kill the process — the 'power outage' failure mode."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=5.0)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class LocalCluster:
    """One master (in-process) + one worker (subprocess) over real TCP."""

    def __init__(
        self,
        net: SlimmableConvNet,
        *,
        compiled: bool = False,
    ) -> None:
        self.net = net
        self._tmpdir = tempfile.TemporaryDirectory(prefix="fluid-cluster-")
        weights_path = os.path.join(self._tmpdir.name, "weights.npz")
        save_state(weights_path, net.state_dict())

        spec = net.width_spec
        self.worker_process = WorkerProcess(
            weights_path,
            split=spec.split,
            lower_widths=spec.lower_widths,
            max_width=spec.max_width,
            num_convs=spec.num_convs,
        )
        transport = self._connect_with_retry(self.worker_process.port)
        master_device = EmulatedDevice(jetson_nx_master(), net)
        self.master = MasterRuntime(
            master_device,
            transport,
            partition_split=spec.split,
            compiled=compiled,
        )

    @property
    def engine(self):
        """The unified execution engine driving this cluster over TCP."""
        return self.master.engine

    @staticmethod
    def _connect_with_retry(port: int, attempts: int = 20, delay: float = 0.1):
        last: Optional[Exception] = None
        for _ in range(attempts):
            try:
                return connect("127.0.0.1", port, timeout=2.0)
            except TransportError as exc:
                last = exc
                time.sleep(delay)
        raise RuntimeError(f"could not connect to worker on port {port}: {last}")

    def kill_worker(self) -> None:
        self.worker_process.kill()

    def close(self) -> None:
        try:
            self.master.shutdown_worker()
        finally:
            self.worker_process.terminate()
            self._tmpdir.cleanup()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
