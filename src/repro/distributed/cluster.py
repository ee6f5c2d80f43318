"""Multi-process edge cluster on localhost.

Spawns worker devices as separate OS processes (the closest laptop-scale
stand-in for separate boards: independent address spaces, real TCP between
them, killable with a signal) and wires a Master runtime to them.  The
cluster runs deployments as every other caller does, through
``cluster.master.engine.execute(plan, x)``, the same
:class:`~repro.engine.engine.ExecutionEngine` code path as the in-process
tests with a TCP :class:`~repro.engine.endpoints.TransportEndpoint`.
:meth:`LocalCluster.close` shuts that engine down, then stops the worker
process and removes its weights directory.
"""

from __future__ import annotations

import os
import selectors
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

#: How long a spawned worker may take to announce its port.
READY_TIMEOUT_S = 20.0


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
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        """The port on the child's ``READY`` line, waited for at most
        ``READY_TIMEOUT_S`` on the monotonic clock; a child that misses the
        deadline, or exits first, is killed and reaped."""
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + READY_TIMEOUT_S
        output = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    break
                chunk = os.read(fd, 4096)
                if not chunk:  # end of file: the child exited
                    break
                output += chunk
                for line in output.split(b"\n")[:-1]:
                    if line.startswith(b"READY"):
                        return int(line.split()[1])
        self.kill()
        self.process.stdout.close()
        raise RuntimeError(f"worker process failed to start (output: {output[-200:]!r})")

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
        self.process.stdout.close()

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
        self.worker_process: Optional[WorkerProcess] = None
        try:
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
            self.master = MasterRuntime(
                EmulatedDevice(jetson_nx_master(), net),
                transport,
                partition_split=spec.split,
                compiled=compiled,
            )
        except BaseException:
            self._release()
            raise

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
            self.master.engine.shutdown()
        finally:
            self._release()

    def _release(self) -> None:
        """Stop the worker process and remove the weights directory."""
        if self.worker_process is not None:
            self.worker_process.terminate()
        self._tmpdir.cleanup()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
