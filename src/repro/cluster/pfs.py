"""Parallel file system model (Lustre-like shared, striped storage).

The file system is shared by the whole machine (and, on production systems, by
other users — modelled as ``background_load``), has a fixed aggregate
bandwidth determined by the number of object storage targets, a per-operation
metadata latency, and service-time variability.  On Bridges and Stampede2 the
storage traffic traverses the same Omni-Path fabric as MPI messages, so file
operations also place (down-weighted) load on the issuing node's NIC port —
exactly the coupling the paper discusses when explaining why the concurrent
dual-path optimisation still helps on machines without a separate I/O network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.simcore import Environment, RandomStreams
from repro.cluster.network import Network
from repro.cluster.spec import FileSystemSpec

__all__ = ["ParallelFileSystem", "IOResult"]


@dataclass
class IOResult:
    """Outcome of a single file read or write."""

    node: int
    nbytes: int
    op: str  #: "write" or "read"
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def bandwidth(self) -> float:
        if self.duration <= 0:
            return float("inf")
        return self.nbytes / self.duration


class ParallelFileSystem:
    """Shared striped file system with processor-sharing bandwidth allocation."""

    def __init__(
        self,
        env: Environment,
        spec: FileSystemSpec,
        network: Optional[Network] = None,
        rng: Optional[RandomStreams] = None,
    ):
        self.env = env
        self.spec = spec
        self.network = network
        self.rng = rng if rng is not None else RandomStreams(1)

        #: weighted number of in-flight requests sharing the aggregate bandwidth
        self._active = 0.0
        self.bytes_written = 0
        self.bytes_read = 0
        #: per-"file" record of how many bytes exist, keyed by file name
        self._files: Dict[str, int] = {}

    # -- capacity ---------------------------------------------------------
    @property
    def aggregate_bandwidth(self) -> float:
        """Bandwidth available to this job after background load, bytes/second."""
        return self.spec.aggregate_bandwidth

    def effective_rate(self) -> float:
        """Rate a new request would see given the current in-flight load."""
        return self.aggregate_bandwidth / max(1.0, self._active + 1.0)

    @property
    def active_requests(self) -> float:
        return self._active

    # -- data path --------------------------------------------------------
    def write(
        self,
        node: int,
        nbytes: int,
        filename: Optional[str] = None,
        rate_scale: float = 1.0,
    ) -> Generator:
        """Write ``nbytes`` from ``node``.  Simulation process returning :class:`IOResult`.

        ``rate_scale`` scales this one request's achieved rate — the
        bandwidth-lease hook lets a coupling that borrowed file-path
        bandwidth drain faster (> 1) and the lender drain slower (< 1).
        """
        return self._io(node, nbytes, "write", filename, rate_scale)

    def read(
        self,
        node: int,
        nbytes: int,
        filename: Optional[str] = None,
        rate_scale: float = 1.0,
    ) -> Generator:
        """Read ``nbytes`` into ``node``.  Simulation process returning :class:`IOResult`.

        See :meth:`write` for the meaning of ``rate_scale``.
        """
        return self._io(node, nbytes, "read", filename, rate_scale)

    def _io(
        self,
        node: int,
        nbytes: int,
        op: str,
        filename: Optional[str],
        rate_scale: float = 1.0,
    ) -> Generator:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        env = self.env
        start = env.now

        # Metadata round trip (open/create/stat).  Shared metadata servers are
        # modelled as a fixed latency plus variability.
        md = self.rng.jitter("pfs.metadata", self.spec.metadata_latency, self.spec.service_cv)
        if md > 0:
            yield env.sleep(md)

        if nbytes > 0:
            stripes = max(1, -(-nbytes // self.spec.stripe_size))
            parallel_osts = min(stripes, self.spec.num_osts)
            # A single client cannot exceed what its stripes' OSTs provide
            # (after background load, but not the job-share scaling, which
            # only applies to the aggregate pool), nor what its own node can
            # drive towards the file system.
            client_cap = min(
                parallel_osts * self.spec.ost_bandwidth * (1.0 - self.spec.background_load),
                self.spec.client_node_bandwidth,
            )
            rate = min(self.effective_rate(), client_cap)
            if rate_scale != 1.0:
                rate *= rate_scale
            duration = nbytes / rate
            duration = self.rng.jitter("pfs.data", duration, self.spec.service_cv)

            self._active += 1.0
            fabric_loaded = False
            if self.network is not None and self.spec.shares_fabric:
                # File traffic rides the same fabric, at reduced weight because
                # it fans out across OST server links.
                self.network.add_background_load(node, self.spec.fabric_weight)
                fabric_loaded = True
            try:
                yield env.sleep(duration)
            finally:
                self._active = max(0.0, self._active - 1.0)
                if fabric_loaded:
                    self.network.remove_background_load(node, self.spec.fabric_weight)

        if op == "write":
            self.bytes_written += int(nbytes)
            if filename is not None:
                self._files[filename] = self._files.get(filename, 0) + int(nbytes)
        else:
            self.bytes_read += int(nbytes)

        return IOResult(node, nbytes, op, start, env.now)

    # -- namespace --------------------------------------------------------
    def file_size(self, filename: str) -> int:
        """Bytes written so far under ``filename`` (0 if never written)."""
        return self._files.get(filename, 0)

    def exists(self, filename: str) -> bool:
        return filename in self._files

    def files(self) -> Dict[str, int]:
        """Snapshot of the namespace: filename -> size in bytes."""
        return dict(self._files)
