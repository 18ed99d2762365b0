"""The :class:`Cluster` facade assembling nodes, network and file system."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simcore import Environment, RandomStreams
from repro.cluster.network import Network
from repro.cluster.node import ComputeNode
from repro.cluster.pfs import ParallelFileSystem
from repro.cluster.spec import ClusterSpec

__all__ = ["Cluster"]


class Cluster:
    """A simulated allocation of ``num_nodes`` nodes on a machine.

    Parameters
    ----------
    spec:
        Machine description (see :mod:`repro.cluster.presets`).
    num_nodes:
        Number of *modelled* nodes in this allocation.
    total_nodes:
        Size of the full job being represented (defaults to ``num_nodes``).
        Used for the fabric's scale-dependent behaviour; see
        :class:`repro.cluster.spec.ScalingModel`.
    env:
        Optionally share an existing simulation environment.
    deterministic:
        When ``True`` (the default) all jitter is disabled so results are
        exactly reproducible; benchmarks that want realistic variability pass
        ``False``.
    sanitize:
        Forwarded to :class:`Environment` when the cluster creates its own:
        arm the :mod:`repro.sanitize` determinism traps.  ``None`` defers to
        ``REPRO_SANITIZE``.  Ignored when ``env`` is supplied.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        num_nodes: int,
        total_nodes: Optional[int] = None,
        env: Optional[Environment] = None,
        deterministic: bool = True,
        seed: Optional[int] = None,
        sanitize: Optional[bool] = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if spec.max_nodes is not None and (total_nodes or num_nodes) > spec.max_nodes:
            raise ValueError(
                f"{spec.name} allows at most {spec.max_nodes} nodes per job, "
                f"requested {total_nodes or num_nodes}"
            )
        self.spec = spec
        self.env = env if env is not None else Environment(sanitize=sanitize)
        self.num_nodes = num_nodes
        self.total_nodes = int(total_nodes) if total_nodes else num_nodes
        self.deterministic = deterministic
        self.rng = RandomStreams(seed if seed is not None else spec.seed)
        jitter_cv = 0.0 if deterministic else 0.05

        self.network = Network(
            self.env,
            spec.network,
            num_nodes=num_nodes,
            total_nodes=self.total_nodes,
            rng=self.rng,
            jitter_cv=jitter_cv,
        )
        self.filesystem = ParallelFileSystem(
            self.env, spec.filesystem, network=self.network, rng=self.rng
        )
        self.nodes: List[ComputeNode] = [
            ComputeNode(self.env, i, spec.node, rng=self.rng, jitter_cv=jitter_cv)
            for i in range(num_nodes)
        ]

    # -- convenience -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time of the cluster's environment."""
        return self.env.now

    @property
    def cores_per_node(self) -> int:
        """Cores on one node of the machine."""
        return self.spec.node.cores

    @property
    def total_cores(self) -> int:
        """Cores in the full represented job."""
        return self.total_nodes * self.spec.node.cores

    @property
    def modelled_cores(self) -> int:
        """Cores on the explicitly modelled nodes."""
        return self.num_nodes * self.spec.node.cores

    def node(self, node_id: int) -> ComputeNode:
        """The modelled compute node with id ``node_id``."""
        return self.nodes[node_id]

    def node_of_rank(self, rank: int, ranks_per_node: Optional[int] = None) -> int:
        """Map a rank to a modelled node using block placement."""
        if ranks_per_node is not None and ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        rpn = ranks_per_node if ranks_per_node is not None else self.spec.node.cores
        return (rank // rpn) % self.num_nodes

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the underlying simulation environment."""
        return self.env.run(until)

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.spec.name!r} nodes={self.num_nodes} "
            f"(representing {self.total_nodes}) t={self.env.now:.3f}>"
        )
