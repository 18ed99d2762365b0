"""Workload cost models used by the cluster simulator.

A :class:`WorkloadModel` tells the simulated workflow how expensive one
simulation step is on a reference core, how much data it emits, what halo
traffic its internal communication generates, and how expensive the coupled
analysis is per byte.  The constants are calibrated against the wall-clock
numbers the paper reports:

* **CFD** (Table 1 / Figure 2): 256 simulation ranks run 100 steps in 39.2 s
  of simulation-only time (0.392 s/step) and emit 400 GB in total
  (≈ 16 MiB per rank per step); 128 analysis ranks spend 48.4 s on the
  4th-moment analysis.
* **LAMMPS** (Figures 18/19): ≈ 20 MB per rank per step, ≈ 1.65 s/step on a
  reference (Haswell) core — chosen so a Stampede2 core (relative speed 0.8)
  reproduces the ≈ 2 s/step visible in the Figure 19 trace.
* **Synthetic** (Figures 12–15): 2 GiB of data per simulation core, with
  per-block compute times calibrated so that the 1 MB-block runs take ≈ 2.1 s
  (O(n)), ≈ 22 s (O(n log n)) and ≈ 64 s (O(n^{3/2})) per core, and a
  standard-variance analysis of ≈ 24 s per 4 GiB analysis core.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.apps.synthetic import canonical_complexity

__all__ = [
    "WorkloadModel",
    "cfd_workload",
    "lammps_workload",
    "synthetic_workload",
    "MiB",
    "GiB",
]

MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass(frozen=True)
class WorkloadModel:
    """Per-rank cost description of one coupled simulation + analysis workload."""

    name: str
    #: Compute seconds of one simulation step on one reference core.
    sim_step_seconds: float
    #: Bytes of analysis input emitted per rank per step.
    output_bytes_per_step: int
    #: Number of simulation time steps.
    steps: int
    #: Seconds of analysis per byte of input on one reference core.
    analysis_seconds_per_byte: float
    #: Bytes exchanged with each neighbour during the internal communication
    #: phase of one step (the LBM streaming halo, MD ghost atoms); 0 disables
    #: the phase.
    halo_bytes: int = 0
    #: Number of neighbours each rank exchanges halos with per step.
    halo_neighbors: int = 2
    #: Split of the per-step compute time over the traced kernel phases.
    phase_fractions: Dict[str, float] = field(
        default_factory=lambda: {"collision": 0.45, "streaming": 0.35, "update": 0.20}
    )
    #: Exponent describing how the per-step compute time grows with block size
    #: relative to :attr:`reference_block_bytes` (1.0 = independent of block
    #: size; the super-linear synthetic producers use > 1).
    block_exponent: float = 1.0
    reference_block_bytes: int = 1 * MiB
    #: Size of one redistribution element (used by Decaf's element-count
    #: overflow model): 8-byte doubles for grid fields, whole atom records for
    #: the molecular-dynamics workload.
    element_bytes: int = 8
    #: Bursty analytics: multiplier on the per-byte analysis cost during a
    #: burst (1.0 = steady analysis; used by the elastic scenarios, where an
    #: in-situ renderer or checkpoint analysis periodically spikes).
    analysis_burst_factor: float = 1.0
    #: A burst starts every ``analysis_burst_period`` steps (0 disables bursts).
    analysis_burst_period: int = 0
    #: Number of consecutive steps one burst lasts.
    analysis_burst_length: int = 1

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it too.
        if not self.sim_step_seconds >= 0:
            raise ValueError("sim_step_seconds must be non-negative")
        if not self.output_bytes_per_step > 0:
            raise ValueError("output_bytes_per_step must be positive")
        if not self.steps > 0:
            raise ValueError("steps must be positive")
        if not self.analysis_seconds_per_byte >= 0:
            raise ValueError("analysis_seconds_per_byte must be non-negative")
        if not self.halo_bytes >= 0:
            raise ValueError("halo_bytes must be non-negative")
        if not self.halo_neighbors >= 0:
            raise ValueError("halo_neighbors must be non-negative")
        if not abs(sum(self.phase_fractions.values()) - 1.0) <= 1e-6:
            raise ValueError("phase_fractions must sum to 1")
        if not self.block_exponent >= 1.0:
            raise ValueError("block_exponent must be >= 1")
        if not self.reference_block_bytes > 0:
            raise ValueError("reference_block_bytes must be positive")
        if not self.analysis_burst_factor > 0:
            raise ValueError("analysis_burst_factor must be positive")
        if not self.analysis_burst_period >= 0:
            raise ValueError("analysis_burst_period must be non-negative")
        if not self.analysis_burst_length > 0:
            raise ValueError("analysis_burst_length must be positive")
        if (
            self.analysis_burst_period
            and not self.analysis_burst_length < self.analysis_burst_period
        ):
            raise ValueError(
                "analysis_burst_length must be smaller than "
                "analysis_burst_period (every burst needs preceding steady "
                "steps to be observable)"
            )

    # -- derived quantities ---------------------------------------------------
    def total_output_bytes(self, ranks: int) -> int:
        """Data volume moved from simulation to analysis by the whole run."""
        if ranks <= 0:
            raise ValueError("ranks must be positive")
        return self.output_bytes_per_step * self.steps * ranks

    def sim_step_seconds_for_block(self, block_bytes: int) -> float:
        """Per-step compute time when the output is produced in ``block_bytes`` blocks."""
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.block_exponent == 1.0:
            return self.sim_step_seconds
        ratio = block_bytes / self.reference_block_bytes
        return self.sim_step_seconds * ratio ** (self.block_exponent - 1.0)

    def sim_block_seconds(self, block_bytes: int) -> float:
        """Compute seconds attributable to one ``block_bytes`` block of output."""
        per_step = self.sim_step_seconds_for_block(block_bytes)
        blocks_per_step = max(1.0, self.output_bytes_per_step / block_bytes)
        return per_step / blocks_per_step

    def analysis_seconds_per_byte_at(self, step: int) -> float:
        """Per-byte analysis cost at time step ``step`` (bursty analytics).

        Steady workloads (``analysis_burst_period`` = 0) return the base
        cost unchanged — including the exact float value, so non-bursty runs
        are bit-identical to the pre-burst model.  With bursts enabled, the
        *last* ``analysis_burst_length`` steps of every
        ``analysis_burst_period``-step window cost
        ``analysis_burst_factor`` × the base rate (the first window starts
        steady, so every burst is preceded by observable steady steps).
        """
        if self.analysis_burst_period <= 0 or self.analysis_burst_factor == 1.0:
            return self.analysis_seconds_per_byte
        phase = step % self.analysis_burst_period
        if phase >= self.analysis_burst_period - self.analysis_burst_length:
            return self.analysis_seconds_per_byte * self.analysis_burst_factor
        return self.analysis_seconds_per_byte

    def analysis_step_seconds(self, bytes_per_analysis_rank_per_step: float) -> float:
        """Analysis time per step for a rank receiving that many bytes."""
        if bytes_per_analysis_rank_per_step < 0:
            raise ValueError("bytes must be non-negative")
        return self.analysis_seconds_per_byte * bytes_per_analysis_rank_per_step

    def analysis_block_seconds(self, block_bytes: int) -> float:
        """Analysis time for one block."""
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        return self.analysis_seconds_per_byte * block_bytes

    def simulation_only_seconds(self) -> float:
        """Wall-clock of the standalone simulation (the paper's lower bound)."""
        return self.sim_step_seconds * self.steps

    def replace(self, **changes) -> "WorkloadModel":
        return replace(self, **changes)


def cfd_workload(steps: int = 100) -> WorkloadModel:
    """The lattice-Boltzmann channel-flow workload of Table 1, per-rank view."""
    output = 16 * MiB
    # The n-th moment computation itself costs ≈ 0.30 s per analysis rank per
    # step (each analysis rank consumes the output of two simulation ranks);
    # the 48.4 s "analysis" bar of Figure 2 additionally contains the
    # standalone analysis application's input I/O, which belongs to the
    # transport, not to the kernel modelled here.
    analysis_per_byte = 0.30 / (2 * output)
    # Halo: one y-z face of a 64x64x256 subgrid, 19 populations of 8 bytes.
    halo = 64 * 256 * 19 * 8
    return WorkloadModel(
        name="cfd",
        sim_step_seconds=0.392,
        output_bytes_per_step=output,
        steps=steps,
        analysis_seconds_per_byte=analysis_per_byte,
        halo_bytes=halo,
        halo_neighbors=2,
        phase_fractions={"collision": 0.45, "streaming": 0.35, "update": 0.20},
    )


def lammps_workload(steps: int = 100) -> WorkloadModel:
    """The Lennard-Jones melt workload of Section 6.3.2, per-rank view."""
    output = 20 * 1000 * 1000  # "approximately 20MB of data in each time step"
    # The MSD analysis is cheap relative to the n-th moment analysis.
    analysis_per_byte = 0.20 / 100.0 / output * 100  # 0.2 s per step per 20 MB
    return WorkloadModel(
        name="lammps",
        sim_step_seconds=1.65,
        output_bytes_per_step=output,
        steps=steps,
        analysis_seconds_per_byte=analysis_per_byte,
        halo_bytes=1 * MiB,
        halo_neighbors=2,
        phase_fractions={"collision": 0.60, "streaming": 0.25, "update": 0.15},
        element_bytes=24,
    )


#: Per-block compute seconds for a 1 MiB block, per complexity (calibrated so a
#: 2 GiB-per-core run matches the paper's 2.1 s / 22.2 s / 64.0 s).
_SYNTHETIC_RATE_PER_MIB_BLOCK = {
    "O(n)": 2.1 / 2048.0,
    "O(nlogn)": 22.2 / 2048.0,
    "O(n^1.5)": 64.0 / 2048.0,
}

#: Block-size exponents reproducing the growth of the 8 MB-block simulation
#: times in Figure 12 (O(n) is flat; the super-linear producers grow).
_SYNTHETIC_BLOCK_EXPONENT = {
    "O(n)": 1.0,
    "O(nlogn)": 1.07,
    "O(n^1.5)": 1.21,
}

#: Standard-variance analysis cost: ≈ 23.6 s for the 4 GiB one analysis core
#: receives in the Figure 12 configuration (two simulation cores per analysis core).
_SYNTHETIC_ANALYSIS_PER_BYTE = 23.6 / (4 * GiB)


def synthetic_workload(
    complexity: str,
    block_bytes: int = 1 * MiB,
    data_per_rank: int = 2 * GiB,
    analysis_seconds_per_byte: Optional[float] = None,
) -> WorkloadModel:
    """A synthetic producer emitting ``data_per_rank`` bytes in ``block_bytes`` blocks.

    Each "step" of the returned model produces exactly one block, which is how
    the paper's synthetic applications feed the runtime (there is no outer
    time-step loop, just a stream of blocks).
    """
    complexity = canonical_complexity(complexity)
    if block_bytes <= 0:
        raise ValueError("block_bytes must be positive")
    if data_per_rank < block_bytes:
        raise ValueError("data_per_rank must be at least one block")
    blocks = int(data_per_rank // block_bytes)
    rate = _SYNTHETIC_RATE_PER_MIB_BLOCK[complexity]
    exponent = _SYNTHETIC_BLOCK_EXPONENT[complexity]
    per_block = rate * (block_bytes / MiB) ** exponent
    return WorkloadModel(
        name=f"synthetic[{complexity}]",
        sim_step_seconds=per_block,
        output_bytes_per_step=block_bytes,
        steps=blocks,
        analysis_seconds_per_byte=(
            _SYNTHETIC_ANALYSIS_PER_BYTE
            if analysis_seconds_per_byte is None
            else analysis_seconds_per_byte
        ),
        halo_bytes=0,
        halo_neighbors=0,
        phase_fractions={"collision": 1.0},
        block_exponent=exponent,
        reference_block_bytes=1 * MiB,
    )
