"""I/O transport methods coupling the simulation to the analysis.

One implementation per method evaluated in the paper:

====================  =====================================================
``mpiio``             shared-file collective writes + consumer polling
``dataspaces``        native DataSpaces: dedicated staging servers, per-slot
                      reader/writer locks
``adios+dataspaces``  the same servers behind the ADIOS uniform interface
                      (coarser, global locking)
``dimes``             native DIMES: data kept in simulation-node RDMA
                      buffers, metadata servers, collective per-step locks
``adios+dimes``       DIMES behind ADIOS
``flexpath``          publisher/subscriber event channels over a socket
                      interface (no shared-memory fast path)
``decaf``             dataflow through dedicated link ranks with a per-step
                      ``MPI_Waitall`` interlock and a single MPI world
``zipper``            the paper's contribution: fine-grain blocks,
                      asynchronous pipelining, work-stealing dual-channel
                      transfers, no interlocks
``none``              no coupling at all (simulation-only lower bound)
====================  =====================================================

Every transport implements :class:`repro.transports.base.Transport` and is
registered in :mod:`repro.transports.registry` so workflow configurations can
select it by name.
"""

from repro.transports.base import Transport, TransportFault
from repro.transports.registry import (
    available_transports,
    canonical_name,
    create_transport,
    register_transport,
    transport_class,
)
from repro.transports.null import NullTransport
from repro.transports.mpiio import MPIIOTransport
from repro.transports.staging import DataSpacesTransport, DIMESTransport
from repro.transports.flexpath import FlexpathTransport
from repro.transports.decaf import DecafTransport
from repro.transports.zipper import ZipperTransport

__all__ = [
    "Transport",
    "TransportFault",
    "available_transports",
    "canonical_name",
    "create_transport",
    "register_transport",
    "transport_class",
    "NullTransport",
    "MPIIOTransport",
    "DataSpacesTransport",
    "DIMESTransport",
    "FlexpathTransport",
    "DecafTransport",
    "ZipperTransport",
]
