"""The Zipper runtime system — the paper's primary contribution.

Zipper couples a simulation (producer) application with a data-analysis
(consumer) application *below* the application layer: the simulation calls
``Zipper.write(block_id, data)`` for every fine-grain data block it produces,
the analysis calls ``Zipper.read()`` and is driven purely by data
availability.  Between the two sit a multi-threaded producer runtime module
(buffer + sender thread + work-stealing writer thread) and a multi-threaded
consumer runtime module (buffer + receiver + reader + output threads), which
together provide:

* **fine-grain pipelining** — blocks of 1–8 MB flow through the
  compute → transfer → analyse pipeline independently, with no per-step
  barrier or producer/consumer interlock;
* **the concurrent dual-channel transfer optimisation** — when the producer
  buffer fills past a high-water mark, the writer thread *steals* blocks and
  ships them through the file-system path, relieving the message path
  (Algorithm 1 of the paper);
* **Preserve / No-Preserve modes** — optionally persisting every block for
  later validation;
* **an analytical performance model** —
  ``T_t2s = max(T_comp, T_transfer, T_analysis)`` (plus the store stage in
  Preserve mode), used to validate the measured end-to-end times; it lives
  in :mod:`repro.perfmodel.zipper` and is exported by :mod:`repro.perfmodel`.

Two implementations share these abstractions:

* the **threaded runtime** in this package, which really runs producer and
  consumer callables on Python threads with an in-memory message channel and
  an on-disk file channel — usable directly on a workstation;
* the **simulated distributed transport**
  (:class:`repro.transports.zipper.ZipperTransport`), which executes the same
  algorithm inside the cluster simulator for the paper's large-scale
  experiments.
"""

from repro.core.blocks import BlockId, DataBlock
from repro.core.config import ZipperConfig, PRESERVE, NO_PRESERVE
from repro.core.buffers import ProducerBuffer, ConsumerBuffer, BufferClosed
from repro.core.channels import MixedMessage, NetworkChannel, FileChannel
from repro.core.stats import RuntimeStats
from repro.core.producer import ProducerRuntime
from repro.core.consumer import ConsumerRuntime
from repro.core.zipper import Zipper, ZipperResult, zip_applications

__all__ = [
    "BlockId",
    "DataBlock",
    "ZipperConfig",
    "PRESERVE",
    "NO_PRESERVE",
    "ProducerBuffer",
    "ConsumerBuffer",
    "BufferClosed",
    "MixedMessage",
    "NetworkChannel",
    "FileChannel",
    "RuntimeStats",
    "ProducerRuntime",
    "ConsumerRuntime",
    "Zipper",
    "ZipperResult",
    "zip_applications",
]
