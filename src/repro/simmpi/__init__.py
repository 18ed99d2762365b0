"""A simulated MPI layer running on the cluster model.

The proxy applications and the baseline transports are written against the
message-passing calls they would make on a real machine: the applications'
``MPI_Sendrecv`` halo exchanges (eager point-to-point sends and matching
receives underneath) and the transports' global barriers.  Barrier costs
scale with the size of the *represented* job (not just the modelled ranks),
so that Decaf's ``MPI_Waitall`` interlock, which it models as a barrier, and
the collective synchronisation of the other baselines get more expensive at
13,056 cores than at 204 — one of the effects behind the paper's Figures 16
and 18.
"""

from repro.simmpi.message import Message
from repro.simmpi.comm import Communicator

__all__ = ["Message", "Communicator"]
