"""mpi4py-like baseline.

The paper's "Option 2" (§I-A): transfer tensors between the DL framework
and an external MPI Python wrapper.  mpi4py offers the full MPI surface —
including vectored collectives — but in the pattern of the paper's
Listing 2 every GPU tensor is staged through host memory around each
call (cupy -> numpy -> MPI -> numpy -> cupy), every operation is
host-synchronized, and there is no tensor fusion.  That staging is what
opens the performance gap in Fig. 11.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.ops import ReduceOp
from repro.core.api import create_communicator
from repro.core.handles import WorkHandle
from repro.models.plan import PROFILES
from repro.sim.process import RankContext
from repro.tensor import SimTensor


class Mpi4pyLike:
    """mpi4py over one MPI library, with Listing-2 host staging."""

    def __init__(self, ctx: RankContext, backend: str = "mvapich2-gdr"):
        # interpreter-level wrapper cost per call (pickle-free buffer
        # path), the Listing-2 host staging, and no MCR comm streams
        config = PROFILES["mpi4py"].to_config()
        self.backend = backend
        self._comm = create_communicator(ctx, [backend], config=config, comm_id="mpi4py")

    # mpi4py upper-case buffer API, MPI spellings

    def Allreduce(self, tensor: SimTensor, op: ReduceOp = ReduceOp.SUM) -> None:
        self._comm.all_reduce(self.backend, tensor, op)

    def Iallreduce(self, tensor: SimTensor, op: ReduceOp = ReduceOp.SUM) -> WorkHandle:
        return self._comm.all_reduce(self.backend, tensor, op, async_op=True)

    def Allgather(self, recvbuf: SimTensor, sendbuf: SimTensor) -> None:
        self._comm.all_gather(self.backend, recvbuf, sendbuf)

    def Allgatherv(self, recvbuf: SimTensor, sendbuf: SimTensor, rcounts, displs) -> None:
        self._comm.all_gatherv(self.backend, recvbuf, sendbuf, rcounts, displs)

    def Alltoall(self, recvbuf: SimTensor, sendbuf: SimTensor) -> None:
        self._comm.all_to_all_single(self.backend, recvbuf, sendbuf)

    def Alltoallv(self, recvbuf: SimTensor, sendbuf: SimTensor, scounts, sdispls, rcounts, rdispls) -> None:
        self._comm.all_to_allv(self.backend, recvbuf, sendbuf, scounts, sdispls, rcounts, rdispls)

    def Reduce(self, tensor: SimTensor, root: int = 0, op: ReduceOp = ReduceOp.SUM) -> None:
        self._comm.reduce(self.backend, tensor, root, op)

    def Reduce_scatter(self, recvbuf: SimTensor, sendbuf: SimTensor, op: ReduceOp = ReduceOp.SUM) -> None:
        self._comm.reduce_scatter(self.backend, recvbuf, sendbuf, op)

    def Bcast(self, tensor: SimTensor, root: int = 0) -> None:
        self._comm.bcast(self.backend, tensor, root)

    def Gatherv(self, sendbuf: SimTensor, recvbuf: Optional[SimTensor], rcounts, displs, root: int = 0) -> None:
        self._comm.gatherv(self.backend, sendbuf, recvbuf, rcounts, displs, root)

    def Scatterv(self, recvbuf: SimTensor, sendbuf: Optional[SimTensor], scounts, displs, root: int = 0) -> None:
        self._comm.scatterv(self.backend, recvbuf, sendbuf, scounts, displs, root)

    def Send(self, tensor: SimTensor, dest: int, tag: int = 0) -> None:
        self._comm.send(self.backend, tensor, dest, tag)

    def Recv(self, tensor: SimTensor, source: int, tag: int = 0) -> None:
        self._comm.recv(self.backend, tensor, source, tag)

    def Barrier(self) -> None:
        self._comm.barrier(self.backend)

    def Get_rank(self) -> int:
        return self._comm.rank

    def Get_size(self) -> int:
        return self._comm.world_size

    def synchronize(self) -> None:
        self._comm.synchronize()

    def finalize(self) -> None:
        self._comm.finalize()
