(** System.MP internal calls for managed MIL programs.

    This is the last layer of the paper's architecture: a managed
    application, written in the portable assembly, calling message-passing
    internal calls that land in the runtime-resident MPI core (Figure 8's
    Recv / InternalCall Recv / MP_Recv chain). *)

val load : World.rank_ctx -> ?entry:string -> string -> Vm.Interp.t
(** Assemble a MIL program against this rank's runtime, register the base
    system library and the [mp.*] internal calls, verify, and return the
    execution context — the one-stop way to run a managed MPI program.

    The internal calls, in addition to the base system library:
    - [mp.rank : -> int64], [mp.size : -> int64]
    - [mp.send : object -> int64 -> int64 -> void] (dst, tag)
    - [mp.recv : object -> int64 -> int64 -> void] (src, tag)
    - [mp.osend : object -> int64 -> int64 -> void]
    - [mp.orecv : int64 -> int64 -> object]
    - [mp.barrier : -> void]
    - [mp.bcast : object -> int64 -> void] (root)
    - [mp.allreduce.f64 : object -> void] (element-wise sum, in place)
    - [mp.oscatter : object -> int64 -> object] (root's array or null ->
      root -> this rank's sub-array)
    - [mp.ogather : object -> int64 -> object] (my array -> root ->
      combined array at the root, null elsewhere)

    All operations run on the binding's {e current} communicator, which
    starts as the world. The fault-tolerance calls (MIL has no exception
    unwinding, so failures surface as status codes):
    - [mp.tryallreduce.f64 : object -> int64] — 0 = ok, 1 = a peer died
      ([Proc_failed]), 2 = communicator revoked
    - [mp.trybarrier : -> int64] — same codes
    - [mp.revoke : -> void] — revoke the current communicator
    - [mp.shrink : -> void] — replace the current communicator with its
      shrunken (survivors-only) version; [mp.size] and every subsequent
      operation reflect it
    - [mp.agree : int64 -> int64] — fault-tolerant AND-agreement
    - [mp.failed : -> int64] — number of ranks declared dead *)
