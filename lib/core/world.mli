(** A Motor world: one VM instance per MPI rank, sharing a virtual clock.

    This is the top-level object an application creates — the analogue of
    launching N Motor processes with mpiexec. Each rank owns a managed
    heap, a collector and a device; all ranks share the channel and the
    clock. *)

module Comm = Mpi_core.Comm

type config = {
  policy : Pinning.policy;
  visited : Serializer.visited_strategy;
  arena_bytes : int;
  block_bytes : int;
}

val default_config : config
(** Deferred pinning, linear visited list (the paper's Motor), 32 MiB
    arenas with 256 KiB blocks. *)

type t

type rank_ctx = {
  world : t;
  proc : Mpi_core.Mpi.proc;
  rt : Vm.Runtime.t;
  pool : Buffer_pool.t;
  mutable policy : Pinning.policy;
  mutable visited : Serializer.visited_strategy;
}
(** Per-rank handle: the state System.MP operations run against. [policy]
    and [visited] default from the world config and are mutable for
    ablation experiments. *)

val create :
  ?channel:[ `Shm | `Sock | `Rdma ] ->
  ?cost:Simtime.Cost.t ->
  ?config:config ->
  ?fault:Mpi_core.Fault.plan ->
  ?detector:Mpi_core.Ft.detector ->
  n:int ->
  unit ->
  t
(** [fault] and [detector] pass through to {!Mpi_core.Mpi.create_world}:
    a plan with {!Mpi_core.Fault.kill} events (or an explicit detector)
    gives the world a process-failure service, and {!run} guards each
    rank's fiber so a kill tears that VM down fail-stop instead of
    aborting the run. *)

val env : t -> Simtime.Env.t
val mpi : t -> Mpi_core.Mpi.world
val rank_ctx : t -> int -> rank_ctx
val comm_world : t -> Comm.t

val run : t -> (rank_ctx -> unit) -> unit
(** Run one fiber per rank to completion. Bodies are wrapped in
    {!Mpi_core.Mpi.rank_guard}, so under a kill plan a victim's death is
    survivable by the other ranks. *)

val respawn_ctx : t -> int -> rank_ctx
(** A fresh VM instance (heap, collector, registry, buffer pool) for a
    rank restarted after a failure: the old context's heap died with the
    process, and the new incarnation's state comes from a checkpoint
    image (the [Checkpoint] store). Replaces the
    rank's context, so later {!rank_ctx} calls see the new one. Call
    after {!Mpi_core.Mpi.revive_rank} and before spawning the
    replacement fiber. *)

val rank : rank_ctx -> int
val gc : rank_ctx -> Vm.Gc.t
val registry : rank_ctx -> Vm.Classes.t

val spawn :
  rank_ctx ->
  n:int ->
  (rank_ctx -> Mpi_core.Dynamic.intercomm -> unit) ->
  Mpi_core.Dynamic.intercomm
(** Transparent process management (the paper's stated future work,
    Section 9): collectively spawn [n] new Motor ranks. Each child is
    provisioned with a full VM instance (heap, collector, registry, buffer
    pool) before its body runs, and is connected to the parents through an
    intercommunicator. Must be called by every member of the world
    communicator, from inside {!run}. *)
