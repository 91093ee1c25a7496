(** MPI-2-style dynamic process management.

    [spawn] is collective over the parent communicator: new ranks are added
    to the world, started as fibers, and connected to the parents through an
    intercommunicator — the dynamic process management functionality the
    paper lists among Motor's implemented MPI-2 features (Section 7). *)

type intercomm = {
  ic_local : Comm.t;  (** the group this process belongs to *)
  ic_remote : Comm.t;  (** the other side, sharing the same context *)
  ic_merge_ctx : int;  (** context reserved for {!merge} *)
  ic_is_parent : bool;  (** true on the spawning side *)
}

val spawn :
  Mpi.proc ->
  comm:Comm.t ->
  n:int ->
  (Mpi.proc -> intercomm -> unit) ->
  intercomm
(** Every member of [comm] must call [spawn]; rank 0 actually creates the
    [n] children, which run the given body under {!Mpi.rank_guard}, so
    they fail and finish like initial ranks. Must be called from inside
    a fiber scheduler; raises [Invalid_argument] otherwise. From the
    parents' perspective [ic_local] is [comm] and [ic_remote] addresses
    the children; the children see the mirror image. *)

val merge : Mpi.proc -> intercomm -> Comm.t
(** Intracommunicator over local-then-remote members ([MPI_Intercomm_merge]
    with the parents first). Deterministic: both sides compute the same
    communicator. *)

val remote_size : intercomm -> int

val send :
  Mpi.proc -> intercomm -> dst:int -> tag:int -> Buffer_view.t -> unit
(** Send to remote rank [dst] through the intercommunicator context. *)

val recv :
  Mpi.proc -> intercomm -> src:int -> tag:int -> Buffer_view.t -> Status.t
(** Receive from remote rank [src] (or {!Tag_match.any_source}). *)
