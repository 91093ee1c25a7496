(** Persistent communication requests ([MPI_Send_init] /
    [MPI_Recv_init] / [MPI_Start] / [MPI_Startall]).

    A persistent request captures the argument list of a point-to-point
    operation once; each {!start} launches a fresh instance. The classic
    use is a fixed communication pattern repeated every iteration (halo
    exchanges), where re-validating arguments each step is waste. *)

type t

val send_init :
  Mpi.proc -> comm:Comm.t -> dst:int -> tag:int -> Buffer_view.t -> t

val recv_init :
  Mpi.proc -> comm:Comm.t -> src:int -> tag:int -> Buffer_view.t -> t

val start : t -> Request.t
(** Launch an instance. Raises [Invalid_argument] if the previous instance
    of this persistent request is still in flight. *)

val start_all : t list -> Request.t list
val wait : t -> Status.t option
(** Wait for the current instance ([MPI_Wait] on the persistent handle). *)

val is_active : t -> bool
(** An instance is in flight and incomplete. *)
