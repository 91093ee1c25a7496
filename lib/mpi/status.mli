(** Completion status of a receive, mirroring [MPI_Status]. *)

type t = {
  source : int;  (** world rank of the sender *)
  tag : int;
  bytes : int;  (** message payload size *)
}

val empty : t
