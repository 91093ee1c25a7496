(** Nonblocking operation handles, mirroring [MPI_Request].

    A request is the unit the paper's conditional pin mechanism watches: the
    garbage collector's mark phase asks [is_complete] to decide whether a
    non-blocking operation still needs its buffer pinned (Section 4.3). *)

type kind =
  | Send_req
  | Recv_req
  | Coll_req of { rounds : int; steps : int }
      (** A generalized request backed by a collective schedule
          ({!Coll_sched}) of [rounds] rounds and [steps] steps: complete
          once every step of the schedule is done. The conditional-pin
          machinery needs nothing beyond [is_complete], so the GC mark
          phase polls collective requests exactly like point-to-point
          ones. *)

type reason =
  | Error of string  (** categorized protocol error (truncation, NAK, ...) *)
  | Proc_failed of int
      (** the operation touched a peer (world rank) declared dead by the
          failure detector — ULFM's [MPI_ERR_PROC_FAILED] *)
  | Comm_revoked of int
      (** the operation's communicator (context id) was revoked —
          ULFM's [MPI_ERR_REVOKED] *)

type t

val create : id:int -> kind -> t
val id : t -> int
val kind : t -> kind
val is_complete : t -> bool

val complete : t -> Status.t option -> unit
(** Idempotent: completing an already-complete request is a no-op, so a
    duplicated control packet on a lossy transport can never crash the
    progress engine. The first completion (or failure) wins. *)

val fail : t -> string -> unit
(** Complete the request with a categorized error instead of a status
    (e.g. truncation, rendezvous refused). Waiters surface the error as
    {!Ch3.Mpi_error}; callbacks still fire so tracking stays balanced.
    No-op if the request already completed. Equivalent to
    [fail_reason t (Error msg)]. *)

val fail_reason : t -> reason -> unit
(** Complete the request with a typed failure reason. [Proc_failed] and
    [Comm_revoked] are raised by waiters as {!Ft.Proc_failed} /
    {!Ft.Revoked} so recovery code can branch without string matching.
    First completion wins, as with {!complete}. *)

val status : t -> Status.t option
(** [Some] once a receive has completed. *)

val reason : t -> reason option
(** The typed failure reason, if the request was failed. *)

val error : t -> string option
(** The failure reason as a message, if the request was failed. *)

val on_complete : t -> (unit -> unit) -> unit
(** Register a callback fired at completion (buffer-pool recycling, tests).
    Fires immediately if already complete. *)
