(** The device's two matching queues, as in MPICH2's CH3:

    - the {e posted-receive queue}: receives waiting for a message;
    - the {e unexpected-message queue}: messages that arrived before any
      matching receive was posted.

    Both are searched in arrival order, preserving MPI's non-overtaking
    guarantee; every element inspected during a search charges the
    cost-model's [queue_probe_ns]. Appending is amortized O(1) (a
    two-list FIFO), so a backlog of n unmatched messages costs O(n) to
    build, not O(n^2). *)

type posted = {
  p_pattern : Tag_match.pattern;
  p_sink : Buffer_view.t;
  p_req : Request.t;
}

type unexpected =
  | U_eager of Packet.envelope * Bytes.t
  | U_rts of Packet.envelope * int  (** rendezvous id *)

type t

val create : Simtime.Env.t -> t
val post_recv : t -> posted -> unit
val take_posted : t -> Packet.envelope -> posted option
(** First posted receive matching the envelope, removed from the queue. *)

val add_unexpected : t -> unexpected -> unit
val take_unexpected : t -> Tag_match.pattern -> unexpected option
(** First unexpected message matching the pattern, removed. *)

val peek_unexpected : t -> Tag_match.pattern -> Packet.envelope option
(** Non-destructive variant ([MPI_Iprobe]). *)

val posted_length : t -> int
val unexpected_length : t -> int

val remove_posted : t -> pred:(posted -> bool) -> posted list
(** Remove (and return, in arrival order) every posted receive matching
    the predicate. Administrative — used by failure teardown and
    communicator revocation — so no [queue_probe_ns] is charged. *)

val remove_unexpected : t -> pred:(unexpected -> bool) -> unexpected list
(** Same, over the unexpected queue. *)

val iter_posted : t -> (posted -> unit) -> unit
(** Visit every posted receive in arrival order (diagnostics). *)

