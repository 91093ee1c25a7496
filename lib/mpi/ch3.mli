(** The device layer (MPICH2's ADI/CH3 analogue).

    One device per process. Implements message queuing and matching,
    packetization, the eager and rendezvous protocols, and data transfer
    over a {!Channel.t}. All transport-independent logic lives here; the
    channel below it only moves packets. *)

exception Mpi_error of string
(** Protocol-level failures (e.g. a message longer than its receive
    buffer — the truncation error that protects object integrity).
    Raised by waiters ({!Mpi.wait}) when a request was failed with a
    categorized error; the progress engine itself never throws on stale
    or duplicated packets — those are counted and dropped, so a lossy
    channel (see {!Fault} and {!Reliable}) cannot crash it. *)

type t

type send_mode =
  | Standard  (** eager below the threshold, rendezvous above *)
  | Synchronous  (** always rendezvous: completion implies a match *)

val create :
  ?ft:Ft.t ->
  Simtime.Env.t ->
  Channel.t ->
  rank:int ->
  fresh_id:(unit -> int) ->
  t
(** [fresh_id] must be shared by all devices of a world (request and
    rendezvous identifiers). [ft] is the world's failure service, if it
    has one: every {!progress} pump runs its {!Ft.tick} for this rank,
    operations consult its revocation registry ({!ctx_revoked}) and
    declared-dead set ({!peer_dead}), and {!idle_poll} carries its
    heartbeat and horizon. Without it the device never fails an
    operation for a process failure. *)

val rank : t -> int
val env : t -> Simtime.Env.t
val queues : t -> Queues.t

val fresh_req_id : t -> int
(** Draw a request id from the world-shared counter (for generalized
    requests created outside the device, e.g. collective schedules). *)

val isend :
  t ->
  dst:int ->
  tag:int ->
  context:int ->
  ?mode:send_mode ->
  Buffer_view.t ->
  Request.t
(** Start a send. An eager send completes immediately (buffered on the
    wire); a rendezvous send completes once CTS arrives and the data has
    been handed to the channel. *)

val irecv :
  t -> src:int -> tag:int -> context:int -> Buffer_view.t -> Request.t
(** Start a receive; [src]/[tag] may be {!Tag_match.any_source} /
    {!Tag_match.any_tag}. If a matched message is larger than the buffer
    the request is failed with a truncation error (and a rendezvous
    sender is NAKed so it releases its state); {!Mpi.wait} raises it as
    {!Mpi_error}. *)

val progress : t -> bool
(** Drain arrived packets, then run the registered progress hooks (the
    collective schedule engine); true if any packet was handled or a hook
    made progress. Never blocks. *)

val idle_poll : t -> Fiber.idle
(** What one {!progress} call does while nothing can happen: charge
    [progress_poll_ns] and let the failure service beat this rank
    ([count]'s [at] is the beat's time, {!Ft.beat}). The horizon is the
    channel's [next_arrival] for this rank, lowered to {!Ft.horizon}; it
    is unknown while a progress hook is not quiet, or when the channel
    cannot tell. With nothing in flight on the channel, the detector's
    horizon counts only if the detector itself keeps the scheduler busy
    ({!Ft.horizon}'s [busy]). *)

val add_progress_hook :
  ?ctx:int ->
  ?on_abort:(Request.reason -> unit) ->
  quiet:(unit -> bool) ->
  t ->
  (unit -> bool) ->
  int
(** Register a closure invoked by every {!progress} call after the
    channel drain (MPICH's progress-hook slot, used by {!Coll_sched} to
    advance in-flight collective schedules). The closure returns true if
    it made progress. Returns a handle for {!remove_progress_hook}.
    [quiet ()] says the closure would do nothing, with no charge and no
    state change, until a packet arrives on this device or the detector
    acts; while every hook is quiet the device's waits may fast-forward
    ({!idle_poll}). A hook that cannot tell answers [false].
    [ctx] tags the hook with its schedule's context id and [on_abort] is
    invoked (after the hook is dropped) when that context is revoked or
    the device is purged, so the schedule can fail its generalized
    request instead of leaking. *)

val remove_progress_hook : t -> int -> unit
(** Deregister a hook; hooks remove themselves when their schedule
    completes. Safe to call from inside the hook. *)

val progress_hook_count : t -> int
(** Live progress hooks. Every in-flight collective schedule holds one;
    a clean run drains to 0, so the schedule-exploration harness checks
    this as a quiescence invariant (a leaked hook is a leaked schedule). *)

val set_match_observer : t -> (Packet.envelope -> unit) option -> unit
(** Install (or clear) an observer invoked at every match decision — a
    posted receive meeting an arriving message, or a new receive meeting
    a queued unexpected message — with the matched envelope. The envelope
    carries the sender's per-send sequence number, so an observer can
    check MPI's non-overtaking rule per (source, tag, context) stream;
    this is what [Check.Invariant] builds on. At most one observer per
    device; [None] removes it. Not called for probes (no match is
    consumed). *)

val track_request : t -> Request.t -> unit
(** Count [req] in {!outstanding} until it completes. The schedule engine
    tracks its generalized collective requests here so
    [Mpi.quiescence_report] catches leaked (never-completed) schedules. *)

val outstanding : t -> int
(** Requests started on this device and not yet completed. *)

val pending_rendezvous : t -> int
(** Rendezvous transfers awaiting CTS or DATA. *)

(** {1 Failure plumbing}

    Answered by the failure service passed to {!create}; without one,
    nothing is revoked or dead and nothing floods. *)

val notify_coll_failed : t -> ctx:int -> peer:int -> unit
(** The schedule engine reports that an in-flight collective on [ctx]
    failed because [peer] is dead ({!Ft.coll_failed}). *)

val ctx_revoked : t -> int -> bool
(** Whether the context id was revoked. Operations on a revoked context
    fail immediately with {!Request.Comm_revoked}; arriving traffic on
    one is refused. *)

val fail_peer : t -> peer:int -> unit
(** A peer was declared dead: complete every operation on this device
    that only [peer] could satisfy (rendezvous toward it, posted receives
    naming it) with [Proc_failed], and discard unexpected messages it
    left behind. Any-source receives stay posted. *)

val abort_context : t -> ctx:int -> reason:Request.reason -> unit
(** Revocation sweep: fail every pending operation on [ctx] (posted and
    rendezvous state on both sides), NAK queued rendezvous announcements
    so remote senders release theirs, and abort in-flight schedule hooks
    registered with this [ctx]. *)

val purge : t -> reason:Request.reason -> unit
(** Fail-stop teardown of the device's own rank: fail everything, drop
    all unexpected messages, abort every hook. *)

val describe_pending : t -> string list
(** One line per pending operation (posted receives, rendezvous in both
    directions, unexpected backlog, live hooks) — the deadlock
    diagnostics dump. *)
