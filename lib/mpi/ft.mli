(** Process-failure service: fail-stop kills, heartbeat detection,
    revocation — the runtime plumbing under the ULFM-style recovery API.

    One instance per world (created by {!Mpi.create_world} when the fault
    plan carries kills, or when a detector is requested explicitly). Rank
    life cycle: [Alive -> Finished] on normal return, or
    [Alive -> Torn_down -> Dead] under a {!Fault.kill} — [Torn_down] when
    the victim's fiber is dismantled, [Dead] once the heartbeat detector
    declares the failure to the survivors. Only the declaration triggers
    {!Request.Proc_failed} completions; the window in between models real
    detection latency.

    The detector is driven from {!Ch3.progress}: each pump beats the
    pumping rank and sweeps every other rank's last-beat timestamp
    against [hb_timeout_ns] of virtual time. No heartbeat packets travel
    on the wire (they would perturb the fault injector's seeded per-send
    PRNG), so the detector models an out-of-band watchdog. A rank that
    merely computes for longer than the timeout without pumping progress
    is declared dead anyway — the false positive a too-aggressive timeout
    buys, observable with the schedule explorer's planted detector bug. *)

exception Killed of int
(** Raised (in fiber context) by the victim's own MPI calls once its kill
    time has passed; {!Mpi.rank_guard} catches it and tears the rank
    down. *)

exception Proc_failed of int
(** Raised by waiters when a request failed with
    {!Request.Proc_failed} — the peer world rank is carried. *)

exception Revoked of int
(** Raised by waiters / operation entry when the communicator's context
    was revoked. *)

type detector = { hb_period_ns : float; hb_timeout_ns : float }

val default_detector : detector
(** 20us beat granularity, 5ms timeout — safely above the reliable
    layer's 2ms backoff ceiling so retransmission storms are never
    mistaken for death. *)

type rank_state = Alive | Finished | Torn_down | Dead

type t

val create :
  env:Simtime.Env.t ->
  ?detector:detector ->
  ?kills:Fault.kill list ->
  n:int ->
  unit ->
  t

val detector : t -> detector
val state : t -> int -> rank_state
val is_down : t -> int -> bool
(** Declared dead by the detector. *)

val is_out : t -> int -> bool
(** Torn down or declared dead (endpoints silent either way). *)

val dead_ranks : t -> int list
val out_ranks : t -> int list

val detections : t -> (int * float) list
(** Every declaration, oldest first: (rank, virtual time declared). *)

val self_doomed : t -> rank:int -> bool
(** The rank's kill time has passed but its fiber hasn't been torn down
    yet. Safe to call from scheduler context (never raises) — wait
    predicates use it to wake a doomed fiber. *)

val check_self : t -> rank:int -> unit
(** Raise {!Killed} if {!self_doomed}. Call only from fiber context. *)

val mark_killed : t -> rank:int -> unit
(** Record the fail-stop: state [Torn_down], endpoints silent. Called by
    {!Mpi.rank_guard} during teardown; idempotent. *)

val finish : t -> rank:int -> unit
(** Normal completion: the rank stops beating without being a failure. *)

val revive : t -> rank:int -> unit
(** Restart a down rank: state back to [Alive], heartbeat reset, on-revive
    subscribers fired. Raises [Invalid_argument] if the rank is not
    down. *)

val on_death : t -> (int -> unit) -> unit
val on_revive : t -> (int -> unit) -> unit

val on_coll_failed : t -> (ctx:int -> peer:int -> unit) -> unit
(** Subscribe to collective failures reported by {!coll_failed}. The
    world subscribes a flood that aborts [ctx] on every device, so the
    error surfaces at all ranks of the collective (ULFM's uniform
    [MPI_ERR_PROC_FAILED] guarantee) instead of only at ranks whose own
    steps touched the dead peer. *)

val coll_failed : t -> ctx:int -> peer:int -> unit
(** An in-flight collective schedule on [ctx] failed because [peer] is
    dead. Fires the subscribers only if [peer] is declared dead: a
    victim's own teardown also fails its schedules, and that must not
    outrun the detector. *)

val tick : t -> rank:int -> unit
(** One detector step, called from every progress pump: beat [rank],
    report pending detections as scheduler activity, sweep the other
    ranks' timeouts. Never raises. *)

val beat : t -> rank:int -> float -> unit
(** What a [tick] that declares nobody leaves behind when it runs at the
    given time: [rank]'s heartbeat stamp, if it is alive. *)

val horizon : t -> busy:bool -> float
(** The earliest virtual time at which a [tick] can do more than beat —
    the sweep declares the least recently beating alive or torn-down
    rank, or an unfired kill falls due — given that polling goes on
    until then. [busy]: something other than the detector keeps the
    scheduler polling. [infinity] when neither that nor a pending
    detection does. The idle fast-forward's bound for worlds with a
    failure service ({!Ch3.idle_poll}). *)

val revoke : t -> int -> unit
(** Mark a context id revoked (idempotent). *)

val is_revoked : t -> int -> bool

val wrap_channel : t -> Channel.t -> Channel.t
(** The silencer: discard packets to or from dead/torn-down ranks. Stack
    it {e above} reliable delivery so nothing keeps retransmitting on a
    dead rank's behalf. Counts [ft_silenced]. [next_arrival] is the
    inner channel's, and infinite for a rank that is out (its polls
    never reach the inner channel). *)
