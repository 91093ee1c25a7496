(** Seeded, deterministic fault injection for any {!Channel.t}.

    Wrapping a channel with a {!plan} makes it lossy in a perfectly
    reproducible way: per-packet drop / duplicate / delay-reorder /
    bit-corruption decisions come from a splitmix64-style hash of
    [(seed, send index, draw index)], so the same seed over the same
    (deterministic) workload replays the exact same fault schedule —
    byte for byte, counter for counter. Rank-pair partition windows cut
    all traffic on matching pairs for an interval of virtual time.

    The decorator injects faults {e below} the reliable-delivery layer:
    stack it as [Reliable.wrap (Fault.wrap plan base)]. Without
    {!Reliable}'s checksummed framing above it, corrupted payloads are
    delivered silently (as on a real link without CRC) and lost packets
    are simply gone; {!Mpi.create_world}'s [?fault] argument always
    installs both layers. *)

type partition = {
  pt_src : int;  (** sending world rank, [-1] for any *)
  pt_dst : int;  (** receiving world rank, [-1] for any *)
  pt_from_ns : float;  (** window start, virtual ns (inclusive) *)
  pt_until_ns : float;  (** window end, virtual ns (exclusive) *)
}
(** While the virtual clock is inside the window, every packet from a
    matching (src, dst) pair is dropped (and counted as a fault drop). A
    symmetric partition needs two entries, one per direction. *)

type kill = {
  k_rank : int;  (** world rank to fail-stop *)
  k_at_ns : float;  (** virtual time at which the rank dies *)
  k_restart_ns : float option;
      (** delay after the kill at which the rank may be restarted from a
          checkpoint ([None]: the rank stays down) *)
}
(** A fail-stop process-failure event. The rank's fiber is torn down at
    the first MPI operation or wait after [k_at_ns]; its channel endpoints
    go silent; surviving ranks learn of the death through the heartbeat
    detector ({!Ft}) and see {!Request.Proc_failed} completions. *)

val kill : ?restart_after_ns:float -> rank:int -> at_ns:float -> unit -> kill
(** Raises [Invalid_argument] on a negative rank or time. *)

type plan = {
  seed : int;
  drop : float;  (** per-packet loss probability, [0, 1] *)
  duplicate : float;  (** probability a packet is delivered twice *)
  corrupt : float;  (** probability one payload/header bit is flipped *)
  delay : float;  (** probability a packet is held back (reordering) *)
  delay_ns : float;  (** maximum extra delay for held packets *)
  partitions : partition list;
  kills : kill list;  (** fail-stop process failures (at most one per rank) *)
}

val plan :
  ?seed:int ->
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?delay:float ->
  ?delay_ns:float ->
  ?partitions:partition list ->
  ?kills:kill list ->
  unit ->
  plan
(** All probabilities default to 0 (a transparent plan); [seed] defaults
    to 1, [delay_ns] to 100us; [kills] defaults to none. Raises
    [Invalid_argument] on probabilities outside [0, 1] or two kills for
    the same rank. *)

val wrap : env:Simtime.Env.t -> plan -> Channel.t -> Channel.t
(** Decorate a channel with the plan's fault schedule. Counts
    [fault_drops] / [fault_dups] / [fault_delays] / [fault_corrupts] in
    the environment's stats and records [drop] trace events. Held
    (delayed) packets re-enter the underlying channel once the clock
    passes their release time — after later traffic, which is exactly the
    reordering the delay models. Its [next_arrival] is the inner
    channel's, lowered to the earliest held release. *)

val draw : seed:int -> packet:int -> salt:int -> float
(** The underlying deterministic uniform draw in [0, 1) (exposed for
    tests of schedule reproducibility). *)
