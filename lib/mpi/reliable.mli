(** Reliable delivery over a lossy channel (go-back-N under CH3).

    Wraps any {!Channel.t} so the device above sees exactly-once,
    in-order, integrity-checked delivery per (src, dst) pair, whatever
    the channel below drops, duplicates, reorders or corrupts:

    - every packet is framed with a per-(src, dst) sequence number and a
      {!Packet.checksum} of its contents;
    - the receiver accepts frames strictly in order, answers each with a
      cumulative {!Packet.Ack}, suppresses duplicates, discards
      out-of-order futures (go-back-N) and drops checksum failures as if
      they were lost;
    - the sender keeps unacked frames in a retransmission queue and
      resends the window when the virtual clock passes a deadline, with
      exponential backoff between attempts; after [max_retries] timeouts
      the destination is declared unreachable and retransmission stops,
      so a fully partitioned run degrades to incomplete requests instead
      of spinning forever.

    Retransmission timers are pumped from {!Ch3.progress} via the
    wrapped [poll]; any rank's pump services every sender's timers
    (shared address space), so frames whose sending fiber already
    finished still get retransmitted. All timing comes from the
    simulation clock — behaviour is fully deterministic. *)

type config = {
  rto_base_ns : float;  (** first retransmission timeout *)
  rto_max_ns : float;  (** backoff ceiling *)
  max_retries : int;  (** timeouts before declaring the peer unreachable *)
}

val default_config : config
(** 100us base, 2ms ceiling, 16 retries — a few round trips of headroom
    over the sock channel's ~11us one-way latency. *)

type t
(** Handle on the layer's internal state (inspection / tests). *)

val wrap : ?config:config -> env:Simtime.Env.t -> Channel.t -> Channel.t * t
(** Decorate a channel with reliable delivery. Counts [retransmits],
    [acks], [dup_drops], [ooo_drops], [corrupt_drops] and [retx_giveups]
    in the environment's stats; records [retx], [ack] and [drop] trace
    events. Its [next_arrival] is the inner channel's, lowered to the
    earliest retransmission timeout of any live window. *)

val stranded : t -> int
(** Frames still in retransmission queues (unacked). A clean run drains
    to 0; a partitioned run strands the frames the partition swallowed. *)

val reset_peer : t -> peer:int -> int
(** Drop every tx/rx state involving [peer], in both directions: frames
    toward a dead rank stop retransmitting (and stop counting as
    {!stranded}), and a restarted incarnation of the rank renegotiates
    sequence numbers from zero. Returns the number of frames abandoned.
    Called by the failure layer at declaration and at revive. *)
