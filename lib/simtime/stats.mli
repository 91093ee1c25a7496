(** Named event counters and virtual-time histograms.

    Each simulated subsystem records how often its mechanisms fire (pins,
    pins avoided by the policy, GC collections, messages, FCalls, visited-
    list probes, ...) and — via histograms — how much virtual time each
    firing cost. Counters back the ablation tables; histograms back the
    profile snapshot and the benchmark's per-layer rows, letting tests
    assert "mechanism X fired N times and cost at most T" instead of
    eyeballing timelines. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Increment a counter by one, creating it at zero if absent. *)

val add : t -> string -> int -> unit
(** Add [n] (which may be any non-negative int) to a counter. *)

val get : t -> string -> int
(** Current value, 0 if the counter was never touched. *)

val observe : t -> string -> float -> unit
(** Record a non-negative sample (virtual nanoseconds by convention) into
    the named histogram, creating it if absent. *)

val with_timer : t -> string -> now:(unit -> float) -> (unit -> 'a) -> 'a
(** [with_timer t key ~now f] runs [f] and observes [now() - now()@entry]
    into [key] — including when [f] raises. [now] is typically the
    environment's virtual clock ({!Env.with_timer} wires that up). *)

val reset : t -> unit
(** Zero every counter and drop every histogram. *)

val absorb : t -> from:t -> unit
(** Fold [from]'s counters and histograms into [t] (counters and bucket
    populations add; extrema combine). The merge half of per-domain
    accumulation under parallel execution — call only once [from]'s
    owning domain has quiesced (after the run joins). *)

val merged : t list -> t
(** A fresh accumulator absorbing each input in order. *)

(** Derived view of one histogram. [p50]/[p99] are read off half-octave
    log2 bucket boundaries: deterministic upper bounds, accurate to ~41%,
    clamped into [[min], [max]]. *)
type summary = {
  n : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

val hist : t -> string -> summary option
(** Summary of a histogram, or [None] if nothing was ever observed. *)

val to_alist : t -> (string * int) list
(** All counters, sorted by name. *)

val hists_alist : t -> (string * summary) list
(** All histograms, sorted by name. *)

val pp : Format.formatter -> t -> unit

(** {1 Snapshots}

    An immutable copy of every counter and histogram, cheap enough to take
    around a region of interest. [diff] turns two snapshots into the
    activity between them; [to_json] is the stable machine-readable form
    written to [results/profile_snapshot.json]. *)

type snapshot

val snapshot : t -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] subtracts counter values, histogram counts, sums
    and buckets (so quantiles of a diff describe only the interval).
    Histogram min/max are carried from [later] — interval extrema are not
    recoverable from two endpoint summaries. *)

val snapshot_counters : snapshot -> (string * int) list
val snapshot_hists : snapshot -> (string * summary) list
val counter_value : snapshot -> string -> int
val hist_summary : snapshot -> string -> summary option

val to_json : snapshot -> string
(** Stable field order (keys sorted, fixed float formatting): suitable for
    golden tests and machine parsing. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    escapes quotes, backslashes and control characters. Also used by
    the Chrome-trace export. *)

(** Conventional counter and histogram names used across the codebase, so
    that tests, the harness and the libraries agree on spelling. *)
module Key : sig
  val pins : string
  val unpins : string
  val pins_avoided : string
  val pins_deferred : string
  val conditional_pins : string
  val conditional_pins_dropped : string
  val gc_young : string
  val gc_full : string
  val gc_bytes_copied : string
  val gc_objects_marked : string
  val young_blocks_promoted : string
  val fcalls : string
  val pinvokes : string
  val jni_calls : string
  val safepoint_polls : string
  val msgs_sent : string
  val bytes_sent : string
  val msgs_intra_node : string
  val msgs_inter_node : string
  val bytes_intra_node : string
  val bytes_inter_node : string
  val eager_sends : string
  val rndv_sends : string
  val unexpected_msgs : string

  (* One-sided RMA ([Mpi_core.Rma]) and the RDMA channel's pin-down
     registration cache ([Mpi_core.Rdma_channel]). *)
  val rma_puts : string
  val rma_gets : string
  val rma_accumulates : string
  val rma_fences : string
  val rma_locks : string

  val rdma_reg_hits : string
  (** Registration requests covered by a cached (still-pinned) region. *)

  val rdma_reg_misses : string
  (** Registrations that had to pin fresh memory (base + per-byte cost). *)

  val rdma_reg_evictions : string
  (** LRU registrations deregistered to make room under the capacity. *)

  val rdma_write_rndv : string
  (** Rendezvous transfers that chose the RDMA-write variant. *)

  val rdma_read_rndv : string
  (** Rendezvous transfers that chose the RDMA-read variant. *)

  val rdma_eager_copies : string
  (** Small transfers staged through pre-registered bounce buffers. *)

  val retransmits : string
  (** Frames re-sent by the reliable-delivery layer after an ack timeout. *)

  val retx_giveups : string
  (** Peers declared unreachable after [max_retries] timeouts. *)

  val acks : string
  (** Cumulative acknowledgements sent by the reliable-delivery layer. *)

  val dup_drops : string
  (** Duplicate (already-delivered) frames and stale control packets
      suppressed on receive. *)

  val ooo_drops : string
  (** Out-of-order (future-sequence) frames dropped pending go-back-N
      retransmission. *)

  val corrupt_drops : string
  (** Frames whose payload failed the wire checksum and were discarded. *)

  val fault_drops : string
  (** Packets destroyed by the fault-injection channel (loss + partition). *)

  val fault_dups : string
  (** Packets duplicated by the fault-injection channel. *)

  val fault_delays : string
  (** Packets held back (reordered) by the fault-injection channel. *)

  val fault_corrupts : string
  (** Packets whose bits were flipped by the fault-injection channel. *)

  val proc_kills : string
  (** Ranks torn down by a fail-stop kill event ({!Fault.kill}). *)

  val proc_detections : string
  (** Rank failures declared by the heartbeat/timeout detector. *)

  val ft_silenced : string
  (** Packets dropped because an endpoint (sender or receiver) is a dead
      rank — the failure layer's silencer. *)

  val checkpoints : string
  (** VM-state checkpoints taken (serialized heap images stored). *)

  val restores : string
  (** VM-state restores (checkpoint images deserialized into a heap). *)

  val ser_objects : string
  val deser_objects : string
  val visited_probes : string
  val buffers_created : string
  val buffers_reused : string
  val buffers_reaped : string

  (** {2 Histogram keys} — all in virtual nanoseconds. *)

  val h_ch3_send : string
  (** Every point-to-point send, eager and rendezvous together. *)

  val h_ch3_eager : string
  val h_ch3_rndv : string
  (** Rendezvous sends, measured from RTS to sender-side completion. *)

  val h_ch3_retransmit : string
  (** The backoff that elapsed before each go-back-N retransmission. *)

  val h_ft_detect : string
  (** Failure-detection latency: kill event to the detector declaring the
      rank dead. *)

  val h_sched_step : string
  (** Collective schedule step dispatch; per-algorithm variants live under
      ["sched/step_ns/<schedule name>"]. *)

  val h_gc_young_pause : string
  val h_gc_full_pause : string

  val h_gc_pin_poll : string
  (** Mark-phase resolution of conditional pin requests. *)

  val h_ser_encode : string
  val h_ser_decode : string
  val h_fcall_gate : string
  val h_pinvoke_gate : string
  val h_jni_gate : string
end
