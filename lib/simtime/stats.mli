(** Named event counters and virtual-time histograms.

    Each simulated subsystem records how often its mechanisms fire (pins,
    pins avoided by the policy, GC collections, messages, FCalls, visited-
    list probes, ...) and — via histograms — how much virtual time each
    firing cost. Counters back the ablation tables; histograms back the
    profile snapshot and the benchmark's per-layer rows, letting tests
    assert "mechanism X fired N times and cost at most T" instead of
    eyeballing timelines. *)

(** {1 Declared keys}

    Every counter and histogram is declared once, by name, and gets an
    interned slot. An accumulator holds one array per kind indexed by
    slot, so recording a sample is a bounds check plus an array update:
    no string is hashed on the hot path. The two kinds have distinct
    types, so a counter cannot be observed into. Declare keys at module
    initialisation ({!Key} holds the shared ones): a declaration takes
    the registry's lock, the only synchronisation in this module. *)

type counter
type histogram

val counter : string -> counter
(** [counter name] declares the counter [name], or returns it if it is
    already declared (from any domain: one name, one slot).
    @raise Invalid_argument if [name] is declared as a histogram. *)

val histogram : string -> histogram
(** [histogram name] declares the histogram [name], as {!counter} does.
    @raise Invalid_argument if [name] is declared as a counter. *)

val counter_name : counter -> string
val histogram_name : histogram -> string

val declared_counters : unit -> string list
val declared_histograms : unit -> string list
(** Every name declared so far of that kind, in declaration order. *)

(** {1 Accumulators} *)

type t

val create : unit -> t

val incr : t -> counter -> unit
(** Increment a counter by one. *)

val add : t -> counter -> int -> unit
(** Add [n] (which may be any non-negative int) to a counter. A counter
    is listed (by {!to_alist} and {!to_json}) once it has been touched,
    even by [add t k 0]. *)

val get : t -> counter -> int
(** Current value, 0 if the counter was never touched. *)

val observe : t -> histogram -> float -> unit
(** Record a sample (virtual nanoseconds by convention) into a histogram.
    Allocates nothing once the histogram holds a sample.
    @raise Invalid_argument if the sample is negative, NaN or infinite. *)

val with_timer : t -> histogram -> now:(unit -> float) -> (unit -> 'a) -> 'a
(** [with_timer t key ~now f] runs [f] and observes [now() - now()@entry]
    into [key] — including when [f] raises. [now] is typically the
    environment's virtual clock ({!Env.with_timer} wires that up). *)

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

val hist : t -> histogram -> summary option
(** Summary of a histogram, or [None] if nothing was ever observed. *)

val to_alist : t -> (string * int) list
(** All counters, sorted by name. *)

val hists_alist : t -> (string * summary) list
(** All histograms, sorted by name. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** Every counter and histogram summary (as {!to_alist} and
    {!hists_alist} list them) in a stable form: keys sorted, fixed field
    order and float formatting. Suitable for golden tests and machine
    parsing; [figures profile] writes it to
    [results/profile_snapshot.json]. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    escapes quotes, backslashes and control characters. Also used by
    the Chrome-trace export. *)

(** The counters and histograms shared across the codebase, each declared
    once here, so that tests, the harness and the libraries agree on
    them. *)
module Key : sig
  val pins : counter
  val unpins : counter
  val pins_avoided : counter
  val pins_deferred : counter
  val conditional_pins : counter
  val conditional_pins_dropped : counter
  val gc_young : counter
  val gc_full : counter
  val gc_bytes_copied : counter
  val gc_objects_marked : counter
  val young_blocks_promoted : counter
  val fcalls : counter
  val pinvokes : counter
  val jni_calls : counter
  val safepoint_polls : counter
  val msgs_sent : counter
  val bytes_sent : counter
  val msgs_intra_node : counter
  val msgs_inter_node : counter
  val bytes_intra_node : counter
  val bytes_inter_node : counter
  val eager_sends : counter
  val rndv_sends : counter
  val unexpected_msgs : counter

  (* One-sided RMA ([Mpi_core.Rma]) and the RDMA channel's pin-down
     registration cache ([Mpi_core.Rdma_channel]). *)
  val rma_puts : counter
  val rma_gets : counter
  val rma_accumulates : counter
  val rma_fences : counter
  val rma_locks : counter

  val rdma_reg_hits : counter
  (** Registration requests covered by a cached (still-pinned) region. *)

  val rdma_reg_misses : counter
  (** Registrations that had to pin fresh memory (base + per-byte cost). *)

  val rdma_reg_evictions : counter
  (** LRU registrations deregistered to make room under the capacity. *)

  val rdma_write_rndv : counter
  (** Rendezvous transfers that chose the RDMA-write variant. *)

  val rdma_read_rndv : counter
  (** Rendezvous transfers that chose the RDMA-read variant. *)

  val rdma_eager_copies : counter
  (** Small transfers staged through pre-registered bounce buffers. *)

  val retransmits : counter
  (** Frames re-sent by the reliable-delivery layer after an ack timeout. *)

  val retx_giveups : counter
  (** Peers declared unreachable after [max_retries] timeouts. *)

  val acks : counter
  (** Cumulative acknowledgements sent by the reliable-delivery layer. *)

  val dup_drops : counter
  (** Duplicate (already-delivered) frames and stale control packets
      suppressed on receive. *)

  val ooo_drops : counter
  (** Out-of-order (future-sequence) frames dropped pending go-back-N
      retransmission. *)

  val corrupt_drops : counter
  (** Frames whose payload failed the wire checksum and were discarded. *)

  val fault_drops : counter
  (** Packets destroyed by the fault-injection channel (loss + partition). *)

  val fault_dups : counter
  (** Packets duplicated by the fault-injection channel. *)

  val fault_delays : counter
  (** Packets held back (reordered) by the fault-injection channel. *)

  val fault_corrupts : counter
  (** Packets whose bits were flipped by the fault-injection channel. *)

  val proc_kills : counter
  (** Ranks torn down by a fail-stop kill event ({!Fault.kill}). *)

  val proc_detections : counter
  (** Rank failures declared by the heartbeat/timeout detector. *)

  val ft_silenced : counter
  (** Packets dropped because an endpoint (sender or receiver) is a dead
      rank — the failure layer's silencer. *)

  val checkpoints : counter
  (** VM-state checkpoints taken (serialized heap images stored). *)

  val restores : counter
  (** VM-state restores (checkpoint images deserialized into a heap). *)

  val ser_objects : counter
  val deser_objects : counter
  val visited_probes : counter
  val buffers_created : counter
  val buffers_reused : counter
  val buffers_reaped : counter

  (** {2 Histogram keys} — all in virtual nanoseconds. *)

  val h_ch3_send : histogram
  (** Every point-to-point send, eager and rendezvous together. *)

  val h_ch3_eager : histogram
  val h_ch3_rndv : histogram
  (** Rendezvous sends, measured from RTS to sender-side completion. *)

  val h_ch3_retransmit : histogram
  (** The backoff that elapsed before each go-back-N retransmission. *)

  val h_ft_detect : histogram
  (** Failure-detection latency: kill event to the detector declaring the
      rank dead. *)

  val h_sched_step : histogram
  (** Collective schedule step dispatch; per-algorithm variants live under
      ["sched/step_ns/<schedule name>"], declared once per schedule kind
      when [Collectives] initialises ([Coll_sched.kind]). *)

  val h_gc_young_pause : histogram
  val h_gc_full_pause : histogram

  val h_gc_pin_poll : histogram
  (** Mark-phase resolution of conditional pin requests. *)

  val h_ser_encode : histogram
  val h_ser_decode : histogram
  val h_fcall_gate : histogram
  val h_pinvoke_gate : histogram
  val h_jni_gate : histogram
end
