(** Event tracing for message-passing runs (in the spirit of MPICH's MPE
    logging): every device-level operation can be recorded with its
    virtual timestamp and rank, as an instant event or a typed span
    (begin/end with a category and key/value args), then dumped as a
    readable timeline, exported as a Chrome-trace JSON that loads in
    [chrome://tracing] and Perfetto, or handed to tests.

    Tracing is per-environment and off by default; enabling it attaches a
    bounded ring buffer (oldest events are dropped once full) as the
    environment's {!Simtime.Probe} sink, so spans emitted by the VM and
    serializer layers land in the same buffer as device events. The
    environment holds the sink; nothing else refers to it, so a trace
    lives exactly as long as its environment keeps it. Spans are emitted
    with {!Simtime.Probe} directly. *)

type kind = Instant | Span_begin | Span_end

type event = {
  t_us : float;  (** virtual time at which the event was recorded *)
  rank : int;  (** [-1] denotes the runtime (GC, serializer) *)
  op : string;  (** e.g. "isend", "eager", or a span name like "gc/full" *)
  detail : string;
  kind : kind;
  cat : string;  (** span category: "ch3", "coll", "gc", "ser", ... *)
  args : (string * string) list;
  span_id : int option;
      (** [Some id] marks an async span (rendezvous, schedule) that may
          overlap others; sync spans nest per rank. *)
}

type t

val enable : ?capacity:int -> Simtime.Env.t -> t
(** Attach a fresh trace (default capacity 4096 events) to an
    environment, replacing any sink it had. Subsequent device activity in
    any world sharing the environment is recorded. Enable and {!disable}
    only while no domain is running the environment's ranks. *)

val disable : Simtime.Env.t -> unit
(** Leave the environment with no sink ({!Simtime.Probe.clear_sink}); the
    trace keeps the events it holds. No-op if tracing was never
    enabled. *)

val record :
  Simtime.Env.t -> rank:int -> op:string -> detail:(unit -> string) -> unit
(** Record an instant event through the environment's sink. [detail] is
    called at most once, by a sink that records args (a trace does), and
    never while the environment has no sink, so a call with tracing off
    reads one field, allocates nothing and formats nothing — safe on hot
    paths. *)

val open_spans : t -> int
(** Span begins minus span ends ever recorded: 0 when every span emitted
    so far is balanced (leak tests). *)

val events : t -> event list
(** Oldest first. *)

val dropped : t -> int
(** Events lost to the ring-buffer bound. *)

val pp_timeline : Format.formatter -> t -> unit
(** One line per event: [  123.4us r0 isend    dst=1 tag=0 64B]; span
    begins/ends are marked with [[] and []]. *)

val to_chrome_json : ?topo:Simtime.Topology.t -> t -> string
(** The trace as Chrome-trace JSON ("traceEvents" array): instants as
    ["i"], sync spans as ["B"]/["E"] pairs, async spans as ["b"]/["e"]
    pairs keyed by id, plus process/thread-name metadata. With [topo],
    each node becomes a Chrome process (pid = node id, named
    ["node N"]), so Perfetto groups the per-rank timelines by machine;
    without it everything lives in the single ["motor"] process. Span
    pairs are always well formed even after ring-buffer overflow: orphan
    ends are dropped, dangling begins are closed at the trace's last
    timestamp. Field order is fixed, so output is golden-testable. *)
