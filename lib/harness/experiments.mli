(** Drivers for every figure and table of the paper, plus the ablations
    DESIGN.md commits to. Each function returns data; rendering is up to
    the caller ({!Table}, bin/figures, the benches). *)

type point = { x : int; result : Workloads.object_result }
type series = { system : string; points : point list }

val fig9 : ?protocol:Workloads.protocol -> unit -> series list
(** Ping-pong of regular MPI operations, five systems. *)

val fig10 : ?quick:bool -> unit -> series list
(** Linked-list transport, four systems, at 2 … 8192 total objects in
    powers of two; mpiJava's line ends in a crash past 1024 objects.
    [quick] trims the largest sizes (tests). *)

type taba_row = { metric : string; paper_pct : float; measured_pct : float }

val taba : series list -> taba_row list
(** The in-text Motor-vs-Indiana-SSCLI claims computed from a fig9 run:
    peak improvement, average improvement, average above 64 KiB (paper:
    16 / 8 / 3 per cent). *)

val tabb : ?protocol:Workloads.protocol -> unit -> (string * float) list
(** Footnote 4: ping-pong time per iteration for the Indiana bindings on
    Free vs fastchecked SSCLI builds (small buffers, where pinning cost
    shows). *)

(** {1 Ablations} *)

val abl_pinning_policy :
  ?protocol:Workloads.protocol -> size:int -> unit ->
  (string * float * int) list
(** (policy, us/iter, pins) for always-pin / boundary-check / deferred. *)

val abl_call_mechanism :
  ?protocol:Workloads.protocol -> size:int -> unit -> (string * float) list
(** Identical Motor stacks whose entry gate is priced as FCall, P/Invoke
    or JNI. *)

val abl_visited : ?quick:bool -> unit -> series list
(** Motor's linear visited list vs the hashed structure (future work) on
    the Figure 10 workload. *)

val abl_eager_threshold :
  ?protocol:Workloads.protocol -> unit -> (int * (int * float) list) list
(** For each eager threshold, (message size, us/iter) points. *)

val abl_nonblocking_unpin : unit -> (string * float * int * int) list
(** Non-blocking receive stress under GC pressure:
    (policy, total us, pins, conditional pins dropped). *)

val abl_channel :
  ?protocol:Workloads.protocol -> unit -> (string * (int * float) list) list
(** The layered-portability claim (paper Sections 4.1, 7): the same Motor
    stack re-deployed over the sock and shm channels; per channel,
    (message size, us/iter) points. *)

(** {1 Robustness: loss sweep} *)

type loss_point = {
  loss : float;  (** per-packet drop probability injected *)
  time_us : float;  (** virtual completion time of the whole workload *)
  goodput_mb_s : float;  (** application payload delivered / time *)
  retransmits : int;
  acks : int;
  fault_drops : int;
  fault_dups : int;
  fault_corrupts : int;
  dup_drops : int;
  corrupt_drops : int;
  digest : string;  (** final application state; must match loss 0 *)
}

val loss_sweep :
  ?n:int ->
  ?rounds:int ->
  ?size:int ->
  ?losses:float list ->
  unit ->
  loss_point list
(** Run the catalogue's {!Check.Catalogue.ring} (default 4 ranks, 30
    rounds, 2 KiB messages) under each loss rate (default 0, 2, 5, 10,
    20 and 30 per cent), with duplication, corruption and delay scaled
    off the loss rate and the {!Mpi_core.Reliable} layer always on.
    Completion time grows with loss while the digest stays byte-identical
    to the fault-free run — the correctness-under-loss claim. Raises
    [Failure] if the ring's oracle reports a violation. *)

val abl_split_scatter :
  ?elements:int -> unit -> (int * float * float) list
(** Section 2.4's scatter claim quantified: OScatter of an [elements]-long
    object array (default 64) via Motor's split representation vs the
    wrapper emulation (materialize one sub-array per member, serialize
    each atomically). Returns (ranks, motor us, wrapper us) rows; the
    wrapper's cost should grow faster with the member count. *)

(** {1 Collective algorithm sweep} *)

type coll_point = {
  c_coll : string;  (** collective name: allreduce, bcast, ... *)
  c_algo : string;  (** algorithm within the collective *)
  c_ranks : int;
  c_bytes : int;  (** payload per member *)
  c_time_us : float;  (** virtual time of the collective, barrier-fenced *)
  c_msgs : int;  (** point-to-point messages the algorithm issued *)
}

(** {1 Communication/computation overlap} *)

type overlap_point = {
  v_ranks : int;
  v_bytes : int;  (** allreduce payload per member *)
  v_compute_us : float;  (** compute charged per member *)
  v_comm_us : float;  (** the allreduce alone, barrier-fenced *)
  v_block_us : float;  (** blocking allreduce, then the compute *)
  v_overlap_us : float;
      (** [iallreduce], compute in chunks with a test poll between
          chunks, then wait for the tail *)
  v_efficiency : float;
      (** fraction of the hideable time (min of comm and aggregate
          compute) actually hidden: [(block - overlap) / hideable] *)
}

val overlap_sweep :
  ?ranks:int list -> ?sizes:int list -> unit -> overlap_point list
(** The claim behind the nonblocking collectives: computing through an
    in-flight [iallreduce] schedule recovers wait time a blocking
    allreduce burns polling. Efficiency must be strictly positive at
    every point (asserted by a test and the CI smoke run); 1.0 would be
    perfect overlap. Per-member compute is sized to [comm / n] so the
    aggregate compute equals the collective latency. Defaults: 2 and 4
    ranks (the wire-idle-dominated regime where overlap exists; past 8
    members the serialized send-side work leaves nothing to hide) x 16,
    64 and 256 KiB. Feeds [figures.exe -- overlap] and
    [results/overlap_sweep.csv]. *)

val coll_sweep :
  ?ranks:int list -> ?sizes:int list -> unit -> coll_point list
(** Latency versus ranks x payload for every collective algorithm in
    {!Mpi_core.Collectives} (each forced explicitly, not just the [`Auto]
    pick), one fresh world per point, on the native-C++ cost model.
    Infeasible combinations are skipped (Rabenseifner needs one granule
    per member, recursive-doubling allgather needs a power-of-two
    communicator). Defaults: 2, 4, 8, 16 and 32 ranks x 64 B, 1 KiB,
    16 KiB and 256 KiB. Feeds [figures.exe -- coll] and
    [results/coll_sweep.csv]. *)

(** {1 Scale sweep: two-level collectives at 1k-64k simulated ranks} *)

type scale_point = {
  sc_ranks : int;
  sc_nodes : int;
  sc_cores : int;  (** ranks per node (64 throughout the sweep) *)
  sc_bytes : int;  (** allreduce payload per member (8 B: latency-bound) *)
  sc_algo : string;  (** ["hier"] (two-level) or ["rd"] (flat oracle) *)
  sc_time_us : float;  (** virtual makespan of the one allreduce *)
  sc_msgs_intra : int;  (** measured same-node messages *)
  sc_msgs_inter : int;  (** measured cross-node messages *)
  sc_rounds : int;  (** measured rank-0 schedule rounds *)
  sc_model_msgs : int;  (** analytic total: 2S(s-1) + L log2 L (hier) *)
  sc_model_rounds : int;  (** analytic rank-0: 2 log2 s + 2 log2 L + 1 *)
}

val scale_ok : scale_point -> bool
(** Measured traffic and rounds equal the analytic model — the gate the
    CI smoke run enforces on every row. *)

val scale_sweep : ?quick:bool -> ?ranks:int list -> unit -> scale_point list
(** One fresh [nodes x 64] world per point, one 8-byte allreduce per
    world: the two-level algorithm at every size, the flat recursive
    doubling oracle up to 4096 ranks. Every rank count must be a power
    of two divisible by 64; the default is 1024, 4096, 16384 and 65536
    ranks. [quick] sweeps 256 and 1024 ranks (CI smoke). Feeds
    [figures.exe -- scale] and [results/scale_sweep.csv]. *)

(** {1 One-sided RMA: put size x registration-cache capacity} *)

type rma_point = {
  m_bytes : int;  (** put payload *)
  m_cache_bytes : int;  (** per-rank registration cache capacity *)
  m_puts : int;  (** puts issued across the world *)
  m_time_us : float;  (** virtual time of all fence epochs *)
  m_hits : int;  (** registration cache hits *)
  m_misses : int;  (** registration cache misses (incl. 2 window pins) *)
  m_evictions : int;
  m_eager : int;  (** bounce-buffer puts (below the RDMA eager cutoff) *)
  m_write_rndv : int;  (** RDMA-write rendezvous picks *)
  m_read_rndv : int;  (** RDMA-read rendezvous picks *)
}

val rma_ok : rma_point -> bool
(** Row-level accounting: the three transfer paths partition the puts,
    cache lookups equal window pins plus rendezvous registrations, and
    evictions never exceed misses. The CI smoke run enforces this on
    every row. *)

val rma_sweep :
  ?sizes:int list -> ?caches:int list -> unit -> rma_point list
(** One fresh 2-rank [`Rdma] world per point: six fence epochs of puts
    from four distinct origin buffers per rank, so the origin working
    set (4 x size) against the cache capacity decides between amortized
    pin-down (hits) and LRU thrash (evictions). Defaults: 1 KiB
    (eager), 8 KiB (RDMA-read rendezvous), 64 KiB and 256 KiB
    (RDMA-write rendezvous) x caches of 64 KiB, 256 KiB and 1 MiB. Feeds
    [figures.exe -- rma] and [results/rma_sweep.csv]. *)
