(** Collective operations, built over point-to-point on the communicator's
    collective context (so they can never match user receives).

    Each collective is an {e algorithm-selection layer} in the MPICH2
    style: the implementation is chosen from the payload size and the
    communicator size, with the switch-over thresholds living in
    {!Simtime.Cost} ([coll_*] fields) so selection is a measurable,
    tunable policy. The naive reference algorithms are kept reachable
    (via the [?algo] arguments and the [*_linear] exports) as correctness
    oracles and for ablation.

    Every algorithm compiles into a {!Coll_sched} schedule executed by
    the device progress engine, so each collective also has an MPI-3
    style nonblocking form ([ibarrier], [ibcast], [iallreduce], ...)
    returning a generalized {!Request.t} of kind [Coll_req]; the
    blocking forms are start + wait shims over them. Collectives whose
    result is materialized at completion ([iallgather], [iallreduce],
    [ireduce], [iscan], [ialltoall]) return the result buffer alongside
    the request — its contents are defined only once the request
    completes. As in MPI, at most one collective {e of the same kind}
    may be in flight per communicator (different kinds overlap safely:
    the tag table keeps their traffic disjoint).

    Selection must {e agree} across the communicator: it depends only on
    the shared cost model, the communicator size and the payload length,
    plus caller-supplied arguments ([algo], [block], [commutative]) —
    every member must pass the same values for those, exactly as every
    rank passes the same counts to an MPI collective. *)

(** {1 Algorithm choices} *)

type allreduce_algo = [ `Auto | `Linear | `Rd | `Rabenseifner | `Hier ]
(** [`Linear]: binomial reduce to rank 0 + binomial bcast (the reference
    oracle). [`Rd]: recursive doubling — log n rounds of whole-payload
    exchange; preserves rank order, so safe for non-commutative
    operators. [`Rabenseifner]: reduce-scatter (recursive halving) +
    allgather (recursive doubling) — each member moves ~2x the payload
    instead of log n x; requires a commutative operator. [`Hier]:
    two-level (topology-aware) — binomial reduce within each node's
    shard, allreduce of the shard results across the per-node leaders
    (itself size-selected at n = #nodes), binomial bcast down each
    shard; preserves rank order. *)

type bcast_algo = [ `Auto | `Binomial | `Scatter_allgather | `Hier ]
(** [`Scatter_allgather] (van de Geijn): binomial scatter of blocks + ring
    allgather; pipelines large payloads so no member sends more than ~2x
    the buffer. [`Hier]: leader tree across nodes, then a binomial tree
    inside each node's shard. *)

type allgather_algo = [ `Auto | `Ring | `Rd | `Hier ]
(** [`Rd] (recursive doubling) runs in log n rounds but needs a
    power-of-two communicator; the ring works for any size. [`Hier]:
    gather at each node's leader, ring of shard aggregates across
    leaders, bcast down each shard — needs a node-aligned communicator
    (equal shards). *)

type barrier_algo = [ `Auto | `Dissemination | `Hier ]
(** [`Dissemination]: ceil(log2 n) pairwise rounds. [`Hier]: fan-in to
    each node's leader, dissemination across leaders, fan-out release —
    only ceil(log2 #nodes) rounds cross the wire. *)

type fan_algo = [ `Auto | `Linear | `Binomial ]
(** Scatter/gather: [`Binomial] needs the equal-block mode ([~block]).

    The [`Hier] variants apply when the world's topology is multi-node
    and the communicator is a contiguous range spanning more than one
    node ({!hier_applicable}); [`Auto] then prefers them. Forcing
    [`Hier] where it does not apply raises [Invalid_argument]. *)

(** {1 Selection policy}

    Exposed so tests and sweeps can interrogate the policy directly. *)

val allreduce_algo_for :
  Simtime.Cost.t ->
  n:int ->
  bytes:int ->
  granule:int ->
  commutative:bool ->
  [ `Linear | `Rd | `Rabenseifner ]

val hier_applicable : Mpi.proc -> Comm.t -> bool
(** Whether the two-level algorithms apply: the world's topology is
    multi-node and [comm] is a contiguous range spanning more than one
    node. Depends only on shared state, so it agrees across members. *)

val hier_allgather_applicable : Mpi.proc -> Comm.t -> bool
(** {!hier_applicable} plus node alignment (equal shards), which the
    hier allgather's block layout requires. *)

(** {1 Tags}

    Every schedule sends on the communicator's collective context with
    tags from its phase's range in {!Comm.tag_ranges}; the ranges are
    allocated from one list, so they are disjoint by construction (a
    shared base once let scan cross-match stale scatter messages). *)

(** {1 Nonblocking collectives}

    Each returns immediately with the schedule's generalized request
    (plus the result buffer where one is materialized); complete with
    {!Mpi.wait} / {!Mpi.test} or any request-set call. Argument
    validation ([Invalid_argument]) still happens synchronously at the
    call. *)

val ibarrier : ?algo:barrier_algo -> Mpi.proc -> Comm.t -> Request.t

val ibcast :
  ?algo:bcast_algo ->
  Mpi.proc ->
  Comm.t ->
  root:int ->
  Buffer_view.t ->
  Request.t

val iscatter :
  ?algo:fan_algo ->
  ?block:int ->
  Mpi.proc ->
  Comm.t ->
  root:int ->
  parts:Buffer_view.t array option ->
  recv:Buffer_view.t ->
  Request.t

val igather :
  ?algo:fan_algo ->
  ?block:int ->
  Mpi.proc ->
  Comm.t ->
  root:int ->
  send:Buffer_view.t ->
  parts:Buffer_view.t array option ->
  Request.t

val iallgather :
  ?algo:allgather_algo ->
  Mpi.proc ->
  Comm.t ->
  send:Bytes.t ->
  Request.t * Bytes.t array
(** The returned blocks (one per member, in communicator-rank order) are
    filled in as the schedule runs; read them only after completion. *)

val ialltoall :
  Mpi.proc -> Comm.t -> send:Bytes.t array -> Request.t * Bytes.t array

val ireduce :
  Mpi.proc ->
  Comm.t ->
  root:int ->
  op:(Bytes.t -> Bytes.t -> unit) ->
  Bytes.t ->
  Request.t * Bytes.t option
(** [Some buffer] at the root (valid at completion), [None] elsewhere. *)

val iallreduce :
  ?algo:allreduce_algo ->
  ?commutative:bool ->
  Mpi.proc ->
  Comm.t ->
  op:(Bytes.t -> Bytes.t -> unit) ->
  Bytes.t ->
  Request.t * Bytes.t
(** The returned buffer holds the reduction at completion; the input is
    copied at the call, so it may be reused (or collected) immediately. *)

val iscan :
  Mpi.proc ->
  Comm.t ->
  op:(Bytes.t -> Bytes.t -> unit) ->
  Bytes.t ->
  Request.t * Bytes.t

(** {1 Blocking collectives} *)

val barrier : ?algo:barrier_algo -> Mpi.proc -> Comm.t -> unit
(** Dissemination barrier, ceil(log2 n) rounds; [`Auto] switches to the
    two-level form on multi-node topologies. *)

val bcast :
  ?algo:bcast_algo -> Mpi.proc -> Comm.t -> root:int -> Buffer_view.t -> unit
(** Every member passes a buffer of the same length; on non-roots it is
    overwritten. [`Auto] switches from the binomial tree to
    scatter + allgather at [coll_bcast_scatter_min_bytes] scaled by
    [(n/8)^2] (see {!Simtime.Cost}). *)

val scatter :
  ?algo:fan_algo ->
  ?block:int ->
  Mpi.proc ->
  Comm.t ->
  root:int ->
  parts:Buffer_view.t array option ->
  recv:Buffer_view.t ->
  unit
(** [parts] is [Some arr] (one source per member, in communicator-rank
    order; sizes may differ, making this scatterv) at the root and [None]
    elsewhere. Passing [~block] declares the equal-block mode (every part
    and [recv] exactly [block] bytes — the analogue of [MPI_Scatter]'s
    recvcount, passed identically by every member), which enables the
    binomial tree at [coll_binomial_min_ranks] for blocks up to
    [coll_binomial_max_block]; without it the scatter is the linear
    root-fan. *)

val gather :
  ?algo:fan_algo ->
  ?block:int ->
  Mpi.proc ->
  Comm.t ->
  root:int ->
  send:Buffer_view.t ->
  parts:Buffer_view.t array option ->
  unit
(** Dual of {!scatter}: [parts] is [Some arr] at the root. *)

val allgather :
  ?algo:allgather_algo -> Mpi.proc -> Comm.t -> send:Bytes.t -> Bytes.t array
(** Allgather of equal-size blocks; returns one block per member in
    communicator-rank order. [`Auto] uses recursive doubling on
    power-of-two communicators up to [coll_allgather_rd_max_bytes] total,
    the ring otherwise. Forcing [`Rd] on a non-power-of-two communicator
    raises [Invalid_argument]. *)

val alltoall : Mpi.proc -> Comm.t -> send:Bytes.t array -> Bytes.t array
(** Personalised all-to-all of equal-size blocks: [send.(r)] goes to
    member [r]; the result's element [r] came from member [r]. All blocks
    must have the same length. *)

val reduce :
  Mpi.proc ->
  Comm.t ->
  root:int ->
  op:(Bytes.t -> Bytes.t -> unit) ->
  Bytes.t ->
  Bytes.t option
(** Binomial-tree reduction: [op acc x] folds [x] into [acc] in place,
    and the tree folds in rank order, so the operator need not commute
    (associativity is still required). Returns [Some result] at the root,
    [None] elsewhere. The input is not modified. *)

val allreduce :
  ?algo:allreduce_algo ->
  ?commutative:bool ->
  Mpi.proc ->
  Comm.t ->
  op:(Bytes.t -> Bytes.t -> unit) ->
  Bytes.t ->
  Bytes.t
(** [`Auto] selects Rabenseifner for payloads of at least
    [coll_rabenseifner_min_bytes] when the operator is commutative and
    the buffer splits into at least one 8-byte-aligned piece per member,
    recursive doubling otherwise. Rabenseifner never splits the payload
    inside an 8-byte element, which is safe for every predefined
    operator.
    [commutative] defaults to [true]; pass [~commutative:false] for
    order-sensitive operators — [`Auto] then stays on recursive doubling,
    which folds in rank order. *)

val scan :
  Mpi.proc -> Comm.t -> op:(Bytes.t -> Bytes.t -> unit) -> Bytes.t -> Bytes.t
(** Inclusive prefix reduction ([MPI_Scan]): member [r] receives the fold
    of members [0..r], in rank order (the operator need not commute). *)

val reduce_scatter_block :
  Mpi.proc -> Comm.t -> op:(Bytes.t -> Bytes.t -> unit) -> Bytes.t -> Bytes.t
(** [MPI_Reduce_scatter_block]: element-wise reduce the input (whose length
    must be size x block) and return this member's block of the result. *)

(** {1 Predefined reduction operators}

    [sum_t acc x] adds each little-endian lane of [x] into the matching
    lane of [acc], in place: 8-byte IEEE doubles, 4-byte and 8-byte
    wrapping integers. The accumulator's length sets the lane count; a
    trailing partial lane is left untouched, and an [x] too short for
    those lanes raises [Invalid_argument] before [acc] is written. All
    three run on the unboxed {!Lanes} kernel (no allocation or closure
    call per lane) and, like every operator, charge no virtual time. *)

val sum_f64 : Bytes.t -> Bytes.t -> unit
val sum_i32 : Bytes.t -> Bytes.t -> unit
val sum_i64 : Bytes.t -> Bytes.t -> unit
