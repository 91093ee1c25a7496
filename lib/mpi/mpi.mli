(** The MPI facade: worlds, processes and point-to-point operations.

    A {e world} bundles one channel, one device per rank and one virtual
    clock. A {e proc} is the per-rank handle a rank program uses. Blocking
    operations suspend the calling fiber in a polling wait that pumps the
    progress engine — the structure Motor instruments with GC polling
    (paper Section 7.4). *)

type world
type proc

(** {1 World management} *)

val create_world :
  ?channel:[ `Shm | `Sock | `Rdma ] ->
  ?cost:Simtime.Cost.t ->
  ?env:Simtime.Env.t ->
  ?fault:Fault.plan ->
  ?reliable:Reliable.config ->
  ?detector:Ft.detector ->
  ?topology:Simtime.Topology.t ->
  ?parallel:int ->
  n:int ->
  unit ->
  world
(** Default channel is [`Sock] (the paper's configuration); [`Rdma] is
    the kernel-bypass fabric with a pin-down registration cache
    ({!Rdma_channel}, consumed by {!Rma}). A [fault]
    plan makes the wire lossy (seeded, deterministic — see {!Fault}) and
    automatically stacks the {!Reliable} go-back-N layer on top so MPI
    semantics survive; [reliable] installs (or configures) that layer
    explicitly, with or without faults.

    A fault plan with {!Fault.kill} events, or an explicit [detector],
    installs the process-failure service ({!Ft}): a heartbeat failure
    detector runs off every progress pump, killed ranks are torn down
    fail-stop, and operations that can no longer complete raise
    {!Ft.Proc_failed} instead of hanging (see the {!section-ft} section
    below).

    [?parallel:d] builds a world meant to execute on [d] real OCaml 5
    domains (DESIGN.md §15): one environment (clock + stats) per domain,
    each rank's device bound to its domain's environment via the
    topology placement (default: [d] nodes of [ceil(n/d)] cores — one
    simulated node per domain), and the sharded SPSC shm transport
    instead of a modelled channel. [d] is clamped to the rank count and,
    under an explicit [?topology], to its node count — extra domains
    would never be assigned a rank ({!parallelism} reports the effective
    value). Virtual time stops being a global
    order (each domain's clock advances independently; wall-clock is the
    metric); {!merged_stats} recombines accounting after the run.
    Incompatible with [?fault]/[?reliable]/[?detector] (their teardown
    and windows span devices across domains) and with a shared [?env] —
    all raise [Invalid_argument]. Dynamic process management
    ({!add_rank}) is likewise rejected by the sharded transport. *)

(** [?topology] places ranks on a nodes-by-cores machine model
    ({!Simtime.Topology}): the channel prices same-node traffic at the
    shared-memory tier, per-tier traffic counters are recorded, and the
    collectives' selection policy may pick hierarchical (two-level)
    algorithms. Defaults to a single node holding all [n] ranks; must be
    at least as large as the world. *)

val env : world -> Simtime.Env.t
(** Domain 0's environment — the world's only one unless it was created
    with [?parallel]. *)

val domain_envs : world -> Simtime.Env.t array
(** One environment per execution domain (length 1 unless [?parallel]).
    Read them only when their domains are quiescent (after {!run}
    returns). *)

val parallelism : world -> int option
(** [Some domains] when the world was created with [?parallel]. *)

val merged_stats : world -> Simtime.Stats.t
(** Per-domain stats folded into one accumulator ({!Simtime.Stats.merged});
    on a cooperative world this is just a copy of the env's stats. Call
    after the run completes. *)

val world_size : world -> int

val topology : world -> Simtime.Topology.t
(** The machine model ranks were placed on ([Topology.single ~n] unless a
    topology was passed at creation). *)

val reliable_handle : world -> Reliable.t option
(** Handle on the world's go-back-N layer when one was installed
    ([?fault] or [?reliable]); lets tests and the schedule-exploration
    harness assert that retransmission queues drained
    ({!Reliable.stranded} = 0) as a quiescence invariant. *)

val rdma_handle : world -> Rdma_channel.t option
(** The RDMA fabric handle when the world was created with
    [?channel:`Rdma]: per-rank registration caches and the cost-model
    helpers {!Rma} charges registration and rendezvous-variant costs
    through. [None] on other channels (one-sided operations still work,
    without registration modelling). *)

val ft_handle : world -> Ft.t option
(** The process-failure service, when installed (kills or [?detector]). *)

val dead_ranks : world -> int list
(** Ranks currently declared dead (empty without a failure service). *)

val revive_rank : world -> int -> unit
(** Re-admit a torn-down or dead rank (checkpoint/restart): its state
    returns to alive, the detector starts trusting it again and the
    reliable layer's sequence state toward it is reset so the new
    incarnation starts from sequence zero. The caller then respawns a
    fiber for it (see {!Ft.revive}). Raises [Invalid_argument] if the
    rank is alive or the world has no failure service. *)

val proc : world -> int -> proc
val comm_world : world -> Comm.t
(** The communicator over the world's {e initial} ranks; processes added
    later by dynamic spawning are not members (as in MPI, where spawned
    children get their own world). *)

val rank : proc -> int
(** World rank. *)

val comm_rank : proc -> Comm.t -> int
(** This process's rank within [comm]; raises [Invalid_argument] if it is
    not a member. *)

val world_of : proc -> world
val device : proc -> Ch3.t

val alloc_context : world -> key:string -> int
(** Deterministic context allocation: the first caller with a given key
    allocates a fresh pair of context ids, later callers get the same id.
    This is how every member of a collective communicator-creation agrees
    on the new context. *)

val add_rank : world -> proc
(** Extend the world by one process (dynamic process management). Its
    device is built exactly like an initial rank's: in a world with a
    failure service it beats, sweeps, sees revocations and dead peers.
    Run its fiber under {!rank_guard}, as {!Dynamic.spawn} does. *)

val quiescence_report : world -> (int * string) list
(** Leftover communication state per rank — outstanding requests, posted
    receives never matched, unexpected messages never received, rendezvous
    transfers never finished. A clean program ends with an empty report
    (the check MPI_Finalize performs); tests use it to catch leaks.
    Torn-down (killed) ranks are exempt: their devices were purged at
    death, and survivors' state referring to them was completed with
    [Proc_failed]. *)

val describe_pending : world -> unit -> string list
(** One line per incomplete operation on any device of the world
    ({!Ch3.describe_pending}) — the [pending] dump {!launch} hands
    {!Fiber.run}, so a {!Fiber.Deadlock} names this world's requests
    only. Drivers that call {!Fiber.run} themselves pass it too. *)

val launch : world -> (proc -> unit) -> unit
(** [launch w body] runs [body] on every initial rank of [w] to
    completion: one fiber per rank (["rank0"], ["rank1"], ...), each
    under {!rank_guard}, with the world's {!describe_pending} dump, on
    [d] real domains ({!Fiber.Parallel}) when [w] was built with
    [?parallel:d] and cooperatively (under the ambient scheduling
    policy) otherwise. *)

val run :
  ?channel:[ `Shm | `Sock | `Rdma ] ->
  ?cost:Simtime.Cost.t ->
  ?env:Simtime.Env.t ->
  ?fault:Fault.plan ->
  ?reliable:Reliable.config ->
  ?detector:Ft.detector ->
  ?topology:Simtime.Topology.t ->
  ?parallel:int ->
  n:int ->
  (proc -> unit) ->
  world
(** [run ... ~n body] is {!create_world} followed by {!launch}; returns
    the world (whose env carries the clock and counters). Each rank's
    fiber runs under {!rank_guard}, so a scheduled kill tears the rank
    down instead of aborting the run. See {!create_world} for the
    restrictions on [?parallel]. *)

val rank_guard : world -> int -> (unit -> unit) -> unit
(** [rank_guard w rank body] runs [body], implementing fail-stop
    semantics: if {!Ft.Killed}[ rank] escapes, the rank's device is
    purged, the rank transitions to torn-down (its endpoints go silent;
    survivors find out via the detector) and the fiber exits normally. A
    clean return marks the rank finished so the detector never declares
    an exited rank dead. Custom drivers that spawn their own fibers
    (checkpoint/restart respawns) must wrap bodies in this. *)

(** {1 Point-to-point}

    Ranks and sources are communicator ranks; [src] may be
    {!Tag_match.any_source}, [tag] may be {!Tag_match.any_tag} on
    receives. *)

val isend :
  proc -> comm:Comm.t -> dst:int -> tag:int -> Buffer_view.t -> Request.t

val issend :
  proc -> comm:Comm.t -> dst:int -> tag:int -> Buffer_view.t -> Request.t

val irecv :
  proc -> comm:Comm.t -> src:int -> tag:int -> Buffer_view.t -> Request.t

val send : proc -> comm:Comm.t -> dst:int -> tag:int -> Buffer_view.t -> unit
val ssend : proc -> comm:Comm.t -> dst:int -> tag:int -> Buffer_view.t -> unit

val recv :
  proc -> comm:Comm.t -> src:int -> tag:int -> Buffer_view.t -> Status.t
(** The returned status's [source] is a communicator rank. *)

val poll_until :
  proc ->
  label:string ->
  ?idle:Fiber.idle ->
  ?poll:(unit -> unit) ->
  (unit -> bool) ->
  unit
(** [poll_until p ~label ?idle ?poll ready] is the polling wait every
    blocking call is built on: each poll runs [poll ()] (default: nothing)
    and one progress pump, then tests [ready ()]. It suspends under
    [label] with {!Fiber.wait_until}, declaring [idle] (with its horizon
    unknown once [ready ()] holds). Outside a fiber scheduler (plain
    code: unit tests, self-sends) it runs that wait as a one-fiber
    round-robin {!Fiber.run} of its own, so a wait that can never
    complete raises {!Fiber.Deadlock} there too, naming [label]/[label]
    and carrying {!describe_pending}'s dump; the run records no
    decisions into an ambient {!Fiber.with_policy} trace. [ready] must
    not raise. *)

val wait : proc -> Request.t -> Status.t option
(** Polling wait: pumps progress until the request completes. The optional
    [poll] hook of {!wait_poll} is how Motor injects GC yields. Raises
    {!Ch3.Mpi_error} if the request completed with a categorized failure
    (truncation, rendezvous refused), and {!Fiber.Deadlock} if it can
    never complete, inside a scheduler or not ({!poll_until}); in plain
    code a request that is already complete returns without a poll. The
    wait declares its idle poll ({!Ch3.idle_poll}), so the clock jumps
    over polls that provably find nothing — with the same virtual time
    and counters as polling them (DESIGN.md §17). Once another rank's poll has completed the request
    (a failure detection, a collective abort), the wait's horizon is
    unknown until it wakes. *)

val wait_poll :
  idle:Fiber.idle ->
  proc ->
  poll:(unit -> unit) ->
  Request.t ->
  Status.t option
(** {!wait} with [poll ()] run before every progress pump. [idle]
    declares what one [poll ()] does while it has nothing to do, with
    horizon [Some infinity] when it is idle and [None] when it may act. *)

val test : proc -> Request.t -> bool
(** One progress pump, then completion check ([MPI_Test]). *)

val wait_all : proc -> Request.t list -> unit

val wait_any : proc -> Request.t list -> Request.t
(** Block until at least one of the requests completes; returns the first
    complete one in list order ([MPI_Waitany]). The list must not be
    empty. Raises {!Fiber.Deadlock} as {!wait} does. *)

val test_all : proc -> Request.t list -> bool
(** One progress pump, then [true] iff every request is complete
    ([MPI_Testall]). An empty list is trivially complete. *)

val test_any : proc -> Request.t list -> Request.t option
(** One progress pump, then the first complete request in list order, if
    any ([MPI_Testany]). *)

val wait_some : proc -> Request.t list -> Request.t list
(** Block until at least one request completes; returns {e all} the
    complete ones, in list order ([MPI_Waitsome]). The list must not be
    empty. Raises {!Fiber.Deadlock} as {!wait} does. *)

val sendrecv :
  proc ->
  comm:Comm.t ->
  dst:int ->
  send_tag:int ->
  send:Buffer_view.t ->
  src:int ->
  recv_tag:int ->
  recv:Buffer_view.t ->
  Status.t
(** Combined send and receive without deadlock ([MPI_Sendrecv]): both
    operations are started non-blocking, then completed together. *)

val iprobe : proc -> comm:Comm.t -> src:int -> tag:int -> Status.t option
(** Non-destructive match against the unexpected queue after one progress
    pump ([MPI_Iprobe]). *)

(** {1 Communicator management} *)

val next_epoch : proc -> Comm.t -> int
(** Per-process count of collective communicator-creating calls on [comm].
    MPI requires all members to make such calls in the same order, so the
    value agrees across ranks; {!comm_split}, {!comm_dup} and
    [Dynamic.spawn] use it to build agreement keys for {!alloc_context}. *)

val spawn_table : world -> (string, int array) Hashtbl.t
(** Rendezvous table for dynamic process spawning (see [Dynamic]). *)

val comm_dup : proc -> Comm.t -> Comm.t
val comm_split : proc -> Comm.t -> color:int -> key:int -> Comm.t
(** Collective over [comm]: every member must call it. Members with equal
    [color] land in the same new communicator, ordered by [key] (ties by
    old rank). Implemented with real messages (allgather of (color, key)). *)

(** {1 Hierarchical communicators}

    A contiguous communicator on a multi-node topology decomposes into
    per-node {e shards} and a cross-node {e leader} slice (the first
    member on each node). Both derived communicators are O(1)
    descriptors — a contiguous sub-range and a strided slice — and their
    context ids come from the deterministic allocator keyed by the
    parent's context, so constructing them needs {e no communication}.
    All three calls raise [Invalid_argument] if [comm] is not contiguous
    or the caller is not a member. *)

val shard_comm : proc -> Comm.t -> Comm.t
(** The members of [comm] on the calling process's node, in rank order.
    With a single-node topology this is [comm] itself (fresh context). *)

val leader_comm : proc -> Comm.t -> Comm.t
(** One member per node covered by [comm]: each node's lowest-ranked
    member. The same communicator value on every caller — non-leaders may
    use it for membership queries but must not run operations on it. *)

val is_shard_leader : proc -> Comm.t -> bool
(** Whether the caller is the first member of [comm] on its node. *)

(** {1:ft Fault tolerance (ULFM-style)}

    The recovery calls below follow MPI's User-Level Failure Mitigation
    proposal: an operation touching a dead process raises
    {!Ft.Proc_failed}; the application then {!comm_revoke}s the broken
    communicator (so no member stays blocked in it), {!comm_shrink}s it
    to the survivors, and continues — optionally re-admitting a restarted
    incarnation of the dead rank via {!revive_rank} + checkpoint restore.
    All three require the world to have a failure service. *)

val comm_revoke : proc -> Comm.t -> unit
(** Revoke [comm] (both its point-to-point and collective contexts):
    every rank's pending operations on it complete with
    {!Ft.Revoked}, in-flight collective schedules abort, and new
    operations on it fail immediately. Idempotent. Unlike most MPI calls
    this is {e not} collective — any member may revoke unilaterally; the
    simulation propagates the revocation instantly, standing in for
    ULFM's reliable revoke flood. *)

val comm_agree : proc -> Comm.t -> value:int -> int
(** Fault-tolerant agreement ([MPI_Comm_agree]): returns the bitwise AND
    of the values contributed by the surviving members — the same result
    on every survivor, even if members die mid-call. Collective over the
    survivors of [comm]; tolerates any number of failures (including the
    internal root's). A dead member's contribution is included only if it
    was received before the death was declared. *)

val comm_shrink : proc -> Comm.t -> Comm.t
(** Fault-tolerant shrink ([MPI_Comm_shrink]): collective over the
    survivors, returns a new communicator containing exactly the members
    every survivor agrees are alive, in [comm]'s rank order. Built on
    {!comm_agree} over an alive-bitmap, so stragglers' divergent failure
    views are reconciled; communicators up to 62 members (an OCaml int
    bitmap). *)
