(** Cooperative fibers: the simulation's stand-in for OS processes.

    Each MPI rank runs as a fiber with its own managed heap; the scheduler
    is deterministic — by default a strict round-robin, so every run is
    reproducible. Blocking MPI operations suspend with {!wait_until}; the
    predicate typically pumps the progress engine, mirroring the paper's
    polling-wait (Section 7.4).

    The scheduling {e policy} is pluggable (DESIGN.md §12): a seeded
    pseudo-random policy explores alternative interleavings of the same
    program, and every scheduling decision can be recorded as a compact
    {!trace} that the replay policy re-executes decision for decision.
    This is the substrate of the schedule-exploration harness
    ([lib/check]): races between progress pumping, GC pin polling,
    retransmission timers and collective schedule steps that a fixed
    round-robin can never exhibit become reachable, reproducible and
    shrinkable.

    GC interactions are preserved exactly under every policy: a rank's
    garbage collector can run only while that rank's own fiber executes,
    so remote ranks never move local objects — the same invariant the
    paper gets from per-process address spaces. *)

(** {1 Decision traces} *)

type trace
(** A growable record of scheduling decisions: the index of the chosen
    fiber among the runnable ones (0 = strict round-robin head) for every
    decision the scheduler made, in order, across nested runs. *)

val new_trace : unit -> trace
val trace_of_list : int list -> trace
val trace_to_list : trace -> int list

(** {1 Scheduling policies} *)

type policy =
  | Round_robin  (** strict FIFO — the historical, default behaviour *)
  | Seeded_random of int
      (** uniformly random among runnable fibers; the seed fully
          determines the decision stream (splitmix64), so a run is
          reproducible from its seed alone *)
  | Replay of trace
      (** re-execute a recorded decision stream; an exhausted or
          out-of-range entry falls back to the round-robin choice, so
          shrunk (edited) traces always stay runnable *)

val policy_name : policy -> string
(** Human-readable descriptor, e.g. ["seeded-random(seed=42)"] — embedded
    in {!Deadlock} diagnostics so a failing schedule is reproducible from
    the error alone. *)

exception
  Deadlock of {
    policy : string;
    waiting : string list;
    pending : string list;
  }
(** Raised by {!run} when every live fiber is blocked and no predicate
    can make progress. Carries the labels of the blocked waits, the
    {!policy_name} of the active scheduling policy (with its seed), so a
    deadlock found by exploration is reproducible from the report — and
    [pending], the run's own dump of its incomplete operations (per-rank
    posted receives, rendezvous in flight, hooks: {!run}'s [pending]),
    which is what makes a hang under a kill plan triageable. *)

(** {1 Execution modes} *)

type mode =
  | Cooperative
      (** everything on the calling domain, scheduled by the active
          {!policy} — byte-for-byte deterministic; the default, and the
          only mode the explorer and replay accept *)
  | Parallel of { domains : int; place : int -> int }
      (** execute fiber groups on real OCaml 5 domains: fiber [i] runs
          on domain [place i mod domains]; fibers sharing a domain stay
          cooperative (strict round-robin) among themselves, so a rank's
          GC still only runs while its own fiber does. Interleaving
          {e across} domains is whatever the hardware does: wall-clock
          real, not deterministic. Incompatible with [?policy],
          [?record] and any recording/non-round-robin ambient driver
          ([Invalid_argument]). *)

val run :
  ?mode:mode ->
  ?policy:policy ->
  ?record:trace ->
  ?pending:(unit -> string list) ->
  (string * (unit -> unit)) list ->
  unit
(** [run fibers] executes the labelled fibers until all complete, picking
    the next runnable fiber according to [policy]. The default policy is
    the ambient one installed by {!with_policy}, or [Round_robin] — byte
    for byte the historical schedule. Decisions are appended to [record]
    when given. [pending] describes the run's incomplete operations; it
    is called once, when a {!Deadlock} is declared, to fill the report
    (default: none — {!Mpi.run} passes its world's devices). An
    exception escaping any fiber aborts the whole run and is
    re-raised. Runs may nest (a fiber may start an inner scheduler);
    a nested run without an explicit [policy] shares the ambient driver,
    so one trace covers the whole nesting structure.

    With [~mode:(Parallel _)] the fiber groups execute on real domains
    (DESIGN.md §15). A blocked domain parks on a condition variable;
    cross-domain channels wake the destination with {!notify_fiber}.
    Deadlock detection is distributed — the last domain to park verifies
    every peer is asleep with no wakeup in flight and no global activity,
    then the whole run unwinds with {!Deadlock} (policy
    ["parallel(N domains)"]). At most one parallel run may be active per
    process. An exception escaping any fiber aborts every domain and is
    re-raised on the calling domain. *)

val parallel_active : unit -> bool
(** True while a [Parallel] run is executing (on any domain). The
    explorer and replay entry points use this to refuse to run inside a
    nondeterministic execution. *)

val notify_fiber : int -> unit
(** [notify_fiber i] wakes the domain hosting fiber [i] of the active
    parallel run, if any — called by cross-domain channels after
    publishing a message so a parked receiver re-scans its predicates.
    Also bumps the global activity stamp. No-op outside parallel runs
    (the cooperative scheduler polls; it never sleeps). *)

val with_policy : ?record:trace -> policy -> (unit -> 'a) -> 'a
(** [with_policy p f] runs [f] with [p] as the default policy for every
    {!run} inside it that does not pass [~policy] — including runs buried
    under library layers ([Mpi.run], [World.run]). All such runs share
    one policy driver: the RNG stream and the replay cursor continue
    across them, and decisions accumulate into [record] in execution
    order. Restores the previous ambient policy on exit. *)

val yield : unit -> unit
(** Suspend and reschedule at the back of the run queue. Must be called
    from within {!run}. *)

(** {1 Idle fast-forward}

    A blocked wait whose predicate is a polling loop may declare what one
    poll does while nothing can happen. When a scan over the blocked
    waits wakes nobody and every wait is declared, the scheduler skips the
    scans that would repeat it exactly, and keeps the virtual clock and
    the counters bit for bit where polling one by one would have left
    them (DESIGN.md §17): it commits the most scans whose end stays
    strictly before the least horizon. Inside one binade of the clock a
    scan adds a fixed number of ulps, so the skip commits a binade's
    worth of scans in one step and costs the binades it crosses, not the
    scans it skips; a charge that lands halfway between two floats, or a
    negative one, makes it add scan by scan. It skips nothing when a horizon
    is [None], when the least one is infinite (only the deadlock
    detector may end such a scan), or when the waits charge different
    clocks. Plain code reaches the same rule by running its wait as a
    one-fiber {!run} ([Mpi.poll_until]). *)

type idle = {
  clock : Simtime.Clock.t;  (** the clock the poll charges *)
  charges : float array;
      (** what one idle poll adds to [clock], in the order it adds them *)
  count : int -> at:float -> unit;
      (** [count n ~at] leaves behind what [n] idle polls would have: it
          bumps their counters, and [at] is the clock right after the
          last one's charges, for state a poll stamps with the time (a
          failure detector's heartbeat) *)
  horizon : unit -> float option;
      (** the earliest virtual time at which a poll could do more than
          [charges] and [count]: [Some infinity] when nothing is pending
          (the wait alone never moves, and a scan of such waits is the
          deadlock detector's to judge), [None] when the wait cannot tell
          right now (a progress hook that may act, a pending collection)
          — then the scheduler polls one by one. A finite horizon
          promises that every poll before it calls {!note_activity}, as
          one with packets in flight or timers pending does. Must not
          charge or change state. *)
}

val idle_seq : idle -> idle -> idle option
(** [idle_seq a b] describes a poll that does [a]'s idle poll and then
    [b]'s: charges concatenated, counters both, the lesser horizon.
    Both counters see the combined poll's end as [at], so only [b]'s may
    read it. [None] when the two charge different clocks. *)

val wait_until : ?label:string -> ?idle:idle -> (unit -> bool) -> unit
(** [wait_until pred] suspends until [pred ()] is true. [pred] runs in
    scheduler context: it must not yield or wait, but it may perform plain
    side effects (e.g. pumping a progress engine). Predicates that move
    data without yet becoming true must call {!note_activity} (the
    channels do this) so the deadlock detector is not fooled by multi-step
    progress.

    [idle] declares what one false [pred ()] does while the wait is
    quiet: exactly the clock charges and counters in the descriptor, no
    other effect, until its horizon. Without it the wait is polled one
    scan at a time. A wrong declaration silently changes virtual times,
    so only a layer that owns the polled code should build one
    ([Mpi.wait] and the FCall gate's polling waits do). *)

val spawn : string -> (unit -> unit) -> unit
(** Add a fiber to the running scheduler (used by dynamic process
    management). Must be called from within {!run}. *)

val note_activity : unit -> unit
(** Record that useful work happened outside of fiber resumption; resets
    the deadlock detector. Safe to call when no scheduler is running. *)

val in_scheduler : unit -> bool
(** True when called from inside {!run}. *)
