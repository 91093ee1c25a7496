(** The schedule explorer: run workloads under many scheduling policies,
    check invariants, shrink what fails (DESIGN.md §12).

    Exploration is CHESS-style interleaving fuzzing over the cooperative
    scheduler: each {e workload} is a small deterministic program over the
    MPI/VM stack whose correctness is expressed as {!Invariant} oracles
    plus a schedule-independent digest. The explorer runs the workload
    once under round-robin (the baseline — byte for byte the historical
    schedule), then under [seeds] seeded-random schedules, optionally
    crossing each schedule seed with a derived fault-plan seed; every
    failing run's recorded decision trace is minimized with {!Shrink}
    into a replayable {!Corpus} entry. *)

type workload

val name : workload -> string
val faultable : workload -> bool

val check_entry :
  Catalogue.entry -> Catalogue.spec -> string * Invariant.violation list
(** Run a catalogue entry on the world [spec] describes, under the
    match-order monitor: its digest, then the match-order, quiescence and
    entry-oracle violations, in that order. Every explorer workload drawn
    from the catalogue runs through this with its own spec and the
    explorer's fault plan. *)

val default_workloads : unit -> workload list
(** The exploration set: the {!Catalogue} entries [ring] (with its
    synchronous-mode tail), [allreduce_chain], [hier_allreduce],
    [icoll_overlap], [rma_fence] and [rma_lock], each on its own world
    spec, plus [osend_gc] (OSend/ORecv and zero-copy transfers with
    collections forced mid-flight, checking the pin table drains). *)

val all_workloads : unit -> workload list
(** {!default_workloads} plus the planted-bug, rma-epoch-bug and
    planted-detector-bug self-tests (which fail by design and are
    therefore excluded from exploration) and the {!kill_workloads}
    (driven by the kill sweep rather than the default exploration
    set). *)

val find : string -> workload option
(** Look up by name among {!all_workloads} (corpus replay, CLI). *)

val planted_bug : buggy:bool -> workload
(** The harness self-test: three fibers share an unsynchronized counter.
    With [~buggy:true] ("planted_bug") the two incrementing fibers each
    read, yield through a window, then write — but the windows are
    phase-shifted so strict round-robin keeps them disjoint: the planted
    lost-update races {e only} under schedule perturbation, which is
    exactly what the explorer must be able to catch (and round-robin must
    not). [~buggy:false] ("planted_bug_fixed") writes without yielding
    inside the window and passes under every schedule. *)

val rma_epoch_bug : buggy:bool -> workload
(** The one-sided self-test, {!Catalogue.rma_epoch}: with [~buggy:true]
    ("rma_fence_bug") the windows apply puts on arrival, a
    schedule-dependent epoch violation that strict round-robin never
    shows and the explorer must catch, shrink and commit to the corpus;
    [~buggy:false] ("rma_fence_bug_fixed") defers, as production does,
    and is clean under every schedule. *)

val planted_detector_bug : buggy:bool -> workload
(** The failure-detector self-test: a two-rank exchange whose busy rank
    computes 500us of virtual time before replying. With [~buggy:true]
    ("planted_detector_bug") the world runs a heartbeat timeout of 200us
    — shorter than that silence — so a {e live} rank is swept into the
    declared-dead set and the workload reports a ["planted-detector"]
    violation; the explorer must catch and shrink this. [~buggy:false]
    uses {!Mpi_core.Ft.default_detector}, whose timeout dwarfs the
    compute phase, and passes under every schedule. *)

val kill_workloads : unit -> workload list
(** The rank-death entries of {!Catalogue} ("kill_allreduce",
    "kill_p2p", "kill_hier_leader"), each under a fault plan extended
    with the {!Mpi_core.Fault.kill} its fault seed implies
    ({!kill_of_fault}; "kill_hier_leader" draws its victim from
    {!hier_leader_victims}). Not in the default exploration set: the
    kill sweep ([figures killsweep], CI) drives them across seeds. *)

val hier_leader_victims : int list
(** The shard-leader ranks "kill_hier_leader" draws its victim from
    (exposed so the sweep CSV annotates that workload's rows with the
    right victim). *)

val kill_of_fault :
  ?victims:int list -> seed:int option -> n:int -> unit -> Mpi_core.Fault.kill
(** The kill a fault seed implies for an [n]-rank kill workload: victim
    uniform over ranks (or over [victims] when a workload restricts the
    candidate set, e.g. to shard leaders), time uniform over the
    workload's active window (so sweeps hit pre-operation, mid-collective
    and after-completion deaths). [None] (no fault seed) kills the last
    candidate at its first operation. Exposed so the sweep CSV can
    annotate rows. *)

type outcome = {
  o_workload : string;
  o_policy : Policy.t;
  o_fault_seed : int option;
  o_digest : string;  (** ["<crash>"] / ["<deadlock>"] on abnormal exit *)
  o_violations : Invariant.violation list;
  o_trace : int list;  (** the recorded decision stream *)
}

val failed : outcome -> bool

val run_one :
  ?fault_seed:int -> ?quick:bool -> workload -> Policy.t -> outcome
(** One run under one policy, decisions recorded. Exceptions (including
    {!Fiber.Deadlock}) become a ["crash"] violation, never an escape.
    [quick] shrinks rank counts and round counts (CI smoke). *)

type report = {
  r_runs : int;
  r_baselines : (string * string) list;
      (** per workload: the round-robin digest every seeded run must
          reproduce *)
  r_failures : outcome list;  (** all failing outcomes, traces dropped *)
  r_shrunk : (string * Corpus.entry) list;
      (** per workload with failures: the first failure's trace,
          minimized and packaged for the corpus, with the size it ran at *)
}

val explore :
  ?quick:bool ->
  ?faults:bool ->
  ?progress:(outcome -> unit) ->
  workloads:workload list ->
  seeds:int ->
  unit ->
  report
(** Baseline + seeds 1..[seeds] per workload; with [faults] each seed is
    additionally crossed with [Policy.fault_seed] (faultable workloads
    only — the reliable layer must mask the faults, so the digest and all
    invariants still hold). A seeded digest differing from the baseline
    is reported as a ["digest"] violation. [progress] sees every outcome
    as it completes (the CLI's per-run CSV hook). *)

val minimize_failure :
  ?fault_seed:int ->
  ?quick:bool ->
  ?baseline:string ->
  workload ->
  int list ->
  int list
(** Shrink a failing decision trace with {!Shrink.minimize}, replaying
    under [Policy.Replay]; a run counts as failing if it reports any
    violation or (when [baseline] is given) its digest diverges. *)

val replay_entry : Corpus.entry -> (outcome, string) result
(** Replay a corpus entry, at the size it was recorded at
    ([Corpus.c_quick]), and check it against its expectation:
    [Must_fail] entries must still produce a violation (the detector
    works), [Must_pass] entries must stay clean. [Error] carries a
    human-readable mismatch description. *)
