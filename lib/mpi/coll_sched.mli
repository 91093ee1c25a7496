(** The collective schedule engine (MPICH's [MPIR_Sched] / TSP analogue).

    A collective algorithm {e compiles} into a per-rank schedule: a DAG
    of device-level steps grouped into rounds, where a round may start
    only once every step of all earlier rounds has completed (the
    [sched_barrier] dependency rule — {!fence}). {!start} posts the
    first round and registers the schedule with the device's progress
    hooks, so every {!Ch3.progress} pump advances it; the returned
    generalized request (kind {!Request.Coll_req}) completes when all
    steps are done. This is what makes collectives nonblocking: the
    caller can compute — or run other collectives on disjoint tag
    ranges — while the schedule trickles forward under the progress
    engine, and the GC mark phase polls the request like any other
    (conditional pins, paper §4.3).

    Step start and finish are recorded to {!Trace} as ["sched/step"] /
    ["sched/step-done"] events (plus ["sched/start"] / ["sched/done"]
    for the schedule itself), so round structure is testable. *)

type kind
(** What a schedule computes: a name, which labels trace events and error
    messages, and its step histogram ["sched/step_ns/<name>"]. *)

val kind : string -> kind
(** Declare a schedule kind and its step histogram. Call once per kind,
    at module initialisation, not per schedule. *)

type builder

val make : Ch3.t -> context:int -> kind -> builder
(** A schedule of [kind] over [context] (a communicator's collective
    context). *)

(** {1 Steps}

    Each call appends one step to the current round. Steps in the same
    round may start in any order and run concurrently. *)

val isend : builder -> dst:int -> tag:int -> Buffer_view.t -> unit
(** [dst] is a {e world} rank. The view is read when the step starts
    (eager) or when the receiver's CTS arrives (rendezvous) — it must
    stay valid until the round completes, which the round rule
    guarantees for the buffer-window algorithms in {!Collectives}. *)

val irecv : builder -> src:int -> tag:int -> Buffer_view.t -> unit
(** [src] is a world rank. *)

val reduce : builder -> ?label:string -> (unit -> unit) -> unit
(** A local operator application, executed when its round starts.
    Not charged virtual time (operator folds never were). *)

val copy : builder -> src:Buffer_view.t -> dst:Buffer_view.t -> unit
(** A local copy between equal-length views, charged at
    [memcpy_ns_per_byte]. *)

val fence : builder -> unit
(** Close the current round: steps added afterwards start only when
    every step before the fence has completed. Collapses empty rounds,
    so defensive fences are free. *)

(** {1 Execution} *)

val start : builder -> Request.t
(** Post the first round, register the schedule with the device progress
    engine, and return its generalized request (kind [Coll_req]); wait
    on it with {!Mpi.wait} / {!Mpi.test} or any of the request-set
    calls. An empty schedule's request is already complete. A failed
    step (truncation, rendezvous refused) fails the request with the
    step's description prepended; unstarted steps are abandoned.
    A builder can be started once. *)

val info : Request.t -> (int * int) option
(** [(rounds, steps)] of a started schedule, read from its request's
    kind ({!Request.Coll_req}) — the measured shape tests compare
    against analytic round models (e.g. the two-level collectives'
    [2 log s + 2 log L] structure). [None] for point-to-point
    requests. *)
