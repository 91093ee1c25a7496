(** Deterministic virtual clock.

    All costs in the simulation are charged to a virtual clock measured in
    nanoseconds. The clock is a plain mutable accumulator: the simulation is
    cooperative and single-threaded, so every charge is totally ordered. This
    replaces the paper's wall-clock measurements on a Pentium M testbed with a
    reproducible time base (see DESIGN.md §4). *)

type t

val create : unit -> t
(** A fresh clock at time zero. *)

val now_ns : t -> float
(** Current virtual time in nanoseconds. *)

val now_us : t -> float
(** Current virtual time in microseconds. *)

val advance : t -> float -> unit
(** [advance clock ns] moves the clock forward by [ns] nanoseconds. Negative
    charges are rejected with [Invalid_argument]. *)

val advance_to : t -> float -> unit
(** [advance_to clock ns] sets the clock to [ns], which must not lie in
    the past. The scheduler's idle fast-forward uses it to commit the
    exact value a run of skipped charges would have reached. *)
