(** Simulation environment: one clock + one cost model + one counter set.

    A single [Env.t] is threaded through a whole simulated world (all ranks of
    one run share the clock; per-rank state lives in the VM and MPI layers).
    The [charge_*] helpers are the only way subsystems spend virtual time, so
    every cost is attributable to a named mechanism. *)

type t = {
  clock : Clock.t;
  cost : Cost.t;
  stats : Stats.t;
}

val create : ?cost:Cost.t -> unit -> t
(** Fresh environment; the cost model defaults to {!Cost.motor}. *)


val now_us : t -> float
val now_ns : t -> float
val charge : t -> float -> unit
(** Charge raw nanoseconds. *)

val charge_per_byte : t -> float -> int -> unit
(** [charge_per_byte env ns_per_byte n] charges [ns_per_byte *. n]. *)

val count : t -> string -> unit
val count_n : t -> string -> int -> unit

val observe : t -> string -> float -> unit
(** Record a virtual-time sample (ns) into the named {!Stats} histogram. *)

val with_timer : t -> string -> (unit -> 'a) -> 'a
(** Run a scope and observe the virtual time it charged into the named
    histogram: the standard way to attribute a pause or a pass to a
    mechanism. *)
