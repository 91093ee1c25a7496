(** Wall-clock speedup sweep: rank fibers on 1/2/4 OCaml 5 domains.

    The only harness numbers measured with a real clock rather than the
    virtual one. [figures speedup] runs the sweep, writes the committed
    [results/speedup_sweep.csv] and enforces {!check}; the multicore CI
    job runs it on a runner with enough cores for the ratio to mean
    anything. *)

type point = {
  p_workload : string;
  p_domains : int;
  p_ranks : int;
  p_reps : int;
  p_median_wall_ms : float;
  p_speedup : float;  (** 1-domain median / this point's median *)
}

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — recorded alongside results so
    {!check} can tell a real scaling failure from a small machine. *)

val sweep : ?quick:bool -> unit -> point list
(** Median-of-5 wall times for each workload on 1, 2 and 4 domains.
    [quick] shrinks the per-run work ~4x (smoke runs). *)

val min_speedup : float
(** 1.8: the 1-domain / 4-domain wall-time ratio every workload must
    reach. *)

val min_cores : int
(** 4: below this many cores every domain count shares too few CPUs for
    the ratio to carry information, and {!check} skips. *)

type outcome =
  | Enforced of { passing : point list; failing : point list }
      (** the points at the highest domain count, split by
          [p_speedup >= min_speedup] *)
  | Skipped of int  (** the machine had this many cores *)

val check : cores:int -> point list -> outcome

val csv_header : string

val write_csv : path:string -> point list -> unit
(** Creates missing parent directories. *)
