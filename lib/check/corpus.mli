(** On-disk schedule traces (the replayable corpus, DESIGN.md §12).

    A corpus entry records a workload name, an expectation and a decision
    stream, in a line-oriented text format that diffs well:

    {v
# motor schedule trace v1
workload planted_bug
expect fail
note shrunk from seeded-random(seed=7)
size quick
decisions 0 0 2 1 0 1
    v}

    [expect fail] entries are regression anchors for planted or historic
    bugs: replaying them must still produce a violation (the detector
    works). [expect pass] entries pin schedules that once failed and were
    fixed: replaying them must stay clean. [dune runtest] replays every
    entry under [test/corpus/]. *)

type expectation = Must_fail | Must_pass

type entry = {
  c_workload : string;  (** registry name, see {!Explore.find} *)
  c_expect : expectation;
  c_note : string;  (** provenance, free-form (may be empty) *)
  c_fault : int option;
      (** fault-plan seed the failing run was crossed with, if any
          (serialized as a [fault N] line) *)
  c_quick : bool;
      (** recorded on the workload's quick size ([explore --quick]),
          serialized as a [size quick] line; a missing line means full
          size. A decision stream only means something at the size it was
          recorded at, so a replay runs the entry at this size. *)
  c_decisions : int list;
}

val to_string : entry -> string
val of_string : string -> entry
(** Raises [Failure] with a line diagnostic on malformed input. *)

val save : path:string -> entry -> unit
val load : path:string -> entry
(** Raises [Failure] (malformed) or [Sys_error] (unreadable). *)
