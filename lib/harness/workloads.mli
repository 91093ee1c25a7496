(** Workload drivers for the paper's experiments.

    The measurement protocol follows Section 8: a ping-pong between two
    processes, a configurable number of iterations with only the last so
    many timed, averaged over trials. Time is virtual time from the
    world's shared clock, read on rank 0 at round-trip boundaries. *)

type protocol = {
  iters : int;  (** total round trips (paper: 200) *)
  timed : int;  (** timed round trips at the end (paper: 100) *)
  trials : int;  (** runs averaged (paper: 3) *)
}

val paper_protocol : protocol
(** 200 / 100 / 3 — used for Figure 9. *)

val pingpong_bytes :
  ?protocol:protocol -> Systems.t -> size:int -> float
(** Figure 9's unit: average microseconds per round-trip of a [size]-byte
    buffer under the given system's binding semantics. *)

type object_result = Time_us of float | Crashed of string

val pingpong_objects :
  ?protocol:protocol ->
  ?visited:Motor.Serializer.visited_strategy ->
  Systems.t ->
  total_objects:int ->
  total_data_bytes:int ->
  object_result
(** Figure 10's unit: ping-pong of a linked list ([total_objects/2]
    elements, each an object plus its int8 data array, the data divided
    evenly), serialization and deserialization on both ends included in
    the time. mpiJava's recursive serializer reports [Crashed] past its
    stack budget, as in the paper. [visited] overrides Motor's visited
    structure (ablation abl3); ignored for other systems. *)

val make_linked_list :
  Vm.Gc.t -> Vm.Classes.t -> elems:int -> total_data_bytes:int ->
  Vm.Object_model.obj
(** The benchmark's LinkedArray list builder (shared with tests). *)

(** {1 Building blocks for the ablation drivers} *)

val pingpong_skeleton :
  env:Simtime.Env.t ->
  protocol:protocol ->
  rank:int ->
  send:(unit -> unit) ->
  recv:(unit -> unit) ->
  float list ref ->
  unit
(** Rank 0 initiates and appends its measured microseconds-per-round-trip
    to the list; rank 1 echoes. *)

val average : float list -> float
