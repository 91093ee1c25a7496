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

val fig10_protocol : total_objects:int -> protocol
(** Scaled-down protocol for the object-transport experiment: the virtual
    clock is deterministic, so extra repetitions only cost host time, and
    every round trip builds, serializes and rebuilds the whole graph, so
    the iteration count shrinks as graphs grow. The counts stay fixed so
    that [results/fig10.csv] regenerates byte-identical. *)

val pingpong_bytes :
  ?protocol:protocol -> Systems.t -> size:int -> float
(** Figure 9's unit: average microseconds per round-trip of a [size]-byte
    buffer under the given system's binding semantics. *)

(** {1 Fault-tolerance workloads}

    Both drivers return a digest of the final application state together
    with the world (whose env carries the virtual clock and the fault /
    reliability counters). Workloads and fault schedules are fully
    deterministic, so for a fixed fault seed the digest must equal the
    fault-free digest — the property the loss-sweep experiment and the
    robustness tests assert. *)

val ring :
  ?fault:Mpi_core.Fault.plan ->
  ?reliable:Mpi_core.Reliable.config ->
  ?parallel:int ->
  n:int ->
  rounds:int ->
  size:int ->
  unit ->
  string * Mpi_core.Mpi.world
(** [rounds] neighbour exchanges around an [n]-rank ring of [size]-byte
    messages; each rank folds what it received into what it sends next,
    so any unmasked loss, duplication or corruption changes the digest.
    The per-round byte-mixing fold is also real CPU work, which makes
    this the reference workload for wall-clock speedup measurements:
    with [?parallel:d] the ranks execute on [d] domains
    ({!Mpi_core.Mpi.run}) and the digest must equal the cooperative
    one — the result is schedule-independent. *)

val allreduce_chain :
  ?fault:Mpi_core.Fault.plan ->
  ?reliable:Mpi_core.Reliable.config ->
  ?parallel:int ->
  n:int ->
  rounds:int ->
  unit ->
  string * Mpi_core.Mpi.world
(** Collective counterpart: [rounds] chained [allreduce] sums whose
    inputs depend on the previous result. *)

val allreduce_bytes :
  ?parallel:int ->
  n:int ->
  rounds:int ->
  size:int ->
  unit ->
  string * Mpi_core.Mpi.world
(** Vector allreduce ([size]-byte payload, sum over i64 lanes, pinned to
    recursive doubling) with a local O(size) remix between rounds: the
    compute-heavy collective workload for wall-clock speedup runs.
    [size] must be a positive multiple of 8. Digest is
    schedule-independent, so parallel and cooperative runs must agree. *)

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
