(** In-memory checkpoint/restart for a rank's VM state.

    A checkpoint is the rank's live object graph, captured with the same
    split-representation serializer that System.MP's OO operations use
    (paper Section 7.5), plus the step counter of the program taking it
    and a digest of the device's message state. The store is in-memory
    and world-global — the simulation's stand-in for a checkpoint server
    that survives the rank it describes.

    Restore is the recovery half of the ULFM flow: after a failed rank is
    re-admitted ({!Mpi_core.Mpi.revive_rank}), its replacement fiber
    deserializes the last image into its heap and resumes from the
    recorded step. Only {e quiescent} images (nothing in flight at save
    time) are restorable: replaying in-flight messages would need message
    logging, which this store deliberately does not implement — programs
    checkpoint at step boundaries, where a bulk-synchronous rank has no
    pending operations. *)

type image = {
  i_rank : int;
  i_step : int;  (** program step the image was taken at *)
  i_at_ns : float;  (** virtual time of the save *)
  i_data : Bytes.t;  (** serialized object graph (root + reachable) *)
  i_digest : string;  (** hex digest of [i_data] *)
  i_pending : string;  (** device message-state summary at save time *)
}

type store

val create_store : ?interval:int -> unit -> store
(** [interval] (default 1) is the checkpoint cadence in program steps,
    consulted by {!due}. Raises [Invalid_argument] if < 1. *)

val due : store -> step:int -> bool
(** [due store ~step] is true when [step] is on the store's cadence
    (i.e. [step mod interval = 0]). *)

val save :
  store -> World.rank_ctx -> step:int -> Vm.Object_model.obj -> image
(** Serialize [root]'s object graph and record it as the rank's latest
    image (counted as [checkpoints], traced). The caller keeps ownership
    of [root]. *)

val restore : store -> World.rank_ctx -> Vm.Object_model.obj * int
(** Rebuild the rank's latest image into its heap; returns a fresh root
    handle and the step to resume from (counted as [restores], traced).
    Raises [Invalid_argument] if the rank has no image or the image was
    taken with messages in flight. *)

val digest : Bytes.t -> string
(** The digest function used for [i_digest] (exposed for round-trip
    properties: serialize → restore → re-serialize must be
    digest-equal). *)
