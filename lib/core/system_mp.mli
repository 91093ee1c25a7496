(** System.MP — the managed message-passing library surface.

    Combines the two operation families of Section 4.2:

    - the {e regular MPI operations} (re-exported from
      {!Object_transport}): efficient zero-copy object-to-object transport
      of reference-free objects and simple-type arrays;
    - the {e extended object-oriented operations} ([OSend], [ORecv],
      [OBcast], [OScatter], [OGather]): transport of arbitrary objects,
      object arrays and object trees via the custom serializer, with
      automatic buffer management from the unmanaged pool and no pinning.

    As in the paper (Section 7.5), every OO transfer sends the serialized
    size ahead of the data so the receiver can prepare a buffer. *)

module Comm = Mpi_core.Comm

module Ot = Object_transport

val osend :
  World.rank_ctx -> comm:Comm.t -> dst:int -> tag:int ->
  Vm.Object_model.obj -> unit
(** Serialize (following Transportable references) and send. *)

val osend_range :
  World.rank_ctx -> comm:Comm.t -> dst:int -> tag:int ->
  Vm.Object_model.obj -> offset:int -> count:int -> unit
(** Array-subset OO transfer: sends a [count]-element slice of a
    reference array (the receiver obtains a fresh array of that length). *)

val orecv :
  World.rank_ctx -> comm:Comm.t -> src:int -> tag:int ->
  Vm.Object_model.obj * Mpi_core.Status.t
(** Receive and rebuild an object graph; returns a fresh root handle.
    [src] may be {!Mpi_core.Tag_match.any_source}. *)

val obcast :
  World.rank_ctx -> comm:Comm.t -> root:int ->
  Vm.Object_model.obj option -> Vm.Object_model.obj
(** Broadcast an object tree; the root passes [Some obj] (and gets the same
    handle back), the others pass [None] and receive a fresh copy. *)

val oscatter :
  World.rank_ctx -> comm:Comm.t -> root:int ->
  Vm.Object_model.obj option -> Vm.Object_model.obj
(** Scatter a reference array using the split representation: each member
    (root included) receives a fresh sub-array covering its contiguous
    share of the elements. This is the operation the paper singles out as
    impossible over standard atomic serialization. *)

val ogather :
  World.rank_ctx -> comm:Comm.t -> root:int ->
  Vm.Object_model.obj -> Vm.Object_model.obj option
(** Gather each member's reference array into one combined array at the
    root (in communicator-rank order). *)

(** {1 Regular collectives}

    Zero-copy collectives over objects that pass the regular-operation
    integrity rules (reference-free objects and simple-type arrays) —
    Section 7's "selected collective routines". *)

val bcast :
  World.rank_ctx -> comm:Comm.t -> root:int -> Vm.Object_model.obj -> unit
(** Every member passes an object with the same payload size; non-roots
    are overwritten in place. *)

val scatter_array :
  World.rank_ctx -> comm:Comm.t -> root:int ->
  send:Vm.Object_model.obj option -> recv:Vm.Object_model.obj -> unit
(** Scatter equal element ranges of the root's simple-type array into each
    member's [recv] array (whose length times the communicator size must
    equal the root array's length). *)

val gather_array :
  World.rank_ctx -> comm:Comm.t -> root:int ->
  send:Vm.Object_model.obj -> recv:Vm.Object_model.obj option -> unit
(** Dual of {!scatter_array}. *)

val allreduce_sum_f64 :
  World.rank_ctx -> comm:Comm.t -> Vm.Object_model.obj -> unit
(** Element-wise float64 sum across members, in place. *)

val barrier : World.rank_ctx -> Comm.t -> unit

(** {1 Fault tolerance}

    The ULFM-style recovery calls ({!Mpi_core.Mpi.comm_revoke} family),
    surfaced through the managed gate: an operation that loses a peer
    raises {!Mpi_core.Ft.Proc_failed} out of the System.MP call; the
    application revokes the communicator, shrinks it to the survivors and
    retries on the result. *)

val comm_revoke : World.rank_ctx -> Comm.t -> unit
(** Revoke [comm] on every rank (any member may call it, non-collective;
    idempotent). *)

val comm_agree : World.rank_ctx -> comm:Comm.t -> value:int -> int
(** Fault-tolerant agreement: bitwise AND over the surviving members'
    contributions; every survivor gets the same result. *)

val comm_shrink : World.rank_ctx -> Comm.t -> Comm.t
(** Collective over the survivors: a new communicator containing exactly
    the members all survivors agree are alive. *)

val failed_ranks : World.rank_ctx -> int list
(** World ranks currently declared dead (empty without a failure
    service). *)

(** {1 Nonblocking collectives}

    MPI-3 style: each returns the schedule's generalized request (kind
    [Coll_req]) immediately; complete it with {!Object_transport.wait},
    {!Object_transport.test} or {!Object_transport.wait_all}. The
    transfer buffer is protected by the same conditional-pin mechanism
    as nonblocking point-to-point: the GC mark phase polls the request,
    so a collection during the collective neither moves the buffer nor
    pins it for longer than the schedule is in flight. *)

val ibarrier : World.rank_ctx -> Comm.t -> Mpi_core.Request.t

val ibcast :
  World.rank_ctx -> comm:Comm.t -> root:int -> Vm.Object_model.obj ->
  Mpi_core.Request.t
(** Zero-copy nonblocking broadcast of a regular-operation object; the
    object is read (root) or overwritten (others) in place as the
    schedule runs. *)

val iallreduce_sum_f64 :
  World.rank_ctx -> comm:Comm.t -> Vm.Object_model.obj ->
  Mpi_core.Request.t
(** Element-wise float64 sum; the input is copied out at the call and
    the result is written back into the array when the request
    completes. *)

val comm_world : World.rank_ctx -> Comm.t
val rank : World.rank_ctx -> int
val size : World.rank_ctx -> Comm.t -> int

(** {1 One-sided windows}

    MPI-2 RMA over a managed object: the object's payload region is
    exposed {e in place} (no copy) as an {!Mpi_core.Rma} window, under
    the pinning policy. With the Motor ([Deferred]) policy the buffer is
    protected by a conditional pin whose liveness test is the window's
    exposure epoch — a full collection while the window is exposed marks
    the buffer unmovable, and the pin evaporates at the first collection
    after {!owin_free}. *)

type owin
(** A window whose memory is a managed object's payload. *)

val owin_create :
  ?eager_apply:bool -> World.rank_ctx -> comm:Comm.t ->
  Vm.Object_model.obj -> owin
(** Collective. The object must satisfy the regular-operation integrity
    rules (reference-free object or simple-type array — the same
    restriction as zero-copy transport, for the same reason: remote puts
    write raw bytes). [?eager_apply] threads through to
    {!Mpi_core.Rma.win_create} (test instrumentation only). *)

val owin_win : owin -> Mpi_core.Rma.win
(** The underlying window: issue {!Mpi_core.Rma.put} / [get] /
    [accumulate] / [win_fence] / [win_lock] against it. Window offset 0
    is the first payload byte of the exposed object. *)

val owin_free : owin -> unit
(** Collective. Frees the window ({!Mpi_core.Rma.win_free} epoch checks
    included) and releases any sticky pin the policy took. *)
