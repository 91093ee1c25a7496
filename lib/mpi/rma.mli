(** MPI-2 one-sided communication (RMA): windows, [put]/[get]/[accumulate]
    and both synchronization flavours — active-target {!win_fence} epochs
    and passive-target {!win_lock}/{!win_unlock}.

    A window exposes one local byte buffer per communicator member. Data
    movement rides the existing CH3 machinery: every one-sided operation
    is a real message on a dedicated context, handled at the target by a
    {e service} receive re-armed from a CH3 progress hook — so a passive
    target makes progress whenever its fiber pumps the engine, without
    ever calling into the window.

    Epoch semantics are the checkable core (and what the test battery
    exercises): updates received inside an epoch are {e deferred} — queued
    per origin, stamped with the origin's epoch — and applied only at the
    closing synchronization ({!win_fence} or the target's handling of
    {!win_unlock}), sorted by origin rank then per-origin order. Until
    then the target's buffer is bit-for-bit untouched, which is what the
    explorer's epoch-discipline invariant checks; it also makes a
    non-commutative accumulate fold deterministically in rank order.
    [get]s read the committed window (deferred updates invisible), the
    MPI-legal choice for reads concurrent with same-epoch updates.

    On a world created with the [`Rdma] channel, operations additionally
    model pin-down registration through the per-rank
    {!Rdma_channel.Cache}: window memory is registered (and pinned) for
    the window's lifetime at {!win_create}, origin buffers of
    rendezvous-sized transfers are registered through the LRU cache, and
    each rendezvous charges the modelled RDMA-write/RDMA-read variant
    crossover. Transfers under the RDMA eager threshold stage through
    bounce buffers instead.

    The GC side: {!exposed} is the predicate a conditional pin on the
    window buffer polls (see [Motor.System_mp.owin_create]) — true from
    {!win_create} until {!win_free}, so a full collection during an open
    epoch must leave the buffer in place, and the pin drops at the first
    collection after the window is freed. *)

type win

exception Protocol_error of string
(** A window's service receive got a message that breaks the one-sided
    protocol's invariants: an unlock from an origin that holds no lock,
    an unlock whose announced operation count differs from the updates
    queued for that origin, or an unknown message kind. Origins built by
    this module never send such a message, so the exception means the
    window's service context was corrupted or reused by other traffic;
    it is never a recoverable user error. *)

(** Element-wise accumulate operators. Arithmetic operators combine
    little-endian [int64] lanes (length must be a multiple of 8) on the
    same unboxed {!Lanes} kernel as {!Collectives.sum_i64};
    [Replace] is [MPI_REPLACE]; [Matmul] combines 4-byte blocks as 2x2
    matrices over Z/256 ([target := target * incoming]) — associative but
    {e not} commutative, so it observably folds in rank order. *)
type accum_op = Sum | Prod | Min | Max | Bxor | Replace | Matmul

val win_create :
  ?eager_apply:bool -> ?sub:int * int -> Mpi.proc -> comm:Comm.t ->
  Bytes.t -> win
(** Collective over [comm] (every member must call, in the same order
    relative to other context-allocating collectives). The buffer is the
    caller's exposed window memory; member window sizes may differ and
    are exchanged here, so out-of-range remote offsets are checked at
    the origin.

    [?sub:(off, len)] exposes only that range of [buf] — window offset 0
    is [buf[off]]. This is how a managed heap object's payload region
    becomes a window without copying (see [Motor.System_mp.owin_create]);
    raises [Invalid_argument] if the range is outside the buffer.

    [?eager_apply] is {b test instrumentation}: the planted epoch bug.
    When true, the target applies updates the moment they are received
    instead of deferring to the closing synchronization — a put becomes
    visible before [win_fence], which schedule search catches (see
    [Check.Explore]'s [rma_fence_bug] workload). Production callers must
    leave it false. *)

val win_free : win -> unit
(** Collective. Synchronizes members (so no one-sided traffic can still
    be in flight toward the caller), retires the service receive and its
    progress hook, and — on an RDMA world — unpins the window's
    registration. Freeing a window with an {e open epoch} raises
    [Invalid_argument] instead of leaving a dangling registration: a
    lock the caller holds or unfenced outbound operations on entry; a
    lock held on the caller's window or queued unapplied updates once
    the members have synchronized, so a peer's epoch that closes before
    that peer frees is no error. *)

val put :
  win -> target:int -> target_off:int -> Bytes.t -> off:int -> len:int -> unit
(** One-sided write of [buf[off, off+len)] into the target's window at
    [target_off]. Completes locally when the message is handed off; the
    update becomes visible at the target only at the epoch's closing
    synchronization. [target] is a [comm] rank (the caller's own rank is
    allowed). *)

val get :
  win -> target:int -> target_off:int -> Bytes.t -> off:int -> len:int -> unit
(** One-sided read of the target's committed window into
    [buf[off, off+len)]. Blocking (waits for the reply); deferred
    same-epoch updates are not visible. *)

val accumulate :
  win ->
  target:int ->
  target_off:int ->
  op:accum_op ->
  Bytes.t ->
  off:int ->
  len:int ->
  unit
(** Like {!put}, but combined into the target data with [op] at the
    closing synchronization. Updates from different origins in one epoch
    are folded in origin-rank order (observable with [Matmul]). *)

val win_fence : win -> unit
(** Active-target synchronization closing the current epoch and opening
    the next. Every member exchanges per-peer operation counts, pumps
    until all updates addressed to it this epoch have arrived, applies
    them (origin order, then issue order), and resets. A fence with no
    pending operations degenerates to a barrier. *)

val win_lock : ?exclusive:bool -> win -> target:int -> unit
(** Passive-target: acquire the target window's lock (default
    exclusive; [~exclusive:false] is [MPI_LOCK_SHARED] — concurrent with
    other shared holders). Blocks until granted; waiters are served
    FIFO. Operations issued while holding the lock form the access
    epoch. *)

val win_unlock : win -> target:int -> unit
(** Close the passive epoch: the target applies every update this origin
    issued under the lock (in issue order), acknowledges, and releases
    the lock. Blocks until the acknowledgement — at return the updates
    are visible in the target window. *)

(** {1 Introspection} *)

val exposed : win -> bool
(** True until {!win_free} completes: the window's registration epoch,
    polled by the GC's conditional pin on the buffer. *)

val size_of : win -> rank:int -> int
(** The given member's window size in bytes. *)
