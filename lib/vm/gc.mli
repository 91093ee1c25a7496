(** Two-generational garbage collector with pinning.

    The collector reproduces the SSCLI design the paper depends on
    (Section 5.2) and the hooks Motor adds to it (Sections 4.3, 7.4):

    - Objects allocate in a young block and are promoted to the elder
      generation when they survive a collection. The young generation is
      copy-collected (compacting); the elder generation is mark-swept and
      {e never} compacted.
    - If any pinned object lives in the young block at collection time, the
      {e whole block} is reassigned to the elder generation, a fresh young
      block is installed, and non-pinned survivors are copied out as usual.
    - {e Conditional pin requests}: a pin that depends on the status of a
      non-blocking transport operation. The collector checks the status
      during the mark phase; an operation still in flight pins its buffer
      for this cycle, a finished one is dropped from the list — the paper's
      answer to "when do we unpin a non-blocking buffer".
    - Explicit root scanners model the SSCLI's programmer-declared protected
      object pointers inside FCalls: roots are updated when objects move.

    Safepoints: collections triggered with {!request_gc} run at the next
    {!poll}, which Motor's FCalls invoke on entry, on exit and inside the
    polling-wait (Section 7.4). Allocation-triggered collections run
    immediately (the allocating thread is at a safe point by construction
    in this single-fiber-per-heap world). *)

type t

exception Null_reference

module Handle : sig
  type gc := t
  type t
  (** A GC-stable indirection to a managed object. Handles are roots: the
      referenced object stays live and the handle is updated when the object
      moves. This models both SSCLI handles and the protected object
      pointers FCalls must declare. *)

  val alloc : gc -> Heap.addr -> t
  val free : gc -> t -> unit
  val get : gc -> t -> Heap.addr
  val is_null : gc -> t -> bool
end

val create : Heap.t -> Classes.t -> t
val heap : t -> Heap.t
val registry : t -> Classes.t

(** {1 Allocation} *)

val alloc : t -> mt:Classes.method_table -> data_bytes:int -> Heap.addr
(** Allocate zeroed storage, collecting as needed. Objects too large for the
    young block go directly to the elder generation. Raises
    [Heap.Out_of_memory] when the arena is exhausted. *)

(** {1 Roots} *)

val add_scanner : t -> ((Heap.addr -> Heap.addr) -> unit) -> unit
(** [add_scanner gc scan] registers a root enumerator. During collection the
    collector calls [scan visit]; the enumerator must apply [visit] to every
    root slot it owns and store the result back (objects may move). *)

val record_write : t -> container:Heap.addr -> value:Heap.addr -> slot:Heap.addr -> unit
(** Generational write barrier: remembers elder slots that point into the
    young generation. *)

(** {1 Pinning} *)

val pin : t -> Handle.t -> unit
(** Sticky pin (counted): the object will not move until {!unpin} balances
    every {!pin}. *)

val unpin : t -> Handle.t -> unit

val add_conditional_pin : t -> Handle.t -> still_active:(unit -> bool) -> unit
(** Register a mark-phase-resolved pin request for a non-blocking operation
    (paper Section 4.3). While [still_active ()] is true at collection time
    the object is pinned for that cycle; once false the request is dropped. *)

val conditional_pin_count : t -> int
val pinned_count : t -> int

(** {1 Collection} *)

val collect : t -> full:bool -> unit
val request_gc : ?full:bool -> t -> unit
(** Ask for a collection at the next safepoint ({!poll}). *)

val gc_pending : t -> bool
val poll : t -> unit
(** Safepoint: charge the poll cost and run any pending collection. *)

val idle_poll : t -> Fiber.idle
(** What {!poll} does while no collection is pending — charge
    [gc_safepoint_poll_ns] and count one [safepoint_polls] — for waits
    that poll the collector ({!Fiber.wait_until}'s [idle]). Its horizon
    is [Some infinity], or [None] while a collection is pending. *)

val minor_count : t -> int
val full_count : t -> int

val add_post_gc_hook : t -> (unit -> unit) -> unit
(** Run after every collection (Motor's buffer pool reaps unused unmanaged
    buffers here, Section 7.5). Hooks must not allocate managed memory. *)

val collection_epoch : t -> int
(** Total collections so far (minor + full). *)

(** {1 Introspection (tests, serializer)} *)

val method_table_of : t -> Heap.addr -> Classes.method_table
(** Raises {!Null_reference} on null and [Not_found] on a corrupted
    header. *)

val live_objects : t -> int
(** Walk both generations and count live objects (young objects plus
    reachable accounting is approximated by all non-free headers). For
    tests. *)
