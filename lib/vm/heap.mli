(** The managed heap: a flat byte arena divided into fixed-size blocks.

    Layout follows the SSCLI model the paper relies on (Section 5.2): a
    contiguous {e young} block with bump allocation, and {e elder} regions
    (runs of blocks) managed with a first-fit free list and swept without
    compaction. Objects are headers followed by instance data:

    {v
      offset 0   mt_id       (int32)  class registry id; 0 marks a free chunk
      offset 4   flags       (int32)  MARK / PINNED / FORWARDED bits
      offset 8   total_size  (int32)  aligned size including header
      offset 12  aux         (int32)  forwarding address when FORWARDED
      offset 16  instance data ...
    v}

    Addresses are byte offsets into the arena; 0 is the null reference. The
    arena is uninitialised memory: only live objects (zeroed when allocated)
    and free-chunk headers have specified contents, and nothing reads any
    other byte. The heap is purely mechanical — all policy (when to collect,
    what to pin) lives in {!Gc}. *)

type addr = int

val null : addr
val header_bytes : int
(** 16. *)

exception Out_of_memory

exception Corrupt of string
(** Raised by {!check_consistency}: a header does not parse to its region's
    boundary. *)

type t

val create : ?arena_bytes:int -> ?block_bytes:int -> Simtime.Env.t -> t
(** Defaults: 32 MiB arena, 256 KiB blocks. [block_bytes] must divide
    [arena_bytes] and be a power of two >= 4 KiB; [arena_bytes] must hold at
    least two blocks and at most 2^31 bytes (addresses and sizes are stored
    as int32). Raises [Invalid_argument] otherwise. The arena is allocated
    uninitialised, without a zero fill: allocation zeroes each object. *)

val env : t -> Simtime.Env.t

val mem : t -> Bytes.t
(** The arena itself. Only the bytes of live objects are specified; callers
    must not read outside the objects they address. *)

val block_bytes : t -> int

(** {1 Object headers} *)

val mt_id : t -> addr -> int
val size_of : t -> addr -> int
(** Total aligned size including header. *)

val is_free_chunk : t -> addr -> bool
val is_marked : t -> addr -> bool
val set_marked : t -> addr -> bool -> unit
val set_pinned_flag : t -> addr -> bool -> unit
val is_forwarded : t -> addr -> bool
val forward_of : t -> addr -> addr
val set_forward : t -> addr -> addr -> unit
(** Marks [addr] forwarded to the second address. *)

val data_of : addr -> addr
(** Start of instance data ([addr + header_bytes]). *)

(** {1 Raw typed access (absolute addresses)} *)

val get_u8 : t -> addr -> int
val set_u8 : t -> addr -> int -> unit
val get_i16 : t -> addr -> int
val set_i16 : t -> addr -> int -> unit
val get_i32 : t -> addr -> int
val set_i32 : t -> addr -> int -> unit
val get_i64 : t -> addr -> int64
val set_i64 : t -> addr -> int64 -> unit
val get_f32 : t -> addr -> float
val set_f32 : t -> addr -> float -> unit
val get_f64 : t -> addr -> float
val set_f64 : t -> addr -> float -> unit
val get_ref : t -> addr -> addr
val set_ref_raw : t -> addr -> addr -> unit
(** Write a reference slot with no write barrier — {!Object_model} adds the
    barrier. *)

val blit_in : t -> src:Bytes.t -> src_off:int -> dst:addr -> len:int -> unit
val blit_out : t -> src:addr -> dst:Bytes.t -> dst_off:int -> len:int -> unit
val blit_within : t -> src:addr -> dst:addr -> len:int -> unit

(** {1 Generations and allocation} *)

val total_size_for : data_bytes:int -> int
(** Aligned total size for an object with [data_bytes] of instance data. *)

val in_young : t -> addr -> bool
(** True if [addr] lies in the currently allocated part of the young block.
    This is exactly the boundary test Motor's pinning policy performs
    (Section 7.4). *)

val young_used : t -> int
val elder_used : t -> int

val try_alloc_young : t -> mt:int -> data_bytes:int -> addr option
(** Bump-allocate in the young block; data is zeroed. [None] when full. *)

val try_alloc_elder : t -> mt:int -> data_bytes:int -> addr option
(** First-fit in the elder free list, acquiring fresh blocks as needed;
    data is zeroed. [None] when the arena is exhausted. *)

val reset_young : t -> unit
(** Empty the young block after evacuation (no pinned survivors). *)

val promote_young_block : t -> unit
(** Reassign the whole young block to the elder generation (the paper's
    pinned-young handling) and install a fresh young block. The unused tail
    becomes a free chunk; the caller must scrub dead/forwarded objects with
    {!free_object} afterwards. Raises {!Out_of_memory} if no block is free. *)

val free_object : t -> addr -> unit
(** Turn an elder object into a free chunk and push it on the free list. *)

val iter_young : t -> (addr -> unit) -> unit
(** Walk allocated young objects in address order. *)

val iter_elder : t -> (addr -> unit) -> unit
(** Walk elder objects (skipping free chunks) in address order. *)

val sweep_elder : t -> keep:(addr -> bool) -> int
(** Walk elder regions; objects failing [keep] (and forwarded corpses)
    become free chunks, adjacent chunks coalesce, and the free list is
    rebuilt. Returns bytes freed. *)

val check_consistency : t -> unit
(** Walk both generations and verify headers parse exactly to the region
    boundaries; raises {!Corrupt} otherwise. For tests. *)

val poison_free : t -> unit
(** Fill every unallocated byte with [0xAA]: the young block above the bump
    pointer, free-chunk bodies past their header and block 0 (which only
    backs the null address). From then on each Free block is filled as it
    leaves Free, which is the first moment an address in it can be handed
    out. Call it at any point between heap operations, and again after a
    collection; a read of memory no allocation wrote then sees the poison
    instead of zeroes. For tests. *)
