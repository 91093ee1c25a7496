(** Safe, typed access to managed objects.

    All operations go through GC handles, perform bounds and type checks and
    apply the generational write barrier — this layer is what guarantees the
    object-model integrity the paper argues a VM-integrated MPI must not
    break (Section 2.4): a reference slot can only ever hold null or an
    object of a compatible class, and no access can run past the end of an
    object. *)

exception Managed_error of string

type obj = Gc.Handle.t

(** {1 Allocation} *)

val alloc_instance : Gc.t -> Classes.method_table -> obj
val alloc_array : Gc.t -> Types.elem -> int -> obj
(** 1-D zero-based array; length must be >= 0. *)

val alloc_md_array : Gc.t -> Types.elem -> int array -> obj
(** True multidimensional array with the given dimensions (rank >= 2). *)

val null : Gc.t -> obj
(** A fresh handle holding the null reference. *)

val free : Gc.t -> obj -> unit
(** Release a handle (not the object). *)

(** {1 Inspection} *)

val is_null : Gc.t -> obj -> bool
val class_of : Gc.t -> obj -> Classes.method_table
(** Raises {!Gc.Null_reference} on null. *)

val addr_of : Gc.t -> obj -> Heap.addr
(** The object's current address. Only stable until the next allocation or
    safepoint — exactly the hazard pinning exists to control. *)

val same_object : Gc.t -> obj -> obj -> bool

(** {1 Instance fields} *)

val get_int : Gc.t -> obj -> Classes.field_desc -> int
(** Integral and boolean/char fields up to 32 bits (and I8 when it fits). *)

val set_int : Gc.t -> obj -> Classes.field_desc -> int -> unit
val get_float : Gc.t -> obj -> Classes.field_desc -> float
val set_float : Gc.t -> obj -> Classes.field_desc -> float -> unit

val get_ref : Gc.t -> obj -> Classes.field_desc -> obj option
(** Read a reference field; [Some] wraps a {e fresh} handle the caller must
    {!free}. *)

val set_ref : Gc.t -> obj -> Classes.field_desc -> obj option -> unit
(** Write a reference field (with class compatibility check and write
    barrier). [None] stores null. *)

(** {1 Arrays} *)

val array_length : Gc.t -> obj -> int
(** 1-D length, or total element count for a multidimensional array. *)

val array_elem_type : Gc.t -> obj -> Types.elem
val get_elem_int : Gc.t -> obj -> int -> int
val set_elem_int : Gc.t -> obj -> int -> int -> unit
val get_elem_int64 : Gc.t -> obj -> int -> int64
val set_elem_int64 : Gc.t -> obj -> int -> int64 -> unit
val get_elem_float : Gc.t -> obj -> int -> float
val set_elem_float : Gc.t -> obj -> int -> float -> unit
val get_elem_ref : Gc.t -> obj -> int -> obj option
val set_elem_ref : Gc.t -> obj -> int -> obj option -> unit

val md_dims : Gc.t -> obj -> int array
val md_flat_index : Gc.t -> obj -> int array -> int
(** Row-major flattening with per-dimension bounds checks. *)

(** {1 Raw data regions (runtime-internal)} *)

val payload_region : Gc.t -> obj -> Heap.addr * int
(** The transportable payload: instance fields for a class instance, or the
    element storage (excluding length/dims words) for arrays. This is the
    region MPI transfers read and write; its size bounds every transfer so a
    message can never overwrite the next object. *)

val elem_region :
  Gc.t -> obj -> offset:int -> count:int -> Heap.addr * int
(** Element subrange [(addr, bytes)] of a 1-D array with bounds checks —
    the paper's offset/count overloads for array transport. *)

val fill_array_bytes : Gc.t -> obj -> Bytes.t -> unit
(** Copy [Bytes.t] into a simple-type array's payload (sizes must match). *)

val read_array_bytes : Gc.t -> obj -> Bytes.t
(** Copy a simple-type array's payload out. *)
