(** The managed type system: primitives, element types and field types.

    Mirrors the CLI's common type system at the granularity Motor needs:
    simple value types, object references, 1-D arrays and true
    multidimensional arrays (the paper chose the CLI over Java precisely for
    the latter, Section 3). *)

type prim = I1 | I2 | I4 | I8 | R4 | R8 | Bool | Char

type class_id = int
(** Index into the class registry. 0 is never a valid class id. *)

(** Array element types. *)
type elem = Eprim of prim | Eref of class_id

(** Field / local / parameter types. *)
type field_type = Prim of prim | Ref of class_id

val prim_size : prim -> int
(** Storage size in bytes. [Char] is 2 bytes, as in the CLI. *)

val elem_size : elem -> int
(** Element storage size; references are 4 bytes (32-bit managed heap). *)

val field_size : field_type -> int
val ref_size : int
val prim_name : prim -> string
val elem_is_ref : elem -> bool
