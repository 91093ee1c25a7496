(** Runtime class model: [FieldDesc], [MethodTable] and the class registry.

    These mirror the SSCLI structures the paper manipulates (Section 5.3):
    every object holds a reference to its MethodTable; each field is
    described by a FieldDesc. Motor's serializer relies on a spare
    {e Transportable} bit stored directly on the FieldDesc so that traversal
    does not have to touch slow type metadata (Section 7.5) — we model that
    bit as [f_transportable]. *)

type field_desc = {
  f_name : string;
  f_type : Types.field_type;
  f_offset : int;  (** byte offset within instance data *)
  f_index : int;
  f_transportable : bool;
      (** the Transportable bit on the FieldDesc *)
}

type kind =
  | K_class
  | K_array of Types.elem  (** 1-D zero-based array *)
  | K_md_array of Types.elem * int  (** element type and rank (>= 2) *)

type method_table = {
  c_id : Types.class_id;
  c_name : string;
  c_kind : kind;
  c_fields : field_desc array;  (** empty for arrays *)
  c_instance_size : int;  (** instance data bytes (excl. header); 0 for arrays *)
  c_ref_offsets : int array;  (** ref-field offsets, for GC tracing *)
  c_has_refs : bool;
      (** true if any field holds an object reference (arrays: ref elems) *)
  c_transportable : bool ref;
      (** class-level Transportable attribute (opt-in, Section 4.2.2) *)
}

type t
(** The class registry of one runtime instance. *)

val create : unit -> t
(** Fresh registry containing only [System.Object]. *)

val object_class : t -> method_table
(** The root class, id 1, no fields. *)

val declare : t -> name:string -> Types.class_id
(** Reserve an id for a class whose fields are not known yet (forward
    references between classes, e.g. a linked-list node). The placeholder
    has no fields; {!complete} must be called before any instance is
    allocated. Declaring an already-known name returns its id. *)

val complete :
  t ->
  Types.class_id ->
  ?transportable:bool ->
  fields:(string * Types.field_type * bool) list ->
  unit ->
  method_table
(** Fill in a declared class. Raises [Invalid_argument] if the id was not
    produced by {!declare} or was already completed. *)

val array_class : t -> Types.elem -> method_table
(** Interned 1-D array class for the element type. *)

val md_array_class : t -> Types.elem -> rank:int -> method_table
(** Interned multidimensional array class; [rank >= 2]. *)

val find : t -> Types.class_id -> method_table
(** Raises [Not_found] for an unknown id. *)

val find_by_name : t -> string -> method_table option
val field : method_table -> string -> field_desc
(** Raises [Not_found]. *)

val field_by_index : method_table -> int -> field_desc
