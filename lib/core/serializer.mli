(** Motor's custom serialization mechanism (paper Section 7.5).

    Produces a flat object-tree representation with two parts: a {e type
    table} of class information and {e object data} laid out side by side,
    each record prefixed by an internal type reference; object references
    are exchanged for local ids, and references to objects excluded from
    the serialization become null.

    Traversal is driven by the Transportable bit on the runtime's
    [FieldDesc] (no metadata reflection): transportable reference fields
    are followed recursively, other reference fields serialize as null,
    and array elements always propagate.

    The structure used to record visited objects is selectable, and only
    changes what lookups cost in virtual time: both record visited
    objects in one hash table. [Linear] prices the paper's linear list
    probe for probe without walking it — a lookup is charged the
    position of its object in the newest-first list, or the whole list on
    a miss — so its quadratic search cost shows in Figure 10 beyond ~2048
    objects. [Hashed] is the "efficient structure" the paper leaves as
    future work, charged one probe per lookup, kept here as an ablation.

    A {e split representation} — several independently deserializable
    segments produced from one array without building intermediate
    sub-arrays — supports the OScatter/OGather collectives. *)

exception Serialize_error of string

type visited_strategy = Linear | Hashed

val serialize :
  Vm.Gc.t -> visited:visited_strategy -> Vm.Object_model.obj -> Bytes.t

val serialize_array_slice :
  Vm.Gc.t ->
  visited:visited_strategy ->
  Vm.Object_model.obj ->
  offset:int ->
  count:int ->
  Bytes.t
(** Serialize a slice of a reference array as a standalone representation
    whose root is an array of [count] elements. Used for the offset/count
    OSend overloads and by {!split}. *)

val deserialize : Vm.Gc.t -> Bytes.t -> Vm.Object_model.obj
(** Rebuild the object graph in this runtime's heap; returns a fresh
    handle to the root (a null handle if the root was null). Classes are
    resolved by name against the receiving registry and their field
    signatures validated; mismatches raise {!Serialize_error}. *)

val split :
  Vm.Gc.t ->
  visited:visited_strategy ->
  Vm.Object_model.obj ->
  parts:int ->
  Bytes.t array
(** Split representation of a reference array: [parts] segments covering
    the elements contiguously and as evenly as possible (earlier segments
    take the remainder), each independently deserializable. *)

val concat_arrays : Vm.Gc.t -> Vm.Object_model.obj list -> Vm.Object_model.obj
(** Rebuild a single array from deserialized segment roots (the gather
    direction). All segments must be reference arrays with the same
    element class. *)

val object_count : Bytes.t -> int
(** Number of object records in a representation (tests, stats). *)
