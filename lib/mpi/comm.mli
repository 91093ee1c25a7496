(** Communicators: an ordered member group plus isolated context ids.

    Point-to-point traffic uses [ctx]; collectives use [ctx_coll] — the
    MPICH convention of allocating two context ids per communicator so a
    user receive can never match a collective's internal message.

    Membership is a {e descriptor}: identity communicators (the world,
    contiguous shards, strided slices — any arithmetic progression of
    world ranks) are stored as O(1) [start]/[step]/[count] triples, so
    per-rank membership state is O(1) no matter the world size. General
    enumerated memberships keep a dense array plus a lazily-built reverse
    index. Both directions of the rank mapping ({!world_rank_of},
    {!comm_rank_of}) are O(1) in either representation. *)

type t = private {
  ctx : int;  (** point-to-point context id *)
  ctx_coll : int;  (** collective context id *)
  membership : membership;
}

and membership = private
  | Range of { start : int; step : int; count : int }
  | Enum of { ranks : int array; index : (int, int) Hashtbl.t Lazy.t }

(** {1 Collective-context tags} *)

(** The phases that send on [ctx_coll]: one per collective algorithm
    round structure (hierarchical phases apart from their flat
    counterparts, so an in-flight two-level collective never matches a
    concurrent flat one), plus {!Mpi.comm_split}'s table exchange. *)
type phase =
  | Barrier | Bcast | Bcast_scag | Scatter | Scatter_binomial | Gather
  | Gather_binomial | Allgather_ring | Allgather_rd | Reduce | Allreduce_rd
  | Rabenseifner | Alltoall | Scan
  | Hier_reduce | Hier_rd | Hier_rs | Hier_bcast | Hier_xbcast | Hier_root
  | Hier_barrier | Hier_fan | Hier_gather | Hier_ring
  | Split

type tag_range = { phase : phase; base : int; width : int }

val tag_ranges : tag_range list
(** Every phase's range [\[base, base + width)], in allocation order.
    Only the widths are declared; the bases follow from the order, so
    the ranges are disjoint by construction. *)

val coll_range : phase -> tag_range

val coll_tag : phase -> int -> int
(** [coll_tag phase i] is round [i]'s tag: [base + i mod width], so a
    round tag never leaves its phase's range. *)

val make : ctx:int -> members:int array -> t
(** [ctx_coll] is [ctx + 1]; allocate contexts in steps of two. The
    membership is normalized: an arithmetic progression with positive
    step becomes the O(1) range descriptor; anything else stays an
    enumerated array. *)

val range : ctx:int -> ?step:int -> start:int -> count:int -> unit -> t
(** Build an identity communicator directly as a descriptor — no array
    is ever materialized. [step] defaults to 1 (contiguous). *)

val with_ctx : t -> ctx:int -> t
(** Same membership (shared, not copied), fresh context pair. *)

val size : t -> int
val world_rank_of : t -> int -> int
(** O(1). Raises [Invalid_argument] on an out-of-range communicator
    rank. *)

val comm_rank_of : t -> int -> int option
(** Communicator rank of a world rank, if a member. O(1). *)

val members : t -> int array
(** Materialize the membership (a fresh array, in communicator-rank
    order). O(size) — callers on the scale path should prefer
    {!world_rank_of}/{!comm_rank_of}. *)

val range_info : t -> (int * int * int) option
(** [(start, step, count)] when the membership is a range descriptor. *)
