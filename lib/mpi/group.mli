(** Process groups ([MPI_Group]): ordered sets of world ranks with the
    standard set algebra, used to derive communicators.

    Membership mirrors {!Comm}'s sparse representation: arithmetic
    progressions are O(1) descriptors (so [of_comm] on a 64k-rank world
    communicator allocates no array), everything else a dense array with
    a lazy reverse index. {!rank_of} is O(1); the set algebra
    ({!union}, {!intersection}, {!difference}, {!similar}) is
    hashtable-backed and O(n + m). *)

type t

val of_comm : Comm.t -> t
(** Preserves the communicator's descriptor: O(1) for range comms. *)

val of_ranks : int list -> t
(** Raises [Invalid_argument] on duplicates or negative ranks. *)

val size : t -> int
val rank_of : t -> int -> int option
(** Group rank of a world rank, if a member. O(1). *)

val world_rank : t -> int -> int
(** World rank of a group rank; raises [Invalid_argument] out of range. *)

val members : t -> int array
(** Materialized membership (a fresh array). O(size). *)

val is_range : t -> bool
(** [true] iff the membership is held as an O(1) range descriptor. *)

val incl : t -> int list -> t
(** Subgroup of the given group ranks, in the given order ([MPI_Group_incl]). *)

val excl : t -> int list -> t
(** Remove the given group ranks, preserving order ([MPI_Group_excl]). *)

val union : t -> t -> t
(** Members of the first, then members of the second not in the first. *)

val intersection : t -> t -> t
(** Members of the first that are also in the second, first's order. *)

val difference : t -> t -> t
(** Members of the first not in the second, first's order. *)

val equal : t -> t -> bool
(** Same members in the same order ([MPI_IDENT]). *)

val similar : t -> t -> bool
(** Same members, any order ([MPI_SIMILAR]). *)

val comm_create : Mpi.proc -> Comm.t -> t -> Comm.t option
(** Collective over [comm]: members of the group receive the new
    communicator, others get [None] ([MPI_Comm_create]). The group must be
    a subset of the communicator. *)
