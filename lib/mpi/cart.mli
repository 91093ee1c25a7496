(** Cartesian process topologies ([MPI_Cart_create] and friends).

    Maps a communicator onto an n-dimensional grid (row-major rank
    ordering, as in MPICH) with optional periodicity per dimension —
    the addressing scheme stencil codes use for neighbour exchange. *)

type t

val create :
  Mpi.proc -> Comm.t -> dims:int array -> periodic:bool array -> t option
(** Collective over [comm]. The product of [dims] must not exceed the
    communicator size; members beyond the grid get [None] (as with
    [MPI_Cart_create] without reordering). *)

val dims_create : nnodes:int -> ndims:int -> int array
(** [MPI_Dims_create]: factor [nnodes] into [ndims] balanced dimensions
    (most-balanced first). *)

val comm : t -> Comm.t
(** The grid communicator (a sub-communicator of the parent). *)

val coords : t -> int -> int array
(** Grid coordinates of a grid rank ([MPI_Cart_coords]). *)

val rank_of_coords : t -> int array -> int option
(** [MPI_Cart_rank]; [None] when a non-periodic coordinate is out of
    range, otherwise periodic dimensions wrap. *)

val shift : t -> Mpi.proc -> dim:int -> disp:int -> int option * int option
(** [MPI_Cart_shift]: (source, destination) grid ranks for a displacement
    along a dimension; [None] plays MPI_PROC_NULL at a non-periodic
    boundary. *)
