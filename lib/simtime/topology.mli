(** The fabric model: [nodes] machines of [cores] ranks each, block-mapped
    (world rank [r] lives on node [r / cores]; ranks past the last full
    node fold onto the last node). The channel layer prices each message
    by tier — intra-node endpoints pay the shm-class figures, inter-node
    endpoints the sock-class figures — and the collectives layer switches
    to two-level (hierarchical) algorithms when {!multi_node} holds. *)

type t

val make : nodes:int -> cores:int -> t
(** Raises [Invalid_argument] unless both are at least 1. *)

val single : n:int -> t
(** The flat world: one node of [n] cores (every message intra-tier). *)

val nodes : t -> int
val cores : t -> int

val size : t -> int
(** [nodes * cores]. A world may hold fewer ranks (a partial last node)
    but never more. *)

val multi_node : t -> bool

val node_of : t -> int -> int
(** Node id of a world rank; clamped to the last node for ranks beyond
    [size] (dynamically spawned processes land on the last node). *)

val same_node : t -> int -> int -> bool
