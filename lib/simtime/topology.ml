(* The fabric model: [nodes] machines of [cores] ranks each, mapped
   block-wise (world rank r lives on node r / cores). Two cost tiers —
   endpoints sharing a node use the intra-node (shm-class) figures, all
   other traffic the inter-node (sock-class) figures; the channel layer
   consults {!same_node} per message. A world built without a topology
   behaves as one big node (every message intra-tier), which is exactly
   the flat model this generalizes. *)

type t = { nodes : int; cores : int }

let make ~nodes ~cores =
  if nodes < 1 then invalid_arg "Topology.make: need at least one node";
  if cores < 1 then invalid_arg "Topology.make: need at least one core";
  { nodes; cores }

let single ~n =
  if n < 1 then invalid_arg "Topology.single: need at least one rank";
  { nodes = 1; cores = n }

let nodes t = t.nodes
let cores t = t.cores
let size t = t.nodes * t.cores
let multi_node t = t.nodes > 1

let node_of t rank =
  if rank < 0 then invalid_arg "Topology.node_of: negative rank";
  min (rank / t.cores) (t.nodes - 1)

let same_node t a b = node_of t a = node_of t b
