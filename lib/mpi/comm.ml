(* Membership is a descriptor, not necessarily an array: identity
   communicators (the world, contiguous shards, strided leader slices)
   are arithmetic progressions stored in O(1) — start, step, count — so a
   64k-rank world costs each rank three ints of membership state, not a
   64k-entry array per communicator. General enumerated memberships keep
   the dense representation, with a lazily-built reverse index so
   [comm_rank_of] is O(1) there too. *)

type membership =
  | Range of { start : int; step : int; count : int }
  | Enum of { ranks : int array; index : (int, int) Hashtbl.t Lazy.t }

type t = { ctx : int; ctx_coll : int; membership : membership }

(* Every tag sent on a collective context belongs to one phase's range.
   Only the widths are chosen here: bases are allocated in list order
   from 0x4200, each rounded up to a multiple of 16, so two ranges can
   never overlap and a flipped low tag bit stays inside its own range or
   lands in the gap after it. *)
type phase =
  | Barrier | Bcast | Bcast_scag | Scatter | Scatter_binomial | Gather
  | Gather_binomial | Allgather_ring | Allgather_rd | Reduce | Allreduce_rd
  | Rabenseifner | Alltoall | Scan
  | Hier_reduce | Hier_rd | Hier_rs | Hier_bcast | Hier_xbcast | Hier_root
  | Hier_barrier | Hier_fan | Hier_gather | Hier_ring
  | Split

type tag_range = { phase : phase; base : int; width : int }

let tag_ranges =
  let widths =
    [
      (Barrier, 64); (Bcast, 1); (Bcast_scag, 0x140); (Scatter, 1);
      (Scatter_binomial, 1); (Gather, 1); (Gather_binomial, 1);
      (Allgather_ring, 0x100); (Allgather_rd, 64); (Reduce, 1);
      (Allreduce_rd, 64); (Rabenseifner, 128); (Alltoall, 1); (Scan, 1);
      (Hier_reduce, 1); (Hier_rd, 64); (Hier_rs, 128); (Hier_bcast, 1);
      (Hier_xbcast, 1); (Hier_root, 1); (Hier_barrier, 64); (Hier_fan, 2);
      (Hier_gather, 1); (Hier_ring, 0x100); (Split, 2);
    ]
  in
  let alloc (base, acc) (phase, width) =
    ((base + width + 15) land lnot 15, { phase; base; width } :: acc)
  in
  List.rev (snd (List.fold_left alloc (0x4200, []) widths))

let coll_range phase = List.find (fun r -> r.phase = phase) tag_ranges

let coll_tag phase i =
  let r = coll_range phase in
  r.base + (i mod r.width)

let index_of ranks =
  lazy
    (let h = Hashtbl.create (Array.length ranks) in
     Array.iteri (fun i r -> Hashtbl.replace h r i) ranks;
     h)

(* Recognize an arithmetic progression with positive step, so [make]
   yields the O(1) descriptor whenever the membership admits one. *)
let normalize ranks =
  let n = Array.length ranks in
  if n = 1 then Range { start = ranks.(0); step = 1; count = 1 }
  else begin
    let step = ranks.(1) - ranks.(0) in
    let rec arith i =
      i >= n || (ranks.(i) - ranks.(i - 1) = step && arith (i + 1))
    in
    if step >= 1 && arith 2 then
      Range { start = ranks.(0); step; count = n }
    else Enum { ranks; index = index_of ranks }
  end

let make ~ctx ~members =
  if Array.length members = 0 then invalid_arg "Comm.make: empty group";
  { ctx; ctx_coll = ctx + 1; membership = normalize members }

let range ~ctx ?(step = 1) ~start ~count () =
  if count < 1 then invalid_arg "Comm.range: empty range";
  if step < 1 then invalid_arg "Comm.range: step must be positive";
  if start < 0 then invalid_arg "Comm.range: negative start";
  { ctx; ctx_coll = ctx + 1; membership = Range { start; step; count } }

let with_ctx t ~ctx = { t with ctx; ctx_coll = ctx + 1 }

let size t =
  match t.membership with
  | Range { count; _ } -> count
  | Enum { ranks; _ } -> Array.length ranks

let world_rank_of t r =
  if r < 0 || r >= size t then
    invalid_arg (Printf.sprintf "Comm.world_rank_of: rank %d out of range" r);
  match t.membership with
  | Range { start; step; _ } -> start + (r * step)
  | Enum { ranks; _ } -> ranks.(r)

let comm_rank_of t world_rank =
  match t.membership with
  | Range { start; step; count } ->
      let d = world_rank - start in
      if d >= 0 && d mod step = 0 && d / step < count then Some (d / step)
      else None
  | Enum { index; _ } -> Hashtbl.find_opt (Lazy.force index) world_rank

let members t =
  match t.membership with
  | Range { start; step; count } ->
      Array.init count (fun i -> start + (i * step))
  | Enum { ranks; _ } -> Array.copy ranks

let range_info t =
  match t.membership with
  | Range { start; step; count } -> Some (start, step, count)
  | Enum _ -> None
